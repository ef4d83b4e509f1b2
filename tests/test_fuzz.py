"""Fuzzing: every loader ends in a value or a DataError, a saved index loads back equal, and the CLI never raises."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pswm import (
    DataError,
    Document,
    MetaRecord,
    build_index,
    cli,
    load_index,
    load_model,
    parse_corpus_file,
    parse_judgments_file,
    save_index,
)
from pswm.corpus import INDEX_MAGIC
from pswm.neural import MODEL_MAGIC

from conftest import CORPUS_PATH, JUDGMENTS_PATH

FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# A small alphabet keeps generation fast and still reaches JSON syntax, control and non-ASCII characters.
_chars = "aAz09 _-.,:#\"'{}[]\\\t\r\x00\u00e9\u20ac\u2028"


def _text(max_size: int, min_size: int = 0) -> st.SearchStrategy[str]:
    return st.text(_chars, min_size=min_size, max_size=max_size)


def _mostly(valid, invalid):
    """`valid` three draws in four, so the checks behind the first malformed field are reached too."""
    return st.one_of(valid, valid, valid, invalid)


_scalars = st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | _text(6)
_json = _scalars | st.lists(_scalars, max_size=2) | st.dictionaries(_text(3), _scalars, max_size=2)
_records = _mostly(
    st.fixed_dictionaries(
        {"id": _mostly(_text(3, min_size=1), _json), "body": _mostly(_text(20), _json)},
        optional={
            "url": _mostly(_text(3), _json),
            "title": _mostly(_text(3), _json),
            "meta": _mostly(st.fixed_dictionaries({}, optional={
                "keywords": _mostly(st.lists(_mostly(_text(5), _json), max_size=3), _json),
                "concepts": _mostly(st.dictionaries(_text(5), _mostly(st.floats(-0.5, 1.5), _json), max_size=3),
                                    _json),
            }), _json),
        },
    ),
    _json,
)
_record_lines = _mostly(_records.map(json.dumps), _text(30))


def _lines(magic: str, lines: st.SearchStrategy[list[str]]) -> st.SearchStrategy[bytes]:
    """UTF-8 text that mostly opens with `magic`, or raw bytes."""
    text = st.tuples(_mostly(st.just([magic]), st.just([])), lines).map(
        lambda parts: "\n".join(parts[0] + parts[1]).encode("utf-8")
    )
    return _mostly(text, st.binary(max_size=100))


@st.composite
def _index_lines(draw):
    records = draw(st.lists(_record_lines, max_size=4))
    doc_count = draw(_mostly(st.just(len(records)), _json))
    return [json.dumps({"doc_count": doc_count})] + records


@st.composite
def _model_lines(draw):
    sizes = draw(_mostly(st.lists(st.integers(1, 3), min_size=2, max_size=3), st.lists(st.integers(0, 3), max_size=4)))
    weight = _mostly(st.floats(-2.0, 2.0).map(repr), st.sampled_from(["1e309", "nan", "inf", "-inf", "1_0", "x"]))
    rows = [
        " ".join(draw(st.lists(weight, min_size=width, max_size=width)))
        for source, width in zip(sizes, sizes[1:]) for _ in range(source + 1)
    ]
    return [draw(_mostly(st.just(" ".join(map(str, sizes))), _text(6)))] + draw(_mostly(st.just(rows), st.just([])))


_judgment_fields = st.tuples(
    _text(8), _mostly(st.sampled_from(["d01", "d02"]), _text(3)), _mostly(st.sampled_from("01"), _text(2))
)
_judgment_lines = st.lists(_mostly(_judgment_fields.map("\t".join), _text(12)), max_size=4)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("loader, contents", [
    (parse_corpus_file, _lines("", st.lists(_record_lines, max_size=4))),
    (load_index, _lines(INDEX_MAGIC, _index_lines())),
    (load_model, _lines(MODEL_MAGIC, _model_lines())),
    (parse_judgments_file, _lines("# judgments", _judgment_lines)),
], ids=["corpus", "index", "model", "judgments"])
def test_loader_returns_or_raises_data_error(scratch, loader, contents):
    path = scratch / loader.__name__

    @FUZZ
    @given(data=contents)
    def check(data):
        path.write_bytes(data)
        try:
            loader(path)
        except DataError:
            pass

    check()


def _doc_text(max_size: int, min_size: int = 0) -> st.SearchStrategy[str]:
    """`_text` with U+2029 and U+0085 added: with U+2028, the line ends of `str.splitlines` that JSON writes raw."""
    return st.text(_chars + "\u2029\x85", min_size=min_size, max_size=max_size)


_documents = st.lists(
    st.builds(
        Document, id=_doc_text(3, min_size=1), url=_doc_text(3), title=_doc_text(3), body=_doc_text(20),
        meta=st.builds(MetaRecord.from_raw, st.lists(_doc_text(5), max_size=3),
                       st.dictionaries(_doc_text(5), st.floats(0.0, 1.0), max_size=3)),
    ),
    max_size=4, unique_by=lambda doc: doc.id,
)


def test_saved_index_loads_equal_to_the_built_one(scratch):
    path = scratch / "roundtrip"

    @FUZZ
    @given(docs=_documents)
    def check(docs):
        index = build_index(docs)
        save_index(index, path)
        assert load_index(path) == index

    check()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding a corpus, an index, a model, judgments and a garbage file."""
    root = tmp_path_factory.mktemp("cli_inputs")
    shutil.copy(CORPUS_PATH, root / "corpus")
    shutil.copy(JUDGMENTS_PATH, root / "judgments")
    (root / "garbage").write_bytes(b"\xff\x00not a pswm file\n")
    (root / "dir").mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["ingest", "--corpus", str(root / "corpus"), "--index", str(root / "idx")]) == 0
        assert cli.main(["train", "--index", str(root / "idx"), "--judgments", str(root / "judgments"),
                         "--model", str(root / "model"), "--epochs", "2"]) == 0
    return root


_FILES = ["corpus", "idx", "model", "judgments", "garbage", "dir", "missing", "out"]


def _file(usual: str):
    return _mostly(st.just(usual), st.sampled_from(_FILES))


# Numbers stay small: --hidden N allocates 3 * N doubles and --epochs N trains N epochs.
_FLAG_VALUES = {
    "--corpus": _file("corpus"),
    "--index": _file("idx"),
    "--judgments": _file("judgments"),
    "--model": _file("model"),
    "--epochs": st.sampled_from(["0", "1", "2", "-1", "x"]),
    "--lr": st.sampled_from(["0.5", "1e300", "0", "-1", "nan", "inf", "x"]),
    "--seed": st.sampled_from(["0", "7", "-1", "x"]),
    "--hidden": st.sampled_from(["1", "3", "0", "-1", "x"]),
    "--cutoff": st.sampled_from(["0", "0.5", "1", "2", "nan", "x"]),
    "--top-k": st.sampled_from(["1", "2", "0", "x"]),
    "--format": st.sampled_from(["text", "machine", "x"]),
}
_COMMAND_FLAGS = {
    "ingest": ["--corpus", "--index"],
    "train": ["--index", "--judgments", "--model", "--epochs", "--lr", "--seed", "--hidden"],
    "search": ["--index", "--model", "--cutoff", "--top-k", "--format"],
    "eval": ["--index", "--model", "--judgments"],
    "gradcheck": ["--seed"],
    "bogus": [],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    args = []
    for flag in draw(st.permutations(_COMMAND_FLAGS[command])):
        if draw(_mostly(st.just(True), st.just(False))):
            args += [flag, draw(_FLAG_VALUES[flag])]
    if command == "search":
        query = draw(st.sampled_from(["semantic web", "web mining", "zzz", "", "!!"]))
        args.insert(2 * draw(st.integers(0, len(args) // 2)), query)
    stray = draw(st.lists(st.sampled_from(["--help", "--bogus", "x", "-1", *_FLAG_VALUES]), max_size=2))
    # Without --epochs, train would run the default 5000 epochs.
    return [command] + (["--epochs", "1"] if command == "train" else []) + args + stray


@FUZZ
@given(argv=_argv())
def test_main_returns_an_exit_code_and_never_raises(inputs, argv):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        shutil.copytree(inputs, work)
        args = [str(work / a) if a in _FILES else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args)
    assert isinstance(code, int)
