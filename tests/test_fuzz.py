"""Fuzzing and properties.

Every loader ends in a value or a DataError, a saved index loads back equal
with the brute-force postings and answers every token lookup with them,
lookups tokenize fewer than twice the doc count before the full build,
`ingest` prints the brute-force distinct-token count, `analyze`,
`attach_probabilities`, `MetaRecord.from_raw`, the record decoder and
`train` of a [2, H, 1] net equal their plain definitions, the CLI never
raises, a `pswm` process ends with a documented exit code and no traceback
whatever its argv bytes, stdout encoding and stdout reader, and every
artifact a command writes, the next command accepts.
"""

import contextlib
import io
import json
import math
import os
import select
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from pswm import (
    CandidateFeatures,
    DataError,
    Document,
    InvertedIndex,
    MetaRecord,
    Network,
    TrainingExample,
    analyze,
    attach_probabilities,
    build_index,
    build_syntax_tree,
    cli,
    corpus,
    forward,
    load_index,
    load_model,
    parse_corpus_file,
    parse_judgments_file,
    save_index,
    semantic_score,
    syntactic_score,
    tokenize,
    train,
)
from pswm.corpus import INDEX_MAGIC
from pswm.neural import MODEL_MAGIC

from conftest import CORPUS_PATH, JUDGMENTS_PATH
from test_cli import _child_env
from test_neural import _bits, _reference_train

FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
PROPERTY = settings(max_examples=100, deadline=None)

# A small alphabet keeps generation fast and still reaches JSON syntax, control and non-ASCII characters.
_chars = "aAz09 _-.,:#\"'{}[]\\\t\r\x00\u00e9\u20ac\u2028"


def _text(max_size: int, min_size: int = 0) -> st.SearchStrategy[str]:
    return st.text(_chars, min_size=min_size, max_size=max_size)


def _mostly(valid, invalid):
    """`valid` three draws in four, so the checks behind the first malformed field are reached too.

    Not `st.one_of(valid, valid, valid, invalid)`: that flattens a union such as `_json` into its
    alternatives, each drawn as often as `valid`.
    """
    return st.integers(0, 3).flatmap(lambda k: invalid if k == 3 else valid)


_scalars = st.none() | st.booleans() | st.integers(-2, 3) | st.just(10**400) | st.floats() | _text(6)
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
# json.dumps refuses to write an int this long, so its line is raw text.
_record_lines = _mostly(_records.map(json.dumps), _text(30) | st.just('{"id": "a", "body": %s}' % ("9" * 5000)))


def _lines(magic: str, lines: st.SearchStrategy[list[str]]) -> st.SearchStrategy[bytes]:
    """UTF-8 text that mostly opens with `magic`, or raw bytes."""
    text = st.tuples(_mostly(st.just([magic]), st.just([])), lines).map(
        lambda parts: "\n".join(parts[0] + parts[1]).encode("utf-8")
    )
    return _mostly(text, st.binary(max_size=100))


_index_records = _mostly(
    st.tuples(
        _mostly(_text(3, min_size=1), _json), _mostly(_text(3), _json), _mostly(_text(3), _json),
        _mostly(_text(20), _json), _mostly(st.lists(_mostly(_text(5), _json), max_size=3), _json),
        _mostly(st.dictionaries(_text(5), _mostly(st.floats(-0.5, 1.5), _json), max_size=3), _json),
    ).map(list),
    _json | st.lists(_json, min_size=5, max_size=7),
)
_index_record_lines = _mostly(
    _index_records.map(json.dumps), _text(30) | st.just('["a", "", "", %s, [], {}]' % ("9" * 5000))
)


@st.composite
def _index_lines(draw):
    records = draw(st.lists(_index_record_lines, max_size=4))
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


def _splits_a_judgment(doc_id: str) -> bool:
    """Whether `doc_id` holds a TAB, CR or LF, which no judgments line can name: no index may hold it."""
    return any(c in doc_id for c in "\t\r\n")


def _concepts(tags: st.SearchStrategy[str], max_size: int) -> st.SearchStrategy[dict]:
    """Concept dicts whose tags stay distinct once stripped and lowercased, as `MetaRecord.from_raw` requires."""
    return st.lists(st.tuples(tags, st.floats(0.0, 1.0)), max_size=max_size,
                    unique_by=lambda item: item[0].strip().lower()).map(dict)


_documents = st.lists(
    st.builds(
        Document, id=_doc_text(3, min_size=1), url=_doc_text(3), title=_doc_text(3), body=_doc_text(20),
        meta=st.builds(MetaRecord.from_raw, st.lists(_doc_text(5), max_size=3), _concepts(_doc_text(5), 3)),
    ),
    max_size=4, unique_by=lambda doc: doc.id,
)


def test_saved_index_loads_equal_to_the_built_one(scratch):
    path = scratch / "roundtrip"

    @FUZZ
    @given(docs=_documents)
    def check(docs):
        index = build_index(docs)
        if any(_splits_a_judgment(doc.id) for doc in docs):
            with pytest.raises(ValueError, match="holds a TAB, CR or LF"):
                save_index(index, path)
            return
        save_index(index, path)
        assert load_index(path) == index

    check()


def _brute_force_postings(docs: list[Document]) -> dict[str, list[str]]:
    ordered = sorted(docs, key=lambda doc: doc.id)
    tokens = set().union(*(tokenize(doc.body) for doc in docs))
    return {t: [doc.id for doc in ordered if t in tokenize(doc.body)] for t in tokens}


# Words whose lower() is longer (İ), depends on its neighbours (a final Σ, also across the soft hyphen U+00AD
# that the rule skips), leaves ASCII (the Kelvin sign) or changes under other case mappings (ß, ﬁ), and words
# that hold other words as substrings: where filtering on the lowered body could err.
_lookup_words = st.sampled_from(["web", "webs", "İ", "İstanbul", "i", "ß", "ss", "ΟΔΟΣ", "Σ", "AΣ", "σ", "ς",
                                 "Σ\u00ad", "\u00ad", "\u212a", "ﬁle", "file"])
_lookup_documents = st.lists(
    st.builds(Document, id=_doc_text(3, min_size=1),
              body=_doc_text(20) | st.lists(_lookup_words | _doc_text(3), max_size=5).map(" ".join)),
    max_size=4, unique_by=lambda doc: doc.id,
)


def test_postings_equal_brute_force_when_built_and_when_loaded(scratch):
    path = scratch / "postings"

    @PROPERTY
    @given(docs=_lookup_documents)
    def check(docs):
        expected = _brute_force_postings(docs)
        # Every token, an absent one, and the strings that are substrings of a token but may be no token.
        probes = [*expected, "qq", *{part for t in expected for part in (t[1:], t[:-1]) if part}]
        indexes = [build_index(docs)]
        if any(_splits_a_judgment(doc.id) for doc in docs):
            with pytest.raises(ValueError, match="holds a TAB, CR or LF"):
                save_index(indexes[0], path)
        else:
            save_index(indexes[0], path)
            indexes.append(load_index(path))
        for index in indexes:
            for token in probes:
                # A first lookup on a nonempty index, and often its repeat, take the per-token path;
                # later ones reach the switch to `postings`.
                fresh = InvertedIndex(index.docs)
                assert fresh.posting(token) == fresh.posting(token) == expected.get(token, [])
                assert index.posting(token) == expected.get(token, [])
            assert index.postings == expected
            assert all(index.posting(token) == expected.get(token, []) for token in probes)

    check()


def test_lookups_tokenize_under_twice_the_doc_count_before_the_build(monkeypatch):
    calls: list[str] = []
    monkeypatch.setattr(corpus, "tokenize", lambda text: calls.append(text) or tokenize(text))

    @PROPERTY
    @given(docs=_lookup_documents, lookups=st.lists(_lookup_words | _doc_text(3), max_size=12))
    def check(docs, lookups):
        index = build_index(docs)
        calls.clear()
        for token in lookups:
            before = len(calls)
            index.posting(token)
            if "postings" in vars(index):
                assert len(calls) - before == len(docs)  # the build tokenizes each body once
                del calls[before:]
                break
        # The bodies lookups tokenized before the full view existed.
        assert len(calls) < 2 * len(docs) if docs else not calls

    check()


def test_ingest_counts_the_brute_force_tokens(scratch):
    corpus_path, index_path = scratch / "count_corpus", scratch / "count_idx"

    @PROPERTY
    @given(docs=_lookup_documents)
    def check(docs):
        corpus_path.write_text("".join(json.dumps({"id": d.id, "body": d.body}) + "\n" for d in docs), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["ingest", "--corpus", str(corpus_path), "--index", str(index_path)])
        if any(_splits_a_judgment(d.id) for d in docs):
            assert code == 2
            return
        assert code == 0
        count = len(_brute_force_postings(docs))
        assert out.getvalue().splitlines()[0] == f"ingested {len(docs)} documents, {count} distinct tokens"
        assert len(load_index(index_path).postings) == count

    check()


def _reference_from_raw(keywords, concepts) -> MetaRecord:
    """`MetaRecord.from_raw` as one checked loop per tag kind: the result and errors it must keep."""
    norm_kw = set()
    for kw in keywords:
        if not isinstance(kw, str):
            raise ValueError(f"keyword is not a string: {kw!r}")
        kw = kw.strip().lower()
        if kw:
            norm_kw.add(kw)
    norm_concepts = {}
    for tag, weight in concepts.items():
        if not isinstance(tag, str):
            raise ValueError(f"concept tag is not a string: {tag!r}")
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ValueError(f"concept weight for {tag!r} is not a number: {weight!r}")
        if not 0 <= weight <= 1:
            raise ValueError(f"concept weight for {tag!r} outside [0, 1]: {weight}")
        w = float(weight)
        tag = tag.strip().lower()
        if tag in norm_concepts:
            raise ValueError(f"concept tag {tag!r} appears twice after stripping and lowercasing")
        if tag:
            norm_concepts[tag] = w
    return MetaRecord(keywords=norm_kw, concepts=norm_concepts)


_raw_tags = _text(4) | st.sampled_from([" Web ", "WEB", "", " ", "Σ"])
_odd_values = (st.booleans() | st.integers(-2, 3) | st.sampled_from([10**400, -10**400, math.nan])
               | st.floats() | _text(3))


def _outcome(build, keywords, concepts):
    try:
        meta = build(keywords, concepts)
    except ValueError as exc:
        return "error", str(exc)
    # repr tells 1 from 1.0 and 0.0 from -0.0; item order is the dict's own.
    return sorted(meta.keywords), [(tag, repr(w)) for tag, w in meta.concepts.items()]


@PROPERTY
@given(keywords=st.lists(_mostly(_raw_tags, _odd_values), max_size=4),
       concepts=st.dictionaries(_mostly(_raw_tags, _odd_values), _mostly(st.floats(0.0, 1.0), _odd_values),
                                max_size=4))
def test_from_raw_equals_the_checked_loop(keywords, concepts):
    assert _outcome(MetaRecord.from_raw, keywords, concepts) == _outcome(_reference_from_raw, keywords, concepts)


_json_lines = _mostly(_json.map(json.dumps), _text(12)) | st.sampled_from(
    [" 1", "1 ", "\ufeff1", "[1] x", "[1]]", "NaN", "-Infinity", "1" * 5000, "[" * 100_000 + "]" * 100_000, ""])


@PROPERTY
@given(line=_json_lines)
def test_json_line_decodes_and_fails_as_json_loads(line):
    try:
        expected = repr(json.loads(line))
    except (ValueError, RecursionError) as exc:
        expected = f"line 7: invalid JSON: {exc}"
    try:
        got = repr(corpus._json_line(line, 7))
    except DataError as exc:
        got = str(exc)
    assert got == expected


# Few words over few documents, so queries, bodies and tags overlap often.
_words = st.sampled_from(["web", "Web", "semantic", "data", "mining", "x1", "\u00e9t\u00e9"])


def _phrase(min_words: int, words=_words) -> st.SearchStrategy[str]:
    parts = st.lists(st.tuples(words, st.sampled_from([" ", "-", "_", ", ", "!"])), min_size=min_words, max_size=5)
    return parts.map(lambda pairs: "".join(w + sep for w, sep in pairs))


_tags = _words | st.sampled_from(["semantic web", "e-commerce", " Data "])
_word_documents = st.lists(
    st.builds(
        Document, id=st.text("aB19", min_size=1, max_size=2), body=_phrase(0),
        meta=st.builds(MetaRecord.from_raw, st.lists(_tags, max_size=3), _concepts(_tags, 2)),
    ),
    max_size=6, unique_by=lambda doc: doc.id,
)


@PROPERTY
@given(docs=_word_documents, query=_phrase(1, _words | st.just("zzz")))
def test_analyze_equals_brute_force_over_every_document(docs, query):
    tree = build_syntax_tree(query)
    expected = [
        CandidateFeatures(doc.id, syntactic_score(tree, doc), semantic_score(tree, doc.meta))
        for doc in sorted(docs, key=lambda doc: doc.id)
        if set(tree.leaves) & set(tokenize(doc.body))
    ]
    assert analyze(tree, build_index(docs)) == expected


# Any finite weight: huge ones overflow exp in the sigmoid, which must saturate without a warning.
_weight = st.floats(-5.0, 5.0) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _ranking_networks(draw):
    hidden = draw(st.integers(1, 4))
    # (units, incoming weights with the bias) per layer
    shapes = [(hidden, 3), (1, hidden + 1)]
    return Network([2, hidden, 1], [
        [draw(st.lists(_weight, min_size=width, max_size=width)) for _ in range(units)] for units, width in shapes
    ])


@PROPERTY
@given(net=_ranking_networks(), rows=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=5))
def test_attach_probabilities_equals_forward_bitwise(net, rows):
    candidates = [CandidateFeatures(f"d{i}", s, m) for i, (s, m) in enumerate(rows)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranked = attach_probabilities(candidates, net)
        expected = [forward(net, [s, m])[-1][0] for s, m in rows]
    assert [r.probability.hex() for r in ranked] == [p.hex() for p in expected]


@st.composite
def _training_runs(draw):
    hidden = draw(st.integers(1, 12))
    # Weights up to 1e3 make math.exp overflow and underflow inside the sigmoid, small ones keep units
    # off saturation; features and desired values lie in [0, 1], as in ranking, and rates up to 1e300
    # still leave the weights finite.
    weight = st.floats(-5.0, 5.0) | st.floats(-1e3, 1e3)
    weights = [[draw(st.lists(weight, min_size=3, max_size=3)) for _ in range(hidden)],
               [draw(st.lists(weight, min_size=hidden + 1, max_size=hidden + 1))]]
    data = draw(st.lists(st.builds(lambda s, m, d: TrainingExample([s, m], [d]),
                                   st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                         min_size=1, max_size=9))
    learning_rate = draw(st.floats(1e-3, 10.0) | st.floats(10.0, 1e300))
    return [2, hidden, 1], weights, data, draw(st.integers(1, 5)), learning_rate, draw(st.integers(0, 2**32))


@PROPERTY
@given(run=_training_runs())
def test_train_of_a_2h1_net_equals_the_public_functions_bitwise(run):
    # `train` runs every epoch through its one loop; the reference runs forward, error and backprop.
    sizes, weights, data, epochs, learning_rate, seed = run
    expected, expected_trace = _reference_train(Network(sizes, weights), data, epochs, learning_rate, seed)
    got, trace = train(Network(sizes, weights), data, epochs, learning_rate, seed)
    assert [t.hex() for t in trace] == [t.hex() for t in expected_trace]
    assert _bits(got) == _bits(expected)


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
        # Stray arguments can name a relative output path, such as `--index x`.
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(args)
        finally:
            os.chdir(cwd)
    assert isinstance(code, int)


# Bytes that are not UTF-8 reach `sys.argv` as lone surrogates (surrogateescape), and leave as the same bytes.
_escaped_bytes = st.sampled_from(["\udcff", "\udce9", "\udc80x"])


@st.composite
def _process_argv(draw):
    """Mostly a valid command line, else `_argv`'s; half the time one argument ends in surrogate-escaped bytes."""
    valid = {
        "ingest": ["ingest", "--corpus", "corpus", "--index", "out"],
        "train": ["train", "--index", "idx", "--judgments", "judgments", "--model", "out", "--epochs", "1"],
        "search": ["search", draw(st.sampled_from(["semantic web mining", "s\u00e9mantic web", "zzz", "!!"])),
                   "--index", "idx", "--model", "model", "--format", draw(st.sampled_from(["text", "machine"]))],
        "eval": ["eval", "--index", "idx", "--model", "model", "--judgments", "judgments"],
        "gradcheck": ["gradcheck"],
    }
    argv = list(draw(_mostly(st.sampled_from(list(valid.values())), _argv())))
    if draw(st.booleans()):
        argv[draw(st.integers(0, len(argv) - 1))] += draw(_escaped_bytes)
    return argv


def _is_machine_search(argv) -> bool:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            return False
    return args.command == "search" and args.format == "machine"


def _read_then_close(pipe, keep: int, timeout: float) -> None:
    """Read at most `keep` bytes of `pipe`, then close it, so that its writer finds no reader."""
    while keep > 0 and select.select([pipe], [], [], timeout)[0]:
        chunk = os.read(pipe.fileno(), keep)
        if not chunk:
            break
        keep -= len(chunk)
    pipe.close()


@settings(max_examples=30, deadline=None)
@given(argv=_process_argv(), encoding=st.sampled_from([None, "utf-8:strict", "ascii"]),
       unbuffered=st.sampled_from([None, "1"]), keep=st.none() | st.just(0) | st.integers(1, 100))
def test_a_pswm_process_exits_with_a_documented_code_and_no_traceback(inputs, argv, encoding, unbuffered, keep):
    """`python -m pswm` with drawn argv, PYTHONIOENCODING and PYTHONUNBUFFERED (None unsets it); stdout closes
    after `keep` bytes, 0 before the process writes, or is read to the end."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        shutil.copytree(inputs, work)
        args = [str(work / a) if a in _FILES else a for a in argv]
        env = _child_env(PYTHONIOENCODING=encoding, PYTHONUNBUFFERED=unbuffered)
        with subprocess.Popen([sys.executable, "-m", "pswm", *args], cwd=tmp, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                if keep is not None:
                    _read_then_close(proc.stdout, keep, timeout=60)
                out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
    event(f"exit {proc.returncode}")
    assert proc.returncode in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_CHECK), err
    assert b"Traceback" not in err, err
    if proc.returncode == cli.EXIT_OK and keep is None and _is_machine_search(args):
        json.loads(out.decode("utf-8", "strict"))


# Mostly ids that any judgments line can name; one in four from `_chars` and the line ends, LF too.
_chain_ids = _mostly(st.text("aB19\u00e9\u2028 ", min_size=1, max_size=3),
                     st.text(_chars + "\n\u2029\x85", min_size=1, max_size=3))
_chain_records = st.fixed_dictionaries(
    {"id": _chain_ids, "body": _phrase(0) | _doc_text(12)},
    optional={
        "url": _doc_text(3),
        "title": _doc_text(3),
        "meta": st.fixed_dictionaries({}, optional={
            "keywords": st.lists(_tags | _doc_text(3), max_size=3),
            "concepts": _concepts(_tags, 2),
        }),
    },
)
# Values no record may hold: lone surrogates (escaped by json.dumps, or raw and so not UTF-8), huge ints, NaN.
_odd_fields = st.sampled_from([
    ("id", "a\ud800"), ("body", "web \udfff"), ("title", 10**400), ("body", math.nan),
    ("meta", {"keywords": ["\udc00x"]}), ("meta", {"concepts": {"web": math.nan}}),
    ("meta", {"concepts": {"web": 10**400}}),
]) | st.tuples(st.sampled_from(["id", "body", "url", "title", "meta"]), _json)


@st.composite
def _chain_corpora(draw):
    """Records, mostly valid; one corpus in four has one field replaced by an odd value."""
    records = draw(st.lists(_chain_records, max_size=4, unique_by=lambda record: record["id"]))
    if records and draw(_mostly(st.just(False), st.just(True))):
        key, value = draw(_odd_fields)
        draw(st.sampled_from(records))[key] = value
    return records


def _run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


@settings(max_examples=150, deadline=None)
@given(records=_chain_corpora(), ensure_ascii=st.booleans(), data=st.data())
def test_every_artifact_a_command_writes_the_next_command_accepts(records, ensure_ascii, data):
    """ingest, then train on its index, then search and eval on both: each accepts what the one before wrote.

    `--hypothesis-show-statistics` reports how many examples ran the whole chain.
    """
    text = "".join(json.dumps(record, ensure_ascii=ensure_ascii) + "\n" for record in records)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            # Raw surrogates are no UTF-8, so such a corpus cannot be read.
            Path("corpus").write_bytes(text.encode("utf-8", "surrogatepass"))
            code = _run("ingest", "--corpus", "corpus", "--index", "idx")
            assert code in (0, 2)
            if code == 2:
                assert not Path("idx").exists()
                event("ingest refused the corpus")
                return
            if not records:
                event("empty corpus")
                return
            ids = [record["id"] for record in records]
            judgments = data.draw(st.lists(st.tuples(_phrase(1), st.sampled_from(ids), st.sampled_from("01")),
                                           min_size=1, max_size=4))
            Path("judgments").write_text("".join("\t".join(j) + "\n" for j in judgments), encoding="utf-8")
            assert _run("train", "--index", "idx", "--judgments", "judgments", "--model", "net",
                        "--epochs", "1", "--hidden", "2") == 0
            query = data.draw(_phrase(1))
            assert _run("search", query, "--index", "idx", "--model", "net", "--cutoff", "0") == 0
            assert _run("search", query, "--index", "idx", "--model", "net", "--format", "machine") == 0
            assert _run("eval", "--index", "idx", "--model", "net", "--judgments", "judgments") == 0
            event("ran the whole chain")
        finally:
            os.chdir(cwd)
