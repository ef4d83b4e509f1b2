"""Text files: lines end only at newlines and are read and written one at a time, and a failed save leaves the
previous file as it was."""

import errno
import json
import os
import random
import tracemalloc

import pytest

from pswm import (
    DataError,
    Document,
    InvertedIndex,
    MetaRecord,
    build_index,
    fileio,
    init_weights,
    load_index,
    load_model,
    parse_corpus_file,
    parse_judgments_file,
    save_index,
    save_model,
)


class _FullDisk:
    """File stand-in that passes on half of the first write, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("artifact", ["index", "model"])
def test_failed_save_keeps_previous_file(artifact, fixture_docs, tmp_path, monkeypatch):
    if artifact == "index":
        save, old, new = save_index, build_index(fixture_docs[:3]), build_index(fixture_docs)
    else:
        save, old, new = save_model, init_weights([2, 4, 1], 1), init_weights([2, 9, 1], 2)
    path = tmp_path / artifact
    save(old, path)
    before = path.read_bytes()
    assert os.listdir(tmp_path) == [artifact]

    monkeypatch.setattr(fileio, "open", lambda *a, **kw: _FullDisk(open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="No space"):
        save(new, path)

    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [artifact]


@pytest.mark.parametrize("text, lines", [
    ("", []),
    ("a", ["a"]),
    ("a\n", ["a"]),
    ("a\n\n", ["a", ""]),
    ("a\r\nb\rc\n", ["a", "b", "c"]),
    ("a\u2028b\u2029c\x85d\x0ce\n", ["a\u2028b\u2029c\x85d\x0ce"]),
])
def test_read_lines_splits_on_newlines_only(text, lines, tmp_path):
    path = tmp_path / "f"
    path.write_bytes(text.encode("utf-8"))
    assert list(fileio.read_lines(path, "test")) == lines


def _traced(call, *args):
    """`call(*args)`, the bytes tracemalloc traces once it returns (its result held), and their peak during it."""
    tracemalloc.start()
    try:
        result = call(*args)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, size, peak


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Paths of a generated 2k-doc corpus, its index, a judgments file and a model, each over 30000 bytes."""
    rng = random.Random(7)
    words = [f"word{i}" for i in range(500)]
    tags = [f"tag{i}" for i in range(60)]
    docs = [Document(id=f"d{i:05d}", url=f"http://example.org/{i}", title=f"title {i}",
                     body=" ".join(rng.choices(words, k=80)),
                     meta=MetaRecord.from_raw(rng.sample(tags, 3), {t: rng.random() for t in rng.sample(tags, 2)}))
                for i in range(2000)]
    root = tmp_path_factory.mktemp("generated")
    paths = {kind: root / kind for kind in ("corpus", "index", "judgments", "model")}
    paths["corpus"].write_text("".join(json.dumps({
        "id": d.id, "url": d.url, "title": d.title, "body": d.body,
        "meta": {"keywords": sorted(d.meta.keywords), "concepts": d.meta.concepts},
    }) + "\n" for d in docs), encoding="utf-8")
    save_index(build_index(docs), paths["index"])
    paths["judgments"].write_text("".join(f"{d.body[:20]}\t{d.id}\t{i % 2}\n" for i, d in enumerate(docs)),
                                  encoding="utf-8")
    save_model(init_weights([2, 600, 1], 1), paths["model"])
    return paths


def test_save_index_holds_no_joined_copy_of_the_file(generated, tmp_path):
    # Each record is encoded as it is written: the write buffer and one record, not the file's lines or their join.
    index = load_index(generated["index"])
    path = tmp_path / "idx"
    _, _, peak = _traced(save_index, index, path)
    assert peak < path.stat().st_size // 8
    assert path.read_bytes() == generated["index"].read_bytes()


@pytest.mark.parametrize("load, kind", [(parse_corpus_file, "corpus"), (load_index, "index")])
def test_loaders_hold_no_copy_of_the_file(generated, load, kind):
    # Each line is parsed as it is read; a file's text and its list of lines would add about half again.
    _, size, peak = _traced(load, generated[kind])
    assert peak <= 1.1 * size


@pytest.mark.parametrize("load, kind, file", [
    (parse_corpus_file, "corpus", "corpus"), (load_index, "index", "index"),
    (parse_judgments_file, "judgments", "judgments"), (load_model, "model", "model"),
    # A file of the wrong kind has a bad first line; the byte that is not UTF-8 is still the error reported.
    (parse_corpus_file, "corpus", "index"), (load_index, "index", "corpus"),
    (parse_judgments_file, "judgments", "index"),
], ids=["corpus", "index", "judgments", "model", "index-as-corpus", "corpus-as-index", "index-as-judgments"])
def test_undecodable_byte_error_gives_its_position_in_the_file(generated, load, kind, file, tmp_path):
    data = bytearray(generated[file].read_bytes())
    data[30000] = 0xFF  # past the first 8 KB chunks that the reader decodes one by one
    path = tmp_path / file
    path.write_bytes(data)
    with pytest.raises(DataError, match=f"^cannot read {kind} file .*: 'utf-8' codec can't decode byte 0xff "
                                        "in position 30000: invalid start byte$") as exc:
        load(path)
    assert str(exc.value).count(str(path)) == 1


@pytest.mark.parametrize("load, kind", [(load_index, "corpus"), (parse_corpus_file, "index"),
                                        (parse_judgments_file, "index")])
def test_a_loader_that_stops_at_a_bad_line_closes_its_file(generated, load, kind, monkeypatch):
    # Each file is of the wrong kind, so its first line is an error, and the loader reads the rest only to check
    # that it decodes. `exc` keeps the error's traceback alive, which holds the loader's frame and so its reader:
    # the loader must close it itself.
    opened = []
    monkeypatch.setattr(fileio, "open", lambda *a, **kw: opened.append(open(*a, **kw)) or opened[-1], raising=False)
    with pytest.raises(DataError) as exc:
        load(generated[kind])
    assert str(exc.value).startswith(("not a", "line 1: "))
    assert len(opened) == 1 and opened[0].closed


def test_save_index_that_fails_while_writing_keeps_previous_file(generated, tmp_path):
    path = tmp_path / "idx"
    path.write_bytes(before := generated["index"].read_bytes())
    index = load_index(path)
    index.docs["d01999"].meta.concepts["tag"] = object()  # the last record: JSON cannot encode its concept weight
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_index(index, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["idx"]


@pytest.mark.parametrize("key, doc, error", [
    ("b", Document(id="z", body="y"), "docs key 'b' differs from its document's id 'z'"),
    ("b\tc", Document(id="b\tc", body="y"), "holds a TAB, CR or LF"),
], ids=["key", "tab"])
def test_save_index_refuses_a_bad_id_before_it_opens_a_file(key, doc, error, tmp_path, monkeypatch):
    def no_open(*args, **kwargs):
        raise AssertionError("save_index opened a file")

    monkeypatch.setattr(fileio, "open", no_open, raising=False)
    with pytest.raises(ValueError, match=error):  # the bad id sorts last, after a record that could be written
        save_index(InvertedIndex(docs={"a": Document(id="a", body="x"), key: doc}), tmp_path / "idx")


@pytest.mark.parametrize("load", [parse_corpus_file, load_index, load_model, parse_judgments_file])
def test_unreadable_file_error_names_its_path_once(load, tmp_path):
    path = tmp_path / "no-such-file"
    with pytest.raises(DataError, match="cannot read .* file .*: No such file or directory$") as exc:
        load(path)
    assert str(exc.value).count(str(path)) == 1
