"""Text files: lines end only at newlines, and a failed save leaves the previous file as it was."""

import errno
import os
import random
import tracemalloc

import pytest

from pswm import (
    DataError,
    Document,
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
    assert fileio.read_lines(path, "test") == lines


def test_save_index_holds_no_joined_copy_of_the_file(tmp_path):
    # The lines hold the file's text about once; a joined copy of them would hold it twice more.
    rng = random.Random(7)
    words = [f"word{i}" for i in range(500)]
    docs = [Document(id=f"d{i:05d}", title=f"title {i}", body=" ".join(rng.choices(words, k=80)))
            for i in range(2000)]
    index = build_index(docs)
    path = tmp_path / "idx"
    tracemalloc.start()
    try:
        save_index(index, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size
    assert load_index(path) == index


@pytest.mark.parametrize("load", [parse_corpus_file, load_index, load_model, parse_judgments_file])
def test_unreadable_file_error_names_its_path_once(load, tmp_path):
    path = tmp_path / "no-such-file"
    with pytest.raises(DataError, match="cannot read .* file .*: No such file or directory$") as exc:
        load(path)
    assert str(exc.value).count(str(path)) == 1
