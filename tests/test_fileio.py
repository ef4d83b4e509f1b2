"""Text files: lines end only at newlines, and a failed save leaves the previous file as it was."""

import errno
import os

import pytest

from pswm import build_index, fileio, init_weights, save_index, save_model


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
