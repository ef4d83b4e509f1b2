"""Reading and crash-safe writing of pswm's UTF-8 text files."""

from __future__ import annotations

import contextlib
import os

from .errors import DataError


def read_lines(path, kind: str) -> list[str]:
    """The lines of UTF-8 text file `path`.

    Only a newline ends a line (text mode reads CR LF and a lone CR as one),
    so U+0085, U+2028 and U+2029, which JSON writes unescaped, stay inside
    their line; `str.splitlines` would split on them. A final newline ends
    the last line rather than starting an empty one. Raises DataError
    naming the `kind` of file and `path`, once, when it cannot be read or decoded.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:  # an OSError's own text names the path again; its strerror does not
        raise DataError(f"cannot read {kind} file {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    if lines[-1] == "":
        lines.pop()
    return lines


def write_lines_atomic(path, lines: list[str]) -> None:
    """Replace `path` with a file holding each of `lines` followed by a newline, all or nothing.

    The lines go one by one, with no joined copy, to a fresh temporary file in
    the target's directory, are flushed to disk, and the file is renamed onto
    `path`. If any step fails the temporary file is removed and a previous
    file at `path` is untouched. An OSError names `path` and the reason, not the temporary file.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8", buffering=1 << 16)  # a system call per 64 KB of lines, not per 8 KB
        try:
            with fh:
                for line in lines:
                    fh.write(line)
                    fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
