"""Reading and crash-safe writing of pswm's UTF-8 text files, one line at a time.

`read_lines` yields a file's lines as it reads them and `write_lines_atomic`
writes lines as an iterable yields them, so neither holds a whole file's
text; a loader parses each line before it reads the next.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterable, Iterator

from .errors import DataError


def read_lines(path, kind: str) -> Iterator[str]:
    """Yield the lines of UTF-8 text file `path`, one at a time, as they are read.

    Only a newline ends a line (text mode reads CR LF and a lone CR as one),
    so U+0085, U+2028 and U+2029, which JSON writes unescaped, stay inside
    their line; `str.splitlines` would split on them. A final newline ends
    the last line rather than starting an empty one. Raises DataError
    naming the `kind` of file and `path`, once, when it cannot be read or
    decoded; an undecodable byte's position counts from the start of the
    file. A loader reads through `open_lines`, which closes the file when
    it stops early.
    """
    try:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    yield line.removesuffix("\n")
        except UnicodeDecodeError:
            # Iteration decodes the file in 8 KB chunks and counts the error's position from the
            # chunk's start; decoding the whole file again raises it with the position in the file.
            with open(path, encoding="utf-8") as fh:
                fh.read()
            raise
    except (OSError, UnicodeDecodeError) as exc:  # an OSError's own text names the path again; its strerror does not
        raise DataError(f"cannot read {kind} file {path}: {getattr(exc, 'strerror', None) or exc}") from exc


@contextlib.contextmanager
def open_lines(path, kind: str) -> Iterator[Iterator[str]]:
    """`read_lines(path, kind)` for a `with` block, which closes the file when the block ends.

    A DataError raised in the block goes out only once the rest of the file
    has been read, so a byte that is not UTF-8 anywhere in the file is the
    error reported, as it is when a file is read whole.
    """
    lines = read_lines(path, kind)
    try:
        yield lines
    except DataError:
        for _ in lines:
            pass
        raise
    finally:
        lines.close()


def write_lines_atomic(path, lines: Iterable[str]) -> None:
    """Replace `path` with a file holding each of `lines` followed by a newline, all or nothing.

    The lines go one by one, as `lines` yields them and with no joined copy,
    to a fresh temporary file in the target's directory, are flushed to
    disk, and the file is renamed onto `path`. If any step fails, `lines`
    raising included, the temporary file is removed and a previous file at
    `path` is untouched. An OSError names `path` and the reason, not the temporary file.
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
