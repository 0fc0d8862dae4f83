"""Atomic file output shared by the binary and text writers."""

from __future__ import annotations

import contextlib
import os
import uuid
from pathlib import Path


@contextlib.contextmanager
def atomic_writer(path, mode: str = "wb", newline: str | None = None):
    """File handle whose contents replace ``path`` only if the block
    finishes without an exception.

    ``mode`` is ``"wb"`` for a binary handle or ``"w"`` for a text handle
    that writes what ``open(path, "w", newline=newline)`` would. Bytes go
    to a temporary file in the target's directory, made with its missing
    parents, which is renamed onto the target with ``os.replace``, so
    ``path`` holds either its old contents or the whole new file. On any
    exception the temporary file is deleted, and so are the directories
    made here, innermost first, that hold no other writer's file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    made = []  # innermost first
    try:
        for d in reversed(path.parents):
            if not d.is_dir():
                with contextlib.suppress(FileExistsError):
                    d.mkdir()
                    made.insert(0, d)
        # same permissions as a plain open(): 0o666 less the umask
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as ``Path.write_text`` would, atomically."""
    with atomic_writer(path, "w") as fh:
        fh.write(text)
