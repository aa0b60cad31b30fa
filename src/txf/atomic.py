"""Atomic output files: every file txf writes goes through ``write_atomically``.

Standard library only, so any layer (and the CLI's contamination command,
which loads no other layer) can import it without loading the rest of txf.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["write_atomically"]


def write_atomically(path, write, newline=None) -> None:
    """Calls ``write(fh)`` on a UTF-8 temp file beside ``path``, then renames
    it over ``path``: a failed or killed write leaves the earlier file intact,
    and a failed one leaves no temp file behind. A target that is not a regular file, such as
    ``/dev/stdout`` on a pipe, cannot be replaced and is written directly;
    through a symlink, the file it names is replaced, not the link."""
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
        return
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        fh = open(temp, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        # Name the file the caller asked for, not the temp file.
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            write(fh)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
