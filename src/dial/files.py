"""The one file writer: every artifact and proposal cache entry."""

from __future__ import annotations

import os


def write_once(path: str, text: str) -> None:
    """Create ``path`` holding ``text``; raise FileExistsError if it exists.

    The text goes to a temporary name in the same directory, which is
    then hard-linked to ``path``: the file appears whole or not at all,
    and an existing file is never replaced. The temporary name is removed
    on every exit path. Files get a plain ``open``'s mode.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        try:
            os.link(tmp, path)
        except FileExistsError:
            raise FileExistsError(f"refusing to overwrite existing output {path}") from None
    finally:
        os.unlink(tmp)
