"""The one file writer, strict JSON renderer and canonical-JSON digest of dial."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, is_dataclass
from typing import Any


def strict_json(value: Any) -> str:
    """``value`` as strict JSON (RFC 8259), keys sorted, indent 1: a dataclass as
    its fields, and a non-finite float, a degenerate correlation's NaN say, as null."""
    return json.dumps(_json_data(value), sort_keys=True, indent=1, allow_nan=False)


def _json_data(value: Any) -> Any:
    if is_dataclass(value):
        value = asdict(value)
    if isinstance(value, dict):
        return {key: _json_data(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_data(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def json_digest(value: Any) -> str:
    """sha256 hex of ``value`` as canonical JSON: keys sorted, json's default
    separators, and any value JSON cannot hold written as its ``str``."""
    return hashlib.sha256(json.dumps(value, sort_keys=True, default=str).encode()).hexdigest()


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
