"""Flat ``key = value`` config files.

One assignment per line; ``#`` starts a comment at the start of a line
or after whitespace, so a path may hold ``a#b``; values are kept as
strings for the caller to coerce (``coerce`` reads numbers).  A quoted
value loses its quotes and keeps everything between them, `` #``
included; ``write_kv`` quotes the values that would not read back as
written, with ``'`` where the value holds ``"``.
"""

from __future__ import annotations

import contextlib
import re

_COMMENT = re.compile(r"(?:^|\s)#")
# A whole value in quotes, then at most a comment.
_QUOTED = re.compile(r"""\s*(["'])(.*?)\1(?:\s+#.*)?\s*""")


def parse_kv(text: str, source: str = "<string>") -> dict:
    doc: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        quoted = _QUOTED.fullmatch(raw.partition("=")[2])
        value = quoted[2] if quoted else value.strip()
        if not key:
            raise ValueError(f"{source}:{lineno}: empty key")
        if key in doc:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        doc[key] = value
    return doc


def read_kv(path) -> dict:
    with open(path) as fh:
        return parse_kv(fh.read(), source=str(path))


def write_kv(path, doc: dict) -> None:
    """Write ``doc``; a value that needs quotes gets one kind it lacks."""
    with open(path, "w") as fh:
        for key, value in doc.items():
            value = str(value)
            if _COMMENT.search(value) or _QUOTED.fullmatch(value) or value != value.strip():
                quote = "'" if '"' in value else '"'
                if quote in value:
                    raise ValueError(f"{key}: value {value!r} needs quotes but holds both kinds")
                value = f"{quote}{value}{quote}"
            fh.write(f"{key} = {value}\n")


def coerce(key: str, raw, kind: type = float):
    """``raw`` as ``kind`` (int or float), or a ValueError that names
    ``key``; an int key also takes an integral float such as ``6.0``."""
    with contextlib.suppress(ValueError):
        return kind(raw)
    with contextlib.suppress(ValueError):
        value = float(raw)
        if kind is int and value.is_integer():
            return int(value)
    raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {raw!r}")
