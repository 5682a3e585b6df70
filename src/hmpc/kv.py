"""Flat ``key = value`` config files.

One assignment per line; ``#`` starts a comment at the start of a line
or after whitespace, so a path may hold ``a#b``; values are kept as
strings for the caller to coerce.  Quoted values lose their quotes.
"""

from __future__ import annotations

import re


def parse_kv(text: str, source: str = "<string>") -> dict:
    doc: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
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
    with open(path, "w") as fh:
        for key, value in doc.items():
            fh.write(f"{key} = {value}\n")
