"""Flat ``key = value`` files, and the one reader that types them.

One assignment per line; ``#`` starts a comment at the start of a line
or after whitespace, so a path may hold ``a#b``.  A quoted value loses
its quotes and keeps everything between them, `` #`` included;
``write_kv`` quotes the values that would not read back as written, with
``'`` where the value holds ``"``.  ``read_keys`` reads every such file
hmpc takes, run configs and battery parameters, against a table of keys.
"""

from __future__ import annotations

import contextlib
import math
import re
from collections import namedtuple
from dataclasses import MISSING as REQUIRED

_COMMENT = re.compile(r"(?:^|\s)#")
# A whole value in quotes, then at most a comment.
_QUOTED = re.compile(r"""\s*(["'])(.*?)\1(?:\s+#.*)?\s*""")
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean"}

# A key's kind (str, int, float or bool), its default (REQUIRED, or None
# for a key that may be absent) and its least value (None: no range check).
# REQUIRED is dataclasses.MISSING, so a dataclass field's default serves.
Key = namedtuple("Key", "kind default least", defaults=(REQUIRED, None))


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


def read_keys(path, keys: dict, noun: str, overrides: dict | None = None) -> tuple[dict, dict]:
    """The text of ``path`` with the non-None ``overrides`` on top, and its
    values by the table ``keys`` (name -> Key).  Refuses an unknown key,
    names a missing required key with ``path``, and refuses a number key
    with a least value when it is not finite or is below that value."""
    text = read_kv(path)
    unknown = set(text) - set(keys)
    if unknown:
        raise ValueError(f"unknown {noun} keys: {sorted(unknown)}")
    text.update((key, str(value)) for key, value in (overrides or {}).items()
                if value is not None)
    values = {}
    for key, (kind, default, least) in keys.items():
        if key not in text:
            if default is REQUIRED:
                raise ValueError(f"{path}: missing key {key!r}")
            values[key] = default
            continue
        value = values[key] = coerce(key, text[key], kind)
        if least is not None and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {text[key]!r}")
        if least is not None and value < least:
            bound = "nonnegative" if least == 0 else f"at least {least}"
            raise ValueError(f"{key} must be {bound}, got {text[key]!r}")
    return text, values


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
    """``raw`` as ``kind`` (str, int, float or bool), or a ValueError that
    names ``key``; an int key also takes an integral float such as
    ``6.0``, and a bool key one of 1/0, true/false, yes/no in any case."""
    with contextlib.suppress(KeyError, ValueError):
        return _BOOLS[raw.strip().lower()] if kind is bool else kind(raw)
    with contextlib.suppress(ValueError):
        value = float(raw)
        if kind is int and value.is_integer():
            return int(value)
    raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {raw!r}")
