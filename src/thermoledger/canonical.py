"""Canonical byte encoding shared by the ledger and the object store.

Every digest in the system is computed over these encodings, so they must
be bit-exact across runs, platforms, and languages:

* JSON with object keys sorted bytewise ascending, no insignificant
  whitespace, ASCII-escaped strings;
* integers rendered as decimal strings (values exceed 64-bit range);
* byte strings rendered as lowercase hex with a ``0x`` prefix.

Parsing is strict: anything that is not the unique canonical rendering of
its value (uppercase hex, leading zeros, stray signs, loose base64) is
rejected, so a stored encoding can always be reproduced byte-for-byte from
its parse. Every record decoder goes through here and raises ValueError,
which each caller maps to its own exception type.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from pathlib import Path
from typing import Callable

_UINT_RE = re.compile(r"0|[1-9][0-9]*")
_HEX_RE = re.compile(r"0x(?:[0-9a-f][0-9a-f])*")
_BARE_HEX64_RE = re.compile(r"[0-9a-f]{64}")
# last 4-char quantum of canonical base64: the bits that padding drops are zero
_B64_TAIL_RE = re.compile(r"[A-Za-z0-9+/](?:[A-Za-z0-9+/]{3}|[A-Za-z0-9+/][AEIMQUYcgkosw048]=|[AQgw]==)")


def canonical_json(obj) -> bytes:
    """Serialize a tree of dicts, lists, and strings to canonical JSON bytes.

    Numbers, booleans, and None are rejected: callers must pre-render
    integers with uint_to_str and bytes with bytes_to_hex so that the
    canonical form is unambiguous.
    """
    _check_tree(obj)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode("ascii")


def _check_tree(obj) -> None:
    if isinstance(obj, str):
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValueError(f"non-string key in canonical object: {key!r}")
            _check_tree(value)
        return
    if isinstance(obj, list):
        for item in obj:
            _check_tree(item)
        return
    raise ValueError(f"value not representable in canonical JSON: {obj!r}")


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def uint_to_str(value: int) -> str:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"not an unsigned integer: {value!r}")
    return str(value)


def parse_uint(text: str, *, max_value: int | None = None) -> int:
    """Parse a canonical decimal string (no sign, no leading zeros)."""
    if not isinstance(text, str) or not _UINT_RE.fullmatch(text):
        raise ValueError(f"not a canonical unsigned integer: {text!r}")
    value = int(text)
    if max_value is not None and value > max_value:
        raise ValueError(f"integer out of range: {text}")
    return value


def bytes_to_hex(data: bytes) -> str:
    return "0x" + data.hex()


def parse_hex(text: str, *, length: int | None = None) -> bytes:
    """Parse canonical 0x-prefixed lowercase hex."""
    if not isinstance(text, str) or not _HEX_RE.fullmatch(text):
        raise ValueError(f"not canonical 0x-hex: {text!r}")
    data = bytes.fromhex(text[2:])
    if length is not None and len(data) != length:
        raise ValueError(f"expected {length} bytes, got {len(data)}: {text!r}")
    return data


def parse_bare_hex64(text: str) -> str:
    """Validate a bare 64-char lowercase hex digest (object-store hashes)."""
    if not isinstance(text, str) or not _BARE_HEX64_RE.fullmatch(text):
        raise ValueError(f"not a 64-char lowercase hex digest: {text!r}")
    return text


def require_keys(obj: dict, keys: set[str], what: str) -> None:
    """Reject objects whose key set is not exactly the expected one."""
    if not isinstance(obj, dict) or set(obj.keys()) != keys:
        raise ValueError(f"malformed {what}: expected keys {sorted(keys)}")


def parse_object(raw: bytes, keys: set[str] | None, what: str) -> dict:
    """Decode ASCII JSON bytes to an object with exactly ``keys`` (None: any)."""
    obj = json.loads(raw.decode("ascii"))
    if keys is None:
        if not isinstance(obj, dict):
            raise ValueError(f"malformed {what}: not a JSON object")
    else:
        require_keys(obj, keys, what)
    return obj


def parse_canonical(raw: bytes, keys: set[str] | None, what: str) -> dict:
    """parse_object, and ``raw`` must be its canonical_json: one value, one byte string."""
    obj = parse_object(raw, keys, what)
    if canonical_json(obj) != raw:
        raise ValueError(f"{what} bytes are not in canonical form")
    return obj


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def parse_b64(text: str, what: str) -> bytes:
    """Decode canonical base64 only (RFC 4648 section 3.5).

    The strict decoder still takes excess padding (``AAAA====``) and nonzero
    dropped bits (``AB==``); the length and last-quantum checks reject both
    in O(1), without re-encoding the field.
    """
    if not isinstance(text, str) or len(text) % 4 or (text and not _B64_TAIL_RE.fullmatch(text, len(text) - 4)):
        raise ValueError(f"{what} is not canonical base64")
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"{what} is not canonical base64: {exc}") from exc


def read_records(path: str | Path, from_obj: Callable[[dict], object], error: Callable[[str], Exception]) -> list:
    """Parse one canonical JSON object per line, no blank lines; ``error("line N: ...")``."""
    records = []
    with open(path, "rb") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.rstrip(b"\n")
            try:
                if not line:
                    raise ValueError("empty line")
                records.append(from_obj(parse_canonical(line, None, "record")))
            except ValueError as exc:
                raise error(f"line {lineno}: {exc}") from exc
    return records
