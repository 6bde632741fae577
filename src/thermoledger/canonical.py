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
its parse. Every JSON and base64 decode goes through here and raises
ValueError, which each caller maps to its own exception type. The one
exception is the envelope's fixed layout, which ``envelope`` matches
itself; it still decodes each base64 field with ``parse_b64``.

Every file the program keeps is written here too, by ``create_file``
(exclusive), ``append_records`` (the lines ``read_records`` reads) or
``replace_file`` (a sibling renamed over the target: old bytes or new).
``write_lock`` is the one writer's lock on a site, a POSIX ``flock``.
"""

from __future__ import annotations

import base64
import fcntl
import hashlib
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import Error

_UINT_RE = re.compile(r"0|[1-9][0-9]*")
_HEX_RE = re.compile(r"0x(?:[0-9a-f][0-9a-f])*")
_BARE_HEX64_RE = re.compile(r"[0-9a-f]{64}")
# last 4-char quantum of canonical base64: the bits that padding drops are zero
_B64_TAIL_RE = re.compile(rb"[A-Za-z0-9+/](?:[A-Za-z0-9+/]{3}|[A-Za-z0-9+/][AEIMQUYcgkosw048]=|[AQgw]==)")


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


def parse_uint(text: str) -> int:
    """Parse a canonical decimal string (no sign, no leading zeros)."""
    if not isinstance(text, str) or not _UINT_RE.fullmatch(text):
        raise ValueError(f"not a canonical unsigned integer: {text!r}")
    return int(text)


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


def parse_canonical(raw: bytes) -> dict:
    """A JSONL record: parse_object, and ``raw`` must be its canonical_json, one value, one byte string."""
    obj = parse_object(raw, None, "record")
    if canonical_json(obj) != raw:
        raise ValueError("record bytes are not in canonical form")
    return obj


def parse_b64(data: bytes, what: str) -> bytes:
    """Decode canonical base64 bytes only (RFC 4648 section 3.5).

    The strict decoder still takes excess padding (``AAAA====``) and nonzero
    dropped bits (``AB==``); the length and last-quantum checks reject both
    in O(1), without re-encoding the field.
    """
    if not isinstance(data, bytes) or len(data) % 4 or (data and not _B64_TAIL_RE.fullmatch(data, len(data) - 4)):
        raise ValueError(f"{what} is not canonical base64")
    try:
        return base64.b64decode(data, validate=True)
    except ValueError as exc:
        raise ValueError(f"{what} is not canonical base64: {exc}") from exc


def read_records(path: str | Path, from_obj: Callable[[dict], object], error: Callable[[str], Exception]) -> list:
    """Parse one canonical JSON object per line, no blank lines; ``error("line N: ...")``.
    A final line with no newline, a write cut short, is kept if it parses and dropped if not."""
    records = []
    with open(path, "rb") as fp:
        for lineno, line in enumerate(fp, start=1):
            if not line.endswith(b"\n") and not _parses(line):
                break
            line = line.rstrip(b"\n")
            try:
                if not line:
                    raise ValueError("empty line")
                records.append(from_obj(parse_canonical(line)))
            except ValueError as exc:
                raise error(f"line {lineno}: {exc}") from exc
    return records


def _parses(line: bytes) -> bool:
    try:
        parse_canonical(line)
    except ValueError:
        return False
    return True


def append_records(path: str | Path, records: Iterable[dict]) -> None:
    """Append each record's canonical JSON as one line: what read_records reads.
    A torn final line is first ended with its newline if it parses, cut off if not."""
    with open(path, "ab+") as fp:
        fp.seek(max(fp.seek(0, os.SEEK_END) - 1, 0))
        if fp.read(1) not in (b"", b"\n"):
            fp.seek(0)
            data = fp.read()
            start = data.rfind(b"\n") + 1
            if _parses(data[start:]):
                fp.write(b"\n")
            else:
                fp.truncate(start)
        fp.write(b"".join(canonical_json(record) + b"\n" for record in records))


def create_file(path: str | Path, data: bytes, mode: int) -> None:
    """Create ``path`` holding ``data``, ``mode`` (less the umask) from the first byte;
    a file already holding exactly ``data`` is kept, other bytes raise FileExistsError."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    except FileExistsError:
        if Path(path).read_bytes() != data:
            raise
        return
    with os.fdopen(fd, "wb") as fp:
        fp.write(data)


def replace_file(path: str | Path, data: bytes, mode: int) -> None:
    """Put ``data`` at ``path`` in one rename; the ``.tmp-`` sibling is removed on any failure."""
    path = Path(path)
    tmp = path.with_name(f".tmp-{os.urandom(8).hex()}-{path.name}")
    try:
        create_file(tmp, data, mode)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class SiteBusy(Error):
    """Another command holds the site's write lock."""


@contextmanager
def write_lock(path: str | Path) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``path`` (created empty if missing) for the block;
    SiteBusy at once if another holder has it. ``flock`` belongs to the open file, not the
    process, so two opens in one process exclude each other too; closing releases it."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise SiteBusy(f"{path} is held by another init, ingest or seal; run this again when it ends") from None
        yield
    finally:
        os.close(fd)
