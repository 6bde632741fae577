"""Canonical byte encoding shared by the ledger and the object store.

Every ledger digest and signature is computed over these encodings (DAG
nodes and wire frames are binary), so they must be bit-exact across runs,
platforms, and languages:

* JSON with object keys sorted bytewise ascending, no insignificant
  whitespace, ASCII-escaped strings;
* integers rendered as decimal strings (values exceed 64-bit range);
* byte strings rendered as lowercase hex with a ``0x`` prefix.

Parsing is strict: anything that is not the unique canonical rendering of
its value (uppercase hex, leading zeros, stray signs, loose base64) is
rejected, so a stored encoding can always be reproduced byte-for-byte from
its parse. Every JSON and base64 decode goes through here and raises
ValueError, which each caller maps to its own exception type. The
exceptions are fixed layouts that their module matches itself: chain and
queue lines (``ledger``) and the envelope, which still decodes each base64
field with ``parse_b64``.

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


def parse_hex(text: str, *, length: int) -> bytes:
    """Parse canonical 0x-prefixed lowercase hex of ``length`` bytes."""
    if not isinstance(text, str) or not _HEX_RE.fullmatch(text):
        raise ValueError(f"not canonical 0x-hex: {text!r}")
    data = bytes.fromhex(text[2:])
    if len(data) != length:
        raise ValueError(f"expected {length} bytes, got {len(data)}: {text!r}")
    return data


def parse_bare_hex64(text: str) -> str:
    """Validate a bare 64-char lowercase hex digest (object-store hashes)."""
    if not isinstance(text, str) or not _BARE_HEX64_RE.fullmatch(text):
        raise ValueError(f"not a 64-char lowercase hex digest: {text!r}")
    return text


def parse_object(raw: bytes, keys: set[str] | None, what: str) -> dict:
    """Decode ASCII JSON bytes to an object with exactly ``keys`` (None: any); a member
    named twice, or nesting past the recursion limit, is a ValueError too."""
    def members(pairs: list) -> dict:
        if len(obj := dict(pairs)) != len(pairs):
            raise ValueError(f"malformed {what}: a member is named twice")
        return obj

    try:
        obj = json.loads(raw.decode("ascii"), object_pairs_hook=members)
    except RecursionError:
        raise ValueError(f"malformed {what}: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError(f"malformed {what}: not a JSON object")
    if keys is not None and obj.keys() != keys:
        raise ValueError(f"malformed {what}: expected keys {sorted(keys)}")
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


def read_records(path: str | Path, decode: Callable[[bytes], object], error: Callable[[str], Exception]) -> list:
    """``decode`` each line (ValueError if it is not a record), no blank lines; ``error("line N: ...")``.
    A final line with no newline, a write cut short, is kept if it decodes and dropped if not."""
    records = []
    with open(path, "rb") as fp:
        for lineno, line in enumerate(fp, start=1):
            torn = not line.endswith(b"\n")
            line = line.rstrip(b"\n")
            try:
                if not line:
                    raise ValueError("empty line")
                records.append(decode(line))
            except ValueError as exc:
                if torn:
                    break
                raise error(f"line {lineno}: {exc}") from exc
    return records


def append_records(path: str | Path, lines: Iterable[bytes], decode: Callable[[bytes], object]) -> None:
    """Append each encoded record as one line: what read_records reads with ``decode``.
    A torn final line is first ended with its newline if it decodes, cut off if not."""
    with open(path, "ab+") as fp:
        fp.seek(max(fp.seek(0, os.SEEK_END) - 1, 0))
        if fp.read(1) not in (b"", b"\n"):
            fp.seek(0)
            data = fp.read()
            start = data.rfind(b"\n") + 1
            try:
                decode(data[start:])
            except ValueError:
                fp.truncate(start)
            else:
                fp.write(b"\n")
        fp.write(b"".join(line + b"\n" for line in lines))


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
