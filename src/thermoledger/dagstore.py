"""Content-addressed object store with a two-level DAG per file.

Files are split into consecutive 256 KiB chunks; each chunk is a leaf
node, and files larger than one chunk get a single interior root whose
links carry the child hash and the child's raw byte size. A node's name
is the SHA-256 of its encoding, so identical content stores identical
nodes exactly once, and any byte of corruption is detectable by
rehashing.

Node format version 2 is binary, with one encoding per node:

    leaf      0x02 0x00, then the chunk's raw bytes (0 to 262 144)
    interior  0x02 0x01, then 2 to 1024 links, each the child's 32-byte
              SHA-256 digest and its size as an 8-byte big-endian integer;
              links that name one child agree on its size

Version 1 was canonical JSON with the leaf data in base64, so every v1
node starts with ``{`` and none decodes as v2. There is no v1 path: a
file published under a v1 root must be published again.

Nodes persist under ``objects/<first 2 hex>/<remaining 62 hex>``, mode
0600. Writes are idempotent and crash-atomic (``canonical.replace_file``),
which also makes concurrent puts safe without a lock; a write over an
object whose bytes no longer hash to its name replaces it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .canonical import canonical_json  # noqa: F401  uncalled here; perfbench/spans.py wraps this name
from .canonical import parse_bare_hex64, replace_file, sha256
from .errors import Error

CHUNK_SIZE = 262_144
MAX_LINKS = 1024
MAX_FILE_SIZE = CHUNK_SIZE * MAX_LINKS
_LEAF = b"\x02\x00"  # version 2, then the node kind
_INTERIOR = b"\x02\x01"
_LINK = struct.Struct(">32sQ")  # child digest, child size


class FileTooLarge(Error):
    """Content exceeds the two-level DAG capacity (256 MiB)."""


class NotFound(Error):
    """No object stored under this hash."""

    def __init__(self, hash: str):
        super().__init__(f"object not found: {hash}")
        self.hash = hash


class CorruptObject(Error):
    """Stored bytes do not hash to the name they are stored under."""

    def __init__(self, hash: str, reason: str = "content does not match hash"):
        super().__init__(f"{hash}: {reason}")
        self.hash = hash


@dataclass(frozen=True)
class Link:
    """Edge to a child node: child hash, raw subtree size."""

    hash: str
    size: int


@dataclass(frozen=True)
class DagNode:
    """A leaf (data, no links) or an interior node (links, no data); only decode_node checks the rules."""

    data: bytes = b""
    links: tuple[Link, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.links


def encode_node(node: DagNode) -> bytes:
    if node.is_leaf:
        return _LEAF + node.data
    return _INTERIOR + b"".join(_LINK.pack(bytes.fromhex(link.hash), link.size) for link in node.links)


def decode_node(raw: bytes) -> DagNode:
    """The one check of a node's rules: strict inverse of encode_node, ValueError on any deviation."""
    with memoryview(raw) as view:
        kind, body = bytes(view[:2]), view[2:]
        if kind == _LEAF:
            if len(body) > CHUNK_SIZE:
                raise ValueError(f"data is {len(body)} bytes, limit {CHUNK_SIZE}")
            return DagNode(data=bytes(body))
        if kind != _INTERIOR:
            raise ValueError("not a version 2 leaf or interior node")
        if len(body) % _LINK.size:
            raise ValueError(f"interior node body of {len(body)} bytes is not a whole number of links")
        if len(body) < 2 * _LINK.size:
            raise ValueError("interior node must have at least 2 links")
        if len(body) > MAX_LINKS * _LINK.size:  # a root must not name more than the 256 MiB cap's worth of leaves
            raise ValueError(f"interior node has {len(body) // _LINK.size} links, limit {MAX_LINKS}")
        links = tuple(Link(digest.hex(), size) for digest, size in _LINK.iter_unpack(body))
    if len({link.hash: link.size for link in links}) != len({(link.hash, link.size) for link in links}):
        raise ValueError("links that name one child disagree on its size")
    return DagNode(links=links)


def check_child(link: Link, node: DagNode) -> None:
    """A root's child is a leaf holding exactly ``link.size`` bytes; CorruptObject otherwise."""
    if not node.is_leaf:
        raise CorruptObject(link.hash, "interior node below the root is not supported")
    if len(node.data) != link.size:
        raise CorruptObject(link.hash, f"leaf holds {len(node.data)} bytes, its link says {link.size}")


class ObjectStore:
    """Directory-backed map from hash to node, sharded by hash prefix."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, hash: str) -> Path:
        parse_bare_hex64(hash)
        return self.root / hash[:2] / hash[2:]

    def put(self, node: DagNode) -> tuple[str, bool]:
        """Store a node; returns (hash, was_new). Idempotent."""
        raw = encode_node(node)
        hash = sha256(raw).hex()
        return hash, self.put_raw(hash, raw)

    def put_raw(self, hash: str, raw: bytes) -> bool:
        """Store a node's encoding as given; returns was_new.

        The one write path. The caller vouches that ``raw`` hashes to
        ``hash`` and decodes as a node: ``put`` encodes what ``add_file`` built, and
        ``fetch_dag`` checks both on the received bytes. An object already
        stored is kept if its bytes still hash to its name and replaced if
        they do not, so a damaged object heals on the next write.
        """
        try:
            self.get_bytes(hash)
            return False
        except (NotFound, CorruptObject):
            pass  # absent or damaged: write it afresh
        path = self._path(hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        replace_file(path, raw, 0o600)
        return True

    def get_bytes(self, hash: str) -> bytes:
        """Raw stored encoding, verified against its name."""
        path = self._path(hash)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise NotFound(hash) from None
        if sha256(raw).hex() != hash:
            raise CorruptObject(hash)
        return raw

    def get(self, hash: str) -> DagNode:
        raw = self.get_bytes(hash)
        try:
            return decode_node(raw)
        except ValueError as exc:
            raise CorruptObject(hash, str(exc)) from exc

    def delete(self, hash: str) -> None:
        try:
            self._path(hash).unlink()
        except FileNotFoundError:
            raise NotFound(hash) from None


def add_file(store: ObjectStore, content: bytes) -> str:
    """Chunk content into the store; returns the root hash.

    Content of at most one chunk becomes a single leaf (so the empty file
    is one empty leaf). Larger content gets one interior root with a link
    per chunk, in order, each carrying the chunk length.
    """
    if len(content) > MAX_FILE_SIZE:
        raise FileTooLarge(f"{len(content)} bytes exceeds the {MAX_FILE_SIZE}-byte cap")
    links = []
    for offset in range(0, max(len(content), 1), CHUNK_SIZE):  # one pass for the empty file
        chunk = content[offset : offset + CHUNK_SIZE]
        hash, _ = store.put(DagNode(data=chunk))
        links.append(Link(hash=hash, size=len(chunk)))
    if len(links) == 1:
        return links[0].hash
    root_hash, _ = store.put(DagNode(links=tuple(links)))
    return root_hash


def cat_file(nodes: Mapping[str, DagNode], root: str) -> bytes:
    """The file under root, joined from the node map that ``exchange.fetch_dag``
    checked and returned: the root's data, or its children's data in link order."""
    node = nodes[root]
    if node.is_leaf:
        return node.data
    return b"".join(nodes[link.hash].data for link in node.links)


@dataclass(frozen=True)
class FileStat:
    total_size: int
    node_count: int


def stat(store: ObjectStore, root: str) -> FileStat:
    """File statistics from the root node alone (leaf data is never read)."""
    node = store.get(root)
    if node.is_leaf:
        return FileStat(total_size=len(node.data), node_count=1)
    return FileStat(
        total_size=sum(link.size for link in node.links),
        node_count=1 + len(node.links),
    )
