"""Content-addressed object store with a two-level DAG per file.

Files are split into consecutive 256 KiB chunks; each chunk is a leaf
node, and files larger than one chunk get a single interior root whose
links carry the child hash and the child's raw byte size. A node's name
is the SHA-256 of its canonical encoding, so identical content stores
identical nodes exactly once, and any byte of corruption is detectable by
rehashing.

Nodes persist under ``objects/<first 2 hex>/<remaining 62 hex>``. Writes
are idempotent and crash-atomic (temp file, then rename), which also makes
concurrent puts safe without a lock; a write over an object whose bytes no
longer hash to its name replaces it.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from .canonical import b64, canonical_json, parse_b64, parse_bare_hex64, parse_canonical, parse_uint, require_keys, sha256, uint_to_str
from .errors import Error

CHUNK_SIZE = 262_144
MAX_LINKS = 1024
MAX_FILE_SIZE = CHUNK_SIZE * MAX_LINKS


class ChunkTooLarge(Error):
    """Node data exceeds the 256 KiB chunk limit."""


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


class InvalidNode(Error):
    """Node violates the leaf/interior shape rules."""


@dataclass(frozen=True)
class Link:
    """Edge to a child node: empty name, child hash, raw subtree size."""

    name: str
    hash: str
    size: int

    def __post_init__(self):
        parse_bare_hex64(self.hash)
        if not isinstance(self.size, int) or isinstance(self.size, bool) or self.size < 0:
            raise ValueError("link size must be a non-negative integer")


@dataclass(frozen=True)
class DagNode:
    """Either a leaf (data, no links) or an interior node (links, no data)."""

    data: bytes = b""
    links: tuple[Link, ...] = ()

    def __post_init__(self):
        if len(self.data) > CHUNK_SIZE:
            raise ChunkTooLarge(f"data is {len(self.data)} bytes, limit {CHUNK_SIZE}")
        if self.data and self.links:
            raise InvalidNode("node cannot carry both data and links")
        if self.links and len(self.links) < 2:
            raise InvalidNode("interior node must have at least 2 links")

    @property
    def is_leaf(self) -> bool:
        return not self.links


def encode_node(node: DagNode) -> bytes:
    obj = {
        "data": b64(node.data),
        "links": [
            {"name": link.name, "hash": link.hash, "size": uint_to_str(link.size)}
            for link in node.links
        ],
    }
    return canonical_json(obj)


def decode_node(raw: bytes) -> DagNode:
    """Strict inverse of encode_node; ValueError on any deviation."""
    obj = parse_canonical(raw, {"data", "links"}, "node")
    if not isinstance(obj["links"], list):
        raise ValueError("node links must be a list")
    data = parse_b64(obj["data"], "node data")
    links = []
    for entry in obj["links"]:
        require_keys(entry, {"name", "hash", "size"}, "link")
        if not isinstance(entry["name"], str):
            raise ValueError("link name must be a string")
        links.append(Link(name=entry["name"], hash=parse_bare_hex64(entry["hash"]), size=parse_uint(entry["size"])))
    try:
        return DagNode(data=data, links=tuple(links))
    except (InvalidNode, ChunkTooLarge) as exc:
        raise ValueError(str(exc)) from exc


def hash_node(node: DagNode) -> str:
    """64-char lowercase hex digest of the node's canonical encoding."""
    return sha256(encode_node(node)).hex()


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
        ``hash`` and decodes as a node: ``put`` encodes it itself, and
        ``fetch_dag`` checks both on the received bytes. An object already
        stored is kept if its bytes still hash to its name and replaced if
        they do not, so a damaged object heals on the next write.
        """
        path = self._path(hash)
        if path.exists():
            try:
                self.get_bytes(hash)
                return False
            except (NotFound, CorruptObject):
                pass  # removed since the check, or damaged: write it afresh
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fp:
                fp.write(raw)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
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

    def contains(self, hash: str) -> bool:
        return self._path(hash).exists()

    def delete(self, hash: str) -> None:
        try:
            self._path(hash).unlink()
        except FileNotFoundError:
            raise NotFound(hash) from None

    def hashes(self) -> Iterator[str]:
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or len(shard.name) != 2:
                continue
            for entry in sorted(shard.iterdir()):
                if not entry.name.startswith("."):
                    yield shard.name + entry.name

    def count(self) -> int:
        return sum(1 for _ in self.hashes())

    def audit(self) -> None:
        """Re-hash every stored object; raises CorruptObject on mismatch."""
        for hash in self.hashes():
            self.get(hash)


def add_file(store: ObjectStore, content: bytes) -> str:
    """Chunk content into the store; returns the root hash.

    Content of at most one chunk becomes a single leaf (so the empty file
    is one empty leaf). Larger content gets one interior root with an
    empty-named link per chunk, in order, each carrying the chunk length.
    """
    if len(content) > MAX_FILE_SIZE:
        raise FileTooLarge(f"{len(content)} bytes exceeds the {MAX_FILE_SIZE}-byte cap")
    if len(content) <= CHUNK_SIZE:
        hash, _ = store.put(DagNode(data=content))
        return hash
    links = []
    for offset in range(0, len(content), CHUNK_SIZE):
        chunk = content[offset : offset + CHUNK_SIZE]
        hash, _ = store.put(DagNode(data=chunk))
        links.append(Link(name="", hash=hash, size=len(chunk)))
    root_hash, _ = store.put(DagNode(links=tuple(links)))
    return root_hash


def cat_file(store: ObjectStore | Mapping[str, DagNode], root: str) -> bytes:
    """Reassemble a file from its root hash; exact inverse of add_file.

    ``store`` is read only through ``.get(hash)``: an ObjectStore, which
    verifies every node it reads, or a map of nodes already verified, such
    as the one ``fetch_dag`` returns.
    """
    node = store.get(root)
    if node.is_leaf:
        return node.data
    parts = []
    for link in node.links:
        child = store.get(link.hash)
        if not child.is_leaf:
            raise CorruptObject(link.hash, "interior node below the root is not supported")
        parts.append(child.data)
    return b"".join(parts)


@dataclass(frozen=True)
class FileStat:
    total_size: int
    node_count: int
    depth: int


def stat(store: ObjectStore, root: str) -> FileStat:
    """File statistics from the root node alone (leaf data is never read)."""
    node = store.get(root)
    if node.is_leaf:
        return FileStat(total_size=len(node.data), node_count=1, depth=1)
    return FileStat(
        total_size=sum(link.size for link in node.links),
        node_count=1 + len(node.links),
        depth=2,
    )
