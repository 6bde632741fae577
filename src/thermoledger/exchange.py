"""Node-to-node object fetch protocol, version 2.

A peer that knows a root hash pulls the DAG from whoever stores it over a
single TCP connection: it requests the root, then the root's children. No
connection is made when every node is already stored locally and intact.
Each frame is a 4-byte big-endian length and a payload of at most 1 MiB
(a maximum-size node plus its version byte fits). Every payload starts
with the version byte 0x02:

    get    0x02, then the node's 32-byte SHA-256 digest
    reply  0x02, then the node's bytes exactly as the peer stores them
    reply  0x02 alone: the peer lacks the node, or it fails the peer's
           own hash check

A payload with any other first byte ends the connection with
ProtocolError, on either end. Version 1 sent canonical JSON messages with
the node in base64, so every v1 frame starts with ``{`` and none passes
as v2. There is no v1 path: this module is both ends of every connection.

The server answers requests in order, so the client pipelines: it keeps
up to WINDOW gets outstanding, from one thread, and reads each reply as
the answer to its oldest get. The client trusts nothing from the wire: a
node is stored only after its bytes hash to the requested name and decode
as a version 2 DAG node (an interior one names at most 1024 leaves, the
256 MiB cap, each with one size), so a corrupt or malicious peer can
cause a failed fetch but never a corrupt store or an unbounded one. The
bytes are stored as received, and the decoded nodes are handed back, so
no node is encoded, hashed or decoded twice.
"""

from __future__ import annotations

import socket
import socketserver
import struct

from .canonical import canonical_json  # noqa: F401  uncalled here; perfbench/spans.py wraps this name
from .canonical import parse_bare_hex64, sha256
from .dagstore import CorruptObject, DagNode, Link, NotFound, ObjectStore, check_child, decode_node
from .errors import Error

MAX_FRAME_SIZE = 1024 * 1024
PEER_TIMEOUT = 30.0  # seconds a peer may stay silent, on either end
VERSION = b"\x02"
DIGEST_SIZE = 32
_LEN = struct.Struct(">I")


class HashMismatch(Error):
    """Peer served bytes that do not hash to the requested name."""

    def __init__(self, hash: str):
        super().__init__(f"served bytes do not match hash {hash}")
        self.hash = hash


class RemoteMissing(Error):
    """Peer does not store the requested object."""

    def __init__(self, hash: str):
        super().__init__(f"peer is missing object {hash}")
        self.hash = hash


class ConnectionLost(Error):
    """Peer closed or timed out mid-conversation."""


class ProtocolError(Error):
    """Peer sent a frame that does not parse as a protocol message."""


def write_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > MAX_FRAME_SIZE:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_SIZE} cap")
    try:
        sock.sendall(_LEN.pack(len(payload)) + payload)
    except OSError as exc:  # timeouts included
        raise ConnectionLost(f"socket error: {exc}") from exc


def read_frame(sock: socket.socket) -> bytearray | None:
    """Read one frame; None on clean EOF at a frame boundary."""
    header = _read_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_SIZE:
        raise ProtocolError(f"frame of {length} bytes exceeds the {MAX_FRAME_SIZE} cap")
    payload = _read_exact(sock, length)
    if payload is None:
        raise ConnectionLost("peer closed the connection mid-frame")
    return payload


def _read_exact(sock: socket.socket, size: int) -> bytearray | None:
    """size bytes; None if the peer closes before sending the first one."""
    buf = bytearray(size)
    got = 0
    with memoryview(buf) as view:
        while got < size:
            try:
                count = sock.recv_into(view[got:])
            except OSError as exc:  # timeouts included
                raise ConnectionLost(f"socket error: {exc}") from exc
            if not count:
                if not got:
                    return None
                raise ConnectionLost("peer closed the connection mid-frame")
            got += count
    return buf


def encode_get(hash: str) -> bytes:
    return VERSION + bytes.fromhex(parse_bare_hex64(hash))


def encode_node(raw: bytes) -> bytes:
    """A reply: the node's stored bytes, or b"" for a node this peer does not serve."""
    return VERSION + raw


def decode_message(payload: bytes) -> bytes:
    """The body after the version byte; ProtocolError for any other version."""
    if payload[:1] != VERSION:
        raise ProtocolError(f"frame is not protocol version {VERSION[0]}")
    return payload[1:]


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        store = self.server.store
        self.request.settimeout(PEER_TIMEOUT)
        try:
            while (payload := read_frame(self.request)) is not None:
                digest = decode_message(payload)
                if len(digest) != DIGEST_SIZE:
                    raise ProtocolError(f"a get carries a {DIGEST_SIZE}-byte digest, not {len(digest)} bytes")
                try:
                    raw = store.get_bytes(digest.hex())
                except (NotFound, CorruptObject):
                    raw = b""  # refuse to serve bytes that fail local verification
                write_frame(self.request, encode_node(raw))
        except Error:
            return  # a broken or hostile connection ends; the server goes on


class PeerServer(socketserver.ThreadingTCPServer):
    """Serves anything with a ``get_bytes(hash) -> bytes`` method, one thread
    per connection; ``endpoint`` names the port bound (port 0 picks one)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, store, address: tuple[str, int]):
        super().__init__(address, _Handler)
        self.store = store

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]


class _PeerConnection:
    def __init__(self, endpoint: tuple[str, int]):
        try:
            self._sock = socket.create_connection(endpoint, timeout=PEER_TIMEOUT)
            # gets are small writes sent back to back; Nagle would hold each
            # one until the one before it is acknowledged
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise ConnectionLost(f"cannot connect to {endpoint[0]}:{endpoint[1]}: {exc}") from exc

    def send_get(self, hash: str) -> None:
        write_frame(self._sock, encode_get(hash))

    def request_node(self, hash: str) -> bytes:
        """Read the reply to the oldest outstanding get, which is for hash,
        and hash-verify the node's raw bytes."""
        payload = read_frame(self._sock)
        if payload is None:
            raise ConnectionLost("peer closed the connection")
        raw = decode_message(payload)
        if not raw:
            raise RemoteMissing(hash)
        if sha256(raw).hex() != hash:
            raise HashMismatch(hash)
        return raw

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


WINDOW = 8  # gets outstanding at once; the server queues them on the socket


def fetch_dag(endpoint: tuple[str, int], root: str, store: ObjectStore) -> tuple[int, dict[str, DagNode]]:
    """Pull the DAG under root into the local store: the one checked reader of a DAG.

    Returns the number of nodes transferred and every node of the DAG by
    hash, which ``cat_file`` joins without reading the store again.

    A node already stored locally and intact is read through the verifying
    ``store.get`` and never requested (a local child that does not fit its
    link raises CorruptObject); a damaged or invalid one is fetched again.
    The root comes first, then its missing children, each requested and
    checked once, with up to WINDOW gets outstanding; the connection is
    opened only if some node is missing. Every received node is verified
    (its bytes must hash to the requested name and decode as a version 2
    node, and a child must be a leaf of its link's size) before its bytes
    are stored as received, so a lying peer aborts the fetch with
    HashMismatch or ProtocolError and leaves the store clean.
    """
    parse_bare_hex64(root)
    nodes: dict[str, DagNode | None] = {}
    conn = None
    transferred = 0
    try:
        for child in (False, True):
            wanted: list[tuple[str, Link | None]] = []
            for link in nodes[root].links if child else [None]:
                hash = root if link is None else link.hash
                if hash not in nodes:
                    nodes[hash] = _local(store, hash)
                    if nodes[hash] is None:
                        wanted.append((hash, link))
                    elif link is not None:
                        check_child(link, nodes[hash])
            if wanted and conn is None:
                conn = _PeerConnection(endpoint)
            sent = 0
            for done, (hash, link) in enumerate(wanted):
                while sent < len(wanted) and sent - done < WINDOW:
                    conn.send_get(wanted[sent][0])
                    sent += 1
                nodes[hash] = _receive(conn, store, hash, link)
            transferred += len(wanted)
        return transferred, nodes
    finally:
        if conn is not None:
            conn.close()


def _local(store: ObjectStore, hash: str) -> DagNode | None:
    """The intact local node, or None if absent or damaged (fetch it again)."""
    try:
        return store.get(hash)
    except (NotFound, CorruptObject):
        return None


def _receive(conn: _PeerConnection, store: ObjectStore, hash: str, link: Link | None) -> DagNode:
    """The node named hash, verified and stored; link is the root's link to it, None for the root."""
    raw = conn.request_node(hash)
    try:
        node = decode_node(raw)
        if link is not None:
            check_child(link, node)  # a child that misfits its link is never stored
    except ValueError as exc:
        # hash already verified, so these bytes genuinely are the named
        # object; it just is not a DAG node
        raise ProtocolError(f"object {hash} is not a version 2 DAG node: {exc}") from exc
    except CorruptObject as exc:
        raise ProtocolError(f"child {exc}") from exc
    store.put_raw(hash, raw)
    return node
