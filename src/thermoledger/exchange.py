"""Node-to-node object fetch protocol.

A peer that knows a root hash pulls the DAG from whoever stores it over a
single TCP connection: it requests the root, then the root's children.
Messages are canonical JSON frames prefixed with a 4-byte big-endian
length, capped at 1 MiB (a maximum-size node plus overhead fits):

    {"type": "get", "hash": <64 hex>}
    {"type": "node", "hash": <64 hex>, "node": <base64 canonical encoding>}
    {"type": "missing", "hash": <64 hex>}

The server answers requests in order, so the client pipelines: it keeps
up to WINDOW gets outstanding, from one thread, and reads each reply as
the answer to its oldest get. The client trusts nothing from the wire: a
node is stored only after its bytes hash to the requested name and parse
as a canonical node, so a corrupt or malicious peer can cause a failed
fetch but never a corrupt store. The bytes are stored as received, and
the decoded nodes are handed back, so no node is encoded, hashed or
decoded twice.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading

from .canonical import b64, canonical_json, parse_b64, parse_bare_hex64, parse_object, require_keys, sha256
from .dagstore import CorruptObject, DagNode, NotFound, ObjectStore, decode_node
from .errors import Error

MAX_FRAME_SIZE = 1024 * 1024
PEER_TIMEOUT = 30.0  # seconds a peer may stay silent, on either end
_LEN = struct.Struct(">I")
_MESSAGE_KEYS = {"get": {"type", "hash"}, "node": {"type", "hash", "node"}, "missing": {"type", "hash"}}


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
    sock.sendall(_LEN.pack(len(payload)) + payload)


def read_frame(sock: socket.socket) -> bytearray | None:
    """Read one frame; None on clean EOF at a frame boundary."""
    header = _read_exact(sock, _LEN.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_SIZE:
        raise ProtocolError(f"frame of {length} bytes exceeds the {MAX_FRAME_SIZE} cap")
    payload = _read_exact(sock, length, allow_eof=False)
    assert payload is not None
    return payload


def _read_exact(sock: socket.socket, size: int, allow_eof: bool) -> bytearray | None:
    buf = bytearray(size)
    got = 0
    with memoryview(buf) as view:
        while got < size:
            try:
                count = sock.recv_into(view[got:])
            except (TimeoutError, socket.timeout, OSError) as exc:
                raise ConnectionLost(f"socket error: {exc}") from exc
            if not count:
                if allow_eof and not got:
                    return None
                raise ConnectionLost("peer closed the connection mid-frame")
            got += count
    return buf


def encode_get(hash: str) -> bytes:
    return canonical_json({"type": "get", "hash": parse_bare_hex64(hash)})


def encode_node(hash: str, raw: bytes) -> bytes:
    return canonical_json(
        {"type": "node", "hash": parse_bare_hex64(hash), "node": b64(raw)}
    )


def encode_missing(hash: str) -> bytes:
    return canonical_json({"type": "missing", "hash": parse_bare_hex64(hash)})


def decode_message(payload: bytes) -> dict:
    """Parse and validate one wire message; raises ProtocolError."""
    try:
        obj = parse_object(payload, None, "message")
        kind = obj.get("type")
        keys = _MESSAGE_KEYS.get(kind) if isinstance(kind, str) else None
        if keys is None:
            raise ValueError(f"unknown message type {kind!r}")
        require_keys(obj, keys, f"{kind} message")
        parse_bare_hex64(obj["hash"])
        if "node" in keys:
            obj["node"] = parse_b64(obj["node"], "node payload")
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    return obj


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        store = self.server.store
        self.request.settimeout(PEER_TIMEOUT)
        while True:
            try:
                payload = read_frame(self.request)
            except Error:
                return
            if payload is None:
                return
            try:
                message = decode_message(payload)
                if message["type"] != "get":
                    raise ProtocolError("server accepts only get messages")
            except Error:
                return
            hash = message["hash"]
            try:
                reply = encode_node(hash, store.get_bytes(hash))
            except (NotFound, CorruptObject):
                # refuse to serve bytes that fail local verification
                reply = encode_missing(hash)
            try:
                write_frame(self.request, reply)
            except OSError:
                return


class PeerServer(socketserver.ThreadingTCPServer):
    """Serves one object store; one thread per connection."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, store, address: tuple[str, int]):
        super().__init__(address, _Handler)
        self.store = store
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def start(self) -> "PeerServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "PeerServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(store) -> PeerServer:
    """Serve a store on 127.0.0.1 in a background thread; returns the handle.

    Anything with a ``get_bytes(hash) -> bytes`` method can be served. The
    port is ephemeral; read it back from ``endpoint``.
    """
    return PeerServer(store, ("127.0.0.1", 0)).start()


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
        try:
            write_frame(self._sock, encode_get(hash))
        except OSError as exc:
            raise ConnectionLost(f"socket error: {exc}") from exc

    def request_node(self, hash: str) -> bytes:
        """Read the reply to the oldest outstanding get, which is for hash,
        and hash-verify the node's raw bytes."""
        payload = read_frame(self._sock)
        if payload is None:
            raise ConnectionLost("peer closed the connection")
        message = decode_message(payload)
        if message["type"] == "missing" and message["hash"] == hash:
            raise RemoteMissing(hash)
        if message["type"] != "node" or message["hash"] != hash:
            raise ProtocolError(f"unexpected reply {message['type']!r} for {hash}")
        raw = message["node"]
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
    """Pull the DAG under root into the local store.

    Returns the number of nodes transferred and every node of the DAG by
    hash, which ``cat_file`` joins without reading the store again.

    A node already stored locally and intact is read through the verifying
    ``store.get`` and never requested; a damaged one is fetched again. The
    root comes first, then its missing children, each requested once, with
    up to WINDOW gets outstanding. Every received node is verified (its
    bytes must hash to the requested name and parse as a canonical node,
    and a child must be a leaf) before its bytes are stored as received,
    so a lying peer aborts the fetch with HashMismatch and leaves the
    store clean.
    """
    parse_bare_hex64(root)
    conn = _PeerConnection(endpoint)
    try:
        nodes = {root: _local(store, root)}
        if nodes[root] is None:
            conn.send_get(root)
            nodes[root] = _receive(conn, store, root, child=False)
            transferred = 1
        else:
            transferred = 0
        wanted = []
        for link in nodes[root].links:
            if link.hash not in nodes:
                nodes[link.hash] = _local(store, link.hash)
                if nodes[link.hash] is None:
                    wanted.append(link.hash)
        sent = 0
        for done, hash in enumerate(wanted):
            while sent < len(wanted) and sent - done < WINDOW:
                conn.send_get(wanted[sent])
                sent += 1
            nodes[hash] = _receive(conn, store, hash, child=True)
        return transferred + len(wanted), nodes
    finally:
        conn.close()


def _local(store: ObjectStore, hash: str) -> DagNode | None:
    """The intact local node, or None if absent or damaged (fetch it again)."""
    if not store.contains(hash):
        return None
    try:
        return store.get(hash)
    except (NotFound, CorruptObject):
        return None


def _receive(conn: _PeerConnection, store: ObjectStore, hash: str, child: bool) -> DagNode:
    raw = conn.request_node(hash)
    try:
        node = decode_node(raw)
    except ValueError as exc:
        # hash already verified, so these bytes genuinely are the named
        # object; it just is not a DAG node
        raise ProtocolError(f"object {hash} is not a canonical node: {exc}") from exc
    if child and not node.is_leaf:
        # the DAG has two levels; its children would never be fetched
        raise ProtocolError(f"child {hash} is an interior node")
    store.put_raw(hash, raw)
    return node
