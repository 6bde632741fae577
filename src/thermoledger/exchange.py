"""Node-to-node object fetch protocol.

A peer that knows a root hash pulls the DAG from whoever stores it: it
requests the root, then each linked node, over a single TCP connection.
Messages are canonical JSON frames prefixed with a 4-byte big-endian
length, capped at 1 MiB (a maximum-size node plus overhead fits):

    {"type": "get", "hash": <64 hex>}
    {"type": "node", "hash": <64 hex>, "node": <base64 canonical encoding>}
    {"type": "missing", "hash": <64 hex>}

The server answers requests in order, so clients may pipeline. The client
trusts nothing from the wire: a node is stored only after its bytes hash
to the requested name, so a corrupt or malicious peer can cause a failed
fetch but never a corrupt store.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading

from .canonical import b64, canonical_json, parse_b64, parse_bare_hex64, parse_object, require_keys, sha256
from .dagstore import CorruptObject, NotFound, ObjectStore, decode_node
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


def read_frame(sock: socket.socket) -> bytes | None:
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


def _read_exact(sock: socket.socket, size: int, allow_eof: bool) -> bytes | None:
    buf = b""
    while len(buf) < size:
        try:
            chunk = sock.recv(size - len(buf))
        except (TimeoutError, socket.timeout, OSError) as exc:
            raise ConnectionLost(f"socket error: {exc}") from exc
        if not chunk:
            if allow_eof and not buf:
                return None
            raise ConnectionLost("peer closed the connection mid-frame")
        buf += chunk
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
        except OSError as exc:
            raise ConnectionLost(f"cannot connect to {endpoint[0]}:{endpoint[1]}: {exc}") from exc

    def request_node(self, hash: str) -> bytes:
        """Fetch and hash-verify one node's raw bytes."""
        try:
            write_frame(self._sock, encode_get(hash))
            payload = read_frame(self._sock)
        except OSError as exc:
            raise ConnectionLost(f"socket error: {exc}") from exc
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


def fetch_dag(endpoint: tuple[str, int], root: str, store: ObjectStore) -> int:
    """Pull the DAG under root into the local store; returns nodes fetched.

    Nodes already present locally are never re-requested. Every fetched
    node is verified (bytes must hash to the requested name and parse as a
    canonical node) before it is written, so a lying peer aborts the fetch
    with HashMismatch and leaves the store clean.
    """
    parse_bare_hex64(root)
    conn = _PeerConnection(endpoint)
    try:
        transferred = 0

        def obtain(hash: str, child: bool):
            nonlocal transferred
            if store.contains(hash):
                return store.get(hash)
            raw = conn.request_node(hash)
            try:
                node = decode_node(raw)
            except ValueError as exc:
                # hash already verified, so these bytes genuinely are the
                # named object; it just is not a DAG node
                raise ProtocolError(f"object {hash} is not a canonical node: {exc}") from exc
            if child and not node.is_leaf:
                # the DAG has two levels; its children would never be fetched
                raise ProtocolError(f"child {hash} is an interior node")
            store.put(node)
            transferred += 1
            return node

        root_node = obtain(root, child=False)
        for link in root_node.links:
            obtain(link.hash, child=True)
        return transferred
    finally:
        conn.close()
