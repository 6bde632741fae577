import random
import select
import socket
import struct
import threading

import pytest

from thermoledger.dagstore import CHUNK_SIZE, NotFound, ObjectStore, add_file, cat_file
from thermoledger.envelope import Identity, decrypt, encrypt_for
from thermoledger.exchange import (
    WINDOW,
    HashMismatch,
    ProtocolError,
    RemoteMissing,
    decode_message,
    encode_get,
    encode_node,
    fetch_dag,
    read_frame,
    serve,
    write_frame,
)


@pytest.fixture
def remote(tmp_path):
    return ObjectStore(tmp_path / "remote")


@pytest.fixture
def local(tmp_path):
    return ObjectStore(tmp_path / "local")


def _content(size, seed=0):
    return random.Random(seed).randbytes(size)


class _LyingStore:
    """Serves one poisoned hash with attacker-chosen bytes."""

    def __init__(self, inner, poisoned, payload=b"not the requested node"):
        self._inner = inner
        self._poisoned = poisoned
        self._payload = payload

    def get_bytes(self, hash):
        if hash == self._poisoned:
            return self._payload
        return self._inner.get_bytes(hash)


class _HoleyStore:
    """Reports one stored hash as missing."""

    def __init__(self, inner, hole):
        self._inner = inner
        self._hole = hole

    def get_bytes(self, hash):
        if hash == self._hole:
            raise NotFound(hash)
        return self._inner.get_bytes(hash)


class _CountingPeer:
    """Serves one connection, recording each get and the most gets it held
    unanswered at once. Before each reply it waits briefly for more gets,
    so a pipelining client shows its window."""

    def __init__(self, store):
        self._store = store
        self.requested = []
        self.max_outstanding = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.endpoint = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._listener.accept()
        with conn:
            buf, queue = b"", []
            while True:
                if select.select([conn], [], [], 0.02 if queue else 10)[0]:
                    chunk = conn.recv(1 << 16)
                    if not chunk:
                        return
                    buf += chunk
                    while len(buf) >= 4 and len(buf) >= (end := 4 + struct.unpack(">I", buf[:4])[0]):
                        queue.append(decode_message(buf[4:end])["hash"])
                        self.requested.append(queue[-1])
                        buf = buf[end:]
                    self.max_outstanding = max(self.max_outstanding, len(queue))
                elif queue:
                    hash = queue.pop(0)
                    write_frame(conn, encode_node(hash, self._store.get_bytes(hash)))
                else:
                    return

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._thread.join(timeout=15)
        self._listener.close()
        assert not self._thread.is_alive()


def _leaves(root, store):
    return [link.hash for link in store.get(root).links]


def _tmp_files(store):
    return [path for path in store.root.rglob("*") if path.name.startswith(".tmp-")]


class TestServe:
    def test_get_known_hash_returns_verified_node(self, remote):
        root = add_file(remote, b"small file")
        with serve(remote) as server, socket.create_connection(server.endpoint, timeout=5) as sock:
            write_frame(sock, encode_get(root))
            message = decode_message(read_frame(sock))
        assert message["type"] == "node"
        assert message["hash"] == root
        import hashlib
        assert hashlib.sha256(message["node"]).hexdigest() == root

    def test_get_unknown_hash_returns_missing(self, remote):
        with serve(remote) as server, socket.create_connection(server.endpoint, timeout=5) as sock:
            write_frame(sock, encode_get("11" * 32))
            message = decode_message(read_frame(sock))
        assert message == {"type": "missing", "hash": "11" * 32}

    def test_pipelined_gets_answered_in_order(self, remote):
        roots = [add_file(remote, _content(1000, seed=i)) for i in range(3)]
        with serve(remote) as server, socket.create_connection(server.endpoint, timeout=5) as sock:
            for root in roots:
                write_frame(sock, encode_get(root))
            replies = [decode_message(read_frame(sock)) for _ in roots]
        assert [r["hash"] for r in replies] == roots
        assert all(r["type"] == "node" for r in replies)

    def test_concurrent_connections(self, remote):
        root = add_file(remote, b"shared")
        with serve(remote) as server:
            socks = [socket.create_connection(server.endpoint, timeout=5) for _ in range(4)]
            try:
                for sock in socks:
                    write_frame(sock, encode_get(root))
                for sock in socks:
                    assert decode_message(read_frame(sock))["type"] == "node"
            finally:
                for sock in socks:
                    sock.close()

    def test_corrupt_disk_object_served_as_missing(self, remote, tmp_path):
        root = add_file(remote, b"rot me")
        victim = tmp_path / "remote" / root[:2] / root[2:]
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with serve(remote) as server, socket.create_connection(server.endpoint, timeout=5) as sock:
            write_frame(sock, encode_get(root))
            message = decode_message(read_frame(sock))
        assert message["type"] == "missing"

    def test_garbage_frame_closes_only_that_connection(self, remote):
        root = add_file(remote, b"still serving")
        with serve(remote) as server:
            with socket.create_connection(server.endpoint, timeout=5) as bad:
                write_frame(bad, b"this is not json")
                assert read_frame(bad) is None  # server hung up on us
            with socket.create_connection(server.endpoint, timeout=5) as good:
                write_frame(good, encode_get(root))
                assert decode_message(read_frame(good))["type"] == "node"


class TestFetchDag:
    def test_five_node_dag_transfers_and_matches(self, remote, local):
        content = _content(1_000_000, seed=1)
        root = add_file(remote, content)
        with serve(remote) as server:
            transferred, _ = fetch_dag(server.endpoint, root, local)
        assert transferred == 5
        assert cat_file(local, root) == cat_file(remote, root) == content

    def test_refetch_transfers_nothing(self, remote, local):
        root = add_file(remote, _content(700_000, seed=2))
        with serve(remote) as server:
            assert fetch_dag(server.endpoint, root, local)[0] == 4
            assert fetch_dag(server.endpoint, root, local)[0] == 0

    def test_partially_local_fetches_only_missing(self, remote, local):
        content = _content(1_000_000, seed=3)
        root = add_file(remote, content)
        shared_chunk = content[: 262_144]
        add_file(local, shared_chunk)  # first leaf already present locally
        with serve(remote) as server:
            transferred, _ = fetch_dag(server.endpoint, root, local)
        assert transferred == 4
        assert cat_file(local, root) == content

    def test_remote_missing_named(self, remote, local):
        with serve(remote) as server:
            with pytest.raises(RemoteMissing) as excinfo:
                fetch_dag(server.endpoint, "22" * 32, local)
        assert excinfo.value.hash == "22" * 32

    def test_lying_server_detected_and_store_stays_clean(self, remote, local):
        content = _content(1_000_000, seed=4)
        root = add_file(remote, content)
        poisoned = remote.get(root).links[2].hash
        with serve(_LyingStore(remote, poisoned)) as server:
            with pytest.raises(HashMismatch) as excinfo:
                fetch_dag(server.endpoint, root, local)
        assert excinfo.value.hash == poisoned
        assert not local.contains(poisoned)
        local.audit()

    def test_corrupted_payload_fuzz_never_stores(self, remote, local):
        content = _content(600_000, seed=5)
        root = add_file(remote, content)
        target = remote.get(root).links[0].hash
        good = remote.get_bytes(target)
        rng = random.Random(6)
        for _ in range(20):
            position = rng.randrange(len(good))
            flip = bytes([good[position] ^ (1 + rng.randrange(255))])
            payload = good[:position] + flip + good[position + 1 :]
            with serve(_LyingStore(remote, target, payload)) as server:
                with pytest.raises(HashMismatch):
                    fetch_dag(server.endpoint, root, local)
            assert not local.contains(target)
        local.audit()


    def test_window_bounds_outstanding_gets(self, remote, local):
        content = _content((WINDOW + 4) * CHUNK_SIZE, seed=8)
        root = add_file(remote, content)
        with _CountingPeer(remote) as peer:
            transferred, nodes = fetch_dag(peer.endpoint, root, local)
        assert transferred == WINDOW + 5
        assert 1 < peer.max_outstanding <= WINDOW
        assert cat_file(nodes, root) == content

    def test_repeated_child_requested_once(self, remote, local):
        chunk_a, chunk_b = _content(CHUNK_SIZE, seed=9), _content(CHUNK_SIZE, seed=10)
        content = chunk_a + chunk_a + chunk_b
        root = add_file(remote, content)
        a, repeated, b = _leaves(root, remote)
        assert a == repeated
        with _CountingPeer(remote) as peer:
            transferred, nodes = fetch_dag(peer.endpoint, root, local)
        assert peer.requested == [root, a, b]
        assert transferred == 3
        assert cat_file(nodes, root) == cat_file(local, root) == content

    def test_present_leaves_not_requested(self, remote, local):
        content = _content(4 * CHUNK_SIZE, seed=11)
        root = add_file(remote, content)
        add_file(local, content[:CHUNK_SIZE])
        add_file(local, content[2 * CHUNK_SIZE : 3 * CHUNK_SIZE])
        leaves = _leaves(root, remote)
        with _CountingPeer(remote) as peer:
            transferred, nodes = fetch_dag(peer.endpoint, root, local)
        assert peer.requested == [root, leaves[1], leaves[3]]
        assert transferred == 3
        assert cat_file(nodes, root) == content

    def test_lie_with_later_gets_outstanding_stores_only_verified(self, remote, local):
        content = _content((WINDOW + 4) * CHUNK_SIZE, seed=12)
        root = add_file(remote, content)
        leaves = _leaves(root, remote)
        with serve(_LyingStore(remote, leaves[1])) as server:
            with pytest.raises(HashMismatch) as excinfo:
                fetch_dag(server.endpoint, root, local)
        assert excinfo.value.hash == leaves[1]
        assert set(local.hashes()) == {root, leaves[0]}
        assert _tmp_files(local) == []
        local.audit()

    def test_missing_mid_window_raises(self, remote, local):
        content = _content(6 * CHUNK_SIZE, seed=13)
        root = add_file(remote, content)
        hole = _leaves(root, remote)[3]
        with serve(_HoleyStore(remote, hole)) as server:
            with pytest.raises(RemoteMissing) as excinfo:
                fetch_dag(server.endpoint, root, local)
        assert excinfo.value.hash == hole
        assert not local.contains(hole)
        assert _tmp_files(local) == []
        local.audit()

    def test_damaged_local_child_is_fetched_again(self, remote, local):
        content = _content(3 * CHUNK_SIZE, seed=14)
        root = add_file(remote, content)
        damaged = _leaves(root, remote)[1]
        with serve(remote) as server:
            fetch_dag(server.endpoint, root, local)
            # what a crash after the rename but before the data reached disk leaves
            (local.root / damaged[:2] / damaged[2:]).write_bytes(b"")
            transferred, _ = fetch_dag(server.endpoint, root, local)
        assert transferred == 1
        assert cat_file(local, root) == content
        local.audit()


class TestEndToEnd:
    def test_publish_fetch_decrypt_round_trip(self, remote, local):
        recipient = Identity.generate()
        plaintext = _content(1_000_000, seed=7)
        root = add_file(remote, encrypt_for(recipient.public_bytes, plaintext))
        with serve(remote) as server:
            fetch_dag(server.endpoint, root, local)
        assert decrypt(cat_file(local, root), recipient) == plaintext


class TestFraming:
    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError):
            write_frame(None, b"\x00" * (1024 * 1024 + 1))

    def test_message_decode_strict(self):
        for bad in (b"[]", b'{"type":"push","hash":"' + b"00" * 32 + b'"}', b'{"type":"get"}'):
            with pytest.raises(ProtocolError):
                decode_message(bad)
