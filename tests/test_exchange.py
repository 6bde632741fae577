import base64
import gc
import hashlib
import json
import os
import random
import select
import socket
import struct
import threading
import time
from contextlib import ExitStack, contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoledger import exchange
from thermoledger.dagstore import CHUNK_SIZE, CorruptObject, DagNode, Link, NotFound, ObjectStore, add_file, cat_file
from thermoledger.envelope import Identity, decrypt, encrypt_for
from thermoledger.errors import Error
from thermoledger.exchange import (
    MAX_FRAME_SIZE,
    WINDOW,
    ConnectionLost,
    HashMismatch,
    ProtocolError,
    RemoteMissing,
    decode_message,
    encode_get,
    encode_node,
    fetch_dag,
    read_frame,
    write_frame,
)

from .conftest import audit, over_cap_root, raw_root, read_back, serve, stored


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


def _v1_reply(raw):
    """The reply a version 1 peer sent: canonical JSON with the node in base64."""
    message = {"hash": hashlib.sha256(raw).hexdigest(), "node": base64.b64encode(raw).decode(), "type": "node"}
    return json.dumps(message, separators=(",", ":")).encode()


# a leaf in node format v1, which version 2 refuses: canonical JSON with base64 data
_V1_NODE = b'{"data":"YWJj","links":[]}'

# the get a version 1 client sent
_V1_GET = json.dumps({"hash": "11" * 32, "type": "get"}, separators=(",", ":")).encode()


class _CountingPeer:
    """Serves one connection, recording each get and the most gets it held
    unanswered at once. Before each reply it waits briefly for more gets,
    so a pipelining client shows its window. ``reply`` encodes each node's
    stored bytes."""

    def __init__(self, store, reply=encode_node):
        self._store = store
        self._reply = reply
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
                        queue.append(decode_message(buf[4:end]).hex())
                        self.requested.append(queue[-1])
                        buf = buf[end:]
                    self.max_outstanding = max(self.max_outstanding, len(queue))
                elif queue:
                    hash = queue.pop(0)
                    write_frame(conn, self._reply(self._store.get_bytes(hash)))
                else:
                    return

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._thread.join(timeout=15)
        self._listener.close()
        assert not self._thread.is_alive()


@contextmanager
def _connection(endpoint):
    """A client socket and the one buffered reader its frames are read through."""
    with socket.create_connection(endpoint, timeout=5) as sock, sock.makefile("rb") as stream:
        yield sock, stream


@contextmanager
def _one_connection_peer(script):
    """Run script(conn, stream) in a thread on the first connection to a fresh
    port; yields the port's endpoint, and joins the thread on exit."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def run():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                script(conn, stream)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        yield listener.getsockname()
        thread.join(timeout=5)
    assert not thread.is_alive()


def _frame(payload):
    return struct.pack(">I", len(payload)) + payload


def test_frame_codec_maps_socket_errors_to_connection_lost():
    a, b = socket.socketpair()
    with a, b, a.makefile("rb") as stream:
        a.settimeout(0.01)
        with pytest.raises(ConnectionLost):  # recv timed out
            read_frame(stream)
        b.close()
        with pytest.raises(ConnectionLost):  # sendall to a closed peer
            write_frame(a, encode_get("11" * 32))


def _leaves(root, store):
    return [link.hash for link in store.get(root).links]


def _tmp_files(store):
    return [path for path in store.root.rglob("*") if path.name.startswith(".tmp-")]


def _object_file(store, hash):
    return (store.root / hash[:2] / hash[2:]).read_bytes()


class TestServe:
    def test_get_known_hash_returns_verified_node(self, remote):
        root = add_file(remote, b"small file")
        with serve(remote) as server, _connection(server.endpoint) as (sock, stream):
            write_frame(sock, encode_get(root))
            reply = read_frame(stream)
        assert reply == b"\x02" + _object_file(remote, root)
        assert hashlib.sha256(decode_message(reply)).hexdigest() == root

    def test_get_unknown_hash_returns_missing(self, remote):
        with serve(remote) as server, _connection(server.endpoint) as (sock, stream):
            write_frame(sock, encode_get("11" * 32))
            assert read_frame(stream) == b"\x02"

    def test_pipelined_gets_answered_in_order(self, remote):
        roots = [add_file(remote, _content(1000, seed=i)) for i in range(8)]
        with serve(remote) as server, _connection(server.endpoint) as (sock, stream):
            sock.sendall(b"".join(_frame(encode_get(root)) for root in roots))  # one burst
            replies = [read_frame(stream) for _ in roots]
        assert replies == [b"\x02" + _object_file(remote, root) for root in roots]

    def test_concurrent_connections(self, remote):
        root = add_file(remote, b"shared")
        with serve(remote) as server, ExitStack() as stack:
            connections = [stack.enter_context(_connection(server.endpoint)) for _ in range(4)]
            for sock, _ in connections:
                write_frame(sock, encode_get(root))
            for _, stream in connections:
                assert read_frame(stream) == b"\x02" + _object_file(remote, root)

    def test_corrupt_disk_object_served_as_missing(self, remote, tmp_path):
        root = add_file(remote, b"rot me")
        victim = tmp_path / "remote" / root[:2] / root[2:]
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with serve(remote) as server, _connection(server.endpoint) as (sock, stream):
            write_frame(sock, encode_get(root))
            assert read_frame(stream) == b"\x02"

    def test_store_read_error_reaches_handle_error(self, remote, monkeypatch):
        def unreadable(hash):
            raise PermissionError(13, "Permission denied", hash)

        monkeypatch.setattr(remote, "get_bytes", unreadable)
        reported = []
        with serve(remote) as server, _connection(server.endpoint) as (sock, stream):
            monkeypatch.setattr(server, "handle_error", lambda request, address: reported.append(address))
            write_frame(sock, encode_get("11" * 32))
            assert read_frame(stream) is None  # connection ends after the report
        assert len(reported) == 1

    def test_garbage_frame_closes_only_that_connection(self, remote):
        _assert_closes_only_that_connection(remote, b"this is not json")

    @pytest.mark.parametrize(
        "payload",
        [b"\x02" + bytes(31), b"\x02" + bytes(33), b"", b"\x01" + bytes(32), b"\x03" + bytes(32), _V1_GET],
        ids=["31-byte-digest", "33-byte-digest", "empty-frame", "version-1-byte", "version-3-byte", "v1-json-get"],
    )
    def test_malformed_get_closes_only_that_connection(self, remote, payload):
        _assert_closes_only_that_connection(remote, payload)


def _assert_closes_only_that_connection(store, payload):
    root = add_file(store, b"still serving")
    with serve(store) as server:
        with _connection(server.endpoint) as (bad, stream):
            write_frame(bad, payload)
            assert read_frame(stream) is None  # server hung up on us
        with _connection(server.endpoint) as (good, stream):
            write_frame(good, encode_get(root))
            assert read_frame(stream) == b"\x02" + _object_file(store, root)


class TestFetchDag:
    def test_five_node_dag_transfers_and_matches(self, remote, local):
        content = _content(1_000_000, seed=1)
        root = add_file(remote, content)
        with serve(remote) as server:
            transferred, _ = fetch_dag(server.endpoint, root, local)
        assert transferred == 5
        assert read_back(local, root) == read_back(remote, root) == content

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
        assert read_back(local, root) == content

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
        with pytest.raises(NotFound):
            local.get_bytes(poisoned)
        audit(local)

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
            with pytest.raises(NotFound):
                local.get_bytes(target)
        audit(local)


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
        assert cat_file(nodes, root) == read_back(local, root) == content

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
        assert stored(local) == {root, leaves[0]}
        assert _tmp_files(local) == []
        audit(local)

    def test_missing_mid_window_raises(self, remote, local):
        content = _content(6 * CHUNK_SIZE, seed=13)
        root = add_file(remote, content)
        hole = _leaves(root, remote)[3]
        with serve(_HoleyStore(remote, hole)) as server:
            with pytest.raises(RemoteMissing) as excinfo:
                fetch_dag(server.endpoint, root, local)
        assert excinfo.value.hash == hole
        with pytest.raises(NotFound):
            local.get_bytes(hole)
        assert _tmp_files(local) == []
        audit(local)

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
        assert read_back(local, root) == content
        audit(local)

    def test_complete_local_dag_needs_no_peer(self, local):
        content = _content(3 * CHUNK_SIZE, seed=15)
        root = add_file(local, content)
        closed = socket.create_server(("127.0.0.1", 0))
        endpoint = closed.getsockname()
        closed.close()
        transferred, nodes = fetch_dag(endpoint, root, local)
        assert transferred == 0
        assert cat_file(nodes, root) == content

    def test_local_root_with_missing_child_fetches_only_it(self, remote, local):
        content = _content(3 * CHUNK_SIZE, seed=16)
        root = add_file(remote, content)
        add_file(local, content)
        missing = _leaves(root, local)[2]
        local.delete(missing)
        with _CountingPeer(remote) as peer:
            transferred, _ = fetch_dag(peer.endpoint, root, local)
        assert peer.requested == [missing]
        assert transferred == 1
        assert read_back(local, root) == content

    def test_links_that_understate_their_leaves_refused_before_storing(self, remote, local):
        leaves = [remote.put(DagNode(data=bytes(size)))[0] for size in (1000, 2000)]
        root, _ = remote.put(DagNode(links=tuple(Link(hash=leaf, size=1) for leaf in leaves)))
        with serve(remote) as server:
            with pytest.raises(ProtocolError, match=f"child {leaves[0]}: leaf holds 1000 bytes, its link says 1"):
                fetch_dag(server.endpoint, root, local)
        assert stored(local) == {root}

    def test_local_leaves_that_overstate_their_links_refused(self, remote, local):
        leaves = [local.put(DagNode(data=bytes(size)))[0] for size in (1000, 2000)]
        root, _ = remote.put(DagNode(links=tuple(Link(hash=leaf, size=1) for leaf in leaves)))
        with serve(remote) as server:
            with pytest.raises(CorruptObject, match=f"{leaves[0]}: leaf holds 1000 bytes, its link says 1"):
                fetch_dag(server.endpoint, root, local)
        assert stored(local) == {root, *leaves}

    def test_links_that_disagree_on_a_child_refused_before_storing(self, remote, local):
        leaf, _ = remote.put(DagNode(data=bytes(1000)))
        raw = raw_root([(leaf, 1000), (leaf, 5)])
        root = hashlib.sha256(raw).hexdigest()
        remote.put_raw(root, raw)
        with serve(remote) as server:
            with pytest.raises(ProtocolError, match="not a version 2 DAG node: links that name one child disagree"):
                fetch_dag(server.endpoint, root, local)
        assert stored(local) == set()

    def test_local_root_whose_links_disagree_is_fetched_again(self, local):
        leaf, _ = local.put(DagNode(data=bytes(1000)))
        raw = raw_root([(leaf, 1000), (leaf, 5)])
        root = hashlib.sha256(raw).hexdigest()
        local.put_raw(root, raw)
        with pytest.raises(ConnectionLost):  # not taken as stored: the peer, down here, is asked
            fetch_dag(("127.0.0.1", 1), root, local)

    def test_local_v1_node_is_fetched_again(self, local):
        root = hashlib.sha256(_V1_NODE).hexdigest()
        local.put_raw(root, _V1_NODE)
        with pytest.raises(ConnectionLost):  # not taken as stored: the peer, down here, is asked
            fetch_dag(("127.0.0.1", 1), root, local)

    @pytest.mark.parametrize(
        "reply",
        [_v1_reply, lambda raw: b"\x01" + raw, lambda raw: b"\x03" + raw, lambda raw: b""],
        ids=["v1-json", "version-1-byte", "version-3-byte", "empty-frame"],
    )
    def test_reply_in_another_version_refused_and_nothing_stored(self, remote, local, reply):
        root = add_file(remote, _content(3 * CHUNK_SIZE, seed=17))
        with _CountingPeer(remote, reply) as peer:
            with pytest.raises(ProtocolError, match="not protocol version 2"):
                fetch_dag(peer.endpoint, root, local)
        assert peer.requested == [root]
        assert stored(local) == set()

    def test_each_reply_is_the_version_byte_and_the_stored_bytes(self, remote, local, monkeypatch):
        root = add_file(remote, _content(2 * CHUNK_SIZE + 5, seed=18))
        replies = []
        read = exchange.read_frame
        monkeypatch.setattr(exchange, "read_frame", lambda stream: replies.append(read(stream)) or replies[-1])
        with _CountingPeer(remote) as peer:
            fetch_dag(peer.endpoint, root, local)
        assert peer.requested == [root, *_leaves(root, remote)]
        assert replies == [b"\x02" + _object_file(remote, hash) for hash in peer.requested]
        assert all(_object_file(local, hash) == _object_file(remote, hash) for hash in peer.requested)

    def test_reply_holding_another_node_refused(self, remote, local):
        root = add_file(remote, _content(2 * CHUNK_SIZE, seed=19))
        other = remote.get_bytes(_leaves(root, remote)[1])
        with _CountingPeer(remote, lambda raw: encode_node(other)) as peer:
            with pytest.raises(HashMismatch):
                fetch_dag(peer.endpoint, root, local)
        assert stored(local) == set()

    def test_frame_over_the_cap_refused_before_its_payload(self, local):
        def announce_too_much(conn, stream):
            read_frame(stream)
            conn.sendall(struct.pack(">I", MAX_FRAME_SIZE + 1))
            conn.recv(1)  # until the client hangs up

        with _one_connection_peer(announce_too_much) as endpoint:
            with pytest.raises(ProtocolError, match="exceeds"):
                fetch_dag(endpoint, "11" * 32, local)
        assert stored(local) == set()

    def test_reply_sent_a_few_bytes_at_a_time_is_read_whole(self, remote, local):
        content = _content(1000, seed=20)
        root = add_file(remote, content)
        get, frame = _frame(encode_get(root)), _frame(encode_node(remote.get_bytes(root)))

        def dribble(conn, stream):
            assert stream.read(len(get)) == get
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            cuts = [0, 2, 7, len(frame) // 2, len(frame) - 1, len(frame)]  # the header split, then the payload
            for start, end in zip(cuts, cuts[1:]):
                conn.sendall(frame[start:end])
                time.sleep(0.01)
            conn.recv(1)  # until the client hangs up

        with _one_connection_peer(dribble) as endpoint:
            assert fetch_dag(endpoint, root, local)[0] == 1
        assert read_back(local, root) == content

    @pytest.mark.parametrize("part", ["header", "payload"])
    def test_peer_closing_mid_frame_is_connection_lost_and_nothing_stored(self, remote, local, part):
        root = add_file(remote, _content(1000, seed=21))
        get, frame = _frame(encode_get(root)), _frame(encode_node(remote.get_bytes(root)))
        cut = 2 if part == "header" else 4 + (len(frame) - 4) // 2

        def hang_up(conn, stream):
            assert stream.read(len(get)) == get
            conn.sendall(frame[:cut])

        with _one_connection_peer(hang_up) as endpoint:
            with pytest.raises(ConnectionLost, match="mid-frame"):
                fetch_dag(endpoint, root, local)
        assert stored(local) == set()

    def test_root_over_link_cap_refused_before_any_child_get(self, local):
        raw = over_cap_root()
        root = hashlib.sha256(raw).hexdigest()
        with _CountingPeer(SimpleNamespace(get_bytes={root: raw}.__getitem__)) as peer:
            with pytest.raises(ProtocolError, match="not a version 2 DAG node: interior node has 1025 links"):
                fetch_dag(peer.endpoint, root, local)
        assert peer.requested == [root]
        assert stored(local) == set()


LEAVES = (bytes(1000), b"", b"\x07" * 37)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(LEAVES) - 1), st.none() | st.integers(0, 1001)), min_size=2, max_size=5))
@example([(0, None), (0, 5)])  # one leaf linked twice, the second link understating it
def test_every_fetched_dag_is_described_by_its_links(tmp_path_factory, links):
    """Whatever a peer's root claims, a fetch that succeeds joins exactly the
    bytes its links add up to, and one that fails stores no root whose links
    disagree and no child that misfits a link; the same holds one site on."""
    sites = [ObjectStore(tmp_path_factory.mktemp("site")) for _ in range(3)]
    hashes = [sites[0].put(DagNode(data=data))[0] for data in LEAVES]
    pairs = [(hashes[i], len(LEAVES[i]) if size is None else size) for i, size in links]
    raw = raw_root(pairs)
    root = hashlib.sha256(raw).hexdigest()
    sites[0].put_raw(root, raw)
    agree = len(dict(pairs)) == len(set(pairs))
    sizes = {hash: len(data) for hash, data in zip(hashes, LEAVES)}
    for source, target in zip(sites, sites[1:]):
        with serve(source) as server:
            try:
                _, nodes = fetch_dag(server.endpoint, root, target)
            except Error:
                held = stored(target)
                assert agree or root not in held
                assert all(sizes[hash] == size for hash, size in pairs if hash in held)
            else:
                assert sum(size for _, size in pairs) == len(cat_file(nodes, root))


class TestEndToEnd:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors through /proc")
    def test_fetches_leave_no_descriptor_open(self, remote, tmp_path):
        def open_descriptors():
            gc.collect()  # an unclosed socket warns here, and ResourceWarning is an error
            return len(os.listdir("/proc/self/fd"))

        root = add_file(remote, _content(1000, seed=22))
        before = open_descriptors()
        with serve(remote) as server:
            for i in range(50):
                assert fetch_dag(server.endpoint, root, ObjectStore(tmp_path / f"local-{i}"))[0] == 1
        deadline = time.monotonic() + 5
        while open_descriptors() > before and time.monotonic() < deadline:
            time.sleep(0.01)  # the server's handler threads close their ends on their own
        assert open_descriptors() <= before

    def test_publish_fetch_decrypt_round_trip(self, remote, local):
        recipient = Identity.generate()
        plaintext = _content(1_000_000, seed=7)
        root = add_file(remote, encrypt_for(recipient.public_bytes, plaintext))
        with serve(remote) as server:
            fetch_dag(server.endpoint, root, local)
        assert decrypt(read_back(local, root), recipient) == plaintext


class TestFraming:
    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError):
            write_frame(None, b"\x00" * (1024 * 1024 + 1))

    def test_message_decode_strict(self):
        for bad in (b"", b"\x01" + bytes(32), b"\x03", b'{"type":"get","hash":"' + b"00" * 32 + b'"}'):
            with pytest.raises(ProtocolError):
                decode_message(bad)
        assert decode_message(b"\x02") == b""
        assert decode_message(encode_get("ab" * 32)) == bytes([0xAB]) * 32
