import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoledger.dagstore import (
    CHUNK_SIZE,
    MAX_FILE_SIZE,
    ChunkTooLarge,
    CorruptObject,
    DagNode,
    FileStat,
    FileTooLarge,
    InvalidNode,
    Link,
    NotFound,
    ObjectStore,
    add_file,
    cat_file,
    decode_node,
    encode_node,
    hash_node,
    stat,
)

# Independently computed: sha256 of {"data":"YWJj","links":[]} built by hand.
LEAF_ABC_GOLDEN = "a08d2b75b4d2b2f52e22e412d7f9850f7f70d6169ab76b2fa77e8bcf2f960bce"
EMPTY_LEAF_GOLDEN = "e4f47f6a23387d8d6f486b1b586c82b9812d238c14f198408c4256c0485e92d4"


@pytest.fixture
def store(tmp_path):
    return ObjectStore(tmp_path / "objects")


def _random_bytes(size: int, seed: int = 0) -> bytes:
    return random.Random(seed).randbytes(size)


class TestHashNode:
    def test_identical_nodes_identical_hashes(self):
        assert hash_node(DagNode(data=b"abc")) == hash_node(DagNode(data=b"abc"))

    def test_leaf_abc_golden(self):
        assert hash_node(DagNode(data=b"abc")) == LEAF_ABC_GOLDEN
        # recompute the oracle by hand: canonical JSON with base64 data
        manual = hashlib.sha256(b'{"data":"YWJj","links":[]}').hexdigest()
        assert manual == LEAF_ABC_GOLDEN

    def test_empty_leaf_golden(self):
        assert hash_node(DagNode()) == EMPTY_LEAF_GOLDEN

    def test_link_order_changes_hash(self):
        a = Link("", "aa" * 32, 1)
        b = Link("", "bb" * 32, 2)
        assert hash_node(DagNode(links=(a, b))) != hash_node(DagNode(links=(b, a)))

    def test_oversized_data_rejected(self):
        with pytest.raises(ChunkTooLarge):
            DagNode(data=b"\x00" * (CHUNK_SIZE + 1))

    def test_mixed_node_rejected(self):
        with pytest.raises(InvalidNode):
            DagNode(data=b"x", links=(Link("", "aa" * 32, 1), Link("", "bb" * 32, 1)))

    def test_single_link_interior_rejected(self):
        with pytest.raises(InvalidNode):
            DagNode(links=(Link("", "aa" * 32, 1),))

    def test_encoding_round_trip(self):
        node = DagNode(links=(Link("", "aa" * 32, 7), Link("", "bb" * 32, 9)))
        assert decode_node(encode_node(node)) == node


class TestPutGet:
    def test_put_then_get(self, store):
        node = DagNode(data=b"hello chunks")
        hash, new = store.put(node)
        assert new
        assert store.get(hash) == node
        assert store.get_bytes(hash) == encode_node(node)

    def test_put_idempotent(self, store):
        node = DagNode(data=b"again")
        first, new_first = store.put(node)
        count = store.count()
        second, new_second = store.put(node)
        assert (first, new_first, second, new_second) == (first, True, first, False)
        assert store.count() == count

    def test_get_unknown_hash(self, store):
        missing = "00" * 32
        with pytest.raises(NotFound) as excinfo:
            store.get(missing)
        assert excinfo.value.hash == missing

    def test_corrupt_object_detected(self, store, tmp_path):
        hash, _ = store.put(DagNode(data=b"precious"))
        victim = tmp_path / "objects" / hash[:2] / hash[2:]
        raw = bytearray(victim.read_bytes())
        raw[10] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(CorruptObject):
            store.get(hash)
        with pytest.raises(CorruptObject):
            store.audit()

    def test_put_replaces_damaged_object(self, store, tmp_path):
        node = DagNode(data=b"heal me")
        hash, _ = store.put(node)
        (tmp_path / "objects" / hash[:2] / hash[2:]).write_bytes(b"")
        assert store.put(node) == (hash, True)
        assert store.get(hash) == node

    def test_sharded_layout(self, store, tmp_path):
        hash, _ = store.put(DagNode(data=b"where am i"))
        assert (tmp_path / "objects" / hash[:2] / hash[2:]).is_file()


class TestAddFile:
    def test_empty_file_single_leaf(self, store):
        root = add_file(store, b"")
        assert root == EMPTY_LEAF_GOLDEN
        assert store.count() == 1
        assert cat_file(store, root) == b""

    def test_exactly_one_chunk_is_a_leaf(self, store):
        content = _random_bytes(CHUNK_SIZE)
        root = add_file(store, content)
        assert store.get(root).is_leaf
        assert store.count() == 1

    def test_one_byte_over_chunk_splits(self, store):
        content = _random_bytes(CHUNK_SIZE + 1, seed=1)
        root = add_file(store, content)
        node = store.get(root)
        assert not node.is_leaf
        assert [link.size for link in node.links] == [CHUNK_SIZE, 1]
        assert store.count() == 3

    def test_million_byte_layout(self, store):
        content = _random_bytes(1_000_000, seed=2)
        root = add_file(store, content)
        node = store.get(root)
        assert len(node.links) == 4
        assert [link.size for link in node.links] == [CHUNK_SIZE, CHUNK_SIZE, CHUNK_SIZE, 213_568]
        assert sum(link.size for link in node.links) == 1_000_000
        assert store.count() == 5
        assert all(link.name == "" for link in node.links)

    def test_file_too_large(self, store):
        with pytest.raises(FileTooLarge):
            add_file(store, b"\x00" * (MAX_FILE_SIZE + 1))

    def test_same_content_same_root_across_stores(self, tmp_path):
        content = _random_bytes(600_000, seed=3)
        root_a = add_file(ObjectStore(tmp_path / "a"), content)
        root_b = add_file(ObjectStore(tmp_path / "b"), content)
        assert root_a == root_b

    def test_re_add_stores_nothing_new(self, store):
        content = _random_bytes(600_000, seed=4)
        add_file(store, content)
        count = store.count()
        add_file(store, content)
        assert store.count() == count


class TestCatFile:
    @pytest.mark.parametrize("size", [0, 1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 1_000_000])
    def test_round_trip_boundaries(self, store, size):
        content = _random_bytes(size, seed=size)
        assert cat_file(store, add_file(store, content)) == content

    def test_round_trip_4mb(self, store):
        content = _random_bytes(4 * 1024 * 1024, seed=5)
        assert cat_file(store, add_file(store, content)) == content

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=3 * CHUNK_SIZE))
    def test_round_trip_property(self, tmp_path_factory, content):
        store = ObjectStore(tmp_path_factory.mktemp("objects"))
        assert cat_file(store, add_file(store, content)) == content

    def test_missing_leaf_named(self, store):
        content = _random_bytes(CHUNK_SIZE + 10, seed=6)
        root = add_file(store, content)
        victim = store.get(root).links[1].hash
        store.delete(victim)
        with pytest.raises(NotFound) as excinfo:
            cat_file(store, root)
        assert excinfo.value.hash == victim


class TestStat:
    def test_empty_file(self, store):
        assert stat(store, add_file(store, b"")) == FileStat(total_size=0, node_count=1, depth=1)

    def test_million_byte_file(self, store):
        root = add_file(store, _random_bytes(1_000_000, seed=7))
        assert stat(store, root) == FileStat(total_size=1_000_000, node_count=5, depth=2)

    def test_links_only_matches_full_traversal(self, store):
        content = _random_bytes(700_001, seed=8)
        root = add_file(store, content)
        from_links = stat(store, root)
        assert from_links.total_size == len(cat_file(store, root))
        node = store.get(root)
        traversed = sum(len(store.get(link.hash).data) for link in node.links)
        assert from_links.total_size == traversed


class TestModificationSensitivity:
    def test_any_byte_change_changes_root(self, store):
        content = bytearray(_random_bytes(CHUNK_SIZE + 500, seed=9))
        root = add_file(store, bytes(content))
        rng = random.Random(10)
        for _ in range(10):
            position = rng.randrange(len(content))
            mutated = bytearray(content)
            mutated[position] ^= 0x01
            assert add_file(store, bytes(mutated)) != root

    def test_shared_chunks_stored_once(self, store):
        base = _random_bytes(3 * CHUNK_SIZE, seed=11)
        add_file(store, base)
        count_after_first = store.count()  # 3 leaves + root
        assert count_after_first == 4
        # change only the final chunk: the first two leaves are shared
        modified = base[: 2 * CHUNK_SIZE] + _random_bytes(CHUNK_SIZE, seed=12)
        add_file(store, modified)
        assert store.count() == count_after_first + 2  # new last leaf + new root

    def test_full_store_audit(self, store):
        for seed in range(5):
            add_file(store, _random_bytes(100_000 * seed, seed=seed))
        store.audit()
        for hash in store.hashes():
            assert hashlib.sha256(store.get_bytes(hash)).hexdigest() == hash
