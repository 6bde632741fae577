import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoledger.dagstore import (
    CHUNK_SIZE,
    MAX_FILE_SIZE,
    MAX_LINKS,
    CorruptObject,
    DagNode,
    FileStat,
    FileTooLarge,
    Link,
    NotFound,
    ObjectStore,
    add_file,
    decode_node,
    encode_node,
    stat,
)

from .conftest import audit, over_cap_root, raw_root, read_back, stored

# Node format v1, now refused: canonical JSON with base64 leaf data,
# built by hand. These goldens are their sha256, kept as fixtures.
LEAF_ABC_V1 = b'{"data":"YWJj","links":[]}'
EMPTY_LEAF_V1 = b'{"data":"","links":[]}'
LEAF_ABC_GOLDEN = "a08d2b75b4d2b2f52e22e412d7f9850f7f70d6169ab76b2fa77e8bcf2f960bce"
EMPTY_LEAF_GOLDEN = "e4f47f6a23387d8d6f486b1b586c82b9812d238c14f198408c4256c0485e92d4"

# Node format v2: independently computed sha256 of bytes built by hand.
LEAF_ABC_V2_GOLDEN = "78d2b57330e7fca7060e3dfcdd350c04473a4fc3eae9c9611e30bdee2d401ae7"
EMPTY_LEAF_V2_GOLDEN = "99be5efb88ca2013bd8e4eb035fd42d5245468fe9afa70d8ba9c1c419a48c4e8"
INTERIOR_V2_GOLDEN = "ff3baef2c6d41138c5ecc87383c269525606623210582ef63f034fcaf60478ab"


@pytest.fixture
def store(tmp_path):
    return ObjectStore(tmp_path / "objects")


def _random_bytes(size: int, seed: int = 0) -> bytes:
    return random.Random(seed).randbytes(size)


def hash_node(node: DagNode) -> str:
    return hashlib.sha256(encode_node(node)).hexdigest()


class TestHashNode:
    def test_identical_nodes_identical_hashes(self):
        assert hash_node(DagNode(data=b"abc")) == hash_node(DagNode(data=b"abc"))

    def test_leaf_abc_golden(self):
        assert hash_node(DagNode(data=b"abc")) == LEAF_ABC_V2_GOLDEN
        # recompute the oracle by hand: version, leaf kind, raw data
        assert hashlib.sha256(b"\x02\x00abc").hexdigest() == LEAF_ABC_V2_GOLDEN

    def test_empty_leaf_golden(self):
        assert hash_node(DagNode()) == EMPTY_LEAF_V2_GOLDEN
        assert hashlib.sha256(b"\x02\x00").hexdigest() == EMPTY_LEAF_V2_GOLDEN

    def test_interior_golden(self):
        node = DagNode(links=(Link("aa" * 32, 7), Link("bb" * 32, 9)))
        manual = b"\x02\x01" + b"\xaa" * 32 + bytes(7) + b"\x07" + b"\xbb" * 32 + bytes(7) + b"\x09"
        assert encode_node(node) == manual
        assert hash_node(node) == hashlib.sha256(manual).hexdigest() == INTERIOR_V2_GOLDEN

    @pytest.mark.parametrize("raw, golden", [(LEAF_ABC_V1, LEAF_ABC_GOLDEN), (EMPTY_LEAF_V1, EMPTY_LEAF_GOLDEN)], ids=["abc", "empty"])
    def test_v1_leaf_refused(self, store, raw, golden):
        assert hashlib.sha256(raw).hexdigest() == golden
        with pytest.raises(ValueError, match="not a version 2"):
            decode_node(raw)
        store.put_raw(golden, raw)  # a v1 object left in a store
        with pytest.raises(CorruptObject, match="not a version 2"):
            store.get(golden)

    def test_link_order_changes_hash(self):
        a = Link("aa" * 32, 1)
        b = Link("bb" * 32, 2)
        assert hash_node(DagNode(links=(a, b))) != hash_node(DagNode(links=(b, a)))

    def test_interior_node_capped_at_max_links(self, store):
        assert len(decode_node(raw_root((f"{i:064x}", 1) for i in range(MAX_LINKS))).links) == MAX_LINKS
        raw = over_cap_root()
        with pytest.raises(ValueError, match="limit 1024"):
            decode_node(raw)
        root = hashlib.sha256(raw).hexdigest()
        store.put_raw(root, raw)
        with pytest.raises(CorruptObject, match="limit 1024"):
            store.get(root)

    def test_links_naming_one_child_agree_on_its_size(self, store):
        leaf, _ = store.put(DagNode(data=bytes(1000)))
        assert len(decode_node(raw_root([(leaf, 1000), (leaf, 1000)])).links) == 2  # a repeated chunk
        raw = raw_root([(leaf, 1000), (leaf, 5)])
        with pytest.raises(ValueError, match="disagree on its size"):
            decode_node(raw)
        root = hashlib.sha256(raw).hexdigest()
        store.put_raw(root, raw)
        with pytest.raises(CorruptObject, match="disagree on its size"):
            store.get(root)

    def test_encoding_round_trip(self):
        node = DagNode(links=(Link("aa" * 32, 7), Link("bb" * 32, 9)))
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
        count = len(stored(store))
        second, new_second = store.put(node)
        assert (first, new_first, second, new_second) == (first, True, first, False)
        assert len(stored(store)) == count

    def test_get_unknown_hash(self, store):
        missing = "00" * 32
        with pytest.raises(NotFound) as excinfo:
            store.get(missing)
        assert excinfo.value.hash == missing

    def test_corrupt_object_detected(self, store, tmp_path):
        hash, _ = store.put(DagNode(data=b"precious"))
        victim = tmp_path / "objects" / hash[:2] / hash[2:]
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(CorruptObject):
            store.get(hash)
        with pytest.raises(CorruptObject):
            audit(store)

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
        assert root == EMPTY_LEAF_V2_GOLDEN
        assert len(stored(store)) == 1
        assert read_back(store, root) == b""

    def test_exactly_one_chunk_is_a_leaf(self, store):
        content = _random_bytes(CHUNK_SIZE)
        root = add_file(store, content)
        assert store.get(root).is_leaf
        assert len(stored(store)) == 1

    def test_one_byte_over_chunk_splits(self, store):
        content = _random_bytes(CHUNK_SIZE + 1, seed=1)
        root = add_file(store, content)
        node = store.get(root)
        assert not node.is_leaf
        assert [link.size for link in node.links] == [CHUNK_SIZE, 1]
        assert len(stored(store)) == 3

    def test_million_byte_layout(self, store):
        content = _random_bytes(1_000_000, seed=2)
        root = add_file(store, content)
        node = store.get(root)
        assert len(node.links) == 4
        assert [link.size for link in node.links] == [CHUNK_SIZE, CHUNK_SIZE, CHUNK_SIZE, 213_568]
        assert sum(link.size for link in node.links) == 1_000_000
        assert len(stored(store)) == 5

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
        count = len(stored(store))
        add_file(store, content)
        assert len(stored(store)) == count


class TestCatFile:
    @pytest.mark.parametrize("size", [0, 1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 1_000_000])
    def test_round_trip_boundaries(self, store, size):
        content = _random_bytes(size, seed=size)
        assert read_back(store, add_file(store, content)) == content

    def test_round_trip_4mb(self, store):
        content = _random_bytes(4 * 1024 * 1024, seed=5)
        assert read_back(store, add_file(store, content)) == content

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=3 * CHUNK_SIZE))
    def test_round_trip_property(self, tmp_path_factory, content):
        store = ObjectStore(tmp_path_factory.mktemp("objects"))
        assert read_back(store, add_file(store, content)) == content

    def test_link_size_must_match_its_leaf(self, store):
        leaves = [store.put(DagNode(data=_random_bytes(size, seed=size)))[0] for size in (1000, 2000)]
        root, _ = store.put(DagNode(links=tuple(Link(hash=leaf, size=1) for leaf in leaves)))
        assert stat(store, root).total_size == 2
        with pytest.raises(CorruptObject) as excinfo:
            read_back(store, root)
        assert excinfo.value.hash == leaves[0]


class TestStat:
    def test_empty_file(self, store):
        assert stat(store, add_file(store, b"")) == FileStat(total_size=0, node_count=1)

    def test_million_byte_file(self, store):
        root = add_file(store, _random_bytes(1_000_000, seed=7))
        assert stat(store, root) == FileStat(total_size=1_000_000, node_count=5)

    def test_links_only_matches_full_traversal(self, store):
        content = _random_bytes(700_001, seed=8)
        root = add_file(store, content)
        from_links = stat(store, root)
        assert from_links.total_size == len(read_back(store, root))
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
        count_after_first = len(stored(store))  # 3 leaves + root
        assert count_after_first == 4
        # change only the final chunk: the first two leaves are shared
        modified = base[: 2 * CHUNK_SIZE] + _random_bytes(CHUNK_SIZE, seed=12)
        add_file(store, modified)
        assert len(stored(store)) == count_after_first + 2  # new last leaf + new root

    def test_full_store_audit(self, store):
        for seed in range(5):
            add_file(store, _random_bytes(100_000 * seed, seed=seed))
        # every node add_file builds at the chunk boundaries decodes
        for size in (0, 1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 4 * CHUNK_SIZE + 1):
            add_file(store, _random_bytes(size, seed=size))
        audit(store)
        for hash in stored(store):
            assert hashlib.sha256(store.get_bytes(hash)).hexdigest() == hash
