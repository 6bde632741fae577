import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoledger import ledger
from thermoledger.ledger import (
    Account,
    BadSignature,
    ChainState,
    InsufficientBalance,
    NonceMismatch,
    SealRejected,
    Transaction,
    apply_tx,
    build_and_sign_tx,
    merkle_root,
    seal_block,
    verify_chain,
    verify_tx,
)

from .conftest import seeded_key, sensor_pool, signed_tx, supply

# Independently computed with hashlib over the raw concatenations.
MERKLE_TWO_GOLDEN = "5189c77d29fe5d546a045ec46986852785fea5c13ac7da9c115ff5fb6edf817c"
MERKLE_TWO_SWAPPED = "adfafc05aac733fe9509f43bd1d158c882890351c7f343634c8ef9ea42cdb505"
MERKLE_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

H1 = bytes([0x11]) * 32
H2 = bytes([0x22]) * 32
H3 = bytes([0x33]) * 32


class TestMerkleRoot:
    def test_single_leaf_is_root(self):
        assert merkle_root([H1]) == H1

    def test_two_leaves_golden(self):
        assert merkle_root([H1, H2]).hex() == MERKLE_TWO_GOLDEN
        assert MERKLE_TWO_GOLDEN == hashlib.sha256(H1 + H2).hexdigest()

    def test_swap_changes_root(self):
        assert merkle_root([H2, H1]).hex() == MERKLE_TWO_SWAPPED
        assert merkle_root([H1, H2]) != merkle_root([H2, H1])

    def test_empty_list_hashes_empty_string(self):
        assert merkle_root([]).hex() == MERKLE_EMPTY
        assert MERKLE_EMPTY == hashlib.sha256(b"").hexdigest()

    def test_odd_count_duplicates_last(self):
        # independent recomputation layer by layer
        left = hashlib.sha256(H1 + H2).digest()
        right = hashlib.sha256(H3 + H3).digest()
        assert merkle_root([H1, H2, H3]) == hashlib.sha256(left + right).digest()

    @settings(max_examples=30)
    @given(st.lists(st.binary(min_size=32, max_size=32), min_size=2, max_size=8, unique=True), st.randoms())
    def test_non_identity_permutation_changes_root(self, leaves, rng):
        shuffled = list(leaves)
        rng.shuffle(shuffled)
        if shuffled == leaves:
            return
        assert merkle_root(shuffled) != merkle_root(leaves)


class TestTransaction:
    def test_signature_verifies_and_hash_stable(self, sensor, bms, chain):
        tx = build_and_sign_tx(sensor, bms.address, 30, nonce=0)
        verify_tx(tx, chain.state, trust_seal=False)
        assert tx.canonical() == tx.canonical()
        rebuilt = build_and_sign_tx(sensor, bms.address, 30, nonce=0)
        assert rebuilt.tx_hash == tx.tx_hash

    def test_defaults(self, sensor, bms):
        tx = build_and_sign_tx(sensor, bms.address, 1, nonce=0)
        assert tx.gas_limit == 100_000
        assert tx.gas_price == 0

    def test_temperature_value_rides_as_amount(self, sensor, bms):
        tx = build_and_sign_tx(sensor, bms.address, 22_900_000_000_000_000_000, nonce=0)
        assert tx.value == 22_900_000_000_000_000_000

    def test_different_nonce_different_hash(self, sensor, bms):
        a = build_and_sign_tx(sensor, bms.address, 5, nonce=0)
        b = build_and_sign_tx(sensor, bms.address, 5, nonce=1)
        assert a.tx_hash != b.tx_hash

    def test_flipped_signature_rejected(self, sensor, bms, chain):
        tx = build_and_sign_tx(sensor, bms.address, 30, nonce=0)
        for position in (0, 40, len(tx.signature) - 1):
            sig = bytearray(tx.signature)
            sig[position] ^= 0x01
            tampered = replace(tx, signature=bytes(sig))
            with pytest.raises(BadSignature):
                verify_tx(tampered, chain.state, trust_seal=False)

    def test_sender_must_match_embedded_key(self, sensor, bms, chain):
        tx = build_and_sign_tx(sensor, bms.address, 30, nonce=0)
        imposter = replace(tx, sender=seeded_key(9).address)
        with pytest.raises(BadSignature):
            verify_tx(imposter, chain.state, trust_seal=False)

    def test_trusted_seal_skips_only_the_ed25519_check(self, sensor, bms, chain):
        tx = build_and_sign_tx(sensor, bms.address, 30, nonce=0)
        forged = replace(tx, signature=tx.signature[:-1] + bytes([tx.signature[-1] ^ 1]))
        verify_tx(forged, chain.state, trust_seal=True)
        rejected = [
            (replace(tx, signature=tx.signature[:-1]), chain.state, BadSignature),
            (replace(tx, signature=tx.signature + b"\x00"), chain.state, BadSignature),
            (replace(forged, sender=seeded_key(9).address), chain.state, BadSignature),
            (replace(forged, nonce=1), chain.state, NonceMismatch),
            (forged, _state({sensor.address: Account(sensor.address, balance=29)}), InsufficientBalance),
        ]
        for bad, state, error in rejected:
            with pytest.raises(error):
                verify_tx(bad, state, trust_seal=True)

    def test_round_trip_encoding(self, sensor, bms):
        tx = signed_tx(sensor, bms.address, 12345, 7, gas_limit=50_000, gas_price=2)
        assert Transaction.decode(tx.canonical()) == tx


def _state(accounts: dict[str, Account]) -> ChainState:
    return ChainState(accounts=accounts, head_hash=b"\x00" * 32, head_height=0, authority=b"")


class TestVerifyAndApply:
    def test_sufficient_balance_ok(self, bms):
        key = seeded_key(21)
        state = _state({key.address: Account(key.address, balance=100)})
        tx = build_and_sign_tx(key, bms.address, 30, nonce=0)
        verify_tx(tx, state, trust_seal=False)

    def test_insufficient_balance(self, bms):
        key = seeded_key(21)
        state = _state({key.address: Account(key.address, balance=20)})
        tx = build_and_sign_tx(key, bms.address, 30, nonce=0)
        with pytest.raises(InsufficientBalance):
            verify_tx(tx, state, trust_seal=False)

    def test_replayed_nonce(self, bms):
        key = seeded_key(21)
        accounts = {key.address: Account(key.address, balance=100)}
        tx = build_and_sign_tx(key, bms.address, 30, nonce=0)
        apply_tx(tx, accounts, sealer=bms.address)
        state = _state(accounts)
        with pytest.raises(NonceMismatch):
            verify_tx(tx, state, trust_seal=False)

    def test_simple_transfer(self, bms):
        key = seeded_key(21)
        accounts = {key.address: Account(key.address, balance=100)}
        apply_tx(build_and_sign_tx(key, bms.address, 30, nonce=0), accounts, sealer=seeded_key(22).address)
        state = _state(accounts)
        assert state.account(key.address).balance == 70
        assert state.account(bms.address).balance == 30
        assert state.account(key.address).nonce == 1

    def test_zero_transfer_still_bumps_nonce(self, bms):
        key = seeded_key(21)
        accounts = {key.address: Account(key.address, balance=100)}
        apply_tx(build_and_sign_tx(key, bms.address, 0, nonce=0), accounts, sealer=bms.address)
        state = _state(accounts)
        assert state.account(key.address).balance == 100
        assert state.account(bms.address).balance == 0
        assert state.account(key.address).nonce == 1

    def test_fee_goes_to_sealer_and_total_conserved(self, bms):
        key = seeded_key(21)
        sealer = seeded_key(22)
        state = _state({key.address: Account(key.address, balance=100)})
        tx = signed_tx(key, bms.address, 30, 0, gas_limit=5, gas_price=1)
        assert tx.fee == 5
        accounts = dict(state.accounts)
        apply_tx(tx, accounts, sealer=sealer.address)
        new = _state(accounts)
        assert new.account(key.address).balance == 100 - 30 - 5
        assert new.account(bms.address).balance == 30
        assert new.account(sealer.address).balance == 5
        assert supply(new) == supply(state)


class TestSealBlock:
    def test_block_of_24(self, chain, sensor, bms, sealer):
        txs = [
            build_and_sign_tx(sensor, bms.address, 22_600_000_000_000_000_000 + i, nonce=i)
            for i in range(24)
        ]
        block, state = seal_block(txs, chain.state, sealer, timestamp=1000)
        assert len(block.transactions) == 24
        assert block.height == 1
        assert block.prev_hash == chain.head.block_hash
        assert state.account(sensor.address).nonce == 24
        assert block.merkle_root == merkle_root([tx.tx_hash for tx in txs])

    def test_empty_block(self, chain, sealer):
        block, state = seal_block([], chain.state, sealer, timestamp=1000)
        assert block.transactions == ()
        assert state.head_height == 1
        assert {a: acct.balance for a, acct in state.accounts.items()} == {
            a: acct.balance for a, acct in chain.state.accounts.items()
        }

    def test_bad_nonce_aborts_whole_seal(self, chain, sensor, bms, sealer):
        txs = [build_and_sign_tx(sensor, bms.address, 1, nonce=i) for i in range(5)]
        txs[3] = build_and_sign_tx(sensor, bms.address, 1, nonce=99)
        before = chain.state
        with pytest.raises(SealRejected) as excinfo:
            seal_block(txs, before, sealer, timestamp=1000)
        assert excinfo.value.index == 3
        assert isinstance(excinfo.value.cause, NonceMismatch)
        assert before.account(sensor.address).nonce == 0


class TestStateIsNotShared:
    """Replay works on one copy of the account map; no earlier state sees it change."""

    def test_seal_leaves_earlier_state_unchanged(self, chain, sensor, bms, sealer):
        before = chain.state
        digest = before.accounts_digest()
        chain.seal([build_and_sign_tx(sensor, bms.address, 5, nonce=i) for i in range(3)], sealer)
        assert chain.state.account(sensor.address).nonce == 3
        assert before.accounts_digest() == digest
        assert before.account(sensor.address).nonce == 0
        assert bms.address not in before.accounts

    def test_rejected_seal_after_applied_tx_leaves_state_unchanged(self, chain, sensor, bms, sealer):
        before = chain.state
        digest = before.accounts_digest()
        txs = [build_and_sign_tx(sensor, bms.address, 5, nonce=0), build_and_sign_tx(sensor, bms.address, 5, nonce=7)]
        with pytest.raises(SealRejected) as excinfo:
            chain.seal(txs, sealer)
        assert excinfo.value.index == 1
        assert chain.state is before
        assert before.accounts_digest() == digest
        assert before.account(sensor.address).nonce == 0
        assert bms.address not in before.accounts

    def test_state_after_leaves_chain_state_unchanged(self, chain, sensor, bms):
        digest = chain.state.accounts_digest()
        after = chain.state_after([build_and_sign_tx(sensor, bms.address, 5, nonce=i) for i in range(2)])
        assert after.account(sensor.address).nonce == 2
        assert chain.state.accounts_digest() == digest
        assert chain.state.account(sensor.address).nonce == 0

    def test_chain_state_accounts_are_read_only(self, chain, sensor):
        with pytest.raises(TypeError):
            chain.state.accounts[sensor.address] = Account(sensor.address, balance=1)
        with pytest.raises(TypeError):
            del chain.state.accounts[sensor.address]


class TestQuery:
    def _filled_chain(self, chain, sensor, bms, sealer):
        first = [build_and_sign_tx(sensor, bms.address, i + 1, nonce=i) for i in range(3)]
        chain.seal(first, sealer)
        second = [build_and_sign_tx(sensor, bms.address, i + 100, nonce=3 + i) for i in range(2)]
        chain.seal(second, sealer)
        return chain

    def test_filter_by_recipient_returns_rows_in_order(self, chain, sensor, bms, sealer):
        chain = self._filled_chain(chain, sensor, bms, sealer)
        rows = chain.query(None, bms.address)
        assert [tx.value for _, tx in rows] == [1, 2, 3, 100, 101]
        assert chain.query(sensor.address, bms.address) == rows

    def test_unknown_address_empty(self, chain, sensor, bms, sealer):
        chain = self._filled_chain(chain, sensor, bms, sealer)
        assert chain.query(None, seeded_key(30).address) == []

    def test_no_filter_heights_non_decreasing(self, chain, sensor, bms, sealer):
        chain = self._filled_chain(chain, sensor, bms, sealer)
        rows = chain.query(None, None)
        assert len(rows) == 5
        heights = [height for height, _ in rows]
        assert heights == sorted(heights)


class TestConservation:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_sequences_conserve_total(self, tmp_path_factory, data):
        pool = sensor_pool(4, first_seed=40)
        sealer = seeded_key(39)
        alloc = {key.address: 10**6 for key in pool}
        genesis = tuple(sorted(alloc.items()))
        chain = ledger.Chain.create(genesis, sealer, tmp_path_factory.mktemp("conservation") / "chain.jsonl")
        total = sum(alloc.values())
        n_blocks = data.draw(st.integers(0, 3))
        for _ in range(n_blocks):
            txs = []
            state = chain.state
            nonces = {key.address: state.account(key.address).nonce for key in pool}
            for _ in range(data.draw(st.integers(0, 5))):
                sender = data.draw(st.sampled_from(pool))
                recipient = data.draw(st.sampled_from(pool + (seeded_key(45),)))
                gas_price = data.draw(st.integers(0, 2))
                gas_limit = data.draw(st.integers(0, 10))
                budget = state.account(sender.address).balance
                spent = sum(t.value + t.fee for t in txs if t.sender == sender.address)
                headroom = budget - spent - gas_limit * gas_price
                if headroom < 0:
                    continue
                value = data.draw(st.integers(0, headroom))
                txs.append(signed_tx(sender, recipient.address, value, nonces[sender.address], gas_limit, gas_price))
                nonces[sender.address] += 1
            chain.seal(txs, sealer)
            assert supply(chain.state) == total
        assert verify_chain(chain.blocks, genesis).accounts_digest() == chain.state.accounts_digest()


class TestNonceMonotonicity:
    def test_applied_nonces_consecutive_from_zero(self, chain, sensor, bms, sealer):
        for height in range(1, 4):
            base = chain.state.account(sensor.address).nonce
            txs = [build_and_sign_tx(sensor, bms.address, 1, nonce=base + i) for i in range(3)]
            chain.seal(txs, sealer)
        seen = [tx.nonce for block in chain.blocks for tx in block.transactions if tx.sender == sensor.address]
        assert seen == list(range(9))


def test_canonical_encoding_stability(sensor, bms):
    tx = build_and_sign_tx(sensor, bms.address, 22_900_000_000_000_000_000, nonce=0)
    assert tx.canonical() == Transaction.decode(tx.canonical()).canonical()
    assert tx.canonical() == build_and_sign_tx(sensor, bms.address, 22_900_000_000_000_000_000, nonce=0).canonical()
