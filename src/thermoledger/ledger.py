"""Account-balance ledger with authority-sealed blocks.

Sensor readings travel the chain as plain value transfers from sensor
wallets to a building-management account. One configured authority key
seals blocks (a private deployment has exactly one operator), so the
chain is linear: no mining, no forks. Verification replays every block
from the genesis allocation and checks hashes, links, Merkle roots,
seals, and per-transaction signatures, nonces, and balances.
The writer runs that same per-block check on every block it seals before
returning it, and genesis is simply the height-0 seal of an empty list.
Replay applies a block's transactions in place to one copy of the account
map and hands that copy out read-only, so a seal is linear in transactions.

Because Ed25519 has no public-key recovery, signature fields carry the
32-byte public key followed by the 64-byte detached signature; verifiers
re-derive the address from the embedded key and reject on mismatch.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .canonical import (
    bytes_to_hex,
    canonical_json,
    parse_hex,
    parse_object,
    parse_uint,
    read_records,
    require_keys,
    sha256,
    uint_to_str,
)
from .errors import Error
from .keys import (
    PUBLIC_KEY_SIZE,
    SIGNATURE_SIZE,
    SigningKey,
    derive_address,
    require_address,
    verify_signature,
)

DEFAULT_GAS_LIMIT = 100_000
DEFAULT_GAS_PRICE = 0
MAX_VALUE = 2**256 - 1
MAX_NONCE = 2**64 - 1
ZERO_HASH = b"\x00" * 32
GENESIS_TIMESTAMP = 0

_SEALED_SIG_SIZE = PUBLIC_KEY_SIZE + SIGNATURE_SIZE  # pubkey || detached signature


class BadSignature(Error):
    """Signature does not verify, or does not match the sender address."""


class NonceMismatch(Error):
    """Transaction nonce is not the sender account's next nonce."""


class InsufficientBalance(Error):
    """Sender cannot cover value plus the maximum fee."""


class SealRejected(Error):
    """A pending transaction failed validation; nothing was applied."""

    def __init__(self, index: int, cause: Error):
        super().__init__(f"transaction #{index} rejected: {cause}")
        self.index = index
        self.cause = cause


class BlockHashMismatch(Error):
    """Stored block hash differs from the recomputed one."""


class BrokenLink(Error):
    """Block height or prev_hash does not continue its parent."""


class MerkleRootMismatch(Error):
    """Stored Merkle root differs from the root of the transaction list."""


class BadSealerSignature(Error):
    """Block seal is invalid or from a key other than the chain authority."""


class MalformedBlock(Error):
    """Stored block bytes do not parse as a canonical block."""


class ChainVerificationError(Error):
    """Chain replay failed; carries the offending height and the cause."""

    def __init__(self, height: int, cause: Error):
        super().__init__(f"{type(cause).__name__} at height {height}: {cause}")
        self.height = height
        self.cause = cause


@dataclass(frozen=True)
class Account:
    address: str
    balance: int = 0
    nonce: int = 0


@dataclass(frozen=True)
class Transaction:
    """A signed transfer. ``signature`` is pubkey || detached signature."""

    sender: str
    recipient: str
    value: int
    nonce: int
    gas_limit: int = DEFAULT_GAS_LIMIT
    gas_price: int = DEFAULT_GAS_PRICE
    signature: bytes = b""

    def __post_init__(self):
        require_address(self.sender)
        require_address(self.recipient)
        for name in ("value", "nonce", "gas_limit", "gas_price"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"transaction {name} must be a non-negative integer")
        if self.value > MAX_VALUE:
            raise ValueError("transaction value exceeds 2**256 - 1")
        if self.nonce > MAX_NONCE:
            raise ValueError("transaction nonce exceeds 2**64 - 1")
        if not isinstance(self.signature, bytes):
            raise ValueError("transaction signature must be bytes")

    @property
    def fee(self) -> int:
        return self.gas_limit * self.gas_price

    def _fields_obj(self) -> dict:
        return {
            "from": self.sender,
            "to": self.recipient,
            "value": uint_to_str(self.value),
            "nonce": uint_to_str(self.nonce),
            "gas_limit": uint_to_str(self.gas_limit),
            "gas_price": uint_to_str(self.gas_price),
        }

    def signing_payload(self) -> bytes:
        """Canonical encoding of everything except the signature."""
        return canonical_json(self._fields_obj())

    def to_obj(self) -> dict:
        obj = self._fields_obj()
        obj["signature"] = bytes_to_hex(self.signature)
        return obj

    def canonical(self) -> bytes:
        return canonical_json(self.to_obj())

    @cached_property
    def tx_hash(self) -> bytes:
        return sha256(self.canonical())

    @classmethod
    def from_obj(cls, obj: dict) -> "Transaction":
        require_keys(obj, {"from", "to", "value", "nonce", "gas_limit", "gas_price", "signature"}, "transaction")
        return cls(
            sender=require_address(obj["from"]),
            recipient=require_address(obj["to"]),
            value=parse_uint(obj["value"], max_value=MAX_VALUE),
            nonce=parse_uint(obj["nonce"], max_value=MAX_NONCE),
            gas_limit=parse_uint(obj["gas_limit"]),
            gas_price=parse_uint(obj["gas_price"]),
            signature=parse_hex(obj["signature"]),
        )


@dataclass(frozen=True)
class Block:
    """An authority-sealed batch of transactions.

    ``claimed_hash`` preserves the block_hash found in storage so that
    verification can detect tampering with the stored hash itself; it is
    None for freshly sealed blocks.
    """

    height: int
    prev_hash: bytes
    merkle_root: bytes
    timestamp: int
    transactions: tuple[Transaction, ...]
    sealer_signature: bytes
    claimed_hash: bytes | None = field(default=None, compare=False, repr=False)

    def _header_obj(self) -> dict:
        return {
            "height": uint_to_str(self.height),
            "prev_hash": bytes_to_hex(self.prev_hash),
            "merkle_root": bytes_to_hex(self.merkle_root),
            "timestamp": uint_to_str(self.timestamp),
        }

    def seal_payload(self) -> bytes:
        """Canonical header encoding; this is what the sealer signs."""
        return canonical_json(self._header_obj())

    @cached_property
    def block_hash(self) -> bytes:
        obj = self._header_obj()
        obj["sealer_signature"] = bytes_to_hex(self.sealer_signature)
        return sha256(canonical_json(obj))

    def to_obj(self) -> dict:
        obj = self._header_obj()
        obj["sealer_signature"] = bytes_to_hex(self.sealer_signature)
        obj["block_hash"] = bytes_to_hex(self.block_hash)
        obj["transactions"] = [tx.to_obj() for tx in self.transactions]
        return obj

    def canonical_line(self) -> bytes:
        return canonical_json(self.to_obj())

    @classmethod
    def from_obj(cls, obj: dict) -> "Block":
        require_keys(
            obj,
            {"height", "prev_hash", "merkle_root", "timestamp", "sealer_signature", "block_hash", "transactions"},
            "block",
        )
        if not isinstance(obj["transactions"], list):
            raise ValueError("block transactions must be a list")
        return cls(
            height=parse_uint(obj["height"], max_value=MAX_NONCE),
            prev_hash=parse_hex(obj["prev_hash"], length=32),
            merkle_root=parse_hex(obj["merkle_root"], length=32),
            timestamp=parse_uint(obj["timestamp"]),
            transactions=tuple(Transaction.from_obj(t) for t in obj["transactions"]),
            sealer_signature=parse_hex(obj["sealer_signature"]),
            claimed_hash=parse_hex(obj["block_hash"], length=32),
        )


@dataclass(frozen=True)
class ChainState:
    """Derived account map at a chain head; replay hands ``accounts`` out read-only."""

    accounts: Mapping[str, Account]
    head_hash: bytes
    head_height: int
    authority: bytes  # public key that sealed genesis; it seals every block and earns the fees

    def account(self, address: str) -> Account:
        return self.accounts.get(address, Account(address))

    def total_balance(self) -> int:
        return sum(acct.balance for acct in self.accounts.values())

    def accounts_digest(self) -> bytes:
        """Canonical encoding of the account map, for replay comparisons."""
        obj = {
            addr: {"balance": uint_to_str(a.balance), "nonce": uint_to_str(a.nonce)}
            for addr, a in self.accounts.items()
        }
        return canonical_json(obj)


def merkle_root(tx_hashes: Sequence[bytes]) -> bytes:
    """Binary Merkle tree over 32-byte digests.

    Pairwise SHA-256 of concatenated children; an odd layer duplicates its
    last element; a single leaf is its own root; the empty list hashes the
    empty byte string.
    """
    if not tx_hashes:
        return sha256(b"")
    level = list(tx_hashes)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [sha256(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def _attach_signature(key: SigningKey, payload: bytes) -> bytes:
    return key.public_bytes + key.sign(payload)


def _check_signature(signature: bytes, payload: bytes, error: type[Error]) -> bytes:
    """Verify a pubkey || signature field over payload; returns the pubkey."""
    if len(signature) != _SEALED_SIG_SIZE:
        raise error(f"signature must be {_SEALED_SIG_SIZE} bytes, got {len(signature)}")
    public_key = signature[:PUBLIC_KEY_SIZE]
    if not verify_signature(public_key, signature[PUBLIC_KEY_SIZE:], payload):
        raise error("signature does not verify over the canonical payload")
    return public_key


def build_and_sign_tx(
    sender_key: SigningKey,
    to: str,
    value: int,
    nonce: int,
    gas_limit: int = DEFAULT_GAS_LIMIT,
    gas_price: int = DEFAULT_GAS_PRICE,
) -> Transaction:
    """Build a transaction and sign its canonical encoding."""
    unsigned = Transaction(
        sender=sender_key.address,
        recipient=to,
        value=value,
        nonce=nonce,
        gas_limit=gas_limit,
        gas_price=gas_price,
    )
    return replace(unsigned, signature=_attach_signature(sender_key, unsigned.signing_payload()))


def verify_tx(tx: Transaction, state: ChainState) -> None:
    """Raise BadSignature, NonceMismatch, or InsufficientBalance."""
    public_key = _check_signature(tx.signature, tx.signing_payload(), BadSignature)
    if derive_address(public_key) != tx.sender:
        raise BadSignature("embedded public key does not derive the from-address")
    account = state.account(tx.sender)
    if tx.nonce != account.nonce:
        raise NonceMismatch(f"expected nonce {account.nonce}, got {tx.nonce}")
    if account.balance < tx.value + tx.fee:
        raise InsufficientBalance(
            f"balance {account.balance} < value {tx.value} + fee {tx.fee}"
        )


def apply_tx(tx: Transaction, accounts: dict[str, Account], sealer: str) -> None:
    """Apply a verified transaction to a working account map in place; the fee is credited to the sealer."""
    sender = accounts.get(tx.sender) or Account(tx.sender)
    if sender.balance < tx.value + tx.fee:
        # balances are unsigned; never wrap even if verify_tx was skipped
        raise InsufficientBalance(f"balance {sender.balance} < value {tx.value} + fee {tx.fee}")
    accounts[tx.sender] = Account(tx.sender, sender.balance - tx.value - tx.fee, sender.nonce + 1)
    recipient = accounts.get(tx.recipient) or Account(tx.recipient)
    accounts[tx.recipient] = Account(tx.recipient, recipient.balance + tx.value, recipient.nonce)
    if tx.fee:
        sealer_acct = accounts.get(sealer) or Account(sealer)
        accounts[sealer] = Account(sealer, sealer_acct.balance + tx.fee, sealer_acct.nonce)


def _pre_genesis(genesis_config: Sequence[tuple[str, int]], authority: bytes) -> ChainState:
    """The state genesis extends: the allocation, below height 0."""
    accounts = {addr: Account(addr, balance=bal) for addr, bal in genesis_config}
    return ChainState(accounts=accounts, head_hash=ZERO_HASH, head_height=-1, authority=authority)


def _replay(transactions: Sequence[Transaction], state: ChainState) -> ChainState:
    """Verify and apply transactions in order on one copy of the map; SealRejected on the first failure."""
    sealer = derive_address(state.authority)
    accounts = state.accounts.copy()  # a mappingproxy copies at dict speed only through copy(), not dict()
    working = replace(state, accounts=accounts)
    for index, tx in enumerate(transactions):
        try:
            verify_tx(tx, working)
            apply_tx(tx, accounts, sealer)
        except Error as exc:
            raise SealRejected(index, exc) from exc
    return replace(state, accounts=MappingProxyType(accounts))


def _accept(block: Block, state: ChainState) -> ChainState:
    """The one block check: link, stored hash, Merkle root, seal, then replay."""
    if block.height != state.head_height + 1:
        raise BrokenLink(f"height {block.height} does not follow {state.head_height}")
    if block.prev_hash != state.head_hash:
        raise BrokenLink("prev_hash does not match parent block hash")
    if block.claimed_hash is not None and block.claimed_hash != block.block_hash:
        raise BlockHashMismatch("stored block hash does not match recomputed hash")
    if merkle_root([tx.tx_hash for tx in block.transactions]) != block.merkle_root:
        raise MerkleRootMismatch("transaction list does not produce the stored root")
    if _check_signature(block.sealer_signature, block.seal_payload(), BadSealerSignature) != state.authority:
        raise BadSealerSignature("sealed by a key other than the chain authority")
    state = _replay(block.transactions, state)
    return replace(state, head_hash=block.block_hash, head_height=block.height)


def seal_block(
    pending: Sequence[Transaction],
    state: ChainState,
    sealer_key: SigningKey,
    timestamp: int | None = None,
) -> tuple[Block, ChainState]:
    """Seal pending transactions into the next block, all-or-nothing.

    Each transaction is verified against the incrementally updated state in
    list order; the first failure raises SealRejected with its index and
    leaves the input state untouched. An empty list seals an empty block.
    A non-authority key is refused before signing, and the block is
    returned only once the verifier's own check accepts it.
    """
    if sealer_key.public_bytes != state.authority:
        raise BadSealerSignature("sealer key is not the chain authority that sealed genesis")
    unsealed = Block(
        height=state.head_height + 1,
        prev_hash=state.head_hash,
        merkle_root=merkle_root([tx.tx_hash for tx in pending]),
        timestamp=int(time.time()) if timestamp is None else timestamp,
        transactions=tuple(pending),
        sealer_signature=b"",
    )
    block = replace(unsealed, sealer_signature=_attach_signature(sealer_key, unsealed.seal_payload()))
    return block, _accept(block, state)


def verify_chain(blocks: Sequence[Block], genesis_config: Sequence[tuple[str, int]]) -> ChainState:
    """Replay a chain from genesis, checking every derived quantity.

    The authority is the key that sealed the genesis block; every later
    block must be sealed by the same key. Returns the final state, or
    raises ChainVerificationError naming the offending height and cause.
    """
    if not blocks:
        raise ChainVerificationError(0, MalformedBlock("chain has no genesis block"))
    genesis = blocks[0]
    if genesis.transactions or genesis.timestamp != GENESIS_TIMESTAMP:
        raise ChainVerificationError(0, MalformedBlock("genesis must have no transactions and timestamp 0"))
    state = _pre_genesis(genesis_config, genesis.sealer_signature[:PUBLIC_KEY_SIZE])
    for block in blocks:
        try:
            state = _accept(block, state)
        except SealRejected as exc:
            raise ChainVerificationError(block.height, exc.cause) from exc
        except Error as exc:
            raise ChainVerificationError(block.height, exc) from exc
    return state


@dataclass(frozen=True)
class TxRow:
    """One explorer row, in chain order."""

    tx_hash: bytes
    height: int
    sender: str
    recipient: str
    value: int


def query_transactions(
    blocks: Iterable[Block],
    sender: str | None = None,
    recipient: str | None = None,
) -> list[TxRow]:
    """Filter transactions by address, preserving chain order."""
    rows = []
    for block in blocks:
        for tx in block.transactions:
            if sender is not None and tx.sender != sender:
                continue
            if recipient is not None and tx.recipient != recipient:
                continue
            rows.append(TxRow(tx.tx_hash, block.height, tx.sender, tx.recipient, tx.value))
    return rows


# --- persistence -----------------------------------------------------------

def write_genesis_config(path: str | Path, alloc: Mapping[str, int]) -> None:
    obj = {require_address(addr): uint_to_str(bal) for addr, bal in alloc.items()}
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_genesis_config(path: str | Path) -> tuple[tuple[str, int], ...]:
    """Load an address -> decimal balance string map, sorted by address."""
    try:
        obj = parse_object(Path(path).read_bytes(), None, "genesis config")
        alloc = tuple(sorted((require_address(a), parse_uint(b)) for a, b in obj.items()))
    except ValueError as exc:
        raise MalformedBlock(f"genesis config {path}: {exc}") from exc
    if sum(b for _, b in alloc) > MAX_VALUE:
        raise MalformedBlock("genesis allocations exceed 2**256 - 1 total")
    return alloc


def append_block(path: str | Path, block: Block) -> None:
    with open(path, "ab") as fp:
        fp.write(block.canonical_line() + b"\n")


def write_chain(path: str | Path, blocks: Iterable[Block]) -> None:
    with open(path, "wb") as fp:
        for block in blocks:
            fp.write(block.canonical_line() + b"\n")


def load_chain(path: str | Path) -> list[Block]:
    """Parse a chain file strictly; any deviation raises MalformedBlock."""
    return read_records(path, Block.from_obj, MalformedBlock)


class Chain:
    """Single-writer handle over an in-memory chain, optionally on disk.

    Sealing is serialized by a lock and appends to the chain file before
    swapping the in-memory state, so readers never observe a partially
    applied block.
    """

    def __init__(self, blocks: list[Block], state: ChainState, path: Path | None = None):
        self._blocks = blocks
        self._state = state
        self._path = Path(path) if path is not None else None
        self._write_lock = threading.Lock()

    @classmethod
    def create(
        cls,
        genesis_config: Sequence[tuple[str, int]],
        sealer_key: SigningKey,
        path: str | Path | None = None,
    ) -> "Chain":
        pre_genesis = _pre_genesis(genesis_config, sealer_key.public_bytes)
        genesis, state = seal_block([], pre_genesis, sealer_key, GENESIS_TIMESTAMP)
        chain = cls([genesis], state, path)
        if chain._path is not None:
            write_chain(chain._path, chain._blocks)
        return chain

    @classmethod
    def open(cls, path: str | Path, genesis_config: Sequence[tuple[str, int]]) -> "Chain":
        blocks = load_chain(path)
        state = verify_chain(blocks, genesis_config)
        return cls(blocks, state, Path(path))

    @property
    def state(self) -> ChainState:
        return self._state

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(self._blocks)

    @property
    def head(self) -> Block:
        return self._blocks[-1]

    def state_after(self, pending: Sequence[Transaction]) -> ChainState:
        """The state once pending is sealed on the head; SealRejected if it cannot be."""
        return _replay(pending, self._state)

    def seal(self, pending: Sequence[Transaction], sealer_key: SigningKey, timestamp: int | None = None) -> Block:
        with self._write_lock:
            block, new_state = seal_block(pending, self._state, sealer_key, timestamp)
            if self._path is not None:
                append_block(self._path, block)
            self._blocks.append(block)
            self._state = new_state
            return block

    def query(self, **kwargs) -> list[TxRow]:
        return query_transactions(self._blocks, **kwargs)
