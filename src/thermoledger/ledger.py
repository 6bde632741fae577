"""Account-balance ledger with authority-sealed blocks.

Sensor readings travel the chain as plain value transfers from sensor
wallets to a building-management account. One configured authority key
seals blocks (a private deployment has exactly one operator), so the
chain is linear: no mining, no forks. Verification replays every block
from the genesis allocation and checks hashes, links, Merkle roots,
seals, and per-transaction signatures, nonces, and balances; that audit,
``verify_chain``, trusts only genesis. A ``Chain.open`` pinned to the
authority key lets its seal vouch for the Ed25519 signatures under it (the
seal signs their Merkle root, and the writer checked each before sealing),
so forging a read takes the sealer's private key; unpinned reads check all.
A checkpoint file would instead trust whoever can write the data directory.
The writer runs that same per-block check, the stored-hash check included,
on every block it seals before returning it, and genesis is simply the
height-0 seal of an empty list.
Replay applies a block's transactions in place to one copy of the account
map and hands that copy out read-only, so a seal is linear in transactions.

Because Ed25519 has no public-key recovery, signature fields carry the
32-byte public key followed by the 64-byte detached signature; verifiers
re-derive the address from the embedded key and reject on mismatch.

A pending.jsonl line is one transaction and a chain.jsonl line one block,
the canonical JSON of the record (``canonical``), which needs no escape and
so has one spelling. This module writes and matches it directly:

    {"from":"<address>","gas_limit":"<uint>","gas_price":"<uint>","nonce":"<uint>","signature":"0x<hex>","to":"<address>","value":"<uint>"}
    {"block_hash":"0x<64 hex>","height":"<uint>","merkle_root":"0x<64 hex>","prev_hash":"0x<64 hex>","sealer_signature":"0x<hex>","timestamp":"<uint>","transactions":[<tx>,<tx>,...]}

Hex is lowercase of any even length (a short signature fails at its height).
The sender signs its line less the signature field and tx_hash is the SHA-256
of the line; the sealer signs {"height":…,"merkle_root":…,"prev_hash":…,
"timestamp":…}, and block_hash is the SHA-256 of that header with its
"sealer_signature" before "timestamp". Any other spelling is refused.

The two decoders and ``build_and_sign_tx`` (the one builder) make every
record the ledger accepts and are the one check of its fields: an address
matches ``keys.ADDRESS_PATTERN``; value, nonce and height are capped.
``Transaction`` and ``Block`` check nothing, so one built by hand is unchecked
until ``seal_block`` decodes the line it would write, before signing it.
"""

from __future__ import annotations

import json
import re
import threading
import time
from binascii import hexlify, unhexlify
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .canonical import (
    append_records,
    canonical_json,
    create_file,
    parse_object,
    parse_uint,
    read_records,
    replace_file,
    sha256,
    uint_to_str,
)
from .errors import Error
from .keys import (
    ADDRESS_PATTERN,
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

# The module docstring's layouts. The %s before "to" and "timestamp" is the
# signature field, or nothing in the payload that signature signs.
_TX = b'{"from":"%s","gas_limit":"%d","gas_price":"%d","nonce":"%d"%s,"to":"%s","value":"%d"}'
_HEADER = b'{"height":"%d","merkle_root":"0x%s","prev_hash":"0x%s"%s,"timestamp":"%d"}'
_BLOCK = b'{"block_hash":"0x%s","height":"%d","merkle_root":"0x%s","prev_hash":"0x%s","sealer_signature":"0x%s","timestamp":"%d","transactions":[%s]}'
_UINT, _HASH, _HEX = rb"(0|[1-9][0-9]*)", rb"0x([0-9a-f]{64})", rb"0x([0-9a-f]*)"  # an odd-length _HEX fails unhexlify
_ADDRESS = b"(%s)" % ADDRESS_PATTERN.encode()
_TX_LINE = rb'\{"from":"%s","gas_limit":"%s","gas_price":"%s","nonce":"%s","signature":"%s","to":"%s","value":"%s"\}' % (
    _ADDRESS, _UINT, _UINT, _UINT, _HEX, _ADDRESS, _UINT)
_TX_RE = re.compile(_TX_LINE)
_BLOCK_TX_RE = re.compile(_TX_LINE + rb"(?=,\{|\]\}\Z)")  # followed by the next transaction or the line's end
_BLOCK_HEAD_RE = re.compile(rb'\{"block_hash":"%s","height":"%s","merkle_root":"%s","prev_hash":"%s","sealer_signature":"%s","timestamp":"%s","transactions":\[' % (
    _HASH, _UINT, _HASH, _HASH, _HEX, _UINT))
_NOT_CANONICAL = "record bytes are not in canonical form"


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
    gas_limit: int
    gas_price: int
    signature: bytes

    @property
    def fee(self) -> int:
        return self.gas_limit * self.gas_price

    def _encode(self, signature_field: bytes) -> bytes:
        return _TX % (self.sender.encode(), self.gas_limit, self.gas_price, self.nonce, signature_field, self.recipient.encode(), self.value)

    def signing_payload(self) -> bytes:
        """The line without its signature field: what the sender signs."""
        return self._encode(b"")

    def canonical(self) -> bytes:
        """The transaction line, as a block and the queue store it."""
        return self._encode(b',"signature":"0x%s"' % hexlify(self.signature))

    @cached_property
    def tx_hash(self) -> bytes:
        return sha256(self.canonical())

    @classmethod
    def decode(cls, line: bytes) -> "Transaction":
        """The transaction a queue line holds; ValueError unless the line is its one encoding."""
        if (match := _TX_RE.fullmatch(line)) is None:
            raise ValueError(_NOT_CANONICAL)
        return _matched_tx(match)


def _require_uint(value: int, cap: int, name: str) -> int:
    """The integer rule of a value, nonce or height: from 0 to cap (MAX_VALUE or MAX_NONCE); ValueError otherwise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer")
    if value > cap:
        raise ValueError(f"{name} exceeds 2**{cap.bit_length()} - 1")
    return value


def _matched_tx(match: re.Match) -> Transaction:
    sender, gas_limit, gas_price, nonce, signature, recipient, value = match.groups()
    tx = Transaction(sender.decode(), recipient.decode(), _require_uint(int(value), MAX_VALUE, "transaction value"),
                     _require_uint(int(nonce), MAX_NONCE, "transaction nonce"), int(gas_limit), int(gas_price), unhexlify(signature))
    vars(tx)["tx_hash"] = sha256(match[0])  # the cached property: the bytes matched are the line it would encode
    return tx


@dataclass(frozen=True)
class Block:
    """An authority-sealed batch of transactions.

    ``block_hash`` is the hash as stored: read from the chain line, or set by
    ``seal_block`` once it signs; ``header_hash`` says what it must be.
    """

    height: int
    prev_hash: bytes
    merkle_root: bytes
    timestamp: int
    transactions: tuple[Transaction, ...]
    sealer_signature: bytes
    block_hash: bytes

    def _header(self, sealer_field: bytes) -> bytes:
        return _HEADER % (self.height, hexlify(self.merkle_root), hexlify(self.prev_hash), sealer_field, self.timestamp)

    def seal_payload(self) -> bytes:
        """The header without its seal: what the sealer signs."""
        return self._header(b"")

    def header_hash(self) -> bytes:
        """The block_hash this header must be stored with."""
        return sha256(self._header(b',"sealer_signature":"0x%s"' % hexlify(self.sealer_signature)))

    def canonical(self) -> bytes:
        """The chain line."""
        return _BLOCK % (hexlify(self.block_hash), self.height, hexlify(self.merkle_root), hexlify(self.prev_hash),
                         hexlify(self.sealer_signature), self.timestamp, b",".join(tx.canonical() for tx in self.transactions))

    @classmethod
    def decode(cls, line: bytes) -> "Block":
        """The block a chain line holds; ValueError unless the line is its one encoding."""
        head = _BLOCK_HEAD_RE.match(line)
        if head is None or not line.endswith(b"]}"):
            raise ValueError(_NOT_CANONICAL)
        transactions, pos, end = [], head.end(), len(line) - 2
        while pos < end:
            if (match := _BLOCK_TX_RE.match(line, pos)) is None:
                raise ValueError(_NOT_CANONICAL)
            transactions.append(_matched_tx(match))
            pos = match.end() + 1  # past its "," (or its "]", ending the loop)
        block_hash, height, merkle_root, prev_hash, sealer_signature, timestamp = head.groups()
        return cls(_require_uint(int(height), MAX_NONCE, "block height"), unhexlify(prev_hash), unhexlify(merkle_root), int(timestamp), tuple(transactions),
                   unhexlify(sealer_signature), unhexlify(block_hash))


@dataclass(frozen=True)
class ChainState:
    """Derived account map at a chain head; replay hands ``accounts`` out read-only."""

    accounts: Mapping[str, Account]
    head_hash: bytes
    head_height: int
    authority: bytes  # public key that sealed genesis; it seals every block and earns the fees

    def account(self, address: str) -> Account:
        return self.accounts.get(address) or Account(address)

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


def _check_signature(signature: bytes, payload: bytes | None, error: type[Error]) -> bytes:
    """Verify a pubkey || signature field over payload (None: its length only); returns the pubkey."""
    if len(signature) != _SEALED_SIG_SIZE:
        raise error(f"signature must be {_SEALED_SIG_SIZE} bytes, got {len(signature)}")
    public_key = signature[:PUBLIC_KEY_SIZE]
    if payload is not None and not verify_signature(public_key, signature[PUBLIC_KEY_SIZE:], payload):
        raise error("signature does not verify over the canonical payload")
    return public_key


def build_and_sign_tx(sender_key: SigningKey, to: str, value: int, nonce: int) -> Transaction:
    """Build a fee-free transaction and sign it; ValueError, before signing, on a bad recipient, value or nonce."""
    value, nonce = _require_uint(value, MAX_VALUE, "transaction value"), _require_uint(nonce, MAX_NONCE, "transaction nonce")
    unsigned = Transaction(sender_key.address, require_address(to), value, nonce, DEFAULT_GAS_LIMIT, DEFAULT_GAS_PRICE, b"")
    return replace(unsigned, signature=_attach_signature(sender_key, unsigned.signing_payload()))


def verify_tx(tx: Transaction, state: ChainState, trust_seal: bool) -> None:
    """Raise BadSignature, NonceMismatch, or InsufficientBalance; trust_seal skips only the Ed25519 check."""
    public_key = _check_signature(tx.signature, None if trust_seal else tx.signing_payload(), BadSignature)
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


def _replay(transactions: Sequence[Transaction], state: ChainState, trust_seal: bool) -> ChainState:
    """Verify (see verify_tx) and apply transactions in order on one copy of the map; SealRejected on the first failure."""
    sealer = derive_address(state.authority)
    accounts = state.accounts.copy()  # a mappingproxy copies at dict speed only through copy(), not dict()
    working = replace(state, accounts=accounts)
    for index, tx in enumerate(transactions):
        try:
            verify_tx(tx, working, trust_seal)
            apply_tx(tx, accounts, sealer)
        except Error as exc:
            raise SealRejected(index, exc) from exc
    return replace(state, accounts=MappingProxyType(accounts))


def _accept(block: Block, state: ChainState, trust_seal: bool) -> ChainState:
    """The one block check: link, stored hash, Merkle root, seal, then replay (see verify_tx)."""
    if block.height != state.head_height + 1:
        raise BrokenLink(f"height {block.height} does not follow {state.head_height}")
    if block.prev_hash != state.head_hash:
        raise BrokenLink("prev_hash does not match parent block hash")
    if block.block_hash != block.header_hash():
        raise BlockHashMismatch("stored block hash does not match recomputed hash")
    if merkle_root([tx.tx_hash for tx in block.transactions]) != block.merkle_root:
        raise MerkleRootMismatch("transaction list does not produce the stored root")
    if _check_signature(block.sealer_signature, block.seal_payload(), BadSealerSignature) != state.authority:
        raise BadSealerSignature("sealed by a key other than the chain authority")
    state = _replay(block.transactions, state, trust_seal)
    return replace(state, head_hash=block.block_hash, head_height=block.height)


def seal_block(
    pending: Sequence[Transaction],
    state: ChainState,
    sealer_key: SigningKey,
    timestamp: int,
) -> tuple[Block, ChainState]:
    """Seal pending transactions into the next block, all-or-nothing.

    Each transaction is verified against the incrementally updated state in
    list order; the first failure raises SealRejected with its index and
    leaves the input state untouched. An empty list seals an empty block.
    A non-authority key is refused before signing, and so is a block whose
    chain line Block.decode would refuse (a bad address, a number below 0 or
    past its cap): the block sealed is the one its line reads back as. It is
    returned only once the verifier's own check accepts it. That line
    carries a placeholder root and hash; the Merkle root is taken from the
    decoded transactions, whose hashes are of the bytes matched, so a built
    transaction's line is hashed once, and only the signed header is hashed.
    """
    if sealer_key.public_bytes != state.authority:
        raise BadSealerSignature("sealer key is not the chain authority that sealed genesis")
    decoded = Block.decode(Block(state.head_height + 1, state.head_hash, ZERO_HASH, timestamp, tuple(pending),
                                 b"", ZERO_HASH).canonical())  # ValueError if the writer could not read it back
    unsealed = replace(decoded, merkle_root=merkle_root([tx.tx_hash for tx in decoded.transactions]))
    signed = replace(unsealed, sealer_signature=_attach_signature(sealer_key, unsealed.seal_payload()))
    block = replace(signed, block_hash=signed.header_hash())
    return block, _accept(block, state, trust_seal=False)


def verify_chain(blocks: Sequence[Block], genesis_config: Sequence[tuple[str, int]]) -> ChainState:
    """Replay a chain from genesis, checking every derived quantity and signature.

    The authority is the key that sealed the genesis block; every later
    block must be sealed by the same key. Returns the final state, or
    raises ChainVerificationError naming the offending height and cause.
    """
    return _replay_chain(blocks, genesis_config, trust_seal=False)


def _replay_chain(blocks: Sequence[Block], genesis_config: Sequence[tuple[str, int]], trust_seal: bool) -> ChainState:
    if not blocks:
        raise ChainVerificationError(0, MalformedBlock("chain has no genesis block"))
    genesis = blocks[0]
    if genesis.transactions or genesis.timestamp != GENESIS_TIMESTAMP:
        raise ChainVerificationError(0, MalformedBlock("genesis must have no transactions and timestamp 0"))
    state = _pre_genesis(genesis_config, genesis.sealer_signature[:PUBLIC_KEY_SIZE])
    for block in blocks:
        try:
            state = _accept(block, state, trust_seal)
        except SealRejected as exc:
            raise ChainVerificationError(block.height, exc.cause) from exc
        except Error as exc:
            raise ChainVerificationError(block.height, exc) from exc
    return state


def query_transactions(blocks: Iterable[Block], sender: str | None, recipient: str | None) -> list[tuple[int, Transaction]]:
    """Filter transactions by address (None: any), preserving chain order; one (height, tx) pair each."""
    rows = []
    for block in blocks:
        for tx in block.transactions:
            if sender is not None and tx.sender != sender:
                continue
            if recipient is not None and tx.recipient != recipient:
                continue
            rows.append((block.height, tx))
    return rows


# --- persistence -----------------------------------------------------------

def write_genesis_config(path: str | Path, alloc: Mapping[str, int]) -> None:
    obj = {require_address(addr): uint_to_str(bal) for addr, bal in alloc.items()}
    replace_file(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("ascii"), 0o666)


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
    append_records(path, [block.canonical()], Block.decode)


def load_chain(path: str | Path) -> list[Block]:
    """Parse a chain file strictly; any deviation raises MalformedBlock."""
    return read_records(path, Block.decode, MalformedBlock)


class Chain:
    """Handle over a chain file and its replayed state.

    A thread lock serializes this handle's seals, and each one appends to
    the chain file before swapping the in-memory state, so readers never
    observe a partially applied block. Nothing here excludes a second
    handle or process: the CLI's writers hold ``canonical.write_lock``.
    """

    def __init__(self, blocks: list[Block], state: ChainState, path: Path):
        self._blocks = blocks
        self._state = state
        self._path = path
        self._write_lock = threading.Lock()

    @classmethod
    def create(cls, genesis_config: Sequence[tuple[str, int]], sealer_key: SigningKey, path: str | Path) -> "Chain":
        """Seal genesis and create the chain file: kept if it holds just this genesis, written
        after a torn line if it holds no block (a create cut short), else Error."""
        pre_genesis = _pre_genesis(genesis_config, sealer_key.public_bytes)
        genesis, state = seal_block([], pre_genesis, sealer_key, GENESIS_TIMESTAMP)
        try:
            create_file(path, genesis.canonical() + b"\n", 0o666)
        except FileExistsError:
            if load_chain(path):
                raise Error(f"chain already exists at {path}") from None
            append_block(path, genesis)  # which cuts the torn line off first
        return cls([genesis], state, Path(path))

    @classmethod
    def open(cls, path: str | Path, genesis_config: Sequence[tuple[str, int]], authority: bytes | None, audit: bool) -> "Chain":
        """Load and replay a chain file. A pinned authority refuses a chain whose genesis another key
        sealed; unless audit, its seals then stand in for the transactions' Ed25519 checks. An audit
        or an unpinned open is verify_chain."""
        blocks = load_chain(path)
        if authority is not None and blocks and blocks[0].sealer_signature[:PUBLIC_KEY_SIZE] != authority:
            raise BadSealerSignature("chain was sealed by a key other than the pinned authority")
        if audit or authority is None:
            state = verify_chain(blocks, genesis_config)
        else:
            state = _replay_chain(blocks, genesis_config, trust_seal=True)
        return cls(blocks, state, Path(path))

    @property
    def state(self) -> ChainState:
        return self._state

    @property
    def head(self) -> Block:
        return self._blocks[-1]

    def state_after(self, pending: Sequence[Transaction]) -> ChainState:
        """The state once pending is sealed on the head; SealRejected if it cannot be."""
        return _replay(pending, self._state, trust_seal=False)

    def seal(self, pending: Sequence[Transaction], sealer_key: SigningKey) -> Block:
        """Seal pending into the next block, stamped with the wall clock, and append it to the chain file."""
        with self._write_lock:
            block, new_state = seal_block(pending, self._state, sealer_key, int(time.time()))
            append_block(self._path, block)
            self._blocks.append(block)
            self._state = new_state
            return block

    def query(self, sender: str | None, recipient: str | None) -> list[tuple[int, Transaction]]:
        return query_transactions(self._blocks, sender, recipient)
