"""Operator command line.

Ties the pipeline together: key generation, chain init, CSV ingestion,
sealing, verification, the explorer table, and encrypted file exchange
between two machines. State lives under one data directory (flag
``--data-dir`` or env ``THERMOLEDGER_DATA_DIR``):

    chain.jsonl    append-only chain, one canonical-JSON block per line
    genesis.json   address -> decimal balance allocation
    pending.jsonl  transactions queued by ``ingest --no-seal``
    write.lock     held by ``init``, ``ingest`` and ``seal`` while they run
    objects/       content-addressed object store

Exit codes: 0 success, 1 verification or validation failure, 2 usage
error. Domain failures print one line ``<Category>: <detail>`` on stderr.
"""

from __future__ import annotations

import csv as csv_mod
import io
import re
import sys
from contextlib import AbstractContextManager
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import click

from . import dagstore, envelope, exchange, ledger, telemetry
from .canonical import append_records, parse_bare_hex64, read_records, replace_file, write_lock
from .errors import Error, InvalidKey
from .keys import SigningKey, public_key_path, require_address, unpaired_key

DEFAULT_PORT = 9464
_KEY_PAIRS = {key_pair.kind: key_pair for key_pair in (SigningKey, envelope.Identity)}


@dataclass
class Config:
    data_dir: Path
    sealer_key_path: Path
    offset_c: Decimal

    @property
    def chain_path(self) -> Path:
        return self.data_dir / "chain.jsonl"

    @property
    def genesis_path(self) -> Path:
        return self.data_dir / "genesis.json"

    @property
    def pending_path(self) -> Path:
        return self.data_dir / "pending.jsonl"

    @property
    def objects_dir(self) -> Path:
        return self.data_dir / "objects"

    def lock(self) -> AbstractContextManager[None]:
        """The site's one-writer lock, which init, ingest and seal take before they read the chain."""
        self.data_dir.mkdir(parents=True, exist_ok=True)
        return write_lock(self.data_dir / "write.lock")

    def open_chain(self, audit: bool) -> ledger.Chain:
        if not self.chain_path.exists():
            raise click.UsageError(f"no chain at {self.chain_path}; run init first")
        if not self.genesis_path.exists():
            raise click.UsageError(f"missing genesis config {self.genesis_path}")
        # pinned to the sealer's public half (mode 0644), so reads never need the private key
        public_path = public_key_path(self.sealer_key_path)
        if public_path.exists():
            authority = SigningKey.load_public(public_path)
        elif self.sealer_key_path.exists():  # a keygen cut off before writing the .pub
            raise InvalidKey(
                f"sealer key {self.sealer_key_path} has no {public_path.name} to pin reads to; "
                f"write it with: keygen --out {self.sealer_key_path}"
            )
        else:
            authority = None
        return ledger.Chain.open(self.chain_path, ledger.load_genesis_config(self.genesis_path), authority, audit)


class _Main(click.Group):
    """The one error boundary: a domain error in any command exits 1 with one
    parsable ``<Category>: <detail>`` line on stderr."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Error as exc:
            click.echo(f"{type(exc).__name__}: {exc}", err=True)
            sys.exit(1)


def _checked(parse):
    """A click callback that hands a given value to ``parse``: a ValueError is
    a usage error naming the option, and an unset option stays None."""

    def callback(ctx, param, value):
        try:
            return None if value is None else parse(value)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from None

    return callback


def _offset(text: str) -> Decimal:
    return telemetry.require_offset(telemetry.parse_temperature(text))


def _creatable(path: Path) -> Path:
    """Refuse a path below a file; the option's type refuses a wrong kind of file at the path itself."""
    if not next((parent for parent in path.parents if parent.exists()), path).is_dir():  # "/" and "." have no parents
        raise ValueError(f"{path} lies below a file, not a directory")
    return path


def _peer(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not re.fullmatch(r"[0-9]{1,5}", port) or int(port) > 65535:
        raise ValueError(f"peer must be host:port with a port in 0-65535, got {text!r}")
    return host, int(port)


@click.group(cls=_Main)
@click.option(
    "--data-dir",
    envvar="THERMOLEDGER_DATA_DIR",
    default="./thermoledger-data",
    show_default=True,
    type=click.Path(file_okay=False, path_type=Path),
    callback=_checked(_creatable),
    help="Directory holding the chain, keys, and object store.",
)
@click.option("--sealer-key", type=click.Path(path_type=Path), default=None, help="Sealer key file [default: DATA_DIR/sealer.key].")
@click.option("--offset-c", default="0", show_default=True, callback=_checked(_offset), help="Non-negative temperature (at most 3 decimals) added to readings before encoding.")
@click.pass_context
def main(ctx, data_dir: Path, sealer_key: Path | None, offset_c: Decimal):
    """Private temperature ledger and encrypted record-file exchange."""
    ctx.obj = Config(
        data_dir=data_dir,
        sealer_key_path=sealer_key if sealer_key is not None else data_dir / "sealer.key",
        offset_c=offset_c,
    )


@main.command()
@click.option("--kind", type=click.Choice(list(_KEY_PAIRS)), default=SigningKey.kind, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False, path_type=Path), callback=_checked(_creatable), help="Private key path; the public half goes to OUT.pub.")
def keygen(kind: str, out: Path):
    """Generate a keypair; print the address or fingerprint."""
    key_pair = _KEY_PAIRS[kind]
    out.parent.mkdir(parents=True, exist_ok=True)
    private = unpaired_key(out, kind)  # a cut-off keygen's key: saving it again writes OUT.pub
    key = key_pair.generate() if private is None else key_pair.from_private_bytes(private)
    key.save(out)
    click.echo(key.address if isinstance(key, SigningKey) else key.fingerprint)


@main.command()
@click.option("--genesis", "genesis_file", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.pass_obj
def init(config: Config, genesis_file: Path):
    """Create a new chain from a genesis allocation file."""
    with config.lock():
        if config.chain_path.exists() and ledger.load_chain(config.chain_path):
            raise click.ClickException(f"chain already exists at {config.chain_path}")
        if not config.sealer_key_path.exists():
            raise click.UsageError(
                f"sealer key not found at {config.sealer_key_path}; create one with: keygen --out {config.sealer_key_path}"
            )
        alloc = ledger.load_genesis_config(genesis_file)
        sealer = SigningKey.load(config.sealer_key_path)
        replace_file(config.genesis_path, genesis_file.read_bytes(), 0o666)
        chain = ledger.Chain.create(alloc, sealer, config.chain_path)
    click.echo(f"genesis {chain.head.block_hash.hex()} sealer {sealer.address}")


@main.command()
@click.option("--csv", "csv_file", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--to", "receiver", required=True, callback=_checked(require_address), help="Receiver (management system) address.")
@click.option("--rotate-every", type=int, default=None, callback=_checked(telemetry.require_rotate_every), help="Switch sender address after this many transactions.")
@click.option("--sender-key", "sender_keys", multiple=True, required=True, type=click.Path(path_type=Path), help="Sender key file; repeat to build the rotation pool in order.")
@click.option("--no-seal", is_flag=True, help="Queue transactions in pending.jsonl instead of sealing a block.")
@click.pass_obj
def ingest(config: Config, csv_file: Path, receiver: str, rotate_every: int | None, sender_keys: tuple[Path, ...], no_seal: bool):
    """Ingest a temperature CSV: queue it, then seal the whole queue as one block."""
    pool = tuple(SigningKey.load(path) for path in sender_keys)
    try:
        rotation = telemetry.RotationPolicy("never" if rotate_every is None else rotate_every, pool)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    with config.lock():
        chain = config.open_chain(audit=False)
        readings = telemetry.ingest_csv(csv_file)
        queued = _queued(config, chain)
        txs = telemetry.pump(
            readings,
            rotation,
            receiver,
            chain.state_after(queued),  # nonces continue after the queue
            offset_c=config.offset_c,
        )
        if no_seal:
            append_records(config.pending_path, [tx.canonical() for tx in txs], ledger.Transaction.decode)
            click.echo(f"queued {len(txs)} transactions in {config.pending_path}")
            return
        _seal(config, chain, queued + txs)


@main.command()
@click.pass_obj
def seal(config: Config):
    """Seal queued pending transactions (an empty queue seals an empty block)."""
    with config.lock():
        chain = config.open_chain(audit=False)
        _seal(config, chain, _queued(config, chain))


def _seal(config: Config, chain: ledger.Chain, txs: list[ledger.Transaction]) -> None:
    """Seal txs, which start with the whole queue, as the next block; then empty the queue."""
    block = chain.seal(txs, SigningKey.load(config.sealer_key_path))
    if config.pending_path.exists():
        replace_file(config.pending_path, b"", 0o666)
    click.echo(f"sealed block {block.height} with {len(txs)} transactions")


def _queued(config: Config, chain: ledger.Chain) -> list[ledger.Transaction]:
    """The queue less what the head block holds: a seal cut off before its reset left those."""
    path = config.pending_path
    if not path.exists():
        return []
    pending = read_records(path, ledger.Transaction.decode, lambda message: click.ClickException(f"{path} {message}"))
    sealed = {tx.tx_hash for tx in chain.head.transactions}
    return [tx for tx in pending if tx.tx_hash not in sealed]


@main.command()
@click.pass_obj
def verify(config: Config):
    """Replay and verify the whole chain, every signature included; exit 0 if sound."""
    chain = config.open_chain(audit=True)
    click.echo(f"ok: {len(chain.blocks)} blocks, head {chain.head.block_hash.hex()}")


@main.command()
@click.option("--to", "receiver", default=None, callback=_checked(require_address), help="Only transactions to this address.")
@click.option("--from", "sender", default=None, callback=_checked(require_address), help="Only transactions from this address.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "csv"]), default="tsv", show_default=True)
@click.option("--raw", is_flag=True, help="Print raw integer values instead of decoded temperatures.")
@click.pass_obj
def explorer(config: Config, receiver: str | None, sender: str | None, fmt: str, raw: bool):
    """Print the transaction table: Tx Hash, Block, From, To, Value."""
    chain = config.open_chain(audit=False)
    rows = chain.query(sender, receiver)
    out = io.StringIO()
    writer = csv_mod.writer(out, delimiter="\t" if fmt == "tsv" else ",", lineterminator="\n")
    writer.writerow(["Tx Hash", "Block", "From", "To", "Value"])
    for height, tx in rows:
        if raw:
            value = str(tx.value)
        else:
            value = telemetry.format_temperature(telemetry.decode_value(tx.value, config.offset_c))
        writer.writerow(["0x" + tx.tx_hash.hex(), str(height), tx.sender, tx.recipient, value])
    click.echo(out.getvalue(), nl=False)


@main.command()
@click.argument("address", callback=_checked(require_address))
@click.pass_obj
def balance(config: Config, address: str):
    """Print an account's balance in base units."""
    chain = config.open_chain(audit=False)
    click.echo(str(chain.state.account(address).balance))


@main.group()
def file():
    """Publish and fetch encrypted record files by root hash."""


@file.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--recipient", required=True, type=click.Path(path_type=Path), help="Recipient's encryption .pub file.")
@click.pass_obj
def publish(config: Config, in_path: Path, recipient: Path):
    """Encrypt a file for one recipient and store it; print the root hash."""
    size, cap = in_path.stat().st_size, envelope.max_plaintext(dagstore.MAX_FILE_SIZE)
    if size > cap:  # refused before the file is read, encrypted and encoded
        raise dagstore.FileTooLarge(f"{in_path} is {size} bytes; the largest publishable file is {cap} bytes")
    store = dagstore.ObjectStore(config.objects_dir)
    sealed = envelope.encrypt_for(envelope.Identity.load_public(recipient), in_path.read_bytes())
    root = dagstore.add_file(store, sealed)
    click.echo(root)


@file.command()
@click.option("--root", required=True, callback=_checked(parse_bare_hex64))
@click.option("--from", "peer", required=True, callback=_checked(_peer), help="Peer to fetch from, host:port.")
@click.option("--identity", "identity_path", required=True, type=click.Path(path_type=Path), help="Recipient's private encryption key file.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False, path_type=Path), callback=_checked(_creatable))
@click.pass_obj
def fetch(config: Config, root: str, peer: tuple[str, int], identity_path: Path, out_path: Path):
    """Fetch a published file by root hash, verify, decrypt, and write it."""
    identity = envelope.Identity.load(identity_path)  # refused before the peer is contacted
    store = dagstore.ObjectStore(config.objects_dir)
    transferred, nodes = exchange.fetch_dag(peer, root, store)
    sealed = dagstore.cat_file(nodes, root)
    del nodes  # the leaves now live on in sealed; do not hold them twice while decrypting
    plaintext = envelope.decrypt(sealed, identity)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(plaintext)
    click.echo(f"fetched {transferred} nodes, wrote {len(plaintext)} bytes to {out_path}")


@main.command()
@click.option("--port", envvar="THERMOLEDGER_PORT", type=click.IntRange(0, 65535), default=DEFAULT_PORT, show_default=True, help="Listen port.")
@click.option("--host", default="0.0.0.0", show_default=True)
@click.pass_obj
def serve(config: Config, port: int, host: str):
    """Serve the local object store to peers until interrupted."""
    store = dagstore.ObjectStore(config.objects_dir)
    try:
        server = exchange.PeerServer(store, (host, port))
    except OSError as exc:
        click.echo(f"BindFailure: {exc}", err=True)
        sys.exit(1)
    click.echo(f"serving {config.objects_dir} on {server.endpoint[0]}:{server.endpoint[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
