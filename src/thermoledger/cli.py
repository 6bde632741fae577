"""Operator command line.

Ties the pipeline together: key generation, chain init, CSV ingestion,
sealing, verification, the explorer table, and encrypted file exchange
between two machines. State lives under one data directory (flag
``--data-dir`` or env ``THERMOLEDGER_DATA_DIR``):

    chain.jsonl    append-only chain, one canonical-JSON block per line
    genesis.json   address -> decimal balance allocation
    pending.jsonl  transactions queued by ``ingest --no-seal``
    objects/       content-addressed object store

Exit codes: 0 success, 1 verification or validation failure, 2 usage
error. Domain failures print one line ``<Category>: <detail>`` on stderr.
"""

from __future__ import annotations

import csv as csv_mod
import io
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

import click

from . import dagstore, envelope, exchange, ledger, telemetry
from .canonical import read_records
from .errors import Error
from .keys import SigningKey, load_signing_key, load_signing_public, require_address, save_signing_key

DEFAULT_PORT = 9464


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

    def open_chain(self) -> ledger.Chain:
        if not self.chain_path.exists():
            raise click.UsageError(f"no chain at {self.chain_path}; run init first")
        if not self.genesis_path.exists():
            raise click.UsageError(f"missing genesis config {self.genesis_path}")
        chain = ledger.Chain.open(self.chain_path, ledger.load_genesis_config(self.genesis_path))
        # pinned to the sealer's public half (mode 0644), so reads never need the private key
        public_path = self.sealer_key_path.with_name(self.sealer_key_path.name + ".pub")
        if public_path.exists() and load_signing_public(public_path) != chain.state.authority:
            raise ledger.BadSealerSignature(f"chain was sealed by a key other than {public_path}")
        return chain


class _Main(click.Group):
    """The one error boundary: a domain error in any command exits 1 with one
    parsable ``<Category>: <detail>`` line on stderr."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Error as exc:
            click.echo(f"{type(exc).__name__}: {exc}", err=True)
            sys.exit(1)


def _parse_offset(ctx, param, value: str) -> Decimal:
    try:
        offset = Decimal(value)
    except InvalidOperation:
        raise click.BadParameter(f"not a decimal: {value!r}")
    if offset < 0:
        raise click.BadParameter("offset must be non-negative")
    return offset


@click.group(cls=_Main)
@click.option(
    "--data-dir",
    envvar="THERMOLEDGER_DATA_DIR",
    default="./thermoledger-data",
    show_default=True,
    type=click.Path(path_type=Path),
    help="Directory holding the chain, keys, and object store.",
)
@click.option("--sealer-key", type=click.Path(path_type=Path), default=None, help="Sealer key file [default: DATA_DIR/sealer.key].")
@click.option("--offset-c", default="0", show_default=True, callback=_parse_offset, help="Decimal offset added to temperatures before encoding.")
@click.pass_context
def main(ctx, data_dir: Path, sealer_key: Path | None, offset_c: Decimal):
    """Private temperature ledger and encrypted record-file exchange."""
    ctx.obj = Config(
        data_dir=data_dir,
        sealer_key_path=sealer_key if sealer_key is not None else data_dir / "sealer.key",
        offset_c=offset_c,
    )


@main.command()
@click.option("--kind", type=click.Choice(["signing", "encryption"]), default="signing", show_default=True)
@click.option("--out", required=True, type=click.Path(path_type=Path), help="Private key path; the public half goes to OUT.pub.")
def keygen(kind: str, out: Path):
    """Generate a keypair; print the address or fingerprint."""
    out.parent.mkdir(parents=True, exist_ok=True)
    if kind == "signing":
        key = SigningKey.generate()
        save_signing_key(out, key)
        click.echo(key.address)
    else:
        identity = envelope.Identity.generate()
        envelope.save_identity(out, identity)
        click.echo(identity.fingerprint)


@main.command()
@click.option("--genesis", "genesis_file", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.pass_obj
def init(config: Config, genesis_file: Path):
    """Create a new chain from a genesis allocation file."""
    if config.chain_path.exists():
        raise click.ClickException(f"chain already exists at {config.chain_path}")
    if not config.sealer_key_path.exists():
        raise click.UsageError(
            f"sealer key not found at {config.sealer_key_path}; create one with: keygen --out {config.sealer_key_path}"
        )
    alloc = ledger.load_genesis_config(genesis_file)
    sealer = load_signing_key(config.sealer_key_path)
    config.data_dir.mkdir(parents=True, exist_ok=True)
    if not (config.genesis_path.exists() and genesis_file.samefile(config.genesis_path)):
        config.genesis_path.write_bytes(genesis_file.read_bytes())
    chain = ledger.Chain.create(alloc, sealer, config.chain_path)
    click.echo(f"genesis {chain.head.block_hash.hex()} sealer {sealer.address}")


@main.command()
@click.option("--csv", "csv_file", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--to", "receiver", required=True, help="Receiver (management system) address.")
@click.option("--rotate-every", type=int, default=None, help="Switch sender address after this many transactions.")
@click.option("--sender-key", "sender_keys", multiple=True, required=True, type=click.Path(path_type=Path), help="Sender key file; repeat to build the rotation pool in order.")
@click.option("--no-seal", is_flag=True, help="Queue transactions in pending.jsonl instead of sealing a block.")
@click.pass_obj
def ingest(config: Config, csv_file: Path, receiver: str, rotate_every: int | None, sender_keys: tuple[Path, ...], no_seal: bool):
    """Ingest a temperature CSV as one block of transactions."""
    receiver = _address_arg(receiver)
    chain = config.open_chain()
    readings = telemetry.ingest_csv(csv_file)
    rotation = telemetry.RotationPolicy(rotate_every, tuple(load_signing_key(path) for path in sender_keys))
    txs = telemetry.pump(
        readings,
        rotation,
        receiver,
        chain.state_after(_load_pending(config.pending_path)),  # nonces continue after the queue
        offset_c=config.offset_c,
    )
    if no_seal:
        with open(config.pending_path, "ab") as fp:
            for tx in txs:
                fp.write(tx.canonical() + b"\n")
        click.echo(f"queued {len(txs)} transactions in {config.pending_path}")
        return
    sealer = load_signing_key(config.sealer_key_path)
    block = chain.seal(txs, sealer)
    click.echo(f"sealed block {block.height} with {len(txs)} transactions")


@main.command()
@click.pass_obj
def seal(config: Config):
    """Seal queued pending transactions (an empty queue seals an empty block)."""
    chain = config.open_chain()
    pending = _load_pending(config.pending_path)
    sealer = load_signing_key(config.sealer_key_path)
    block = chain.seal(pending, sealer)
    if config.pending_path.exists():
        config.pending_path.write_bytes(b"")
    click.echo(f"sealed block {block.height} with {len(pending)} transactions")


def _load_pending(path: Path) -> list[ledger.Transaction]:
    if not path.exists():
        return []
    return read_records(path, ledger.Transaction.from_obj, lambda message: click.ClickException(f"{path} {message}"))


@main.command()
@click.pass_obj
def verify(config: Config):
    """Replay and verify the whole chain; exit 0 if sound."""
    chain = config.open_chain()
    click.echo(f"ok: {len(chain.blocks)} blocks, head {chain.head.block_hash.hex()}")


@main.command()
@click.option("--to", "receiver", default=None, help="Only transactions to this address.")
@click.option("--from", "sender", default=None, help="Only transactions from this address.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "csv"]), default="tsv", show_default=True)
@click.option("--raw", is_flag=True, help="Print raw integer values instead of decoded temperatures.")
@click.pass_obj
def explorer(config: Config, receiver: str | None, sender: str | None, fmt: str, raw: bool):
    """Print the transaction table: Tx Hash, Block, From, To, Value."""
    chain = config.open_chain()
    rows = chain.query(
        sender=_address_arg(sender) if sender else None,
        recipient=_address_arg(receiver) if receiver else None,
    )
    out = io.StringIO()
    writer = csv_mod.writer(out, delimiter="\t" if fmt == "tsv" else ",", lineterminator="\n")
    writer.writerow(["Tx Hash", "Block", "From", "To", "Value"])
    for row in rows:
        if raw:
            value = str(row.value)
        else:
            value = telemetry.format_temperature(telemetry.decode_value(row.value, config.offset_c))
        writer.writerow(["0x" + row.tx_hash.hex(), str(row.height), row.sender, row.recipient, value])
    click.echo(out.getvalue(), nl=False)


@main.command()
@click.argument("address")
@click.pass_obj
def balance(config: Config, address: str):
    """Print an account's balance in base units."""
    chain = config.open_chain()
    click.echo(str(chain.state.account(_address_arg(address)).balance))


def _address_arg(text: str) -> str:
    try:
        return require_address(text)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@main.group()
def file():
    """Publish and fetch encrypted record files by root hash."""


@file.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--recipient", required=True, type=click.Path(path_type=Path), help="Recipient's encryption .pub file.")
@click.pass_obj
def publish(config: Config, in_path: Path, recipient: Path):
    """Encrypt a file for one recipient and store it; print the root hash."""
    store = dagstore.ObjectStore(config.objects_dir)
    sealed = envelope.encrypt_for(envelope.load_recipient_public(recipient), in_path.read_bytes())
    root = dagstore.add_file(store, sealed)
    click.echo(root)


@file.command()
@click.option("--root", required=True)
@click.option("--from", "peer", required=True, help="Peer to fetch from, host:port.")
@click.option("--identity", "identity_path", required=True, type=click.Path(path_type=Path), help="Recipient's private encryption key file.")
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
@click.pass_obj
def fetch(config: Config, root: str, peer: str, identity_path: Path, out_path: Path):
    """Fetch a published file by root hash, verify, decrypt, and write it."""
    host, _, port_text = peer.rpartition(":")
    if not host or not port_text.isdigit():
        raise click.UsageError(f"peer must be host:port, got {peer!r}")
    store = dagstore.ObjectStore(config.objects_dir)
    transferred, nodes = exchange.fetch_dag((host, int(port_text)), root, store)
    sealed = dagstore.cat_file(nodes, root)
    del nodes  # the leaves now live on in sealed; do not hold them twice while decrypting
    plaintext = envelope.decrypt(sealed, envelope.load_identity(identity_path))
    out_path.write_bytes(plaintext)
    click.echo(f"fetched {transferred} nodes, wrote {len(plaintext)} bytes to {out_path}")


@main.command()
@click.option("--port", envvar="THERMOLEDGER_PORT", default=DEFAULT_PORT, show_default=True, help="Listen port.")
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
