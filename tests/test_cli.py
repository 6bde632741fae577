import csv
import hashlib
import io
import json
import random
import shutil
import subprocess
import sys
from decimal import Decimal
from unittest import mock

import pytest
from click.testing import CliRunner

from thermoledger import dagstore, envelope, exchange, ledger, telemetry
from thermoledger.cli import main
from thermoledger.dagstore import DagNode, Link, ObjectStore
from thermoledger.envelope import Identity, decrypt
from thermoledger.keys import SigningKey, public_key_path
from thermoledger.telemetry import encode_reading

from .conftest import FIXTURE_CSV, FIXTURE_VALUES, PER_SENSOR_ALLOCATION, bad_ed25519, child_env, read_back, seal_by_hand, seeded_key, serve

runner = CliRunner()


def run(*args, expect: int = 0):
    result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == expect, f"exit {result.exit_code}: {result.output} {result.stderr}"
    return result


@pytest.fixture
def workspace(tmp_path):
    """Initialized chain with a funded sensor and sealer, plus a receiver."""
    data = tmp_path / "data"
    sealer_addr = run("--data-dir", data, "keygen", "--out", data / "sealer.key").output.strip()
    sensor_addr = run("--data-dir", data, "keygen", "--out", data / "sensor.key").output.strip()
    bms_addr = run("--data-dir", data, "keygen", "--out", data / "bms.key").output.strip()
    genesis = tmp_path / "genesis.json"
    genesis.write_text(json.dumps({
        sensor_addr: str(PER_SENSOR_ALLOCATION),
        sealer_addr: str(PER_SENSOR_ALLOCATION),
    }))
    run("--data-dir", data, "init", "--genesis", genesis)
    return {"data": data, "sensor": sensor_addr, "sealer": sealer_addr, "bms": bms_addr}


def _reseal_genesis(data):
    """Replace the chain with one whose genesis another key sealed."""
    (data / "chain.jsonl").unlink()
    ledger.Chain.create(ledger.load_genesis_config(data / "genesis.json"), SigningKey.generate(), data / "chain.jsonl")


def _ingest_fixture(ws, *extra):
    return run(
        "--data-dir", ws["data"], "ingest",
        "--csv", FIXTURE_CSV, "--to", ws["bms"],
        "--sender-key", ws["data"] / "sensor.key",
        *extra,
    )


class TestChainCommands:
    def test_init_is_loudly_transactional(self, workspace, tmp_path):
        result = runner.invoke(
            main,
            ["--data-dir", str(workspace["data"]), "init", "--genesis", str(tmp_path / "genesis.json")],
        )
        assert result.exit_code == 1
        assert "already exists" in result.stderr

    @pytest.mark.parametrize("kept", [0, 1, -40])  # an empty file, one byte, all but 40 bytes
    def test_init_recreates_a_torn_genesis_line(self, workspace, tmp_path, kept):
        # what an init cut off while writing chain.jsonl leaves
        data = workspace["data"]
        chain = data / "chain.jsonl"
        whole = chain.read_bytes()
        chain.write_bytes(whole[:kept])
        for command in ("verify", "seal"):
            assert "chain has no genesis block" in run("--data-dir", data, command, expect=1).stderr
        run("--data-dir", data, "init", "--genesis", tmp_path / "genesis.json")
        assert chain.read_bytes() == whole
        run("--data-dir", data, "seal")
        run("--data-dir", data, "verify")

    @pytest.mark.parametrize("cut", [0, 40])  # genesis alone; genesis, then a torn block
    def test_init_never_replaces_a_chain_that_holds_a_block(self, workspace, tmp_path, cut):
        data = workspace["data"]
        if cut:
            _ingest_fixture(workspace)
            (data / "chain.jsonl").write_bytes((data / "chain.jsonl").read_bytes()[:-cut])
        other = tmp_path / "other-genesis.json"
        other.write_text(json.dumps({workspace["bms"]: "1"}))
        files = [data / "chain.jsonl", data / "genesis.json"]
        before = [f.read_bytes() for f in files]
        assert "already exists" in run("--data-dir", data, "init", "--genesis", other, expect=1).stderr
        assert [f.read_bytes() for f in files] == before

    def test_init_requires_genesis_file(self, tmp_path):
        data = tmp_path / "fresh"
        run("--data-dir", data, "keygen", "--out", data / "sealer.key")
        result = runner.invoke(main, ["--data-dir", str(data), "init", "--genesis", str(tmp_path / "nope.json")])
        assert result.exit_code == 2

    def test_init_from_the_sites_own_genesis_file(self, tmp_path):
        data = tmp_path / "fresh"
        address = run("--data-dir", data, "keygen", "--out", data / "sealer.key").output.strip()
        genesis = data / "genesis.json"
        genesis.write_text(json.dumps({address: "5"}, indent=4))
        before = genesis.read_bytes()
        run("--data-dir", data, "init", "--genesis", genesis)
        assert genesis.read_bytes() == before
        assert run("--data-dir", data, "balance", address).output.strip() == "5"

    def test_ingest_seals_one_block(self, workspace):
        result = _ingest_fixture(workspace)
        assert "sealed block 1 with 24 transactions" in result.output

    def test_explorer_reproduces_fixture_column(self, workspace):
        _ingest_fixture(workspace)
        result = run("--data-dir", workspace["data"], "explorer", "--to", workspace["bms"], "--format", "csv")
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["Tx Hash", "Block", "From", "To", "Value"]
        data_rows = rows[1:]
        assert len(data_rows) == 24
        assert [Decimal(r[4]) for r in data_rows] == [Decimal(v) for v in FIXTURE_VALUES]
        assert {r[1] for r in data_rows} == {"1"}
        assert {r[2] for r in data_rows} == {workspace["sensor"]}
        assert {r[3] for r in data_rows} == {workspace["bms"]}
        assert all(r[0].startswith("0x") and len(r[0]) == 66 for r in data_rows)

    def test_explorer_tsv_and_raw(self, workspace):
        _ingest_fixture(workspace)
        result = run("--data-dir", workspace["data"], "explorer", "--format", "tsv", "--raw")
        first = result.output.splitlines()[1].split("\t")
        assert first[4] == "22900000000000000000"

    def test_explorer_deterministic(self, workspace):
        _ingest_fixture(workspace)
        a = run("--data-dir", workspace["data"], "explorer").output
        b = run("--data-dir", workspace["data"], "explorer").output
        assert a == b

    def test_balance(self, workspace):
        _ingest_fixture(workspace)
        received = sum(int(Decimal(v) * 10**18) for v in FIXTURE_VALUES)
        assert run("--data-dir", workspace["data"], "balance", workspace["bms"]).output.strip() == str(received)
        sensor_balance = int(run("--data-dir", workspace["data"], "balance", workspace["sensor"]).output)
        assert sensor_balance == PER_SENSOR_ALLOCATION - received

    def test_verify_ok_exit_zero(self, workspace):
        _ingest_fixture(workspace)
        assert run("--data-dir", workspace["data"], "verify").output.startswith("ok")

    def test_verify_tampered_chain_exit_one(self, workspace):
        _ingest_fixture(workspace)
        chain_file = workspace["data"] / "chain.jsonl"
        raw = bytearray(chain_file.read_bytes())
        position = raw.index(b'"value":"229') + 10
        raw[position: position + 1] = b"3"
        chain_file.write_bytes(bytes(raw))
        result = runner.invoke(main, ["--data-dir", str(workspace["data"]), "verify"])
        assert result.exit_code == 1
        assert result.stderr.splitlines()[0].startswith(("ChainVerificationError", "MalformedBlock"))

    def test_rotation_flag(self, workspace, tmp_path):
        data = workspace["data"]
        extra = [run("--data-dir", data, "keygen", "--out", data / f"s{i}.key").output.strip() for i in range(2)]
        # rebuild a chain where all three senders are funded
        alloc = {workspace["sensor"]: str(PER_SENSOR_ALLOCATION), workspace["sealer"]: str(PER_SENSOR_ALLOCATION)}
        alloc.update({addr: str(PER_SENSOR_ALLOCATION) for addr in extra})
        genesis = tmp_path / "genesis-rotation.json"
        genesis.write_text(json.dumps(alloc))
        data2 = tmp_path / "data-rotation"
        data2.mkdir()
        for name in ("sealer.key", "sealer.key.pub"):
            (data2 / name).write_bytes((data / name).read_bytes())
        run("--data-dir", data2, "init", "--genesis", genesis)
        run(
            "--data-dir", data2, "ingest", "--csv", FIXTURE_CSV, "--to", workspace["bms"],
            "--rotate-every", 8,
            "--sender-key", data / "sensor.key",
            "--sender-key", data / "s0.key",
            "--sender-key", data / "s1.key",
        )
        table = run("--data-dir", data2, "explorer", "--format", "csv").output
        senders = [row[2] for row in list(csv.reader(io.StringIO(table)))[1:]]
        assert len(set(senders)) == 3
        assert all(senders.count(s) == 8 for s in set(senders))

    def test_ingest_no_seal_then_seal(self, workspace):
        _ingest_fixture(workspace, "--no-seal")
        pending = workspace["data"] / "pending.jsonl"
        assert len(pending.read_bytes().splitlines()) == 24
        result = run("--data-dir", workspace["data"], "seal")
        assert "sealed block 1 with 24 transactions" in result.output
        assert pending.read_bytes() == b""

    def test_queue_file_golden(self, tmp_path):
        # pins every byte that ingest --no-seal queues for the fixture, with seeded keys
        data = tmp_path / "data"
        data.mkdir()
        seeded_key(1).save(data / "sealer.key")
        seeded_key(2).save(data / "sensor.key")
        genesis = tmp_path / "genesis.json"
        genesis.write_text(json.dumps({seeded_key(2).address: str(PER_SENSOR_ALLOCATION)}))
        run("--data-dir", data, "init", "--genesis", genesis)
        run("--data-dir", data, "ingest", "--csv", FIXTURE_CSV, "--to", seeded_key(3).address, "--sender-key", data / "sensor.key", "--no-seal")
        assert hashlib.sha256((data / "pending.jsonl").read_bytes()).hexdigest() == "07928848f43e40229d2ba1b3ad9dfbff8af12816a662697a548dad59039f13dc"

    def test_queued_batches_stack_then_seal_as_one_block(self, workspace):
        _ingest_fixture(workspace, "--no-seal")
        _ingest_fixture(workspace, "--no-seal")
        result = run("--data-dir", workspace["data"], "seal")
        assert "sealed block 1 with 48 transactions" in result.output
        run("--data-dir", workspace["data"], "verify")

    @pytest.mark.parametrize("batch_key", ["sensor.key", "sealer.key"])  # the queue's sender; another funded one
    def test_sealing_ingest_is_queue_then_seal(self, workspace, tmp_path, batch_key):
        data, twin = workspace["data"], tmp_path / "twin"
        _ingest_fixture(workspace, "--no-seal")
        shutil.copytree(data, twin)

        def batch(site, *extra):
            return ["--data-dir", site, "ingest", "--csv", FIXTURE_CSV, "--to", workspace["bms"], "--sender-key", site / batch_key, *extra]

        with mock.patch.object(ledger.time, "time", return_value=1_700_000_000):
            assert "sealed block 1 with 48 transactions" in run(*batch(data)).output
            run(*batch(twin, "--no-seal"))
            run("--data-dir", twin, "seal")
        assert (data / "chain.jsonl").read_bytes() == (twin / "chain.jsonl").read_bytes()
        assert (data / "pending.jsonl").read_bytes() == b""
        block = ledger.load_chain(data / "chain.jsonl")[1]
        batch_sender = SigningKey.load(data / batch_key).address
        assert [tx.sender for tx in block.transactions] == [workspace["sensor"]] * 24 + [batch_sender] * 24
        assert [tx.value for tx in block.transactions] == [encode_reading(Decimal(v)) for v in FIXTURE_VALUES] * 2
        run("--data-dir", data, "verify")

    @pytest.mark.parametrize("cut", [1, 40])  # the final newline alone; part of the record too
    @pytest.mark.parametrize("name", ["chain.jsonl", "pending.jsonl"])
    def test_torn_final_line_recovers_on_the_next_command(self, workspace, name, cut):
        # what a crash part way through appending the last line leaves
        data = workspace["data"]
        _ingest_fixture(workspace, *(["--no-seal"] if name == "pending.jsonl" else []))
        path = data / name
        path.write_bytes(path.read_bytes()[:-cut])
        kept = 24 if cut == 1 else 23 if name == "pending.jsonl" else 0  # a torn record that parses is kept
        run("--data-dir", data, "balance", workspace["bms"])
        _ingest_fixture(workspace, "--no-seal")
        if name == "chain.jsonl":
            assert run("--data-dir", data, "seal").output == f"sealed block {1 + (kept > 0)} with 24 transactions\n"
        else:
            assert run("--data-dir", data, "seal").output == f"sealed block 1 with {kept + 24} transactions\n"
        run("--data-dir", data, "verify")
        assert len(run("--data-dir", data, "explorer").output.splitlines()) == 1 + kept + 24

    def test_seal_cut_off_before_queue_reset_recovers(self, workspace):
        # a seal that appended its block but never emptied the queue
        data = workspace["data"]
        _ingest_fixture(workspace, "--no-seal")
        queued = (data / "pending.jsonl").read_bytes()
        run("--data-dir", data, "seal")
        (data / "pending.jsonl").write_bytes(queued)
        assert "sealed block 2 with 0 transactions" in run("--data-dir", data, "seal").output
        _ingest_fixture(workspace, "--no-seal")
        assert "sealed block 3 with 24 transactions" in run("--data-dir", data, "seal").output
        run("--data-dir", data, "verify")
        rows = run("--data-dir", data, "explorer").output.splitlines()[1:]
        assert len(rows) == len(set(rows)) == 48

    def test_keygen_refuses_to_replace_a_key(self, workspace):
        data = workspace["data"]
        files = [data / "sealer.key", data / "sealer.key.pub"]
        before = [f.read_bytes() for f in files]
        for kind in ("signing", "encryption"):
            result = run("--data-dir", data, "keygen", "--kind", kind, "--out", data / "sealer.key", expect=1)
            assert result.stderr.startswith("InvalidKey: ")
        assert [f.read_bytes() for f in files] == before
        run("--data-dir", data, "seal")
        run("--data-dir", data, "verify")

    @pytest.mark.parametrize("kind", ["signing", "encryption"])
    def test_keygen_replaces_a_key_file_left_empty(self, tmp_path, kind):
        # what a keygen cut off inside its first create leaves: the file, and no key in it
        out = tmp_path / "k.key"
        out.touch()
        printed = run("keygen", "--kind", kind, "--out", out).output.strip()
        load = {"signing": lambda: SigningKey.load(out).address, "encryption": lambda: Identity.load(out).fingerprint}[kind]
        assert printed == load()
        assert public_key_path(out).is_file()

    @pytest.mark.parametrize("kind", ["signing", "encryption"])
    def test_keygen_completes_a_missing_public_half(self, tmp_path, kind):
        # what a keygen cut off between its two creates leaves
        out = tmp_path / "k.key"
        printed = run("keygen", "--kind", kind, "--out", out).output
        private, public = out.read_bytes(), public_key_path(out).read_bytes()
        public_key_path(out).unlink()
        assert run("keygen", "--kind", kind, "--out", out).output == printed
        assert (out.read_bytes(), public_key_path(out).read_bytes()) == (private, public)
        other = {"signing": "encryption", "encryption": "signing"}[kind]
        public_key_path(out).unlink()
        assert run("keygen", "--kind", other, "--out", out, expect=1).stderr.startswith("InvalidKey: ")
        assert not public_key_path(out).exists()
        out.write_text(json.dumps(json.loads(private)))  # the same key, laid out by hand
        assert run("keygen", "--kind", kind, "--out", out).output == printed
        assert public_key_path(out).read_bytes() == public

    def test_reads_refuse_a_sealer_key_without_its_public_half(self, workspace):
        data = workspace["data"]
        (data / "sealer.key.pub").unlink()
        _reseal_genesis(data)  # unpinned, every read would take this chain
        for command in (["verify"], ["balance", workspace["bms"]], ["explorer"], ["seal"]):
            lines = run("--data-dir", data, *command, expect=1).stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("InvalidKey: ")
            assert f"keygen --out {data / 'sealer.key'}" in lines[0]
        run("--data-dir", data, "keygen", "--out", data / "sealer.key")
        assert run("--data-dir", data, "verify", expect=1).stderr.startswith("BadSealerSignature: ")

    def test_seal_empty_block(self, workspace):
        result = run("--data-dir", workspace["data"], "seal")
        assert "sealed block 1 with 0 transactions" in result.output
        run("--data-dir", workspace["data"], "verify")

    def test_foreign_sealer_key_refused(self, workspace):
        data = workspace["data"]
        run("--data-dir", data, "keygen", "--out", data / "other.key")
        before = (data / "chain.jsonl").read_bytes()
        result = run("--data-dir", data, "--sealer-key", data / "other.key", "seal", expect=1)
        assert result.stderr.startswith("BadSealerSignature: ")
        assert (data / "chain.jsonl").read_bytes() == before
        run("--data-dir", data, "verify")

    def test_pinned_reads_trust_the_seal_and_verify_checks_every_signature(self, workspace):
        data = workspace["data"]
        sealer, sensor = SigningKey.load(data / "sealer.key"), SigningKey.load(data / "sensor.key")
        head = ledger.load_chain(data / "chain.jsonl")[-1]
        forged = bad_ed25519(ledger.build_and_sign_tx(sensor, workspace["bms"], 7, nonce=0))
        ledger.append_block(data / "chain.jsonl", seal_by_hand(head, [forged], sealer))
        assert run("--data-dir", data, "balance", workspace["bms"]).output == "7\n"
        result = run("--data-dir", data, "verify", expect=1)
        assert result.stderr.startswith("ChainVerificationError: BadSignature at height 1: ")
        for name in ("sealer.key", "sealer.key.pub"):  # a site without the sealer's key pins nothing,
            (data / name).unlink()  # so its reads check every signature too
        result = run("--data-dir", data, "balance", workspace["bms"], expect=1)
        assert result.stderr.startswith("ChainVerificationError: BadSignature at height 1: ")

    def test_verify_refuses_genesis_sealed_by_another_key(self, workspace):
        data = workspace["data"]
        _reseal_genesis(data)
        (data / "sealer.key").unlink()  # the public half alone pins the authority
        result = run("--data-dir", data, "verify", expect=1)
        assert result.stderr.startswith("BadSealerSignature: ")

    def test_offset_option(self, workspace):
        data = workspace["data"]
        run(
            "--data-dir", data, "--offset-c", "40", "ingest", "--csv", FIXTURE_CSV,
            "--to", workspace["bms"], "--sender-key", data / "sensor.key",
        )
        raw = run("--data-dir", data, "explorer", "--raw", "--format", "csv").output
        assert list(csv.reader(io.StringIO(raw)))[1][4] == "62900000000000000000"
        table = run("--data-dir", data, "--offset-c", "40", "explorer", "--format", "csv").output
        assert [Decimal(r[4]) for r in list(csv.reader(io.StringIO(table)))[1:]] == [Decimal(v) for v in FIXTURE_VALUES]
        for bad in ("-1", "x"):
            assert runner.invoke(main, ["--data-dir", str(data), "--offset-c", bad, "verify"]).exit_code == 2

    def test_malformed_sealer_key_is_domain_error(self, tmp_path):
        bad_key = tmp_path / "bad.key"
        bad_key.write_text(json.dumps({"kind": "signing", "private_key": "0xzz"}))
        genesis = tmp_path / "genesis.json"
        genesis.write_text("{}")
        result = run("--data-dir", tmp_path / "data", "--sealer-key", bad_key, "init", "--genesis", genesis, expect=1)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("InvalidKey: ")

    def test_explorer_from_filter(self, workspace):
        _ingest_fixture(workspace)
        rows = run("--data-dir", workspace["data"], "explorer", "--from", workspace["sensor"], "--format", "csv")
        assert len(rows.output.splitlines()) == 25
        empty = run("--data-dir", workspace["data"], "explorer", "--from", workspace["bms"], "--format", "csv")
        assert len(empty.output.splitlines()) == 1

    def test_missing_chain_is_usage_error(self, tmp_path):
        result = runner.invoke(main, ["--data-dir", str(tmp_path / "void"), "verify"])
        assert result.exit_code == 2

    def test_bad_address_is_usage_error(self, workspace):
        result = runner.invoke(main, ["--data-dir", str(workspace["data"]), "balance", "0x1234"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", [
        ["explorer", "--from", "bad"],
        ["explorer", "--to", "bad"],
        ["balance", "bad"],
        ["ingest", "--csv", FIXTURE_CSV, "--to", "bad", "--sender-key", "sensor.key"],
    ], ids=["explorer --from", "explorer --to", "balance", "ingest --to"])
    def test_address_is_checked_before_the_site_is_read(self, tmp_path, command):
        # checked after the chain was opened, a bad address on a site with no
        # chain read "no chain ... run init first", and on a real one it waited for a replay
        data = tmp_path / "void"
        result = run("--data-dir", data, *command, expect=2)
        lines = [line for line in result.stderr.splitlines() if line.startswith("Error: ")]
        assert len(lines) == 1 and lines[0].startswith("Error: Invalid value for ")
        assert lines[0].endswith("not a valid address: 'bad'")
        assert not data.exists()


    def test_ingest_refuses_its_rotation_before_the_site_is_touched(self, tmp_path):
        # checked after the lock and the chain, it read "no chain ... run init first" and left void/write.lock
        data = tmp_path / "void"
        result = run(
            "--data-dir", data, "ingest", "--csv", FIXTURE_CSV, "--to", "0x" + "ab" * 20,
            "--sender-key", tmp_path / "nope.key", "--rotate-every", "0", expect=2,
        )
        lines = [line for line in result.stderr.splitlines() if line.startswith("Error: ")]
        assert result.stderr.startswith("Usage: ")
        assert len(lines) == 1 and lines[0].endswith("rotate_every must be a positive integer or never")
        assert not data.exists()

    def test_ingest_refuses_a_missing_sender_key_before_any_replay(self, workspace, monkeypatch):
        def replay(*args, **kwargs):
            raise AssertionError("Chain.open ran before the sender keys were loaded")

        monkeypatch.setattr(ledger.Chain, "open", replay)
        data = workspace["data"]
        result = run(
            "--data-dir", data, "ingest", "--csv", FIXTURE_CSV, "--to", workspace["bms"],
            "--sender-key", data / "sensor.key", "--sender-key", data / "nope.key", expect=1,
        )
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("InvalidKey: ") and "nope.key" in lines[0]

def _bad_genesis(ws, tmp_path):
    genesis = tmp_path / "bad-genesis.json"
    genesis.write_text('{"0x1234": "1"}')
    return ["--data-dir", tmp_path / "fresh", "--sealer-key", ws["data"] / "sealer.key", "init", "--genesis", genesis]


def _bad_csv(ws, tmp_path):
    rows = tmp_path / "bad.csv"
    rows.write_text("sensor_id,timestamp,temperature_c\ns1,yesterday,22.9\n")
    return ["--data-dir", ws["data"], "ingest", "--csv", rows, "--to", ws["bms"], "--sender-key", ws["data"] / "sensor.key"]


def _foreign_sealer(ws, tmp_path):
    run("keygen", "--out", tmp_path / "other.key")
    return ["--data-dir", ws["data"], "--sealer-key", tmp_path / "other.key", "seal"]


def _tampered(ws, tmp_path):
    chain = ws["data"] / "chain.jsonl"
    chain.write_bytes(chain.read_bytes().replace(b'"timestamp":"0"', b'"timestamp":"1"'))
    return ["--data-dir", ws["data"], "verify"]


def _spaced(ws, tmp_path):
    chain = ws["data"] / "chain.jsonl"
    chain.write_bytes(json.dumps(json.loads(chain.read_bytes()), sort_keys=True).encode() + b"\n")
    return ["--data-dir", ws["data"], "explorer"]


def _resealed(ws, tmp_path):
    _reseal_genesis(ws["data"])
    return ["--data-dir", ws["data"], "balance", ws["bms"]]


def _wrong_recipient_file(ws, tmp_path):
    source = tmp_path / "in.bin"
    source.write_bytes(b"records")
    return ["--data-dir", ws["data"], "file", "publish", "--in", source, "--recipient", ws["data"] / "bms.key.pub"]


def _dead_peer(ws, tmp_path):
    run("keygen", "--kind", "encryption", "--out", tmp_path / "r.key")
    return [
        "--data-dir", ws["data"], "file", "fetch", "--root", "00" * 32, "--from", "127.0.0.1:1",
        "--identity", tmp_path / "r.key", "--out", tmp_path / "out.bin",
    ]


# command -> (build its arguments for a workspace, expected category)
DOMAIN_ERRORS = {
    "keygen": (lambda ws, _: ["keygen", "--kind", "encryption", "--out", ws["data"] / "sealer.key"], "InvalidKey"),
    "init": (_bad_genesis, "MalformedBlock"),
    "ingest": (_bad_csv, "BadRow"),
    "seal": (_foreign_sealer, "BadSealerSignature"),
    "verify": (_tampered, "ChainVerificationError"),
    "explorer": (_spaced, "MalformedBlock"),
    "balance": (_resealed, "BadSealerSignature"),
    "file publish": (_wrong_recipient_file, "InvalidKey"),
    "file fetch": (_dead_peer, "ConnectionLost"),
}


@pytest.mark.parametrize("command", DOMAIN_ERRORS)
def test_domain_error_is_one_category_line(workspace, tmp_path, command):
    build, category = DOMAIN_ERRORS[command]
    # run() lets any exception other than the exit escape, so this also
    # fails on a traceback
    lines = run(*build(workspace, tmp_path), expect=1).stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{category}: ")


@pytest.mark.parametrize("missing", [False, True], ids=["directory", "missing"])
@pytest.mark.parametrize("option", ["--csv", "--in"])
def test_input_file_must_exist(workspace, tmp_path, option, missing):
    data = workspace["data"]
    path = tmp_path / "nope" if missing else tmp_path
    args = {
        "--csv": ["ingest", "--csv", path, "--to", workspace["bms"], "--sender-key", data / "sensor.key"],
        "--in": ["file", "publish", "--in", path, "--recipient", data / "bms.key.pub"],
    }[option]
    result = run("--data-dir", data, *args, expect=2)
    assert f"'{option}'" in result.stderr


def _ingest_args(ws, offset_c, *extra):
    return [
        "--data-dir", ws["data"], "--offset-c", offset_c, "ingest", "--csv", FIXTURE_CSV,
        "--to", ws["bms"], "--sender-key", ws["data"] / "sensor.key", *extra,
    ]


def _fetch_args(ws, peer, out, root="00" * 32):
    return [
        "--data-dir", ws["data"], "file", "fetch", "--root", root, "--from", peer,
        "--identity", ws["data"] / "bms.key", "--out", out,
    ]


# operator input -> its command line for a workspace
HOSTILE_INPUTS = {
    "offset NaN": lambda ws: _ingest_args(ws, "NaN"),
    "offset Infinity": lambda ws: _ingest_args(ws, "Infinity"),
    "offset 1e80": lambda ws: _ingest_args(ws, "1e80"),
    "offset 10^-19": lambda ws: _ingest_args(ws, "0.0000000000000000001"),
    "rotate-every 0": lambda ws: _ingest_args(ws, "0", "--rotate-every", "0"),
    "repeated sender key": lambda ws: _ingest_args(ws, "0", "--sender-key", ws["data"] / "sensor.key"),
    "port 99999": lambda ws: ["--data-dir", ws["data"], "serve", "--host", "127.0.0.1", "--port", "99999"],
    "keygen out directory": lambda ws: ["keygen", "--out", ws["data"]],
    "keygen out below a file": lambda ws: ["keygen", "--out", ws["data"] / "genesis.json" / "x.key"],
    "fetch out directory": lambda ws: _fetch_args(ws, "127.0.0.1:1", ws["data"]),
    "fetch out below a file": lambda ws: _fetch_args(ws, "127.0.0.1:1", ws["data"] / "genesis.json" / "x.bin"),
    "fetch out below a file, deeper": lambda ws: _fetch_args(ws, "127.0.0.1:1", ws["data"] / "genesis.json" / "a" / "x.bin"),
    "fetch port superscript": lambda ws: _fetch_args(ws, "127.0.0.1:\u00b2", ws["data"] / "out.bin"),
    "fetch port 65536": lambda ws: _fetch_args(ws, "127.0.0.1:65536", ws["data"] / "out.bin"),
    "fetch root xyz": lambda ws: _fetch_args(ws, "127.0.0.1:1", ws["data"] / "out.bin", "xyz"),
    "fetch root uppercase": lambda ws: _fetch_args(ws, "127.0.0.1:1", ws["data"] / "out.bin", "AB" * 32),
    "fetch root 62 hex": lambda ws: _fetch_args(ws, "127.0.0.1:1", ws["data"] / "out.bin", "ab" * 31),
    "data-dir file publish": lambda ws: [
        "--data-dir", ws["data"] / "genesis.json", "file", "publish", "--in", FIXTURE_CSV, "--recipient", ws["data"] / "bms.key.pub",
    ],
    "data-dir file serve": lambda ws: ["--data-dir", ws["data"] / "genesis.json", "serve", "--host", "127.0.0.1", "--port", "0"],
    "data-dir below a file init": lambda ws: [
        "--data-dir", ws["data"] / "chain.jsonl" / "x", "--sealer-key", ws["data"] / "sealer.key", "init", "--genesis", ws["data"] / "genesis.json",
    ],
    "data-dir below a file publish": lambda ws: [
        "--data-dir", ws["data"] / "chain.jsonl" / "x", "file", "publish", "--in", FIXTURE_CSV, "--recipient", ws["data"] / "bms.key.pub",
    ],
    "data-dir below a file fetch": lambda ws: [
        "--data-dir", ws["data"] / "chain.jsonl" / "x", "file", "fetch", "--root", "00" * 32, "--from", "127.0.0.1:1",
        "--identity", ws["data"] / "bms.key", "--out", ws["data"] / "out.bin",
    ],
    "data-dir below a file serve": lambda ws: [
        "--data-dir", ws["data"] / "chain.jsonl" / "x", "serve", "--host", "127.0.0.1", "--port", "0",
    ],
    "ingest to bad": lambda ws: [
        "--data-dir", ws["data"], "ingest", "--csv", FIXTURE_CSV, "--to", "bad", "--sender-key", ws["data"] / "sensor.key",
    ],
    "explorer from bad": lambda ws: ["--data-dir", ws["data"], "explorer", "--from", "bad"],
    "explorer to bad": lambda ws: ["--data-dir", ws["data"], "explorer", "--to", "bad"],
    "balance bad": lambda ws: ["--data-dir", ws["data"], "balance", "bad"],
    "fetch from nohost": lambda ws: _fetch_args(ws, "nohost", ws["data"] / "out.bin"),
}


@pytest.mark.parametrize("name", HOSTILE_INPUTS)
def test_hostile_operator_input_is_one_usage_error(workspace, name):
    genesis_only = (workspace["data"] / "chain.jsonl").read_bytes()
    result = runner.invoke(main, [str(a) for a in HOSTILE_INPUTS[name](workspace)])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit), repr(result.exception)
    assert len([line for line in result.stderr.splitlines() if line.startswith("Error: ")]) == 1
    assert "Traceback" not in result.stderr
    assert (workspace["data"] / "chain.jsonl").read_bytes() == genesis_only


class TestOneWriterPerSite:
    """init, ingest and seal hold the site's write lock from before they read the chain
    until they end; a second writer is refused at once, and reads take no lock."""

    def test_a_second_ingest_is_refused_while_one_runs(self, workspace, monkeypatch):
        # unlocked, both seal block 1: heights 0, 1, 1, and every later command
        # fails with "BrokenLink at height 1: height 1 does not follow 1"
        data = workspace["data"]
        inner = []
        real_pump = telemetry.pump

        def pump_after_a_second_ingest(*args, **kwargs):
            if not inner:
                inner.append(None)  # the second ingest's own pump goes straight on
                inner[:] = [
                    runner.invoke(main, [str(a) for a in [
                        "--data-dir", data, "ingest", "--csv", FIXTURE_CSV, "--to", workspace["bms"], "--sender-key", data / "sealer.key",
                    ]]),
                    runner.invoke(main, ["--data-dir", str(data), "balance", workspace["bms"]]),
                ]
            return real_pump(*args, **kwargs)

        monkeypatch.setattr(telemetry, "pump", pump_after_a_second_ingest)
        assert _ingest_fixture(workspace).stdout == "sealed block 1 with 24 transactions\n"
        busy, read = inner
        assert busy.exit_code == 1 and busy.stdout == "", busy.output
        assert [line.split(":")[0] for line in busy.stderr.splitlines()] == ["SiteBusy"]
        assert (read.exit_code, read.stdout) == (0, "0\n")
        assert [block.height for block in ledger.load_chain(data / "chain.jsonl")] == [0, 1]
        run("--data-dir", data, "verify")

    @pytest.mark.parametrize("outer", ["init", "ingest --no-seal", "seal"])
    def test_every_writer_holds_the_site(self, workspace, monkeypatch, outer):
        data = workspace["data"]
        ingest = ["ingest", "--csv", FIXTURE_CSV, "--to", workspace["bms"], "--sender-key", data / "sensor.key"]
        writers = {
            "init": ["init", "--genesis", data / "genesis.json"],
            "ingest": ingest,
            "ingest --no-seal": [*ingest, "--no-seal"],
            "seal": ["seal"],
        }
        if outer == "init":
            (data / "chain.jsonl").write_bytes(b"")  # an init cut off before its genesis line; init writes it
        inner = {}
        real_load_chain = ledger.load_chain

        def load_chain_after_every_writer(path):
            monkeypatch.setattr(ledger, "load_chain", real_load_chain)
            inner.update({name: runner.invoke(main, [str(a) for a in ["--data-dir", data, *args]]) for name, args in writers.items()})
            return real_load_chain(path)

        monkeypatch.setattr(ledger, "load_chain", load_chain_after_every_writer)
        run("--data-dir", data, *writers[outer])
        assert {name: (result.exit_code, result.stderr.split(":")[0]) for name, result in inner.items()} == {name: (1, "SiteBusy") for name in writers}
        run("--data-dir", data, "verify")


class TestFileCommands:
    def test_keygen_encryption_prints_fingerprint(self, tmp_path):
        out = run("keygen", "--kind", "encryption", "--out", tmp_path / "r.key").output.strip()
        assert len(out) == 64
        assert (tmp_path / "r.key.pub").exists()

    def test_publish_fetch_round_trip(self, tmp_path):
        publisher = tmp_path / "publisher"
        fetcher = tmp_path / "fetcher"
        run("keygen", "--kind", "encryption", "--out", tmp_path / "recipient.key")
        payload = tmp_path / "records.csv"
        payload.write_bytes(FIXTURE_CSV.read_bytes())

        root = run(
            "--data-dir", publisher, "file", "publish",
            "--in", payload, "--recipient", tmp_path / "recipient.key.pub",
        ).output.strip()
        assert len(root) == 64

        with serve(ObjectStore(publisher / "objects")) as server:
            host, port = server.endpoint
            out_file = tmp_path / "fetched.csv"
            result = run(
                "--data-dir", fetcher, "file", "fetch",
                "--root", root, "--from", f"{host}:{port}",
                "--identity", tmp_path / "recipient.key", "--out", out_file,
            )
        assert out_file.read_bytes() == payload.read_bytes()
        assert "fetched" in result.output

    def test_fetched_store_decrypts_to_the_written_file(self, tmp_path):
        publisher, fetcher = tmp_path / "publisher", tmp_path / "fetcher"
        run("keygen", "--kind", "encryption", "--out", tmp_path / "recipient.key")
        payload = tmp_path / "in.bin"
        payload.write_bytes(random.Random(5).randbytes(700_000))
        root = run(
            "--data-dir", publisher, "file", "publish",
            "--in", payload, "--recipient", tmp_path / "recipient.key.pub",
        ).output.strip()
        with serve(ObjectStore(publisher / "objects")) as server:
            host, port = server.endpoint
            out_file = tmp_path / "missing" / "parents" / "out.bin"  # created, as keygen --out creates them
            result = run(
                "--data-dir", fetcher, "file", "fetch",
                "--root", root, "--from", f"{host}:{port}",
                "--identity", tmp_path / "recipient.key", "--out", out_file,
            )
        assert result.output.startswith("fetched 5 nodes,")
        stored = read_back(ObjectStore(fetcher / "objects"), root)
        assert decrypt(stored, Identity.load(tmp_path / "recipient.key")) == out_file.read_bytes() == payload.read_bytes()

    def test_publish_refuses_a_file_too_large_before_reading_it(self, tmp_path, monkeypatch):
        run("keygen", "--kind", "encryption", "--out", tmp_path / "recipient.key")
        monkeypatch.setattr(dagstore, "MAX_FILE_SIZE", 446)  # the envelope of a 101-byte file, exactly
        payload = tmp_path / "in.bin"
        args = ["--data-dir", tmp_path / "publisher", "file", "publish", "--in", payload, "--recipient", tmp_path / "recipient.key.pub"]
        payload.write_bytes(bytes(101))
        run(*args)
        payload.write_bytes(bytes(102))
        with mock.patch.object(envelope, "encrypt_for", side_effect=AssertionError("the file was encrypted")):
            lines = run(*args, expect=1).stderr.splitlines()
        assert lines == [f"FileTooLarge: {payload} is 102 bytes; the largest publishable file is 101 bytes"]

    def test_fetch_with_wrong_identity_fails(self, tmp_path):
        publisher = tmp_path / "publisher"
        run("keygen", "--kind", "encryption", "--out", tmp_path / "recipient.key")
        run("keygen", "--kind", "encryption", "--out", tmp_path / "other.key")
        payload = tmp_path / "in.bin"
        payload.write_bytes(b"\x01" * 100)
        root = run(
            "--data-dir", publisher, "file", "publish",
            "--in", payload, "--recipient", tmp_path / "recipient.key.pub",
        ).output.strip()
        with serve(ObjectStore(publisher / "objects")) as server:
            host, port = server.endpoint
            result = runner.invoke(main, [
                "--data-dir", str(tmp_path / "fetcher"), "file", "fetch",
                "--root", root, "--from", f"{host}:{port}",
                "--identity", str(tmp_path / "other.key"), "--out", str(tmp_path / "out.bin"),
            ])
        assert result.exit_code == 1
        assert result.stderr.startswith("WrongRecipient")


    @pytest.mark.parametrize("identity", ["missing", "signing key"])
    def test_fetch_refuses_its_identity_before_connecting(self, tmp_path, identity):
        # loaded after the fetch, a bad identity was reported only once the whole DAG had arrived
        key = tmp_path / "r.key"
        if identity == "signing key":
            run("keygen", "--out", key)
        args = ["--data-dir", tmp_path / "d", "file", "fetch", "--root", "00" * 32, "--from", "127.0.0.1:1", "--identity", key, "--out", tmp_path / "out.bin"]
        with mock.patch.object(exchange, "fetch_dag", side_effect=AssertionError("the peer was contacted")):
            lines = run(*args, expect=1).stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"InvalidKey: key file {key}: ")

    def test_fetch_from_dead_peer_is_domain_error(self, tmp_path):
        run("keygen", "--kind", "encryption", "--out", tmp_path / "r.key")
        result = runner.invoke(main, [
            "--data-dir", str(tmp_path / "d"), "file", "fetch",
            "--root", "00" * 32, "--from", "127.0.0.1:1",
            "--identity", str(tmp_path / "r.key"), "--out", str(tmp_path / "out.bin"),
        ])
        assert result.exit_code == 1
        assert result.stderr.startswith("ConnectionLost")

    def test_fetch_of_links_that_understate_their_leaves_fails(self, tmp_path):
        run("keygen", "--kind", "encryption", "--out", tmp_path / "r.key")
        store = ObjectStore(tmp_path / "publisher" / "objects")
        leaves = [store.put(DagNode(data=bytes(size)))[0] for size in (1000, 2000)]
        root, _ = store.put(DagNode(links=tuple(Link(hash=leaf, size=1) for leaf in leaves)))
        with serve(store) as server:
            host, port = server.endpoint
            result = runner.invoke(main, [
                "--data-dir", str(tmp_path / "fetcher"), "file", "fetch",
                "--root", root, "--from", f"{host}:{port}",
                "--identity", str(tmp_path / "r.key"), "--out", str(tmp_path / "out.bin"),
            ])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"ProtocolError: child {leaves[0]}: leaf holds 1000 bytes, its link says 1")
        assert not (tmp_path / "out.bin").exists()


class TestServeCommand:
    def test_bind_failure_reports_category(self, tmp_path):
        import socket
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            result = runner.invoke(main, [
                "--data-dir", str(tmp_path), "serve", "--host", "127.0.0.1", "--port", str(port),
            ])
        finally:
            blocker.close()
        assert result.exit_code == 1
        assert result.stderr.startswith("BindFailure")


    def test_port_option_and_environment(self, tmp_path, monkeypatch):
        bound = []

        def refuse(store, address):
            bound.append(address)
            raise OSError("not bound in this test")

        monkeypatch.setattr(exchange, "PeerServer", refuse)
        serve = ["--data-dir", str(tmp_path), "serve"]
        for port_env, extra in ((None, []), ("9999", []), ("9999", ["--port", "0"])):
            assert runner.invoke(main, serve + extra, env={"THERMOLEDGER_PORT": port_env}).exit_code == 1
        assert bound == [("0.0.0.0", 9464), ("0.0.0.0", 9999), ("0.0.0.0", 0)]
        # the group-level --port, which only ever fed serve, is gone
        assert runner.invoke(main, ["--port", "1", *serve]).exit_code == 2


def test_console_script_installed():
    result = subprocess.run(
        [sys.executable, "-m", "thermoledger.cli", "--help"],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == 0
    assert "ingest" in result.stdout


def test_data_dir_env_override(tmp_path):
    data = tmp_path / "env-data"
    result = runner.invoke(
        main, ["verify"], env={"THERMOLEDGER_DATA_DIR": str(data)}, catch_exceptions=False
    )
    assert result.exit_code == 2  # no chain there yet, but the path was honored
    assert str(data) in result.stderr
