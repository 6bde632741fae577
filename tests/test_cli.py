import csv
import io
import json
import random
import subprocess
import sys
from decimal import Decimal

import pytest
from click.testing import CliRunner

from thermoledger import exchange, ledger
from thermoledger.cli import main
from thermoledger.dagstore import ObjectStore, cat_file
from thermoledger.envelope import decrypt, load_identity
from thermoledger.keys import SigningKey

from .conftest import FIXTURE_CSV, FIXTURE_VALUES, PER_SENSOR_ALLOCATION

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

    def test_init_requires_genesis_file(self, tmp_path):
        data = tmp_path / "fresh"
        run("--data-dir", data, "keygen", "--out", data / "sealer.key")
        result = runner.invoke(main, ["--data-dir", str(data), "init", "--genesis", str(tmp_path / "nope.json")])
        assert result.exit_code == 2

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
        (data2 / "sealer.key").write_bytes((data / "sealer.key").read_bytes())
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

    def test_queued_batches_stack_then_seal_as_one_block(self, workspace):
        _ingest_fixture(workspace, "--no-seal")
        _ingest_fixture(workspace, "--no-seal")
        result = run("--data-dir", workspace["data"], "seal")
        assert "sealed block 1 with 48 transactions" in result.output
        run("--data-dir", workspace["data"], "verify")

    def test_direct_seal_refused_while_queue_waits(self, workspace):
        data = workspace["data"]
        _ingest_fixture(workspace, "--no-seal")
        before = [(data / name).read_bytes() for name in ("chain.jsonl", "pending.jsonl")]
        result = run(
            "--data-dir", data, "ingest", "--csv", FIXTURE_CSV, "--to", workspace["bms"],
            "--sender-key", data / "sensor.key", expect=1,
        )
        assert result.stderr.startswith("SealRejected: ")
        assert [(data / name).read_bytes() for name in ("chain.jsonl", "pending.jsonl")] == before
        assert "sealed block 1 with 24 transactions" in run("--data-dir", data, "seal").output

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

        with exchange.serve(ObjectStore(publisher / "objects")) as server:
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
        with exchange.serve(ObjectStore(publisher / "objects")) as server:
            host, port = server.endpoint
            out_file = tmp_path / "out.bin"
            result = run(
                "--data-dir", fetcher, "file", "fetch",
                "--root", root, "--from", f"{host}:{port}",
                "--identity", tmp_path / "recipient.key", "--out", out_file,
            )
        assert result.output.startswith("fetched 5 nodes,")
        stored = cat_file(ObjectStore(fetcher / "objects"), root)
        assert decrypt(stored, load_identity(tmp_path / "recipient.key")) == out_file.read_bytes() == payload.read_bytes()

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
        with exchange.serve(ObjectStore(publisher / "objects")) as server:
            host, port = server.endpoint
            result = runner.invoke(main, [
                "--data-dir", str(tmp_path / "fetcher"), "file", "fetch",
                "--root", root, "--from", f"{host}:{port}",
                "--identity", str(tmp_path / "other.key"), "--out", str(tmp_path / "out.bin"),
            ])
        assert result.exit_code == 1
        assert result.stderr.startswith("WrongRecipient")


    def test_fetch_from_dead_peer_is_domain_error(self, tmp_path):
        run("keygen", "--kind", "encryption", "--out", tmp_path / "r.key")
        result = runner.invoke(main, [
            "--data-dir", str(tmp_path / "d"), "file", "fetch",
            "--root", "00" * 32, "--from", "127.0.0.1:1",
            "--identity", str(tmp_path / "r.key"), "--out", str(tmp_path / "out.bin"),
        ])
        assert result.exit_code == 1
        assert result.stderr.startswith("ConnectionLost")


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
        capture_output=True, text=True,
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
