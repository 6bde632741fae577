import csv
import io
import json
import subprocess
import sys
from decimal import Decimal

import pytest
from click.testing import CliRunner

from thermoledger import exchange
from thermoledger.cli import main
from thermoledger.dagstore import ObjectStore

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
