"""Smoke tests for the benchmark: tiny inputs, no timing gates.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # Started with SIGINT ignored, as a background job of a non-interactive
    # shell is: the site A server must still stop on the runner's SIGINT.
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert "did not stop" not in proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    named = json.loads(next(line for line in lines if line.startswith("named "))[6:])
    assert named["failed_ops_ratio"]["value"] == 0
    provenance = json.loads(next(line for line in lines if line.startswith("provenance "))[11:])
    assert provenance["seed"] == 7 and provenance["workload"] == workload
    if trace:
        check_layers_separate(workload, {k: v["value"] for k, v in result["metrics"].items()})


def check_layers_separate(workload: str, m: dict) -> None:
    if workload == "ingest_wide":
        assert m["ledger.apply_tx.calls"] == m["telemetry.pump.tx"] > 0
        assert m["keys.sign.calls"] == m["telemetry.pump.tx"] + 1  # one seal per batch
        assert m["ledger.load_chain.s"] == m["envelope.encrypt_for.s"] == m["exchange.fetch_dag.s"] == 0
    elif workload == "replay_read":
        assert m["ledger.verify_chain.tx"] > 0 and m["keys.verify.calls"] > m["ledger.verify_chain.tx"]
        assert m["telemetry.pump.s"] == m["keys.sign.calls"] == m["exchange.fetch_dag.s"] == 0
    else:
        assert m["share.ledger"] == m["share.keys"] == m["share.telemetry"] == 0
        assert m["exchange.request_node.calls"] > 0 and m["exchange.server.get_bytes.s"] > 0
        assert m["dagstore.put.new_ratio"] == 1.0
        assert 1.3 < m["envelope.encrypt_for.bytes_ratio"] < 1.4
    shares = sum(v for k, v in m.items() if k.startswith("share."))
    assert 0.9 < shares <= 1.0 + 1e-9


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("replay_read", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.total_s["outer"] >= tracer.total_s["inner"] >= 0.02
    assert tracer.self_s["outer"] == pytest.approx(tracer.total_s["outer"] - tracer.total_s["inner"])
    assert [span[3] for span in tracer.spans] == [-1, 0]


def test_wrap_records_quantities_and_unwraps():
    class Box:
        @staticmethod
        def double(x):
            return x * 2

    tracer = Tracer()
    tracer.wrap(Box, "double", "box.double", measure=lambda a, r, p: {"in": a[0]})
    tracer.enabled = True
    assert Box.double(3) == 6
    tracer.unwrap_all()
    assert Box.double(4) == 8
    assert tracer.calls["box.double"] == 1 and tracer.quantity["box.double.in"] == 3


def test_compare_verdicts():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1) == (1.0, "better")
    assert compare.verdict(parent, [v * 1.3 for v in parent], "lower", 0.1) == (0.0, "worse")
    assert compare.verdict(parent, parent, "lower", 0.1)[1] == "same"
    noisy = [60.0, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[1] == "unresolved"
