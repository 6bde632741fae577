"""thermoledger benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ingest_wide --seed 1 --seconds 15 --trace 0

Run from the root of a thermoledger source tree; the program is imported
from ``./src``. Inputs come from ``--seed``. Set-up is timed separately,
several times spread over the run, and the median is reported. Every op's
output is checked.

Output: a ``provenance`` line, a ``named`` line with the workload's
metrics under their descriptive names, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the ``end_to_end`` list of BENCHMARK.json;
with ``--trace 1`` they are its ``per_layer`` list, taken from a run in
which every other op of each kind is traced (the untraced ones give the
tracing overhead). ``--smoke`` shrinks every input and ignores timing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import Tracer, install_client

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# Set-ups are spread over the run rather than made back to back: a shared
# host's speed drifts over seconds, and a median of set-ups made within a
# few seconds tracks that drift far more than the ops' metrics do. A run
# times at least SETUP_MIN_REPEATS set-ups, and more when they are quick,
# so that about SETUP_MIN_SECONDS of set-up is timed.
SETUP_MIN_REPEATS = 15
SETUP_MIN_SECONDS = 4.0
SMOKE_MAX_ITERATIONS = 200
MIB = 1024 * 1024
# The workload's metrics under descriptive names: unit, better, and the
# end_to_end metric whose bound they share. The medians are reported here
# but not gated: on a host whose speed switches between two states for
# tens of seconds at a time, a run's median jumps to whichever state held
# most of the run, while p90 and the rates move far less.
NAMED = {
    "setup_s": ("s", "lower", "setup_s"),
    "peak_rss_mib": ("MiB", "lower", "peak_rss_mib"),
    "failed_ops_ratio": ("failed/attempted", "lower", "ok_ops_ratio"),
    "ingest_tx_per_s": ("tx/s", "higher", "write_mib_per_s"),
    "ingest_p50_ms": ("ms", "lower", "op_p90_ms"),
    "ingest_p90_ms": ("ms", "lower", "op_p90_ms"),
    "read_p50_ms": ("ms", "lower", "op_p90_ms"),
    "read_p90_ms": ("ms", "lower", "op_p90_ms"),
    "verify_tx_per_s": ("tx/s", "higher", "read_mib_per_s"),
    "publish_mib_per_s": ("MiB/s", "higher", "write_mib_per_s"),
    "fetch_mib_per_s": ("MiB/s", "higher", "read_mib_per_s"),
    "fetch_p50_ms": ("ms", "lower", "op_p90_ms"),
    "fetch_p90_ms": ("ms", "lower", "op_p90_ms"),
    "fetch_small_p50_ms": ("ms", "lower", "op_p90_ms"),
    "fetch_small_p90_ms": ("ms", "lower", "op_p90_ms"),
    "store_bytes_per_byte": ("B/B", "lower", "disk_bytes_per_byte"),
}
MODULES = ("cli", "canonical", "keys", "ledger", "telemetry", "dagstore", "envelope", "exchange")


class Sample:
    __slots__ = ("kind", "seconds", "traced", "ok", "work")

    def __init__(self, kind: str, traced: bool):
        self.kind = kind
        self.traced = traced
        self.seconds = 0.0
        self.ok = True
        self.work: dict[str, float] = {}


class Recorder:
    """Times one program call at a time and keeps every sample.

    In a traced run every other op of each kind is traced, so traced and
    untraced ops see the same mix and the difference is tracing overhead.
    """

    def __init__(self, tracer: Tracer, trace: bool):
        self.tracer = tracer
        self.trace = trace
        self.samples: list[Sample] = []
        self.kind_counts: dict[str, int] = {}

    def time(self, kind: str, span_name: str, fn):
        count = self.kind_counts.get(kind, 0)
        self.kind_counts[kind] = count + 1
        sample = Sample(kind, self.trace and count % 2 == 1)
        self.samples.append(sample)
        tracer = self.tracer
        if sample.traced:
            install_client(tracer)
            tracer.op_id = len(self.samples)
            tracer.enabled = True
        result = None
        start = time.perf_counter()
        try:
            with tracer.span(span_name):
                result = fn()
        except Exception as exc:  # a failed op is counted, not fatal
            sample.ok = False
            print(f"op {kind} failed: {exc!r}", file=sys.stderr)
        sample.seconds = time.perf_counter() - start
        if sample.traced:
            tracer.enabled = False
            tracer.unwrap_all()
        return sample, result


def covered(workload, samples: list[Sample], trace: bool) -> bool:
    """Smoke runs go on until every op kind has untraced (and traced) samples."""
    for kind in workload.kinds:
        of_kind = [s for s in samples if s.kind == kind]
        if sum(not s.traced for s in of_kind) < 2 or (trace and not any(s.traced for s in of_kind)):
            return False
    return True


def _p50_p90_ms(seconds: list[float]) -> tuple[float, float]:
    if len(seconds) < 2:
        raise RuntimeError(f"need at least 2 latency samples, got {len(seconds)}")
    return statistics.median(seconds) * 1000, statistics.quantiles(seconds, n=10)[8] * 1000


def peak_rss_mib(child_pids: list[int]) -> float:
    """High-water RSS of this process plus that of the program's live child processes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fp:
            kib += next(int(line.split()[1]) for line in fp if line.startswith("VmHWM:"))
    return kib / 1024


def measure_end_to_end(workload, samples: list[Sample], setup_times: list[float], rss_mib: float, disk_ratio: float) -> tuple[dict, dict]:
    """Contract metrics and the workload's named metrics from untraced samples."""
    from workloads import rate

    untraced = [s for s in samples if not s.traced]
    good = [s for s in untraced if s.ok]
    p50, p90 = _p50_p90_ms([s.seconds for s in good if s.kind in workload.main_kinds])
    read_mib_per_s, write_mib_per_s = workload.rates(good, setup_times)
    failed_ratio = sum(not s.ok for s in untraced) / len(untraced)
    common = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": rss_mib,
    }
    metrics = dict(
        common,
        ok_ops_ratio=1 - failed_ratio,
        op_p90_ms=p90,
        read_mib_per_s=read_mib_per_s,
        write_mib_per_s=write_mib_per_s,
        disk_bytes_per_byte=disk_ratio,
    )
    named = dict(common, failed_ops_ratio=failed_ratio)
    if workload.name == "ingest_wide":
        named.update(ingest_tx_per_s=rate(good, ("ingest",), "tx"), ingest_p50_ms=p50, ingest_p90_ms=p90)
    elif workload.name == "replay_read":
        named.update(read_p50_ms=p50, read_p90_ms=p90, verify_tx_per_s=rate(good, ("verify",), "tx"))
    else:
        all_p50, all_p90 = _p50_p90_ms([s.seconds for s in good if s.kind.startswith("fetch_")])
        named.update(
            publish_mib_per_s=write_mib_per_s,
            fetch_mib_per_s=read_mib_per_s,
            fetch_p50_ms=all_p50,
            fetch_p90_ms=all_p90,
            fetch_small_p50_ms=p50,
            fetch_small_p90_ms=p90,
            store_bytes_per_byte=disk_ratio,
        )
    return metrics, named


def measure_per_layer(workload, samples: list[Sample], client: dict, server: dict | None) -> dict:
    """Per-layer metrics, per traced op unless the name says otherwise.

    ``<span>.calls`` / ``.s`` / ``.self_s`` are call counts, inclusive and
    self seconds; any other suffix is a quantity the wrapper measured.
    ``cli.<command>.self_s`` is per invocation of that command;
    ``exchange.server.*`` is per op over the whole run (the server is
    traced throughout); ``share.<module>`` is the module's self time as a
    share of traced op time, with ``share.bench`` the op roots' own time.
    """
    traced = [s for s in samples if s.traced]
    ops = len(traced)
    op_seconds = sum(s.seconds for s in traced)
    calls, self_s, qty = client["calls"], client["self_s"], client["quantity"]

    def div(a: float, b: float) -> float:
        return a / b if b else 0.0

    def stat(name: str, table: dict, per: float) -> float:
        span, _, field = name.rpartition(".")
        if field == "calls":
            return div(table["calls"].get(span, 0), per)
        if field == "s":
            return div(table["total_s"].get(span, 0.0), per)
        if field == "self_s":
            return div(table["self_s"].get(span, 0.0), per)
        return div(table["quantity"].get(name, 0.0), per)

    main = [s for s in samples if s.ok and s.kind in workload.main_kinds]
    untraced_p50 = statistics.median([s.seconds for s in main if not s.traced]) * 1000
    traced_p50 = statistics.median([s.seconds for s in main if s.traced]) * 1000
    special = {
        "dagstore.put.new_ratio": div(qty.get("dagstore.put.new", 0), calls.get("dagstore.put", 0)),
        "envelope.encrypt_for.bytes_ratio": div(qty.get("envelope.encrypt_for.out", 0), qty.get("envelope.encrypt_for.in", 0)),
        "exchange.wire_bytes_per_byte": div(
            qty.get("exchange.read_frame.bytes", 0) + qty.get("exchange.write_frame.bytes", 0),
            qty.get("envelope.decrypt.bytes", 0),
        ),
        "trace.op_p50_ms.untraced": untraced_p50,
        "trace.op_p50_ms.traced": traced_p50,
        "trace.overhead_ratio": traced_p50 / untraced_p50 - 1,
        "share.bench": div(sum(v for k, v in self_s.items() if k.startswith("op.")), op_seconds),
    }
    for module in MODULES:
        special[f"share.{module}"] = div(sum(v for k, v in self_s.items() if k.startswith(module + ".")), op_seconds)

    values = {}
    for entry in SPEC["per_layer"]:
        name = entry["name"]
        if name in special:
            values[name] = special[name]
        elif name.startswith("exchange.server."):
            values[name] = stat(name, server, len(samples)) if server else 0.0
        elif name.startswith("cli."):
            values[name] = div(self_s.get(name.rsplit(".", 1)[0], 0.0), calls.get(name.rsplit(".", 1)[0], 0))
        else:
            values[name] = stat(name, client, ops)
    return values


def provenance(args) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, timeout=30
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        git = []
    # a checkout nested inside another repository must not borrow its commit
    commit = git[1] if len(git) == 2 and Path(git[0]) == Path.cwd() else "unknown (not a git checkout)"
    cpus = len(os.sched_getaffinity(0))
    return {
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": cpus,
        "python": platform.python_version(),
        "cryptography": metadata.version("cryptography"),
        "click": metadata.version("click"),
        "kernel": platform.release(),
        "network": "file_exchange traffic crosses loopback (127.0.0.1) only",
        "caveat": f"{cpus} CPUs shared with other tenants: latencies include their load; compare only paired runs on one host",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, no timing gates")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "thermoledger" / "__init__.py").is_file():
        print(f"error: no thermoledger sources under {src}; run from the root of a source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    out_dir = Path.cwd() / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "spare").mkdir()
    cls = {w.name: w for w in (workloads.IngestWide, workloads.ReplayRead, workloads.FileExchange)}[args.workload]
    workload = cls(work, random.Random(args.seed), args.smoke)
    spare = cls(work / "spare", random.Random(args.seed), args.smoke)  # same inputs, set up only to be timed
    workload.trace_server = bool(args.trace)

    def timed_setup(instance) -> float:
        start = time.perf_counter()
        instance.setup()
        return time.perf_counter() - start

    try:
        # The spare's first set-up comes before the ops, so that the memory
        # high-water mark holds one spare from the start, whatever the run's speed.
        setup_times = [timed_setup(spare)]
        spare.close()
        setup_times.append(timed_setup(workload))
        workload.after_setup()
        repeats = len(setup_times) if args.smoke else max(SETUP_MIN_REPEATS, math.ceil(SETUP_MIN_SECONDS / setup_times[-1]))

        tracer = Tracer()
        rec = Recorder(tracer, bool(args.trace))
        deadline = time.perf_counter() + args.seconds
        spacing = args.seconds / (repeats - 1)
        next_setup = deadline - args.seconds + spacing
        i = 0
        while True:
            now = time.perf_counter()
            if len(setup_times) < repeats and now >= next_setup:
                setup_times.append(timed_setup(spare))
                spare.close()
                paused = time.perf_counter() - now  # set-up time does not count against the ops
                deadline += paused
                next_setup += spacing + paused
                continue
            if now >= deadline:
                if not args.smoke or covered(workload, rec.samples, bool(args.trace)) or i >= SMOKE_MAX_ITERATIONS:
                    break
            workload.iteration(i, rec)
            i += 1
            if i == workload.rss_iterations:
                rss_mib = peak_rss_mib(workload.child_pids())
        if i < workload.rss_iterations:
            rss_mib = peak_rss_mib(workload.child_pids())
        correct = workload.finish()
        disk_ratio = workload.disk_bytes_per_byte()
    finally:
        workload.close()
        spare.close()
        shutil.rmtree(work, ignore_errors=True)

    samples = rec.samples
    failed = sum(not s.ok for s in samples)
    correct = correct and failed == 0
    metrics, named = measure_end_to_end(workload, samples, setup_times, rss_mib, disk_ratio)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    print("named " + json.dumps({
        k: {"value": v, "unit": NAMED[k][0], "better": NAMED[k][1], "bound": bounds[NAMED[k][2]]} for k, v in named.items()
    }))
    if args.trace:
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(str(spans_path))
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(Path.cwd())}")
        layer = measure_per_layer(workload, samples, tracer.totals(), getattr(workload, "server_totals", None))
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        chosen = layer
    else:
        chosen = {name: metrics[name] for name in units}
    result = {
        "correct": bool(correct),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": chosen[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
