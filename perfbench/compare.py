"""Paired comparison of two thermoledger source trees on the benchmark.

    python3 perfbench/compare.py PARENT_TREE CHANGE_TREE [--pairs 10] [--workloads a,b]

Both trees run this copy of the benchmark (run.py is started with each
tree as its working directory, so only ``src/`` differs), for BENCHMARK.json's
``run_seconds``. Pair k uses seed SEED_BASE + k, and the side that runs
first alternates from pair to pair.
One row per (metric, workload): each side's median and quartiles, the
share of pairs the change wins (ties count for neither side), and a
verdict:

* ``unresolved``: the parent's own spread (quartile distance over the
  median) exceeds the metric's bound, and the runs of the two sides
  overlap;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``better``: the change wins at least 9 pairs in 10 and the medians
  differ by more than the parent's quartile distance;
* ``same``: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED_BASE = 1000


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """Metric name -> (value, unit, better, bound) from one untraced run."""
    seconds = str(SPEC["run_seconds"])
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree} {workload} seed {seed}: outputs incorrect ({result['failed']} failed ops)")
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    values = {
        name: (m["value"], m["unit"], spec[name]["better"], spec[name]["bound"])
        for name, m in result["metrics"].items()
    }
    named = json.loads(next(line for line in lines if line.startswith("named "))[len("named "):])
    for name, m in named.items():
        values.setdefault(name, (m["value"], m["unit"], m["better"], m["bound"]))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[float, str]:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    win_share = wins / (wins + losses) if wins + losses else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = (p3 - p1) / abs(pm) if pm else p3 - p1
    worse_by = -sign * (cm - pm) / abs(pm) if pm else -sign * (cm - pm)
    separated = min(sign * c for c in change) > max(sign * p for p in parent) or max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not separated:
        return win_share, "unresolved"
    if worse_by > bound:
        return win_share, "worse"
    if win_share >= 0.9 and abs(cm - pm) > p3 - p1:
        return win_share, "better"
    return win_share, "same"


def main() -> None:
    parser = argparse.ArgumentParser(description="paired parent/change comparison")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")

    runs: dict[tuple[str, str], list[dict]] = {}
    for k in range(args.pairs):
        sides = (("parent", args.parent), ("change", args.change))
        for workload in args.workloads.split(","):
            for side, tree in sides if k % 2 == 0 else sides[::-1]:
                runs.setdefault((side, workload), []).append(run_once(tree.resolve(), workload, SEED_BASE + k))
                print(f"pair {k} {workload} {side} done", file=sys.stderr, flush=True)

    header = f"{'metric':22} {'workload':14} {'unit':17} {'parent median [q1, q3]':34} {'change median [q1, q3]':34} {'win':>5}  verdict"
    print(header)
    for workload in args.workloads.split(","):
        parent_runs, change_runs = runs[("parent", workload)], runs[("change", workload)]
        for name, (_, unit, better, bound) in parent_runs[0].items():
            parent = [r[name][0] for r in parent_runs]
            change = [r[name][0] for r in change_runs]
            win, word = verdict(parent, change, better, bound)
            cells = []
            for values in (parent, change):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{name:22} {workload:14} {unit:17} {cells[0]:34} {cells[1]:34} {win:5.2f}  {word}")


if __name__ == "__main__":
    main()
