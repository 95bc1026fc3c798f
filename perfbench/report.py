"""Run every workload over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/report.py

For each workload, runs ``run.py`` once per seed in ``SEEDS`` for
``run_seconds`` from ``BENCHMARK.json`` with ``--trace 0``, and once at the
default seed with ``--trace 1``, one process at a time.  Prints, per workload and metric, the median, the
quartiles, and the spread (quartile distance over the median) next to the
bound from ``BENCHMARK.json``.  Exits 1 if any run is not correct.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    """The result object of one run and its ``run_ms.samples`` note (0 if absent)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    samples = [int(line.split()[3]) for line in lines if line.split()[1:2] == ["run_ms.samples"]]
    return json.loads(lines[-1]), samples[0] if samples else 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    all_correct = True
    traced = {}
    print("| workload | metric | unit | median | q1 | q3 | spread | bound | runs |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        values, samples = {}, []
        for seed in SEEDS:
            result, run_samples = run(workload, seed, seconds, trace=0)
            all_correct &= result["correct"]
            samples.append(run_samples)
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        for name, (unit, vals) in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            print(
                f"| {workload} | {name} | {unit} | {median:.6g} | {q1:.6g} | {q3:.6g} "
                f"| {(q3 - q1) / median:.3f} | {bounds[name]} | {len(vals)} |",
                flush=True,
            )
        print(f"| {workload} | run_ms.samples per run | count | {statistics.median(samples):g} "
              f"| {min(samples)} (min) | {max(samples)} (max) | | | {len(samples)} |", flush=True)
        traced[workload], _ = run(workload, DEFAULT_SEED, seconds, trace=1)
        all_correct &= traced[workload]["correct"]
    print(f"\n| per-layer metric (seed {DEFAULT_SEED}) | unit | " + " | ".join(traced) + " |")
    print("|---|---|" + "---|" * len(traced))
    for name, (unit, _) in PER_LAYER.items():
        cells = " | ".join(
            f"{v}" if isinstance(v, int) else f"{v:.4g}"
            for v in (result["metrics"][name]["value"] for result in traced.values())
        )
        print(f"| {name} | {unit} | {cells} |")
    print(f"all runs correct: {all_correct}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
