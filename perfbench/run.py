"""Seeded closed-loop benchmark of the ``bestarm`` solvers.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-ladder --seed 0 --seconds 20 --trace 0

One caller in one process runs seeded trials through ``bench.run_trials``
at delta = 0.01 with no sample budget; the next run starts when the
previous one returns.  Every run is checked (status ``ok``, the best arm,
per-arm samples summing to ``total_samples``).  ``--trace 0`` times the
runs for ``--seconds`` and prints the end-to-end metrics; ``--trace 1``
runs the fixed check grid untraced and then traced twice, and prints the
per-layer metrics.  Wall times are scaled by a machine-speed yardstick
(see ``yardstick.py``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER, Tracer, reconcile
from yardstick import REFERENCE_S, factor, yardstick_s
from workloads import DELTA, DEFAULT_SEED, REPO_ROOT, WORKLOADS, set_up

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "runs_per_s": ("1/s", "higher"),
    "run_ms.p50": ("ms", "lower"),
    "run_ms.p95": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sample_to_bound.geomean": ("ratio", "lower"),
}
SETUP_PROBES = 9  # fresh interpreters; setup_s is the median of their scaled times
MIN_TIMED_RUNS = 200  # p95 then has at least ten samples above it
SEGMENT_S = 0.25  # timed seconds between yardstick readings


def outcome_line(algo, instance, seed, outcome) -> str:
    """Canonical text of one outcome for the replay digest."""
    return json.dumps(
        [
            algo,
            instance.label,
            seed,
            outcome.status,
            None if outcome.arm is None else int(outcome.arm),
            int(outcome.total_samples),
            [int(c) for c in outcome.per_arm_samples],
            int(outcome.rounds_executed),
            None if outcome.accepted_guess_t is None else int(outcome.accepted_guess_t),
        ]
    )


def run_problem(instance, outcome) -> str | None:
    """Why a finished run counts as failed, or None when it is correct."""
    if outcome.status != "ok":
        return f"status {outcome.status!r}"
    if outcome.arm != instance.best_arm:
        return f"arm {outcome.arm} is not the best arm {instance.best_arm}"
    if sum(outcome.per_arm_samples) != outcome.total_samples:
        return "per_arm_samples do not sum to total_samples"
    return None


class Runner:
    """Drives passes of a workload and checks every run.

    During a pass, ``bench.run_one_trial`` is replaced by a shim that times
    and checks each run before ``bench.run_trials`` aggregates it.  The
    checks do not rely on the ``assert`` inside ``run_trials``, which
    ``python -O`` removes.  The shim wraps whatever is bound when the pass
    starts, so under a :class:`Tracer` it wraps the traced function.
    """

    def __init__(self, bench, workload, pairs, seed):
        self.bench = bench
        self.workload = workload
        self.pairs = pairs
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.run_ms: list[float] = []
        self._lines: list[str] = []
        self._record = False  # build outcome lines (check-grid passes only)
        self._total_samples = 0

    def _shim(self, run_one_trial):
        def timed_trial(algo, instance, delta, seed, *args, **kwargs):
            self.attempted += 1
            start = time.perf_counter()
            try:
                outcome = run_one_trial(algo, instance, delta, seed, *args, **kwargs)
            except Exception as exc:
                self._fail(f"{algo} {instance.label} seed {seed}: raised {exc!r}")
                raise
            elapsed_ms = (time.perf_counter() - start) * 1e3
            problem = run_problem(instance, outcome)
            if problem is None:
                self.run_ms.append(elapsed_ms)
            else:
                self._fail(f"{algo} {instance.label} seed {seed}: {problem}")
            if self._record:
                self._lines.append(outcome_line(algo, instance, seed, outcome))
            self._total_samples += outcome.total_samples
            return outcome

        return timed_trial

    def _fail(self, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def run_pass(self, index):
        """One pass: ``run_trials`` for every pair.

        Returns the pass's outcome lines (none outside the check grid, so
        timed passes carry no digest encoding), the ``total_samples`` it drew
        and each pair's ``sample_to_bound_ratio``.
        """
        self._lines, self._total_samples = [], 0
        self._record = index < self.workload.checked_passes
        batch = self.workload.batch
        ratios = []
        original = self.bench.run_one_trial
        self.bench.run_one_trial = self._shim(original)
        try:
            for algo, instance in self.pairs:
                try:
                    report = self.bench.run_trials(
                        algo, instance, DELTA, batch, self.seed + index * batch, budget=None
                    )
                except Exception as exc:  # recorded; the remaining pairs still run
                    self.problems.append(f"run_trials({algo}, {instance.label}) raised {exc!r}")
                    ratios.append(math.nan)
                    continue
                ratios.append(report.sample_to_bound_ratio)
        finally:
            self.bench.run_one_trial = original
        return self._lines, self._total_samples, ratios

    def run_grid(self):
        """The check grid: passes ``0 .. checked_passes - 1``."""
        lines, total, ratios = [], 0, []
        for index in range(self.workload.checked_passes):
            pass_lines, pass_total, pass_ratios = self.run_pass(index)
            lines += pass_lines
            total += pass_total
            ratios.append(pass_ratios)
        return lines, total, ratios


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def sample_to_bound_geomean(grid_ratios) -> float:
    """Geometric mean over pairs of each pair's ratio on the check grid.

    Every pass gives a pair the same number of trials, so the pair's ratio
    is the mean of its per-pass ``TrialReport.sample_to_bound_ratio``.
    """
    per_pair = [math.fsum(col) / len(col) for col in zip(*grid_ratios)]
    if not all(r > 0.0 for r in per_pair):
        return math.nan
    return math.exp(math.fsum(math.log(r) for r in per_pair) / len(per_pair))


def setup_probe_s(name) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def timed_runs(runner, seconds):
    """Closed loop of whole passes for at least ``seconds`` and the check grid.

    Pass 0 is run once untimed first, as warm-up, and must replay
    identically.  A yardstick reading is taken before the first timed pass
    and after every segment of at least ``SEGMENT_S`` timed seconds; each
    segment's wall time and run times are scaled by the readings on either
    side of it (see ``yardstick.py``).  Between segments, ``SETUP_PROBES``
    set-up probes are spread evenly over the first ``seconds``, each scaled
    by the readings on either side of it: import time swings between levels
    for tens of seconds at a time, so probes taken back to back all see one
    level.

    Returns the scaled and unscaled timed seconds, the scaled run times in
    milliseconds, the yardstick readings, the set-up probe times, and the
    check grid's outcome lines and ratios.
    """
    warm_lines, _, _ = runner.run_pass(0)
    runner.run_ms.clear()
    readings = [yardstick_s()]
    probes = []
    checked = runner.workload.checked_passes
    grid_lines, grid_ratios = [], []
    elapsed = scaled_s = segment_s = 0.0
    scaled_ms = []
    index = 0
    while True:
        start = time.perf_counter()
        lines, _, ratios = runner.run_pass(index)
        pass_s = time.perf_counter() - start
        elapsed += pass_s
        segment_s += pass_s
        if index < checked:
            grid_lines += lines
            grid_ratios.append(ratios)
        if index == 0 and lines != warm_lines:
            runner.problems.append("pass 0 did not replay its warm-up outcomes")
        index += 1
        # Stop only at a pass boundary, so every pair keeps its share of runs.
        done = (
            index >= checked
            and elapsed >= seconds
            and (len(scaled_ms) + len(runner.run_ms) >= MIN_TIMED_RUNS or elapsed >= 4 * seconds)
        )
        if done or segment_s >= SEGMENT_S:
            readings.append(yardstick_s())
            scale = factor(readings[-2:])
            scaled_s += segment_s * scale
            scaled_ms += [ms * scale for ms in runner.run_ms]
            runner.run_ms.clear()
            segment_s = 0.0
            while len(probes) < SETUP_PROBES and (done or elapsed >= len(probes) * seconds / SETUP_PROBES):
                probe_s = setup_probe_s(runner.workload.name)
                readings.append(yardstick_s())
                probes.append(probe_s * factor(readings[-2:]))
        if done:
            return scaled_s, elapsed, scaled_ms, readings, probes, grid_lines, grid_ratios


def check_digest(runner, lines) -> str:
    """Digest of the check grid; a mismatch with the stored digest is a problem."""
    value = digest(lines)
    expected = json.loads(DIGESTS.read_text()).get(runner.workload.name, {}).get(str(runner.seed))
    if expected is not None and expected != value:
        runner.problems.append(f"outcome digest {value} != stored {expected}")
    return value


def end_to_end(runner, seconds, setup_seconds):
    scaled_s, elapsed, times, readings, probes, grid_lines, grid_ratios = timed_runs(runner, seconds)
    times.sort()
    p95 = statistics.quantiles(times, n=20)[18] if len(times) >= 20 else math.nan
    metrics = {
        "runs_per_s": len(times) / scaled_s,
        "run_ms.p50": statistics.median(times) if times else math.nan,
        "run_ms.p95": p95,
        "setup_s": statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sample_to_bound.geomean": sample_to_bound_geomean(grid_ratios),
    }
    failed_share = runner.failed / runner.attempted if runner.attempted else 1.0
    outcome_digest = check_digest(runner, grid_lines)
    notes = [
        f"failed_share = {failed_share!r} share",
        f"run_ms.samples = {len(times)} count",
        f"setup_s.samples = {len(probes)} count",
        f"setup_s.this_process.unscaled = {setup_seconds!r} s",
        f"runs_per_s.unscaled = {len(times) / elapsed!r} 1/s",
        f"timed_s.unscaled = {elapsed!r} s",
        f"yardstick_ms.mean = {statistics.fmean(readings) * 1e3!r} ms"
        f" (reference {REFERENCE_S * 1e3!r} ms, {len(readings)} readings)",
        f"outcome_digest = {outcome_digest} (sha256 over {len(grid_lines)} runs)",
    ]
    return metrics, END_TO_END, notes


def per_layer(runner):
    runner.run_pass(0)  # warm-up
    start = time.perf_counter()
    plain_lines, plain_total, _ = runner.run_grid()
    plain_s = time.perf_counter() - start
    passes = []
    for _ in range(2):
        readings = [yardstick_s()]
        with Tracer() as tracer:
            start = time.perf_counter()
            lines, total, _ = runner.run_grid()
            traced_s = time.perf_counter() - start
        readings.append(yardstick_s())
        passes.append((tracer, lines, total, traced_s, factor(readings)))
    tracer, lines, total, traced_s, scale = passes[0]
    counts = tracer.count_metrics()
    if lines != plain_lines or passes[1][1] != plain_lines:
        runner.problems.append("traced outcomes differ from untraced outcomes")
    if passes[1][0].count_metrics() != counts:
        runner.problems.append("per-layer counts differ between two traced passes")
    ladder = "parallel" in runner.workload.algos
    runner.problems += reconcile(counts, None if ladder else total)
    metrics = tracer.layer_metrics()
    for name, (unit, _) in PER_LAYER.items():
        if unit in ("s", "ns") and name in metrics:
            metrics[name] *= scale
    metrics["trace.overhead"] = traced_s / plain_s - 1.0
    metrics["trace.runs"] = len(lines)
    notes = [
        f"outcome_digest = {check_digest(runner, plain_lines)} (sha256 over {len(plain_lines)} runs)",
        f"traced_digest = {digest(lines)}",
        f"total_samples = {plain_total} count",
        f"largest_self_layer = {tracer.largest_self_layer()}",
    ]
    return metrics, PER_LAYER, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        setup_seconds, pairs = set_up(args.workload)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}; run from a checkout of the repository", file=sys.stderr)
        return 2
    bestarm = sys.modules["bestarm"]
    workload = WORKLOADS[args.workload]
    runner = Runner(bestarm.bench, workload, pairs, args.seed)
    if args.trace:
        metrics, table, notes = per_layer(runner)
    else:
        metrics, table, notes = end_to_end(runner, args.seconds, setup_seconds)
    for metric, value in metrics.items():
        print(f"{args.workload} {metric} = {value!r} {table[metric][0]}")
    for note in notes:
        print(f"{args.workload} {note}")
    for problem in runner.problems:
        print(f"{args.workload} PROBLEM {problem}")
    finite = all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": runner.failed == 0 and not runner.problems and finite,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m: {"value": v if math.isfinite(v) else None, "unit": table[m][0]}
            for m, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
