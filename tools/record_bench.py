"""Record the benchmark of this tree as ``BENCH_<N>.json``, optionally against another revision.

    python3 tools/record_bench.py --pr N                    # this tree alone
    python3 tools/record_bench.py --pr N --against REV      # alternated pairs with a revision

Every run is a subprocess of ``perfbench/run.py``.  For every workload of ``BENCHMARK.json``
and each of the seeds 0 and 1000003, it makes ``PAIRS`` untraced (``--trace 0``) runs at
the benchmark's run length and records every end-to-end metric's runs, median and
quartiles; the run length and the workloads are the benchmark's, not options, so a record
can be compared with the benchmark's own runs.  With ``--against REV``, the committed tree
of ``REV`` is extracted with ``git archive`` into a temporary directory (no network,
nothing registered in the repository), this tree's ``perfbench/`` replaces its own so that
both trees run the same
benchmark, and the runs of the two trees alternate, the first of each pair switching
sides: each metric then also records the other tree's runs and the pairs this tree won
(ties count for neither side).  One traced run (``--trace 1``) of this tree per workload
and seed gives the per-layer counts, and one run of this tree's tier-1 tests (``pytest -q``
over ``tests/``, with ``src`` on the path) its wall time, under ``tier1``; the record is
refused if a tier-1 test fails.  The in-process series, under ``inprocess``, resolves steps
smaller than the benchmark's pairs can: each algorithm of ``INPROCESS_ALGOS`` runs its fixed
set (``run_one_trial`` on the three ``INPROCESS_INSTANCES`` at seeds ``0 ..
INPROCESS_SEEDS - 1``), timed as the least of ``INPROCESS_REPEAT`` passes, in a fresh
interpreter that imports ``bestarm`` from one tree's ``src``; ``INPROCESS_PAIRS`` pairs
alternate the trees as above, and each algorithm records its seconds per set and, against
``REV``, the ratio of the medians (this tree's over ``REV``'s: below 1 is faster) and the
pairs won.  Under ``bench``, one fixed ``bestarm bench`` call (``BENCH_ARGS`` over the
three ``INPROCESS_INSTANCES`` as instance files) is timed the same way: its wall seconds in
a fresh interpreter per call, import included, over ``INPROCESS_PAIRS`` alternated pairs.
The record holds the git revision (``+dirty`` when
the tree has uncommitted changes to tracked files) and ``os.cpu_count()``.  A record made
before its own commit names that commit's parent plus ``+dirty``: the tree it measured is
the commit that added the file (``git log -1 --format=%H -- BENCH_<N>.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1_000_003)  # the default seed and the seed kept out of tuning
PAIRS = 5  # per seed: the ten pairs over both seeds that a claimed gain needs
SCHEMA = 1
TIER1_SINCE = 31  # the number of the first record that times tier-1
INPROCESS_SINCE = 32  # the number of the first record with the in-process series
INPROCESS_ALGOS = ("known", "guess", "parallel", "baseline")
INPROCESS_INSTANCES = (  # three of the desk instances, as in tests/test_parallel.py
    ("pair-g0.125", (1.0, 0.875)),
    ("disc-7", (1.0, 0.5, 0.5, 0.5, 0.75, 0.75, 0.875)),
    ("flat-8", (1.0,) + (0.75,) * 7),
)
INPROCESS_SEEDS, INPROCESS_REPEAT, INPROCESS_PAIRS = 8, 9, 10
BENCH_SINCE = 33  # the number of the first record that times a ``bestarm bench`` call
BENCH_ARGS = ("bench", "--algo", "baseline", "--trials", "100", "--seed", "0")
# Run as ``python -c`` with one tree's ``src`` on the path: the CLI, then the file it came from.
BENCH_RUNNER = """
import sys
import bestarm.cli
code = bestarm.cli.main(sys.argv[1:])
print(bestarm.cli.__file__, file=sys.stderr)
sys.exit(code)
"""
# Run as ``python -c`` with one tree's ``src`` on the path: the tree's ``bestarm`` file, then
# the least of INPROCESS_REPEAT passes over each algorithm's set, in seconds.
INPROCESS_TIMER = """
import json, sys, timeit
import bestarm
algos, instances, seeds, repeat = json.loads(sys.argv[1])
cases = [(bestarm.Instance.from_means(means, label), seed) for label, means in instances for seed in range(seeds)]
def one_pass(algo):
    for instance, seed in cases:
        bestarm.run_one_trial(algo, instance, 0.01, seed)
print(json.dumps([bestarm.__file__, {a: min(timeit.repeat(lambda: one_pass(a), number=1, repeat=repeat)) for a in algos}]))
"""
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def revision() -> str:
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD") + ("+dirty" if dirty else "")


def run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result object (the last line of standard output) of one ``perfbench/run.py`` run."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"), *args], cwd=tree,
                          capture_output=True, text=True, timeout=1800, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1() -> dict:
    """The wall time of one run of this tree's tier-1 tests, and pytest's summary line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                           "-p", "no:cacheprovider"], cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.exit(f"tier-1 failed ({lines[-1] if lines else proc.returncode}): no record is written")
    return {"wall_s": wall, "summary": lines[-1]}


def imported_from_tree(source: str, tree: Path) -> None:
    """Stop when a timed interpreter imported ``bestarm`` from elsewhere than ``tree``'s ``src``."""
    if not Path(source).resolve().is_relative_to((tree / "src").resolve()):
        sys.exit(f"a timed interpreter imported bestarm from {source}, not from {tree / 'src'}")


def alternated(trees: dict, pairs: int, measure) -> dict:
    """``pairs`` rounds of ``measure(side)`` for every tree, the first of each round switching
    sides, as a list of results per side."""
    results = {side: [] for side in trees}
    for i in range(pairs):
        for side in (list(trees) if i % 2 else list(trees)[::-1]):
            results[side].append(measure(side))
    return results


def compared(values: dict) -> dict:
    """Each side's :func:`summary` of ``values`` (seconds), and against a revision the ratio of
    the medians (this tree's over ``REV``'s) and the pairs this tree won."""
    entry = {side: summary(runs) for side, runs in values.items()}
    if "against" in values:
        entry["ratio"] = entry["this"]["median"] / entry["against"]["median"]
        entry["pairs_won"] = won(values["this"], values["against"], "lower")
    return entry


def inprocess_pass(tree: Path) -> dict:
    """Seconds per set of each algorithm of ``INPROCESS_ALGOS``, timed in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    spec = json.dumps([INPROCESS_ALGOS, INPROCESS_INSTANCES, INPROCESS_SEEDS, INPROCESS_REPEAT])
    proc = subprocess.run([sys.executable, "-c", INPROCESS_TIMER, spec], cwd=tree, env=env,
                          capture_output=True, text=True, timeout=1800, check=True)
    source, seconds = json.loads(proc.stdout.strip().splitlines()[-1])
    imported_from_tree(source, tree)
    return seconds


def inprocess(trees: dict) -> dict:
    """``INPROCESS_PAIRS`` alternated in-process passes of every tree, summarised per algorithm."""
    results = alternated(trees, INPROCESS_PAIRS, lambda side: inprocess_pass(trees[side]))
    series = {"instances": [label for label, _ in INPROCESS_INSTANCES], "seeds": INPROCESS_SEEDS,
              "repeat": INPROCESS_REPEAT, "pairs": INPROCESS_PAIRS, "algos": {}}
    for algo in INPROCESS_ALGOS:
        entry = compared({side: [r[algo] for r in results[side]] for side in trees})
        series["algos"][algo] = entry
        print(f"in-process {algo}: " + ", ".join(f"{side} {entry[side]['median'] * 1e3:.1f} ms"
                                                   for side in trees), file=sys.stderr)
    return series


def bench_call(tree: Path, instances: Path, out: Path) -> float:
    """Wall seconds of one ``bestarm bench`` call, ``BENCH_ARGS`` over ``instances``, in a fresh
    interpreter that imports ``bestarm`` from ``tree``'s ``src``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    args = [sys.executable, "-c", BENCH_RUNNER, *BENCH_ARGS, "--instances", str(instances), "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True, timeout=1800, check=True)
    wall = time.perf_counter() - start
    imported_from_tree(proc.stderr.strip().splitlines()[-1], tree)
    return wall


def bench(trees: dict, tmp: Path) -> dict:
    """``INPROCESS_PAIRS`` alternated ``bestarm bench`` calls of every tree over the
    ``INPROCESS_INSTANCES``, written as instance files under ``tmp``."""
    instances = tmp / "bench_instances"
    instances.mkdir()
    for label, means in INPROCESS_INSTANCES:
        (instances / f"{label}.txt").write_text("".join(f"{m!r}\n" for m in means))
    results = alternated(trees, INPROCESS_PAIRS, lambda side: bench_call(trees[side], instances, tmp / "bench.csv"))
    entry = compared(results)
    print("bench call: " + ", ".join(f"{side} {entry[side]['median']:.3f} s" for side in trees), file=sys.stderr)
    return {"args": list(BENCH_ARGS), "instances": [label for label, _ in INPROCESS_INSTANCES],
            "pairs": INPROCESS_PAIRS, **entry}


def summary(values: list[float]) -> dict:
    """Runs, median and quartiles (the ``inclusive`` method, as numpy's default)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def won(ours: list[float], theirs: list[float], better: str) -> int:
    """Pairs in which ``ours`` reads strictly better than ``theirs``."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (a - b) > 0 for a, b in zip(ours, theirs))


def record_seed(trees: dict, workload: str, seed: int, seconds: int, metrics: dict) -> dict:
    """``PAIRS`` alternated untraced runs of every tree, then one traced run of this tree."""
    def measure(side):
        result = run(trees[side], workload, seed, seconds, trace=0)
        print(f"{workload} seed {seed} {side}: {result['metrics']['runs_per_s']['value']:.1f} runs/s",
              file=sys.stderr)
        return result

    results = alternated(trees, PAIRS, measure)
    end_to_end = {}
    for name, better in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in trees}
        entry = {side: summary(values[side]) for side in trees}
        if "against" in trees:
            entry["pairs_won"] = won(values["this"], values["against"], better)
        end_to_end[name] = entry
    traced = run(trees["this"], workload, seed, seconds, trace=1)
    counts = {name: value["value"] for name, value in traced["metrics"].items() if value["unit"] == "count"}
    correct = {side: all(r["correct"] for r in results[side]) for side in trees}
    return {"pairs": PAIRS, "correct": correct, "traced_correct": traced["correct"],
            "end_to_end": end_to_end, "counts": counts}


def validate(record: dict) -> None:
    """Raise ``ValueError`` where ``record`` does not follow the schema this script writes, or
    was not made at ``BENCHMARK.json``'s run length over all of its workloads and metrics."""
    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"BENCH record: {what}")

    need(record.get("schema") == SCHEMA, f"schema must be {SCHEMA}")
    need(type(record.get("pr")) is int and record["pr"] > 0, "pr must be a positive int")
    need(isinstance(record.get("revision"), str) and len(record["revision"].removesuffix("+dirty")) == 40,
         "revision must be a full git hash")
    need(record.get("against") is None or isinstance(record["against"], str) and len(record["against"]) == 40,
         "against must be None or a full git hash")
    need(type(record.get("cpu_count")) is int and record["cpu_count"] > 0, "cpu_count must be a positive int")
    need(record.get("seconds") == BENCHMARK["run_seconds"], f"seconds must be {BENCHMARK['run_seconds']}")
    need("tier1" in record or record["pr"] < TIER1_SINCE, f"a record numbered {TIER1_SINCE} or later must time tier-1")
    if "tier1" in record:
        tests = record["tier1"]
        need(isinstance(tests, dict) and type(tests.get("wall_s")) is float and tests["wall_s"] > 0,
             "tier1.wall_s must be a positive float")
        need(isinstance(tests.get("summary"), str) and " passed" in tests["summary"]
             and " failed" not in tests["summary"] and " error" not in tests["summary"],
             "tier1.summary must be pytest's summary of a passing run")
    sides = ("this", "against") if record.get("against") else ("this",)

    def need_timed(entry: dict, where: str) -> None:
        """One positive time per pair for every side, quartiles in order, and against a
        revision the ratio of the medians and the pairs won."""
        for side in sides:
            stats = entry.get(side, {})
            need(len(stats.get("runs", ())) == INPROCESS_PAIRS and all(
                type(t) is float and t > 0 for t in stats["runs"]), f"{where} {side}: one time per pair")
            need(stats.get("q1", 1) <= stats.get("median", 0) <= stats.get("q3", -1),
                 f"{where} {side}: q1 <= median <= q3")
        need(("ratio" in entry) == ("pairs_won" in entry) == (len(sides) == 2),
             f"{where}: a ratio and pairs won exactly when against a revision")
        if len(sides) == 2:
            need(type(entry["ratio"]) is float
                 and math.isclose(entry["ratio"], entry["this"]["median"] / entry["against"]["median"]),
                 f"{where}: ratio must be this median over against median")
            need(type(entry["pairs_won"]) is int and 0 <= entry["pairs_won"] <= INPROCESS_PAIRS,
                 f"{where}: pairs_won")

    need("inprocess" in record or record["pr"] < INPROCESS_SINCE,
         f"a record numbered {INPROCESS_SINCE} or later must hold the in-process series")
    if "inprocess" in record:
        series = record["inprocess"]
        need(isinstance(series, dict) and series.get("pairs") == INPROCESS_PAIRS
             and series.get("repeat") == INPROCESS_REPEAT and series.get("seeds") == INPROCESS_SEEDS
             and series.get("instances") == [label for label, _ in INPROCESS_INSTANCES],
             "inprocess must hold the fixed set, repeat and pairs")
        need(isinstance(series.get("algos"), dict) and tuple(series["algos"]) == INPROCESS_ALGOS,
             f"inprocess.algos must be {INPROCESS_ALGOS}")
        for algo, entry in series["algos"].items():
            need_timed(entry, f"inprocess {algo}")
    need("bench" in record or record["pr"] < BENCH_SINCE,
         f"a record numbered {BENCH_SINCE} or later must time the bench call")
    if "bench" in record:
        call = record["bench"]
        need(isinstance(call, dict) and call.get("args") == list(BENCH_ARGS) and call.get("pairs") == INPROCESS_PAIRS
             and call.get("instances") == [label for label, _ in INPROCESS_INSTANCES],
             "bench must hold the fixed call, instances and pairs")
        need_timed(call, "bench")
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    need(isinstance(record.get("workloads"), dict) and set(record["workloads"]) == workloads,
         f"workloads must be {sorted(workloads)}")
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    for workload, seeds in record["workloads"].items():
        need(sorted(seeds) == sorted(map(str, SEEDS)), f"{workload}: seeds must be {SEEDS}")
        for seed, entry in seeds.items():
            where = f"{workload} seed {seed}"
            pairs = entry.get("pairs")
            need(type(pairs) is int and pairs > 0, f"{where}: pairs must be a positive int")
            need(set(entry.get("correct", {})) == set(sides), f"{where}: correct must name {sides}")
            need(isinstance(entry.get("traced_correct"), bool), f"{where}: traced_correct must be a bool")
            need(isinstance(entry.get("end_to_end"), dict) and set(entry["end_to_end"]) == metrics,
                 f"{where}: end_to_end must hold {sorted(metrics)}")
            for name, metric in entry["end_to_end"].items():
                for side in sides:
                    stats = metric.get(side, {})
                    need(len(stats.get("runs", ())) == pairs, f"{where} {name} {side}: one run per pair")
                    need(stats.get("q1", 1) <= stats.get("median", 0) <= stats.get("q3", -1),
                         f"{where} {name} {side}: q1 <= median <= q3")
                need(("pairs_won" in metric) == (len(sides) == 2)
                     and 0 <= metric.get("pairs_won", 0) <= pairs, f"{where} {name}: pairs_won")
            counts = entry.get("counts")
            need(isinstance(counts, dict) and all(type(v) is int for v in counts.values()),
                 f"{where}: counts must map names to ints")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--against", metavar="REV")
    args = parser.parse_args(argv)
    if args.pr < 1:
        parser.error("--pr must be >= 1")
    seconds = BENCHMARK["run_seconds"]
    metrics = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    record = {"schema": SCHEMA, "pr": args.pr, "revision": revision(), "against": None,
              "cpu_count": os.cpu_count(), "python": platform.python_version(), "seconds": seconds,
              "tier1": tier1(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="record_bench_") as tmp:
        trees = {"this": ROOT}
        if args.against:
            record["against"] = git("rev-parse", "--verify", f"{args.against}^{{commit}}")
            other = Path(tmp) / "against"
            archive = Path(tmp) / "against.tar"
            git("archive", "--format=tar", f"--output={archive}", record["against"])
            other.mkdir()
            subprocess.run(["tar", "-xf", str(archive), "-C", str(other)], check=True)
            shutil.rmtree(other / "perfbench", ignore_errors=True)
            shutil.copytree(ROOT / "perfbench", other / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            trees["against"] = other
        record["inprocess"] = inprocess(trees)
        record["bench"] = bench(trees, Path(tmp))
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            record["workloads"][workload] = {
                str(seed): record_seed(trees, workload, seed, seconds, metrics) for seed in SEEDS
            }
    validate(record)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
