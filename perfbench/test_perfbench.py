"""Self-test of the benchmark: short runs of every workload, traced and not.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q

Takes about two minutes; the traced run of ``desk-baseline`` is the
longest part.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = json.loads((HERE / "digests.json").read_text())


def bench(workload, trace, cwd=ROOT, seed=DEFAULT_SEED):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def parse(proc):
    """(result object, {note name: first word of its value}) of a finished run."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    notes = {}
    for line in lines[:-1]:
        words = line.split()
        if len(words) >= 4 and words[2] == "=":
            notes[words[1]] = words[3]
    return json.loads(lines[-1]), notes


def test_spec_names_the_benchmark_metrics():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER
    assert set(DIGESTS) == set(WORKLOADS)
    for stored in DIGESTS.values():
        assert set(stored) == {str(DEFAULT_SEED), str(HELD_OUT_SEED)}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_is_correct_and_replays(workload):
    result, notes = parse(bench(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m: unit for m, (unit, _) in END_TO_END.items()
    }
    assert notes["failed_share"] == "0.0"
    assert notes["outcome_digest"] == DIGESTS[workload][str(DEFAULT_SEED)]


def test_held_out_seed_replays():
    result, notes = parse(bench("desk-solvers", trace=0, seed=HELD_OUT_SEED))
    assert result["correct"]
    assert notes["outcome_digest"] == DIGESTS["desk-solvers"][str(HELD_OUT_SEED)]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_keeps_outcomes_and_reconciles(workload):
    # The run itself fails `correct` when the traced digest differs from the
    # untraced one, when two traced passes count differently, or when the
    # draw ledger does not balance.
    result, notes = parse(bench(workload, trace=1))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)
    assert notes["traced_digest"] == notes["outcome_digest"] == DIGESTS[workload][str(DEFAULT_SEED)]
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    charged = sum(v for m, v in metrics.items() if m.startswith("primitives.draws."))
    assert charged + metrics["solvers.draws.direct"] == metrics["oracle.draws"]
    if workload != "desk-ladder":
        assert metrics["oracle.draws"] == int(notes["total_samples"])


def test_counts_repeat_across_traced_processes():
    counts = []
    for _ in range(2):
        result, _ = parse(bench("desk-solvers", trace=1))
        counts.append({m: v["value"] for m, v in result["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("desk-solvers", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
