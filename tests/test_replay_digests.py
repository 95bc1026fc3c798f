"""Tier-1 guard of the benchmark's replay digests.

Runs the benchmark's check grid of every workload at seed 0 and at the
held-out seed, with the benchmark's own runner (read from ``perfbench/``,
not copied) and compares the outcome digest with ``perfbench/digests.json``.
A change that moves any outcome fails here, not only in the benchmark.
``GOLDEN_DIGEST`` in ``test_parallel.py`` guards the ladder on other grids,
budget stops included.
"""

import json
import sys
from pathlib import Path

import pytest

import bestarm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from run import Runner, digest  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, set_up  # noqa: E402

DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize(
    "name, seed",
    [("desk-solvers", DEFAULT_SEED), ("desk-solvers", HELD_OUT_SEED),
     ("wide-solvers", DEFAULT_SEED), ("wide-solvers", HELD_OUT_SEED),
     ("desk-ladder", DEFAULT_SEED), ("desk-ladder", HELD_OUT_SEED),
     ("desk-baseline", DEFAULT_SEED), ("desk-baseline", HELD_OUT_SEED)],
    ids=["desk-solvers", f"desk-solvers-{HELD_OUT_SEED}", "wide-solvers", f"wide-solvers-{HELD_OUT_SEED}",
         "desk-ladder", f"desk-ladder-{HELD_OUT_SEED}",
         "desk-baseline", f"desk-baseline-{HELD_OUT_SEED}"],
)
def test_check_grid_replays_the_stored_digest(name, seed):
    _, pairs = set_up(name)
    runner = Runner(bestarm.bench, WORKLOADS[name], pairs, seed)
    lines, _, _ = runner.run_grid()
    assert runner.failed == 0 and runner.problems == []
    assert len(lines) == runner.attempted
    assert digest(lines) == DIGESTS[name][str(seed)]
