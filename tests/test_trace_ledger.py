"""Tier-1 guard of the benchmark's draw ledger.

Runs a few solver and sign-reduction runs under the per-layer tracer of
``perfbench/`` and checks that its ledger reconciles: every oracle draw goes
through a traced sampler inside a request, and off the ladder the draws
charged to each primitive match the runs' round events and
``total_samples``.  A draw that bypasses the traced samplers fails here, not
only in the benchmark's self-test.
"""

import sys
from pathlib import Path

from bestarm import Instance, bench, make_discrete_instance, signxi, solvers

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import Tracer, reconcile  # noqa: E402

WIDE = make_discrete_instance({1: 20, 2: 20, 3: 19}, 1.0, label="wide-60")
PAIR = Instance.from_means((1.0, 0.5), label="pair-g0.5")
DISC = Instance.from_means((1.0, 0.5, 0.5, 0.5, 0.75, 0.75, 0.875), label="disc-7")


def traced_runs(runs):
    """Outcomes of ``runs`` untraced, then traced, and the tracer's counts."""
    plain = [run() for run in runs]
    with Tracer() as tracer:
        traced = [run() for run in runs]
    return plain, traced, tracer.count_metrics()


def test_solver_draws_reconcile_under_the_tracer():
    assert WIDE.n_arms == 60
    runs = [
        lambda: bench.run_one_trial("known", WIDE, 0.01, 0, budget=None),
        lambda: bench.run_one_trial("guess", WIDE, 0.01, 0, budget=None),
        lambda: bench.run_one_trial("baseline", PAIR, 0.01, 0, budget=None),
    ]
    plain, traced, counts = traced_runs(runs)
    assert traced == plain
    assert counts["bench.trials"] == 3
    assert counts["oracle.draws"] > 0
    assert reconcile(counts, sum(out.total_samples for out in traced)) == []


def test_sign_reduction_draws_reconcile_under_the_tracer():
    runs = [
        lambda mu=mu, seed=seed: signxi.run_sign_trial(mu, 0.05, seed, budget=None)
        for mu, seed in ((0.25, 0), (-0.25, 1), (0.125, 2))
    ]
    plain, traced, counts = traced_runs(runs)
    assert traced == plain
    assert counts["oracle.draws"] > 0
    assert reconcile(counts, sum(res.outcome.total_samples for res in traced)) == []


def test_ladder_draws_reconcile_under_the_tracer():
    oracles = []  # the copies' oracles of the latest run

    def inner(oracle, instance, delta_k):
        oracles.append(oracle)
        return solvers.complexity_guessing_plan(oracle, instance, delta_k)

    def ladder():
        oracles.clear()
        return bench.parallel_simulation(DISC, 0.01, inner, seed=0, budget=None)

    plain, traced, counts = traced_runs([ladder])
    assert traced == plain
    assert counts["parallel.copies"] == len(oracles)
    assert counts["parallel.events"] > 0
    assert reconcile(counts, None) == []
    # every draw of every copy went through a traced sampler
    assert counts["oracle.draws"] == sum(oracle.total for oracle in oracles)
