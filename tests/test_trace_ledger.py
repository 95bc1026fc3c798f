"""Tier-1 guard of the benchmark's draw ledger.

Runs a few solver and sign-reduction runs under the per-layer tracer of
``perfbench/`` and checks that its ledger reconciles: every oracle draw goes
through a traced sampler inside a request, and off the ladder the draws
charged to each primitive match the runs' round events and
``total_samples``.  A draw that bypasses the traced samplers fails here, not
only in the benchmark's self-test.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from bestarm import Instance, SamplingOracle, bench, make_discrete_instance, profile, signxi, solvers

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


# Each request phase and the tracer count its draws land in: the phases name
# the same split of a round's draws as the tracer's outermost-primitive origins.
PHASE_COUNTS = {
    "med": "primitives.draws.med_elim",
    "anchor": "primitives.draws.unif_sampl",
    "frac": "primitives.draws.frac_test",
    "elim": "primitives.draws.elimination",
    "baseline": "solvers.draws.direct",
}


def test_phase_ledger_matches_the_tracer_attribution():
    runs = [
        (WIDE, "known_complexity_plan", (profile(WIDE).H,)),
        (DISC, "known_complexity_plan", (profile(DISC).H,)),
        (WIDE, "complexity_guessing_plan", ()),
        (DISC, "complexity_guessing_plan", ()),
        (DISC, "baseline_successive_elimination_plan", ()),
    ]
    ledger = Counter()
    with Tracer() as tracer:  # plans are looked up by name here: the tracer rebinds them
        for inst, plan, args in runs:
            oracle = SamplingOracle.for_instance(inst, seed=0)
            solvers.solve(getattr(solvers, plan), oracle, inst, 0.01, *args)
            ledger.update(oracle.draws_by_phase)
    counts = tracer.count_metrics()
    assert set(ledger) == set(PHASE_COUNTS)
    assert {phase: counts[name] for phase, name in PHASE_COUNTS.items()} == dict(ledger)
    assert counts["oracle.draws"] == sum(ledger.values())


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


def test_a_traced_baseline_run_makes_one_sampler_call_per_listed_arm():
    # a block of rounds is one request and one sampler call per survivor, not one per round
    requests = []

    def recording(oracle, instance, delta, emit=None):
        # looked up by name: the tracer rebinds the plan, so its requests are tagged
        inner = solvers.baseline_successive_elimination_plan(oracle, instance, delta, emit=emit)
        reply = None
        while True:
            try:
                request = inner.send(reply)
            except StopIteration as stop:
                return stop.value
            requests.append(request)
            reply = yield request

    with Tracer() as tracer:
        oracle = SamplingOracle.for_instance(DISC, seed=0)
        outcome = solvers.solve(recording, oracle, DISC, 0.01)
    counts = tracer.count_metrics()
    assert outcome.status == "ok" and max(request.rounds for request in requests) > 1
    assert counts["primitives.requests"] == len(requests)
    assert counts["oracle.calls"] == sum(len(request.arms) for request in requests)
    assert counts["oracle.draws"] == counts["solvers.draws.direct"] == outcome.total_samples
    assert outcome.total_samples == sum(request.cost for request in requests)
    assert reconcile(counts, outcome.total_samples) == []


def test_sign_reduction_draws_reconcile_under_the_tracer():
    runs = [
        lambda mu=mu, seed=seed: bench.run_one_trial(
            "guess", signxi.sign_instance(mu), 0.05, seed, budget=None
        )
        for mu, seed in ((0.25, 0), (-0.25, 1), (0.125, 2))
    ]
    plain, traced, counts = traced_runs(runs)
    assert traced == plain
    assert counts["oracle.draws"] > 0
    assert reconcile(counts, sum(out.total_samples for out in traced)) == []


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


def test_draws_past_int64_reconcile_under_the_tracer():
    # gap 2^-16: the fraction tests' draw counts pass the int64 range
    far = Instance.from_means((1.0, 0.9999847412109375), label="pair-g2^-16")
    runs = [lambda algo=algo: bench.run_one_trial(algo, far, 0.01, 0) for algo in ("known", "guess")]
    plain, traced, counts = traced_runs(runs)
    assert traced == plain
    assert min(out.total_samples for out in traced) > 2**63
    assert reconcile(counts, sum(out.total_samples for out in traced)) == []

    finished = []  # the winning copy's oracle of the latest run

    def inner(oracle, instance, delta_k):
        result = yield from solvers.complexity_guessing_plan(oracle, instance, delta_k)
        finished.append(oracle)
        return result

    def ladder():
        finished.clear()
        return bench.parallel_simulation(far, 0.01, inner, seed=0)

    plain, traced, counts = traced_runs([ladder])
    assert traced == plain
    assert len(finished) == 1 and finished[0].total > 2**63
    assert counts["ladder.useful_draws"] == finished[0].total
    assert reconcile(counts, None) == []


def test_a_delta_too_small_is_named_under_the_tracer():
    # the tracer's plan wrappers hide each plan's signature; ``solve`` still
    # names the delta it was given, as an untraced run does
    for algo, delta in (("known", 5e-324), ("guess", 1e-160)):
        message = f"delta {delta!r} too small: a derived value left the float range"
        with Tracer(), pytest.raises(ValueError) as raised:
            bench.run_one_trial(algo, PAIR, delta, 0)
        assert str(raised.value) == message
