import hashlib
import json
import math
from dataclasses import asdict

import pytest

from bestarm import (
    BUDGET_EXCEEDED,
    OK,
    REJECTED,
    Instance,
    SamplingOracle,
    baseline_successive_elimination,
    complexity_guessing,
    entropy_elimination,
    known_complexity,
    make_discrete_instance,
    profile,
)
from bestarm.solvers import (
    C_ROUNDS,
    ee_round_delta,
    elim_thresholds,
    frac_thresholds,
    kc_round_delta,
    round_eps,
    se_radius,
    theta_step,
)
from doubles import DeterministicOracle

TWO_ARM = Instance.from_means((1.0, 0.5), label="two-arm")


def gauss(instance, seed):
    return SamplingOracle.for_instance(instance, seed=seed)


class TestRoundSchedules:
    def test_known_complexity_round_three(self):
        assert round_eps(3) == 0.125
        assert kc_round_delta(0.01, 3) == pytest.approx(0.01 / 90, rel=1e-12)

    def test_frac_thresholds_at_round_two(self):
        c_lo, c_hi = frac_thresholds(0.9, round_eps(2))
        assert c_lo == pytest.approx(0.4625, abs=1e-12)
        assert c_hi == pytest.approx(0.61875, abs=1e-12)

    def test_elim_thresholds(self):
        d_lo, d_hi = elim_thresholds(1.0, 0.5)
        assert d_lo == 0.625
        assert d_hi == 0.6875

    def test_theta_ladder_first_step(self):
        assert C_ROUNDS == pytest.approx(math.log(100, 4), rel=1e-15)
        theta_1 = 0.3 + theta_step(1, 1)
        assert theta_1 == pytest.approx(0.3186, abs=1e-4)

    def test_guess_round_delta(self):
        assert ee_round_delta(0.01, 2, 3) == pytest.approx(0.01 / (50 * 4 * 9), rel=1e-12)


class TestKnownComplexity:
    def test_validates_arguments(self):
        oracle = gauss(TWO_ARM, 0)
        with pytest.raises(ValueError):
            known_complexity(oracle, TWO_ARM, H=0.0, delta=0.01)
        with pytest.raises(ValueError):
            known_complexity(oracle, TWO_ARM, H=4.0, delta=1.0)

    def test_two_arm_instance_statistics(self):
        hits = 0
        for seed in range(60):
            out = known_complexity(gauss(TWO_ARM, seed), TWO_ARM, H=4.0, delta=0.01,
                                   budget=None)
            assert out.status == OK
            assert out.total_samples == sum(out.per_arm_samples)
            hits += out.arm == 0
        assert hits >= 58

    def test_budget_stops_before_crossing(self):
        out = known_complexity(gauss(TWO_ARM, 1), TWO_ARM, H=4.0, delta=0.01,
                               budget=10_000)
        assert out.status == BUDGET_EXCEEDED
        assert out.arm is None
        assert out.total_samples <= 10_000

    def test_replay_determinism(self):
        runs = [
            known_complexity(gauss(TWO_ARM, 9), TWO_ARM, H=4.0, delta=0.01, budget=None)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestEntropyElimination:
    def test_seven_arms_rejected_at_round_one_without_sampling(self):
        inst = Instance.from_means((1.0, 0.5, 0.5, 0.5, 0.75, 0.75, 0.875), label="n7")
        for seed in range(25):
            out = entropy_elimination(gauss(inst, seed), inst, delta=0.005, t=1)
            assert out.status == REJECTED
            assert out.rounds_executed == 1
            assert out.total_samples == 0

    def test_round_one_reject_predicate_is_monotone_in_n(self):
        # 4 * n * eps_1^-2 = 16n crosses 100 exactly at n = 7
        for n in range(7, 13):
            inst = Instance.from_means([1.0] + [0.5] * (n - 1))
            out = entropy_elimination(gauss(inst, 3), inst, delta=0.005, t=1)
            assert (out.status, out.rounds_executed, out.total_samples) == (REJECTED, 1, 0)
        inst6 = Instance.from_means([1.0] + [0.5] * 5)
        out6 = entropy_elimination(gauss(inst6, 3), inst6, delta=0.005, t=1, budget=None)
        assert out6.total_samples > 0

    def test_round_cap_and_theta_ladder(self):
        inst = Instance.from_means((1.0, 0.75, 0.5, 0.625), label="mixed")
        for t in (1, 2, 3):
            for seed in range(10):
                events = []
                out = entropy_elimination(gauss(inst, seed), inst, delta=0.008, t=t,
                                          budget=None, trace=events.append)
                assert out.rounds_executed <= math.ceil(C_ROUNDS * t)
                # only the guessing solver reports an accepted guess index
                assert out.accepted_guess_t is None
                for ev in events:
                    if ev.rejected:
                        continue
                    assert 0.3 <= ev.theta_lo < ev.theta_hi <= 0.5
                    if ev.frac_true:
                        assert ev.delta_prime <= 0.008**2 + 1e-15

    def test_monotone_round_ledgers(self):
        inst = Instance.from_means((1.0, 0.5, 0.5, 0.75, 0.75), label="ledger")
        events = []
        entropy_elimination(gauss(inst, 4), inst, delta=0.008, t=2, budget=None,
                            trace=events.append)
        h_seen, t_seen = 0.0, 0.0
        for ev in events:
            assert ev.h_estimate >= h_seen
            assert ev.t_estimate >= t_seen
            h_seen, t_seen = ev.h_estimate, ev.t_estimate

    def test_validates_guess_index(self):
        oracle = gauss(TWO_ARM, 0)
        with pytest.raises(ValueError):
            entropy_elimination(oracle, TWO_ARM, delta=0.005, t=0)


class TestComplexityGuessing:
    def test_seven_arm_instance_skips_guess_one(self):
        inst = Instance.from_means((1.0, 0.5, 0.5, 0.5, 0.75, 0.75, 0.875), label="n7")
        events = []
        out = complexity_guessing(gauss(inst, 2), inst, delta=0.005, budget=None,
                                  trace=events.append)
        assert out.status == OK
        assert out.accepted_guess_t >= 2
        first = events[0]
        assert (first.guess_t, first.round_index, first.rejected) == (1, 1, True)

    def test_two_arm_statistics(self):
        hits = 0
        for seed in range(60):
            out = complexity_guessing(gauss(TWO_ARM, seed), TWO_ARM, delta=0.01,
                                      budget=None)
            assert out.status == OK
            hits += out.arm == 0
        assert hits >= 58

    def test_total_samples_reconcile_with_round_events(self):
        # both solvers built on the shared elimination round
        for run in (
            lambda tr: complexity_guessing(gauss(TWO_ARM, 5), TWO_ARM, delta=0.01,
                                           budget=None, trace=tr),
            lambda tr: known_complexity(gauss(TWO_ARM, 5), TWO_ARM, H=4.0, delta=0.01,
                                        budget=None, trace=tr),
        ):
            events = []
            out = run(events.append)
            assert events
            assert out.total_samples == sum(ev.draws_round for ev in events)
            assert out.total_samples == sum(out.per_arm_samples)

    def test_replay_determinism(self):
        runs = [
            complexity_guessing(gauss(TWO_ARM, 11), TWO_ARM, delta=0.01, budget=None)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_budget_propagates(self):
        out = complexity_guessing(gauss(TWO_ARM, 0), TWO_ARM, delta=0.01, budget=5000)
        assert out.status == BUDGET_EXCEEDED
        assert out.total_samples <= 5000


class TestBaseline:
    def test_deterministic_elimination_round(self):
        # exact means: the weak arm leaves at the first round where the
        # confidence radius drops below half the gap
        inst = Instance.from_means((1.0, 0.5), label="det")
        delta = 0.1
        expected_round = next(
            r for r in range(1, 100_000) if se_radius(r, 2, delta) < 0.25
        )
        oracle = DeterministicOracle.for_instance(inst, seed=0)
        out = baseline_successive_elimination(oracle, inst, delta)
        assert out.status == OK and out.arm == 0
        assert out.per_arm_samples == (expected_round, expected_round)
        assert out.rounds_executed == expected_round

    def test_identifies_best_arm_with_high_probability(self):
        inst = Instance.from_means((1.0, 0.0), label="easy")
        hits = 0
        for seed in range(200):
            out = baseline_successive_elimination(gauss(inst, seed), inst, delta=0.1)
            hits += out.status == OK and out.arm == 0
        assert hits >= 180

    def test_budget(self):
        inst = Instance.from_means((1.0, 0.875), label="slow")
        out = baseline_successive_elimination(gauss(inst, 0), inst, delta=0.01, budget=50)
        assert out.status == BUDGET_EXCEEDED
        assert out.total_samples <= 50


def test_shuffle_makes_storage_order_irrelevant_on_average():
    # same arm set stored in opposite orders: per-seed answers map to the
    # same physical arm distribution
    fwd = Instance.from_means((1.0, 0.5, 0.75), label="fwd")
    rev = Instance.from_means((0.75, 0.5, 1.0), label="rev")
    fwd_hits = sum(
        complexity_guessing(gauss(fwd, s), fwd, 0.01, budget=None).arm == 0
        for s in range(30)
    )
    rev_hits = sum(
        complexity_guessing(gauss(rev, s), rev, 0.01, budget=None).arm == 2
        for s in range(30)
    )
    assert fwd_hits >= 28 and rev_hits >= 28


GOLDEN_INSTANCES = [
    Instance.from_means((1.0, 0.875), "pair-g0.125"),
    Instance.from_means((1.0, 0.5, 0.5, 0.5, 0.75, 0.75, 0.875), "disc-7"),
    Instance.from_means((1.0,) + (0.75,) * 7, "flat-8"),
    make_discrete_instance({1: 20, 2: 20, 3: 19}, 1.0, label="disc-60"),
]
GOLDEN_BUDGETS = (None, 0, 10**5, 10**9)
GOLDEN_DIGEST = "d780083c81c0aae0ba30c24ce417fd688d1c77148d22deafe4fabd445ee555de"


def test_golden_replay_of_solver_outcomes_and_round_events():
    """Outcomes and every RoundEvent of the solvers replay bit for bit."""
    digest = hashlib.sha256()

    def record(name, inst, seed, budget, run):
        events = []
        out = run(gauss(inst, seed), events.append)
        line = json.dumps([name, inst.label, seed, budget, asdict(out),
                           [asdict(ev) for ev in events]])
        digest.update(line.encode() + b"\n")

    for inst in GOLDEN_INSTANCES:
        H = profile(inst).H
        for seed in range(2):
            for budget in GOLDEN_BUDGETS:
                record("known", inst, seed, budget, lambda o, tr: known_complexity(
                    o, inst, H, 0.01, budget=budget, trace=tr))
                record("guess", inst, seed, budget, lambda o, tr: complexity_guessing(
                    o, inst, 0.01, budget=budget, trace=tr))
                for t in (1, 2):
                    record(f"ee{t}", inst, seed, budget, lambda o, tr: entropy_elimination(
                        o, inst, 0.01, t, budget=budget, trace=tr))
            if inst.n_arms <= 10:
                for budget in (None, 0, 1000):
                    record("baseline", inst, seed, budget,
                           lambda o, tr: baseline_successive_elimination(
                               o, inst, 0.01, budget=budget))
    assert digest.hexdigest() == GOLDEN_DIGEST
