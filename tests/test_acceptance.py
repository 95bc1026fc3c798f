"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line.  Statistical checks use seeded trials with a binomial 95%
band on top of the claimed confidence; the two directional-trend checks are
soft (non-blocking) and marked xfail(strict=False).

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from bestarm import (
    OK,
    REJECTED,
    Instance,
    SamplingOracle,
    complexity_guessing,
    elimination,
    entropy_elimination,
    frac_test,
    known_complexity,
    make_discrete_instance,
    measure_loss_profile,
    parallel_simulation,
    profile,
    run_sign_trial,
    unif_sampl,
    unif_sample_size,
)
from bestarm.bench import equal_h_pair
from bestarm.signxi import NEGATIVE, POSITIVE
from bestarm.solvers import C_ROUNDS
from doubles import DeterministicOracle
from test_instances import brute_force_profile

# Ten desk-scale instances: n <= 10, minimum gap >= 0.125.
DESK_INSTANCES = [
    Instance.from_means((1.0, 0.5), "pair-g0.5"),
    Instance.from_means((1.0, 0.875), "pair-g0.125"),
    Instance.from_means((0.9, 0.65), "pair-g0.25"),
    Instance.from_means((1.0, 0.75, 0.5), "ladder-3"),
    Instance.from_means((1.0, 0.5, 0.5, 0.75, 0.75), "disc-5"),
    Instance.from_means((1.0, 0.5, 0.5, 0.5, 0.75, 0.75, 0.875), "disc-7"),
    Instance.from_means((1.0,) + (0.5,) * 5 + (0.75,) * 2 + (0.875,) * 2, "disc-10"),
    Instance.from_means((1.0,) + (0.75,) * 7, "flat-8"),
    Instance.from_means((0.95, 0.8, 0.65, 0.5, 0.35, 0.2), "stair-6"),
    Instance.from_means((1.0, 0.85, 0.7, 0.55), "stair-4"),
]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {criterion} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def band_floor(trials: int, p_claim: float) -> int:
    """Minimum pass count compatible with the claim at the 95% binomial band."""
    return math.ceil(trials * p_claim - 1.96 * math.sqrt(trials * p_claim * (1 - p_claim)))


def test_criterion_1_analytics_exactness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 1000:
        n = int(rng.integers(2, 51))
        means = rng.uniform(0.0, 1.0, size=n)
        means[int(rng.integers(0, n))] = 1.0
        if sorted(means)[-2] == 1.0:
            continue
        inst = Instance.from_means(means)
        prof = profile(inst)
        H, Hk, pk, ent, r_max = brute_force_profile(inst.means)
        worst = max(worst, abs(prof.H - H) / H)
        assert abs(prof.H - H) <= 1e-12 * H
        assert abs(prof.ent - ent) <= 1e-12 * max(ent, 1.0)
        assert prof.r_max == r_max
        for k in Hk:
            assert abs(prof.Hk[k] - Hk[k]) <= 1e-12 * Hk[k]
            assert abs(prof.pk[k] - pk[k]) <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0,
           f"1000 random profiles match brute force (worst rel err {worst:.2e}) "
           f"in {elapsed:.2f}s (< 5s)")


def test_criterion_2_primitive_accounting():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for _ in range(50):
        eps = float(rng.uniform(0.05, 1.0))
        delta = float(rng.uniform(0.001, 0.3))
        n_arms = int(rng.integers(1, 6))
        oracle = SamplingOracle([0.5] * n_arms, seed=int(rng.integers(1 << 30)))
        unif_sampl(oracle, range(n_arms), eps, delta)
        expected = unif_sample_size(eps, delta)
        assert list(oracle.counts) == [expected] * n_arms
    elapsed = time.perf_counter() - start
    report(2, elapsed < 1.0,
           f"uniform-sampling draw counts exact on a 50-point grid in {elapsed:.2f}s (< 1s)")


def test_criterion_3_frac_test_and_elimination_contracts():
    delta, trials = 0.1, 500
    floor_full = band_floor(trials, 1 - delta)
    floor_half = band_floor(trials, 1 - delta / 2)

    # Deterministic oracles: the two one-sided answers are exact.
    crowd = DeterministicOracle([0.1] * 12 + [0.9] * 8, seed=0)
    assert frac_test(crowd, range(20), 0.4, 0.6, 0.3, 0.5, delta) is True
    sparse = DeterministicOracle([0.1] * 6 + [0.9] * 14, seed=0)
    assert frac_test(sparse, range(20), 0.4, 0.6, 0.3, 0.5, delta) is False

    # Fraction test, True side: 12/20 arms below c_lo (>= theta_hi fraction).
    means_true = [0.1] * 12 + [0.9] * 8
    hits_true = sum(
        frac_test(SamplingOracle(means_true, seed=s), range(20), 0.4, 0.6, 0.3, 0.5, delta)
        for s in range(trials)
    )
    # False side: 6/20 arms below c_hi (<= theta_lo fraction).
    means_false = [0.1] * 6 + [0.9] * 14
    hits_false = sum(
        not frac_test(SamplingOracle(means_false, seed=s), range(20), 0.4, 0.6, 0.3, 0.5, delta)
        for s in range(trials)
    )

    # Elimination on 10 high / 10 low arms around the (0.4, 0.6) band.
    elim_means = [0.9] * 10 + [0.1] * 10
    retained = 0
    purged = 0
    for s in range(trials):
        survivors = elimination(SamplingOracle(elim_means, seed=s), range(20), 0.4, 0.6, delta)
        retained += all(arm in survivors for arm in range(10))
        low = sum(elim_means[arm] < 0.4 for arm in survivors)
        purged += low <= 0.1 * len(survivors)

    ok = (
        hits_true >= floor_full
        and hits_false >= floor_full
        and retained >= floor_full
        and purged >= floor_half
    )
    report(3, ok,
           f"fraction-test True {hits_true}/{trials}, False {hits_false}/{trials} "
           f"(floor {floor_full}); elimination retain {retained}/{trials} "
           f"(floor {floor_full}), purge {purged}/{trials} (floor {floor_half})")


def _delta_correctness(solver_name, run, trials=200, delta=0.01):
    details = []
    ok = True
    limit = 0.025
    for inst in DESK_INSTANCES:
        errors = 0
        for i in range(trials):
            out = run(inst, delta, 1000 + i)
            if not (out.status == OK and out.arm == inst.best_arm):
                errors += 1
        rate = errors / trials
        ok = ok and rate <= limit
        details.append(f"{inst.label}={rate:.3f}")
    return ok, f"{solver_name} error rates at delta={delta}: " + " ".join(details)


def test_criterion_4_known_complexity_delta_correct():
    def run(inst, delta, seed):
        oracle = SamplingOracle.for_instance(inst, seed=seed)
        return known_complexity(oracle, inst, profile(inst).H, delta, budget=None)

    ok, detail = _delta_correctness("known-complexity", run)
    report(4, ok, detail + " (each <= 0.025)")


def test_criterion_5_guessing_and_parallel_delta_correct():
    def run_guess(inst, delta, seed):
        oracle = SamplingOracle.for_instance(inst, seed=seed)
        return complexity_guessing(oracle, inst, delta, budget=None)

    ok_g, detail_g = _delta_correctness("complexity-guessing", run_guess)

    def run_parallel(inst, delta, seed):
        return parallel_simulation(inst, delta, seed=seed, budget=None)

    ok_p, detail_p = _delta_correctness("parallel-wrapper", run_parallel)
    report(5, ok_g and ok_p, detail_g + " | " + detail_p + " (each <= 0.025)")


def test_criterion_6_deterministic_rejection():
    inst = Instance.from_means((1.0, 0.5, 0.5, 0.5, 0.75, 0.75, 0.875), "n7")
    ok = True
    for seed in range(50):
        out = entropy_elimination(
            SamplingOracle.for_instance(inst, seed=seed), inst, delta=0.005, t=1
        )
        ok = ok and out.status == REJECTED and out.rounds_executed == 1 and out.total_samples == 0
    report(6, ok, "7-arm instance with guess t=1 rejects at round 1 with 0 draws on 50 seeds")


def test_criterion_7_structural_invariants():
    instances = [
        Instance.from_means((1.0, 0.5)),
        Instance.from_means((1.0, 0.75, 0.5)),
        Instance.from_means((1.0, 0.5, 0.5, 0.75, 0.75)),
        Instance.from_means((0.95, 0.8, 0.65, 0.5)),
    ]
    runs = 0
    ok = True
    for inst in instances:
        for t in (1, 2, 3):
            for seed in range(84):
                events = []
                out = entropy_elimination(
                    SamplingOracle.for_instance(inst, seed=seed), inst,
                    delta=0.008, t=t, budget=None, trace=events.append,
                )
                runs += 1
                ok = ok and out.rounds_executed <= math.ceil(C_ROUNDS * t)
                for ev in events:
                    if not ev.rejected:
                        ok = ok and 0.3 <= ev.theta_lo < ev.theta_hi <= 0.5
    # replay determinism, bit-identical outcomes
    for inst in instances:
        for seed in (0, 17):
            a = complexity_guessing(
                SamplingOracle.for_instance(inst, seed=seed), inst, 0.008, budget=None
            )
            b = complexity_guessing(
                SamplingOracle.for_instance(inst, seed=seed), inst, 0.008, budget=None
            )
            ok = ok and a == b
    report(7, ok and runs >= 1000,
           f"round cap and theta ladder hold on {runs} runs; replays bit-identical")


@pytest.mark.xfail(strict=False, reason="soft directional trend; non-blocking")
def test_criterion_8a_samples_grow_as_delta_drops():
    inst = Instance.from_means((1.0, 0.5, 0.5, 0.75, 0.75), "trend")
    totals = {}
    for delta in (0.1, 0.01):
        runs = [
            complexity_guessing(
                SamplingOracle.for_instance(inst, seed=s), inst, delta, budget=None
            ).total_samples
            for s in range(50)
        ]
        totals[delta] = math.fsum(runs) / len(runs)
    ok = totals[0.01] > totals[0.1]
    report(8, ok,
           f"(a) mean samples delta=0.01 ({totals[0.01]:.3g}) > delta=0.1 ({totals[0.1]:.3g})")


@pytest.mark.xfail(strict=False, reason="soft directional trend; non-blocking")
def test_criterion_8b_entropy_does_not_cheapen_equal_h():
    flat, spread = equal_h_pair(h_target=32, k_max=3, cap=8)
    assert abs(profile(flat).H - profile(spread).H) <= 1e-9

    def mean_cost(inst):
        runs = [
            complexity_guessing(
                SamplingOracle.for_instance(inst, seed=s), inst, 0.1, budget=None
            ).total_samples
            for s in range(50)
        ]
        return math.fsum(runs) / len(runs)

    cost_flat, cost_spread = mean_cost(flat), mean_cost(spread)
    ok = cost_spread >= 0.9 * cost_flat
    report(8, ok,
           f"(b) equal-H pair: entropy>0 mean samples ({cost_spread:.3g}) not lower than "
           f"90% of entropy=0 ({cost_flat:.3g})")


def test_criterion_9_sign_harness():
    delta, trials = 0.05, 200
    threshold = 186  # 1 - delta - slack of 200
    pos = sum(
        run_sign_trial(0.25, delta, seed=s, budget=None).decision == POSITIVE
        for s in range(trials)
    )
    neg = sum(
        run_sign_trial(-0.25, delta, seed=s, budget=None).decision == NEGATIVE
        for s in range(trials)
    )

    uniform = [0.5, 0.5]
    tight = measure_loss_profile(run_sign_trial, uniform, 0.05, 30, base_seed=9, budget=None)
    loose = measure_loss_profile(run_sign_trial, uniform, 0.2, 30, base_seed=9, budget=None)
    ok = (
        pos >= threshold
        and neg >= threshold
        and not tight.partial
        and not loose.partial
        and tight.expected_loss > loose.expected_loss
    )
    report(9, ok,
           f"sign correct {pos}/200 (+) and {neg}/200 (-) (>= {threshold}); "
           f"expected loss {tight.expected_loss:.3g} @ delta=0.05 > "
           f"{loose.expected_loss:.3g} @ delta=0.2")
