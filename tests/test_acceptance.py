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
from scipy.stats import binom

from bestarm import (
    OK,
    REJECTED,
    Instance,
    SamplingOracle,
    complexity_guessing_plan,
    entropy_elimination_plan,
    known_complexity_plan,
    make_discrete_instance,
    measure_loss_profile,
    parallel_simulation,
    profile,
    run_plan,
    run_trials,
    sign_instance,
    solve,
    unif_sample_size,
)
from bestarm.bench import equal_h_pair, run_one_trial
from bestarm.primitives import elimination_plan, frac_test_plan, frac_test_probe_counts, unif_sampl_plan
from bestarm.solvers import C_ROUNDS, frac_thresholds
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
        run_plan(unif_sampl_plan(range(n_arms), eps, delta), oracle)
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
    assert run_plan(frac_test_plan(crowd, range(20), 0.4, 0.6, 0.3, 0.5, delta), crowd) is True
    sparse = DeterministicOracle([0.1] * 6 + [0.9] * 14, seed=0)
    assert run_plan(frac_test_plan(sparse, range(20), 0.4, 0.6, 0.3, 0.5, delta), sparse) is False

    # Fraction test, True side: 12/20 arms below c_lo (>= theta_hi fraction).
    means_true = [0.1] * 12 + [0.9] * 8
    hits_true = 0
    for s in range(trials):
        oracle = SamplingOracle(means_true, seed=s)
        hits_true += run_plan(
            frac_test_plan(oracle, range(20), 0.4, 0.6, 0.3, 0.5, delta), oracle
        )
    # False side: 6/20 arms below c_hi (<= theta_lo fraction).
    means_false = [0.1] * 6 + [0.9] * 14
    hits_false = 0
    for s in range(trials):
        oracle = SamplingOracle(means_false, seed=s)
        hits_false += not run_plan(
            frac_test_plan(oracle, range(20), 0.4, 0.6, 0.3, 0.5, delta), oracle
        )

    # Elimination on 10 high / 10 low arms around the (0.4, 0.6) band.
    elim_means = [0.9] * 10 + [0.1] * 10
    retained = 0
    purged = 0
    for s in range(trials):
        oracle = SamplingOracle(elim_means, seed=s)
        survivors = run_plan(elimination_plan(oracle, range(20), 0.4, 0.6, delta), oracle)
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
    """Error rate of 200 seeded runs per desk instance at delta = 0.01.

    At delta <= 0.01 this checks the answer, not the contract: the real
    failure rates are far below anything 200 runs can resolve (the fraction
    test's worst case at its contract edge is 3.8e-43).  The contract is
    checked exactly by test_round_schedule_matches_the_paper_formulas and
    test_union_bound_ledger_spends_at_most_delta.
    """
    def run(inst, delta, seed):
        oracle = SamplingOracle.for_instance(inst, seed=seed)
        return solve(known_complexity_plan, oracle, inst, delta, profile(inst).H, budget=None)

    ok, detail = _delta_correctness("known-complexity", run)
    report(4, ok, detail + " (each <= 0.025)")


def test_criterion_5_guessing_and_parallel_delta_correct():
    """Error rates of the guessing solver and the ladder, as in criterion 4.

    Like criterion 4, at delta <= 0.01 this checks the answer, not the
    contract; the schedule and union-bound checks below test the contract.
    """
    def run_guess(inst, delta, seed):
        oracle = SamplingOracle.for_instance(inst, seed=seed)
        return solve(complexity_guessing_plan, oracle, inst, delta, budget=None)

    ok_g, detail_g = _delta_correctness("complexity-guessing", run_guess)

    def run_parallel(inst, delta, seed):
        return parallel_simulation(inst, delta, seed=seed, budget=None)

    ok_p, detail_p = _delta_correctness("parallel-wrapper", run_parallel)
    report(5, ok_g and ok_p, detail_g + " | " + detail_p + " (each <= 0.025)")


def desk_round_events(algo, inst, seed):
    """The round events of one seeded run at delta = 0.01, for the ledger and schedule checks."""
    events = []
    run_one_trial(algo, inst, 0.01, seed, budget=None, trace=events.append)
    return tuple(events)


def test_union_bound_ledger_spends_at_most_delta():
    # Each sampled round spends delta_r twice (anchor estimate, fraction test)
    # and delta' once when it eliminates; the proof's union bound needs the
    # sum over a run's rounds, all guesses included, to stay within delta.
    delta = 0.01
    worst = {}
    for algo in ("known", "guess"):
        for inst in DESK_INSTANCES:
            for seed in range(5):
                events = desk_round_events(algo, inst, seed)
                spent = math.fsum(
                    2 * e.delta_round + (e.delta_prime or 0.0) for e in events if not e.rejected
                )
                worst[algo] = max(worst.get(algo, 0.0), spent / delta)
    detail = ", ".join(f"{algo} {ratio:.3g}" for algo, ratio in worst.items())
    print(f"union-bound ledger: worst delta spent / delta: {detail} (each <= 1)")
    assert all(ratio <= 1.0 for ratio in worst.values()), detail


def ceil(value):
    # The library's ceiling: backed off 1e-9 so that exact integers stay put.
    return math.ceil(value - 1e-9)


def med_elim_draws(n, eps, delta):
    """Draws of median elimination on n arms at (eps, delta), round by round."""
    total, eps_l, delta_l = 0, eps / 4, delta / 2
    while n > 1:
        total += n * ceil(2 * (eps_l / 2) ** -2 * math.log(3 / delta_l))
        n, eps_l, delta_l = (n + 1) // 2, eps_l * 0.75, delta_l / 2
    return total


def test_round_schedule_matches_the_paper_formulas():
    # Every sampled round's confidences, fraction-test band and draws of its
    # three deterministic phases, from the formulas written out here; the
    # elimination's draws depend on which arms survive, so they are left out.
    delta = 0.01
    rounds = 0
    for algo in ("known", "guess"):
        for inst in DESK_INSTANCES:
            top = max(inst.means)
            H = math.fsum((top - m) ** -2 for m in inst.means if m != top)
            for seed in range(5):
                theta = {}  # guess t -> theta_hi of its latest round
                for e in desk_round_events(algo, inst, seed):
                    if e.rejected:
                        continue
                    r, t, eps, n = e.round_index, e.guess_t, e.eps, e.n_active
                    assert eps == 2.0**-r
                    if algo == "known":
                        delta_r, lo, hi = delta / (10 * r * r), 0.3, 0.5
                        delta_prime = min(n * eps**-2 * delta / (4096 * H), delta)
                    else:
                        delta_r = delta / (50 * r * r * t * t)
                        lo = theta.get(t, 0.3)
                        hi = theta[t] = lo + (math.log(100, 4) * t - r) ** -2 / 10
                        delta_prime = 4 * n * eps**-2 * delta**2 / 100**t
                    assert (e.delta_round, e.theta_lo, e.theta_hi) == pytest.approx(
                        (delta_r, lo, hi), rel=1e-12)
                    if e.frac_true:
                        assert e.delta_prime == pytest.approx(delta_prime, rel=1e-12)
                    assert e.draws_med == med_elim_draws(n, eps / 8, 0.01)
                    assert e.draws_anchor == ceil(2 * (eps / 8) ** -2 * math.log(2 / delta_r))
                    w = hi - lo
                    probes = ceil((w / 6) ** -2 * math.log(2 / delta_r))
                    per_probe = ceil(2 * (0.3125 * eps) ** -2 * math.log(12 / w))
                    assert e.draws_frac == probes * per_probe
                    rounds += 1
    print(f"round schedule: {rounds} sampled rounds match the formulas")
    assert rounds > 0


def test_anchor_and_fraction_test_meet_their_delta_at_the_exact_tail():
    # Each sampled round's anchor estimate and fraction test, at the counts the library
    # sized, must fail with probability at most delta_r at the edge of its contract:
    # exact Gaussian and binomial tails, so a constant change passes if and only if it
    # keeps the contract, whatever formula sized the counts.
    worst = {"anchor": 0.0, "frac False side": 0.0, "frac True side": 0.0}
    for algo in ("known", "guess"):
        for inst in DESK_INSTANCES:
            for seed in range(5):
                for e in desk_round_events(algo, inst, seed):
                    if e.rejected:
                        continue
                    # |mean of n draws - mu| >= eps/8: two-sided, at the anchor's draws
                    anchor = math.erfc(e.eps / 8 * math.sqrt(e.draws_anchor / 2))
                    c_lo, c_hi = frac_thresholds(0.0, e.eps)  # the band's width is what counts
                    m, per_probe = frac_test_probe_counts(c_lo, c_hi, e.theta_lo, e.theta_hi, e.delta_round)
                    assert m * per_probe == e.draws_frac
                    # A probe's estimate lands on the wrong side of the cutoff, half the band away.
                    q = 0.5 * math.erfc((c_hi - c_lo) / 2 * math.sqrt(per_probe / 2))
                    # The fraction test answers True iff more than m * theta_mid probes count.
                    k = math.floor(m * (e.theta_lo + e.theta_hi) / 2)
                    # A theta_hi fraction of arms below c_lo, yet False; at most theta_lo
                    # below c_hi, yet True.
                    false_side = binom.cdf(k, m, e.theta_hi * (1 - q))
                    true_side = binom.sf(k, m, e.theta_lo + (1 - e.theta_lo) * q)
                    for step, tail in zip(worst, (anchor, false_side, true_side)):
                        worst[step] = max(worst[step], tail / e.delta_round)
    detail = ", ".join(f"{step} {ratio:.3g}" for step, ratio in worst.items())
    print(f"exact tails: worst failure probability / delta_r: {detail} (each <= 1)")
    assert all(ratio <= 1.0 for ratio in worst.values()), detail


def test_criterion_6_deterministic_rejection():
    inst = Instance.from_means((1.0, 0.5, 0.5, 0.5, 0.75, 0.75, 0.875), "n7")
    ok = True
    for seed in range(50):
        out = solve(
            entropy_elimination_plan, SamplingOracle.for_instance(inst, seed=seed), inst, 0.005, 1
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
                out = solve(
                    entropy_elimination_plan, SamplingOracle.for_instance(inst, seed=seed), inst,
                    0.008, t, budget=None, trace=events.append,
                )
                runs += 1
                ok = ok and out.rounds_executed <= math.ceil(C_ROUNDS * t)
                for ev in events:
                    if not ev.rejected:
                        ok = ok and 0.3 <= ev.theta_lo < ev.theta_hi <= 0.5
    # replay determinism, bit-identical outcomes
    for inst in instances:
        for seed in (0, 17):
            a = solve(
                complexity_guessing_plan, SamplingOracle.for_instance(inst, seed=seed), inst,
                0.008, budget=None,
            )
            b = solve(
                complexity_guessing_plan, SamplingOracle.for_instance(inst, seed=seed), inst,
                0.008, budget=None,
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
            solve(
                complexity_guessing_plan, SamplingOracle.for_instance(inst, seed=s), inst, delta,
                budget=None,
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
            solve(
                complexity_guessing_plan, SamplingOracle.for_instance(inst, seed=s), inst, 0.1,
                budget=None,
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
    """Sign answers and the loss profile of the sign harness.

    Its Monte-Carlo counts check the answer, not the delta contract, which
    no affordable trial count resolves at delta < 0.01; the contract is
    checked by test_round_schedule_matches_the_paper_formulas and
    test_union_bound_ledger_spends_at_most_delta.
    """
    delta, trials = 0.05, 200
    threshold = 186  # 1 - delta - slack of 200

    def hits(mu):  # trials that name the sign of mu
        r = run_trials("guess", sign_instance(mu), delta, trials, 0, budget=None)
        return trials - r.errors - r.budget_exceeded

    pos, neg = hits(0.25), hits(-0.25)

    uniform = [0.5, 0.5]
    tight = measure_loss_profile(uniform, 0.05, 30, base_seed=9, budget=None)
    loose = measure_loss_profile(uniform, 0.2, 30, base_seed=9, budget=None)
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
