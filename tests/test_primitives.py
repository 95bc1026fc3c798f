import math

import numpy as np
import pytest

from bestarm import BudgetExceededError, SamplingOracle, run_plan, unif_sample_size
from bestarm.primitives import (
    elimination_plan,
    frac_test_plan,
    frac_test_probe_counts,
    med_elim_plan,
    unif_sampl_plan,
)
from doubles import DeterministicOracle


def gaussian(means, seed=0):
    return SamplingOracle(means, seed=seed)


def fixed(means):
    return DeterministicOracle(means, seed=0)


def binomial_pass_floor(trials: int, p_claim: float) -> int:
    """Lowest success count compatible with claim probability at the 95% band."""
    return math.ceil(trials * p_claim - 1.96 * math.sqrt(trials * p_claim * (1 - p_claim)))


class TestUnifSampl:
    def test_draw_counts_worked_example(self):
        oracle = gaussian([0.1, 0.2, 0.3])
        run_plan(unif_sampl_plan([0, 1, 2], eps=0.1, delta=0.05), oracle)
        assert list(oracle.counts) == [738, 738, 738]
        assert oracle.total == 2214

    def test_exact_integer_count(self):
        # ln(2/delta) = 2 by construction, so exactly 4 draws
        oracle = gaussian([0.5])
        run_plan(unif_sampl_plan([0], eps=1.0, delta=2.0 / math.e**2), oracle)
        assert oracle.total == 4

    def test_deterministic_oracle_estimates_exactly(self):
        oracle = fixed([0.7, 0.7])
        estimates = run_plan(unif_sampl_plan([0, 1], eps=0.3, delta=0.1), oracle)
        assert estimates == {0: 0.7, 1: 0.7}

    def test_estimate_map_covers_exactly_the_queried_set(self):
        oracle = gaussian([0.1, 0.5, 0.9])
        estimates = run_plan(unif_sampl_plan([2, 0], eps=0.5, delta=0.2), oracle)
        assert set(estimates) == {2, 0}
        assert oracle.counts[1] == 0

    def test_rejects_bad_arguments(self):
        oracle = gaussian([0.5])
        with pytest.raises(ValueError):
            run_plan(unif_sampl_plan([], eps=0.1, delta=0.1), oracle)
        with pytest.raises(ValueError):
            run_plan(unif_sampl_plan([0], eps=0.0, delta=0.1), oracle)
        with pytest.raises(ValueError):
            run_plan(unif_sampl_plan([0], eps=0.1, delta=1.0), oracle)

    def test_count_grid_matches_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            eps = float(rng.uniform(0.05, 1.0))
            delta = float(rng.uniform(0.001, 0.3))
            oracle = gaussian([0.5])
            run_plan(unif_sampl_plan([0], eps, delta), oracle)
            assert oracle.total == unif_sample_size(eps, delta)
            assert oracle.total == math.ceil(2 * eps**-2 * math.log(2 / delta) - 1e-9)


class TestMedElim:
    def test_singleton_returns_without_sampling(self):
        oracle = gaussian([0.4, 0.9])
        assert run_plan(med_elim_plan([1], eps=0.5, delta=0.1), oracle) == 1
        assert oracle.total == 0

    def test_deterministic_two_arms(self):
        oracle = fixed([1.0, 0.0])
        assert run_plan(med_elim_plan([0, 1], eps=0.25, delta=0.1), oracle) == 0

    def test_first_round_schedule_on_four_arms(self):
        # eps_1 = eps/4, delta_1 = delta/2: per-arm draws ceil(2 (eps/8)^-2 ln(6/delta)).
        eps, delta = 0.5, 0.1
        expected_round1 = math.ceil(2 * (eps / 8) ** -2 * math.log(6 / delta) - 1e-9)
        assert expected_round1 == 2097
        oracle = fixed([0.9, 0.8, 0.2, 0.1])
        winner = run_plan(med_elim_plan([0, 1, 2, 3], eps=eps, delta=delta), oracle)
        assert winner == 0
        # the two weakest arms leave after round 1 with exactly its draws
        assert oracle.counts[2] == expected_round1
        assert oracle.counts[3] == expected_round1
        assert oracle.counts[0] > expected_round1

    def test_budget_stops_mid_round_at_the_first_arm_that_crosses(self):
        # one round is one request over four arms; the cap admits two of them
        d = 2097
        oracle = fixed([0.9, 0.8, 0.2, 0.1])
        with pytest.raises(BudgetExceededError):
            run_plan(med_elim_plan([2, 0, 3, 1], 0.5, 0.1), oracle, budget=2 * d + 1)
        assert list(oracle.counts) == [d, 0, d, 0]
        assert oracle.total == 2 * d

    def test_tie_break_prefers_first_listed(self):
        oracle = fixed([0.5, 0.5, 0.5, 0.1])
        assert run_plan(med_elim_plan([2, 0, 1, 3], eps=0.5, delta=0.1), oracle) == 2

    def test_eps_optimal_with_high_probability(self):
        means = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
        eps, delta, trials = 0.125, 0.1, 500
        hits = 0
        for seed in range(trials):
            oracle = gaussian(means, seed=seed)
            winner = run_plan(med_elim_plan(range(10), eps, delta), oracle)
            hits += means[winner] >= 1.0 - eps
        assert hits >= binomial_pass_floor(trials, 1 - delta)


class TestFracTest:
    def test_probe_count_worked_example(self):
        probes, per_probe = frac_test_probe_counts(0.0, 0.5, 0.3, 0.5, 0.1)
        assert probes == 2697
        oracle = fixed([1.0, 1.0])
        run_plan(frac_test_plan(oracle, [0, 1], 0.0, 0.5, 0.3, 0.5, 0.1), oracle)
        assert oracle.total == probes * per_probe

    def test_budget_stops_mid_tally_at_the_first_arm_that_crosses(self):
        probes, per_probe = frac_test_probe_counts(0.0, 0.5, 0.3, 0.5, 0.1)
        # the plan's arm picks, replayed from the same seed
        picks = np.random.default_rng(0).multinomial(probes, [1 / 3] * 3)
        assert picks.all()
        oracle = fixed([1.0, 1.0, 1.0])
        with pytest.raises(BudgetExceededError):  # one draw short of the whole tally
            run_plan(frac_test_plan(oracle, [0, 1, 2], 0.0, 0.5, 0.3, 0.5, 0.1), oracle,
                     budget=probes * per_probe - 1)
        assert list(oracle.counts) == [per_probe * int(picks[0]), per_probe * int(picks[1]), 0]

    def test_all_means_above_band_returns_false(self):
        oracle = fixed([1.0, 0.9, 0.95])
        plan = frac_test_plan(oracle, [0, 1, 2], c_lo=0.2, c_hi=0.4, theta_lo=0.3,
                              theta_hi=0.5, delta=0.1)
        assert run_plan(plan, oracle) is False

    def test_all_means_below_band_returns_true(self):
        oracle = fixed([0.0, 0.05, 0.1])
        plan = frac_test_plan(oracle, [0, 1, 2], c_lo=0.4, c_hi=0.6, theta_lo=0.3,
                              theta_hi=0.5, delta=0.1)
        assert run_plan(plan, oracle) is True

    def test_rejects_disordered_thresholds(self):
        oracle = fixed([0.5])
        with pytest.raises(ValueError):
            run_plan(frac_test_plan(oracle, [0], 0.6, 0.4, 0.3, 0.5, 0.1), oracle)
        with pytest.raises(ValueError):
            run_plan(frac_test_plan(oracle, [0], 0.4, 0.6, 0.5, 0.3, 0.1), oracle)

    def test_true_side_guarantee(self):
        # 12 of 20 arms below c_lo: fraction 0.6 >= theta_hi = 0.5
        means = [0.1] * 12 + [0.9] * 8
        delta, trials = 0.1, 500
        hits = 0
        for s in range(trials):
            oracle = gaussian(means, seed=s)
            hits += run_plan(frac_test_plan(oracle, range(20), 0.4, 0.6, 0.3, 0.5, delta), oracle)
        assert hits >= binomial_pass_floor(trials, 1 - delta)

    @pytest.mark.parametrize("means", [
        [0.52, 0.54, 0.55, 0.56, 0.58],  # fewer arms than a batched tally
        [0.52 + 0.003 * i for i in range(20)],  # most requests take the batched path
    ])
    def test_tally_at_a_small_m_follows_the_binomial_of_the_mean_probability(self, means):
        # Each probe picks an arm uniformly, then lands below the cutoff with that
        # arm's probability, so the tally is Binomial(m, mean p) exactly.
        stats = pytest.importorskip("scipy.stats")
        c_lo, c_hi, delta = 0.4, 0.6, 0.5
        probes, per_probe = frac_test_probe_counts(c_lo, c_hi, 0.0, 1.0, delta)
        assert probes == 50
        p = np.mean(stats.norm.cdf(((c_lo + c_hi) / 2 - np.array(means)) * math.sqrt(per_probe)))
        tallies = []
        for seed in range(3000):
            oracle = gaussian(means, seed=seed)
            request = next(frac_test_plan(oracle, range(len(means)), c_lo, c_hi, 0.0, 1.0, delta))
            tallies.append(request.fulfill(oracle))
        observed = np.bincount(tallies, minlength=probes + 1)
        expected = len(tallies) * stats.binom.pmf(np.arange(probes + 1), probes, p)
        # Pool each tail into its neighbour until every bin expects at least 5.
        keep = np.flatnonzero(expected >= 5)
        lo, hi = keep[0], keep[-1]
        observed = np.r_[observed[:lo + 1].sum(), observed[lo + 1:hi], observed[hi:].sum()]
        expected = np.r_[expected[:lo + 1].sum(), expected[lo + 1:hi], expected[hi:].sum()]
        expected *= observed.sum() / expected.sum()
        assert stats.chisquare(observed, expected).pvalue > 1e-3  # 0.043 and 0.68 at these seeds

    def test_false_side_guarantee(self):
        # 6 of 20 arms below c_hi: fraction 0.3 <= theta_lo
        means = [0.1] * 6 + [0.9] * 14
        delta, trials = 0.1, 500
        hits = 0
        for s in range(trials):
            oracle = gaussian(means, seed=s)
            plan = frac_test_plan(oracle, range(20), 0.4, 0.6, 0.3, 0.5, delta)
            hits += not run_plan(plan, oracle)
        assert hits >= binomial_pass_floor(trials, 1 - delta)


class TestElimination:
    def test_no_crowd_returns_set_unchanged(self):
        oracle = fixed([0.9, 0.8, 0.7])
        plan = elimination_plan(oracle, [0, 1, 2], d_lo=0.4, d_hi=0.6, delta=0.1)
        survivors = run_plan(plan, oracle)
        assert survivors == [0, 1, 2]

    def test_low_crowd_is_purged_to_the_top_arm(self):
        # one top arm plus 20 arms far below d_lo
        oracle = fixed([1.0] + [0.0] * 20)
        plan = elimination_plan(oracle, range(21), d_lo=0.4, d_hi=0.6, delta=0.1)
        survivors = run_plan(plan, oracle)
        assert survivors == [0]

    def test_single_high_arm_survives(self):
        oracle = fixed([0.95])
        plan = elimination_plan(oracle, [0], d_lo=0.4, d_hi=0.6, delta=0.1)
        assert run_plan(plan, oracle) == [0]

    def test_rejects_bad_arguments(self):
        oracle = fixed([0.5])
        with pytest.raises(ValueError):
            run_plan(elimination_plan(oracle, [], 0.4, 0.6, 0.1), oracle)
        with pytest.raises(ValueError):
            run_plan(elimination_plan(oracle, [0], 0.6, 0.4, 0.1), oracle)

    def test_high_arms_are_retained(self):
        # every arm with mean >= d_hi stays, w.p. >= 1 - delta/2 each
        means = [0.9] * 10 + [0.1] * 10
        delta, trials = 0.1, 500
        kept_all = 0
        for seed in range(trials):
            oracle = gaussian(means, seed=seed)
            survivors = run_plan(elimination_plan(oracle, range(20), 0.4, 0.6, delta), oracle)
            kept_all += all(arm in survivors for arm in range(10))
        assert kept_all >= binomial_pass_floor(trials, 1 - delta)

    def test_output_is_mostly_purged(self):
        means = [0.9] * 10 + [0.1] * 10
        delta, trials = 0.1, 500
        clean = 0
        for seed in range(trials):
            oracle = gaussian(means, seed=seed)
            survivors = run_plan(elimination_plan(oracle, range(20), 0.4, 0.6, delta), oracle)
            low = sum(means[arm] < 0.4 for arm in survivors)
            clean += low <= 0.1 * len(survivors)
        assert clean >= binomial_pass_floor(trials, 1 - delta / 2)


def test_primitives_replay_deterministically():
    means = [0.8, 0.6, 0.4, 0.2]

    def run(seed):
        oracle = gaussian(means, seed=seed)
        est = run_plan(unif_sampl_plan(range(4), 0.25, 0.1), oracle)
        win = run_plan(med_elim_plan(range(4), 0.25, 0.1), oracle)
        verdict = run_plan(frac_test_plan(oracle, range(4), 0.3, 0.5, 0.3, 0.5, 0.1), oracle)
        survivors = run_plan(elimination_plan(oracle, range(4), 0.3, 0.5, 0.1), oracle)
        return est, win, verdict, survivors, list(oracle.counts)

    assert run(123) == run(123)
    assert run(123) != run(124)
