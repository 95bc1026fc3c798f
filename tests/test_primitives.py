import math

import numpy as np
import pytest

from bestarm import (
    SamplingOracle,
    elimination,
    frac_test,
    med_elim,
    unif_sampl,
    unif_sample_size,
)
from bestarm.primitives import frac_test_probe_counts
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
        unif_sampl(oracle, [0, 1, 2], eps=0.1, delta=0.05)
        assert list(oracle.counts) == [738, 738, 738]
        assert oracle.total == 2214

    def test_exact_integer_count(self):
        # ln(2/delta) = 2 by construction, so exactly 4 draws
        oracle = gaussian([0.5])
        unif_sampl(oracle, [0], eps=1.0, delta=2.0 / math.e**2)
        assert oracle.total == 4

    def test_deterministic_oracle_estimates_exactly(self):
        oracle = fixed([0.7, 0.7])
        estimates = unif_sampl(oracle, [0, 1], eps=0.3, delta=0.1)
        assert estimates == {0: 0.7, 1: 0.7}

    def test_estimate_map_covers_exactly_the_queried_set(self):
        oracle = gaussian([0.1, 0.5, 0.9])
        estimates = unif_sampl(oracle, [2, 0], eps=0.5, delta=0.2)
        assert set(estimates) == {2, 0}
        assert oracle.counts[1] == 0

    def test_rejects_bad_arguments(self):
        oracle = gaussian([0.5])
        with pytest.raises(ValueError):
            unif_sampl(oracle, [], eps=0.1, delta=0.1)
        with pytest.raises(ValueError):
            unif_sampl(oracle, [0], eps=0.0, delta=0.1)
        with pytest.raises(ValueError):
            unif_sampl(oracle, [0], eps=0.1, delta=1.0)

    def test_count_grid_matches_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            eps = float(rng.uniform(0.05, 1.0))
            delta = float(rng.uniform(0.001, 0.3))
            oracle = gaussian([0.5])
            unif_sampl(oracle, [0], eps, delta)
            assert oracle.total == unif_sample_size(eps, delta)
            assert oracle.total == math.ceil(2 * eps**-2 * math.log(2 / delta) - 1e-9)


class TestMedElim:
    def test_singleton_returns_without_sampling(self):
        oracle = gaussian([0.4, 0.9])
        assert med_elim(oracle, [1], eps=0.5, delta=0.1) == 1
        assert oracle.total == 0

    def test_deterministic_two_arms(self):
        oracle = fixed([1.0, 0.0])
        assert med_elim(oracle, [0, 1], eps=0.25, delta=0.1) == 0

    def test_first_round_schedule_on_four_arms(self):
        # eps_1 = eps/4, delta_1 = delta/2: per-arm draws ceil(2 (eps/8)^-2 ln(6/delta)).
        eps, delta = 0.5, 0.1
        expected_round1 = math.ceil(2 * (eps / 8) ** -2 * math.log(6 / delta) - 1e-9)
        assert expected_round1 == 2097
        oracle = fixed([0.9, 0.8, 0.2, 0.1])
        winner = med_elim(oracle, [0, 1, 2, 3], eps=eps, delta=delta)
        assert winner == 0
        # the two weakest arms leave after round 1 with exactly its draws
        assert oracle.counts[2] == expected_round1
        assert oracle.counts[3] == expected_round1
        assert oracle.counts[0] > expected_round1

    def test_tie_break_prefers_first_listed(self):
        oracle = fixed([0.5, 0.5, 0.5, 0.1])
        assert med_elim(oracle, [2, 0, 1, 3], eps=0.5, delta=0.1) == 2

    def test_eps_optimal_with_high_probability(self):
        means = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
        eps, delta, trials = 0.125, 0.1, 500
        hits = 0
        for seed in range(trials):
            winner = med_elim(gaussian(means, seed=seed), range(10), eps, delta)
            hits += means[winner] >= 1.0 - eps
        assert hits >= binomial_pass_floor(trials, 1 - delta)


class TestFracTest:
    def test_probe_count_worked_example(self):
        probes, per_probe = frac_test_probe_counts(0.0, 0.5, 0.3, 0.5, 0.1)
        assert probes == 2697
        oracle = fixed([1.0, 1.0])
        frac_test(oracle, [0, 1], 0.0, 0.5, 0.3, 0.5, 0.1)
        assert oracle.total == probes * per_probe

    def test_all_means_above_band_returns_false(self):
        oracle = fixed([1.0, 0.9, 0.95])
        assert frac_test(oracle, [0, 1, 2], c_lo=0.2, c_hi=0.4, theta_lo=0.3,
                         theta_hi=0.5, delta=0.1) is False

    def test_all_means_below_band_returns_true(self):
        oracle = fixed([0.0, 0.05, 0.1])
        assert frac_test(oracle, [0, 1, 2], c_lo=0.4, c_hi=0.6, theta_lo=0.3,
                         theta_hi=0.5, delta=0.1) is True

    def test_rejects_disordered_thresholds(self):
        oracle = fixed([0.5])
        with pytest.raises(ValueError):
            frac_test(oracle, [0], 0.6, 0.4, 0.3, 0.5, 0.1)
        with pytest.raises(ValueError):
            frac_test(oracle, [0], 0.4, 0.6, 0.5, 0.3, 0.1)

    def test_true_side_guarantee(self):
        # 12 of 20 arms below c_lo: fraction 0.6 >= theta_hi = 0.5
        means = [0.1] * 12 + [0.9] * 8
        delta, trials = 0.1, 500
        hits = sum(
            frac_test(gaussian(means, seed=s), range(20), 0.4, 0.6, 0.3, 0.5, delta)
            for s in range(trials)
        )
        assert hits >= binomial_pass_floor(trials, 1 - delta)

    def test_false_side_guarantee(self):
        # 6 of 20 arms below c_hi: fraction 0.3 <= theta_lo
        means = [0.1] * 6 + [0.9] * 14
        delta, trials = 0.1, 500
        hits = sum(
            not frac_test(gaussian(means, seed=s), range(20), 0.4, 0.6, 0.3, 0.5, delta)
            for s in range(trials)
        )
        assert hits >= binomial_pass_floor(trials, 1 - delta)


class TestElimination:
    def test_no_crowd_returns_set_unchanged(self):
        oracle = fixed([0.9, 0.8, 0.7])
        survivors = elimination(oracle, [0, 1, 2], d_lo=0.4, d_hi=0.6, delta=0.1)
        assert survivors == [0, 1, 2]

    def test_low_crowd_is_purged_to_the_top_arm(self):
        # one top arm plus 20 arms far below d_lo
        oracle = fixed([1.0] + [0.0] * 20)
        survivors = elimination(oracle, range(21), d_lo=0.4, d_hi=0.6, delta=0.1)
        assert survivors == [0]

    def test_single_high_arm_survives(self):
        oracle = fixed([0.95])
        assert elimination(oracle, [0], d_lo=0.4, d_hi=0.6, delta=0.1) == [0]

    def test_rejects_bad_arguments(self):
        oracle = fixed([0.5])
        with pytest.raises(ValueError):
            elimination(oracle, [], 0.4, 0.6, 0.1)
        with pytest.raises(ValueError):
            elimination(oracle, [0], 0.6, 0.4, 0.1)

    def test_high_arms_are_retained(self):
        # every arm with mean >= d_hi stays, w.p. >= 1 - delta/2 each
        means = [0.9] * 10 + [0.1] * 10
        delta, trials = 0.1, 500
        kept_all = 0
        for seed in range(trials):
            survivors = elimination(gaussian(means, seed=seed), range(20), 0.4, 0.6, delta)
            kept_all += all(arm in survivors for arm in range(10))
        assert kept_all >= binomial_pass_floor(trials, 1 - delta)

    def test_output_is_mostly_purged(self):
        means = [0.9] * 10 + [0.1] * 10
        delta, trials = 0.1, 500
        clean = 0
        for seed in range(trials):
            survivors = elimination(gaussian(means, seed=seed), range(20), 0.4, 0.6, delta)
            low = sum(means[arm] < 0.4 for arm in survivors)
            clean += low <= 0.1 * len(survivors)
        assert clean >= binomial_pass_floor(trials, 1 - delta / 2)


def test_primitives_replay_deterministically():
    means = [0.8, 0.6, 0.4, 0.2]

    def run(seed):
        oracle = gaussian(means, seed=seed)
        est = unif_sampl(oracle, range(4), 0.25, 0.1)
        win = med_elim(oracle, range(4), 0.25, 0.1)
        verdict = frac_test(oracle, range(4), 0.3, 0.5, 0.3, 0.5, 0.1)
        survivors = elimination(oracle, range(4), 0.3, 0.5, 0.1)
        return est, win, verdict, survivors, list(oracle.counts)

    assert run(123) == run(123)
    assert run(123) != run(124)
