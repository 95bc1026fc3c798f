import math

import pytest

from bestarm import (
    BUDGET_EXCEEDED,
    OK,
    RunOutcome,
    SamplingOracle,
    complexity_guessing_plan,
    measure_loss_profile,
    run_sign_trial,
    sign_instance,
    solve,
)
from bestarm.signxi import NEGATIVE, POSITIVE, SignResult, loss_profile_rows


class TestSignInstance:
    def test_positive_embedding(self):
        inst = sign_instance(0.25)
        assert inst.means == (0.75, 0.5)

    def test_negative_embedding(self):
        inst = sign_instance(-0.25)
        assert inst.means == (0.25, 0.5)

    def test_reference_arm_sits_exactly_at_the_shift(self):
        for mu in (0.5, -0.5, 0.03125):
            assert sign_instance(mu).means[1] == 0.5

    def test_rejects_out_of_range_means(self):
        for bad in (0.0, 0.75, -0.6, 1.0):
            with pytest.raises(ValueError):
                sign_instance(bad)


class TestSolveSignXi:
    def test_positive_mean_mostly_positive(self):
        hits = 0
        for seed in range(50):
            res = run_sign_trial(0.25, delta=0.05, seed=seed, budget=None)
            assert res.outcome.status == OK
            hits += res.decision == POSITIVE
        assert hits >= 46

    def test_negative_mean_mostly_negative(self):
        hits = 0
        for seed in range(50):
            res = run_sign_trial(-0.25, delta=0.05, seed=seed, budget=None)
            hits += res.decision == NEGATIVE
        assert hits >= 46

    def test_sample_exact_accounting(self):
        res = run_sign_trial(0.25, delta=0.05, seed=7, budget=None)
        # the trial is the guessing solver over the seeded embedded oracle
        embedded = sign_instance(0.25)
        oracle = SamplingOracle.for_instance(embedded, seed=7)
        assert res.outcome == solve(complexity_guessing_plan, oracle, embedded, 0.05, budget=None)
        assert res.outcome.total_samples == oracle.total
        assert res.outcome.per_arm_samples == tuple(int(c) for c in oracle.counts)
        assert all(c > 0 for c in oracle.counts)  # both embedded arms really sampled

    def test_budget_returns_no_decision(self):
        res = run_sign_trial(0.25, delta=0.01, seed=0, budget=1000)
        assert res.decision is None
        assert res.outcome.status == BUDGET_EXCEEDED

    def test_relabeling_the_physical_arms_is_immaterial(self):
        # measured cost is a set-level property: racing (mu+0.5 vs 0.5)
        # costs the same, within noise, as racing (0.5 vs mu+0.5)
        import bestarm

        fwd = sign_instance(0.25)
        rev = bestarm.Instance.from_means((0.5, 0.75), label="sign-rev")
        fwd_mean = sum(
            solve(
                complexity_guessing_plan, SamplingOracle.for_instance(fwd, seed=s), fwd, 0.05,
                budget=None,
            ).total_samples
            for s in range(100)
        ) / 100
        rev_mean = sum(
            solve(
                complexity_guessing_plan, SamplingOracle.for_instance(rev, seed=s), rev, 0.05,
                budget=None,
            ).total_samples
            for s in range(100)
        ) / 100
        assert abs(fwd_mean - rev_mean) <= 0.2 * max(fwd_mean, rev_mean)


def fake_solver(totals_by_gap, statuses=None):
    """Deterministic stand-in trial runner with scripted totals."""

    def solver(hidden_mean, delta, seed, *, budget=None):
        k = round(math.log2(1.0 / hidden_mean))
        status = (statuses or {}).get(k, OK)
        outcome = RunOutcome(
            status=status,
            arm=0 if status == OK else None,
            total_samples=totals_by_gap[k],
            per_arm_samples=(totals_by_gap[k], 0),
            rounds_executed=1,
        )
        return SignResult(POSITIVE if status == OK else None, outcome)

    return solver


class TestMeasureLossProfile:
    def test_alpha_is_one_when_cost_matches_the_gap_scale(self):
        prof = measure_loss_profile(
            fake_solver({1: 4, 2: 16}), [0.5, 0.5], delta=0.05, trials=30
        )
        assert prof.alpha == (1.0, 1.0)
        assert prof.expected_loss == 1.0
        assert not prof.partial

    def test_uniform_entropy(self):
        prof = measure_loss_profile(
            fake_solver({1: 4, 2: 16}), [0.5, 0.5], delta=0.05, trials=30
        )
        assert prof.ent_p == pytest.approx(math.log(2), rel=1e-12)

    def test_budget_marks_gap_missing_and_profile_partial(self):
        prof = measure_loss_profile(
            fake_solver({1: 4, 2: 16}, statuses={2: BUDGET_EXCEEDED}),
            [0.5, 0.5],
            delta=0.05,
            trials=30,
        )
        assert prof.alpha == (1.0, None)
        assert prof.partial
        assert prof.expected_loss is None

    def test_validates_distribution(self):
        with pytest.raises(ValueError):
            measure_loss_profile(fake_solver({1: 4}), [0.7, 0.7], 0.05, 30)
        with pytest.raises(ValueError):
            measure_loss_profile(fake_solver({1: 4}), [0.2] * 5, 0.05, 30)
        with pytest.raises(ValueError):
            measure_loss_profile(fake_solver({1: 4}), [1.0], 0.05, 10)

    def test_csv_rows_shape(self):
        prof = measure_loss_profile(
            fake_solver({1: 8, 2: 32}), [0.25, 0.75], delta=0.05, trials=30
        )
        rows = loss_profile_rows(prof)
        assert rows[0] == ["k", "p_k", "alpha_k", "mean_samples"]
        assert rows[1][0] == "1" and rows[2][0] == "2"
        assert rows[-2][0] == "expected_loss"
        assert rows[-1][0] == "ln_inv_delta"
