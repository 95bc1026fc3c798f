import math

import pytest

from bestarm import (
    BUDGET_EXCEEDED,
    OK,
    RunOutcome,
    SamplingOracle,
    bench,
    complexity_guessing_plan,
    measure_loss_profile,
    run_trials,
    sign_instance,
    solve,
)
from bestarm.signxi import loss_profile_rows


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


def sign_hits(hidden_mean, delta, trials):
    """How many ``guess`` runs at seeds 0..trials-1 name the sign of ``hidden_mean``."""
    report = run_trials("guess", sign_instance(hidden_mean), delta, trials, 0, budget=None)
    return report.trials - report.errors - report.budget_exceeded


class TestSolveSignXi:
    def test_positive_mean_mostly_positive(self):
        assert sign_hits(0.25, delta=0.05, trials=50) >= 46

    def test_negative_mean_mostly_negative(self):
        assert sign_hits(-0.25, delta=0.05, trials=50) >= 46

    def test_sample_exact_accounting(self):
        # a gap's mean is the guessing solver's exact totals over the seeded embedded oracles
        prof = measure_loss_profile([0.5, 0.5], delta=0.05, trials=30, base_seed=7, budget=None)
        for k in (1, 2):
            embedded = sign_instance(2.0**-k)
            totals = []
            for i in range(30):
                oracle = SamplingOracle.for_instance(embedded, seed=7 + (k - 1) * 30 + i)
                outcome = solve(complexity_guessing_plan, oracle, embedded, 0.05, budget=None)
                assert outcome.total_samples == oracle.total
                assert all(c > 0 for c in oracle.counts)  # both embedded arms really sampled
                totals.append(outcome.total_samples)
            assert prof.mean_samples[k - 1] == math.fsum(totals) / 30
            assert prof.alpha[k - 1] == prof.mean_samples[k - 1] / 4.0**k

    def test_budget_returns_no_decision(self):
        prof = measure_loss_profile([0.5, 0.5], delta=0.01, trials=30, budget=1000)
        assert prof.partial
        assert prof.alpha == (None, None) and prof.mean_samples == (None, None)

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


@pytest.fixture
def fake_runs(monkeypatch):
    """Script ``bench.run_one_trial``: each trial's total and status keyed by gap 2^-k."""

    def install(totals_by_gap, statuses=None):
        def run_one_trial(algo, instance, delta, seed, budget=None, trace=None):
            k = round(math.log2(1.0 / (instance.means[0] - instance.means[1])))
            status = (statuses or {}).get(k, OK)
            return RunOutcome(
                status=status,
                arm=0 if status == OK else None,
                total_samples=totals_by_gap[k],
                per_arm_samples=(totals_by_gap[k], 0),
                rounds_executed=1,
            )

        monkeypatch.setattr(bench, "run_one_trial", run_one_trial)

    return install


class TestMeasureLossProfile:
    def test_alpha_is_one_when_cost_matches_the_gap_scale(self, fake_runs):
        fake_runs({1: 4, 2: 16})
        prof = measure_loss_profile([0.5, 0.5], delta=0.05, trials=30)
        assert prof.alpha == (1.0, 1.0)
        assert prof.expected_loss == 1.0
        assert not prof.partial

    def test_uniform_entropy(self, fake_runs):
        fake_runs({1: 4, 2: 16})
        prof = measure_loss_profile([0.5, 0.5], delta=0.05, trials=30)
        assert prof.ent_p == pytest.approx(math.log(2), rel=1e-12)

    def test_budget_marks_gap_missing_and_profile_partial(self, fake_runs):
        fake_runs({1: 4, 2: 16}, statuses={2: BUDGET_EXCEEDED})
        prof = measure_loss_profile([0.5, 0.5], delta=0.05, trials=30)
        assert prof.alpha == (1.0, None)
        assert prof.partial
        assert prof.expected_loss is None

    def test_validates_distribution(self, fake_runs):
        fake_runs({1: 4})
        with pytest.raises(ValueError):
            measure_loss_profile([0.7, 0.7], 0.05, 30)
        with pytest.raises(ValueError):
            measure_loss_profile([0.2] * 5, 0.05, 30)
        with pytest.raises(ValueError):
            measure_loss_profile([1.0], 0.05, 10)

    def test_csv_rows_shape(self, fake_runs):
        fake_runs({1: 8, 2: 32})
        prof = measure_loss_profile([0.25, 0.75], delta=0.05, trials=30)
        rows = loss_profile_rows(prof)
        assert rows[0] == ["k", "p_k", "alpha_k", "mean_samples"]
        assert rows[1][0] == "1" and rows[2][0] == "2"
        assert rows[-2][0] == "expected_loss"
        assert rows[-1][0] == "ln_inv_delta"
