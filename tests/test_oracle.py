import numpy as np
import pytest

from bestarm import Instance, SamplingOracle, complexity_guessing
from doubles import DeterministicOracle


def test_every_draw_increments_one_counter():
    oracle = SamplingOracle([0.2, 0.8], seed=0)
    oracle.draw(0)
    oracle.draw(1)
    oracle.draw(1)
    assert list(oracle.counts) == [1, 2]
    assert oracle.total == 3


def test_same_seed_same_rewards():
    a = SamplingOracle([0.3, 0.6], seed=42)
    b = SamplingOracle([0.3, 0.6], seed=42)
    seq_a = [a.draw(i % 2) for i in range(50)]
    seq_b = [b.draw(i % 2) for i in range(50)]
    assert seq_a == seq_b
    assert list(a.counts) == list(b.counts)


def test_sample_mean_counts_all_draws():
    oracle = SamplingOracle([0.5], seed=1)
    value = oracle.sample_mean(0, 1000)
    assert oracle.total == 1000
    assert abs(value - 0.5) < 0.2  # sd is 1/sqrt(1000)


def test_sample_mean_distribution_matches_per_draw_scale():
    oracle = SamplingOracle([0.0], seed=9)
    values = [oracle.sample_mean(0, 400) for _ in range(2000)]
    assert np.std(values) == pytest.approx(1 / 20, rel=0.1)


def test_deterministic_family_returns_means_exactly():
    oracle = DeterministicOracle([0.7, 0.1], seed=5)
    state = oracle.rng.bit_generator.state
    assert oracle.draw(0) == 0.7
    assert oracle.sample_mean(1, 123) == 0.1
    assert oracle.count_means_below(0, 10, 7, 0.9) == 7
    assert oracle.count_means_below(0, 10, 7, 0.7) == 0  # strict below
    assert oracle.total == 1 + 123 + 70 + 70
    assert oracle.rng.bit_generator.state == state  # the double leaves the stream alone


def test_count_means_below_extremes():
    oracle = SamplingOracle([0.5], seed=2)
    # cutoff far above / below the mean saturates the probability
    assert oracle.count_means_below(0, 100, 50, 10.0) == 50
    assert oracle.count_means_below(0, 100, 50, -10.0) == 0
    assert oracle.total == 100 * 50 * 2


def test_count_means_below_matches_explicit_means():
    # Same law as thresholding explicit sample_mean estimates.
    oracle = SamplingOracle([0.5], seed=3)
    hits = oracle.count_means_below(0, 25, 4000, 0.55)
    explicit = SamplingOracle([0.5], seed=4)
    ref = sum(explicit.sample_mean(0, 25) < 0.55 for _ in range(4000))
    # Both are Binomial(4000, Phi(0.05*5)) draws: mean 2398, sd ~30.
    assert abs(hits - ref) < 150


def test_for_instance_matches_means():
    inst = Instance.from_means((1.0, 0.25))
    oracle = DeterministicOracle.for_instance(inst, seed=0)
    assert oracle.n_arms == 2
    assert oracle.draw(1) == 0.25


def test_overflowing_counter_raises_before_it_wraps():
    # gap 2^-16: the fraction tests' draw counts outgrow the int64 ledger
    inst = Instance.from_means((1.0, 0.9999847412109375))
    oracle = SamplingOracle.for_instance(inst, seed=0)
    with pytest.raises(OverflowError):
        complexity_guessing(oracle, inst, 0.01, budget=None)
    assert (oracle.counts >= 0).all()
