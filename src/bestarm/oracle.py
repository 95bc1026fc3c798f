"""Seeded reward channel: the only randomness source of a solver run."""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)


class SamplingOracle:
    """Draws unit-variance Gaussian rewards for one solver run and counts every draw per arm.

    Both the reward draws and the algorithm-internal randomness (arm picks,
    shuffles) consume ``self.rng``, so a single seed replays an entire run
    bit for bit.  The batched channels return sufficient statistics of
    groups of draws; these have exactly the joint law of drawing reward by
    reward (the mean of n draws is N(mu, 1/n)), while the counters always
    advance by the true number of underlying draws.  A counter that would
    pass the int64 range raises ``OverflowError`` before it is written; the
    running total is a Python int, exact at any scale.
    """

    def __init__(self, means, seed=0):
        self._means = tuple(float(m) for m in means)
        if not self._means:
            raise ValueError("oracle needs at least one arm")
        self.rng = np.random.default_rng(seed)
        self.counts = np.zeros(len(self._means), dtype=np.int64)
        self._total = 0

    @classmethod
    def for_instance(cls, instance, seed=0) -> "SamplingOracle":
        return cls(instance.means, seed=seed)

    @property
    def n_arms(self) -> int:
        return len(self._means)

    @property
    def total(self) -> int:
        """Total draws taken so far, over all arms."""
        return self._total

    def snapshot(self) -> list[int]:
        """The per-arm draw counters, as Python ints."""
        return self.counts.tolist()

    def draw(self, arm: int) -> float:
        """One reward from one arm; increments that arm's counter by one."""
        self.counts[arm] += 1
        self._total += 1
        return float(self.rng.normal(self._means[arm], 1.0))

    def sample_mean(self, arm: int, draws: int) -> float:
        """Empirical mean of ``draws`` fresh rewards from one arm."""
        if draws < 1:
            raise ValueError("draws must be >= 1")
        # Python-int sum: storing it raises OverflowError where += would wrap.
        self.counts[arm] = self.counts.item(arm) + draws
        self._total += draws
        return self.rng.normal(self._means[arm], draws**-0.5)

    def count_means_below(self, arm: int, draws: int, probes: int, cutoff: float) -> int:
        """How many of ``probes`` independent mean-of-``draws`` estimates fall below ``cutoff``.

        Counts draws * probes samples against the arm.  The probability needs no clamp:
        0.5 * erfc(.) lies in [0, 1] for all x, +-inf included; NaN makes binomial raise.
        """
        if draws < 1 or probes < 1:
            raise ValueError("draws and probes must be >= 1")
        n = draws * probes
        self.counts[arm] = self.counts.item(arm) + n
        self._total += n
        x = (cutoff - self._means[arm]) * math.sqrt(draws)
        return self.rng.binomial(probes, 0.5 * math.erfc(-x / _SQRT2))
