"""Seeded reward channel: the only randomness source of a solver run."""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

_SQRT2 = math.sqrt(2.0)


class SamplingOracle:
    """Draws unit-variance Gaussian rewards for one solver run and counts every draw per arm.

    Both the reward draws and the algorithm-internal randomness (arm picks, shuffles)
    consume ``self.rng``, so a single seed replays an entire run bit for bit.  The batched
    channels return sufficient statistics of groups of draws, with exactly the joint law of
    drawing reward by reward (the mean of n draws is N(mu, 1/n)), while the ledger advances
    by the true number of underlying draws.  The ledger is one list of Python ints, exact
    at any scale: ``total`` is its sum, ``draws_by_phase`` splits it by phase, and
    ``counts`` is a read-only array copy of it, kept for the benchmark's tracer.  A Gaussian
    is ``mu + scale * z`` with ``z`` from a bound ``rng.standard_normal``, as numpy's
    ``rng.normal(mu, scale)`` computes it: the same float and generator state, at less call
    overhead.  A request's normals (two or more arms, :meth:`queue_normals`) or counts
    (``primitives.TALLY_BATCH`` or more arms, :meth:`queue_tallies`) come from one array
    call, in arm order, with the values and the stream of one scalar call per arm.
    """

    def __init__(self, means, seed=0):
        self._means = tuple(float(m) for m in means)
        if not self._means:
            raise ValueError("oracle needs at least one arm")
        self.rng = np.random.default_rng(seed)
        self._normal = self.rng.standard_normal
        self._queued = []  # normals or tallies drawn ahead for the next sampler calls, last first
        self._counts = [0] * len(self._means)  # the draw ledger, per arm
        self.draws_by_phase = defaultdict(int)

    @classmethod
    def for_instance(cls, instance, seed=0) -> "SamplingOracle":
        return cls(instance.means, seed=seed)

    @property
    def n_arms(self) -> int:
        return len(self._means)

    @property
    def total(self) -> int:
        """Total draws taken so far, over all arms: the sum of the ledger."""
        return sum(self._counts)

    @property
    def counts(self) -> np.ndarray:  # the tracer reads its ``sum()``
        view = np.array(self._counts, dtype=object)
        view.flags.writeable = False
        return view

    def snapshot(self) -> list[int]:
        """The per-arm draw counters, as a fresh list of Python ints."""
        return self._counts.copy()

    def draw(self, arm: int) -> float:
        """One reward from one arm; increments that arm's counter by one."""
        return self.sample_mean(arm, 1)

    def queue_normals(self, k: int) -> None:
        """Draw the ``z`` of the next ``k`` ``sample_mean`` calls in one call."""
        self._queued = self._normal(k)[::-1].tolist()

    def queue_tallies(self, arms, draws: int, probes, cutoff: float) -> None:
        """Draw the counts of the next ``count_means_below`` calls, one per arm, in one call."""
        scale, means = math.sqrt(draws), self._means
        ps = [0.5 * math.erfc(-((cutoff - means[arm]) * scale) / _SQRT2) for arm in arms]
        self._queued = self.rng.binomial(probes, ps)[::-1].tolist()

    def sample_mean(self, arm: int, draws: int) -> float:
        """Empirical mean of ``draws`` fresh rewards from one arm."""
        if draws < 1:
            raise ValueError("draws must be >= 1")
        self._counts[arm] += draws
        z = self._queued.pop() if self._queued else self._normal()
        return self._means[arm] + draws**-0.5 * z

    def refund(self, arms, draws: int) -> None:
        """Undo a mean request over ``arms`` that failed on an arm out of range: take back
        ``draws`` from each arm before that one, and drop the normals drawn ahead."""
        self._queued = []
        for arm in arms:
            try:
                self._counts[arm] -= draws
            except IndexError:  # the arm ``sample_mean`` failed on
                return

    def count_means_below(self, arm: int, draws: int, probes: int, cutoff: float) -> int:
        """How many of ``probes`` independent mean-of-``draws`` estimates fall below ``cutoff``.

        Charges draws * probes samples to the arm.  The probability needs no clamp: 0.5 *
        erfc(.) lies in [0, 1] for all x, +-inf included; a NaN cutoff makes binomial raise
        here (``TallyRequest`` refuses one before any arm is charged).
        """
        if draws < 1 or probes < 1:
            raise ValueError("draws and probes must be >= 1")
        self._counts[arm] += draws * probes
        if self._queued:
            return self._queued.pop()
        x = (cutoff - self._means[arm]) * math.sqrt(draws)
        return self.rng.binomial(probes, 0.5 * math.erfc(-x / _SQRT2))
