"""Seeded reward channel: the only randomness source of a solver run."""

from __future__ import annotations

import math
from collections import defaultdict
from operator import index

import numpy as np

_SQRT2 = math.sqrt(2.0)


def _past_float_range(draws: int) -> ValueError:
    """The refusal of a ``draws`` count past the float range, which has no scale
    ``draws**-0.5`` or ``sqrt(draws)``; raised before anything is charged or drawn."""
    return ValueError(f"draws must be within the float range, got a {draws.bit_length()}-bit count")


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
    overhead.  A request's normals (more than one arm or round, :meth:`queue_normals`) or
    counts (``primitives.TALLY_BATCH`` or more arms, :meth:`queue_tallies`) come from one
    array call, in serving order, with the values and the stream of one scalar call per
    arm and round; the scale of queued normals is computed once per request, not once
    per arm.  A request of several rounds queues one sum per arm, so that each arm takes
    all its rounds' draws in one ``sample_mean`` call.  Counts given as numpy integers are
    taken as Python ints once per request (by the requests, and by an unqueued
    ``sample_mean``), never per arm.  :meth:`preview` shows the rewards of rounds not yet
    drawn, without drawing them.
    """

    def __init__(self, means, seed=0):
        self._means = tuple(map(float, means))
        if not self._means:
            raise ValueError("oracle needs at least one arm")
        self.rng = np.random.default_rng(seed)
        self._normal = self.rng.standard_normal
        self._queued = []  # normals or tallies drawn ahead for the next sampler calls, last first
        self._scale = 1.0  # the scale ``draws**-0.5`` of the queued normals
        self._counts = [0] * len(self._means)  # the draw ledger, per arm
        self.arms = frozenset(range(len(self._means)))  # the valid arm indices, for range checks
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

    def queue_normals(self, k: int, draws: int, rounds: int = 1) -> None:
        """Draw the ``z`` of ``rounds`` rounds of ``k`` ``sample_mean(arm, draws)`` calls in
        one call, with their scale ``draws**-0.5``; a count past the float range is refused
        first.  Over several rounds, the next ``k`` calls, ``sample_mean(arm, rounds * draws)``,
        take the sum of their arm's ``z`` at ``1 / rounds`` of the scale: the mean of its rounds."""
        try:
            self._scale = draws**-0.5
        except OverflowError:
            raise _past_float_range(draws) from None
        if rounds == 1:
            self._queued = self._normal(k)[::-1].tolist()
        else:
            self._scale /= rounds
            self._queued = self._normal((rounds, k)).sum(axis=0)[::-1].tolist()

    def preview(self, arms, rounds: int) -> np.ndarray:
        """The rewards that the next ``rounds`` one-draw rounds over ``arms`` would give.

        A ``(rounds, len(arms))`` array, row r being what ``MeanRequest(arms, 1)``
        would return at its r-th fulfilment.  Nothing is charged and the stream does
        not move: the generator's state is restored after the draw.  An arm out of
        range, negative included, raises ``IndexError`` before anything is drawn.
        """
        if not self.arms.issuperset(arms):
            raise IndexError(f"preview of arms {tuple(arms)} out of range")
        bit_generator = self.rng.bit_generator
        state = bit_generator.state
        z = self._normal((rounds, len(arms)))
        bit_generator.state = state
        return np.array([self._means[arm] for arm in arms]) + z

    def queue_tallies(self, arms, draws: int, probes, cutoff: float) -> None:
        """Draw the counts of the next ``count_means_below`` calls, one per arm, in one call."""
        try:
            scale = math.sqrt(draws)
        except OverflowError:
            raise _past_float_range(draws) from None
        means = self._means
        ps = [0.5 * math.erfc(-((cutoff - means[arm]) * scale) / _SQRT2) for arm in arms]
        self._queued = self.rng.binomial(probes, ps)[::-1].tolist()

    def sample_mean(self, arm: int, draws: int) -> float:
        """Empirical mean of ``draws`` fresh rewards from one arm."""
        if draws < 1:
            raise ValueError("draws must be >= 1")
        if self._queued:  # a normal of this request, queued with its scale
            self._counts[arm] += draws
            return self._means[arm] + self._scale * self._queued.pop()
        if type(draws) is not int:  # a numpy int would make the ledger wrap
            draws = index(draws)
        try:
            scale = draws**-0.5
        except OverflowError:
            raise _past_float_range(draws) from None
        self._counts[arm] += draws
        return self._means[arm] + scale * self._normal()

    def count_means_below(self, arm: int, draws: int, probes: int, cutoff: float) -> int:
        """How many of ``probes`` independent mean-of-``draws`` estimates fall below ``cutoff``.

        Charges draws * probes samples to the arm, once the count is drawn.  The probability
        needs no clamp: 0.5 * erfc(.) lies in [0, 1] for all x, +-inf included; a NaN cutoff
        makes binomial raise, and so does a probe count past int64, refused here by name.
        """
        if draws < 1 or probes < 1:
            raise ValueError("draws and probes must be >= 1")
        if self._queued:
            self._counts[arm] += draws * probes
            return self._queued.pop()
        try:
            scale = math.sqrt(draws)
        except OverflowError:
            raise _past_float_range(draws) from None
        x = (cutoff - self._means[arm]) * scale
        try:
            below = self.rng.binomial(probes, 0.5 * math.erfc(-x / _SQRT2))
        except OverflowError:
            raise ValueError(f"probes must be within the int64 range, got {probes}") from None
        self._counts[arm] += draws * probes
        return below
