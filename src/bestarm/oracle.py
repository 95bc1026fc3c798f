"""Seeded reward channel, the only randomness source of a solver run, and the requests it serves.

A request names an ordered tuple of arms and is served in order, round after round,
so the RNG stream and the draw counters advance exactly as one request per arm and
round would.  :class:`MeanRequest` asks for empirical means, :class:`TallyRequest` for
probe counts below a cutoff.  A request takes its counts as exact Python ints when it
is built (numpy ints included; a count that is not an integer raises ``TypeError``),
and its ``cost``, the draws it takes, with them.  Fulfilling it takes three steps: the
oracle's gate (``queue_normals`` or ``queue_tallies``) checks the request once and
draws it whole; one sampler call per listed arm takes that arm's draws of every round
at once; the draws go to the request's ``phase`` (``med``, ``anchor``, ``frac``,
``elim``, ``baseline``; ``""`` by default) in the oracle's ``draws_by_phase``.  A
sampler called on its own is its one-arm request, so every draw has a phase and
``total == sum(draws_by_phase.values())``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import index

import numpy as np

_SQRT2 = math.sqrt(2.0)
TALLY_BATCH = 16  # fewest arms of a tally drawn in one array call: the measured break-even


def _past_float_range(draws: int) -> ValueError:
    """The refusal of a ``draws`` count past the float range, which has no scale
    ``draws**-0.5`` or ``sqrt(draws)``."""
    return ValueError(f"draws must be within the float range, got a {draws.bit_length()}-bit count")


def _out_of_range(arms, oracle) -> IndexError:
    bad = next(arm for arm in arms if arm not in oracle.arms)
    return IndexError(f"arm {bad} out of range for {oracle.n_arms} arms")


@dataclass(slots=True)
class MeanRequest:
    """Ask for the empirical mean of ``draws`` fresh rewards from each of ``arms`` in
    each of ``rounds`` rounds, served round after round: the serving order ``arms * rounds``.

    The gate, ``queue_normals``, checks it and draws every round's normals; each arm then
    takes its ``rounds * draws`` draws in one sampler call, and the reply lists its mean
    over its rounds, in arm order.  Costs, budget stops and ``prefix`` follow the serving
    order.
    """

    arms: tuple[int, ...]
    draws: int
    phase: str = field(default="", kw_only=True)
    rounds: int = field(default=1, kw_only=True)
    cost: int = field(init=False, compare=False)

    def __post_init__(self):
        self.draws, self.rounds = index(self.draws), index(self.rounds)
        self.cost = self.draws * len(self.arms) * self.rounds

    def arm_costs(self) -> list[int]:
        """Draws of each arm, in serving order."""
        return [self.draws] * (len(self.arms) * self.rounds)

    def prefix(self, k: int) -> "MeanRequest":
        """The one-round request over the first ``k`` arms served."""
        return replace(self, arms=(self.arms * self.rounds)[:k], rounds=1)

    def fulfill(self, oracle) -> list[float]:
        arms, draws = self.arms, self.draws * self.rounds
        oracle.queue_normals(arms, self.draws, self.rounds)
        sample_mean = oracle.sample_mean
        means = [sample_mean(arm, draws) for arm in arms]
        oracle.draws_by_phase[self.phase] += self.cost
        return means


@dataclass(slots=True)
class TallyRequest:
    """Ask how many of ``probes[i]`` independent mean-of-``draws`` estimates
    from ``arms[i]`` fall strictly below ``cutoff``, summed over the arms.

    The gate, ``queue_tallies``, checks it and draws every arm's count; one sampler
    call per arm, in order, takes them.
    """

    arms: tuple[int, ...]
    draws: int
    probes: tuple[int, ...]
    cutoff: float
    phase: str = field(default="", kw_only=True)
    cost: int = field(init=False, compare=False)

    def __post_init__(self):
        draws, probes = self.draws, self.probes
        try:  # numpy ints add up to a numpy float here, where an int sum of them could wrap
            exact = type(draws) is int and type(sum(probes, 0.0)) is float and type(n := sum(probes)) is int
        except OverflowError:  # a count past the float range: taken one by one
            exact = False
        if not exact:
            self.draws, self.probes = index(draws), tuple(map(index, probes))
            n = sum(self.probes)
        self.cost = self.draws * n

    def arm_costs(self) -> list[int]:
        """Draws of each arm, in arm order."""
        return [self.draws * n for n in self.probes]

    def prefix(self, k: int) -> "TallyRequest":
        """The same request over the first ``k`` arms."""
        return replace(self, arms=self.arms[:k], probes=self.probes[:k])

    def fulfill(self, oracle) -> int:
        arms, draws, probes, cutoff = self.arms, self.draws, self.probes, self.cutoff
        oracle.queue_tallies(arms, draws, probes, cutoff)
        below = sum(map(oracle.count_means_below, arms, repeat(draws), probes, repeat(cutoff)))
        oracle.draws_by_phase[self.phase] += self.cost
        return below


class SamplingOracle:
    """Draws unit-variance Gaussian rewards for one solver run and counts every draw per arm.

    Both the reward draws and the algorithm-internal randomness (arm picks, shuffles)
    consume ``self.rng``, so a single seed replays an entire run bit for bit.  The ledger
    is one list of Python ints, exact at any scale: ``total`` is its sum, ``draws_by_phase``
    splits it by phase, and ``counts`` is a read-only array copy of it.

    Each request passes one gate, :meth:`queue_normals` or :meth:`queue_tallies`.  It
    refuses a count below 1, a tally whose probes do not pair with its arms, a NaN cutoff,
    an arm out of range (negative included), ``draws`` past the float range or probes
    past int64 before anything is charged, drawn or queued; and draws the whole request
    in serving order: the values and the stream of one scalar call per arm and round,
    with the joint law of drawing reward by reward (the mean of n draws is N(mu, 1/n)).
    One sampler call per arm then pops its value and charges the ledger.  A Gaussian is
    ``mu + scale * z`` with ``z`` from a bound ``rng.standard_normal``, as
    ``rng.normal(mu, scale)`` computes it, bit for bit.  :meth:`preview` shows the
    rewards of rounds not yet drawn, without drawing them.
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

    def queue_normals(self, arms, draws: int, rounds: int = 1) -> None:
        """The gate of ``rounds`` rounds of ``sample_mean(arm, draws)`` over ``arms``: queues
        their ``z`` at the scale ``draws**-0.5`` (one scalar call for one arm in one round),
        or each arm's sum over its rounds at ``1 / rounds`` of it."""
        if draws < 1:
            raise ValueError("draws must be >= 1")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not self.arms.issuperset(arms):
            raise _out_of_range(arms, self)
        try:
            scale = draws**-0.5
        except OverflowError:
            raise _past_float_range(draws) from None
        if rounds != 1:
            self._queued = self._normal((rounds, len(arms))).sum(axis=0)[::-1].tolist()
            scale /= rounds
        elif len(arms) == 1:
            self._queued = [self._normal()]
        else:
            self._queued = self._normal(len(arms))[::-1].tolist()
        self._scale = scale

    def preview(self, arms, rounds: int) -> np.ndarray:
        """The rewards that the next ``rounds`` one-draw rounds over ``arms`` would give.

        A ``(rounds, len(arms))`` array, row r being what ``MeanRequest(arms, 1)``
        would return at its r-th fulfilment.  Nothing is charged and the stream does
        not move: the generator's state is restored after the draw.  An arm out of
        range, negative included, raises ``IndexError`` before anything is drawn.
        """
        if not self.arms.issuperset(arms):
            raise _out_of_range(arms, self)
        bit_generator = self.rng.bit_generator
        state = bit_generator.state
        z = self._normal((rounds, len(arms)))
        bit_generator.state = state
        return np.array([self._means[arm] for arm in arms]) + z

    def queue_tallies(self, arms, draws: int, probes, cutoff: float) -> None:
        """The gate of one ``count_means_below(arm, draws, n, cutoff)`` per arm and its probes
        ``n``: queues the counts, drawn in one array call from ``TALLY_BATCH`` arms, else one
        scalar call per arm."""
        if draws < 1 or min(probes) < 1:
            raise ValueError("draws and probes must be >= 1")
        if len(probes) != len(arms):
            raise ValueError(f"a tally needs one probe count per arm, got {len(probes)} for {len(arms)} arms")
        if math.isnan(cutoff):
            raise ValueError("cutoff must not be NaN")
        if not self.arms.issuperset(arms):
            raise _out_of_range(arms, self)
        if sum(probes) >= 2**63 and max(probes) >= 2**63:
            raise ValueError(f"probes must be within the int64 range, got {max(probes)}")
        try:
            scale = math.sqrt(draws)
        except OverflowError:
            raise _past_float_range(draws) from None
        means = self._means
        # No clamp: 0.5 * erfc(.) lies in [0, 1] for all x, +-inf included.
        ps = [0.5 * math.erfc(-((cutoff - means[arm]) * scale) / _SQRT2) for arm in arms]
        if len(arms) >= TALLY_BATCH:
            self._queued = self.rng.binomial(probes, ps)[::-1].tolist()
        else:
            self._queued = [*map(self.rng.binomial, probes, ps)][::-1]

    def sample_mean(self, arm: int, draws: int) -> float:
        """Empirical mean of ``draws`` fresh rewards from one arm: the next queued normal."""
        if not self._queued:  # called on its own: its one-arm request
            return MeanRequest((arm,), draws).fulfill(self)[0]
        self._counts[arm] += draws
        return self._means[arm] + self._scale * self._queued.pop()

    def count_means_below(self, arm: int, draws: int, probes: int, cutoff: float) -> int:
        """How many of ``probes`` independent mean-of-``draws`` estimates fall below
        ``cutoff``: the next queued count.  Charges ``draws * probes`` samples to the arm."""
        if not self._queued:  # called on its own: its one-arm request
            return TallyRequest((arm,), draws, (probes,), cutoff).fulfill(self)
        self._counts[arm] += draws * probes
        return self._queued.pop()
