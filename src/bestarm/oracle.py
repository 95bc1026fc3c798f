"""Seeded reward channel, the only randomness source of a solver run, and the requests it serves.

A request names an ordered tuple of arms and is served in order, round after round,
so the RNG stream and the draw counters advance exactly as one request per arm and
round would; ``served()`` yields that order as ``(arm, draws)`` pairs.
:class:`MeanRequest` asks for empirical means, :class:`TallyRequest` for probe counts
below a cutoff.  A request is checked whole when it is built, by one written-out
``__init__``: it takes its arms and counts as exact Python ints (numpy ints included,
never added as numpy scalars; an arm or count that is not an integer raises
``TypeError``, as a float equal to an arm index would pass the range check), refuses
every value it can judge on its own with a ``ValueError``, and stores its ``cost``, the
draws it takes, and the ``scale`` its draws need.  Only its arms'
range waits for the oracle, whose :meth:`SamplingOracle.check_arms` refuses an arm
out of range.  Fulfilling it takes three steps: the oracle's gate (``queue_normals`` or
``queue_tallies``) checks the arms and draws the request whole; one sampler call per
listed arm takes that arm's draws of every round at once, a mean request's reply
summing each arm's normals by numpy's sum over its contiguous column (pairwise from 8
rounds on: only the baseline asks for more than one round, and it ignores the reply);
the draws go to the request's ``phase`` (``med``, ``anchor``, ``frac``, ``elim``,
``baseline``; ``""`` by default) in the oracle's ``draws_by_phase``.  A sampler called
on its own is its one-arm request, so every draw has a phase and
``total == sum(draws_by_phase.values())``.

The stream rule of the look-ahead: :meth:`SamplingOracle.preview` draws a block of rounds
ahead, and the normals drawn ahead are simply the stream's next normals.  Any mean request
takes them first, in stream order, and draws only the rest; the next preview, too, takes
its first normals from them.  A tally or a read of ``rng`` first gives them back: the
generator goes back to its state before the first normal drawn ahead, then past the
normals served since, in one draw of that count (``standard_normal`` fills an array in
stream order, so every value is that of one scalar call per arm and round).

An oracle's generator is ``np.random.default_rng(seed)``, bit for bit.  For a non-negative
int seed it is built from the seed's words, which a per-process cache keeps for the last
256 such seeds (:func:`_seed_words`, about 280 bytes each): a bench runs every algorithm
and instance at the same seeds, and deriving the words costs most of a fresh generator.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import islice, repeat
from operator import index

import numpy as np

_SQRT2 = math.sqrt(2.0)
TALLY_BATCH = 16  # fewest arms of a tally drawn in one array call: the measured break-even
_NO_ARMS = "a request needs at least one arm"  # no plan yields one


def _past_float_range(draws: int) -> ValueError:
    """The refusal of a ``draws`` count past the float range, which has no scale
    ``draws**-0.5`` or ``sqrt(draws)``."""
    return ValueError(f"draws must be within the float range, got a {draws.bit_length()}-bit count")


def _exact_arms(arms):
    """``arms`` as Python ints: as given when a float sum and then an int sum say so (the
    float sum first, as it adds numpy ints as floats, where the int sum would add them as
    numpy scalars that may wrap), else taken one by one; an arm that is not an integer
    raises ``TypeError`` naming it."""
    try:
        if type(sum(arms, 0.0)) is float and type(sum(arms)) is int:
            return arms
    except (OverflowError, TypeError):  # an int past the float range, or not a number
        pass
    exact = []
    for arm in arms:
        try:
            exact.append(index(arm))
        except TypeError as error:
            raise TypeError(f"arm {arm!r}: {error}") from None
    return tuple(exact)


def _column_sums(z: np.ndarray) -> list[float]:
    """Each arm's sum of the normals ``z`` of a ``(rounds, arms)`` block, by numpy's sum over
    the arm's contiguous column, as a queue: last arm first.  The sum is pairwise from 8
    rounds on; ``z.sum(axis=0)`` would add round after round, about 5 times slower over 2
    arms, though faster from about 32 on, where the copy costs more than it saves."""
    return np.ascontiguousarray(z.T).sum(axis=1)[::-1].tolist()


@dataclass(slots=True, init=False)
class MeanRequest:
    """Ask for the empirical mean of ``draws`` fresh rewards from each of ``arms`` in
    each of ``rounds`` rounds, served round after round, as :meth:`served` lists them.

    Built, it refuses no arms, a count below 1, ``rounds`` past what one int64-indexed
    array of normals holds over the arms, or ``draws`` past the float range, and stores its
    ``cost`` and the ``scale`` ``draws**-0.5 / rounds`` of its normals.  The gate,
    ``queue_normals``, checks its arms and draws every round's normals; each arm then
    takes its ``rounds * draws`` draws in one sampler call, and the reply lists its mean
    over its rounds, in arm order, its normals summed by numpy's sum over its column.
    Costs, budget stops and ``prefix`` follow the serving order.
    """

    arms: tuple[int, ...]
    draws: int
    phase: str
    rounds: int
    cost: int = field(init=False, compare=False)
    scale: float = field(init=False, compare=False)

    def __init__(self, arms, draws, *, phase="", rounds=1):
        if not arms:
            raise ValueError(_NO_ARMS)
        arms, draws, rounds = _exact_arms(arms), index(draws), index(rounds)
        self.arms, self.draws, self.rounds, self.phase = arms, draws, rounds, phase
        if draws < 1 or rounds < 1:
            raise ValueError(f"{'draws' if draws < 1 else 'rounds'} must be >= 1")
        if rounds != 1 and rounds * len(arms) >= 2**63:  # past one normals array's index
            raise ValueError(f"rounds * len(arms) must be below 2**63, got {rounds.bit_length()}-bit rounds")
        try:
            scale = draws**-0.5
        except OverflowError:
            raise _past_float_range(draws) from None
        self.scale = scale / rounds
        self.cost = draws * len(arms) * rounds

    def served(self) -> Iterator[tuple[int, int]]:
        """The ``(arm, draws)`` pairs in serving order: ``arms``, round after round."""
        return zip(self.arms * self.rounds, repeat(self.draws))

    def prefix(self, k: int) -> "MeanRequest":
        """The one-round request over the first ``k`` arms served."""
        return replace(self, arms=tuple(arm for arm, _ in islice(self.served(), k)), rounds=1)

    def fulfill(self, oracle) -> list[float]:
        oracle.queue_normals(self)
        means = [*map(oracle.sample_mean, self.arms, repeat(self.draws * self.rounds))]
        oracle.draws_by_phase[self.phase] += self.cost
        return means


@dataclass(slots=True, init=False)
class TallyRequest:
    """Ask how many of ``probes[i]`` independent mean-of-``draws`` estimates
    from ``arms[i]`` fall strictly below ``cutoff``, summed over the arms.

    Built, it refuses no arms, a count below 1, probes that do not pair one to one with the
    arms, a NaN cutoff, probes past int64 or ``draws`` past the float range, and stores
    its ``cost`` and the ``scale`` ``sqrt(draws)`` of its cutoff.  The gate,
    ``queue_tallies``, checks its arms and draws every arm's count; one sampler call per
    arm, in order, takes them.
    """

    arms: tuple[int, ...]
    draws: int
    probes: tuple[int, ...]
    cutoff: float
    phase: str
    cost: int = field(init=False, compare=False)
    scale: float = field(init=False, compare=False)

    def __init__(self, arms, draws, probes, cutoff, *, phase=""):
        if not arms:
            raise ValueError(_NO_ARMS)
        arms = _exact_arms(arms)
        try:  # numpy ints add up to a numpy float here, where an int sum of them could wrap
            exact = type(draws) is int and type(sum(probes, 0.0)) is float and type(n := sum(probes)) is int
        except (OverflowError, TypeError):  # past the float range, or not a number: taken one by one
            exact = False
        if not exact:
            draws, probes = index(draws), tuple(map(index, probes))
            n = sum(probes)
        self.arms, self.draws, self.probes, self.cutoff, self.phase = arms, draws, probes, cutoff, phase
        if draws < 1 or min(probes or (1,)) < 1:  # no probes: refused as unpaired, below
            raise ValueError("draws and probes must be >= 1")
        if len(probes) != len(arms):
            raise ValueError(f"a tally needs one probe count per arm, got {len(probes)} for {len(arms)} arms")
        if math.isnan(cutoff):
            raise ValueError("cutoff must not be NaN")
        if n >= 2**63 and max(probes) >= 2**63:
            raise ValueError(f"probes must be within the int64 range, got {max(probes)}")
        try:
            self.scale = math.sqrt(draws)
        except OverflowError:
            raise _past_float_range(draws) from None
        self.cost = draws * n

    def served(self) -> Iterator[tuple[int, int]]:
        """The ``(arm, draws)`` pairs in serving order: each arm once, with its probes' draws."""
        return ((arm, self.draws * n) for arm, n in zip(self.arms, self.probes))

    def prefix(self, k: int) -> "TallyRequest":
        """The same request over the first ``k`` arms."""
        return replace(self, arms=self.arms[:k], probes=self.probes[:k])

    def fulfill(self, oracle) -> int:
        oracle.queue_tallies(self)
        below = sum(map(oracle.count_means_below, self.arms, repeat(self.draws), self.probes,
                        repeat(self.cutoff)))
        oracle.draws_by_phase[self.phase] += self.cost
        return below


class _SeedWords:
    """The seed words of one generator, which ``PCG64`` takes as they are: a numpy
    ``ISeedSequence``, registered at run time, so that ``import bestarm`` leaves
    ``numpy.random`` unloaded."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=None):
        return self.words


@lru_cache(maxsize=256)  # a bench runs trial i at seed + i, over every (algo, instance) pair
def _seed_words(seed: int) -> _SeedWords:
    """The words ``default_rng(seed)`` seeds its generator with, for a non-negative int seed:
    ``SeedSequence(seed).generate_state(4, np.uint64)``, kept for the last 256 such seeds of
    the process, so that a seed used again skips the 16 hash calls that derive them."""
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    return _SeedWords(np.random.SeedSequence(seed).generate_state(4, np.uint64))


class SamplingOracle:
    """Draws unit-variance Gaussian rewards for one solver run and counts every draw per arm.

    Both the reward draws and the algorithm-internal randomness (arm picks, shuffles)
    consume one generator, read as ``self.rng``, so a single seed replays an entire run
    bit for bit.  The ledger is one list of Python ints, exact at any scale: ``total`` is
    its sum, ``draws_by_phase`` splits it by phase, and ``counts`` is a read-only array
    copy of it.

    Each request is checked whole when it is built, except for its arms, which only the
    oracle knows: the gate, :meth:`queue_normals` or :meth:`queue_tallies`, refuses an arm
    out of range (negative included, :meth:`check_arms`) before anything is charged,
    drawn or queued, and draws the whole request in serving order: the values and the
    stream of one scalar call per arm and round, with the joint law of drawing reward by
    reward (the mean of n draws is N(mu, 1/n)).  One sampler call per arm then pops its
    value and charges the ledger.  A Gaussian is ``mu + scale * z`` with ``z`` from a
    bound ``rng.standard_normal``, as ``rng.normal(mu, scale)`` computes it, bit for bit;
    a tally's counts come from a bound ``rng.binomial``.  :meth:`preview` shows the
    rewards of rounds not yet drawn, by the stream rule of the module docstring; whoever
    reads ``rng`` sees the stream where the requests served left it.
    """

    def __init__(self, means, seed=0):
        self._means = tuple(map(float, means))
        if not self._means:
            raise ValueError("oracle needs at least one arm")
        self._rng = np.random.default_rng(_seed_words(seed) if type(seed) is int and seed >= 0 else seed)
        self._normal, self._binomial = self._rng.standard_normal, self._rng.binomial
        # Normals drawn ahead of the stream, in stream order: the generator is past them, and
        # ``_saved`` less ``_served`` normals is where it was before them (all None when
        # nothing is drawn ahead).
        self._saved = self._served = self._tail = None
        self._queued = []  # normals or tallies drawn ahead for the next sampler calls, last first
        self._scale = 1.0  # the ``scale`` of the request whose normals are queued
        self._counts = [0] * len(self._means)  # the draw ledger, per arm
        self.arms = frozenset(range(len(self._means)))  # the valid arm indices, for range checks
        self.draws_by_phase = defaultdict(int)

    @classmethod
    def for_instance(cls, instance, seed=0) -> "SamplingOracle":
        return cls(instance.means, seed=seed)

    @property
    def rng(self) -> np.random.Generator:
        """The run's generator, where the requests served so far left it: normals drawn ahead
        are given back first."""
        if self._saved is not None:
            self._rewind()
        return self._rng

    def _rewind(self) -> None:
        """Give back the normals drawn ahead: restore the generator's saved state, then skip
        the normals served since, in one draw of that count (``standard_normal`` fills an
        array in stream order, so the generator lands where serving them one by one would)."""
        self._rng.bit_generator.state = self._saved
        if self._served:
            self._normal(self._served)
        self._saved = self._served = self._tail = None

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

    def check_arms(self, arms) -> None:
        """Refuse the first arm of ``arms`` out of range, negative included, with ``IndexError``."""
        if not self.arms.issuperset(arms):
            bad = next(arm for arm in arms if arm not in self.arms)
            raise IndexError(f"arm {bad} out of range for {self.n_arms} arms")

    def queue_normals(self, request: MeanRequest) -> None:
        """The gate of a mean request: queues the ``z`` of its arms (one scalar call for one
        arm in one round), or each arm's sum over its rounds, by numpy's sum over the arm's
        contiguous column (:func:`_column_sums`), at the request's ``scale``.  The normals
        drawn ahead come first, and only the rest are drawn."""
        arms, rounds = request.arms, request.rounds
        if not self.arms.issuperset(arms):  # tested inline: a call per request shows on small requests
            self.check_arms(arms)
        if self._saved is not None:
            z, n = self._tail, rounds * len(arms)
            if n < len(z):
                z, self._tail, self._served = z[:n], z[n:], self._served + n
            else:  # the generator is where these normals leave the stream
                z = z if n == len(z) else np.concatenate((z, self._normal(n - len(z))))
                self._saved = self._served = self._tail = None
            self._queued = _column_sums(z.reshape(rounds, -1)) if rounds != 1 else z[::-1].tolist()
        elif rounds != 1:
            self._queued = _column_sums(self._normal((rounds, len(arms))))
        elif len(arms) == 1:
            self._queued = [self._normal()]
        else:
            self._queued = self._normal(len(arms))[::-1].tolist()
        self._scale = request.scale

    def preview(self, arms, rounds: int) -> np.ndarray:
        """The rewards that the next ``rounds`` one-draw rounds over ``arms`` would give.

        A ``(rounds, len(arms))`` array, row r being what ``MeanRequest(arms, 1)``
        would return at its r-th fulfilment.  Nothing is charged and, to any reader of
        ``rng``, the stream does not move.  The block's normals come first from those drawn
        ahead already, and only the rest are drawn; they stay drawn ahead, for the requests
        that follow (see the module docstring).  An arm out of range, negative included,
        raises ``IndexError`` before anything is drawn.
        """
        self.check_arms(arms)
        need = rounds * len(arms)
        if self._saved is None:
            self._saved, self._served, self._tail = self._rng.bit_generator.state, 0, self._normal(need)
        elif len(self._tail) < need:
            self._tail = np.concatenate((self._tail, self._normal(need - len(self._tail))))
        return np.array([self._means[arm] for arm in arms]) + self._tail[:need].reshape(rounds, len(arms))

    def queue_tallies(self, request: TallyRequest) -> None:
        """The gate of a tally request: queues one count per arm, drawn in one array call
        from ``TALLY_BATCH`` arms, else one scalar call per arm."""
        arms, means, cutoff, scale = request.arms, self._means, request.cutoff, request.scale
        if not self.arms.issuperset(arms):
            self.check_arms(arms)
        if self._saved is not None:
            self._rewind()
        # No clamp: 0.5 * erfc(.) lies in [0, 1] for all x, +-inf included.
        ps = [0.5 * math.erfc(-((cutoff - means[arm]) * scale) / _SQRT2) for arm in arms]
        if len(arms) >= TALLY_BATCH:
            self._queued = self._binomial(request.probes, ps)[::-1].tolist()
        else:
            self._queued = [*map(self._binomial, request.probes, ps)][::-1]

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
