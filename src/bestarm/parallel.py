"""Interleaved execution of confidence-laddered solver copies.

Copies k = 1, 2, ... of a solver run at confidence delta / 2^k, each on its
own independently seeded oracle.  Copy k is fed exactly one reward draw at
every iteration index divisible by 2^(k-1); the first copy to finish
decides the answer, and a union bound over the ladder keeps the whole
construction delta-correct while sampling only a constant factor more than
the first copy.

The engine is event-driven rather than draw-by-draw: copy k's g-th draw
grant lands at iteration g * 2^(k-1), so a request of B draws issued after
C earlier draws completes exactly at iteration (C + B) * 2^(k-1).  Jumping
between those completion events reproduces the per-draw schedule precisely,
because a copy blocked inside a batched request makes no decisions until
the batch completes.

Events are ordered by a binary heap of ``(finish_iteration, index)``
entries, one per spawned copy, so selecting the next event and re-keying
the copy just served cost O(log K) for K copies.  Equal finish iterations
go to the lower copy index, which is the order in which the per-draw
schedule serves copies within one iteration.

Copy k's generator is seeded exactly as ``SeedSequence(seed, spawn_key=(k - 1,))``
seeds it, from seed words derived once per run: the base seed is mixed once, and
the rest runs on a block of copies at a time as uint32 arrays.  A request covers
several arms, served in order, and the ledger stays per draw.  Each copy's
oracle is its only draw ledger.  A copy is a :class:`~bestarm.primitives.PlanRun`,
whose ``advance`` serves every request, so under a budget a copy stops at the
first arm that crosses its cap.  When the winner finishes, each other copy's
draws toward its request in flight are attributed arm by arm.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from .instances import Instance, _check_delta
from .oracle import SamplingOracle
from .primitives import BudgetExceededError, PlanRun, split_at_cap
from .solvers import RunOutcome, complexity_guessing_plan, make_outcome


# numpy's ``SeedSequence`` hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _BLOCK = 0xCA01F9DD, 0x4973F715, 64  # _BLOCK: copies seeded per vectorised pass


def _hash(x, init, mult, start):
    """Hash calls ``start, start + 1, ...`` of numpy's chain on the rows of uint32 array ``x``."""
    # uint32 arrays wrap mod 2^32 silently, where numpy scalars would warn.
    c = init * mult ** np.arange(start, start + len(x) + 1, dtype=np.uint32)
    x = (x ^ c[:-1, None]) * c[1:, None]
    return x ^ (x >> 16)


class _SeedWords:
    """One copy's seed words, which ``PCG64`` takes as they are: a numpy ``ISeedSequence``,
    registered at run time, so that ``import bestarm`` leaves ``numpy.random`` unloaded."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=None):
        return self.words


def _copy_seeds(seed):
    """Yield the seed material of copies 1, 2, ...: copy k's seeds a generator exactly
    as ``SeedSequence(seed, spawn_key=(k - 1,))`` would.  ``SeedSequence(seed)`` mixes
    the base seed once (16 hash calls, plus 4 per entropy word past 4); the spawn
    key's mix and ``generate_state(4, np.uint64)`` run on ``_BLOCK`` keys at a time."""
    if not (seed is None or isinstance(seed, (int, np.integer))):
        raise TypeError(f"seed must be a non-negative int or None, got {seed!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be a non-negative int or None, got {seed!r}")
    base = np.random.SeedSequence(seed)
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    pool, past = base.pool[:, None], max(0, -(-int(base.entropy).bit_length() // 32) - 4)
    for lo in itertools.count(0, _BLOCK):
        keys = np.tile(np.arange(lo, lo + _BLOCK, dtype=np.uint32), (4, 1))
        mixed = pool * _MIX_L - _MIX_R * _hash(keys, _INIT_A, _MULT_A, 16 + 4 * past)
        state = _hash(np.tile(mixed ^ (mixed >> 16), (2, 1)), _INIT_B, _MULT_B, 0)
        yield from map(_SeedWords, state.T.astype("<u4", order="C").view("<u8").astype(np.uint64))


class _Copy(PlanRun):
    __slots__ = ("index", "step")

    def __init__(self, index, oracle, plan, budget):
        self.index, self.step = index, 1 << (index - 1)  # step: iterations between two draw grants
        super().__init__(plan, oracle, budget)

    def finish_iteration(self) -> int:
        """Iteration at which the pending request (or termination) falls due.

        A request that would cross the budget falls due at the end of its
        first arm that crosses.
        """
        if self.pending is None:  # returned at spawn, before any draw
            return self.step
        consumed, budget = self.oracle.total, self.budget
        due = self.pending.cost if budget is None else split_at_cap(self.pending, budget - consumed)[1]
        return (consumed + due) * self.step

    def grants(self, stop: int, winner: int) -> int:
        """Draws granted up to iteration ``stop``: one per multiple of the
        stride, in the stop iteration itself only for copies served before
        the winner (a smaller index)."""
        granted = (stop - 1) // self.step
        if stop % self.step == 0 and self.index < winner:
            granted += 1
        return granted


def parallel_simulation(
    instance: Instance,
    delta: float,
    inner=None,
    *,
    seed=0,
    budget: int | None = None,
) -> RunOutcome:
    """Run laddered copies of a solver and return the first finisher's answer.

    Args:
        instance: the arm set to solve.
        delta: overall confidence; copy k runs at delta / 2^k.
        inner: plan factory ``(oracle, instance, delta_k) -> generator``;
            defaults to the complexity-guessing solver.
        seed: base seed, a non-negative int or None; copy k's oracle is seeded as by
            ``SeedSequence(seed, spawn_key=(k - 1,))``, from words derived once per
            run, and is that copy's only draw ledger.
        budget: optional cap on each copy's draws, applied by ``PlanRun.advance``.  A
            copy whose next arm would cross it stops there; if that copy is
            the first to finish, the run is ``budget_exceeded``.

    Returns:
        RunOutcome whose sample counts sum every draw granted to every copy,
        including grants toward requests still in flight when the winner
        finished.
    """
    _check_delta(delta)
    if inner is None:
        inner = complexity_guessing_plan

    seeds = _copy_seeds(seed)  # its first ``next`` refuses a bad seed, before any copy exists
    copies: list[_Copy] = []
    events: list[tuple[int, int]] = []  # heap of (finish_iteration, index)

    def spawn() -> None:
        k = len(copies) + 1
        if not (delta_k := delta / 2.0**k):  # underflowed: a float-range error
            raise OverflowError("copy delta underflowed to 0")
        oracle = SamplingOracle.for_instance(instance, seed=next(seeds))
        copy = _Copy(k, oracle, inner(oracle, instance, delta_k), budget)
        copies.append(copy)
        heapq.heappush(events, (copy.finish_iteration(), k))

    try:
        spawn()
        while True:
            # Any not-yet-spawned copy whose first grant precedes the next event
            # could still beat it, so materialize those lazily.
            while (1 << len(copies)) <= events[0][0]:
                spawn()
            stop_iter, index = events[0]
            stale = stop_iter  # where grants to the other copies end; see below
            live = copies[index - 1]
            if (request := live.pending) is None:
                break
            try:
                live.advance()
            except BudgetExceededError:
                break
            if live.pending is None:
                # Known over-count, kept so that ladder outcomes replay: the
                # other copies are granted draws up to one more serving of the
                # winner's last arm.
                stale = (live.oracle.total + request.arm_costs()[-1]) * live.step
                break
            heapq.heapreplace(events, (live.finish_iteration(), live.index))
    except OverflowError:  # as in ``solve``: a delta's float-range failure, named as given
        raise ValueError(f"delta {delta!r} too small: a derived value left the float range") from None
    winner = live
    # Python-int sums: the ledger is exact where an int64 sum would wrap.
    per_arm = [sum(column) for column in zip(*(c.oracle.snapshot() for c in copies))]
    for copy in copies:
        if copy is winner or copy.pending is None:
            continue
        # The in-flight request's arms through the first one still open at
        # the stop are granted their draws in order, up to ``stale``.
        consumed = copy.oracle.total
        fit, through = split_at_cap(copy.pending, copy.grants(stop_iter, winner.index) - consumed)
        granted = min(copy.grants(stale, winner.index) - consumed, through)
        for arm, cost in zip(copy.pending.arms[:fit + 1], copy.pending.arm_costs()):
            per_arm[arm] += min(max(granted, 0), cost)
            granted -= cost
    # A winner stopped by its budget never returned, so its result is None.
    return make_outcome(winner.result, per_arm)
