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
"""

from __future__ import annotations

import heapq

import numpy as np

from .instances import Instance, _check_delta
from .oracle import GAUSSIAN, SamplingOracle
from .solvers import DEFAULT_BUDGET, RunOutcome, complexity_guessing_plan, make_outcome


def copy_seed(seed, k: int) -> np.random.SeedSequence:
    """Deterministic seed material of copy k (stateless spawn-key derivation)."""
    if k < 1:
        raise ValueError(f"copy index must be >= 1, got {k}")
    return np.random.SeedSequence(seed, spawn_key=(k - 1,))


class _Copy:
    __slots__ = ("index", "step", "oracle", "plan", "pending", "consumed", "result", "budget_hit")

    def __init__(self, index, oracle, plan):
        self.index = index
        self.step = 1 << (index - 1)  # iterations between two draw grants
        self.oracle = oracle
        self.plan = plan
        self.consumed = 0
        self.result = None
        self.budget_hit = False
        try:
            self.pending = next(plan)
        except StopIteration as stop:  # terminated without sampling
            self.pending = None
            self.result = stop.value

    def finish_iteration(self) -> int:
        """Iteration at which the pending request (or termination) completes."""
        if self.pending is None:
            return max(self.consumed, 1) * self.step
        return (self.consumed + self.pending.cost) * self.step


def parallel_simulation(
    instance: Instance,
    delta: float,
    inner=None,
    *,
    seed=0,
    budget: int | None = DEFAULT_BUDGET,
    family: str = GAUSSIAN,
    max_copies: int | None = None,
) -> RunOutcome:
    """Run laddered copies of a solver and return the first finisher's answer.

    Args:
        instance: the arm set to solve.
        delta: overall confidence; copy k runs at delta / 2^k.
        inner: plan factory ``(oracle, instance, delta_k) -> generator``;
            defaults to the complexity-guessing solver.
        seed: base seed; copy k's oracle is seeded from ``copy_seed(seed, k)``.
        budget: per-copy sample cap.  A copy whose next request would cross
            the cap terminates with a budget error, which propagates as the
            wrapper's answer if that copy finishes first.
        family: oracle reward family.
        max_copies: optional cap on the ladder height (1 reproduces a plain
            run of the solver at delta / 2).

    Returns:
        RunOutcome whose sample counts sum every draw granted to every copy,
        including grants toward requests still in flight when the winner
        finished.
    """
    _check_delta(delta)
    if inner is None:
        inner = complexity_guessing_plan

    copies: list[_Copy] = []
    events: list[tuple[int, int]] = []  # heap of (finish_iteration, index)

    def spawn() -> None:
        k = len(copies) + 1
        oracle = SamplingOracle.for_instance(instance, seed=copy_seed(seed, k), family=family)
        copy = _Copy(k, oracle, inner(oracle, instance, delta / 2.0**k))
        copies.append(copy)
        heapq.heappush(events, (copy.finish_iteration(), k))

    spawn()
    while True:
        # Any not-yet-spawned copy whose first grant precedes the next event
        # could still beat it, so materialize those lazily.
        while (max_copies is None or len(copies) < max_copies) and (
            1 << len(copies)
        ) <= events[0][0]:
            spawn()
        live = copies[events[0][1] - 1]
        if live.result is not None:
            break
        cost = live.pending.cost
        if budget is not None and live.consumed + cost > budget:
            live.budget_hit = True
            live.plan.close()
            break
        reply = live.pending.fulfill(live.oracle)
        live.consumed += cost
        try:
            live.pending = live.plan.send(reply)
        except StopIteration as stop:
            live.result = stop.value
            break
        heapq.heapreplace(events, (live.finish_iteration(), live.index))
    winner = live
    stop_iter = winner.finish_iteration()
    per_arm = np.zeros(instance.n_arms, dtype=np.int64)
    for copy in copies:
        per_arm += copy.oracle.counts
        if copy is winner or copy.pending is None:
            continue
        # Draws already granted toward the in-flight request: one per
        # multiple of the copy's stride up to the stop point (grants in the
        # stop iteration itself count only for copies served before the
        # winner, i.e. with a smaller index).
        grants = (stop_iter - 1) // copy.step
        if stop_iter % copy.step == 0 and copy.index < winner.index:
            grants += 1
        partial = min(max(grants - copy.consumed, 0), copy.pending.cost)
        per_arm[copy.pending.arm] += partial
    return make_outcome(None if winner.budget_hit else winner.result, per_arm)
