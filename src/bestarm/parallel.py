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

A request covers several arms, served in order, and the ledger stays per
draw.  Each copy's oracle is its only draw ledger.  Every request goes
through :func:`~bestarm.primitives.serve`, so under a budget a copy stops
at the first arm that crosses its cap.  When the winner finishes, each
other copy's draws toward its request in flight are attributed arm by arm.
"""

from __future__ import annotations

import heapq

import numpy as np

from .instances import Instance, _check_delta
from .oracle import SamplingOracle
from .primitives import BudgetExceededError, serve, split_at_cap
from .solvers import DEFAULT_BUDGET, RunOutcome, complexity_guessing_plan, make_outcome


def copy_seed(seed, k: int) -> np.random.SeedSequence:
    """Deterministic seed material of copy k (stateless spawn-key derivation)."""
    if k < 1:
        raise ValueError(f"copy index must be >= 1, got {k}")
    return np.random.SeedSequence(seed, spawn_key=(k - 1,))


class _Copy:
    __slots__ = ("index", "step", "oracle", "plan", "pending", "result")

    def __init__(self, index, oracle, plan):
        self.index = index
        self.step = 1 << (index - 1)  # iterations between two draw grants
        self.oracle = oracle
        self.plan = plan
        self.result = None
        self.resume(None)  # a plan may terminate without sampling

    def resume(self, reply) -> bool:
        """Send ``reply`` to the plan; True once it has returned its result."""
        try:
            self.pending = self.plan.send(reply)
            return False
        except StopIteration as stop:
            self.pending, self.result = None, stop.value
            return True

    def finish_iteration(self, budget) -> int:
        """Iteration at which the pending request (or termination) falls due.

        A request that would cross the budget falls due at the end of its
        first arm that crosses.
        """
        consumed = self.oracle.total
        if self.pending is None:
            return max(consumed, 1) * self.step
        due = self.pending.cost
        if budget is not None and consumed + due > budget:
            due = split_at_cap(self.pending, budget - consumed)[1]
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
    budget: int | None = DEFAULT_BUDGET,
) -> RunOutcome:
    """Run laddered copies of a solver and return the first finisher's answer.

    Args:
        instance: the arm set to solve.
        delta: overall confidence; copy k runs at delta / 2^k.
        inner: plan factory ``(oracle, instance, delta_k) -> generator``;
            defaults to the complexity-guessing solver.
        seed: base seed; copy k's oracle is seeded from ``copy_seed(seed, k)``
            and is that copy's only draw ledger.
        budget: per-copy sample cap, applied by ``serve``.  A copy whose
            next arm would cross the cap stops there; if that copy is the
            first to finish, the run is ``budget_exceeded``.

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
        oracle = SamplingOracle.for_instance(instance, seed=copy_seed(seed, k))
        copy = _Copy(k, oracle, inner(oracle, instance, delta / 2.0**k))
        copies.append(copy)
        heapq.heappush(events, (copy.finish_iteration(budget), k))

    spawn()
    while True:
        # Any not-yet-spawned copy whose first grant precedes the next event
        # could still beat it, so materialize those lazily.
        while (1 << len(copies)) <= events[0][0]:
            spawn()
        stop_iter, index = events[0]
        stale = stop_iter  # where grants to the other copies end; see below
        live = copies[index - 1]
        if live.result is not None:
            break
        request = live.pending
        try:
            reply = serve(request, live.oracle, budget)
        except BudgetExceededError:
            live.plan.close()
            break
        if live.resume(reply):
            # Known over-count, kept so that ladder outcomes replay: the
            # other copies are granted draws up to one more serving of the
            # winner's last arm.
            stale = (live.oracle.total + request.arm_costs()[-1]) * live.step
            break
        heapq.heapreplace(events, (live.finish_iteration(budget), live.index))
    winner = live
    # Python-int sums: the ledger is exact where an int64 sum would wrap.
    per_arm = [sum(column) for column in zip(*(c.oracle.snapshot() for c in copies))]
    for copy in copies:
        if copy is winner or copy.pending is None:
            continue
        # Arms of the in-flight request completed by the stop count in
        # full; the first one still open gets its grants up to ``stale``.
        consumed = copy.oracle.total
        done = copy.grants(stop_iter, winner.index) - consumed
        granted = copy.grants(stale, winner.index) - consumed
        for arm, cost in zip(copy.pending.arms, copy.pending.arm_costs()):
            if done < cost:
                per_arm[arm] += min(max(granted, 0), cost)
                break
            per_arm[arm] += cost
            done -= cost
            granted -= cost
    # A winner stopped by its budget never returned, so its result is None.
    return make_outcome(winner.result, per_arm)
