"""Top-level best-arm identification solvers.

Three gap-entropy-driven elimination solvers plus a classical baseline, each
a *plan* generator that suspends at every sampling request (see
:mod:`bestarm.primitives`):

* ``known_complexity_plan`` -- round-based elimination when the instance
  complexity H is supplied by the caller.
* ``entropy_elimination_plan`` -- one complexity guess 100^t: either returns
  the best arm or rejects the guess, spending at most ~100 * 100^t planned
  samples on it.
* ``complexity_guessing_plan`` -- tries guesses t = 1, 2, ... until one is
  accepted.
* ``baseline_successive_elimination_plan`` -- textbook confidence-radius
  racing, for benchmarking only; it asks for a block of rounds per request.

:func:`solve` drives any of them against an oracle and packages the result
as a :class:`RunOutcome`.  ``known_complexity_plan`` and each guess of
``entropy_elimination_plan`` share one round plan,
:func:`_elimination_round`: median elimination picks an anchor arm, its mean
is estimated, and when the fraction test reports a crowd of arms well below
the anchor, elimination purges them, keeping the anchor should every arm go.
Solvers shuffle the arm order once at start from the oracle's RNG so
behaviour does not depend on storage order.

The statistical contracts hold for delta < 0.01; the implementation accepts
any delta in (0, 1) so cheaper exploratory runs are possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import count

import numpy as np

from .instances import Instance, _check_delta
from .oracle import SamplingOracle
from .primitives import (
    BudgetExceededError,
    MeanRequest,
    elimination_plan,
    frac_test_plan,
    med_elim_plan,
    run_plan,
    unif_sampl_plan,
)

OK = "ok"
REJECTED = "rejected"
BUDGET_EXCEEDED = "budget_exceeded"

#: Growth factor of the complexity guesses, and its log base 4 (the factor
#: that caps the number of rounds a guess may run).
GUESS_GROWTH = 100
C_ROUNDS = math.log(GUESS_GROWTH, 4)


@dataclass(frozen=True)
class RunOutcome:
    """Result of one solver run.

    ``arm`` is the original arm index when ``status == "ok"`` and None
    otherwise.  ``per_arm_samples`` always sums to ``total_samples``.
    ``accepted_guess_t`` is set only by the guessing solver on success.
    For budget-terminated runs ``rounds_executed`` counts completed rounds.
    """

    status: str
    arm: int | None
    total_samples: int
    per_arm_samples: tuple[int, ...]
    rounds_executed: int
    accepted_guess_t: int | None = None


@dataclass(slots=True)
class RoundEvent:
    """One row of the structured per-round trace, built only for a plan given an ``emit``;
    ``draws_*`` come from ``draws_by_phase``, in the order of ``_PHASES``.  A slotted record,
    not frozen: a frozen init pays one ``object.__setattr__`` per field."""

    solver: str
    guess_t: int | None
    round_index: int
    eps: float
    n_active: int
    rejected: bool
    frac_true: bool | None = None
    h_estimate: float | None = None
    t_estimate: float | None = None
    theta_lo: float | None = None
    theta_hi: float | None = None
    delta_round: float | None = None
    delta_prime: float | None = None
    draws_med: int = 0
    draws_anchor: int = 0
    draws_frac: int = 0
    draws_elim: int = 0


@dataclass(slots=True)
class SolveResult:
    """Internal plan return value, before RunOutcome packaging."""

    arm: int | None
    rounds: int
    rejected: bool = False
    accepted_t: int | None = None


# --- round schedules -------------------------------------------------------


def round_eps(r: int) -> float:
    """Accuracy target of round r."""
    return 2.0**-r


def kc_round_delta(delta: float, r: int) -> float:
    """Per-round confidence of the known-complexity solver."""
    return delta / (10.0 * r * r)


def ee_round_delta(delta: float, r: int, t: int) -> float:
    """Per-round confidence of guess t of the guessing solver."""
    return delta / (50.0 * r * r * t * t)


def theta_step(t: int, r: int) -> float:
    """Increment of the fraction-test threshold ladder at round r of guess t."""
    return (C_ROUNDS * t - r) ** -2 / 10.0


def frac_thresholds(mu_hat: float, eps: float) -> tuple[float, float]:
    """Mean band handed to the fraction test around the anchor estimate."""
    return mu_hat - 1.75 * eps, mu_hat - 1.125 * eps


def elim_thresholds(mu_hat: float, eps: float) -> tuple[float, float]:
    """Mean band handed to elimination around the anchor estimate."""
    return mu_hat - 0.75 * eps, mu_hat - 0.625 * eps


def _shuffled_arms(oracle: SamplingOracle, instance: Instance) -> list[int]:
    if oracle.n_arms != instance.n_arms:
        raise ValueError(
            f"oracle has {oracle.n_arms} arms but instance {instance.label!r} has {instance.n_arms}"
        )
    arms = list(range(instance.n_arms))
    oracle.rng.shuffle(arms)  # the draws and the order of ``rng.permutation(n).tolist()``
    return arms


# --- the shared elimination round -------------------------------------------

_PHASES = ("med", "anchor", "frac", "elim")  # the phases of ``RoundEvent.draws_*``, in order


def _phase_draws(oracle) -> list[int]:
    return [oracle.draws_by_phase.get(phase, 0) for phase in _PHASES]


def _elimination_round(oracle, members, eps, delta_r, theta_lo, theta_hi, delta_prime, listening):
    """One round at accuracy ``eps``, shared by both elimination solvers.

    Returns ``(survivors, crowded, draws)``: the fraction test's answer and, only when
    ``listening`` (else None), what each of ``_PHASES`` drew this round.
    """
    if not delta_r:  # underflowed (a subnormal delta): a float-range error, like delta_prime's
        raise OverflowError("delta_r underflowed to 0")
    before = _phase_draws(oracle) if listening else None
    try:
        anchor = yield from med_elim_plan(members, 0.125 * eps, 0.01)
    except OverflowError:  # med-elim runs at a fixed confidence: only eps sizes its counts
        raise ValueError(f"gap too small: counts at accuracy {eps!r} left the float range") from None
    estimates = yield from unif_sampl_plan([anchor], 0.125 * eps, delta_r)
    mu_hat = estimates[anchor]
    c_lo, c_hi = frac_thresholds(mu_hat, eps)
    crowded = yield from frac_test_plan(oracle, members, c_lo, c_hi, theta_lo, theta_hi, delta_r)
    if crowded:
        if not delta_prime:  # underflowed: a float-range error, like the overflows of a tiny delta
            raise OverflowError("delta_prime underflowed to 0")
        d_lo, d_hi = elim_thresholds(mu_hat, eps)
        members = (yield from elimination_plan(oracle, members, d_lo, d_hi, delta_prime)) or [anchor]
    return members, crowded, [a - b for a, b in zip(_phase_draws(oracle), before)] if listening else None


# --- known complexity ------------------------------------------------------


def known_complexity_plan(oracle, instance, delta, H, emit=None):
    """Identify the best arm given the instance complexity H.

    Runs rounds r = 1, 2, ... at accuracy 2^-r: a median-elimination pass
    picks an anchor arm, its mean is estimated, and when the fraction test
    reports that a (0.3, 0.5) fraction of arms sit well below the anchor an
    elimination pass purges them at confidence scaled by 4096 H.  Returns
    the last survivor; correct with probability >= 1 - delta for
    delta < 0.01.
    """
    _check_delta(delta)
    if H <= 0.0:
        raise ValueError(f"H must be positive, got {H}")
    members = _shuffled_arms(oracle, instance)
    h_hat = 4096.0 * H
    for r in count(1):
        if len(members) == 1:
            return SolveResult(arm=members[0], rounds=r)
        eps_r, delta_r, n_active = round_eps(r), kc_round_delta(delta, r), len(members)
        delta_prime = min(n_active * eps_r**-2 / h_hat * delta, delta)
        members, crowded, draws = yield from _elimination_round(
            oracle, members, eps_r, delta_r, 0.3, 0.5, delta_prime, emit is not None
        )
        if emit is not None:
            emit(RoundEvent("known_complexity", None, r, eps_r, n_active, False, crowded, None, None,
                            0.3, 0.5, delta_r, delta_prime if crowded else None, *draws))


# --- entropy elimination (one guess) ---------------------------------------


def entropy_elimination_plan(oracle, instance, delta, t, emit=None, _members=None):
    """Run one complexity guess 100^t; returns the best arm or rejects.

    The guess is rejected -- before any sampling in that round -- once the
    running eliminated-complexity estimate or the planned-sample ledger
    outgrows the guess.
    """
    _check_delta(delta)
    if t < 1 or int(t) != t:
        raise ValueError(f"guess index t must be an integer >= 1, got {t}")
    t = int(t)
    active = list(_members) if _members is not None else _shuffled_arms(oracle, instance)
    h_hat = float(GUESS_GROWTH) ** t
    h_r = t_r = 0.0  # eliminated-complexity estimate and planned-sample ledger
    theta_prev = 0.3
    for r in count(1):
        if len(active) == 1:
            return SolveResult(arm=active[0], rounds=r)
        n_start = len(active)
        eps_r = round_eps(r)
        delta_r = ee_round_delta(delta, r, t)
        weight = n_start * eps_r**-2  # |S_r| eps_r^-2
        delta_prime = 4.0 * weight / h_hat * delta * delta
        # Planned-sample ledger; the log factor is clamped at 1 so the
        # running total stays monotone even for far-too-small guesses.
        t_next = t_r + weight * max(math.log(h_hat / (weight * delta)), 1.0)
        if h_r + 4.0 * weight >= h_hat or t_next >= 100.0 * h_hat:  # rejected before it samples
            if emit is not None:
                emit(RoundEvent("entropy_elimination", t, r, eps_r, n_start, True, None, h_r, t_next,
                                None, None, delta_r))
            return SolveResult(arm=None, rounds=r, rejected=True)
        t_r, theta_r = t_next, theta_prev + theta_step(t, r)
        active, crowded, draws = yield from _elimination_round(
            oracle, active, eps_r, delta_r, theta_prev, theta_r, delta_prime, emit is not None
        )
        if crowded:
            h_r += 4.0 * weight
        if emit is not None:
            emit(RoundEvent("entropy_elimination", t, r, eps_r, n_start, False, crowded, h_r, t_next,
                            theta_prev, theta_r, delta_r, delta_prime if crowded else None, *draws))
        theta_prev = theta_r


# --- complexity guessing ----------------------------------------------------


def complexity_guessing_plan(oracle, instance, delta, emit=None):
    """Identify the best arm without knowing the instance complexity.

    Tries guesses 100^1, 100^2, ... until one is accepted; samples from
    rejected guesses accumulate into the outcome.  Correct with probability
    >= 1 - delta for delta < 0.01.
    """
    _check_delta(delta)
    members = _shuffled_arms(oracle, instance)
    rounds = 0
    for t in count(1):
        result = yield from entropy_elimination_plan(
            oracle, instance, delta, t, emit=emit, _members=members
        )
        rounds += result.rounds
        if not result.rejected:
            return SolveResult(arm=result.arm, rounds=rounds, accepted_t=t)


# --- baseline ----------------------------------------------------------------


#: Most rounds the baseline previews, and asks for, in one request over 8 or more
#: survivors; over fewer, a block may take twice its first block's rounds, which is more.
#: What the oracle draws ahead is at most one block, ``max(BASELINE_BLOCK * len(arms), 2 *
#: BASELINE_CELLS)`` floats (4 MB on 1,000 arms, 32 KB on fewer than 8).
BASELINE_BLOCK = 512
#: Normals the first block, and the first after a drop, draws, so that the fixed cost of a
#: preview is spread over enough of them: that block takes ``BASELINE_CELLS //
#: len(survivors)`` rounds (at least one), and the next doubles, up to
#: ``max(BASELINE_BLOCK, 2 * (BASELINE_CELLS // len(survivors)))`` rounds.
BASELINE_CELLS = 2048


def se_radius(r: int, n_arms: int, delta: float) -> float:
    """Confidence radius of the baseline after r draws per surviving arm; infinite where
    4 n r^2 / delta overflows."""
    return math.sqrt(2.0 * math.log(4.0 * n_arms * r * r / delta) / r)


#: Rounds per chunk of :func:`_radius_chunk`: 32 KiB of floats.
RADIUS_CHUNK = 4096


@lru_cache(maxsize=32)  # at most 1 MiB; every trial of a bench shares n and delta
def _radius_chunk(n: int, delta: float, chunk: int) -> np.ndarray:
    """``se_radius`` of rounds ``chunk * RADIUS_CHUNK + 1`` to ``(chunk + 1) * RADIUS_CHUNK``,
    bit for bit, read-only, kept for the last 32 chunks of the process.  It makes the same
    float operations on the same floats in array passes: each round is ``float(r)``, which
    ``np.arange`` is not past 2**53, and the log is ``math.log``, which numpy's may miss by
    an ulp."""
    rs = np.array(range(chunk * RADIUS_CHUNK + 1, (chunk + 1) * RADIUS_CHUNK + 1), dtype=float)
    with np.errstate(over="ignore"):  # infinite where se_radius is; every operand is positive
        logs = np.fromiter(map(math.log, 4.0 * n * rs * rs / delta), float, RADIUS_CHUNK)
    radius = np.sqrt(2.0 * logs / rs)
    radius.flags.writeable = False
    return radius


def _block_end(ahead, r: int, n: int, delta: float) -> int:
    """Rounds of the block ``ahead`` (running sums, row i after round r + 1 + i) up to its
    first row at which an arm drops or whose radius is infinite, else all of them."""
    block, (first, start) = len(ahead), divmod(r, RADIUS_CHUNK)
    chunks = [_radius_chunk(n, delta, c) for c in range(first, (r + block - 1) // RADIUS_CHUNK + 1)]
    radius = (chunks[0] if len(chunks) == 1 else np.concatenate(chunks))[start:start + block]
    rs = np.arange(r + 1, r + block + 1, dtype=float)
    lo, hi = (reduce(f, ahead.T) / rs for f in (np.minimum, np.maximum))  # beats min(axis=1)
    ends = (lo + radius < hi - radius) | (radius == math.inf)
    i = int(ends.argmax())
    return i + 1 if ends[i] else block


def baseline_successive_elimination_plan(oracle, instance, delta, emit=None):
    """Classical successive elimination, as a benchmarking baseline.

    Draws one sample per surviving arm per round; after r rounds an arm is
    dropped when its mean estimate plus the radius sqrt(2 ln(4 n r^2 /
    delta) / r) falls below another arm's estimate minus that radius.

    Rounds are raced in blocks: ``oracle.preview`` shows the rewards of the next ``block``
    rounds without charging them, and their running sums (a sequential ``np.cumsum``, the
    same floats as adding round by round) give the block's first round at which an arm
    drops, from radii cached per process (:func:`_block_end`).
    One request, ``MeanRequest(survivors, 1, rounds=...)``, asks for every round up to that
    one.  It takes the rewards previewed, so the drop rule takes its sums from the preview's
    row for that round and ignores the reply.  The previewed normals are the stream's next
    normals (see :mod:`bestarm.oracle`): the request takes them, and the rows past a drop
    are the next preview's first normals, so each normal is drawn once.
    The first block, and the first after a drop, takes ``floor = BASELINE_CELLS //
    len(survivors)`` rounds (at least one), and the block doubles, up to ``max(BASELINE_BLOCK,
    2 * floor)`` rounds, while no arm drops: a block over fewer than 8 survivors starts at
    about ``BASELINE_CELLS`` normals and doubles once.  The oracle serves the rounds in order
    and charges each survivor once with its draws of the block, so the draws, budget stops
    and stream are those of one request per round, wherever the blocks end.
    """
    _check_delta(delta)
    arms = tuple(_shuffled_arms(oracle, instance))
    n = instance.n_arms
    sums = [0.0] * n  # aligned with ``arms``
    r, block = 0, 0
    while len(arms) > 1:
        floor = BASELINE_CELLS // len(arms)
        block = min(max(2 * block, floor, 1), max(BASELINE_BLOCK, 2 * floor))
        # Row i of ``ahead`` is the running sums after round r + 1 + i.
        ahead = oracle.preview(arms, block)
        ahead[0] += sums
        np.cumsum(ahead, axis=0, out=ahead)
        rounds = _block_end(ahead, r, n, delta)
        yield MeanRequest(arms, 1, rounds=rounds, phase="baseline")  # draws the rows previewed
        sums = ahead[rounds - 1].tolist()
        r += rounds
        radius = se_radius(r, n, delta)
        if radius == math.inf:  # no arm could ever be eliminated
            raise ValueError(f"delta {delta!r} too small: the confidence radius left the float range")
        best_lcb = max(sums) / r - radius
        if min(sums) / r + radius < best_lcb:  # float / r > 0 and +- radius keep the sums' order
            arms, sums = zip(*[(a, s) for a, s in zip(arms, sums) if s / r + radius >= best_lcb])
            block = 0  # the next block starts again at the floor
    return SolveResult(arm=arms[0], rounds=r)


# --- the driver ----------------------------------------------------------------


def make_outcome(result: SolveResult | None, per_arm, budget_rounds: int = 0) -> RunOutcome:
    """Package a plan's result and its per-arm draws as a :class:`RunOutcome`.

    ``per_arm`` is a list of Python ints, so the total is exact even where
    an int64 sum would wrap.  ``result`` is None for a run stopped by its
    budget, which then reports ``budget_rounds`` completed rounds.
    """
    if result is None:
        status, result = BUDGET_EXCEEDED, SolveResult(arm=None, rounds=budget_rounds)
    else:
        status = REJECTED if result.rejected else OK
    return RunOutcome(
        status=status,
        arm=result.arm,
        total_samples=sum(per_arm),
        per_arm_samples=tuple(per_arm),
        rounds_executed=result.rounds,
        accepted_guess_t=result.accepted_t,
    )


def solve(
    plan,
    oracle: SamplingOracle,
    instance: Instance,
    delta: float,
    *args,
    budget: int | None = None,
    trace=None,
) -> RunOutcome:
    """Drive ``plan(oracle, instance, delta, *args, emit=...)`` and package its outcome.

    E.g. ``solve(known_complexity_plan, oracle, instance, delta, H)``.  The
    run stops as ``budget_exceeded`` before its draws would pass ``budget``
    (None, the default, sets no cap); every round event also goes to ``trace``.
    """
    rounds = 0  # a budget-stopped run reports the rounds it completed

    def emit(event: RoundEvent) -> None:
        nonlocal rounds
        rounds += 1
        if trace is not None:
            trace(event)

    before = oracle.snapshot()
    try:
        result = run_plan(plan(oracle, instance, delta, *args, emit=emit), oracle, budget=budget)
    except BudgetExceededError:
        result = None
    except OverflowError:  # the plans turn a gap's overflow into ValueError; a delta's lands here
        raise ValueError(f"delta {delta!r} too small: a derived value left the float range") from None
    per_arm = [a - b for a, b in zip(oracle.snapshot(), before)]
    return make_outcome(result, per_arm, budget_rounds=rounds)
