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
  racing, for benchmarking only.

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
from itertools import count

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

#: Default hard sample cap for every solver; pass ``budget=None`` to lift it.
DEFAULT_BUDGET = 10**9

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


@dataclass(frozen=True)
class RoundEvent:
    """One row of the structured per-round trace."""

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

    @property
    def draws_round(self) -> int:
        return self.draws_med + self.draws_anchor + self.draws_frac + self.draws_elim


@dataclass(frozen=True)
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
    return oracle.rng.permutation(instance.n_arms).tolist()


# --- the shared elimination round -------------------------------------------


_DRAW_FIELDS = ("draws_med", "draws_anchor", "draws_frac", "draws_elim")


def _elimination_round(oracle, members, eps, delta_r, theta_lo, theta_hi, delta_prime):
    """One round at accuracy ``eps``, shared by both elimination solvers.

    Returns ``(survivors, fields)``; ``fields`` holds the round's own
    ``RoundEvent`` fields, each draw field set to the draws of its phase.
    """
    n_active = len(members)
    marks = [oracle.total]
    anchor = yield from med_elim_plan(members, 0.125 * eps, 0.01)
    marks.append(oracle.total)
    estimates = yield from unif_sampl_plan([anchor], 0.125 * eps, delta_r)
    mu_hat = estimates[anchor]
    marks.append(oracle.total)
    c_lo, c_hi = frac_thresholds(mu_hat, eps)
    crowded = yield from frac_test_plan(oracle, members, c_lo, c_hi, theta_lo, theta_hi, delta_r)
    marks.append(oracle.total)
    if crowded:
        d_lo, d_hi = elim_thresholds(mu_hat, eps)
        survivors = yield from elimination_plan(oracle, members, d_lo, d_hi, delta_prime)
        members = survivors if survivors else [anchor]
    marks.append(oracle.total)
    fields = {field: b - a for field, a, b in zip(_DRAW_FIELDS, marks, marks[1:])}
    fields.update(
        eps=eps,
        n_active=n_active,
        frac_true=crowded,
        theta_lo=theta_lo,
        theta_hi=theta_hi,
        delta_round=delta_r,
        delta_prime=delta_prime if crowded else None,
    )
    return members, fields


# --- known complexity ------------------------------------------------------


def known_complexity_plan(oracle, instance, H, delta, emit=None):
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
        eps_r = round_eps(r)
        delta_prime = min(len(members) * eps_r**-2 / h_hat * delta, delta)
        members, fields = yield from _elimination_round(
            oracle, members, eps_r, kc_round_delta(delta, r), 0.3, 0.5, delta_prime
        )
        if emit is not None:
            emit(RoundEvent("known_complexity", None, r, rejected=False, **fields))


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
        rejected = h_r + 4.0 * weight >= h_hat or t_next >= 100.0 * h_hat
        # A rejected guess stops before the round samples anything.
        if rejected:
            fields = dict(eps=eps_r, n_active=n_start, delta_round=delta_r)
        else:
            t_r = t_next
            theta_r = theta_prev + theta_step(t, r)
            active, fields = yield from _elimination_round(
                oracle, active, eps_r, delta_r, theta_prev, theta_r, delta_prime
            )
            if fields["frac_true"]:
                h_r += 4.0 * weight
            theta_prev = theta_r
        if emit is not None:
            emit(RoundEvent("entropy_elimination", t, r, rejected=rejected,
                            h_estimate=h_r, t_estimate=t_next, **fields))
        if rejected:
            return SolveResult(arm=None, rounds=r, rejected=True)


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


def se_radius(r: int, n_arms: int, delta: float) -> float:
    """Confidence radius of the baseline after r draws per surviving arm."""
    return math.sqrt(2.0 * math.log(4.0 * n_arms * r * r / delta) / r)


def baseline_successive_elimination_plan(oracle, instance, delta, emit=None):
    """Classical successive elimination, as a benchmarking baseline.

    Draws one sample per surviving arm per round; after r rounds an arm is
    dropped when its mean estimate plus the radius sqrt(2 ln(4 n r^2 /
    delta) / r) falls below another arm's estimate minus that radius.
    """
    _check_delta(delta)
    active = tuple(_shuffled_arms(oracle, instance))
    n = instance.n_arms
    sums = [0.0] * n  # aligned with ``active``
    r = 0
    while len(active) > 1:
        r += 1
        rewards = yield MeanRequest(active, 1)
        sums = [s + reward for s, reward in zip(sums, rewards)]
        radius = se_radius(r, n, delta)
        means = [s / r for s in sums]
        best_lcb = max(means) - radius
        if min(means) + radius < best_lcb:  # float +- radius keeps the means' order
            kept = [(a, s) for a, s, m in zip(active, sums, means) if m + radius >= best_lcb]
            active, sums = zip(*kept)
    return SolveResult(arm=active[0], rounds=r)


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
    *args,
    budget: int | None = DEFAULT_BUDGET,
    trace=None,
) -> RunOutcome:
    """Drive ``plan(oracle, instance, *args, emit=...)`` and package its outcome.

    E.g. ``solve(known_complexity_plan, oracle, instance, H, delta)``.  The
    run stops as ``budget_exceeded`` before its draws would pass ``budget``
    (None lifts the cap); every round event also goes to ``trace``.
    """
    events: list[RoundEvent] = []

    def emit(event: RoundEvent) -> None:
        events.append(event)
        if trace is not None:
            trace(event)

    before = oracle.snapshot()
    try:
        result = run_plan(plan(oracle, instance, *args, emit=emit), oracle, budget=budget)
    except BudgetExceededError:
        result = None
    per_arm = [a - b for a, b in zip(oracle.snapshot(), before)]
    return make_outcome(result, per_arm, budget_rounds=len(events))
