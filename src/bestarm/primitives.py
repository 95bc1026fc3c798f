"""Reusable sampling subroutines: uniform sampling, median elimination,
fraction testing and batch elimination.

Every subroutine is a *plan*: a generator that yields sampling requests
(:class:`~bestarm.oracle.MeanRequest`, :class:`~bestarm.oracle.TallyRequest`),
so callers may suspend execution at each draw batch, and returns its
result.  :class:`PlanRun` drives a plan against an oracle, one request at
a time, and :func:`run_plan` runs one to its end.  Plans receive the oracle
only for its RNG stream (and the baseline for its preview, which charges
nothing); all reward draws flow through the yielded requests, which is what
lets an outer scheduler interleave several runs.

A plan yields one request per round: per median-elimination round, per
uniform-sampling call and per fraction test.  The successive-elimination
baseline yields one request per block of rounds: it reads the block's
rewards ahead with ``oracle.preview``, which charges nothing and, to any
reader of ``oracle.rng``, leaves the stream where it was, and asks for the
rounds up to the first at which an arm drops, as one ``MeanRequest`` over
its survivors with ``rounds`` set, which takes the previewed normals (the
stream rule is stated in :mod:`bestarm.oracle`).
Budget stops stay per arm and round: :meth:`PlanRun.advance`, the one
serving step of every plan driver, serves a request that would cross the
sample cap only up to its last arm that fits, in serving order, and only
once the oracle has checked its arms: a budget never hides a refusal.

Ties are broken toward the arm listed first, so callers control tie order
through the member sequence.
"""

from __future__ import annotations

import math
from numbers import Integral

from .instances import _check_delta
from .oracle import MeanRequest, TallyRequest


class BudgetExceededError(RuntimeError):
    """Raised by plan drivers when the next request would cross the sample cap."""


def split_at_cap(request, room: int):
    """Split ``request`` where its arms, in serving order, first pass ``room`` draws.

    Returns ``(fit, through)``: the number of leading arms that fit, and
    the draws up to and including the first arm that does not.  A request
    that fits as a whole gives the length of its serving order and its cost.
    """
    through = k = 0
    for k, (_, cost) in enumerate(request.served(), 1):
        through += cost
        if through > room:
            return k - 1, through
    return k, through


class PlanRun:
    """One plan driven against one oracle, its draws capped at ``budget`` (None: no cap).
    ``pending`` is the request the plan waits on, None once ``result`` holds its return value."""

    __slots__ = ("plan", "oracle", "budget", "pending", "result")

    def __init__(self, plan, oracle, budget: int | None = None):
        if budget is not None and (type(budget) is bool or not isinstance(budget, Integral) or budget < 0):
            raise ValueError(f"budget must be None or an integer >= 0, got {budget!r}")
        self.plan, self.oracle, self.budget, self.result = plan, oracle, budget, None
        try:
            self.pending = plan.send(None)
        except StopIteration as stop:  # a plan may return before it samples anything
            self.pending, self.result = None, stop.value

    def advance(self) -> None:
        """Fulfil ``pending`` and resume the plan with the reply.  A request that would take the
        oracle's total past ``budget`` has its arms checked first, so that a budget never turns a
        refusal into a stop; it is then served up to its last arm that fits, the plan is closed
        and BudgetExceededError raised.  Every other refusal came when the request was built."""
        request, oracle, budget = self.pending, self.oracle, self.budget
        if budget is not None and oracle.total + request.cost > budget:
            oracle.check_arms(request.arms)
            fit, _ = split_at_cap(request, budget - oracle.total)
            if fit:
                request.prefix(fit).fulfill(oracle)
            self.plan.close()
            raise BudgetExceededError(f"next request ({request.cost} draws) would exceed the cap of {budget}")
        try:  # resumed here, not in a helper: this is the one call every request pays for
            self.pending = self.plan.send(request.fulfill(oracle))
        except StopIteration as stop:
            self.pending, self.result = None, stop.value


def run_plan(plan, oracle, budget: int | None = None):
    """Drive a sampling plan to its result; a budget stop raises BudgetExceededError."""
    run = PlanRun(plan, oracle, budget)
    while run.pending is not None:
        run.advance()
    return run.result


def _count(value: float) -> int:
    # Ceiling with a tiny backoff so formulas that are exact integers in
    # real arithmetic do not round up on a one-ulp float excess.
    return int(math.ceil(value - 1e-9))


def unif_sample_size(eps: float, delta: float) -> int:
    """Per-arm draw count of uniform sampling: ceil(2 eps^-2 ln(2/delta))."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_delta(delta)
    return _count(2.0 * eps**-2 * math.log(2.0 / delta))


def _check_members(members) -> list[int]:
    members = list(members)
    if not members:
        raise ValueError("arm set must not be empty")
    return members


def unif_sampl_plan(members, eps: float, delta: float, *, phase: str = "anchor"):
    """Sample every arm in ``members`` ceil(2 eps^-2 ln(2/delta)) times.

    Returns each arm's empirical mean, keyed by arm; with probability
    1 - delta a given arm's estimate is within eps of its true mean.
    """
    members = _check_members(members)
    draws = unif_sample_size(eps, delta)
    means = yield MeanRequest(tuple(members), draws, phase=phase)
    return dict(zip(members, means))


def med_elim_plan(members, eps: float, delta: float):
    """Median-elimination tournament returning an eps-optimal arm w.p. >= 1 - delta.

    Halves the field each round (keeping the ceil(|S|/2) arms with the
    highest empirical means) on the schedule eps_1 = eps/4, delta_1 =
    delta/2, eps_{l+1} = 0.75 eps_l, delta_{l+1} = delta_l / 2, with
    ceil(2 (eps_l/2)^-2 ln(3/delta_l)) draws per surviving arm per round.
    A singleton input is returned without sampling.
    """
    active = _check_members(members)
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_delta(delta)
    eps_l = eps / 4.0
    delta_l = delta / 2.0
    while len(active) > 1:
        draws = _count(2.0 * (eps_l / 2.0) ** -2 * math.log(3.0 / delta_l))
        means = yield MeanRequest(tuple(active), draws, phase="med")
        keep = (len(active) + 1) // 2
        # Stable sort, reverse=True included: ties keep the earlier-listed arm in front.
        order = sorted(range(len(active)), key=means.__getitem__, reverse=True)
        active = [active[i] for i in order[:keep]]
        eps_l *= 0.75
        delta_l /= 2.0
    return active[0]


def frac_test_probe_counts(c_lo, c_hi, theta_lo, theta_hi, delta) -> tuple[int, int]:
    """(number of probes m, draws per probe) used by the fraction test."""
    if not c_lo < c_hi:
        raise ValueError(f"need c_lo < c_hi, got {c_lo} >= {c_hi}")
    if not theta_lo < theta_hi:
        raise ValueError(f"need theta_lo < theta_hi, got {theta_lo} >= {theta_hi}")
    _check_delta(delta)
    spread = theta_hi - theta_lo
    probes = _count((spread / 6.0) ** -2 * math.log(2.0 / delta))
    per_probe = unif_sample_size((c_hi - c_lo) / 2.0, spread / 6.0)
    return probes, per_probe


def frac_test_plan(oracle, members, c_lo, c_hi, theta_lo, theta_hi, delta, *, phase: str = "frac"):
    """Randomized check whether a large fraction of arms have small means.

    Performs m = ceil((spread/6)^-2 ln(2/delta)) probes, spread = theta_hi -
    theta_lo.  Each probe picks an arm uniformly at random, estimates its
    mean to (c_hi - c_lo)/2 accuracy at confidence spread/6, and counts the
    estimate if it falls below the midpoint of (c_lo, c_hi).  Returns True
    iff the counted fraction exceeds the midpoint of (theta_lo, theta_hi).

    With probability 1 - delta: a True answer implies more than a theta_lo
    fraction of arms lie below c_hi, and a False answer implies fewer than a
    theta_hi fraction lie below c_lo.

    Uses ``oracle.rng`` for the uniform arm picks; rewards flow through the
    yielded request.
    """
    members = _check_members(members)
    probes, per_probe = frac_test_probe_counts(c_lo, c_hi, theta_lo, theta_hi, delta)
    cutoff = (c_lo + c_hi) / 2.0
    # Multinomial pick counts have exactly the law of `probes` uniform picks.
    picks = oracle.rng.multinomial(probes, [1.0 / len(members)] * len(members))
    # Arms with no pick are left out of the request.
    arms, counts = zip(*[(arm, n) for arm, n in zip(members, picks.tolist()) if n])
    below = yield TallyRequest(arms, per_probe, counts, cutoff, phase=phase)
    return below / probes > (theta_lo + theta_hi) / 2.0


def elimination_plan(oracle, members, d_lo: float, d_hi: float, delta: float):
    """Repeatedly purge arms whose means sit below the (d_lo, d_hi) band.

    Each pass runs a fraction test at thresholds (0.05, 0.1) on the lower
    half-band; while it reports a crowd of low arms, every survivor is
    re-estimated and arms at or below the upper quarter-point are dropped.
    Arms with means >= d_hi survive with probability >= 1 - delta/2, and
    with probability >= 1 - delta/2 at most a 0.1 fraction of the output
    sits below d_lo.
    """
    active = _check_members(members)
    if not d_lo < d_hi:
        raise ValueError(f"need d_lo < d_hi, got {d_lo} >= {d_hi}")
    _check_delta(delta)
    d_mid = (d_lo + d_hi) / 2.0
    keep_above = (d_mid + d_hi) / 2.0
    round_idx = 0
    while active:
        round_idx += 1
        delta_r = delta / (10.0 * 2.0**round_idx)
        if not delta_r:  # underflowed: a float-range error of a tiny delta, not a bad input
            raise OverflowError("elimination delta underflowed to 0")
        crowded = yield from frac_test_plan(
            oracle, active, d_lo, d_mid, 0.05, 0.1, delta_r, phase="elim"
        )
        if not crowded:
            return active
        estimates = yield from unif_sampl_plan(active, (d_hi - d_mid) / 2.0, delta_r, phase="elim")
        active = [arm for arm in active if estimates[arm] > keep_above]
    return active

