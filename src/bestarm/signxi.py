"""Sign identification for a single hidden-mean arm, via a two-arm reduction.

Deciding whether a hidden mean mu is positive or negative is solved by
racing the hidden arm against a fictitious reference arm of known mean:
both are embedded at an offset of 0.5 so the two-arm instance stays inside
[0, 1] (shifting a unit-variance Gaussian does not change the problem).
The module also measures the per-gap sample-cost profile of a solver over a
distribution of gaps 2^-k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from .instances import Instance
from .oracle import SamplingOracle
from .solvers import BUDGET_EXCEEDED, DEFAULT_BUDGET, OK, RunOutcome, complexity_guessing_plan, solve

#: Embedding offset; the reference arm sits exactly here.
SIGN_SHIFT = 0.5
REAL_ARM = 0
REFERENCE_ARM = 1

POSITIVE = "positive"
NEGATIVE = "negative"


def sign_instance(hidden_mean: float) -> Instance:
    """Two-arm embedding of the sign problem: (0.5 + mu, 0.5).

    Requires 0 < |mu| <= 0.5 so both means stay in [0, 1].
    """
    if not 0.0 < abs(hidden_mean) <= SIGN_SHIFT:
        raise ValueError(f"hidden mean must satisfy 0 < |mu| <= {SIGN_SHIFT}, got {hidden_mean}")
    return Instance.from_means((SIGN_SHIFT + hidden_mean, SIGN_SHIFT), f"sign{hidden_mean:+g}")


@dataclass(frozen=True)
class SignResult:
    """Decision ("positive"/"negative", None on budget exhaustion) plus the raw run."""

    decision: str | None
    outcome: RunOutcome


def run_sign_trial(
    hidden_mean: float,
    delta: float,
    seed,
    *,
    budget: int | None = DEFAULT_BUDGET,
) -> SignResult:
    """Decide the sign of the hidden mean in one seeded trial of the reduction.

    Runs the guessing solver on ``sign_instance(hidden_mean)`` (real arm
    first) over its own oracle; every draw of either embedded arm is counted
    there, so the outcome's totals are exactly the reduction's sample cost.
    Correct with probability >= 1 - delta for delta < 0.01.
    """
    embedded = sign_instance(hidden_mean)
    oracle = SamplingOracle.for_instance(embedded, seed=seed)
    outcome = solve(complexity_guessing_plan, oracle, embedded, delta, budget=budget)
    if outcome.status != OK:
        return SignResult(None, outcome)
    return SignResult(POSITIVE if outcome.arm == REAL_ARM else NEGATIVE, outcome)


@dataclass(frozen=True)
class LossProfile:
    """Measured per-gap sample costs for gaps 2^-k, k = 1..m.

    ``alpha[k-1]`` is mean(total samples at gap 2^-k) / 4^k, or None when a
    budget-exhausted run invalidated that gap (``partial`` is then True).
    ``expected_loss`` is sum(p_k * alpha_k); ``ent_p`` the Shannon entropy
    of the gap distribution.
    """

    ks: tuple[int, ...]
    pk: tuple[float, ...]
    alpha: tuple[float | None, ...]
    mean_samples: tuple[float | None, ...]
    expected_loss: float | None
    ent_p: float
    delta: float
    trials: int
    partial: bool


def measure_loss_profile(
    solver,
    pk: Sequence[float],
    delta: float,
    trials: int,
    *,
    base_seed: int = 0,
    budget: int | None = DEFAULT_BUDGET,
) -> LossProfile:
    """Measure a sign solver's loss profile over a gap distribution.

    Args:
        solver: trial runner ``(hidden_mean, delta, seed, *, budget) ->
            SignResult``; :func:`run_sign_trial` fits.
        pk: probability of each gap 2^-k, for k = 1..m.  m <= 4 (the 4^k
            sample growth caps desk-scale gaps), probabilities must sum to 1.
        delta: confidence handed to each trial.
        trials: seeded trials per gap, at least 30.
        base_seed: trial (k, i) uses seed base_seed + (k-1)*trials + i.
        budget: per-trial sample cap; one exhausted trial marks gap k as
            missing and the profile as partial.
    """
    probs = [float(p) for p in pk]
    ks = list(range(1, len(probs) + 1))
    if not ks or len(ks) > 4:
        raise ValueError(f"need 1 <= m <= 4 gap groups, got {len(ks)}")
    if any(p < 0.0 for p in probs) or abs(math.fsum(probs) - 1.0) > 1e-9:
        raise ValueError("gap probabilities must be nonnegative and sum to 1")
    if trials < 30:
        raise ValueError(f"need at least 30 trials per gap, got {trials}")

    alpha: list[float | None] = []
    mean_samples: list[float | None] = []
    for k in ks:
        totals: list[int] = []
        invalid = False
        for i in range(trials):
            seed = base_seed + (k - 1) * trials + i
            result = solver(2.0**-k, delta, seed, budget=budget)
            if result.outcome.status == BUDGET_EXCEEDED:
                invalid = True
                break
            totals.append(result.outcome.total_samples)
        if invalid:
            alpha.append(None)
            mean_samples.append(None)
        else:
            mean = math.fsum(totals) / trials
            mean_samples.append(mean)
            alpha.append(mean / 4.0**k)

    ent_p = math.fsum(p * math.log(1.0 / p) for p in probs if p > 0.0)
    usable = all(a is not None for a, p in zip(alpha, probs) if p > 0.0)
    expected_loss = (
        math.fsum(p * a for p, a in zip(probs, alpha) if p > 0.0) if usable else None
    )
    return LossProfile(
        ks=tuple(ks),
        pk=tuple(probs),
        alpha=tuple(alpha),
        mean_samples=tuple(mean_samples),
        expected_loss=expected_loss,
        ent_p=ent_p,
        delta=delta,
        trials=trials,
        partial=not usable,
    )


def loss_profile_rows(profile: LossProfile) -> list[list[str]]:
    """CSV rows: header, one row per gap, and a summary footer."""
    rows = [["k", "p_k", "alpha_k", "mean_samples"]]
    for k, p, a, m in zip(profile.ks, profile.pk, profile.alpha, profile.mean_samples):
        rows.append([str(k), repr(p), "" if a is None else repr(a), "" if m is None else repr(m)])
    rows.append(
        [
            "expected_loss",
            "" if profile.expected_loss is None else repr(profile.expected_loss),
            "ent_P",
            repr(profile.ent_p),
        ]
    )
    rows.append(["ln_inv_delta", repr(math.log(1.0 / profile.delta)), "partial", str(profile.partial)])
    return rows
