"""Arm and instance modelling: gap statistics, grouping, and instance file I/O.

An instance is a set of unit-variance Gaussian arms with means in [0, 1] and
a strictly unique best arm.  Sub-optimal arms are bucketed into gap groups by
powers of two, and the resulting group-mass distribution yields the gap
entropy that drives the conjectured complexity formula.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Instance:
    """An ordered tuple of arm means; the order is storage only.

    Invariants: every mean lies in [0, 1], there are at least two arms, and
    the largest mean is strictly larger than the second largest, so there
    is a unique best arm.
    """

    means: tuple[float, ...]
    label: str = "instance"

    def __post_init__(self) -> None:
        for m in self.means:
            if not 0.0 <= m <= 1.0:
                raise ValueError(f"arm mean must lie in [0, 1], got {m}")
        if len(self.means) < 2:
            raise ValueError("an instance needs at least 2 arms")
        ordered = sorted(self.means)
        if ordered[-1] == ordered[-2]:
            raise ValueError("tied maximum mean: the best arm must be unique")

    @classmethod
    def from_means(cls, means: Iterable[float], label: str = "instance") -> "Instance":
        return cls(tuple(float(m) for m in means), label)

    @property
    def n_arms(self) -> int:
        return len(self.means)

    @property
    def best_arm(self) -> int:
        """Index of the unique arm with the largest mean."""
        return max(range(len(self.means)), key=self.means.__getitem__)

    @cached_property
    def _profile(self) -> GapProfile:
        # The memo behind ``profile``; not a field, so ==, hash and repr ignore it.
        means = self.means
        best = self.best_arm
        top = means[best]
        groups: list[int | None] = []
        for i, m in enumerate(means):
            groups.append(None if i == best else group_index(top - m))
        gaps = tuple(sorted(top - m for i, m in enumerate(means) if i != best))

        by_group: dict[int, list[float]] = {}
        for g in gaps:
            by_group.setdefault(group_index(g), []).append(g)
        Hk = {k: math.fsum(g**-2 for g in sorted(gs)) for k, gs in sorted(by_group.items())}
        H = math.fsum(Hk.values())
        pk = {k: hk / H for k, hk in Hk.items()}
        ent = math.fsum(p * math.log(1.0 / p) for p in pk.values() if p > 0.0)
        return GapProfile(
            gaps=gaps,
            groups=tuple(groups),
            H=H,
            Hk=Hk,
            pk=pk,
            ent=ent,
            r_max=max(Hk),
        )


@dataclass(frozen=True)
class GapProfile:
    """Derived gap statistics of an instance.

    ``gaps`` holds the sub-optimal gaps in ascending order.  ``groups`` maps
    each arm (in instance order) to its gap-group index, with ``None`` for
    the best arm.  ``H`` is the total complexity (sum of inverse squared
    gaps), ``Hk``/``pk`` the per-group complexities and their normalised
    masses, ``ent`` the Shannon entropy of ``pk`` and ``r_max`` the largest
    nonempty group index.
    """

    gaps: tuple[float, ...]
    groups: tuple[int | None, ...]
    H: float
    Hk: dict[int, float]
    pk: dict[int, float]
    ent: float
    r_max: int


def group_index(gap: float) -> int:
    """Return the unique k with 2^-(k+1) < gap <= 2^-k.

    Raises ValueError unless 0 < gap <= 1.
    """
    if not 0.0 < gap <= 1.0:
        raise ValueError(f"gap must lie in (0, 1], got {gap}")
    # Exact: gap = m * 2^e with 0.5 <= m < 1, and m == 0.5 only at gap = 2^-k.
    m, e = math.frexp(gap)
    return (m == 0.5) - e


def profile(instance: Instance) -> GapProfile:
    """Compute the gap profile of an instance, once: it is kept on the instance.

    Every call returns the same object, whose ``Hk``/``pk`` no caller
    mutates.  All sums use exact accumulation (math.fsum) so the result is
    invariant under arm reordering.
    """
    return instance._profile


def _check_delta(delta: float) -> None:
    """Reject a confidence parameter outside (0, 1); shared by every layer."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def conjectured_bound(prof: GapProfile, delta: float) -> float:
    """Instance complexity scale H * (ln(1/delta) + Ent), with unit constant."""
    _check_delta(delta)
    return prof.H * (math.log(1.0 / delta) + prof.ent)


def make_discrete_instance(
    counts: Mapping[int, int],
    top_mean: float,
    label: str | None = None,
) -> Instance:
    """Build an instance whose sub-optimal gaps are all powers of two.

    Args:
        counts: map from group index k >= 1 to the number of arms with gap
            2^-k.  At least one arm in total.
        top_mean: mean of the single best arm; every derived mean must stay
            inside [0, 1].
        label: optional instance label; derived from the counts by default.

    Returns:
        Instance with one arm at ``top_mean`` and, for each k, counts[k]
        arms at ``top_mean - 2^-k``.
    """
    if not counts:
        raise ValueError("counts must not be empty")
    cleaned: dict[int, int] = {}
    for k, n_k in sorted(counts.items()):
        if int(k) != k or k < 1:
            raise ValueError(f"group index must be an integer >= 1, got {k}")
        if int(n_k) != n_k or n_k < 0:
            raise ValueError(f"arm count must be a nonnegative integer, got {n_k}")
        if n_k:
            cleaned[int(k)] = int(n_k)
    if not cleaned:
        raise ValueError("counts must place at least one arm")
    means = [float(top_mean)]
    for k, n_k in cleaned.items():
        m = top_mean - 2.0**-k
        if m < 0.0:
            raise ValueError(f"mean {m} below 0 for group {k} (top_mean={top_mean})")
        means.extend([m] * n_k)
    if label is None:
        label = "discrete-" + "-".join(f"{k}:{n}" for k, n in cleaned.items())
    return Instance.from_means(means, label)


def parse_instance(text: str, label: str = "instance") -> Instance:
    """Parse a line-oriented instance file: one decimal mean per line.

    Blank lines and lines starting with '#' are skipped.  Raises ValueError
    on malformed numbers, means outside [0, 1], fewer than two arms, or a
    tied maximum mean.
    """
    means: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            means.append(float(line))
        except ValueError:
            raise ValueError(f"line {lineno}: not a decimal mean: {line!r}") from None
    return Instance.from_means(means, label)


def format_instance(instance: Instance) -> str:
    """Serialize an instance back to the line-oriented file format."""
    lines = [f"# {instance.label}"]
    lines.extend(repr(m) for m in instance.means)
    return "\n".join(lines) + "\n"


def profile_csv_row(instance: Instance) -> list[str]:
    """Flatten a profile to one CSV row: id,n,H,ent,r_max then k,H_k,p_k per group."""
    prof = profile(instance)
    row = [
        instance.label,
        str(instance.n_arms),
        repr(prof.H),
        repr(prof.ent),
        str(prof.r_max),
    ]
    for k in sorted(prof.Hk):
        row.extend([str(k), repr(prof.Hk[k]), repr(prof.pk[k])])
    return row
