"""Monte-Carlo bench: instance generation, seeded trial batches, CSV reports."""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import astuple, dataclass, fields
from itertools import product, repeat

import numpy as np

from .instances import Instance, _entropy, conjectured_bound, make_discrete_instance, profile
from .oracle import SamplingOracle
from .parallel import parallel_simulation
from .solvers import (
    BUDGET_EXCEEDED,
    OK,
    RunOutcome,
    baseline_successive_elimination_plan,
    complexity_guessing_plan,
    known_complexity_plan,
    solve,
)

ALGORITHMS = ("known", "guess", "parallel", "baseline")


@dataclass(frozen=True)
class TrialReport:
    """Aggregate of one (algorithm, instance, delta) trial batch.

    ``empirical_error`` counts wrong answers over all trials; budget-capped
    runs are reported separately and excluded from the error count.  Sample
    statistics cover the runs that finished within budget.
    """

    algo: str
    instance: str
    delta: float
    trials: int
    errors: int
    budget_exceeded: int
    empirical_error: float
    mean_samples: float
    median_samples: float
    p95_samples: float
    mean_accepted_guess_t: float
    conjectured_bound: float
    sample_to_bound_ratio: float

    def to_csv_row(self) -> list[str]:
        return [v if isinstance(v, str) else repr(v) for v in astuple(self)]


TRIAL_CSV_HEADER = [f.name for f in fields(TrialReport)]


def run_one_trial(
    algo: str,
    instance: Instance,
    delta: float,
    seed,
    budget: int | None = None,
    trace=None,
) -> RunOutcome:
    """Execute a single seeded run; ``trace`` gets ``known``/``guess`` round events."""
    if algo == "parallel":
        return parallel_simulation(instance, delta, seed=seed, budget=budget)
    oracle = SamplingOracle.for_instance(instance, seed=seed)
    if algo == "known":
        H = profile(instance).H
        return solve(known_complexity_plan, oracle, instance, delta, H, budget=budget, trace=trace)
    if algo == "guess":
        return solve(complexity_guessing_plan, oracle, instance, delta, budget=budget, trace=trace)
    if algo == "baseline":
        return solve(baseline_successive_elimination_plan, oracle, instance, delta, budget=budget)
    raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")


def _quantile(xs: list[int], a: int, b: int) -> float:
    """Quantile a/b of sorted ints, numpy's linear method computed exactly and rounded once."""
    j, r = divmod((len(xs) - 1) * a, b)
    return (xs[j] * (b - r) + xs[j + 1] * r) / b if r else float(xs[j])


def run_trials(
    algo: str,
    instance: Instance,
    delta: float,
    trials: int,
    base_seed: int,
    *,
    budget: int | None = None,
    workers: int = 1,
) -> TrialReport:
    """Run seeded trials of one algorithm on one instance and aggregate them.

    Trial i uses seed ``base_seed + i``, so a batch replays exactly.  The
    ``known`` algorithm receives the instance complexity computed from the
    gap profile, and ``budget`` is an optional per-trial sample cap.
    ``workers`` must lie in 1..``os.cpu_count()``; above 1, trials fan out over a
    pool of at most one process per trial, and results aggregate in trial order.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers != 1 and not 1 <= workers <= (os.cpu_count() or 1):  # serial needs no probe
        raise ValueError(f"workers must be in 1..{os.cpu_count() or 1}, got {workers}")
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    bound = conjectured_bound(profile(instance), delta)  # refuses a bad instance before any run
    seeds = [base_seed + i for i in range(trials)]
    workers = min(workers, trials)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs multiprocessing

        args = (repeat(algo), repeat(instance), repeat(delta), seeds, repeat(budget))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_one_trial, *args))
    else:
        outcomes = [run_one_trial(algo, instance, delta, s, budget) for s in seeds]

    best = instance.best_arm
    errors = 0
    capped = 0
    totals: list[int] = []
    accepted: list[int] = []
    for outcome in outcomes:
        # Reconciliation: the reported total is exactly the oracle's ledger.
        if outcome.total_samples != sum(outcome.per_arm_samples):
            raise RuntimeError(
                f"{algo} run on {instance.label!r} reports {outcome.total_samples} draws "
                f"but its per-arm ledger sums to {sum(outcome.per_arm_samples)}"
            )
        if outcome.status == BUDGET_EXCEEDED:
            capped += 1
            continue
        totals.append(outcome.total_samples)
        if not (outcome.status == OK and outcome.arm == best):
            errors += 1
        if outcome.accepted_guess_t is not None:
            accepted.append(outcome.accepted_guess_t)

    totals.sort()
    mean_samples = math.fsum(totals) / len(totals) if totals else math.nan
    return TrialReport(
        algo=algo,
        instance=instance.label,
        delta=delta,
        trials=trials,
        errors=errors,
        budget_exceeded=capped,
        empirical_error=errors / trials,
        mean_samples=mean_samples,
        median_samples=_quantile(totals, 1, 2) if totals else math.nan,
        p95_samples=_quantile(totals, 19, 20) if totals else math.nan,
        mean_accepted_guess_t=math.fsum(accepted) / len(accepted) if accepted else math.nan,
        conjectured_bound=bound,
        sample_to_bound_ratio=mean_samples / bound,
    )


def write_reports(path, reports, *, append: bool = False) -> None:
    """Write trial reports as CSV; appending never repeats the header."""
    fresh = not (append and os.path.exists(path) and os.path.getsize(path) > 0)
    mode = "w" if fresh else "a"
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(TRIAL_CSV_HEADER)
        for report in reports:
            writer.writerow(report.to_csv_row())


# --- instance generation -----------------------------------------------------


def _count_maps(h_target: int, k_max: int, cap: int):
    """All maps {k: n_k, 1 <= k <= k_max, n_k <= cap} with sum 4^k n_k == h_target."""
    ranges = [range(min(cap, h_target // 4**k) + 1) for k in range(1, k_max + 1)]
    return [
        {k: n for k, n in enumerate(ns, start=1) if n}
        for ns in product(*ranges)
        if any(ns) and sum(4**k * n for k, n in enumerate(ns, start=1)) == h_target
    ]


def equal_h_pair(
    h_target: int = 32,
    k_max: int = 3,
    cap: int = 8,
    top_mean: float = 1.0,
) -> tuple[Instance, Instance]:
    """Two discrete instances with identical complexity but different gap entropy.

    The first concentrates all complexity in one gap group (entropy 0), the
    second spreads it as evenly as the target allows.  Found by exhaustive
    search over small group counts; raises ValueError when the target is
    infeasible.
    """
    maps = _count_maps(h_target, k_max, cap)
    flat = [m for m in maps if len(m) == 1]
    spread = [m for m in maps if len(m) > 1]
    if not flat or not spread:
        raise ValueError(
            f"no equal-complexity pair with H={h_target}, k_max={k_max}, cap={cap}"
        )
    # Flat pick: the single-group map with the most arms (sizes comparable
    # to the spread pick); spread pick: maximum entropy, then most arms.
    flat_pick = max(flat, key=lambda m: sum(m.values()))
    # Every map's masses 4^k n_k sum to h_target, so these are its group fractions.
    spread_pick = max(spread, key=lambda m: (
        _entropy(4**k * n / h_target for k, n in m.items()), sum(m.values())))
    lo = make_discrete_instance(flat_pick, top_mean, label=f"eqh{h_target}-ent0")
    hi = make_discrete_instance(spread_pick, top_mean, label=f"eqh{h_target}-entmax")
    return lo, hi


GEN_KEYS = {
    "two-arm": ("gap", "gaps"),
    "discrete-random": ("count", "k_max", "cap", "top_mean"),
    "equal-h-varying-ent": ("h", "k_max", "cap", "top_mean"),
}


def _number(key: str, value, integer: bool = False):
    """``value`` as a float (an int when ``integer``); ValueError naming ``key`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or integer and value % 1:
        kind = "an integer" if integer else "a single number"
        raise ValueError(f"parameter {key} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def generate_instances(kind: str, params: dict | None = None, seed: int = 0) -> list[Instance]:
    """Generate benchmark instances; an unknown key or a wrong value raises ValueError.

    Kinds (``k_max`` <= 3 keeps every gap >= 0.125):
      * ``two-arm``: params ``gap`` or ``gaps``, one gap or a list; best arm at 1.0.
      * ``discrete-random``: params ``count`` >= 1, ``k_max``, ``cap`` arms per
        group, ``top_mean``.
      * ``equal-h-varying-ent``: params ``h``, ``k_max``, ``cap``, ``top_mean``;
        emits a pair with identical complexity and entropies 0 versus maximal.
    """
    params = dict(params or {})
    if kind not in GEN_KEYS:
        raise ValueError(f"unknown instance kind {kind!r}")
    keys = GEN_KEYS[kind]
    unknown = ", ".join(sorted(set(params) - set(keys)))
    if unknown:
        raise ValueError(f"unknown {kind} parameter(s) {unknown}; expected {', '.join(keys)}")
    if kind == "two-arm":
        gaps = params.get("gaps", params.get("gap", 0.5))
        if not isinstance(gaps, (list, tuple)):
            gaps = [gaps]
        out = []
        for gap in gaps:
            gap = _number("gap", gap)
            if not 0.0 < gap <= 1.0:
                raise ValueError(f"two-arm gap must lie in (0, 1], got {gap}")
            out.append(Instance.from_means((1.0, 1.0 - gap), f"two-arm-g{gap:g}"))
        return out
    k_max = _number("k_max", params.get("k_max", 3), integer=True)
    cap = _number("cap", params.get("cap", 3 if kind == "discrete-random" else 8), integer=True)
    top_mean = _number("top_mean", params.get("top_mean", 1.0))
    if not 1 <= k_max <= 3:
        raise ValueError(f"k_max must be in 1..3 at desk scale, got {k_max}")
    if kind == "equal-h-varying-ent":
        h = _number("h", params.get("h", 32), integer=True)
        return list(equal_h_pair(h_target=h, k_max=k_max, cap=cap, top_mean=top_mean))
    count = _number("count", params.get("count", 5), integer=True)
    if count < 1:
        raise ValueError(f"count must be >= 1 instance, got {count}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1 arm per gap group, got {cap}")
    rng = np.random.default_rng(seed)
    out = []
    for idx in range(count):
        counts = {}
        while not counts:
            drawn = (int(rng.integers(0, cap + 1)) for _ in range(k_max))
            counts = {k: n for k, n in enumerate(drawn, start=1) if n}
        sig = "-".join(f"{k}:{n}" for k, n in sorted(counts.items()))
        out.append(make_discrete_instance(counts, top_mean, label=f"disc{idx}-{sig}"))
    return out
