import concurrent.futures
import csv
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bestarm import (
    OK,
    Instance,
    RunOutcome,
    SamplingOracle,
    TrialReport,
    baseline_successive_elimination_plan,
    complexity_guessing_plan,
    conjectured_bound,
    equal_h_pair,
    generate_instances,
    known_complexity_plan,
    make_discrete_instance,
    profile,
    run_trials,
    solve,
    write_reports,
)
from bestarm import bench
from bestarm.bench import TRIAL_CSV_HEADER
from doubles import SmallPool

TWO_ARM = Instance.from_means((1.0, 0.5), label="two-arm")


class TestRunTrials:
    def test_all_correct_gives_zero_error(self):
        report = run_trials("guess", TWO_ARM, 0.05, trials=20, base_seed=0, budget=None)
        assert report.errors == 0
        assert report.empirical_error == 0.0
        assert report.budget_exceeded == 0
        assert report.trials == 20

    def test_same_base_seed_replays_byte_identically(self):
        a = run_trials("guess", TWO_ARM, 0.05, trials=10, base_seed=7, budget=None)
        b = run_trials("guess", TWO_ARM, 0.05, trials=10, base_seed=7, budget=None)
        assert a == b
        assert a.to_csv_row() == b.to_csv_row()

    def test_ratio_column_arithmetic(self):
        report = run_trials("guess", TWO_ARM, 0.05, trials=5, base_seed=1, budget=None)
        bound = conjectured_bound(profile(TWO_ARM), 0.05)
        assert report.conjectured_bound == pytest.approx(bound, rel=1e-12)
        assert report.sample_to_bound_ratio == pytest.approx(
            report.mean_samples / bound, rel=1e-12
        )

    def test_known_auto_computes_complexity(self):
        report = run_trials("known", TWO_ARM, 0.05, trials=5, base_seed=2, budget=None)
        assert report.errors == 0
        assert math.isnan(report.mean_accepted_guess_t)  # only the guessing solver sets it

    def test_guess_reports_mean_accepted_t(self):
        report = run_trials("guess", TWO_ARM, 0.05, trials=5, base_seed=3, budget=None)
        assert report.mean_accepted_guess_t >= 1.0

    def test_budget_exceeded_counted_separately(self):
        report = run_trials("guess", TWO_ARM, 0.05, trials=6, base_seed=0, budget=1000)
        assert report.budget_exceeded == 6
        assert report.errors == 0
        assert math.isnan(report.mean_samples)
        assert math.isnan(report.median_samples) and math.isnan(report.p95_samples)

    def test_baseline_algorithm(self):
        inst = Instance.from_means((1.0, 0.25), label="easy")
        report = run_trials("baseline", inst, 0.1, trials=10, base_seed=0)
        assert report.errors == 0

    def test_run_one_trial_solves_the_named_plan(self):
        # `known` must receive the instance complexity of the gap profile
        inst = make_discrete_instance({1: 3, 2: 3}, 1.0, label="disc-7")
        plans = {
            "known": (known_complexity_plan, 0.01, profile(inst).H),
            "guess": (complexity_guessing_plan, 0.01),
            "baseline": (baseline_successive_elimination_plan, 0.01),
        }
        for algo, (plan, *args) in plans.items():
            for seed in (0, 1):
                oracle = SamplingOracle.for_instance(inst, seed=seed)
                direct = solve(plan, oracle, inst, *args, budget=None)
                assert bench.run_one_trial(algo, inst, 0.01, seed, None) == direct

    def test_worker_pool_matches_serial(self):
        serial = run_trials("guess", TWO_ARM, 0.05, trials=6, base_seed=5, budget=None)
        pooled = run_trials("guess", TWO_ARM, 0.05, trials=6, base_seed=5, budget=None,
                            workers=2)
        assert serial == pooled

    def test_workers_outside_one_to_cpu_count_are_refused_before_any_pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SmallPool)
        monkeypatch.setattr(SmallPool, "sizes", [])
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for workers in (0, -3, 65):
            with pytest.raises(ValueError, match=f"workers must be in 1..64, got {workers}"):
                run_trials("guess", TWO_ARM, 0.05, trials=2, base_seed=0, workers=workers)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker only
        with pytest.raises(ValueError, match="workers must be in 1..1, got 2"):
            run_trials("guess", TWO_ARM, 0.05, trials=2, base_seed=0, workers=2)
        assert SmallPool.sizes == []

    def test_serial_batches_never_probe_the_cpu_count(self, monkeypatch):
        def unavailable():
            raise AssertionError("os.cpu_count called for a serial batch")

        monkeypatch.setattr(os, "cpu_count", unavailable)
        report = run_trials("guess", TWO_ARM, 0.05, trials=2, base_seed=0, workers=1)
        assert report.trials == 2 and report.errors == 0

    def test_pool_starts_at_most_one_worker_per_trial(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SmallPool)
        monkeypatch.setattr(SmallPool, "sizes", [])
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        serial = run_trials("guess", TWO_ARM, 0.05, trials=2, base_seed=0)
        assert run_trials("guess", TWO_ARM, 0.05, trials=2, base_seed=0, workers=64) == serial
        run_trials("guess", TWO_ARM, 0.05, trials=1, base_seed=0, workers=64)  # runs in-process
        assert SmallPool.sizes == [2]

    def test_unreconciled_ledger_raises(self, monkeypatch):
        def broken(*args):
            return RunOutcome(status=OK, arm=0, total_samples=10, per_arm_samples=(4, 5),
                              rounds_executed=1)

        monkeypatch.setattr(bench, "run_one_trial", broken)
        with pytest.raises(RuntimeError, match="ledger"):
            run_trials("guess", TWO_ARM, 0.05, trials=1, base_seed=0, budget=None)

    def test_bad_instance_fails_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(bench, "run_one_trial", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match="too small: the bound overflows a float"):
            run_trials("guess", Instance.from_means((2.0**-511, 0.0)), 0.01, 3, 0)
        with pytest.raises(ValueError, match="delta must lie in"):
            run_trials("guess", TWO_ARM, 0.0, 3, 0)
        assert runs == []

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            run_trials("lilucb", TWO_ARM, 0.05, trials=1, base_seed=0)


def report_of_totals(monkeypatch, totals) -> TrialReport:
    """``run_trials`` over runs that report the given totals, one per trial, all correct."""

    def fixed(algo, instance, delta, seed, budget):
        return RunOutcome(status=OK, arm=0, total_samples=totals[seed],
                          per_arm_samples=(totals[seed],), rounds_executed=1)

    monkeypatch.setattr(bench, "run_one_trial", fixed)
    return run_trials("guess", TWO_ARM, 0.05, trials=len(totals), base_seed=0)


def exact_quantile(totals, q: Fraction) -> float:
    """numpy's linear method in exact arithmetic, rounded once to a float."""
    xs = sorted(totals)
    h = (len(xs) - 1) * q
    j = math.floor(h)
    low = Fraction(xs[j])
    return float(low if h == j else low + (h - j) * (xs[j + 1] - low))


class TestQuantiles:
    @given(st.lists(st.integers(0, 2**70), min_size=1, max_size=40))
    def test_median_and_p95_are_exact_linear_interpolations(self, totals):
        with pytest.MonkeyPatch.context() as mp:
            report = report_of_totals(mp, totals)
        assert report.median_samples == exact_quantile(totals, Fraction(1, 2))
        assert report.p95_samples == exact_quantile(totals, Fraction(19, 20))

    @given(st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=40))
    def test_median_matches_numpy_below_two_to_the_53(self, totals):
        with pytest.MonkeyPatch.context() as mp:
            report = report_of_totals(mp, totals)
        assert report.median_samples == float(np.median(totals))

    def test_p95_can_differ_from_numpy_in_the_last_ulp(self, monkeypatch):
        # The totals of `parallel` on stair-6 at delta 0.01, seeds 0 and 1.
        totals = [3808794209718, 364286646202]
        assert float(np.percentile(totals, 95)) == 3636568831542.1997
        assert report_of_totals(monkeypatch, totals).p95_samples == 3636568831542.2


class TestWriteReports:
    def _report(self, label):
        return run_trials("guess", Instance.from_means((1.0, 0.5), label=label),
                          0.05, trials=3, base_seed=0, budget=None)

    def test_header_row_is_fixed(self, tmp_path):
        path = tmp_path / "out.csv"
        write_reports(path, [self._report("a")])
        rows = list(csv.reader(path.open()))
        assert rows[0] == TRIAL_CSV_HEADER
        assert len(rows) == 2

    def test_append_is_schema_stable(self, tmp_path):
        path = tmp_path / "out.csv"
        write_reports(path, [self._report("a")])
        write_reports(path, [self._report("b")], append=True)
        rows = list(csv.reader(path.open()))
        assert rows[0] == TRIAL_CSV_HEADER
        assert len(rows) == 3
        assert all(row[0] != "algo" for row in rows[1:])


class TestGenerateInstances:
    def test_two_arm(self):
        (inst,) = generate_instances("two-arm", {"gap": 0.5})
        assert inst.means == (1.0, 0.5)

    def test_two_arm_gap_list(self):
        for key in ("gaps", "gap"):
            out = generate_instances("two-arm", {key: [0.5, 0.25]})
            assert [i.means for i in out] == [(1.0, 0.5), (1.0, 0.75)]

    def test_discrete_random_delegates_to_builder(self):
        out = generate_instances("discrete-random", {"count": 4, "k_max": 3}, seed=9)
        assert len(out) == 4
        for inst in out:
            prof = profile(inst)
            assert min(prof.gaps) >= 0.125 - 1e-12
            assert prof.r_max <= 3
            # every gap is a power of two
            for g in prof.gaps:
                assert math.log2(1 / g) == round(math.log2(1 / g))

    def test_discrete_random_is_seeded(self):
        a = generate_instances("discrete-random", {"count": 3}, seed=4)
        b = generate_instances("discrete-random", {"count": 3}, seed=4)
        assert [i.means for i in a] == [i.means for i in b]
        # a whole float count (the CLI parses numbers as floats) is the same count
        assert generate_instances("discrete-random", {"count": 3.0}, seed=4) == a

    def test_equal_h_pair_matches_exhaustive_search(self):
        flat, spread = equal_h_pair(h_target=32, k_max=3, cap=8)
        p_flat, p_spread = profile(flat), profile(spread)
        assert abs(p_flat.H - p_spread.H) <= 1e-9
        assert p_flat.ent == 0.0
        assert p_spread.ent > 0.0
        # independent check: recompute the attainable complexities by brute force
        attainable = set()
        for a in range(0, 9):
            for b in range(0, 9):
                for c in range(0, 9):
                    if a + b + c:
                        attainable.add(4 * a + 16 * b + 64 * c)
        assert 32 in attainable
        assert p_flat.H == 32.0

    def test_equal_h_infeasible_target_raises(self):
        with pytest.raises(ValueError):
            equal_h_pair(h_target=5, k_max=2, cap=3)

    def test_generator_kind_validation(self):
        with pytest.raises(ValueError):
            generate_instances("zipfian", {})
        with pytest.raises(ValueError):
            generate_instances("discrete-random", {"k_max": 5})
        for cap in (0, -1):
            with pytest.raises(ValueError, match="cap"):
                generate_instances("discrete-random", {"cap": cap})
        with pytest.raises(ValueError):
            generate_instances("two-arm", {"gap": 1.5})
        for key, bad in (("k_max", [2, 3]), ("cap", "3"), ("top_mean", None), ("count", 1.5)):
            with pytest.raises(ValueError, match=f"parameter {key} must be"):
                generate_instances("discrete-random", {key: bad})
        with pytest.raises(ValueError, match="count must be >= 1"):
            generate_instances("discrete-random", {"count": -1})
        with pytest.raises(ValueError, match="parameter h must be"):
            generate_instances("equal-h-varying-ent", {"h": True})
        with pytest.raises(ValueError, match="unknown discrete-random parameter.*gap"):
            generate_instances("discrete-random", {"gap": 0.5})


def test_import_leaves_the_process_pool_unloaded():
    # only ``workers > 1`` needs multiprocessing; test_worker_pool_matches_serial covers it
    src = str(Path(bench.__file__).resolve().parent.parent)
    code = "import sys, bestarm; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


def test_import_leaves_statistics_fractions_and_decimal_unloaded():
    # ``statistics`` pulls in ``fractions`` and ``decimal``, a few ms of every
    # workload's set-up time; the bench's quantiles need none of them.
    src = str(Path(bench.__file__).resolve().parent.parent)
    code = "import sys, bestarm; print([m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "[]", out.stderr


def test_trial_report_is_a_value_object():
    report = run_trials("guess", TWO_ARM, 0.05, trials=2, base_seed=0, budget=None)
    assert isinstance(report, TrialReport)
    row = report.to_csv_row()
    assert len(row) == len(TRIAL_CSV_HEADER)
    assert row[0] == "guess"
    assert row[1] == "two-arm"
