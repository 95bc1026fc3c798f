"""The schema of the committed ``BENCH_<N>.json`` records, checked without running the benchmark."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.removeprefix("BENCH_")))


def test_a_record_is_on_file():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_stored_record_follows_the_schema(path):
    record = json.loads(path.read_text())
    record_bench.validate(record)
    assert path.name == f"BENCH_{record['pr']}.json"
    for seeds in record["workloads"].values():
        for entry in seeds.values():
            assert all(entry["correct"].values()) and entry["traced_correct"]


def broken(record, change):
    record = copy.deepcopy(record)
    change(record)
    return record


def first(record):
    workload = next(iter(record["workloads"].values()))
    return next(iter(workload.values()))


BREAKS = {
    "no cpu_count": lambda r: r.pop("cpu_count"),
    "short revision": lambda r: r.update(revision=r["revision"][:7]),
    "pr as text": lambda r: r.update(pr=str(r["pr"])),
    "a shorter run": lambda r: r.update(seconds=r["seconds"] - 1),
    "a workload missing": lambda r: r["workloads"].popitem(),
    "a metric missing": lambda r: first(r)["end_to_end"].pop("setup_s"),
    "a seed missing": lambda r: next(iter(r["workloads"].values())).pop("0"),
    "a run missing": lambda r: first(r)["end_to_end"]["runs_per_s"]["this"]["runs"].pop(),
    "quartiles out of order": lambda r: first(r)["end_to_end"]["runs_per_s"]["this"].update(q1=float("inf")),
    "more pairs won than run": lambda r: first(r)["end_to_end"]["runs_per_s"].update(pairs_won=first(r)["pairs"] + 1),
    "a count not an int": lambda r: first(r)["counts"].update({"oracle.draws": 1.5}),
}
TIER1_BREAKS = {
    "no tier-1 field": lambda r: r.pop("tier1"),
    "tier-1 time as an int": lambda r: r["tier1"].update(wall_s=int(r["tier1"]["wall_s"])),
    "no tier-1 time": lambda r: r["tier1"].pop("wall_s"),
    "a failed tier-1 test": lambda r: r["tier1"].update(summary="1 failed, " + r["tier1"]["summary"]),
    "no tier-1 summary": lambda r: r["tier1"].pop("summary"),
}


@pytest.mark.parametrize("change", BREAKS.values(), ids=BREAKS.keys())
def test_a_broken_record_is_refused(change):
    record = json.loads(RECORDS[-1].read_text())
    with pytest.raises(ValueError, match="BENCH record"):
        record_bench.validate(broken(record, change))


def timed(record):
    """``record``, numbered at least ``TIER1_SINCE``, with a tier-1 field."""
    tier1 = record.get("tier1", {"wall_s": 35.3, "summary": "642 passed, 1 xfailed, 2 xpassed in 35.30s"})
    return dict(record, pr=max(record["pr"], record_bench.TIER1_SINCE), tier1=tier1)


@pytest.mark.parametrize("change", TIER1_BREAKS.values(), ids=TIER1_BREAKS.keys())
def test_a_broken_tier1_field_is_refused(change):
    record = timed(json.loads(RECORDS[-1].read_text()))
    record_bench.validate(record)
    with pytest.raises(ValueError, match="BENCH record"):
        record_bench.validate(broken(record, change))


def with_series(record):
    """``record``, numbered at least ``INPROCESS_SINCE`` and timing tier-1, with an in-process
    series against a revision (a made-up one where the record has none)."""
    record = timed(dict(record, pr=max(record["pr"], record_bench.INPROCESS_SINCE)))
    if "inprocess" not in record or record["inprocess"]["algos"]["known"].get("ratio") is None:
        runs = [0.005 + i * 1e-4 for i in range(record_bench.INPROCESS_PAIRS)]
        this, against = record_bench.summary(runs), record_bench.summary([2 * t for t in runs])
        record["inprocess"] = {
            "instances": [label for label, _ in record_bench.INPROCESS_INSTANCES],
            "seeds": record_bench.INPROCESS_SEEDS, "repeat": record_bench.INPROCESS_REPEAT,
            "pairs": record_bench.INPROCESS_PAIRS,
            "algos": {algo: {"this": this, "against": against, "ratio": this["median"] / against["median"],
                             "pairs_won": record_bench.INPROCESS_PAIRS} for algo in record_bench.INPROCESS_ALGOS},
        }
        record["against"] = record.get("against") or "0" * 40
    return record


def series_entry(record):
    return record["inprocess"]["algos"]["parallel"]


INPROCESS_BREAKS = {
    "no in-process series": lambda r: r.pop("inprocess"),
    "an algorithm missing": lambda r: r["inprocess"]["algos"].pop("baseline"),
    "fewer pairs": lambda r: r["inprocess"].update(pairs=r["inprocess"]["pairs"] - 1),
    "fewer repeats": lambda r: r["inprocess"].update(repeat=1),
    "another instance set": lambda r: r["inprocess"]["instances"].pop(),
    "a time missing": lambda r: series_entry(r)["this"]["runs"].pop(),
    "a time not positive": lambda r: series_entry(r)["against"]["runs"].__setitem__(0, 0.0),
    "a ratio not of the medians": lambda r: series_entry(r).update(ratio=series_entry(r)["ratio"] * 1.01),
    "no ratio": lambda r: series_entry(r).pop("ratio"),
    "more pairs won than run": lambda r: series_entry(r).update(pairs_won=record_bench.INPROCESS_PAIRS + 1),
    "no other side": lambda r: series_entry(r).pop("against"),
}


@pytest.mark.parametrize("change", INPROCESS_BREAKS.values(), ids=INPROCESS_BREAKS.keys())
def test_a_broken_in_process_series_is_refused(change):
    record = with_series(json.loads(RECORDS[-1].read_text()))
    record_bench.validate(record)
    with pytest.raises(ValueError, match="BENCH record"):
        record_bench.validate(broken(record, change))


def with_bench(record):
    """``record``, numbered at least ``BENCH_SINCE`` and holding the in-process series, with a
    timed bench call against a revision (made up where the record has none)."""
    record = with_series(dict(record, pr=max(record["pr"], record_bench.BENCH_SINCE)))
    if "bench" not in record or record["bench"].get("ratio") is None:
        runs = [0.6 + i * 1e-3 for i in range(record_bench.INPROCESS_PAIRS)]
        this, against = record_bench.summary(runs), record_bench.summary([2 * t for t in runs])
        record["bench"] = {
            "args": list(record_bench.BENCH_ARGS),
            "instances": [label for label, _ in record_bench.INPROCESS_INSTANCES],
            "pairs": record_bench.INPROCESS_PAIRS, "this": this, "against": against,
            "ratio": this["median"] / against["median"], "pairs_won": record_bench.INPROCESS_PAIRS,
        }
    return record


BENCH_BREAKS = {
    "no bench call": lambda r: r.pop("bench"),
    "another call": lambda r: r["bench"].update(args=r["bench"]["args"][:-2]),
    "another instance set": lambda r: r["bench"]["instances"].pop(),
    "fewer pairs": lambda r: r["bench"].update(pairs=r["bench"]["pairs"] - 1),
    "a time missing": lambda r: r["bench"]["this"]["runs"].pop(),
    "a time not a float": lambda r: r["bench"]["against"]["runs"].__setitem__(0, 1),
    "quartiles out of order": lambda r: r["bench"]["this"].update(q3=0.0),
    "a ratio not of the medians": lambda r: r["bench"].update(ratio=r["bench"]["ratio"] * 1.01),
    "no pairs won": lambda r: r["bench"].pop("pairs_won"),
}


@pytest.mark.parametrize("change", BENCH_BREAKS.values(), ids=BENCH_BREAKS.keys())
def test_a_broken_bench_call_is_refused(change):
    record = with_bench(json.loads(RECORDS[-1].read_text()))
    record_bench.validate(record)
    with pytest.raises(ValueError, match="BENCH record"):
        record_bench.validate(broken(record, change))
