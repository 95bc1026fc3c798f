import concurrent.futures
import contextlib
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bestarm
from bestarm.cli import main
from doubles import SmallPool

TWO_ARM_FILE = "# two arms\n1.0\n0.5\n"


def write_instance(tmp_path, name="pair.txt", text=TWO_ARM_FILE):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_stats_prints_profile(tmp_path, capsys):
    path = write_instance(tmp_path)
    assert main(["stats", "--instance", str(path), "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "H             4.0" in out
    assert "conjectured bound" in out
    assert "csv: pair,2,4.0" in out


def test_stats_config_error_exit_code(tmp_path, capsys):
    for text in ("1.0\n1.0\n", "nan\n0.5\n", "1.0\ninf\n", "-inf\n0.5\n", "1.1\n0.5\n"):
        path = write_instance(tmp_path, text=text)
        assert main(["stats", "--instance", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ["5e-324\n0\n", "1e-154\n0\n0\n0\n", f"{2.0**-511!r}\n0\n"]
)
def test_stats_refuses_a_gap_too_small_for_a_float(tmp_path, capsys, text):
    path = write_instance(tmp_path, text=text)
    assert main(["stats", "--instance", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: smallest gap {text.split()[0]} too small:")
    assert err.rstrip().endswith("overflows a float")


def test_stats_checks_delta_before_printing(tmp_path, capsys):
    path = write_instance(tmp_path)
    assert main(["stats", "--instance", str(path), "--delta", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: delta must lie in (0, 1), got 0.0" in err


def test_run_success(tmp_path, capsys):
    path = write_instance(tmp_path)
    code = main([
        "run", "--instance", str(path), "--algo", "guess",
        "--delta", "0.05", "--seed", "3", "--budget", "none",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "status            ok" in out
    assert "accepted_guess_t" in out


STAIR_4_FILE = "# stair-4\n1.0\n0.85\n0.7\n0.55\n"


@pytest.mark.parametrize("algo", bestarm.ALGORITHMS)
def test_run_defaults_let_every_solver_finish(tmp_path, capsys, algo):
    path = write_instance(tmp_path, text=STAIR_4_FILE)
    assert main(["run", "--instance", str(path), "--algo", algo]) == 0
    out = capsys.readouterr().out
    assert "status            ok\narm               0\n" in out


def test_bench_defaults_cap_no_trial(tmp_path, capsys):
    write_instance(tmp_path, "stair-4.txt", STAIR_4_FILE)
    out_csv = tmp_path / "report.csv"
    assert main([
        "bench", "--algo", "parallel", "--instances", str(tmp_path), "--trials", "3",
        "--out", str(out_csv),
    ]) == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert [(row["instance"], row["budget_exceeded"]) for row in rows] == [("stair-4", "0")]


def test_run_budget_exit_code(tmp_path, capsys):
    path = write_instance(tmp_path)
    code = main([
        "run", "--instance", str(path), "--algo", "guess",
        "--delta", "0.05", "--seed", "3", "--budget", "1000",
    ])
    assert code == 2
    assert "budget_exceeded" in capsys.readouterr().out
    # --budget 0 caps at zero draws, as budget=0 does
    assert main(["run", "--instance", str(path), "--algo", "known", "--budget", "0"]) == 2
    assert "total_samples     0\n" in capsys.readouterr().out


def test_argument_errors_exit_1(tmp_path, capsys):
    # argparse's own exit code, 2, would read as a budget stop
    path = write_instance(tmp_path)
    assert main(["run", "--instance", str(path), "--delta", "abc"]) == 1
    assert "invalid float value: 'abc'" in capsys.readouterr().err
    assert main(["run", "--algo", "guess"]) == 1
    assert "--instance" in capsys.readouterr().err
    # only 'none' lifts the cap; a negative one would lift it silently
    assert main(["run", "--instance", str(path), "--budget", "-5"]) == 1
    assert "budget must be >= 0, got -5" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["run", "--instance", "pair.txt"],
    ["bench", "--algo", "guess", "--instances", ".", "--out", "r.csv"],
    ["signxi", "--out", "p.csv"],
    ["gen", "--kind", "two-arm", "--out", "."],
])
def test_negative_seed_is_refused_by_name(capsys, command):
    assert main(command + ["--seed", "-1"]) == 1
    assert "argument --seed: seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed", "--budget"])
@pytest.mark.parametrize("value", ["", "1.5", "x"])
def test_a_non_integer_is_refused_by_the_flag_name(capsys, flag, value):
    assert main(["run", "--instance", "x", flag, value]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid {flag[2:]} value: {value!r}" in err
    assert "_seed" not in err and "_budget" not in err


def test_help_exits_0(capsys):
    assert main(["run", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_run_trace_emits_round_events(tmp_path, capsys):
    path = write_instance(tmp_path)
    code = main([
        "run", "--instance", str(path), "--algo", "guess",
        "--delta", "0.05", "--seed", "3", "--budget", "none", "--trace",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "round_index=1" in out
    assert "solver=entropy_elimination" in out


def test_run_trace_known_emits_round_events(tmp_path, capsys):
    path = write_instance(tmp_path)
    code = main([
        "run", "--instance", str(path), "--algo", "known",
        "--delta", "0.05", "--seed", "3", "--budget", "none", "--trace",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "round_index=1" in out
    assert "solver=known_complexity" in out


def test_run_trace_has_no_effect_for_baseline(tmp_path, capsys):
    path = write_instance(tmp_path)
    code = main([
        "run", "--instance", str(path), "--algo", "baseline",
        "--delta", "0.05", "--seed", "3", "--trace",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "no effect" in captured.err
    assert "round_index" not in captured.out
    assert "status            ok" in captured.out


@pytest.mark.parametrize("trace", [False, True], ids=["run", "run-trace"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["at-exit", "mid-command"])
def test_run_into_a_closed_pipe_exits_quietly(tmp_path, trace, unbuffered):
    # `bestarm run ... | head -1`: the reader is gone before the first write.
    # Buffered, the pipe breaks at main's final flush; unbuffered, at the
    # command's first print.
    path = write_instance(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(bestarm.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["run", "--instance", str(path), "--algo", "guess", "--delta", "0.05",
            "--seed", "3", "--budget", "none"] + (["--trace"] if trace else [])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-c", "import sys; from bestarm.cli import main; sys.exit(main())", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert child.stderr == b""
    assert child.returncode == 0


def test_run_past_int64_prints_the_exact_ledger(tmp_path, capsys):
    # gap 2^-16: the fraction tests' draw counts pass the int64 range
    path = write_instance(tmp_path, text="1.0\n0.9999847412109375\n")
    assert main(["run", "--instance", str(path), "--algo", "guess"]) == 0
    out = capsys.readouterr().out
    assert "status            ok" in out
    assert "total_samples     121003143037009234815\n" in out


@pytest.mark.parametrize(
    "algo, delta", [("guess", "1e-160"), ("guess", "1e-200"), ("parallel", "1e-200"),
                    ("parallel", "1e-300"), ("known", "5e-324")],
)
def test_run_refuses_a_delta_too_small_for_a_float(tmp_path, capsys, algo, delta):
    path = write_instance(tmp_path)
    assert main(["run", "--instance", str(path), "--algo", algo, "--delta", delta]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: delta {delta} too small: a derived value left the float range\n"


def test_gen_and_bench_roundtrip(tmp_path, capsys):
    gen_dir = tmp_path / "instances"
    assert main([
        "gen", "--kind", "two-arm", "--params", "gaps=0.5,0.25",
        "--out", str(gen_dir),
    ]) == 0
    files = sorted(p.name for p in gen_dir.glob("*.txt"))
    assert files == ["two-arm-g0.25.txt", "two-arm-g0.5.txt"]

    out_csv = tmp_path / "report.csv"
    assert main([
        "bench", "--algo", "guess", "--instances", str(gen_dir),
        "--delta", "0.05", "--trials", "3", "--seed", "1", "--out", str(out_csv),
    ]) == 0
    rows = list(csv.reader(out_csv.open()))
    assert len(rows) == 3  # header + one row per instance
    assert rows[0][0] == "algo"


def test_bench_rejects_empty_directory(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    empty = tmp_path / "none"
    empty.mkdir()
    assert main([
        "bench", "--algo", "guess", "--instances", str(empty),
        "--out", str(out_csv),
    ]) == 1


@pytest.mark.parametrize("workers", ["-3", "0", "100000"])
def test_bench_refuses_workers_outside_one_to_cpu_count(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SmallPool)
    monkeypatch.setattr(SmallPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    write_instance(tmp_path)
    out_csv = tmp_path / "report.csv"
    assert main([
        "bench", "--algo", "guess", "--instances", str(tmp_path), "--trials", "2",
        "--workers", workers, "--out", str(out_csv),
    ]) == 1
    err = capsys.readouterr().err
    assert f"error: workers must be in 1..2, got {workers}" in err
    assert "Traceback" not in err and not out_csv.exists()
    assert SmallPool.sizes == []


def test_signxi_writes_profile(tmp_path, capsys):
    # no --budget: the default lets every trial finish
    out_csv = tmp_path / "loss.csv"
    assert main(["signxi", "--m", "2", "--trials", "30", "--out", str(out_csv)]) == 0
    assert "partial=False" in capsys.readouterr().out
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["k", "p_k", "alpha_k", "mean_samples"]
    assert rows[-1][0] == "ln_inv_delta"


def test_signxi_without_gap_groups_is_a_config_error(tmp_path, capsys):
    for m in ("0", "-1", "5", str(2**62)):  # 2^62: refused before a list of m floats is built
        assert main(["signxi", "--m", m, "--out", str(tmp_path / "loss.csv")]) == 1
        assert f"error: need 1 <= m <= 4 gap groups, got {m}" in capsys.readouterr().err


def test_gen_without_arms_per_group_is_a_config_error(tmp_path, capsys):
    for cap in ("0", "-1"):
        assert main([
            "gen", "--kind", "discrete-random", "--params", f"cap={cap}",
            "--out", str(tmp_path / "gen"),
        ]) == 1
        assert f"error: cap must be >= 1 arm per gap group, got {cap}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, param, message",
    [
        ("discrete-random", "k_max=2,3", "parameter k_max must be an integer, got [2.0, 3.0]"),
        ("equal-h-varying-ent", "h=2,3", "parameter h must be an integer, got [2.0, 3.0]"),
        ("equal-h-varying-ent", "k_max=2000", "k_max must be in 1..3 at desk scale, got 2000"),
        ("discrete-random", "top_mean=0.5,0.6",
         "parameter top_mean must be a single number, got [0.5, 0.6]"),
        ("discrete-random", "count=1.5", "parameter count must be an integer, got 1.5"),
        ("discrete-random", "count=-1", "count must be >= 1 instance, got -1"),
        ("two-arm", "gpa=0.3", "unknown two-arm parameter(s) gpa; expected gap, gaps"),
        ("two-arm", "gap=abc", "parameter gap must be a single number, got 'abc'"),
    ],
)
def test_gen_bad_parameter_is_a_config_error(tmp_path, capsys, kind, param, message):
    gen_dir = tmp_path / "gen"
    assert main(["gen", "--kind", kind, "--params", param, "--out", str(gen_dir)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not gen_dir.exists()


def test_gen_gap_list_is_a_gaps_list(tmp_path):
    # gaps=0.5,0.25 is covered by test_gen_and_bench_roundtrip
    gen_dir = tmp_path / "gen"
    assert main([
        "gen", "--kind", "two-arm", "--params", "gap=0.5,0.25", "--out", str(gen_dir),
    ]) == 0
    files = sorted(p.name for p in gen_dir.glob("*.txt"))
    assert files == ["two-arm-g0.25.txt", "two-arm-g0.5.txt"]


def test_gen_equal_h_pair(tmp_path):
    gen_dir = tmp_path / "eqh"
    assert main([
        "gen", "--kind", "equal-h-varying-ent", "--params", "h=32",
        "--out", str(gen_dir),
    ]) == 0
    files = sorted(p.name for p in gen_dir.glob("*.txt"))
    assert files == ["eqh32-ent0.txt", "eqh32-entmax.txt"]


# --- argv fuzz -----------------------------------------------------------------

# Values no flag accepts as valid, plus two ints past every range.
JUNK = ("0", "-1", "nan", "inf", "-inf", "1e-320", "", "abc")
HUGE = (str(2**64), "1" + "0" * 400)


def flag_values(*valid, huge=True):
    """A flag's value: a valid one four times in five, else junk."""
    junk = JUNK + (HUGE if huge else ())
    return st.integers(0, 4).flatmap(lambda i: st.sampled_from(valid if i else junk))


DELTAS = flag_values("0.01", "0.1", "0.5", "1e-300")
SEEDS = flag_values("0", "7")
BUDGETS = flag_values("none", "100", "5000", huge=False)
INSTANCE = st.sampled_from(["pair.txt", "bad.txt", "missing.txt", "insts", ""])
OUT_FILE = st.sampled_from(["out.csv", "insts", "missing/out.csv", ""])
# Counts stay small (no HUGE): each one multiplies the work of a case.
GEN_VALUES = {
    "gap": flag_values("0.5", "0.25,0.125", "1"), "gaps": flag_values("0.5,0.25"),
    "count": flag_values("1", "2", huge=False), "k_max": flag_values("1", "3"),
    "cap": flag_values("1", "3", huge=False), "h": flag_values("32", "20", huge=False),
    "top_mean": flag_values("1.0", "0.5"), "bogus": flag_values("1"),
}
GEN_PARAMS = st.lists(
    st.sampled_from(sorted(GEN_VALUES)).flatmap(
        lambda key: GEN_VALUES[key].map(lambda value: f"{key}={value}")) | st.just("novalue"),
    max_size=3,
)
# Each subcommand's flags: a strategy for the value, None for a switch, a list
# strategy for nargs="*".
FLAGS = {
    "stats": {"--instance": INSTANCE, "--delta": DELTAS},
    "run": {"--instance": INSTANCE, "--algo": flag_values("known", "guess", "parallel", "baseline"),
            "--delta": DELTAS, "--seed": SEEDS, "--budget": BUDGETS, "--trace": None},
    "bench": {"--algo": flag_values("known", "guess", "parallel", "baseline"),
              "--instances": st.sampled_from(["insts", "empty", "missing", ""]), "--delta": DELTAS,
              "--trials": flag_values("1", "3", huge=False), "--seed": SEEDS,
              "--budget": BUDGETS, "--workers": flag_values("1", "2"), "--out": OUT_FILE,
              "--append": None},
    "signxi": {"--m": flag_values("1", "2", "4"), "--delta": DELTAS,
               "--trials": flag_values("30", huge=False), "--seed": SEEDS, "--budget": BUDGETS,
               "--out": OUT_FILE},
    "gen": {"--kind": flag_values("two-arm", "discrete-random", "equal-h-varying-ent"),
            "--params": GEN_PARAMS, "--seed": SEEDS,
            "--out": st.sampled_from(["gen", "pair.txt", "missing/gen"])},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag, values in FLAGS[command].items():
        if draw(st.integers(0, 5)):  # mostly given; a missing required flag is a usage error
            value = [] if values is None else draw(values)
            argv += [flag, *value] if isinstance(value, list) else [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "pair.txt").write_text(TWO_ARM_FILE)
    (root / "bad.txt").write_text("abc\n")
    (root / "insts").mkdir()
    (root / "insts" / "pair.txt").write_text(TWO_ARM_FILE)
    (root / "empty").mkdir()
    return root


@settings(max_examples=150)
@given(argv=argvs())
# The list of m gap probabilities was built before m was checked.
@example(argv=["signxi", "--m", str(2**62), "--out", "out.csv"])
def test_any_argv_exits_0_1_or_2_without_a_traceback(fuzz_dir, argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(fuzz_dir)
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", SmallPool)  # no case forks
        mp.setattr(SmallPool, "sizes", [])
        mp.setattr(os, "cpu_count", lambda: 2)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
