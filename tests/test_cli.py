import csv

from bestarm.cli import main

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


def test_run_budget_exit_code(tmp_path, capsys):
    path = write_instance(tmp_path)
    code = main([
        "run", "--instance", str(path), "--algo", "guess",
        "--delta", "0.05", "--seed", "3", "--budget", "1000",
    ])
    assert code == 2
    assert "budget_exceeded" in capsys.readouterr().out


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


def test_run_overflowing_ledger_is_a_config_error(tmp_path, capsys):
    # gap 2^-16: the fraction tests' draw counts outgrow the int64 ledger
    path = write_instance(tmp_path, text="1.0\n0.9999847412109375\n")
    code = main([
        "run", "--instance", str(path), "--algo", "guess", "--budget", "none",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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
        "--delta", "0.05", "--trials", "3", "--seed", "1",
        "--budget", "0", "--out", str(out_csv),
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


def test_signxi_writes_profile(tmp_path, capsys):
    out_csv = tmp_path / "loss.csv"
    assert main([
        "signxi", "--m", "2", "--delta", "0.05", "--trials", "30",
        "--seed", "0", "--budget", "none", "--out", str(out_csv),
    ]) == 0
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["k", "p_k", "alpha_k", "mean_samples"]
    assert rows[-1][0] == "ln_inv_delta"


def test_gen_equal_h_pair(tmp_path):
    gen_dir = tmp_path / "eqh"
    assert main([
        "gen", "--kind", "equal-h-varying-ent", "--params", "h=32",
        "--out", str(gen_dir),
    ]) == 0
    files = sorted(p.name for p in gen_dir.glob("*.txt"))
    assert files == ["eqh32-ent0.txt", "eqh32-entmax.txt"]
