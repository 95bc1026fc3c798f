"""Command-line interface.

Subcommands:
  stats   print an instance's gap profile and conjectured complexity bound
  run     one seeded solver run on an instance file (exit 2 on budget stop)
  bench   seeded Monte-Carlo batches over a directory of instances -> CSV
  signxi  measure the sign-solver loss profile over gaps 2^-1 .. 2^-m -> CSV
  gen     generate instance files

Exit codes: 0 success, 1 configuration error (a bad argument included), 2
when `run` stops at the cap `--budget N` sets (by default there is none).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .bench import (
    ALGORITHMS, GEN_KEYS, generate_instances, run_one_trial, run_trials, write_reports,
)
from .instances import conjectured_bound, format_instance, parse_instance, profile, profile_csv_row
from .signxi import loss_profile_rows, measure_loss_profile
from .solvers import BUDGET_EXCEEDED


def _seed(value: str, name: str = "seed") -> int:
    """Parse an integer flag that must be >= 0; every refusal names it."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {name} value: {value!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"{name} must be >= 0, got {n}")
    return n


def _budget(value: str):
    """Parse --budget: a cap N >= 0, or none/inf for no cap."""
    return None if value.lower() in ("none", "inf") else _seed(value, "budget")


def _load_instance(path: str):
    text = Path(path).read_text()
    return parse_instance(text, label=Path(path).stem)


def _check_out(path: str) -> None:
    """Refuse an ``--out`` path that could not be written, before the first trial runs:
    its directory must exist and be writable, and the path must not be a directory."""
    out = Path(path)
    if not out.parent.is_dir() or not os.access(out.parent, os.W_OK):
        raise ValueError(f"--out {path}: {out.parent} is not a writable directory")
    if out.is_dir():
        raise ValueError(f"--out {path} is a directory")


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            values = [float(v) for v in raw.split(",")]
        except ValueError:
            values = [raw]  # not numbers: generate_instances names the key
        params[key] = values if len(values) > 1 else values[0]
    return params


def cmd_stats(args) -> int:
    instance = _load_instance(args.instance)
    prof = profile(instance)
    bound = conjectured_bound(prof, args.delta)  # refuses a bad --delta before any output
    print(f"instance      {instance.label}  (n={instance.n_arms})")
    print(f"H             {prof.H!r}")
    print(f"gap entropy   {prof.ent!r}")
    print(f"r_max         {prof.r_max}")
    for k in sorted(prof.Hk):
        print(f"  group {k}:  H_k={prof.Hk[k]!r}  p_k={prof.pk[k]!r}")
    print(f"conjectured bound at delta={args.delta:g}: {bound!r}")
    print("csv: " + ",".join(profile_csv_row(instance)))
    return 0


def cmd_run(args) -> int:
    instance = _load_instance(args.instance)
    trace = None
    if args.trace:
        if args.algo in ("known", "guess"):
            def trace(event):
                print("\t".join(f"{k}={v}" for k, v in asdict(event).items()))
        else:
            print(f"note: --trace has no effect for algo {args.algo!r}", file=sys.stderr)
    outcome = run_one_trial(args.algo, instance, args.delta, args.seed, args.budget, trace=trace)
    print(f"status            {outcome.status}")
    print(f"arm               {outcome.arm}")
    print(f"total_samples     {outcome.total_samples}")
    print(f"per_arm_samples   {list(outcome.per_arm_samples)}")
    print(f"rounds_executed   {outcome.rounds_executed}")
    if outcome.accepted_guess_t is not None:
        print(f"accepted_guess_t  {outcome.accepted_guess_t}")
    return 2 if outcome.status == BUDGET_EXCEEDED else 0


def cmd_bench(args) -> int:
    paths = sorted(Path(args.instances).glob("*.txt"))
    if not paths:
        raise ValueError(f"no *.txt instance files under {args.instances}")
    instances = []
    for path in paths:  # every file parses before the first trial
        try:
            instances.append(parse_instance(path.read_text(), label=path.stem))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    _check_out(args.out)
    reports = []
    for instance in instances:
        report = run_trials(
            args.algo,
            instance,
            args.delta,
            args.trials,
            args.seed,
            budget=args.budget,
            workers=args.workers,
        )
        reports.append(report)
        print(
            f"{report.algo} {report.instance}: error={report.empirical_error:g} "
            f"budget_exceeded={report.budget_exceeded} mean_samples={report.mean_samples:g}"
        )
    write_reports(args.out, reports, append=args.append)
    print(f"wrote {len(reports)} rows to {args.out}")
    return 0


def cmd_signxi(args) -> int:
    if not 1 <= args.m <= 4:  # before the list of m probabilities is built
        raise ValueError(f"need 1 <= m <= 4 gap groups, got {args.m}")
    _check_out(args.out)
    pk = [1.0 / args.m] * args.m
    prof = measure_loss_profile(
        pk, args.delta, args.trials, base_seed=args.seed, budget=args.budget
    )
    with open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerows(loss_profile_rows(prof))
    print(f"expected_loss={prof.expected_loss!r} ent_P={prof.ent_p!r} partial={prof.partial}")
    print(f"wrote loss profile to {args.out}")
    return 0


def cmd_gen(args) -> int:
    instances = generate_instances(args.kind, _parse_params(args.params), seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for instance in instances:
        (out / f"{instance.label}.txt").write_text(format_instance(instance))
    print(f"wrote {len(instances)} instance file(s) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bestarm", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="gap profile and conjectured bound of an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--delta", type=float, default=0.01)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("run", help="one seeded solver run")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", choices=ALGORITHMS, default="guess")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--budget", type=_budget, help="sample cap (default: none)")
    p.add_argument("--trace", action="store_true", help="print per-round events")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="Monte-Carlo batches over a directory of instances")
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    p.add_argument("--instances", required=True, help="directory of *.txt instance files")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--budget", type=_budget, help="sample cap (default: none)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--append", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("signxi", help="sign-solver loss profile over gaps 2^-1..2^-m")
    p.add_argument("--m", type=int, default=2, help="number of gap groups (max 4)")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--budget", type=_budget, help="sample cap (default: none)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_signxi)

    p = sub.add_parser("gen", help="generate instance files")
    p.add_argument("--kind", required=True, choices=list(GEN_KEYS))
    p.add_argument("--params", nargs="*", help="key=value pairs, e.g. gap=0.5")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is kept for budget stops.
        return 1 if exc.code else 0
    code = 0
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Reader gone (`bestarm run ... | head -1`): no error; mute the flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ValueError, OSError, OverflowError) as exc:
        # OverflowError: a derived float left the float range past the typed checks.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
