import hashlib
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bestarm import (
    BUDGET_EXCEEDED,
    OK,
    REJECTED,
    Instance,
    SamplingOracle,
    baseline_successive_elimination_plan,
    complexity_guessing_plan,
    entropy_elimination_plan,
    known_complexity_plan,
    make_discrete_instance,
    parallel_simulation,
    profile,
    solve,
)
from bestarm.cli import main
from bestarm.primitives import frac_test_probe_counts
from bestarm.solvers import (
    C_ROUNDS,
    _shuffled_arms,
    ee_round_delta,
    elim_thresholds,
    frac_thresholds,
    kc_round_delta,
    round_eps,
    se_radius,
    theta_step,
)
from doubles import DeterministicOracle, copy_seed
from test_acceptance import DESK_INSTANCES

TWO_ARM = Instance.from_means((1.0, 0.5), label="two-arm")


def gauss(instance, seed):
    return SamplingOracle.for_instance(instance, seed=seed)


class TestRoundSchedules:
    def test_known_complexity_round_three(self):
        assert round_eps(3) == 0.125
        assert kc_round_delta(0.01, 3) == pytest.approx(0.01 / 90, rel=1e-12)

    def test_frac_thresholds_at_round_two(self):
        c_lo, c_hi = frac_thresholds(0.9, round_eps(2))
        assert c_lo == pytest.approx(0.4625, abs=1e-12)
        assert c_hi == pytest.approx(0.61875, abs=1e-12)

    def test_elim_thresholds(self):
        d_lo, d_hi = elim_thresholds(1.0, 0.5)
        assert d_lo == 0.625
        assert d_hi == 0.6875

    def test_theta_ladder_first_step(self):
        assert C_ROUNDS == pytest.approx(math.log(100, 4), rel=1e-15)
        theta_1 = 0.3 + theta_step(1, 1)
        assert theta_1 == pytest.approx(0.3186, abs=1e-4)

    def test_guess_round_delta(self):
        assert ee_round_delta(0.01, 2, 3) == pytest.approx(0.01 / (50 * 4 * 9), rel=1e-12)


class TestKnownComplexity:
    def test_validates_arguments(self):
        oracle = gauss(TWO_ARM, 0)
        with pytest.raises(ValueError):
            solve(known_complexity_plan, oracle, TWO_ARM, 0.01, 0.0)
        with pytest.raises(ValueError):
            solve(known_complexity_plan, oracle, TWO_ARM, 1.0, 4.0)

    def test_refuses_complexity_in_the_delta_slot(self):
        # H >= 1 is never a confidence, so the old (H, delta) order fails loudly
        with pytest.raises(ValueError, match="delta must lie in"):
            solve(known_complexity_plan, gauss(TWO_ARM, 0), TWO_ARM, 4.0, 0.01)

    def test_two_arm_instance_statistics(self):
        hits = 0
        for seed in range(60):
            out = solve(known_complexity_plan, gauss(TWO_ARM, seed), TWO_ARM, 0.01, 4.0,
                        budget=None)
            assert out.status == OK
            assert out.total_samples == sum(out.per_arm_samples)
            hits += out.arm == 0
        assert hits >= 58

    def test_budget_stops_before_crossing(self):
        out = solve(known_complexity_plan, gauss(TWO_ARM, 1), TWO_ARM, 0.01, 4.0,
                    budget=10_000)
        assert out.status == BUDGET_EXCEEDED
        assert out.arm is None
        assert out.total_samples <= 10_000

    def test_replay_determinism(self):
        runs = [
            solve(known_complexity_plan, gauss(TWO_ARM, 9), TWO_ARM, 0.01, 4.0, budget=None)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestEntropyElimination:
    def test_seven_arms_rejected_at_round_one_without_sampling(self):
        inst = Instance.from_means((1.0, 0.5, 0.5, 0.5, 0.75, 0.75, 0.875), label="n7")
        for seed in range(25):
            out = solve(entropy_elimination_plan, gauss(inst, seed), inst, 0.005, 1)
            assert out.status == REJECTED
            assert out.rounds_executed == 1
            assert out.total_samples == 0

    def test_round_one_reject_predicate_is_monotone_in_n(self):
        # 4 * n * eps_1^-2 = 16n crosses 100 exactly at n = 7
        for n in range(7, 13):
            inst = Instance.from_means([1.0] + [0.5] * (n - 1))
            out = solve(entropy_elimination_plan, gauss(inst, 3), inst, 0.005, 1)
            assert (out.status, out.rounds_executed, out.total_samples) == (REJECTED, 1, 0)
        inst6 = Instance.from_means([1.0] + [0.5] * 5)
        out6 = solve(entropy_elimination_plan, gauss(inst6, 3), inst6, 0.005, 1, budget=None)
        assert out6.total_samples > 0

    def test_round_cap_and_theta_ladder(self):
        inst = Instance.from_means((1.0, 0.75, 0.5, 0.625), label="mixed")
        for t in (1, 2, 3):
            for seed in range(10):
                events = []
                out = solve(entropy_elimination_plan, gauss(inst, seed), inst, 0.008, t,
                            budget=None, trace=events.append)
                assert out.rounds_executed <= math.ceil(C_ROUNDS * t)
                # only the guessing solver reports an accepted guess index
                assert out.accepted_guess_t is None
                for ev in events:
                    if ev.rejected:
                        continue
                    assert 0.3 <= ev.theta_lo < ev.theta_hi <= 0.5
                    if ev.frac_true:
                        assert ev.delta_prime <= 0.008**2 + 1e-15

    def test_monotone_round_ledgers(self):
        inst = Instance.from_means((1.0, 0.5, 0.5, 0.75, 0.75), label="ledger")
        events = []
        solve(entropy_elimination_plan, gauss(inst, 4), inst, 0.008, 2, budget=None,
              trace=events.append)
        h_seen, t_seen = 0.0, 0.0
        for ev in events:
            assert ev.h_estimate >= h_seen
            assert ev.t_estimate >= t_seen
            h_seen, t_seen = ev.h_estimate, ev.t_estimate

    def test_validates_guess_index(self):
        oracle = gauss(TWO_ARM, 0)
        with pytest.raises(ValueError):
            solve(entropy_elimination_plan, oracle, TWO_ARM, 0.005, 0)


class TestComplexityGuessing:
    def test_seven_arm_instance_skips_guess_one(self):
        inst = Instance.from_means((1.0, 0.5, 0.5, 0.5, 0.75, 0.75, 0.875), label="n7")
        events = []
        out = solve(complexity_guessing_plan, gauss(inst, 2), inst, 0.005, budget=None,
                    trace=events.append)
        assert out.status == OK
        assert out.accepted_guess_t >= 2
        first = events[0]
        assert (first.guess_t, first.round_index, first.rejected) == (1, 1, True)

    def test_two_arm_statistics(self):
        hits = 0
        for seed in range(60):
            out = solve(complexity_guessing_plan, gauss(TWO_ARM, seed), TWO_ARM, 0.01,
                        budget=None)
            assert out.status == OK
            hits += out.arm == 0
        assert hits >= 58

    def test_total_samples_reconcile_with_round_events(self):
        # both solvers built on the shared elimination round
        for run in (
            lambda tr: solve(complexity_guessing_plan, gauss(TWO_ARM, 5), TWO_ARM, 0.01,
                             budget=None, trace=tr),
            lambda tr: solve(known_complexity_plan, gauss(TWO_ARM, 5), TWO_ARM, 0.01, 4.0,
                             budget=None, trace=tr),
        ):
            events = []
            out = run(events.append)
            assert events
            assert out.total_samples == sum(
                ev.draws_med + ev.draws_anchor + ev.draws_frac + ev.draws_elim for ev in events)
            assert out.total_samples == sum(out.per_arm_samples)

    def test_replay_determinism(self):
        runs = [
            solve(complexity_guessing_plan, gauss(TWO_ARM, 11), TWO_ARM, 0.01, budget=None)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_budget_propagates(self):
        out = solve(complexity_guessing_plan, gauss(TWO_ARM, 0), TWO_ARM, 0.01, budget=5000)
        assert out.status == BUDGET_EXCEEDED
        assert out.total_samples <= 5000


class TestBaseline:
    def test_deterministic_elimination_round(self):
        # exact means: the weak arm leaves at the first round where the
        # confidence radius drops below half the gap
        inst = Instance.from_means((1.0, 0.5), label="det")
        delta = 0.1
        expected_round = next(
            r for r in range(1, 100_000) if se_radius(r, 2, delta) < 0.25
        )
        oracle = DeterministicOracle.for_instance(inst, seed=0)
        out = solve(baseline_successive_elimination_plan, oracle, inst, delta)
        assert out.status == OK and out.arm == 0
        assert out.per_arm_samples == (expected_round, expected_round)
        assert out.rounds_executed == expected_round

    def test_identifies_best_arm_with_high_probability(self):
        inst = Instance.from_means((1.0, 0.0), label="easy")
        hits = 0
        for seed in range(200):
            out = solve(baseline_successive_elimination_plan, gauss(inst, seed), inst, 0.1)
            hits += out.status == OK and out.arm == 0
        assert hits >= 180

    def test_budget(self):
        inst = Instance.from_means((1.0, 0.875), label="slow")
        out = solve(baseline_successive_elimination_plan, gauss(inst, 0), inst, 0.01, budget=50)
        assert out.status == BUDGET_EXCEEDED
        assert out.total_samples <= 50

    def test_refuses_a_radius_that_leaves_the_float_range(self):
        # 4 n r^2 / delta overflows near round 4,800, before the radius drops
        # below half the gap (round 5,700): no arm could ever leave.
        inst = Instance.from_means((1.0, 0.0))
        with pytest.raises(ValueError, match="delta 1e-300 too small: the confidence radius"):
            solve(baseline_successive_elimination_plan, gauss(inst, 0), inst, 1e-300, budget=10**5)


def gap_pair(k):
    return Instance.from_means((2.0**-k, 0.0))


def assert_runs_exactly_or_is_refused(run, delta):
    try:
        out = run()
    except ValueError as exc:
        message = str(exc)
        assert message.startswith((f"delta {delta!r} too small:", "gap too small:"))
        assert message.endswith("left the float range")
        return
    assert out.status == OK
    assert sum(out.per_arm_samples) == out.total_samples


LOG_DELTAS = st.floats(math.log(1e-300), math.log(0.999)).map(math.exp)


@pytest.mark.parametrize("algo", ["known", "guess"])
@settings(max_examples=25)
@given(delta=LOG_DELTAS, k=st.integers(1, 60))
@example(delta=5e-324, k=1)  # the smallest subnormal: every derived delta underflows
@example(delta=1e-320, k=1)
@example(delta=1e-160, k=1)
@example(delta=1e-200, k=1)
@example(delta=1e-300, k=1)
@example(delta=0.01, k=505)  # med-elim's counts overflow: refused
@example(delta=0.01, k=500)  # ok, with more than 10^300 draws
def test_float_edge_runs_exactly_or_is_refused(algo, delta, k):
    inst = gap_pair(k)
    if algo == "known":
        plan, args = known_complexity_plan, (delta, profile(inst).H)
    else:
        plan, args = complexity_guessing_plan, (delta,)
    assert_runs_exactly_or_is_refused(lambda: solve(plan, gauss(inst, 0), inst, *args), delta)


# The ladder's run time grows about as k^3 (k = 200 takes half a minute), so
# its gaps stop at 2^-20; the deltas are those of the solvers above.
@settings(max_examples=25)
@given(delta=LOG_DELTAS, k=st.integers(1, 20))
@example(delta=5e-324, k=1)
@example(delta=1e-320, k=1)
@example(delta=1e-160, k=1)
@example(delta=1e-200, k=1)
@example(delta=1e-300, k=1)
def test_float_edge_on_the_ladder_runs_exactly_or_is_refused(delta, k):
    inst = gap_pair(k)
    assert_runs_exactly_or_is_refused(lambda: parallel_simulation(inst, delta, seed=0), delta)


# Means on a 1/256 grid that holds 0 and 1 exactly: one arm at top / 256 and
# the others cycling over levels below it, so up to 10^4 arms come in requests
# of thousands of arms.  The explicit ties at the top are refused, by the API
# and by the CLI alike.
RUNNERS = {
    "known": lambda inst, seed: solve(
        known_complexity_plan, gauss(inst, seed), inst, 0.01, profile(inst).H),
    "guess": lambda inst, seed: solve(complexity_guessing_plan, gauss(inst, seed), inst, 0.01),
    "parallel": lambda inst, seed: parallel_simulation(inst, 0.01, seed=seed),
}


def grid_instance_means(n, top, levels):
    """``top / 256`` first, then ``n - 1`` arms cycling over ``levels`` (in 1/256)."""
    return [top / 256] + [levels[i % len(levels)] / 256 for i in range(n - 1)]


def assert_grid_case_runs_exactly_or_exits_1(tmp_path_factory, algo, means, seed):
    try:
        out = RUNNERS[algo](Instance.from_means(means), seed)
    except ValueError:
        path = tmp_path_factory.mktemp("grid") / "instance.txt"
        path.write_text("".join(f"{m!r}\n" for m in means))
        assert main(["run", "--instance", str(path), "--algo", algo, "--seed", str(seed)]) == 1
        return
    assert out.status == OK
    assert sum(out.per_arm_samples) == out.total_samples


def below_top(max_arms):
    """(n, top, levels) with every level below ``top``."""
    return st.tuples(st.integers(2, max_arms), st.integers(1, 256)).flatmap(
        lambda nt: st.tuples(st.just(nt[0]), st.just(nt[1]),
                             st.lists(st.integers(0, nt[1] - 1), min_size=1, max_size=3)))


@pytest.mark.parametrize("algo", ["known", "guess"])
@settings(max_examples=5)
@given(case=below_top(10**4), seed=st.integers(0, 3))
@example(case=(10**4, 256, [0]), seed=0)
@example(case=(10**4, 256, [0, 128, 255]), seed=1)
@example(case=(10**4, 256, [256, 0]), seed=0)  # tied at 1: refused
@example(case=(2, 0, [0]), seed=0)  # tied at 0: refused
@example(case=(2, 0, [256]), seed=0)
def test_wide_instances_with_means_at_0_and_1_run_exactly_or_are_refused(
        tmp_path_factory, algo, case, seed):
    means = grid_instance_means(*case)
    assert_grid_case_runs_exactly_or_exits_1(tmp_path_factory, algo, means, seed)


# Forty ladder copies of 10^4 arms take seconds, so the ladder stops at 10^3.
@settings(max_examples=4)
@given(case=below_top(10**3), seed=st.integers(0, 3))
@example(case=(10**3, 256, [0, 128]), seed=0)
@example(case=(3, 256, [256, 0]), seed=0)  # tied at 1: refused
def test_wide_instances_on_the_ladder_run_exactly_or_are_refused(tmp_path_factory, case, seed):
    means = grid_instance_means(*case)
    assert_grid_case_runs_exactly_or_exits_1(tmp_path_factory, "parallel", means, seed)


def test_no_fraction_test_probe_count_passes_int64():
    """The largest probe count a run can reach fits numpy's int64 binomial.

    A guess 100^t overflows at t = 155, so t <= 154.  A delta whose
    ln(2/delta) is finite has ln(2/delta) <= ln(float max).  The threshold
    step (C t - r)^-2 / 10 is smallest, and the probe count largest, at
    t = 154 and r = 1.  The multinomial of picks and every per-arm binomial
    take at most this count.
    """
    with pytest.raises(OverflowError):
        100.0**155
    tiny = 2.0 / sys.float_info.max  # the smallest delta with a finite 2 / delta
    while math.isinf(2.0 / tiny):
        tiny = math.nextafter(tiny, 1.0)
    assert math.log(2.0 / tiny) <= math.log(sys.float_info.max) < 709.79
    steps = [theta_step(t, r) for t in range(1, 155) for r in range(1, int(C_ROUNDS * t))]
    assert min(steps) == theta_step(154, 1)
    probes, _ = frac_test_probe_counts(0.0, 1.0, 0.3, 0.3 + theta_step(154, 1), tiny)
    assert probes <= 2**63 - 1
    assert probes == pytest.approx(1.74e17, rel=1e-2)


def test_shuffle_makes_storage_order_irrelevant_on_average():
    # same arm set stored in opposite orders: per-seed answers map to the
    # same physical arm distribution
    fwd = Instance.from_means((1.0, 0.5, 0.75), label="fwd")
    rev = Instance.from_means((0.75, 0.5, 1.0), label="rev")
    fwd_hits = sum(
        solve(complexity_guessing_plan, gauss(fwd, s), fwd, 0.01, budget=None).arm == 0
        for s in range(30)
    )
    rev_hits = sum(
        solve(complexity_guessing_plan, gauss(rev, s), rev, 0.01, budget=None).arm == 2
        for s in range(30)
    )
    assert fwd_hits >= 28 and rev_hits >= 28


SHUFFLE_SEEDS = [0, 1, 2**32, 1000003] + [copy_seed(0, k) for k in range(1, 41)]


@pytest.mark.parametrize("n", [2, 3, 7, 10, 16, 300, 1000])
def test_shuffled_arms_take_the_draws_and_order_of_a_permutation(n):
    # The list shuffle stands in for ``rng.permutation(n).tolist()``: every
    # solver's arm order, and each ladder copy's, must not move.
    instance = Instance.from_means([1.0] + [0.0] * (n - 1), f"n{n}")
    for seed in SHUFFLE_SEEDS:
        oracle = SamplingOracle.for_instance(instance, seed=seed)
        twin = np.random.default_rng(seed)
        assert _shuffled_arms(oracle, instance) == twin.permutation(n).tolist(), (n, seed)
        assert oracle.rng.bit_generator.state == twin.bit_generator.state, (n, seed)


GOLDEN_INSTANCES = [
    Instance.from_means((1.0, 0.875), "pair-g0.125"),
    Instance.from_means((1.0, 0.5, 0.5, 0.5, 0.75, 0.75, 0.875), "disc-7"),
    Instance.from_means((1.0,) + (0.75,) * 7, "flat-8"),
    make_discrete_instance({1: 20, 2: 20, 3: 19}, 1.0, label="disc-60"),
]
GOLDEN_BUDGETS = (None, 0, 10**5, 10**9)
GOLDEN_DIGEST = "d780083c81c0aae0ba30c24ce417fd688d1c77148d22deafe4fabd445ee555de"


def test_golden_replay_of_solver_outcomes_and_round_events():
    """Outcomes and every RoundEvent of the solvers replay bit for bit."""
    digest = hashlib.sha256()

    def record(name, inst, seed, budget, run):
        events = []
        out = run(gauss(inst, seed), events.append)
        line = json.dumps([name, inst.label, seed, budget, asdict(out),
                           [asdict(ev) for ev in events]])
        digest.update(line.encode() + b"\n")

    for inst in GOLDEN_INSTANCES:
        H = profile(inst).H
        for seed in range(2):
            for budget in GOLDEN_BUDGETS:
                record("known", inst, seed, budget, lambda o, tr: solve(
                    known_complexity_plan, o, inst, 0.01, H, budget=budget, trace=tr))
                record("guess", inst, seed, budget, lambda o, tr: solve(
                    complexity_guessing_plan, o, inst, 0.01, budget=budget, trace=tr))
                for t in (1, 2):
                    record(f"ee{t}", inst, seed, budget, lambda o, tr: solve(
                        entropy_elimination_plan, o, inst, 0.01, t, budget=budget, trace=tr))
            if inst.n_arms <= 10:
                for budget in (None, 0, 1000):
                    record("baseline", inst, seed, budget, lambda o, tr: solve(
                        baseline_successive_elimination_plan, o, inst, 0.01, budget=budget))
    assert digest.hexdigest() == GOLDEN_DIGEST


def _recorded(plan, requests, listening):
    """``plan`` as a factory for ``solve`` that records every request it yields, and passes
    ``emit`` on only when ``listening``."""
    def factory(oracle, instance, delta, *args, emit=None):
        run = plan(oracle, instance, delta, *args, **({"emit": emit} if listening else {}))
        reply = None
        while True:
            try:
                request = run.send(reply)
            except StopIteration as stop:
                return stop.value
            requests.append(request)
            reply = yield request

    return factory


def test_a_listener_changes_no_request_and_no_outcome():
    """Round fields are built only for a listener: with and without ``emit``, each solver
    yields the same requests, in order, and ends with the same outcome and stream."""
    compared = 0
    for inst in GOLDEN_INSTANCES:
        H = profile(inst).H
        plans = {"known": (known_complexity_plan, H), "guess": (complexity_guessing_plan,),
                 "ee1": (entropy_elimination_plan, 1), "ee2": (entropy_elimination_plan, 2)}
        for seed in range(2):
            for budget in GOLDEN_BUDGETS:
                for name, (plan, *args) in plans.items():
                    runs = []
                    for listening in (True, False):
                        oracle, requests, events = gauss(inst, seed), [], []
                        outcome = solve(_recorded(plan, requests, listening), oracle, inst, 0.01, *args,
                                        budget=budget, trace=events.append)
                        assert listening or not events
                        if outcome.status == BUDGET_EXCEEDED:  # counted from the events, which
                            outcome = replace(outcome, rounds_executed=None)  # only a listener gets
                        runs.append((requests, outcome, oracle.rng.bit_generator.state,
                                     dict(oracle.draws_by_phase)))
                    heard, deaf = runs
                    assert heard == deaf, (name, inst.label, seed, budget)
                    compared += len(heard[0])
    assert compared > 500  # 840 requests: a run that yields nothing compares nothing


# --- the per-phase draw ledger -------------------------------------------------

LEDGER_INSTANCES = DESK_INSTANCES + GOLDEN_INSTANCES[-1:]  # the ten desk instances and 60 arms
ROUND_PHASES = ("med", "anchor", "frac", "elim")


def ledger_run(algo, inst, seed, budget, trace=None):
    """Outcome of one seeded run of ``algo`` and the oracle it drew from."""
    oracle = gauss(inst, seed)
    if algo == "known":
        out = solve(known_complexity_plan, oracle, inst, 0.01, profile(inst).H,
                    budget=budget, trace=trace)
    elif algo == "guess":
        out = solve(complexity_guessing_plan, oracle, inst, 0.01, budget=budget, trace=trace)
    else:
        out = solve(baseline_successive_elimination_plan, oracle, inst, 0.01, budget=budget)
    return out, oracle


def assert_ledger_balances(algo, out, oracle):
    ledger = oracle.draws_by_phase
    assert sum(ledger.values()) == oracle.total == out.total_samples
    assert set(ledger) <= ({"baseline"} if algo == "baseline" else set(ROUND_PHASES))


@pytest.mark.parametrize("budget", [None, 0, 10**6])
@pytest.mark.parametrize("algo", ["known", "guess", "baseline"])
def test_phase_ledger_sums_to_total_samples(algo, budget):
    for inst in LEDGER_INSTANCES:
        out, oracle = ledger_run(algo, inst, 0, budget)
        assert_ledger_balances(algo, out, oracle)


@settings(max_examples=60)
@given(st.sampled_from(["known", "guess", "baseline"]), st.sampled_from(LEDGER_INSTANCES),
       st.integers(0, 3), st.integers(0, 5000))
def test_phase_ledger_sums_to_total_samples_at_any_budget(algo, inst, seed, budget):
    out, oracle = ledger_run(algo, inst, seed, budget)
    assert_ledger_balances(algo, out, oracle)


@pytest.mark.parametrize("algo", ["known", "guess"])
def test_round_events_split_the_phase_ledger(algo):
    drawn = set()
    for inst in LEDGER_INSTANCES:
        events = []
        out, oracle = ledger_run(algo, inst, 1, None, trace=events.append)
        assert out.status == OK
        for phase in ROUND_PHASES:
            emitted = sum(getattr(ev, f"draws_{phase}") for ev in events)
            assert emitted == oracle.draws_by_phase.get(phase, 0), (inst.label, phase)
        drawn.update(oracle.draws_by_phase)
    assert drawn == set(ROUND_PHASES)
