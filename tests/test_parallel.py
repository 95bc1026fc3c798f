import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bestarm import (
    BUDGET_EXCEEDED,
    OK,
    BudgetExceededError,
    Instance,
    MeanRequest,
    SamplingOracle,
    baseline_successive_elimination_plan,
    complexity_guessing_plan,
    known_complexity_plan,
    parallel_simulation,
    run_plan,
    run_trials,
    solve,
)
from doubles import copy_seed
from bestarm.solvers import SolveResult

TWO_ARM = Instance.from_means((1.0, 0.5), label="two-arm")
TRIPLE = Instance.from_means((1.0, 0.75, 0.5), label="triple")


def scheduled_copies(iteration: int) -> list[int]:
    """Copy indices advanced at a 1-based iteration: all k with 2^(k-1) | iteration."""
    if iteration < 1:
        raise ValueError(f"iteration must be >= 1, got {iteration}")
    advanced = []
    k = 1
    while iteration % 2 ** (k - 1) == 0:
        advanced.append(k)
        k += 1
    return advanced


class _RefCopy:
    def __init__(self, oracle, plan):
        self.oracle = oracle
        self.plan = plan
        self.granted = 0  # every draw granted, in-flight ones included
        self.progress = 0  # grants toward the pending request
        self.result = None
        try:
            self.pending = next(plan)
        except StopIteration as stop:
            self.pending = None
            self.result = stop.value


def reference_ladder(instance, delta, inner, *, seed, budget=None):
    """Draw-by-draw ladder: at iteration t every spawned copy k with
    2^(k-1) | t gets one draw, in index order, until a copy finishes.

    Copy k is spawned at the start of iteration 2^(k-1).  A copy whose plan
    returns before sampling finishes at its first scheduled iteration.  A
    copy whose request would take its draws past ``budget`` stops at the
    end of the first arm that crosses, having served the arms before it;
    that ends the run with no result.  Returns ``(winner index, winner
    result, copies)``.
    """
    copies: list[_RefCopy] = []
    t = 0
    while True:
        t += 1
        if t == 2 ** len(copies):
            k = len(copies) + 1
            oracle = SamplingOracle.for_instance(instance, seed=copy_seed(seed, k))
            copies.append(_RefCopy(oracle, inner(oracle, instance, delta / 2.0**k)))
        for k in scheduled_copies(t):
            if k > len(copies):
                break
            copy = copies[k - 1]
            if copy.pending is None:
                return k, copy.result, copies
            copy.granted += 1
            copy.progress += 1
            if budget is not None and copy.oracle.total + copy.pending.cost > budget:
                # the arms that fit, then the first arm that crosses
                fit, through = 0, copy.oracle.total
                for _, cost in copy.pending.served():
                    through += cost
                    if through > budget:
                        break
                    fit += 1
                if copy.oracle.total + copy.progress < through:
                    continue
                if fit:
                    copy.pending.prefix(fit).fulfill(copy.oracle)
                return k, None, copies
            if copy.progress < copy.pending.cost:
                continue
            reply = copy.pending.fulfill(copy.oracle)
            copy.progress = 0
            try:
                copy.pending = copy.plan.send(reply)
            except StopIteration as stop:
                copy.pending = None
                return k, stop.value, copies


def toy_inner(scripts, oracles):
    """Plan factory: copy k issues ``scripts[(k-1) % len(scripts)]`` as
    ``(arms, draws)`` requests and returns ``SolveResult(arm, rounds=k)``
    with the last arm requested; each copy's oracle is appended to
    ``oracles``."""

    def inner(oracle, instance, delta_k):
        oracles.append(oracle)
        k = len(oracles)
        script = scripts[(k - 1) % len(scripts)]

        def plan():
            for arms, draws in script:
                yield MeanRequest(arms, draws)
            return SolveResult(arm=script[-1][0][-1] if script else 0, rounds=k)

        return plan()

    return inner


TOY = Instance.from_means((1.0, 0.5, 0.25), label="toy")
# Requests over one to three arms, so a request in flight at the stop may
# have some of its arms completed and one partly granted.
toy_requests = st.tuples(
    st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple), st.integers(1, 4)
)
toy_scripts = st.lists(st.lists(toy_requests, max_size=5), min_size=1, max_size=6)
budgets = st.none() | st.integers(0, 20)
# Copy 1 finishes at t = 2 and copy 2 at t = 1 * 2: the lower index wins.
SAME_ITERATION = [[((0,), 2)], [((1,), 1)]]
# Copy 2 returns before sampling, at its first scheduled iteration t = 2.
RETURNS_AT_SPAWN = [[((0,), 3)], []]
# Copy 1 wins at t = 6 while copy 2 is inside its three-arm request: two
# arms done, the third still open.
MID_REQUEST = [[((0, 1), 3)], [((2, 1, 0), 1)]]
# Under a cap of 5, copy 1 serves arm 0 (4 draws) and stops at t = 8, the
# end of arm 1, which would cross the cap.
CAPPED = [[((0, 1, 2), 4)]]
# Under a cap of 2, copy 1 stops at t = 3 while copy 2's plan returns at t = 2.
CAPPED_AFTER_A_FINISH = [[((0,), 3)], [((1,), 1)]]
EASY = Instance.from_means((1.0, 0.0), label="easy")


def ladder_and_winner(instance, delta, plan, *args, seed):
    """Run the ladder over copies of ``plan(oracle, instance, delta_k, *args)``.

    Returns its outcome, the index k of the copy that finished, the draws
    that copy served, and ``solve`` of ``plan`` over copy k's own oracle
    at delta / 2^k.
    """
    oracles, finished = [], []

    def inner(oracle, inst, delta_k):
        oracles.append(oracle)
        k = len(oracles)
        result = yield from plan(oracle, inst, delta_k, *args)
        finished.append(k)
        return result

    out = parallel_simulation(instance, delta, inner, seed=seed, budget=None)
    [k] = finished
    oracle = SamplingOracle.for_instance(instance, seed=copy_seed(seed, k))
    direct = solve(plan, oracle, instance, delta / 2.0**k, *args, budget=None)
    return out, k, tuple(oracles[k - 1].snapshot()), direct


def same_run(out, direct) -> bool:
    return (out.status, out.arm, out.rounds_executed, out.accepted_guess_t) == (
        direct.status, direct.arm, direct.rounds_executed, direct.accepted_guess_t)


class TestSchedule:
    def test_iteration_four_advances_first_three_copies(self):
        assert scheduled_copies(4) == [1, 2, 3]

    def test_small_iterations(self):
        assert scheduled_copies(1) == [1]
        assert scheduled_copies(2) == [1, 2]
        assert scheduled_copies(3) == [1]
        assert scheduled_copies(6) == [1, 2]
        assert scheduled_copies(8) == [1, 2, 3, 4]

    def test_rejects_nonpositive_iteration(self):
        with pytest.raises(ValueError):
            scheduled_copies(0)

    def test_copy_rate_halves_up_the_ladder(self):
        grants = {k: 0 for k in range(1, 6)}
        for t in range(1, 1025):
            for k in scheduled_copies(t):
                if k in grants:
                    grants[k] += 1
        assert grants == {1: 1024, 2: 512, 3: 256, 4: 128, 5: 64}


class TestParallelSimulation:
    def test_winning_copy_matches_direct_run_at_its_delta(self):
        # The guessing solver's copy 1 wins on every seed here; the
        # baseline's draw counts vary enough for copies 2 and 3 to win.
        cases = [(complexity_guessing_plan, TWO_ARM, seed, 1) for seed in range(200)]
        cases += [(baseline_successive_elimination_plan, EASY, seed, k)
                  for seed, k in ((3, 2), (118, 3), (182, 2))]
        for plan, inst, seed, winner in cases:
            out, k, served, direct = ladder_and_winner(inst, 0.02, plan, seed=seed)
            assert k == winner
            assert same_run(out, direct)
            assert served == direct.per_arm_samples

    def test_returns_best_arm(self):
        hits = 0
        for seed in range(40):
            out = parallel_simulation(TRIPLE, 0.01, seed=seed, budget=None)
            assert out.status == OK
            assert out.total_samples == sum(out.per_arm_samples)
            hits += out.arm == 0
        assert hits >= 38

    def test_accounts_at_least_the_winning_copy(self):
        out, _, _, solo = ladder_and_winner(TWO_ARM, 0.02, complexity_guessing_plan, seed=3)
        assert same_run(out, solo)
        # ladder totals include the other copies' granted draws
        assert out.total_samples > solo.total_samples
        assert all(a >= b for a, b in zip(out.per_arm_samples, solo.per_arm_samples))

    def test_budget_error_propagates(self):
        out = parallel_simulation(TWO_ARM, 0.01, seed=0, budget=2000)
        assert out.status == BUDGET_EXCEEDED

    def test_custom_inner_plan_factory(self):
        H = 4.0

        def inner(oracle, instance, delta_k):
            return known_complexity_plan(oracle, instance, delta_k, H)

        out = parallel_simulation(TWO_ARM, 0.02, inner, seed=5, budget=None)
        assert out.status == OK
        again, k, served, direct = ladder_and_winner(TWO_ARM, 0.02, known_complexity_plan, H,
                                                     seed=5)
        assert again == out
        assert same_run(out, direct)
        assert served == direct.per_arm_samples

    def test_replay_determinism(self):
        runs = [parallel_simulation(TRIPLE, 0.01, seed=21, budget=None) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            parallel_simulation(TWO_ARM, 0.0, seed=0)

    def test_ledger_is_exact_past_int64(self):
        # Copy 1 serves two counters of 2^62 each, whose int64 sum would wrap
        # to -2^63, and wins at t = 2^63; the stale stop is 3 * 2^62.  Copy 2
        # is charged 2^62 on arm 0, and copy k = 3 ... 64 is charged
        # (3 * 2^62 - 1) // 2^(k-1) on arm 0.
        oracles = []
        out = parallel_simulation(TOY, 0.1, toy_inner([[((0, 1), 2**62)]], oracles), budget=None)
        assert len(oracles) == 64
        assert out.per_arm_samples == (2**63 + 3 * 2**61 - 63, 2**62, 0)
        assert out.total_samples == 2**63 + 2**62 + 3 * 2**61 - 63


PINNED_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 5, 2**128, 2**200 + 1, 1_000_003,
                np.uint64(2**64 - 1)]
DISC_10 = Instance.from_means((1.0,) + (0.5,) * 5 + (0.75,) * 2 + (0.875,) * 2, "disc-10")


def spawn_states(seed, states):
    """Plan factory recording each copy's generator state at spawn; copy 1 asks for
    2^130 draws, so copies 1 ... 131 spawn before it finishes."""
    toy = toy_inner([[((0,), 2**130)]], [])

    def inner(oracle, instance, delta_k):
        states.append(oracle.rng.bit_generator.state)
        return toy(oracle, instance, delta_k)

    return inner


class TestCopySeeds:
    @pytest.mark.parametrize("seed", PINNED_SEEDS, ids=str)
    def test_each_copy_is_seeded_as_by_its_spawn_key(self, seed):
        # Past the first block of 64 copies and the second; seeds of 1 to 7 entropy words.
        states = []
        parallel_simulation(TOY, 0.1, spawn_states(seed, states), seed=seed, budget=None)
        assert len(states) == 131
        for k, state in enumerate(states, start=1):
            assert state == np.random.default_rng(copy_seed(seed, k)).bit_generator.state

    def test_seed_none_draws_fresh_entropy_for_each_run(self):
        runs = [[], []]
        for states in runs:
            parallel_simulation(TOY, 0.1, spawn_states(None, states), seed=None, budget=None)
        assert runs[0][0] != runs[1][0]
        assert len({str(state) for state in runs[0]}) == len(runs[0])

    @pytest.mark.parametrize("seed", [[1, 2], (3,), np.arange(2)], ids=["list", "tuple", "array"])
    def test_a_sequence_seed_is_refused_by_name_before_any_copy_spawns(self, seed):
        spawned = []
        with pytest.raises(TypeError, match="seed must be a non-negative int or None"):
            parallel_simulation(TOY, 0.1, toy_inner([[((0,), 1)]], spawned), seed=seed)
        assert spawned == []

    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (np.int64(-1), ValueError), (1.5, TypeError), ("3", TypeError),
    ], ids=str)
    def test_a_negative_or_non_integer_seed_is_refused_by_name_before_any_copy_spawns(
        self, seed, error
    ):
        spawned = []
        with pytest.raises(error, match="seed must be a non-negative int or None"):
            parallel_simulation(TOY, 0.1, toy_inner([[((0,), 1)]], spawned), seed=seed)
        assert spawned == []

    def test_a_run_mixes_its_base_seed_once(self, monkeypatch):
        """One ``SeedSequence`` per ladder run, not one per copy."""
        built, oracles = [], []

        class Counted(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        def inner(oracle, instance, delta_k):
            oracles.append(oracle)
            return complexity_guessing_plan(oracle, instance, delta_k)

        monkeypatch.setattr(np.random, "SeedSequence", Counted)
        assert parallel_simulation(DISC_10, 0.01, inner, seed=0).status == OK
        assert len(oracles) > 20
        assert built == [(0,)]

    def test_importing_bestarm_leaves_numpy_random_unloaded(self):
        # numpy loads numpy.random lazily; the ladder reaches it only at run time, so
        # an import of it at module level would show in every workload's set-up time.
        src = Path(inspect.getfile(parallel_simulation)).resolve().parents[1]
        code = "import sys, bestarm; print('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, timeout=60)
        assert (child.returncode, child.stdout.strip()) == (0, "False")


# Three desk instances of tests/test_acceptance.py.
GOLDEN_INSTANCES = [
    Instance.from_means((1.0, 0.875), "pair-g0.125"),
    Instance.from_means((1.0, 0.5, 0.5, 0.5, 0.75, 0.75, 0.875), "disc-7"),
    Instance.from_means((1.0,) + (0.75,) * 7, "flat-8"),
]
GOLDEN_BUDGETS = (None, 0, 2000, 10**6, 10**9)
GOLDEN_DIGEST = "9e142b1bda201adef5ff76c2db4524ea01bb1d0b6d3b66079ae67bf5dfdbf02b"


def test_golden_replay_of_ladder_outcomes():
    """Ladder outcomes, budget stops included, replay bit for bit."""
    digest = hashlib.sha256()
    for inst in GOLDEN_INSTANCES:
        for seed in range(4):
            for budget in GOLDEN_BUDGETS:
                out = parallel_simulation(inst, 0.01, seed=seed, budget=budget)
                line = json.dumps([inst.label, seed, budget, out.status, out.arm,
                                   out.total_samples, list(out.per_arm_samples),
                                   out.rounds_executed, out.accepted_guess_t])
                digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_DIGEST


GOLDEN_BASELINE_DIGEST = "8d488e579de1ced474c1519c98c06806077f7b9307ebfb4f909ab2d67ca04368"


def test_golden_replay_of_baseline_ladder_outcomes():
    """The baseline raced on the ladder replays bit for bit, budget stops included.

    The digest was recorded with one request per baseline round.  The
    baseline now asks for a block of rounds at once, so the other copies'
    requests in flight span several rounds when the winner finishes, and
    their grants must still land on the same arms.
    """
    digest = hashlib.sha256()
    for inst in GOLDEN_INSTANCES:
        for seed in range(4):
            for budget in (None, 0, 2000):
                out = parallel_simulation(inst, 0.01, baseline_successive_elimination_plan,
                                          seed=seed, budget=budget)
                line = json.dumps([inst.label, seed, budget, out.status, out.arm,
                                   out.total_samples, list(out.per_arm_samples),
                                   out.rounds_executed, out.accepted_guess_t])
                digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_BASELINE_DIGEST


@pytest.mark.parametrize("budget", [None, 10**6, 10**7])
def test_every_copy_ledger_sums_to_its_draws(budget):
    for inst in GOLDEN_INSTANCES:
        oracles = []

        def inner(oracle, instance, delta_k):
            oracles.append(oracle)
            return complexity_guessing_plan(oracle, instance, delta_k)

        parallel_simulation(inst, 0.01, inner, seed=1, budget=budget)
        assert any(oracle.total for oracle in oracles)
        for oracle in oracles:
            assert sum(oracle.draws_by_phase.values()) == oracle.total


@given(scripts=toy_scripts, budget=budgets, seed=st.integers(0, 3))
@example(scripts=SAME_ITERATION, budget=None, seed=0)
@example(scripts=RETURNS_AT_SPAWN, budget=None, seed=0)
@example(scripts=MID_REQUEST, budget=None, seed=0)
@example(scripts=[[]], budget=None, seed=0)
@example(scripts=CAPPED, budget=5, seed=0)
@example(scripts=CAPPED, budget=0, seed=0)
@example(scripts=CAPPED_AFTER_A_FINISH, budget=2, seed=0)
def test_matches_draw_by_draw_reference(scripts, budget, seed):
    oracles = []
    out = parallel_simulation(TOY, 0.1, toy_inner(scripts, oracles), seed=seed, budget=budget)
    ref_oracles = []
    k, result, copies = reference_ladder(TOY, 0.1, toy_inner(scripts, ref_oracles),
                                         seed=seed, budget=budget)
    if result is None:
        assert (out.status, out.arm, out.rounds_executed) == (BUDGET_EXCEEDED, None, 0)
    else:
        assert out.status == OK
        assert out.arm == result.arm
        assert out.rounds_executed == result.rounds == k  # toy plans return rounds=k
    assert [o.snapshot() for o in oracles] == [o.snapshot() for o in ref_oracles]


def test_budget_stop_closes_the_plan():
    request = MeanRequest((0, 1), 3)

    def plan():
        yield request
        return SolveResult(arm=0, rounds=1)

    gen = plan()
    with pytest.raises(BudgetExceededError):
        run_plan(gen, SamplingOracle((1.0, 0.5)), budget=4)
    assert inspect.getgeneratorstate(gen) == "GEN_CLOSED"

    plans = []

    def inner(oracle, instance, delta_k):
        plans.append(plan())
        return plans[-1]

    out = parallel_simulation(TWO_ARM, 0.1, inner, budget=4)
    assert out.status == BUDGET_EXCEEDED
    # copy 1 stops at t = 6, when copies 2 and 3 wait inside the request
    assert [inspect.getgeneratorstate(p) for p in plans] == [
        "GEN_CLOSED", "GEN_SUSPENDED", "GEN_SUSPENDED"]


@pytest.mark.parametrize("budget", [float("nan"), 10.0, -1, True], ids=repr)
@pytest.mark.parametrize("driver", ["run_plan", "solve", "parallel_simulation", "run_trials"])
def test_a_bad_budget_is_refused_before_the_plan_resumes(driver, budget, monkeypatch):
    # A NaN would lift the cap, since ``total + cost > nan`` is never true.
    made = []
    for_instance = SamplingOracle.for_instance.__func__

    def recording(cls, instance, seed=0):
        oracle = for_instance(cls, instance, seed)
        made.append((oracle, oracle.rng.bit_generator.state))
        return oracle

    monkeypatch.setattr(SamplingOracle, "for_instance", classmethod(recording))
    oracle = SamplingOracle.for_instance(TWO_ARM)
    refusal = re.escape(f"budget must be None or an integer >= 0, got {budget!r}")
    with pytest.raises(ValueError, match=refusal):
        if driver == "run_plan":
            run_plan(known_complexity_plan(oracle, TWO_ARM, 0.01, 4.0), oracle, budget)
        elif driver == "solve":
            solve(known_complexity_plan, oracle, TWO_ARM, 0.01, 4.0, budget=budget)
        elif driver == "parallel_simulation":
            parallel_simulation(TWO_ARM, 0.01, seed=0, budget=budget)
        else:
            run_trials("guess", TWO_ARM, 0.01, 2, 0, budget=budget)
    # one oracle made here, and the first one of a ladder or trial batch
    assert len(made) == (1 if driver in ("run_plan", "solve") else 2)
    for oracle, state in made:
        assert oracle.rng.bit_generator.state == state
        assert (oracle.snapshot(), dict(oracle.draws_by_phase)) == ([0, 0], {})


def test_a_numpy_integer_budget_caps_the_run():
    budget = np.int64(10)
    oracle = SamplingOracle.for_instance(TWO_ARM)
    assert solve(known_complexity_plan, oracle, TWO_ARM, 0.01, 4.0, budget=budget).status == BUDGET_EXCEEDED
    assert parallel_simulation(TWO_ARM, 0.01, seed=0, budget=budget).status == BUDGET_EXCEEDED


@pytest.mark.xfail(strict=True, reason="the stop iteration counts the winner's last "
                   "request twice, so other copies are charged grants past the stop")
@given(scripts=toy_scripts, seed=st.integers(0, 3))
@example(scripts=SAME_ITERATION, seed=0)
def test_grant_ledger_matches_draw_by_draw_reference(scripts, seed):
    out = parallel_simulation(TOY, 0.1, toy_inner(scripts, []), seed=seed, budget=None)
    _, _, copies = reference_ladder(TOY, 0.1, toy_inner(scripts, []), seed=seed)
    granted = [0] * TOY.n_arms
    for copy in copies:
        for arm, count in enumerate(copy.oracle.counts):
            granted[arm] += int(count)
        if copy.pending is not None:  # grants toward it go to its arms in order
            left = copy.progress
            for arm, cost in copy.pending.served():
                granted[arm] += min(left, cost)
                left -= min(left, cost)
    assert out.total_samples == sum(c.granted for c in copies)
    assert out.per_arm_samples == tuple(granted)
