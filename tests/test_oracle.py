import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bestarm import (
    BudgetExceededError, Instance, MeanRequest, SamplingOracle, complexity_guessing_plan, run_plan,
    solve,
)
from bestarm.primitives import TALLY_BATCH, TallyRequest
from bestarm.solvers import SolveResult, make_outcome
from doubles import DeterministicOracle


def test_every_draw_increments_one_counter():
    oracle = SamplingOracle([0.2, 0.8], seed=0)
    oracle.draw(0)
    oracle.draw(1)
    oracle.draw(1)
    assert list(oracle.counts) == [1, 2]
    assert oracle.total == 3


def test_same_seed_same_rewards():
    a = SamplingOracle([0.3, 0.6], seed=42)
    b = SamplingOracle([0.3, 0.6], seed=42)
    seq_a = [a.draw(i % 2) for i in range(50)]
    seq_b = [b.draw(i % 2) for i in range(50)]
    assert seq_a == seq_b
    assert list(a.counts) == list(b.counts)


def test_sample_mean_counts_all_draws():
    oracle = SamplingOracle([0.5], seed=1)
    value = oracle.sample_mean(0, 1000)
    assert oracle.total == 1000
    assert abs(value - 0.5) < 0.2  # sd is 1/sqrt(1000)


def test_sample_mean_distribution_matches_per_draw_scale():
    oracle = SamplingOracle([0.0], seed=9)
    values = [oracle.sample_mean(0, 400) for _ in range(2000)]
    assert np.std(values) == pytest.approx(1 / 20, rel=0.1)


def test_sample_mean_law_is_exact_at_small_n():
    # the mean of n unit-Gaussian rewards is N(mu, 1/n) exactly, not just asymptotically
    for n in (2, 3, 5, 10):
        oracle = SamplingOracle([0.3], seed=n)
        values = [oracle.sample_mean(0, n) for _ in range(2000)]
        assert stats.kstest(values, "norm", args=(0.3, n**-0.5)).pvalue > 0.01


# The solvers' golden digests and the reference plans share this oracle, so
# they cannot see a channel that drifts from ``rng.normal`` (say, under a
# numpy build whose ``normal`` fuses the multiply-add); these tests can.
@pytest.mark.parametrize("seed", [0, 7])
def test_gaussian_draws_equal_rng_normal_bit_for_bit(seed):
    means = (0.0, 0.5, 1.0)
    oracle = SamplingOracle(means, seed=seed)
    twin = np.random.default_rng(seed)
    for draws in (1, 2, 3, 1000, 2**40, 2**62, 10**30):
        for arm, mean in enumerate(means):
            assert oracle.sample_mean(arm, draws).hex() == twin.normal(mean, draws**-0.5).hex()
    for arm, mean in enumerate(means):
        assert oracle.draw(arm).hex() == twin.normal(mean, 1.0).hex()
    assert oracle.rng.bit_generator.state == twin.bit_generator.state


@given(
    seed=st.integers(0, 2**64 - 1),
    calls=st.lists(st.tuples(st.floats(-1e6, 1e6), st.integers(1, 2**100)), min_size=1),
)
def test_sample_mean_equals_rng_normal_on_any_mean_and_count(seed, calls):
    oracle = SamplingOracle([mean for mean, _ in calls], seed=seed)
    twin = np.random.default_rng(seed)
    for arm, (mean, draws) in enumerate(calls):
        assert oracle.sample_mean(arm, draws).hex() == twin.normal(mean, draws**-0.5).hex()
    assert oracle.rng.bit_generator.state == twin.bit_generator.state


# A mean request draws its arms' normals in one ``standard_normal(k)`` call and
# computes their scale once; these pin that it is the float and the stream of
# one ``rng.normal`` per arm.
@pytest.mark.parametrize("k", [1, 2, 3, 1000])
@pytest.mark.parametrize("draws", [1, 2, 3, 2**40, 2**62, 10**30, 2**100])
def test_mean_request_equals_rng_normal_per_arm(k, draws):
    means = [i / k for i in range(k)]
    oracle = SamplingOracle(means, seed=k)
    twin = np.random.default_rng(k)
    arms = tuple(reversed(range(k)))
    reply = MeanRequest(arms, draws).fulfill(oracle)
    assert [m.hex() for m in reply] == [twin.normal(means[a], draws**-0.5).hex() for a in arms]
    assert oracle.rng.bit_generator.state == twin.bit_generator.state
    assert oracle.snapshot() == [draws] * k
    assert oracle._queued == []


def run_one_request(request, oracle, budget):
    """Serve ``request`` under ``budget`` as the one request of a plan driven by ``run_plan``."""
    def plan():
        return (yield request)
    return run_plan(plan(), oracle, budget)


def test_budget_split_head_consumes_only_its_normals():
    oracle = SamplingOracle([0.1, 0.2, 0.3, 0.4], seed=3)
    twin = np.random.default_rng(3)
    with pytest.raises(BudgetExceededError):
        run_one_request(MeanRequest((0, 1, 2, 3), 5), oracle, budget=12)  # arms 0 and 1 fit
    twin.standard_normal(2)
    assert oracle.rng.bit_generator.state == twin.bit_generator.state
    assert oracle.snapshot() == [5, 5, 0, 0]
    assert oracle._queued == []


def test_refused_mean_request_draws_nothing():
    oracle = SamplingOracle([0.1, 0.2], seed=4)
    state = oracle.rng.bit_generator.state
    with pytest.raises(ValueError, match="draws must be >= 1"):
        MeanRequest((0, 1), 0).fulfill(oracle)
    assert oracle.rng.bit_generator.state == state
    assert oracle._queued == [] and oracle.total == 0


@pytest.mark.parametrize("arms", [(0, 3), (3,), (1, 0, 3, 2)], ids=str)
def test_mean_request_on_an_arm_out_of_range_leaves_the_oracle_as_it_was(arms):
    oracle = SamplingOracle([0.1, 0.2, 0.3])
    with pytest.raises(IndexError):
        MeanRequest(arms, 2, phase="med").fulfill(oracle)
    assert (oracle.snapshot(), oracle.total, dict(oracle.draws_by_phase)) == ([0, 0, 0], 0, {})
    assert oracle._queued == []
    # The normals drawn for the refused request stay drawn (none for one arm, which
    # fails before its draw); the next call takes a fresh one.
    drawn = len(arms) if len(arms) > 1 else 0
    z = np.random.default_rng(0).standard_normal(drawn + 1)
    assert oracle.sample_mean(1, 1) == 0.2 + z[drawn]


# A count past the float range has no scale (``draws**-0.5``, ``sqrt(draws)``), and a
# probe count past int64 has no binomial: each is refused by name before any arm is
# charged or any normal or count is drawn.
HUGE = 2**1100
FLOAT_RANGE, INT64_RANGE = "draws must be within the float range", "probes must be within the int64 range"
BATCH_PAST_INT64 = (3,) * (TALLY_BATCH - 1) + (2**64,)


@pytest.mark.parametrize("refused, message", [
    pytest.param(lambda oracle: MeanRequest((0, 1, 2), HUGE, phase="med").fulfill(oracle),
                 FLOAT_RANGE, id="mean"),
    pytest.param(lambda oracle: MeanRequest((1,), HUGE, phase="med").fulfill(oracle),
                 FLOAT_RANGE, id="mean-one-arm"),
    pytest.param(lambda oracle: MeanRequest((0, 1), 2**1024 - 1, phase="med").fulfill(oracle),
                 FLOAT_RANGE, id="mean-rounding-to-2**1024"),
    pytest.param(lambda oracle: TallyRequest((0, 1), HUGE, (3, 4), 0.0, phase="frac").fulfill(oracle),
                 FLOAT_RANGE, id="tally"),
    pytest.param(lambda oracle: TallyRequest(tuple(range(TALLY_BATCH)), HUGE, (3,) * TALLY_BATCH, 0.0)
                 .fulfill(oracle), FLOAT_RANGE, id="tally-batched"),
    pytest.param(lambda oracle: oracle.sample_mean(0, HUGE), FLOAT_RANGE, id="sample_mean"),
    pytest.param(lambda oracle: oracle.count_means_below(0, HUGE, 3, 0.0),
                 FLOAT_RANGE, id="count_means_below"),
    pytest.param(lambda oracle: TallyRequest((0, 1), 1, (3, 2**64), 0.0, phase="frac").fulfill(oracle),
                 INT64_RANGE, id="tally-probes-past-int64"),
    pytest.param(lambda oracle: TallyRequest(tuple(range(TALLY_BATCH)), 1, BATCH_PAST_INT64, 0.0)
                 .fulfill(oracle), INT64_RANGE, id="tally-batched-probes-past-int64"),
    pytest.param(lambda oracle: oracle.count_means_below(0, 1, 2**64, 0.0),
                 INT64_RANGE, id="count_means_below-probes-past-int64"),
])
def test_a_count_past_the_float_range_is_refused_before_any_charge(refused, message):
    oracle = SamplingOracle([0.1 * arm for arm in range(TALLY_BATCH)], seed=8)
    MeanRequest((0, 1), 2**1023, phase="anchor").fulfill(oracle)  # the largest power that fits
    before = (oracle.rng.bit_generator.state, oracle.snapshot(), dict(oracle.draws_by_phase))
    with pytest.raises(ValueError, match=message):
        refused(oracle)
    assert (oracle.rng.bit_generator.state, oracle.snapshot(), dict(oracle.draws_by_phase)) == before
    assert oracle._queued == []


def test_direct_sample_mean_after_a_request_draws_fresh():
    oracle = SamplingOracle([0.1, 0.2], seed=5)
    twin = np.random.default_rng(5)
    MeanRequest((0, 1), 7).fulfill(oracle)
    twin.standard_normal(2)
    assert oracle.sample_mean(1, 9).hex() == twin.normal(0.2, 9**-0.5).hex()
    assert oracle.rng.bit_generator.state == twin.bit_generator.state


def test_deterministic_double_serves_mean_requests_without_the_stream():
    oracle = DeterministicOracle([0.7, 0.1, 0.4], seed=5)
    state = oracle.rng.bit_generator.state
    assert MeanRequest((2, 0, 1), 11).fulfill(oracle) == [0.4, 0.7, 0.1]
    assert oracle.rng.bit_generator.state == state
    assert oracle.snapshot() == [11, 11, 11]


# The baseline races on ``preview`` and then asks for the rounds it saw; these pin
# that a preview shows exactly what that request returns, and moves nothing.
@settings(max_examples=150)
@given(
    kind=st.sampled_from([SamplingOracle, DeterministicOracle]),
    means=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
    order=st.randoms(),
    k=st.integers(1, 12),
    rounds=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
)
def test_preview_shows_the_rounds_a_request_returns(kind, means, order, k, rounds, seed):
    arms = list(range(len(means)))
    order.shuffle(arms)
    arms = tuple(arms[:k])
    oracle = kind(means, seed=seed)
    state, ledger = oracle.rng.bit_generator.state, oracle.snapshot()
    ahead = oracle.preview(arms, rounds)
    assert ahead.shape == (rounds, len(arms))
    assert oracle.rng.bit_generator.state == state
    assert (oracle.snapshot(), oracle.total, dict(oracle.draws_by_phase)) == (ledger, 0, {})
    reply = MeanRequest(arms * rounds, 1).fulfill(oracle)
    assert [x.hex() for x in ahead.ravel().tolist()] == [x.hex() for x in reply]


# The baseline takes a block's sums from the preview's running sums, not from the reply:
# this pins that they are the floats of folding the reply round by round from any start.
@settings(max_examples=100)
@given(
    kind=st.sampled_from([SamplingOracle, DeterministicOracle]),
    means=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    start=st.lists(st.floats(-1e9, 1e9), min_size=8, max_size=8),
    rounds=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
)
def test_preview_running_sums_equal_the_fold_of_the_reply(kind, means, start, rounds, seed):
    arms = tuple(reversed(range(len(means))))
    start = start[: len(arms)]
    oracle = kind(means, seed=seed)
    ahead = oracle.preview(arms, rounds)
    ahead[0] += start
    np.cumsum(ahead, axis=0, out=ahead)
    reply = MeanRequest(arms * rounds, 1).fulfill(oracle)
    k = len(arms)
    sums = list(start)
    for r in range(rounds):
        sums = [s + x for s, x in zip(sums, reply[r * k:(r + 1) * k])]
        assert [x.hex() for x in ahead[r].tolist()] == [x.hex() for x in sums]


@pytest.mark.parametrize("kind", [SamplingOracle, DeterministicOracle])
@pytest.mark.parametrize("arms", [(-1,), (0, -3), (3,), (1, 2, 7)])
def test_preview_refuses_an_arm_out_of_range_and_moves_nothing(kind, arms):
    oracle = kind([0.1, 0.2, 0.3], seed=4)
    MeanRequest((0, 1, 2), 1, phase="baseline").fulfill(oracle)
    before = (oracle.rng.bit_generator.state, oracle.snapshot(), dict(oracle.draws_by_phase))
    with pytest.raises(IndexError):
        oracle.preview(arms, 2)
    assert (oracle.rng.bit_generator.state, oracle.snapshot(), dict(oracle.draws_by_phase)) == before


# A tally request of TALLY_BATCH or more arms draws its counts in one array
# ``binomial`` call; these pin that it is the ints and the stream of one
# ``rng.binomial`` per arm.  Means 0, -40, 40 and 37.047 at cutoff 0 and one
# draw give p = 0.5, 1, 0 and about 1e-300; 1.74e17 is the largest probe
# count a fraction test reaches (see test_solvers).
TALLY_MEANS = (0.0, -40.0, 40.0, 37.047)
TALLY_PROBES = (1, 3, 1000, 2**40, 174_000_000_000_000_000)


def _tally_p(mean, draws, cutoff):
    return 0.5 * math.erfc(-((cutoff - mean) * math.sqrt(draws)) / math.sqrt(2.0))


@pytest.mark.parametrize("k", [TALLY_BATCH - 1, TALLY_BATCH, 100, 1000])
def test_tally_request_equals_rng_binomial_per_arm(k):
    means = [TALLY_MEANS[i % 4] for i in range(k)]
    probes = tuple(TALLY_PROBES[i % 5] for i in range(k))
    oracle = SamplingOracle(means, seed=k)
    twin = np.random.default_rng(k)
    arms = tuple(reversed(range(k)))
    ps = [_tally_p(means[a], 1, 0.0) for a in arms]
    assert {0.0, 0.5, 1.0} < set(ps) and 1e-301 < min(p for p in ps if p) < 1e-299
    counts = [int(twin.binomial(n, p)) for n, p in zip(probes, ps)]
    assert TallyRequest(arms, 1, probes, 0.0).fulfill(oracle) == sum(counts)
    assert oracle.rng.bit_generator.state == twin.bit_generator.state
    assert oracle.snapshot() == [TALLY_PROBES[(k - 1 - a) % 5] for a in range(k)]
    assert oracle._queued == []


def test_batched_tally_counts_reach_each_arm():
    # the queue hands arm i the count drawn for arm i, not a neighbour's
    oracle = SamplingOracle([0.0] * TALLY_BATCH, seed=1)
    twin = np.random.default_rng(1)
    probes = tuple(range(1, TALLY_BATCH + 1))
    oracle.queue_tallies(range(TALLY_BATCH), 4, probes, 0.3)
    calls = [oracle.count_means_below(arm, 4, n, 0.3) for arm, n in enumerate(probes)]
    assert calls == [twin.binomial(n, _tally_p(0.0, 4, 0.3)) for n in probes]


def test_budget_split_head_consumes_only_its_binomials():
    k = TALLY_BATCH + 4
    oracle = SamplingOracle([0.1] * k, seed=3)
    twin = np.random.default_rng(3)
    request = TallyRequest(tuple(range(k)), 2, (5,) * k, 0.2)
    with pytest.raises(BudgetExceededError):
        run_one_request(request, oracle, budget=10 * TALLY_BATCH + 9)  # the first TALLY_BATCH arms fit
    twin.binomial([5] * TALLY_BATCH, _tally_p(0.1, 2, 0.2))
    assert oracle.rng.bit_generator.state == twin.bit_generator.state
    assert oracle.snapshot() == [10] * TALLY_BATCH + [0] * 4
    assert oracle._queued == []


@pytest.mark.parametrize("draws, last_probe", [(0, 3), (2, 0)])
def test_refused_tally_request_draws_nothing(draws, last_probe):
    k = TALLY_BATCH + 1
    oracle = SamplingOracle([0.1] * k, seed=4)
    state = oracle.rng.bit_generator.state
    request = TallyRequest(tuple(range(k)), draws, (3,) * (k - 1) + (last_probe,), 0.2)
    with pytest.raises(ValueError, match="draws and probes must be >= 1"):
        request.fulfill(oracle)
    assert oracle.rng.bit_generator.state == state
    assert oracle._queued == [] and oracle.total == 0


def test_direct_count_means_below_after_a_request_draws_fresh():
    k = TALLY_BATCH
    oracle = SamplingOracle([0.1] * k, seed=5)
    twin = np.random.default_rng(5)
    TallyRequest(tuple(range(k)), 7, (4,) * k, 0.3).fulfill(oracle)
    twin.binomial([4] * k, _tally_p(0.1, 7, 0.3))
    assert oracle.count_means_below(1, 9, 40, 0.3) == twin.binomial(40, _tally_p(0.1, 9, 0.3))
    assert oracle.rng.bit_generator.state == twin.bit_generator.state


def test_batched_tally_rejects_nan_cutoff_before_charging():
    k = TALLY_BATCH
    oracle = SamplingOracle([0.5] * k, seed=0)
    state = oracle.rng.bit_generator.state
    with pytest.raises(ValueError):
        TallyRequest(tuple(range(k)), 3, (40,) * k, float("nan")).fulfill(oracle)
    assert oracle.rng.bit_generator.state == state
    assert oracle._queued == [] and oracle.total == 0


@pytest.mark.parametrize("k", [3, TALLY_BATCH])
def test_tally_request_refuses_nan_cutoff_before_any_charge(k):
    # the scalar path would charge arm 0 before its binomial raised
    oracle = SamplingOracle([0.5] * k, seed=0)
    state = oracle.rng.bit_generator.state
    with pytest.raises(ValueError, match="cutoff must not be NaN"):
        TallyRequest(tuple(range(k)), 3, (40,) * k, float("nan"), phase="frac").fulfill(oracle)
    assert oracle.snapshot() == [0] * k
    assert oracle.total == 0 and oracle.draws_by_phase == {}
    assert oracle.rng.bit_generator.state == state


@pytest.mark.parametrize("means, arms, bad", [
    ([0.1, 0.2, 0.3], (0, 3), 3),
    ([0.1, 0.2, 0.3], (-1, 0), -1),  # would wrap to the last arm
    ([0.5] * TALLY_BATCH, tuple(range(TALLY_BATCH)) + (-1,), -1),
], ids=["past-the-end", "negative", "batched"])
def test_tally_request_refuses_an_arm_out_of_range_before_any_charge(means, arms, bad):
    oracle = SamplingOracle(means)
    state = oracle.rng.bit_generator.state
    with pytest.raises(IndexError, match=f"arm {bad} out of range for {len(means)} arms"):
        TallyRequest(arms, 2, (5,) * len(arms), 0.5, phase="frac").fulfill(oracle)
    assert oracle.snapshot() == [0] * len(means)
    assert oracle.total == 0 and oracle.draws_by_phase == {}
    assert oracle.rng.bit_generator.state == state


def test_snapshot_is_a_fresh_list():
    oracle = SamplingOracle([0.1, 0.2], seed=1)
    oracle.sample_mean(1, 4)
    taken = oracle.snapshot()
    assert taken == [0, 4] and taken is not oracle.snapshot()
    taken[0] = 99
    taken.append(1)
    assert oracle.snapshot() == [0, 4] and oracle.total == 4


def test_counts_is_a_read_only_copy_of_the_ledger():
    oracle = SamplingOracle([0.1, 0.2, 0.3], seed=1)
    MeanRequest((2, 0), 2**70).fulfill(oracle)
    counts = oracle.counts
    assert counts.tolist() == oracle.snapshot() == [2**70, 0, 2**70]
    assert counts.sum() == oracle.total == 2**71
    with pytest.raises(ValueError, match="read-only"):
        counts[1] = 5
    with pytest.raises(ValueError, match="read-only"):
        counts += 1
    assert oracle.snapshot() == [2**70, 0, 2**70]


# Requests of every kind over LEDGER_ARMS arms: tallies fall below and at TALLY_BATCH.
LEDGER_ARMS = TALLY_BATCH + 4
_ledger_arms = st.lists(st.integers(0, LEDGER_ARMS - 1), min_size=1, max_size=LEDGER_ARMS).map(tuple)
_mean_requests = st.builds(
    MeanRequest, _ledger_arms, st.integers(1, 2**70), phase=st.sampled_from(["med", "anchor"])
)
_tally_requests = _ledger_arms.flatmap(lambda arms: st.builds(
    TallyRequest,
    st.just(arms),
    st.integers(1, 2**30),
    st.lists(st.integers(1, 2**20), min_size=len(arms), max_size=len(arms)).map(tuple),
    st.floats(-2.0, 2.0),
    phase=st.sampled_from(["frac", "elim"]),
))
REFUSED_REQUESTS = [
    MeanRequest((0, LEDGER_ARMS), 3, phase="med"),  # the arm past the last one: refunded
    MeanRequest((1, 2), 0, phase="med"),
    TallyRequest((0, LEDGER_ARMS), 2, (5, 5), 0.5, phase="frac"),
    TallyRequest((-1, 0), 2, (5, 5), 0.5, phase="frac"),
    TallyRequest(tuple(range(LEDGER_ARMS)) + (LEDGER_ARMS,), 2, (5,) * (LEDGER_ARMS + 1), 0.5),
    TallyRequest((0, 1), 2, (5, 0), 0.5, phase="elim"),
    TallyRequest((0, 1), 2, (5, 5), float("nan"), phase="elim"),
    MeanRequest((0, 1), 2**1100, phase="anchor"),
    TallyRequest((0, 1), 2**1100, (3, 4), 0.0, phase="frac"),
    TallyRequest((0, 1), 1, (3, 2**64), 0.0, phase="frac"),
    TallyRequest(tuple(range(LEDGER_ARMS)), 1, (3,) * (LEDGER_ARMS - 1) + (2**64,), 0.0, phase="elim"),
]


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32),
    steps=st.lists(st.one_of(
        st.tuples(st.one_of(_mean_requests, _tally_requests), st.sampled_from(["whole", "head"])),
        st.tuples(st.sampled_from(REFUSED_REQUESTS), st.just("refused")),
    ), max_size=12),
)
def test_total_phases_and_ledger_agree_after_any_mix_of_requests(seed, steps):
    oracle = SamplingOracle([arm / LEDGER_ARMS for arm in range(LEDGER_ARMS)], seed=seed)
    for request, how in steps:
        if how == "whole":
            request.fulfill(oracle)
        elif how == "head":  # the cap stops the request one draw short
            with pytest.raises(BudgetExceededError):
                run_one_request(request, oracle, budget=oracle.total + request.cost - 1)
        else:
            with pytest.raises((ValueError, IndexError)):
                request.fulfill(oracle)
    ledger, phases = oracle.snapshot(), list(oracle.draws_by_phase.values())
    assert oracle.total == sum(ledger) == sum(phases)
    assert all(type(n) is int for n in ledger + phases)


def test_fulfilled_requests_charge_their_phase_once_all_draws_are_taken():
    oracle = SamplingOracle([0.1, 0.2, 0.3], seed=2)
    MeanRequest((0, 1), 5, phase="med").fulfill(oracle)
    TallyRequest((2, 0), 3, (4, 1), 0.2, phase="frac").fulfill(oracle)
    MeanRequest((1,), 7).fulfill(oracle)  # untagged requests go to ""
    assert oracle.draws_by_phase == {"med": 10, "frac": 15, "": 7}
    with pytest.raises(ValueError):
        MeanRequest((0, 1), 0, phase="med").fulfill(oracle)
    with pytest.raises(IndexError):  # arm 0 is drawn before arm 3 fails: no charge at all
        MeanRequest((0, 3), 2, phase="anchor").fulfill(oracle)
    assert oracle.draws_by_phase == {"med": 10, "frac": 15, "": 7}


@pytest.mark.parametrize("request_, budget, head", [
    (MeanRequest((0, 1, 2, 3), 5, phase="anchor"), 12, 10),
    (TallyRequest((0, 1, 2, 3), 2, (5, 5, 5, 5), 0.2, phase="elim"), 29, 20),
])
def test_budget_split_head_keeps_its_phase(request_, budget, head):
    oracle = SamplingOracle([0.1, 0.2, 0.3, 0.4], seed=3)
    assert request_.prefix(2).phase == request_.phase
    with pytest.raises(BudgetExceededError):
        run_one_request(request_, oracle, budget=budget)
    assert oracle.draws_by_phase == {request_.phase: head} and oracle.total == head


def test_deterministic_double_serves_tally_requests_without_the_stream():
    k = TALLY_BATCH
    oracle = DeterministicOracle([0.7, 0.1] * k, seed=5)
    state = oracle.rng.bit_generator.state
    assert TallyRequest(tuple(range(2 * k)), 11, (3,) * (2 * k), 0.5).fulfill(oracle) == 3 * k
    assert oracle.rng.bit_generator.state == state
    assert oracle.snapshot() == [33] * (2 * k)


def test_count_means_below_law_matches_per_probe_simulation():
    # each probe is the mean of `draws` explicit rewards, counted when below the cutoff
    mean, draws, probes, cutoff, reps = 0.5, 9, 4, 0.6, 2000
    oracle = SamplingOracle([mean], seed=11)
    tallies = [oracle.count_means_below(0, draws, probes, cutoff) for _ in range(reps)]
    rewards = np.random.default_rng(12).normal(mean, 1.0, size=(reps, probes, draws))
    explicit = (rewards.mean(axis=2) < cutoff).sum(axis=1)
    table = [np.bincount(tallies, minlength=probes + 1), np.bincount(explicit, minlength=probes + 1)]
    assert stats.chi2_contingency(table).pvalue > 0.01


def test_deterministic_family_returns_means_exactly():
    oracle = DeterministicOracle([0.7, 0.1], seed=5)
    state = oracle.rng.bit_generator.state
    assert oracle.draw(0) == 0.7
    assert oracle.sample_mean(1, 123) == 0.1
    assert oracle.count_means_below(0, 10, 7, 0.9) == 7
    assert oracle.count_means_below(0, 10, 7, 0.7) == 0  # strict below
    assert oracle.total == 1 + 123 + 70 + 70
    assert oracle.rng.bit_generator.state == state  # the double leaves the stream alone


def test_count_means_below_extremes():
    oracle = SamplingOracle([0.5], seed=2)
    # cutoff far above / below the mean saturates the probability
    assert oracle.count_means_below(0, 100, 50, 10.0) == 50
    assert oracle.count_means_below(0, 100, 50, -10.0) == 0
    assert oracle.total == 100 * 50 * 2


@pytest.mark.parametrize("cutoff, p", [(np.inf, 1.0), (-np.inf, 0.0)])
def test_count_means_below_at_infinite_cutoff(cutoff, p):
    # Phi(+-inf) is exactly 1 / 0, so no clamp is needed to get there.
    oracle = SamplingOracle([0.5], seed=6)
    twin = np.random.default_rng(6)
    assert oracle.count_means_below(0, 3, 40, cutoff) == twin.binomial(40, p) == 40 * p
    assert oracle.rng.bit_generator.state == twin.bit_generator.state


def test_count_means_below_rejects_nan_cutoff():
    oracle = SamplingOracle([0.5], seed=0)
    with pytest.raises(ValueError):
        oracle.count_means_below(0, 3, 40, float("nan"))


def test_count_means_below_matches_explicit_means():
    # Same law as thresholding explicit sample_mean estimates.
    oracle = SamplingOracle([0.5], seed=3)
    hits = oracle.count_means_below(0, 25, 4000, 0.55)
    explicit = SamplingOracle([0.5], seed=4)
    ref = sum(explicit.sample_mean(0, 25) < 0.55 for _ in range(4000))
    # Both are Binomial(4000, Phi(0.05*5)) draws: mean 2398, sd ~30.
    assert abs(hits - ref) < 150


def test_for_instance_matches_means():
    inst = Instance.from_means((1.0, 0.25))
    oracle = DeterministicOracle.for_instance(inst, seed=0)
    assert oracle.n_arms == 2
    assert oracle.draw(1) == 0.25


def test_counters_stay_exact_past_int64_in_a_run():
    # gap 2^-16: the fraction tests' draw counts pass the int64 range
    inst = Instance.from_means((1.0, 0.9999847412109375))
    oracle = SamplingOracle.for_instance(inst, seed=0)
    out = solve(complexity_guessing_plan, oracle, inst, 0.01)
    assert (out.status, out.arm) == ("ok", 0)
    assert sum(out.per_arm_samples) == out.total_samples == oracle.total > 2**63
    assert oracle.counts.tolist() == list(out.per_arm_samples)


def test_totals_are_exact_past_int64():
    # two counters of 2^62 each: an int64 sum of them wraps to -2^63
    for oracle in (SamplingOracle([0.5, 0.5], seed=0), DeterministicOracle([0.5, 0.5])):
        oracle.sample_mean(0, 2**62)
        oracle.sample_mean(1, 2**62)
        assert oracle.total == 2**63
        outcome = make_outcome(SolveResult(arm=0, rounds=1), oracle.snapshot())
        assert outcome.total_samples == 2**63
        assert outcome.per_arm_samples == (2**62, 2**62)
