import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bestarm import (
    BudgetExceededError, Instance, MeanRequest, SamplingOracle, complexity_guessing_plan,
    parallel_simulation, run_plan, solve,
)
from bestarm.oracle import TALLY_BATCH, _seed_words
from bestarm.primitives import TallyRequest, split_at_cap
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


@pytest.mark.parametrize("arms", [(0, 3), (3,), (1, 0, 3, 2), (-1,), (-1, 0), (0, -3), (2, 1, -4)], ids=str)
def test_mean_request_on_an_arm_out_of_range_leaves_the_oracle_as_it_was(arms):
    for rounds in (1, 3):
        oracle = SamplingOracle([0.1, 0.2, 0.3])
        with pytest.raises(IndexError, match=r"arm -?\d+ out of range for 3 arms"):
            MeanRequest(arms, 2, phase="med", rounds=rounds).fulfill(oracle)
        assert oracle.rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
        assert (oracle.snapshot(), oracle.total, dict(oracle.draws_by_phase)) == ([0, 0, 0], 0, {})
        assert oracle._queued == []
        # Refused before any normal is drawn: the next call takes the stream's first.
        assert oracle.sample_mean(1, 1) == 0.2 + np.random.default_rng(0).standard_normal()


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


# An empty request is refused alike by both request kinds, before any other check, and
# ``rounds`` by name once ``rounds * len(arms)`` is past what one int64-indexed array of
# normals holds.
@pytest.mark.parametrize("build, message", [
    (lambda: MeanRequest((), 5, phase="x"), "a request needs at least one arm"),
    (lambda: MeanRequest((), 0, rounds=2**70), "a request needs at least one arm"),
    (lambda: TallyRequest((), 1, (), 0.0), "a request needs at least one arm"),
    (lambda: TallyRequest((), 0, (0,), math.nan), "a request needs at least one arm"),
    (lambda: TallyRequest((0,), 1, (), 0.0), "a tally needs one probe count per arm, got 0 for 1 arms"),
    (lambda: MeanRequest((0,), 1, rounds=2**1100), r"rounds \* len\(arms\) must be below 2\*\*63, got 1101-bit"),
    (lambda: MeanRequest((0,), 1, rounds=2**63), r"rounds \* len\(arms\) must be below 2\*\*63, got 64-bit"),
    (lambda: MeanRequest((0, 1), 1, rounds=2**62), r"rounds \* len\(arms\) must be below 2\*\*63"),
], ids=["mean", "mean-before-counts", "tally", "tally-before-counts", "tally-no-probes",
        "rounds-2**1100", "rounds-2**63", "rounds-2**62-on-two-arms"])
def test_empty_requests_and_rounds_past_int64_are_refused_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


def test_rounds_just_inside_int64_build_with_their_exact_cost():
    request = MeanRequest((0, 1), 3, rounds=2**62 - 1)
    assert request.cost == 3 * 2 * (2**62 - 1) and request.scale == 3**-0.5 / (2**62 - 1)


def test_a_probe_count_that_is_not_a_number_is_refused_as_not_an_integer():
    with pytest.raises(TypeError, match="'str' object cannot be interpreted as an integer"):
        TallyRequest((0, 1), 1, (3, "4"), 0.0)


def test_direct_sample_mean_after_a_request_draws_fresh():
    oracle = SamplingOracle([0.1, 0.2], seed=5)
    twin = np.random.default_rng(5)
    MeanRequest((0, 1), 7).fulfill(oracle)
    twin.standard_normal(2)
    assert oracle.sample_mean(1, 9).hex() == twin.normal(0.2, 9**-0.5).hex()
    assert oracle.rng.bit_generator.state == twin.bit_generator.state


# A sampler called on its own is served as the one-arm request, through the same gate.
@pytest.mark.parametrize("kind", [SamplingOracle, DeterministicOracle])
@pytest.mark.parametrize("direct, request_", [
    (lambda oracle: oracle.sample_mean(2, 7), MeanRequest((2,), 7)),
    (lambda oracle: oracle.sample_mean(0, 2**62), MeanRequest((0,), 2**62)),
    (lambda oracle: oracle.sample_mean(1, np.int64(3)), MeanRequest((1,), 3)),
    (lambda oracle: oracle.count_means_below(1, 9, 40, 0.3), TallyRequest((1,), 9, (40,), 0.3)),
    (lambda oracle: oracle.count_means_below(2, np.int64(2), np.int64(2**62), 0.25),
     TallyRequest((2,), 2, (2**62,), 0.25)),
], ids=["mean", "mean-past-int64", "mean-numpy-count", "tally", "tally-numpy-counts"])
def test_a_direct_sampler_call_is_its_one_arm_request(kind, direct, request_):
    oracle, twin = kind([0.1, 0.2, 0.3], seed=5), kind([0.1, 0.2, 0.3], seed=5)
    for _ in range(3):
        ours, reply = direct(oracle), request_.fulfill(twin)
        theirs = reply[0] if isinstance(request_, MeanRequest) else reply
        assert ours == theirs and float(ours).hex() == float(theirs).hex()
        assert oracle.snapshot() == twin.snapshot()
        assert all(type(n) is int for n in oracle.snapshot())
        assert oracle.rng.bit_generator.state == twin.rng.bit_generator.state
        assert oracle._queued == twin._queued == []


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


# The baseline asks for a block of rounds as ``MeanRequest(arms, 1, rounds=R)``: it must
# be served as its flat request over ``arms * R`` is, but with one sampler call per arm.
@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from([SamplingOracle, DeterministicOracle]),
    means=st.lists(st.floats(-1e6, 1e6), min_size=10, max_size=10),
    order=st.randoms(),
    k=st.integers(1, 10),
    rounds=st.integers(1, 300),
    draws=st.sampled_from([1, 3, 2**40]),
    seed=st.integers(0, 2**64 - 1),
)
def test_a_request_of_several_rounds_is_served_as_its_flat_request(
    kind, means, order, k, rounds, draws, seed
):
    arms = list(range(len(means)))
    order.shuffle(arms)
    arms = tuple(arms[:k])
    block = MeanRequest(arms, draws, rounds=rounds, phase="baseline")
    flat = MeanRequest(arms * rounds, draws, phase="baseline")
    assert (block.cost, list(block.served())) == (flat.cost, list(flat.served()))
    n = len(flat.arms)
    for fit in range(1, n + 2):  # every head a budget stop can serve
        assert block.prefix(fit) == flat.prefix(fit)
    for request in (block, flat):  # a head of no arms is no request: a stop there serves none
        with pytest.raises(ValueError, match="a request needs at least one arm"):
            request.prefix(0)
    # split_at_cap reads only served (equal above) and takes O(fit) time: every fit of
    # a request under 64 entries, else about 64 spread evenly, and the ends; each room
    # from fit * draws to (fit + 1) * draws - 1 splits as fit * draws does
    for fit in {*range(0, n + 2, 1 + n // 64), n - 1, n, n + 1}:
        assert split_at_cap(block, fit * draws) == split_at_cap(flat, fit * draws)
    ours, theirs = kind(means, seed=seed), kind(means, seed=seed)
    reply, rewards = block.fulfill(ours), flat.fulfill(theirs)
    assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state
    assert (ours.snapshot(), dict(ours.draws_by_phase)) == (theirs.snapshot(), dict(theirs.draws_by_phase))
    assert ours._queued == theirs._queued == []
    assert len(reply) == k
    for i, mean in enumerate(reply):
        own = rewards[i::k]
        # relative to the rewards' size too: a mean near 0 is a difference of large terms
        assert math.isclose(mean, math.fsum(own) / rounds, rel_tol=1e-12, abs_tol=1e-12 * max(map(abs, own)))


@pytest.mark.parametrize("kind", [SamplingOracle, DeterministicOracle])
@pytest.mark.parametrize("arms", [(-1,), (0, -3), (3,), (1, 2, 7)])
def test_preview_refuses_an_arm_out_of_range_and_moves_nothing(kind, arms):
    oracle = kind([0.1, 0.2, 0.3], seed=4)
    MeanRequest((0, 1, 2), 1, phase="baseline").fulfill(oracle)
    before = (oracle.rng.bit_generator.state, oracle.snapshot(), dict(oracle.draws_by_phase))
    with pytest.raises(IndexError, match=r"^arm -?\d+ out of range for 3 arms$"):
        oracle.preview(arms, 2)
    assert (oracle.rng.bit_generator.state, oracle.snapshot(), dict(oracle.draws_by_phase)) == before


# The normals a preview draws ahead are the stream's next normals: any mean request takes
# them first and draws only the rest, and a tally or a read of ``rng`` gives them back.
# Two oracles run side by side: ours previews before every step, the twin never does, and
# after every step the replies, ledger, phases and queue must be the twin's, and so must
# the stream wherever ours is read.  Every request, a budget stop's head included, draws
# only the normals past the tail.
TWIN_MEANS = (0.3, -1.5, 0.0, 2.25, 0.7)
_twin_arms = st.lists(st.integers(0, len(TWIN_MEANS) - 1), min_size=1, max_size=6).map(tuple)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from([SamplingOracle, DeterministicOracle]),
    seed=st.integers(0, 2**32),
    steps=st.lists(st.tuples(
        st.sampled_from([None, "tally", "direct", "second preview", "rng"]),  # a use in between
        st.sampled_from(["match", "fewer rounds", "other arms", "budget stop"]),  # the request
        _twin_arms, st.integers(1, 8), st.sampled_from([1, 3, 2**40]), st.integers(0, 2**70),
        st.booleans(),  # read both streams after the step
    ), min_size=1, max_size=6),
)
def test_a_preview_leaves_nothing_that_a_twin_without_it_would_see(kind, seed, steps):
    ours, twin = kind(TWIN_MEANS, seed=seed), kind(TWIN_MEANS, seed=seed)
    drawn, normal = [], ours._normal  # ours' generator calls for normals
    ours._normal = lambda *size: drawn.append(size) or normal(*size)

    def both(serve):
        mine, theirs = serve(ours), serve(twin)
        assert [float(x).hex() for x in np.ravel(mine)] == [float(x).hex() for x in np.ravel(theirs)]

    for between, ask, arms, rounds, draws, cut, read in steps:
        ours.preview(arms, rounds + (ask == "fewer rounds"))
        if between == "tally":
            both(TallyRequest(arms, draws, (cut % 7 + 1,) * len(arms), 0.5, phase="frac").fulfill)
        elif between == "direct":
            both(lambda oracle: oracle.sample_mean(arms[-1], draws))
        elif between == "second preview":  # the block of the "other arms" request only
            ours.preview(arms + arms[:1], rounds)
        elif between == "rng":
            both(lambda oracle: oracle.rng.random())
        request = MeanRequest(arms + arms[:1] if ask == "other arms" else arms, draws, rounds=rounds,
                              phase="baseline")
        need, ahead = rounds * len(request.arms), 0 if ours._tail is None else len(ours._tail)
        del drawn[:]
        if ask == "budget stop":  # the cap falls anywhere short of the request's cost
            budget = ours.total + cut % request.cost
            need = cut % request.cost // draws  # the head it serves, one normal per arm
            for oracle in (ours, twin):
                with pytest.raises(BudgetExceededError):
                    run_one_request(request, oracle, budget)
        else:
            both(request.fulfill)
        assert sum(int(np.prod(size)) for size in drawn) == max(0, need - ahead)  # only past the tail
        assert (ours.snapshot(), dict(ours.draws_by_phase)) == (twin.snapshot(), dict(twin.draws_by_phase))
        assert ours._queued == twin._queued == []
        if read:
            assert ours.rng.bit_generator.state == twin.rng.bit_generator.state
    assert ours.rng.bit_generator.state == twin.rng.bit_generator.state


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
    oracle.queue_tallies(TallyRequest(tuple(range(TALLY_BATCH)), 4, probes, 0.3))
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
    with pytest.raises(ValueError, match="draws and probes must be >= 1"):
        TallyRequest(tuple(range(k)), draws, (3,) * (k - 1) + (last_probe,), 0.2).fulfill(oracle)
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
    MeanRequest, _ledger_arms, st.integers(1, 2**70), phase=st.sampled_from(["med", "anchor"]),
    rounds=st.integers(1, 4),
)
_tally_requests = _ledger_arms.flatmap(lambda arms: st.builds(
    TallyRequest,
    st.just(arms),
    st.integers(1, 2**30),
    st.lists(st.integers(1, 2**20), min_size=len(arms), max_size=len(arms)).map(tuple),
    st.floats(-2.0, 2.0),
    phase=st.sampled_from(["frac", "elim"]),
))
# Malformed requests, built inside each test: most are refused by their constructor.
REFUSED_REQUESTS = [
    lambda: MeanRequest((0, LEDGER_ARMS), 3, phase="med"),  # the arm past the last one
    lambda: MeanRequest((1, -1), 3, phase="med", rounds=2),
    lambda: MeanRequest((1, 2), 0, phase="med"),
    lambda: TallyRequest((0, LEDGER_ARMS), 2, (5, 5), 0.5, phase="frac"),
    lambda: TallyRequest((-1, 0), 2, (5, 5), 0.5, phase="frac"),
    lambda: TallyRequest(tuple(range(LEDGER_ARMS)) + (LEDGER_ARMS,), 2, (5,) * (LEDGER_ARMS + 1), 0.5),
    lambda: TallyRequest((0, 1), 2, (5, 0), 0.5, phase="elim"),
    lambda: TallyRequest((0, 1), 2, (5, 5), float("nan"), phase="elim"),
    lambda: MeanRequest((0, 1), 2**1100, phase="anchor"),
    lambda: TallyRequest((0, 1), 2**1100, (3, 4), 0.0, phase="frac"),
    lambda: TallyRequest((0, 1), 1, (3, 2**64), 0.0, phase="frac"),
    lambda: TallyRequest(tuple(range(LEDGER_ARMS)), 1, (3,) * (LEDGER_ARMS - 1) + (2**64,), 0.0, phase="elim"),
    lambda: TallyRequest((0, 1, 2), 4, (5, 5), 0.0, phase="frac"),  # an arm without probes
    lambda: TallyRequest(tuple(range(TALLY_BATCH)), 2, (5,) * (TALLY_BATCH - 1), 0.5, phase="elim"),
    lambda: TallyRequest((0, 1), 4, (5, 5, 5), 0.0, phase="frac"),  # probes without an arm
    lambda: MeanRequest((), 5, phase="x"),  # no arms
    lambda: TallyRequest((), 1, (), 0.0),
    lambda: MeanRequest((0,), 1, phase="med", rounds=2**1100),  # rounds past one normals array
    lambda: MeanRequest((0,), 1, phase="med", rounds=2**63),
    lambda: MeanRequest((0, 1.0), 3, phase="med"),  # arms that are not integers: TypeError
    lambda: MeanRequest((np.float64(2.0),), 1, rounds=3),
    lambda: MeanRequest((1, np.True_), 2, phase="anchor"),
    lambda: TallyRequest((0, 1.0), 2, (5, 5), 0.5, phase="frac"),
    lambda: TallyRequest(tuple(range(TALLY_BATCH - 1)) + (1.0,), 2, (5,) * TALLY_BATCH, 0.5),
    lambda: MeanRequest((0, "1"), 3),
    lambda: MeanRequest((np.int64(2**62), np.int64(2**62)), 1),  # an int sum of them would wrap
    lambda: TallyRequest((np.int64(2**62),) * 3, 1, (2, 2, 2), 0.0, phase="frac"),
    lambda: TallyRequest((0, "x"), 1, (2, 3), 0.0),  # a str arm: TypeError naming it
]
# Direct sampler calls, with Python or numpy-int counts: each is served as its one-arm request.
_arm = st.integers(0, LEDGER_ARMS - 1)
_count = st.one_of(st.integers(1, 2**31), st.integers(1, 2**31).map(np.int64))
_direct_calls = st.one_of(
    st.tuples(st.just("sample_mean"), st.tuples(_arm, _count)),
    st.tuples(st.just("count_means_below"), st.tuples(_arm, _count, _count, st.floats(-2.0, 2.0))),
)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32),
    steps=st.lists(st.one_of(
        st.tuples(st.one_of(_mean_requests, _tally_requests), st.sampled_from(["whole", "head"])),
        st.tuples(st.sampled_from(REFUSED_REQUESTS), st.just("refused")),
        st.tuples(_direct_calls, st.just("direct")),
    ), max_size=12),
)
def test_total_phases_and_ledger_agree_after_any_mix_of_requests(seed, steps):
    for kind in (SamplingOracle, DeterministicOracle):
        oracle = kind([arm / LEDGER_ARMS for arm in range(LEDGER_ARMS)], seed=seed)
        for request, how in steps:
            if how == "whole":
                request.fulfill(oracle)
            elif how == "head":  # the cap stops the request one draw short
                with pytest.raises(BudgetExceededError):
                    run_one_request(request, oracle, budget=oracle.total + request.cost - 1)
            elif how == "direct":
                sampler, args = request
                getattr(oracle, sampler)(*args)
            else:
                with pytest.raises((ValueError, IndexError, TypeError)):
                    request().fulfill(oracle)
            assert oracle.total == sum(oracle.draws_by_phase.values())
        ledger, phases = oracle.snapshot(), list(oracle.draws_by_phase.values())
        assert oracle.total == sum(ledger) == sum(phases)
        assert all(type(n) is int for n in ledger + phases)


# Both oracle kinds refuse through the one gate: the same error, and nothing charged,
# drawn or queued; a direct sampler call on a negative arm is refused the same way.
@pytest.mark.parametrize("kind", [SamplingOracle, DeterministicOracle])
@pytest.mark.parametrize("refuse", [
    *(lambda oracle, build=build: build().fulfill(oracle) for build in REFUSED_REQUESTS),
    lambda oracle: oracle.sample_mean(-1, 5),
    lambda oracle: oracle.count_means_below(-1, 1, 3, 0.0),
], ids=[*(f"refused-{i}" for i in range(len(REFUSED_REQUESTS))),
        "sample_mean-arm--1", "count_means_below-arm--1"])
def test_every_refusal_leaves_both_oracle_kinds_as_they_were(kind, refuse):
    means = [arm / LEDGER_ARMS for arm in range(LEDGER_ARMS)]
    oracle, reference = kind(means, seed=6), SamplingOracle(means, seed=6)
    MeanRequest((0, 1), 3, phase="anchor").fulfill(oracle)
    before = (oracle.rng.bit_generator.state, oracle.snapshot(), dict(oracle.draws_by_phase))
    with pytest.raises((ValueError, IndexError, TypeError)) as refused:
        refuse(oracle)
    assert (oracle.rng.bit_generator.state, oracle.snapshot(), dict(oracle.draws_by_phase)) == before
    assert oracle._queued == []
    with pytest.raises(type(refused.value), match=f"^{re.escape(str(refused.value))}$"):
        refuse(reference)


# A budget never turns a refusal into a budget stop: a malformed request, built inside
# its plan, is refused by ``run_plan`` with the error it gets without a cap, and nothing
# is served, charged or drawn first.
def _one_request_plan(build):
    return (yield build())


def _refusal(kind, means, build, budget):
    """``run_plan``'s refusal of the plan of ``build()`` under ``budget``, as (type, message),
    once it is checked to have left a fresh oracle of ``kind`` as it was."""
    oracle = kind(means, seed=3)
    state = oracle.rng.bit_generator.state
    with pytest.raises((ValueError, IndexError, TypeError)) as refused:
        run_plan(_one_request_plan(build), oracle, budget)
    assert (oracle.rng.bit_generator.state, oracle.snapshot(), dict(oracle.draws_by_phase)) == (
        state, [0] * len(means), {})
    assert oracle._queued == []
    return type(refused.value), str(refused.value)


@pytest.mark.parametrize("kind", [SamplingOracle, DeterministicOracle])
@pytest.mark.parametrize("build, budget, refusal", [  # under each budget, a head of the request fits
    (lambda: TallyRequest((0, 1, 2), 4, (5, 5), 0.0), 30,
     (ValueError, "a tally needs one probe count per arm, got 2 for 3 arms")),
    (lambda: TallyRequest((0, 1), 2, (5, 2**64), 0.0), 30,
     (ValueError, f"probes must be within the int64 range, got {2**64}")),
    (lambda: MeanRequest((0, 7), 5), 7, (IndexError, "arm 7 out of range for 3 arms")),
], ids=["arm-without-probes", "probes-past-int64", "arm-out-of-range"])
def test_a_budget_never_turns_a_refusal_into_a_stop(kind, build, budget, refusal):
    means = [0.1, 0.2, 0.3]
    assert _refusal(kind, means, build, None) == _refusal(kind, means, build, budget) == refusal


@pytest.mark.parametrize("kind", [SamplingOracle, DeterministicOracle])
@pytest.mark.parametrize("budget", [0, 1])
@pytest.mark.parametrize("build", REFUSED_REQUESTS,
                         ids=[f"refused-{i}" for i in range(len(REFUSED_REQUESTS))])
def test_every_refused_request_is_refused_alike_under_any_budget(kind, budget, build):
    means = [arm / LEDGER_ARMS for arm in range(LEDGER_ARMS)]
    assert _refusal(kind, means, build, budget) == _refusal(kind, means, build, None)


def test_fulfilled_requests_charge_their_phase_once_all_draws_are_taken():
    oracle = SamplingOracle([0.1, 0.2, 0.3], seed=2)
    MeanRequest((0, 1), 5, phase="med").fulfill(oracle)
    TallyRequest((2, 0), 3, (4, 1), 0.2, phase="frac").fulfill(oracle)
    MeanRequest((1,), 7).fulfill(oracle)  # untagged requests go to ""
    assert oracle.draws_by_phase == {"med": 10, "frac": 15, "": 7}
    with pytest.raises(ValueError):
        MeanRequest((0, 1), 0, phase="med").fulfill(oracle)
    with pytest.raises(IndexError):  # arm 3 is refused before arm 0 is drawn: no charge at all
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


def test_numpy_integer_counts_keep_the_ledger_exact_past_int64():
    # two charges of 2^62 (or more) per arm: a ledger entry of numpy ints would wrap;
    # tallies past TALLY_BATCH arms are queued, those below are served arm by arm
    big = np.int64(2**62)
    served = [
        lambda oracle: oracle.sample_mean(0, big),
        lambda oracle: MeanRequest((0, 1), big, phase="med").fulfill(oracle),
        lambda oracle: MeanRequest((2, 0), np.int64(2**60), phase="med", rounds=np.int64(4)).fulfill(oracle),
        lambda oracle: TallyRequest((0, 1), 1, (big, big), 0.0, phase="frac").fulfill(oracle),
        lambda oracle: TallyRequest((1, 2), np.int64(2**31), (2**31, np.int64(2**31)), 0.0).fulfill(oracle),
        lambda oracle: TallyRequest((0, 1, 2) * 6, 1, (np.int64(2**60),) * 18, 0.0).fulfill(oracle),
        lambda oracle: MeanRequest((1, 2), 2**61, rounds=np.int64(2)).fulfill(oracle),
        lambda oracle: (oracle.count_means_below(0, 1, 2**63 - 1, 0.0),
                        oracle.count_means_below(0, 1, np.int64(5), 0.0)),
    ]
    exact = [
        lambda oracle: oracle.sample_mean(0, 2**62),
        lambda oracle: MeanRequest((0, 1), 2**62, phase="med").fulfill(oracle),
        lambda oracle: MeanRequest((2, 0), 2**60, phase="med", rounds=4).fulfill(oracle),
        lambda oracle: TallyRequest((0, 1), 1, (2**62, 2**62), 0.0, phase="frac").fulfill(oracle),
        lambda oracle: TallyRequest((1, 2), 2**31, (2**31, 2**31), 0.0).fulfill(oracle),
        lambda oracle: TallyRequest((0, 1, 2) * 6, 1, (2**60,) * 18, 0.0).fulfill(oracle),
        lambda oracle: MeanRequest((1, 2), 2**61, rounds=2).fulfill(oracle),
        lambda oracle: (oracle.count_means_below(0, 1, 2**63 - 1, 0.0),
                        oracle.count_means_below(0, 1, 5, 0.0)),
    ]
    for serve, twin_serve in zip(served, exact):
        oracle, twin = SamplingOracle([0.1, 0.2, 0.3], seed=9), SamplingOracle([0.1, 0.2, 0.3], seed=9)
        assert [serve(oracle) for _ in range(2)] == [twin_serve(twin) for _ in range(2)]
        ledger, phases = oracle.snapshot(), dict(oracle.draws_by_phase)
        assert (ledger, phases) == (twin.snapshot(), dict(twin.draws_by_phase))
        assert oracle.rng.bit_generator.state == twin.rng.bit_generator.state
        assert all(type(n) is int for n in ledger + list(phases.values()))
        assert max(ledger) >= 2**63 and oracle.total == sum(phases.values() or ledger)


@pytest.mark.parametrize("request_", [
    MeanRequest((0, 1), np.int64(2**62)),
    MeanRequest((0, 1), 2**61, rounds=np.int64(2)),
    TallyRequest((0, 1), 1, (np.int64(2**62),) * 2, 0.0),
    TallyRequest((0, 1), np.int64(2**31), (2**31, np.int64(2**31)), 0.0),
], ids=["mean", "mean-numpy-rounds", "tally", "tally-numpy-draws"])
def test_numpy_integer_counts_cost_exact_ints_and_stop_at_the_budget(request_):
    # as numpy ints, the cost would wrap to -2**63 and pass any cap
    costs = [cost for _, cost in request_.served()]
    assert request_.cost == sum(costs) == 2**63
    assert all(type(n) is int for n in [request_.cost, *costs])
    oracle = SamplingOracle([0.1, 0.2], seed=2)
    with pytest.raises(BudgetExceededError):
        run_one_request(request_, oracle, budget=10)
    assert (oracle.snapshot(), dict(oracle.draws_by_phase), oracle._queued) == ([0, 0], {}, [])
    assert oracle.rng.bit_generator.state == np.random.default_rng(2).bit_generator.state


@pytest.mark.parametrize("refused", [
    lambda oracle: MeanRequest((0,), 2.0).fulfill(oracle),
    lambda oracle: MeanRequest((0, 1), 1, rounds=1.5).fulfill(oracle),
    lambda oracle: TallyRequest((0, 1), 1, (2, 3.0), 0.0).fulfill(oracle),
    lambda oracle: oracle.sample_mean(0, 2.0),
])
def test_a_count_that_is_not_an_integer_is_refused_before_any_charge(refused):
    oracle = SamplingOracle([0.1, 0.2], seed=3)
    with pytest.raises(TypeError):
        refused(oracle)
    assert (oracle.snapshot(), dict(oracle.draws_by_phase), oracle._queued) == ([0, 0], {}, [])
    assert oracle.rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


# An arm that is not an integer is refused where its request is built, before anything is
# charged, drawn or queued: a float equal to an arm index passes the oracle's range check.
@pytest.mark.parametrize("kind", [SamplingOracle, DeterministicOracle])
@pytest.mark.parametrize("refused", [
    lambda oracle: MeanRequest((0, 1.0), 3).fulfill(oracle),
    lambda oracle: TallyRequest((0, np.float64(1.0)), 1, (3, 4), 0.0).fulfill(oracle),
    lambda oracle: oracle.sample_mean(1.0, 3),
    lambda oracle: oracle.count_means_below(np.bool_(True), 1, 3, 0.0),
    lambda oracle: oracle.draw(0.0),
], ids=["mean", "tally", "sample_mean", "count_means_below", "draw"])
def test_an_arm_that_is_not_an_integer_is_refused_before_any_charge(kind, refused):
    oracle = kind([0.1, 0.2], seed=3)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        refused(oracle)
    assert (oracle.snapshot(), dict(oracle.draws_by_phase), oracle._queued) == ([0, 0], {}, [])
    assert oracle.rng.bit_generator.state == np.random.default_rng(3).bit_generator.state
    assert oracle.sample_mean(0, 1) == kind([0.1, 0.2], seed=3).sample_mean(0, 1)  # no stale normal


def test_numpy_integer_arms_are_served_as_their_python_ints():
    means = [0.1, 0.2, 0.3] * 6
    for build, arms in [
        (lambda arms: MeanRequest(arms, 3, rounds=2), (np.int64(2), np.int32(0), 1)),
        (lambda arms: TallyRequest(arms, 2, (5,) * len(arms), 0.2), (np.int64(1), 0)),
        (lambda arms: TallyRequest(arms, 2, (5,) * len(arms), 0.2), tuple(map(np.int16, range(TALLY_BATCH)))),
    ]:
        ours, theirs = build(arms), build(tuple(map(int, arms)))
        assert ours == theirs and all(type(arm) is int for arm in ours.arms)
        oracle, twin = SamplingOracle(means, seed=8), SamplingOracle(means, seed=8)
        assert ours.fulfill(oracle) == theirs.fulfill(twin)
        assert (oracle.snapshot(), oracle.rng.bit_generator.state) == (twin.snapshot(), twin.rng.bit_generator.state)


def test_numpy_int_arms_past_int64_are_refused_by_the_oracle_without_a_warning():
    # The arm test adds numpy ints as floats: an int sum of them would wrap, with a warning.
    for build in (lambda: MeanRequest((np.int64(2**62), np.int64(2**62)), 1),
                  lambda: TallyRequest((np.int64(2**62), np.int64(2**62)), 1, (3, 4), 0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            request = build()
            assert request.arms == (2**62, 2**62) and all(type(arm) is int for arm in request.arms)
            with pytest.raises(IndexError, match=f"^arm {2**62} out of range for 3 arms$"):
                request.fulfill(SamplingOracle([0.1, 0.2, 0.3], seed=1))


@pytest.mark.parametrize("build, arm", [
    (lambda: MeanRequest((0, "x"), 3), "'x'"),
    (lambda: MeanRequest((1, 2.0), 3, rounds=2), "2.0"),
    (lambda: TallyRequest(("1", 0), 2, (5, 5), 0.5), "'1'"),
    (lambda: TallyRequest(tuple(range(TALLY_BATCH - 1)) + (None,), 2, (5,) * TALLY_BATCH, 0.5), "None"),
], ids=["mean-str", "mean-float", "tally-str", "tally-none"])
def test_an_arm_that_is_not_an_integer_is_named(build, arm):
    with pytest.raises(TypeError, match=f"^arm {re.escape(arm)}: .* cannot be interpreted as an integer$"):
        build()


def test_int_seed_words_come_from_a_bounded_cache_bit_for_bit():
    means, ladder = [0.1, 0.2, 0.3], Instance.from_means((1.0, 0.5))
    for again in (False, True):  # each seed asked twice, with ladder runs (other seed words) between
        for seed in (0, 1, 2**32, 2**64 + 5, 2**200):
            hits = _seed_words.cache_info().hits
            assert SamplingOracle(means, seed).rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
            assert _seed_words.cache_info().hits == hits + 1 or not again  # asked again: from the cache
            parallel_simulation(ladder, 0.1, seed=seed)
    assert _seed_words(2**200) is _seed_words(2**200)
    for seed in (np.int64(5), np.uint32(2**32 - 1)):  # other seeds take default_rng's own path
        assert SamplingOracle(means, seed).rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
    assert SamplingOracle(means, None).rng.bit_generator.state != SamplingOracle(means, None).rng.bit_generator.state
    misses = _seed_words.cache_info().misses
    with pytest.raises(ValueError, match="non-negative"):  # numpy's own refusal
        SamplingOracle(means, -1)
    assert _seed_words.cache_info().misses == misses
    for seed in range(10**6, 10**6 + 300):
        SamplingOracle(means, seed)
    assert _seed_words.cache_info().currsize == _seed_words.cache_info().maxsize == 256
