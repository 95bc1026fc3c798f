"""The library's median-elimination and baseline rounds against reference plans.

The references are the straightforward forms of the two loops: a dict of
estimates sorted with a lambda key, and per-arm dict sums with a
per-arm lower bound, one request per baseline round.  The library's forms
sort positions with ``reverse=True``, and race the baseline in blocks of
rounds previewed ahead, one request up to the first drop, with its sums in
a list aligned with the active arms; they must give the same outcome, the
same per-arm draws and leave the same generator state, tied means and
budget stops inside a block included.  The block's end, found from radii
cached per process, must be the row that scanning every row's radius finds,
and the cached radii must be ``se_radius``, bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bestarm import (
    Instance,
    SamplingOracle,
    baseline_successive_elimination_plan,
    known_complexity_plan,
    make_discrete_instance,
    parallel_simulation,
    profile,
    run_plan,
    solve,
)
from bestarm import solvers
from bestarm.primitives import MeanRequest, _check_members, _count, med_elim_plan
from bestarm.solvers import BASELINE_BLOCK, RADIUS_CHUNK, SolveResult, _block_end, _radius_chunk, se_radius
from doubles import DeterministicOracle
from test_acceptance import DESK_INSTANCES


def reference_med_elim_plan(members, eps, delta):
    active = _check_members(members)
    eps_l = eps / 4.0
    delta_l = delta / 2.0
    while len(active) > 1:
        draws = _count(2.0 * (eps_l / 2.0) ** -2 * math.log(3.0 / delta_l))
        means = yield MeanRequest(tuple(active), draws)
        estimates = dict(zip(active, means))
        keep = (len(active) + 1) // 2
        active = sorted(active, key=lambda a: -estimates[a])[:keep]
        eps_l *= 0.75
        delta_l /= 2.0
    return active[0]


def reference_baseline_plan(oracle, instance, delta, emit=None):
    members = [int(a) for a in oracle.rng.permutation(instance.n_arms)]
    n = instance.n_arms
    sums = {arm: 0.0 for arm in members}
    active = members
    r = 0
    while len(active) > 1:
        r += 1
        rewards = yield MeanRequest(tuple(active), 1)
        for arm, reward in zip(active, rewards):
            sums[arm] += reward
        radius = se_radius(r, n, delta)
        means = {arm: sums[arm] / r for arm in active}
        best_lcb = max(means[arm] - radius for arm in active)
        active = [arm for arm in active if means[arm] + radius >= best_lcb]
    return SolveResult(arm=active[0], rounds=r)


def reference_block_end(ahead, r, n, delta):
    """The first row of the block at which an arm drops or the radius is infinite,
    from every row's radius."""
    block = len(ahead)
    qs = range(r + 1, r + block + 1)
    rs = np.array(qs, dtype=float)
    radii = np.array([se_radius(q, n, delta) for q in qs])
    drops = ahead.min(axis=1) / rs + radii < ahead.max(axis=1) / rs - radii
    ends = drops | (radii == math.inf)
    return int(ends.argmax()) + 1 if ends.any() else block


# Sub-optimal arms share few gap values, so tied means are common.
tied_instances = st.lists(st.sampled_from([0.25, 0.375, 0.5, 0.75]), min_size=1, max_size=5).map(
    lambda gaps: Instance.from_means((1.0,) + tuple(1.0 - g for g in gaps), label="tied")
)
deltas = st.floats(0.05, 0.5)
oracle_kinds = st.sampled_from([SamplingOracle, DeterministicOracle])
seeds = st.integers(0, 2**32 - 1)


def state(oracle):
    return oracle.rng.bit_generator.state


@settings(max_examples=150)
@given(tied_instances, st.floats(0.25, 1.0), deltas, oracle_kinds, seeds, st.randoms())
def test_med_elim_matches_reference(instance, eps, delta, kind, seed, rnd):
    members = list(range(instance.n_arms))
    rnd.shuffle(members)
    ours, ref = kind.for_instance(instance, seed), kind.for_instance(instance, seed)
    winner = run_plan(med_elim_plan(members, eps, delta), ours)
    assert winner == run_plan(reference_med_elim_plan(members, eps, delta), ref)
    assert ours.counts.tolist() == ref.counts.tolist()
    assert state(ours) == state(ref)


@settings(max_examples=100)
@given(tied_instances, deltas, oracle_kinds, seeds)
def test_known_complexity_matches_reference_med_elim(instance, delta, kind, seed):
    H = profile(instance).H
    ours, ref = kind.for_instance(instance, seed), kind.for_instance(instance, seed)
    outcome = solve(known_complexity_plan, ours, instance, delta, H, budget=None)
    with mock.patch("bestarm.solvers.med_elim_plan", reference_med_elim_plan):
        expected = solve(known_complexity_plan, ref, instance, delta, H, budget=None)
    assert outcome == expected
    assert state(ours) == state(ref)


@settings(max_examples=100)
@given(tied_instances, deltas, oracle_kinds, seeds, st.integers(0, 5000))
def test_baseline_matches_reference(instance, delta, kind, seed, budget):
    ours, ref = kind.for_instance(instance, seed), kind.for_instance(instance, seed)
    outcome = solve(baseline_successive_elimination_plan, ours, instance, delta, budget=budget)
    expected = solve(reference_baseline_plan, ref, instance, delta, budget=budget)
    assert outcome == expected
    assert state(ours) == state(ref)


def test_baseline_keeps_an_arm_exactly_at_the_bound():
    # Round 1 draws rewards 2R, 0 and (third arm) -1 with radius R: the
    # arm at 0 has upper bound 0 + R == 2R - R, the best lower bound, so
    # it survives the round; the arm at -1 leaves.
    delta = 0.1
    for extra in ((), (-1.0,)):
        n = 2 + len(extra)
        radius = se_radius(1, n, delta)
        rewards = (2.0 * radius, 0.0) + extra
        instance = Instance.from_means((1.0,) + (0.5,) * (n - 1), label="bound")
        ours, ref = DeterministicOracle(rewards, seed=0), DeterministicOracle(rewards, seed=0)
        outcome = solve(baseline_successive_elimination_plan, ours, instance, delta)
        assert outcome == solve(reference_baseline_plan, ref, instance, delta)
        assert outcome.arm == 0 and outcome.rounds_executed == 2
        assert outcome.per_arm_samples == (2, 2) + (1,) * len(extra)


def first_block(survivors):
    """The rounds of the first block over ``survivors`` arms, and of the first after a drop."""
    return max(1, solvers.BASELINE_CELLS // survivors)


def block_cap(survivors):
    """The most rounds a block over ``survivors`` arms takes: ``BASELINE_BLOCK``, or twice the
    first block where that is more (fewer than 8 survivors), so that such a block starts at
    ``BASELINE_CELLS`` normals and doubles once."""
    return max(BASELINE_BLOCK, 2 * (solvers.BASELINE_CELLS // survivors))


# Two arms at delta = 1e-299: the radius overflows from round 14,991 on.
EDGE_N, EDGE_DELTA, EDGE_OVERFLOW = 2, 1e-299, 14_991
# Near the bound: exactly at it, an ulp or a rounding margin either side, or well off.
BOUND_OFFSETS = (0.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 0.5, -0.5)


def first_infinite_round(n, delta):
    """The first round at which ``se_radius`` is infinite, found by bisection, however far."""
    lo, hi = 1, 2**600  # 4 n r^2 overflows at r = 2**600 whatever n and delta
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if se_radius(mid, n, delta) == math.inf else (mid + 1, hi)
    return lo


@st.composite
def previewed_blocks(draw):
    """``(ahead, r, n, delta)``: running sums whose spread in each row lies near twice
    that row's radius, some blocks straddling the round where the radius overflows."""
    n = draw(st.integers(2, 10**4))
    delta = 10 ** draw(st.floats(-300, math.log10(0.999)))
    block = draw(st.integers(1, BASELINE_BLOCK))
    overflow = first_infinite_round(n, delta)
    if draw(st.booleans()) and overflow < 10**12:
        r = max(0, overflow - draw(st.integers(1, block + 1)))
    else:
        r = draw(st.integers(0, 10**12))
    base = draw(st.floats(-1e6, 1e6))
    offsets = draw(st.lists(st.one_of(st.sampled_from(BOUND_OFFSETS), st.floats(-1.0, 1.0)),
                            min_size=block, max_size=block))
    rows = []
    for q, offset in zip(range(r + 1, r + block + 1), offsets):
        radius = min(se_radius(q, n, delta), 1.0)
        spread = 2.0 * radius * (1.0 + offset)
        rows.append([base * q, (base + spread / 2.0) * q, (base + spread) * q])
    return np.array(rows), r, n, delta


def _edge_block(r, rows, drops, n=EDGE_N, delta=EDGE_DELTA):
    """A block after round r, by default at the overflow edge, with no spread but at ``drops``."""
    ahead = np.zeros((rows, n))
    ahead[drops, 1] = 1.0e5
    return ahead, r, n, delta


def _bound_block():
    """Round 1 sits exactly at the bound (spread 2 * radius, which keeps the arm), rounds
    2 to 4 have no spread."""
    ahead = np.zeros((4, 2))
    ahead[0, 1] = 2.0 * se_radius(1, 2, 0.1)
    return ahead, 0, 2, 0.1


@settings(max_examples=150, deadline=None)
@given(previewed_blocks())
@example(_edge_block(EDGE_OVERFLOW - 11, 32, [5, 20]))  # straddles the overflow, drops before it
@example(_edge_block(EDGE_OVERFLOW - 11, 32, [20]))  # ends at the first infinite row
@example(_edge_block(EDGE_OVERFLOW - 1, 8, [0, 3]))  # the first row is already infinite
@example((np.zeros((4, 2)), 0, 2, 5e-324))  # a run's first row is already infinite
@example(_bound_block())  # a spread of exactly twice the radius does not drop
# The largest blocks the schedule asks for, over 2 and 3 survivors: across the overflow, and
# at a run's start, dropping late in the block or not at all.
@example(_edge_block(EDGE_OVERFLOW - block_cap(2) // 2, block_cap(2), [block_cap(2) - 1]))
@example(_edge_block(first_infinite_round(3, EDGE_DELTA) - block_cap(3) // 2, block_cap(3), [block_cap(3) - 1],
                     n=3))
@example(_edge_block(0, block_cap(2), [block_cap(2) - 2], delta=0.01))
@example(_edge_block(0, block_cap(3), [], n=3, delta=0.01))
@example(_edge_block(RADIUS_CHUNK - 5, 32, [20], delta=0.01))  # its radii come from two chunks
def test_block_end_matches_the_full_scan(case):
    ahead, r, n, delta = case
    assert _block_end(ahead, r, n, delta) == reference_block_end(ahead, r, n, delta)


def test_block_end_examples_end_where_they_should():
    assert se_radius(EDGE_OVERFLOW - 1, EDGE_N, EDGE_DELTA) < math.inf
    assert first_infinite_round(EDGE_N, EDGE_DELTA) == EDGE_OVERFLOW
    assert _block_end(*_edge_block(EDGE_OVERFLOW - 11, 32, [5, 20])) == 6
    assert _block_end(*_edge_block(EDGE_OVERFLOW - 11, 32, [20])) == 11
    assert _block_end(*_edge_block(EDGE_OVERFLOW - 1, 8, [0, 3])) == 1
    assert _block_end(*_bound_block()) == 4
    assert _block_end(np.zeros((4, 2)), 0, 2, 5e-324) == 1
    assert _block_end(*_edge_block(EDGE_OVERFLOW - 1024, block_cap(2), [block_cap(2) - 1])) == 1024
    assert _block_end(*_edge_block(0, block_cap(2), [block_cap(2) - 2], delta=0.01)) == block_cap(2) - 1
    assert _block_end(*_edge_block(0, block_cap(3), [], n=3, delta=0.01)) == block_cap(3)
    assert _block_end(*_edge_block(RADIUS_CHUNK - 5, 32, [20], delta=0.01)) == 21


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 10**4),
    delta=st.floats(1e-300, 1.0, exclude_max=True),
    block=st.integers(1, BASELINE_BLOCK),
    near=st.booleans(),  # a block that reaches the first infinite row, or one anywhere
    back=st.integers(0, 2 * BASELINE_BLOCK),
    anywhere=st.integers(0, 10**12),
)
@example(n=2, delta=EDGE_DELTA, block=BASELINE_BLOCK, near=True, back=0, anywhere=0)
@example(n=2, delta=math.nextafter(1.0, 0.0), block=BASELINE_BLOCK, near=True, back=0, anywhere=0)
@example(n=10**4, delta=1e-300, block=1, near=False, back=0, anywhere=0)
# The largest blocks over 2 and 3 survivors, ending at the last finite row, and at a run's start.
@example(n=2, delta=EDGE_DELTA, block=block_cap(2), near=True, back=block_cap(2) - 1, anywhere=0)
@example(n=3, delta=EDGE_DELTA, block=block_cap(3), near=True, back=block_cap(3) - 1, anywhere=0)
@example(n=2, delta=0.01, block=block_cap(2), near=False, back=0, anywhere=0)
@example(n=3, delta=0.01, block=block_cap(3), near=False, back=0, anywhere=0)
@example(n=7, delta=0.01, block=32, near=False, back=0, anywhere=RADIUS_CHUNK - 5)  # across two chunks
# Round 328,372 at n = 2 and delta = 0.01: numpy's ``log`` misses ``math.log`` there by an ulp
# on an AVX-512 host, and so would the radius built from it.
@example(n=2, delta=0.01, block=32, near=False, back=0, anywhere=328_372 - 10)
def test_cached_radii_equal_se_radius_bit_for_bit(n, delta, block, near, back, anywhere):
    """``_block_end`` takes every row's radius from the cached chunks, so each must be the
    row's ``se_radius``, bit for bit, infinite rows included: over the block's own rounds,
    near the first infinite one or anywhere, from one chunk or two."""
    overflow = first_infinite_round(n, delta)
    r = max(0, overflow - 2 - back) if near else anywhere  # near: ``back`` rows short of the last finite one
    first, start = divmod(r, RADIUS_CHUNK)  # as ``_block_end`` takes them
    chunks = [_radius_chunk(n, delta, c) for c in range(first, (r + block - 1) // RADIUS_CHUNK + 1)]
    cached = np.concatenate(chunks)[start:start + block].tolist()
    assert [x.hex() for x in cached] == [se_radius(q, n, delta).hex() for q in range(r + 1, r + block + 1)]


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_baseline_matches_reference_where_the_radius_overflows_inside_a_block(seed):
    """Arm 1 leaves the race a few dozen rounds before the radius overflows, inside a
    block that reaches past that round.  Taking the block's infinite last radius for
    every row would find no row that could drop, run past the drop and refuse the run."""
    instance = Instance.from_means((1.0, 0.385), label="overflow edge")
    ours, ref = (SamplingOracle.for_instance(instance, seed) for _ in range(2))
    outcome = solve(baseline_successive_elimination_plan, ours, instance, EDGE_DELTA)
    assert outcome == solve(reference_baseline_plan, ref, instance, EDGE_DELTA)
    assert outcome.status == "ok" and outcome.arm == 0
    assert outcome.rounds_executed < EDGE_OVERFLOW
    assert state(ours) == state(ref)


def recorded(requests):
    """The baseline plan, appending every request it yields to ``requests``."""
    def plan(oracle, instance, delta, emit=None):
        inner = baseline_successive_elimination_plan(oracle, instance, delta)
        reply = None
        while True:
            try:
                request = inner.send(reply)
            except StopIteration as stop:
                return stop.value
            requests.append(request)
            reply = yield request
    return plan


WIDE_100 = make_discrete_instance({1: 33, 2: 33, 3: 33}, 1.0, label="wide-100")
# On 100 arms a block starts at 20 rounds; with ``BASELINE_CELLS`` at 1, at one round.
BLOCK_FLOORS = [pytest.param(instance, None, id=instance.label) for instance in DESK_INSTANCES] + [
    pytest.param(WIDE_100, None, id="wide-100"),
    pytest.param(DESK_INSTANCES[6], 1, id=f"{DESK_INSTANCES[6].label}-one-round-floor"),
]


@pytest.mark.parametrize("instance, cells", BLOCK_FLOORS)
def test_baseline_blocks_match_reference_on_the_desk(instance, cells, monkeypatch):
    """Budget stops land inside blocks of many rounds, and stop where the reference stops,
    whatever the rounds a block starts at after a drop."""
    if cells is not None:
        monkeypatch.setattr(solvers, "BASELINE_CELLS", cells)
    rng = np.random.default_rng(0)
    stops = inside = 0
    for seed in range(5):
        oracle = SamplingOracle.for_instance(instance, seed)
        free = solve(baseline_successive_elimination_plan, oracle, instance, 0.01)
        for budget in (None, int(rng.integers(min(free.total_samples, 200_000)))):
            requests = []
            ours, ref = (SamplingOracle.for_instance(instance, seed) for _ in range(2))
            outcome = solve(recorded(requests), ours, instance, 0.01, budget=budget)
            assert outcome == solve(reference_baseline_plan, ref, instance, 0.01, budget=budget)
            assert state(ours) == state(ref)
            for before, request in zip([None] + requests, requests):
                if before is None or request.arms != before.arms:  # the first block, or the first after a drop
                    assert request.rounds <= first_block(len(request.arms))
                assert request.rounds <= block_cap(len(request.arms))
            if outcome.status == "budget_exceeded":
                stops += 1
                inside += requests[-1].rounds > 1
    assert stops >= 5 and inside >= stops // 2


@pytest.mark.parametrize("instance", DESK_INSTANCES, ids=lambda inst: inst.label)
def test_baseline_asks_for_few_requests_of_bounded_length(instance):
    """The first block, and the first after a drop, preview ``first_block`` rounds; each
    next block doubles, up to ``block_cap``, while no arm drops, and only the block of a
    drop asks for fewer rounds than it previewed.  So a stretch of R rounds between two
    drops, over s survivors, takes at most d + 1 blocks, d = ceil(log2(cap / floor)), plus
    one per cap of rounds past them: once it has more, its block d + 1 and every later one
    but the last take the cap whole, and all of them fit in R."""
    n = instance.n_arms
    for seed in range(5):
        requests, previews = [], []
        oracle = SamplingOracle.for_instance(instance, seed)
        preview = oracle.preview

        def recorded_preview(arms, rounds):
            previews.append(rounds)
            return preview(arms, rounds)

        oracle.preview = recorded_preview
        outcome = solve(recorded(requests), oracle, instance, 0.01)
        rounds = outcome.rounds_executed
        assert len(requests) == len(previews) < rounds == sum(request.rounds for request in requests)
        stretches = {}  # survivors -> [blocks, rounds]; each set of survivors is one stretch
        for request in requests:
            stretch = stretches.setdefault(request.arms, [0, 0])
            stretch[0] += 1
            stretch[1] += request.rounds
        assert len(stretches) < n
        for arms, (blocks, stretch_rounds) in stretches.items():
            s = len(arms)
            doublings = math.ceil(math.log2(block_cap(s) / first_block(s)))
            assert blocks <= doublings + 1 + stretch_rounds / block_cap(s)
        survivors = ()
        for i, (request, previewed) in enumerate(zip(requests, previews)):
            # whole rounds over the distinct survivors, in a fixed order
            assert (request.draws, request.phase) == (1, "baseline")
            assert len(set(request.arms)) == len(request.arms) > 1
            if request.arms != survivors:  # the first block, and the first after a drop
                if survivors:  # fewer arms, in their order before the drop
                    assert request.arms == tuple(arm for arm in survivors if arm in request.arms)
                    assert len(request.arms) < len(survivors)
                else:
                    assert sorted(request.arms) == list(range(n))
                survivors, block = request.arms, first_block(len(request.arms))
            else:
                block = min(2 * block, block_cap(len(survivors)))
            assert previewed == block
            drops = i + 1 == len(requests) or requests[i + 1].arms != survivors
            assert request.rounds == previewed or drops and request.rounds < previewed


def test_a_preview_asks_for_at_most_the_largest_block(monkeypatch):
    """What the oracle draws ahead for the baseline is bounded by its survivors: at most
    ``BASELINE_BLOCK`` rounds over them, or ``2 * BASELINE_CELLS`` normals (32 KB) where
    that is more, on the desk, on 100 arms and on the ladder."""
    asked = []
    preview = SamplingOracle.preview

    def recorded_preview(self, arms, rounds):
        asked.append((len(arms), rounds * len(arms)))
        return preview(self, arms, rounds)

    monkeypatch.setattr(SamplingOracle, "preview", recorded_preview)
    for instance in DESK_INSTANCES + [WIDE_100]:
        solve(baseline_successive_elimination_plan, SamplingOracle.for_instance(instance, 0), instance, 0.01)
    ladder = len(asked)
    parallel_simulation(DESK_INSTANCES[5], 0.01, baseline_successive_elimination_plan, seed=0)
    assert len(asked) > ladder
    assert all(normals <= max(BASELINE_BLOCK * arms, 2 * solvers.BASELINE_CELLS) for arms, normals in asked)


def test_baseline_draws_each_normal_once():
    """A block that ends early leaves the rows past its drop as a tail that the next preview
    takes, so a run draws the normals it charges and at most the tail it ends with, which
    is no more than its largest block: never a block's head twice."""
    for instance in DESK_INSTANCES:
        for seed in range(8):
            oracle = SamplingOracle.for_instance(instance, seed)
            normal, preview, drawn, blocks = oracle._normal, oracle.preview, [0], []

            def counted(size=None):
                drawn[0] += 1 if size is None else int(np.prod(size))
                return normal() if size is None else normal(size)

            def recorded_preview(arms, rounds):
                blocks.append(rounds * len(arms))
                return preview(arms, rounds)

            oracle._normal, oracle.preview = counted, recorded_preview
            outcome = solve(baseline_successive_elimination_plan, oracle, instance, 0.01)
            assert outcome.total_samples <= drawn[0] <= outcome.total_samples + max(blocks), (instance.label, seed)


def _desk_grid():
    """Each desk instance's baseline run at seeds 0 to 3: its outcome and its generator's state."""
    runs = []
    for instance in DESK_INSTANCES:
        for seed in range(4):
            oracle = SamplingOracle.for_instance(instance, seed)
            runs.append((solve(baseline_successive_elimination_plan, oracle, instance, 0.01), state(oracle)))
    return runs


def test_the_radius_cache_leaves_the_desk_grid_as_it_is(monkeypatch):
    """A block takes the same radii from a cold cache as from a warm one."""
    warm = _desk_grid()
    assert _desk_grid() == warm
    block_end, blocks = solvers._block_end, []

    def cold(*args):
        _radius_chunk.cache_clear()
        blocks.append(args[1])
        return block_end(*args)

    monkeypatch.setattr(solvers, "_block_end", cold)
    assert _desk_grid() == warm
    assert len(blocks) > len(warm)  # every run asked for blocks, each from a cold cache


def test_the_radius_cache_holds_at_most_1_mib():
    """The cache keeps the last 32 chunks of 4,096 read-only floats, 32 KiB each, whatever
    the runs ask of it."""
    _desk_grid()
    for delta in (0.1, 0.01, 1e-3):  # more chunks than it keeps
        for chunk in range(20):
            _radius_chunk(7, delta, chunk)
    info = _radius_chunk.cache_info()
    assert info.maxsize == info.currsize == 32 and info.misses > 32
    chunk = _radius_chunk(7, 1e-3, 0)
    assert chunk.dtype == np.float64 and chunk.shape == (RADIUS_CHUNK,) and not chunk.flags.writeable
    assert info.maxsize * chunk.nbytes == 2**20
