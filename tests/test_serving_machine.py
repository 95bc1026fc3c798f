"""A stateful property test of the serving contract, on both oracle kinds.

The machine builds mean and tally requests, valid and malformed, and serves each
through ``fulfill``, through ``run_plan`` under a random budget, or as a direct sampler
call.  A model states the contract on its own terms: a malformed request is refused
where it is built, except an arm out of range, which only the oracle can refuse; a
served request draws one scalar generator call per arm and round, in serving order,
and charges its arms and its phase; a budget stop serves the request's head up to its
last arm that fits.  After every step the oracle's ledger, phases, generator state and
queue must equal the model's, so a refused step moves nothing.

The machine also previews blocks of rounds and reads ``oracle.rng``.  The model keeps
the oracle's tail, the normals drawn ahead of the stream, and the arms and rounds of the
last preview: after a preview, ``rng`` shows the stream where it was; a preview takes its
first normals from the tail and draws only the rest; a mean request over the last
preview's arms, for at most its rounds, takes the tail's first normals and leaves the rest
as the tail; every other step that uses the generator (a request, a tally, a direct
call, a read of ``rng``) first gives the tail back: the generator goes back to where the
tail began, and skips the normals served from it since, in one draw.  The model counts
the normals the oracle draws, skips included, so a tail that is drawn again, or a skip
left out, shows even where the stream ends up the same.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from bestarm import BudgetExceededError, MeanRequest, SamplingOracle, run_plan
from bestarm.oracle import TALLY_BATCH, TallyRequest
from doubles import DeterministicOracle

N_ARMS = TALLY_BATCH + 2  # a tally over many arms takes the batched draw
MEANS = [arm / N_ARMS for arm in range(N_ARMS)]

# Each defect: the error it raises, a pattern of its message, and where ("build": the
# request's constructor, or the direct call that builds it; "serve": the oracle's arm check).
DEFECTS = {
    "no arms": (ValueError, "at least one arm", "build"),
    "arm out of range": (IndexError, "out of range", "serve"),
    "arm not an integer": (TypeError, "cannot be interpreted as an integer", "build"),
    "count below 1": (ValueError, ">= 1", "build"),
    "count not an integer": (TypeError, "cannot be interpreted as an integer", "build"),
    "draws past the float range": (ValueError, "draws must be within the float range", "build"),
    "rounds past int64": (ValueError, "rounds", "build"),  # mean requests only
    "probes past int64": (ValueError, "probes must be within the int64 range", "build"),  # tallies only
    "probes unpaired": (ValueError, "one probe count per arm", "build"),
    "NaN cutoff": (ValueError, "NaN", "build"),
}
MEAN_ONLY, TALLY_ONLY = {"rounds past int64"}, {"probes past int64", "probes unpaired", "NaN cutoff"}
NOT_DIRECT = {"no arms", "rounds past int64", "probes unpaired"}  # a direct call has one arm


def _count(hi):
    """An exact count in 1..hi, as a Python int or, within int64, a numpy int."""
    return st.one_of(st.integers(1, hi), st.integers(1, min(hi, 2**62)).map(np.int64))


# Strategies are built once: building one per draw costs more than the draw.
_defects = {  # keyed by (tally, direct); None, a valid request, is drawn half the time
    (tally, direct): st.one_of(st.none(), st.sampled_from([
        d for d in DEFECTS if d not in (MEAN_ONLY if tally else TALLY_ONLY) and not (direct and d in NOT_DIRECT)]))
    for tally in (True, False) for direct in (True, False)}
_arm = st.integers(0, N_ARMS - 1)
_arms = {one: st.lists(_arm, min_size=1, max_size=1 if one else N_ARMS) for one in (True, False)}
_probed_arms = {one: st.lists(st.tuples(_arm, _count(2**62)), min_size=1, max_size=1 if one else N_ARMS)
                for one in (True, False)}
_draws = {True: _count(2**40), False: _count(2**70)}  # keyed by ``tally``
_rounds = st.one_of(st.just(1), _count(4))
_cutoff = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-math.inf, math.inf]))
_phase = st.sampled_from(["", "med", "frac"])
_budget = st.one_of(st.none(), st.just(-1), st.integers(0, 2**80))  # -1: one draw short
_at, _big = st.integers(0, N_ARMS - 1), st.integers(0, 2**1100)
_bad_arm = st.one_of(st.integers(-3, -1), st.integers(N_ARMS, N_ARMS + 3))
_not_an_integer = st.sampled_from([float, np.float64, np.bool_])  # applied to a valid arm
_bad_count = {"count below 1": st.integers(-2, 0),
              "count not an integer": st.sampled_from([2.0, np.float64(3.0), "4", None])}
_bad_name = {True: st.sampled_from(["draws", "probes"]), False: st.sampled_from(["draws", "rounds"])}
_past_float_range = st.integers(2**1024 - 2**970, 2**1100)  # the least of them rounds to 2**1024
_past_int64 = st.integers(2**63, 2**70)
_unpaired = st.booleans()


def _fields(data, tally: bool, defect, one_arm: bool) -> dict:
    """The constructor fields of a request, with ``defect`` (None: none) written in."""
    if tally:
        arms, probes = zip(*data.draw(_probed_arms[one_arm]))
        fields = {"arms": arms, "draws": data.draw(_draws[tally]), "probes": probes, "cutoff": data.draw(_cutoff)}
    else:
        arms = tuple(data.draw(_arms[one_arm]))
        fields = {"arms": arms, "draws": data.draw(_draws[tally])}
        if not one_arm:  # a direct mean call has no rounds
            fields["rounds"] = data.draw(_rounds)
    if defect is None:
        return fields
    at = data.draw(_at) % len(arms)
    if defect == "no arms":
        fields["arms"] = ()
        if tally:
            fields["probes"] = ()
    elif defect == "arm out of range":
        fields["arms"] = arms[:at] + (data.draw(_bad_arm),) + arms[at + 1:]
    elif defect == "arm not an integer":
        fields["arms"] = arms[:at] + (data.draw(_not_an_integer)(arms[at]),) + arms[at + 1:]
    elif defect in _bad_count:
        bad, name = data.draw(_bad_count[defect]), data.draw(_bad_name[tally])
        if name == "probes":
            fields["probes"] = probes[:at] + (bad,) + probes[at + 1:]
        else:
            fields[name if name in fields else "draws"] = bad
    elif defect == "draws past the float range":
        fields["draws"] = data.draw(_past_float_range)
    elif defect == "rounds past int64":
        fields["rounds"] = -(-2**63 // len(arms)) + data.draw(_big)
    elif defect == "probes past int64":
        fields["probes"] = probes[:at] + (data.draw(_past_int64),) + probes[at + 1:]
    elif defect == "probes unpaired":
        fields["probes"] = probes + (5,) if data.draw(_unpaired) else probes[:-1]
    elif defect == "NaN cutoff":
        fields["cutoff"] = math.nan
    return fields


def _plan(request):
    return (yield request)


class ServingMachine(RuleBasedStateMachine):
    kind = SamplingOracle

    @initialize(seed=st.integers(0, 2**32))
    def start(self, seed):
        self.oracle = self.kind(MEANS, seed=seed)
        # The model: its own ledger and phases; a twin generator, the stream ``rng`` must
        # show, taking one scalar call per arm and round (the variance-0 double takes no
        # reward from it); the tail, the normals drawn ahead of that stream (None: nothing
        # drawn ahead), with the count served from it since it began; the (arms, rounds)
        # of the last preview, None once a request or a rewind drops it; and the normals
        # the oracle should have drawn, against those a wrapper of its generator call counts.
        self.ledger, self.phases = [0] * N_ARMS, {}
        self.twin = np.random.default_rng(seed)
        self.random = self.kind is SamplingOracle
        self.tail = self.served = self.held = None
        self.normals = self.drawn = 0
        normal = self.oracle._normal

        def counted(size=None):
            self.drawn += 1 if size is None else int(np.prod(size))
            return normal() if size is None else normal(size)

        self.oracle._normal = counted

    def _rewind(self):
        """Every use of the generator but a preview or a request the tail serves: the
        oracle skips the normals served from the tail since it began, and drops it."""
        if self.tail is not None:
            self.normals += self.served
        self.tail = self.served = self.held = None

    def _past(self, n: int):
        """The twin's stream, copied, moved past its next ``n`` normals; the normals."""
        peek = copy.deepcopy(self.twin)
        return peek, [peek.standard_normal() if self.random else 0.0 for _ in range(n)]

    def _draw(self, pairs, phase, tally, cutoff=None, asks=None) -> list:
        """The model serves ``(arm, draws, probes)`` triples in order: each charges its
        arm and takes one normal (a mean) or one binomial count (a tally).  ``asks`` is the
        ``(arms, rounds)`` of the mean request served: over the last preview's arms, for at
        most its rounds, it takes the tail's first normals, which the stream moves past,
        and the rest stay as the tail.  Serving anything else gives the tail back first."""
        take = None  # the tail's normals, when this request asks for them
        if pairs and self.tail is not None:
            held, self.held = self.held, None
            if not tally and held is not None and asks[0] == held[0] and asks[1] <= held[1]:
                n = len(pairs)
                self.twin, normals = self._past(n)  # the tail holds the stream's next normals
                assert [z.hex() for z in self.tail[:n]] == [z.hex() for z in normals]
                take, self.tail, self.served = iter(normals), self.tail[n:], self.served + n
                if not self.tail:  # the generator is where the tail ends
                    self.tail = self.served = None
            else:
                self._rewind()
        values = []
        for arm, draws, probes in pairs:
            self.ledger[arm] += draws * probes
            self.phases[phase] = self.phases.get(phase, 0) + draws * probes
            if not tally:
                if take is not None:
                    values.append(next(take))
                else:  # one normal the oracle draws
                    self.normals += 1
                    values.append(self.twin.standard_normal() if self.random else 0.0)
            else:
                p = 0.5 * math.erfc(-((cutoff - MEANS[arm]) * math.sqrt(draws)) / math.sqrt(2.0))
                values.append(int(self.twin.binomial(probes, p)) if self.random
                              else probes * (MEANS[arm] < cutoff))
        return values

    @rule(data=st.data(), tally=st.booleans(), how=st.sampled_from(["fulfill", "run_plan", "direct"]))
    def serve(self, data, tally, how):
        defect = data.draw(_defects[tally, how == "direct"], label="defect")
        self._serve(data, tally, how, _fields(data, tally, defect, one_arm=how == "direct"), defect)

    @precondition(lambda self: self.held is not None)
    @rule(data=st.data(), how=st.sampled_from(["fulfill", "run_plan"]), fewer=st.booleans())
    def ask_for_the_held_block(self, data, how, fewer):
        """A mean request over the last preview's arms, for all of its rounds or for fewer,
        which leaves the rows past them as the tail; with any draws count."""
        arms, rounds = self.held
        if fewer:
            rounds = data.draw(st.integers(1, rounds), label="rounds")
        self._serve(data, False, how, {"arms": arms, "draws": data.draw(_draws[False]), "rounds": rounds}, None)

    def _serve(self, data, tally, how, fields, defect):
        error, message, where = DEFECTS[defect] if defect else (None, None, None)
        oracle, budget = self.oracle, None
        if how == "direct":  # the call builds its one-arm request and serves it
            phase, args = "", (fields["arms"][0], fields["draws"])
            if tally:
                call = lambda: oracle.count_means_below(*args, fields["probes"][0], fields["cutoff"])
            else:
                call = lambda: [oracle.sample_mean(*args)]
        else:
            phase = data.draw(_phase, label="phase")
            build = TallyRequest if tally else MeanRequest
            if where == "build":
                with pytest.raises(error, match=message):
                    build(**fields, phase=phase)
                return
            request = build(**fields, phase=phase)
            if how == "fulfill":
                call = lambda: request.fulfill(oracle)
            else:
                budget, top = data.draw(_budget, label="budget"), oracle.total + request.cost
                if budget is not None:  # one short of the request, or anywhere in 0..top + 2
                    budget = top - 1 if budget < 0 else budget % (top + 3)
                call = lambda: run_plan(_plan(request), oracle, budget)
        if error is not None:
            with pytest.raises(error, match=message):
                call()
            return
        # The model's serving order: (arm, draws, probes), arms round after round.
        arms, draws, rounds = tuple(fields["arms"]), int(fields["draws"]), int(fields.get("rounds", 1))
        pairs = [(arm, draws, int(n)) for _ in range(rounds)
                 for arm, n in zip(arms, fields.get("probes", (1,) * len(arms)))]
        cutoff = fields.get("cutoff")
        if budget is not None and oracle.total + request.cost > budget:
            room, fit = budget - oracle.total, 0
            while fit < len(pairs) and pairs[fit][1] * pairs[fit][2] <= room:
                room -= pairs[fit][1] * pairs[fit][2]
                fit += 1
            before = oracle.total
            with pytest.raises(BudgetExceededError):
                call()
            # the head served is the one-round request over the first ``fit`` arms
            self._draw(pairs[:fit], phase, tally, cutoff, asks=(tuple(arm for arm, _, _ in pairs[:fit]), 1))
            assert oracle.total <= max(budget, before)  # a cap already passed serves nothing
            return
        reply, values = call(), self._draw(pairs, phase, tally, cutoff, asks=(arms, rounds))
        if tally:
            assert reply == sum(values)
        else:  # each arm's mean over its rounds, its normals summed round after round
            k, scale = len(arms), draws**-0.5 / rounds
            means = [MEANS[arm] + scale * sum(values[a::k][1:], values[a]) for a, arm in enumerate(arms)]
            assert [m.hex() for m in reply] == [m.hex() for m in means]

    @rule(data=st.data(), rounds=st.integers(1, 4), bad=st.sampled_from([False, False, False, True]))
    def preview(self, data, rounds, bad):
        """A preview shows the rewards of the next rounds, takes its first normals from the
        tail and draws only the rest; an arm out of range is refused before anything moves."""
        arms = tuple(data.draw(_arms[False], label="arms"))
        if bad:
            at = data.draw(_at) % len(arms)
            arms = arms[:at] + (data.draw(_bad_arm),) + arms[at + 1:]
            with pytest.raises(IndexError, match="out of range"):
                self.oracle.preview(arms, rounds)
            return
        ahead = self.oracle.preview(arms, rounds)
        tail, need = self.tail or [], rounds * len(arms)
        _, normals = self._past(max(need, len(tail)))  # the stream where the requests left it
        assert [z.hex() for z in tail] == [z.hex() for z in normals[:len(tail)]]
        rewards = [MEANS[arm] + z for arm, z in zip(arms * rounds, normals)]
        assert [x.hex() for x in ahead.ravel().tolist()] == [x.hex() for x in rewards]
        self.normals += max(0, need - len(tail))
        self.tail, self.served = normals, self.served or 0
        self.held = (arms, rounds)

    @rule()
    def read_rng(self):
        """Whoever reads ``rng`` sees the stream the requests served left, and draws from it."""
        assert self.oracle.rng.bit_generator.state == self.twin.bit_generator.state
        self._rewind()
        assert self.oracle.rng.random() == self.twin.random()

    @invariant()
    def oracle_matches_the_model(self):
        oracle = self.oracle
        assert oracle._queued == []
        ledger, phases = oracle.snapshot(), dict(oracle.draws_by_phase)
        assert all(type(n) is int for n in ledger + list(phases.values()))
        assert (ledger, phases) == (self.ledger, self.phases)
        assert oracle.total == sum(phases.values())
        assert self.drawn == self.normals
        # read past ``rng``, which would rewind: the generator is past the tail
        tail = [] if oracle._tail is None else oracle._tail.tolist()
        assert [z.hex() for z in tail] == [z.hex() for z in self.tail or []]
        assert (oracle._saved is None) == (self.tail is None)
        assert oracle._rng.bit_generator.state == self._past(len(tail))[0].bit_generator.state


class DeterministicServingMachine(ServingMachine):
    kind = DeterministicOracle


TestServingOnSamplingOracle = ServingMachine.TestCase
TestServingOnDeterministicOracle = DeterministicServingMachine.TestCase
TestServingOnSamplingOracle.settings = TestServingOnDeterministicOracle.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None)
