"""Per-layer tracing of ``bestarm`` from outside the package.

The layers are the modules ``instances``, ``oracle``, ``primitives``,
``solvers``, ``parallel`` and ``bench``.  :class:`Tracer` wraps their
public functions where other modules bound them, records a span around
every call, and restores the originals on exit.  Nothing under ``src/`` is
edited.

* Each public function of a layer module is rebound in every ``bestarm``
  module namespace that holds it, except inside ``primitives`` and
  ``instances``: calls within those two modules are helpers of the outer
  call, so they stay in its span and draws are charged to the outermost
  primitive a solver called (the split of ``RoundEvent.draws_*``).
  ``bench`` functions and solver plans are rebound in their own namespace
  too: ``run_trials`` calls ``run_one_trial`` there, and the solver
  drivers build their plans there.
* A solver plan's ``emit`` callback is wrapped to add up the
  ``RoundEvent.draws_*`` split, which :func:`reconcile` compares with the
  draws charged to each primitive.
* Plan generators are wrapped so that every resume is a span of the
  plan's layer, since ``run_plan`` or the ladder resumes them from another
  layer.
* Methods wrapped on classes: ``SamplingOracle`` construction, its three
  sampling calls and its two ledger reads, and ``fulfill`` of the two
  request types.  Trivial accessors (``cost``, ``n_arms``, the
  ``Instance`` properties) stay in their caller's self time.

A span's self time is its duration minus the time its child spans cover.
Counts repeat exactly for a seed; times do not.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("instances", "oracle", "primitives", "solvers", "parallel", "bench")
PRIMITIVE_ORIGINS = ("med_elim", "unif_sampl", "frac_test", "elimination")
# Solver plans that return one finished run or guess (complexity_guessing_plan
# only sums the rounds of its entropy_elimination_plan guesses).
ROUND_PLANS = (
    "known_complexity_plan",
    "entropy_elimination_plan",
    "baseline_successive_elimination_plan",
)
# RoundEvent draw fields and the primitive each one's draws are charged to.
ROUND_EVENT_DRAWS = {
    "draws_med": "med_elim",
    "draws_anchor": "unif_sampl",
    "draws_frac": "frac_test",
    "draws_elim": "elimination",
}
ORACLE_SAMPLERS = {
    "sample_mean": lambda arm, draws: draws,
    "count_means_below": lambda arm, draws, probes, cutoff: draws * probes,
    "draw": lambda arm: 1,
}

#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "instances.profile.calls": ("count", "lower"),
    "instances.profile.self_s": ("s", "lower"),
    "oracle.calls": ("count", "lower"),
    "oracle.draws": ("count", "lower"),
    "oracle.self_s": ("s", "lower"),
    "oracle.ns_per_call": ("ns", "lower"),
    "primitives.requests": ("count", "lower"),
    "primitives.ns_per_request": ("ns", "lower"),
    "primitives.self_s": ("s", "lower"),
    "primitives.run_plan.self_s": ("s", "lower"),
    **{f"primitives.draws.{o}": ("count", "lower") for o in PRIMITIVE_ORIGINS},
    "solvers.rounds": ("count", "lower"),
    "solvers.guesses": ("count", "lower"),
    "solvers.draws.direct": ("count", "lower"),
    "solvers.self_s": ("s", "lower"),
    "parallel.copies": ("count", "lower"),
    "parallel.events": ("count", "lower"),
    "parallel.self_s": ("s", "lower"),
    "parallel.ns_per_event": ("ns", "lower"),
    "parallel.useful_draw_share": ("ratio", "higher"),
    "bench.trials": ("count", "lower"),
    "bench.run_trials.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.runs": ("count", "higher"),
}


class Tracer:
    """Span recorder installed over the ``bestarm`` modules as a context manager."""

    def __init__(self):
        self.calls = defaultdict(int)  # (layer, name) -> invocations
        self.self_ns = defaultdict(int)  # (layer, name) -> self time
        self.draws = defaultdict(int)  # origin -> oracle draws
        self.counts = defaultdict(int)
        self._stack = []  # [key, start_ns, child_ns]
        self._origin = {}  # id(request) -> (request, origin)
        self._current_origin = "untagged"
        self._in_ladder = 0
        self._patches = []

    # --- spans ---------------------------------------------------------------

    def _enter(self, key):
        self._stack.append([key, perf_counter_ns(), 0])

    def _exit(self):
        key, start, child = self._stack.pop()
        duration = perf_counter_ns() - start
        self.self_ns[key] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def _span(self, key, fn):
        def traced(*args, **kwargs):
            self.calls[key] += 1
            self._enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def _plan(self, key, factory, origin):
        def traced(*args, **kwargs):
            self.calls[key] += 1
            emit = kwargs.get("emit")
            if emit is not None and not getattr(emit, "counts_round_draws", False):
                kwargs["emit"] = self._counting_emit(emit)
            return self._drive(key, factory(*args, **kwargs), origin)

        return traced

    def _counting_emit(self, emit):
        """``emit`` that also adds up each ``RoundEvent``'s draw split.

        Nested plans pass the same callback on, so it is wrapped only once.
        """

        def counting_emit(event):
            for field, origin in ROUND_EVENT_DRAWS.items():
                self.counts[f"events.draws.{origin}"] += getattr(event, field)
            return emit(event)

        counting_emit.counts_round_draws = True
        return counting_emit

    def _drive(self, key, gen, origin):
        reply = None
        while True:
            self._enter(key)
            try:
                request = gen.send(reply)
            except StopIteration as stop:
                result = stop.value
                break
            finally:
                self._exit()
            # The innermost traced plan yields a request first; outer plans
            # only pass it on.
            tag = self._origin.get(id(request))
            if tag is None or tag[0] is not request:
                self._origin[id(request)] = (request, origin)
            try:
                reply = yield request
            except GeneratorExit:
                gen.close()
                raise
        if key[1] in ROUND_PLANS:
            self.counts["solvers.rounds"] += result.rounds
        return result

    def _fulfill(self, key, fn):
        def fulfill(request, oracle):
            self.calls[key] += 1
            tag = self._origin.pop(id(request), None)
            origin = tag[1] if tag is not None and tag[0] is request else "untagged"
            if self._in_ladder:
                self.counts["parallel.events"] += 1
            outer, self._current_origin = self._current_origin, origin
            self._enter(key)
            try:
                return fn(request, oracle)
            finally:
                self._exit()
                self._current_origin = outer

        return fulfill

    def _sampler(self, key, fn, draws_of):
        def sample(oracle, *args):
            draws = draws_of(*args)
            self.calls[key] += 1
            self.draws[self._current_origin] += draws
            self._enter(key)
            try:
                return fn(oracle, *args)
            finally:
                self._exit()

        return sample

    def _ladder(self, key, fn, parallel_module):
        def parallel_simulation(instance, delta, inner=None, **kwargs):
            base = inner if inner is not None else parallel_module.complexity_guessing_plan
            copies = []  # [oracle, finished]

            def recording_inner(oracle, inst, delta_k):
                copy = [oracle, False]
                copies.append(copy)
                result = yield from base(oracle, inst, delta_k)
                copy[1] = True
                return result

            self.calls[key] += 1
            self._in_ladder += 1
            self._enter(key)
            try:
                outcome = fn(instance, delta, recording_inner, **kwargs)
            finally:
                self._exit()
                self._in_ladder -= 1
            self.counts["parallel.copies"] += len(copies)
            self.counts["ladder.useful_draws"] += sum(
                int(oracle.counts.sum()) for oracle, finished in copies if finished
            )
            self.counts["ladder.granted_draws"] += outcome.total_samples
            return outcome

        return parallel_simulation

    # --- installation ----------------------------------------------------------

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self):
        modules = {name: sys.modules[f"bestarm.{name}"] for name in LAYERS}
        namespaces = [m for n, m in sys.modules.items() if n == "bestarm" or n.startswith("bestarm.")]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                key = (layer, name)
                if key == ("parallel", "parallel_simulation"):
                    traced = self._ladder(key, fn, modules["parallel"])
                elif inspect.isgeneratorfunction(fn):
                    origin = "direct" if layer == "solvers" else name.removesuffix("_plan")
                    traced = self._plan(key, fn, origin)
                else:
                    traced = self._span(key, fn)
                own = layer == "bench" or (layer == "solvers" and inspect.isgeneratorfunction(fn))
                for ns in namespaces:
                    if ns is module and not own:
                        continue
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, bound, traced)
        oracle_cls = modules["oracle"].SamplingOracle
        self._patch(oracle_cls, "__init__", self._span(("oracle", "__init__"), oracle_cls.__init__))
        self._patch(oracle_cls, "snapshot", self._span(("oracle", "snapshot"), oracle_cls.snapshot))
        total = self._span(("oracle", "total"), oracle_cls.__dict__["total"].fget)
        self._patch(oracle_cls, "total", property(total))
        for name, draws_of in ORACLE_SAMPLERS.items():
            key = ("oracle", name)
            self._patch(oracle_cls, name, self._sampler(key, getattr(oracle_cls, name), draws_of))
        for cls in (modules["primitives"].MeanRequest, modules["primitives"].TallyRequest):
            self._patch(cls, "fulfill", self._fulfill(("primitives", "fulfill"), cls.fulfill))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)
        self._origin.clear()
        return False

    # --- results ---------------------------------------------------------------

    def _layer_self_s(self, layer):
        return sum(ns for (lay, _), ns in self.self_ns.items() if lay == layer) / 1e9

    def count_metrics(self) -> dict:
        """Every count, keyed by name; these repeat exactly for a seed."""
        return {
            "instances.profile.calls": self.calls[("instances", "profile")],
            "oracle.calls": sum(self.calls[("oracle", n)] for n in ORACLE_SAMPLERS),
            "oracle.draws": sum(self.draws.values()),
            "primitives.requests": self.calls[("primitives", "fulfill")],
            **{f"primitives.draws.{o}": self.draws[o] for o in PRIMITIVE_ORIGINS},
            "primitives.draws.untagged": self.draws["untagged"],
            "solvers.rounds": self.counts["solvers.rounds"],
            "solvers.guesses": self.calls[("solvers", "entropy_elimination_plan")],
            "solvers.draws.direct": self.draws["direct"],
            "parallel.copies": self.counts["parallel.copies"],
            "parallel.events": self.counts["parallel.events"],
            "ladder.useful_draws": self.counts["ladder.useful_draws"],
            "ladder.granted_draws": self.counts["ladder.granted_draws"],
            "bench.trials": self.calls[("bench", "run_one_trial")],
            **{f"events.draws.{o}": self.counts[f"events.draws.{o}"] for o in PRIMITIVE_ORIGINS},
        }

    def layer_metrics(self) -> dict:
        """Per-layer metrics of :data:`PER_LAYER` except the ``trace.*`` pair."""
        c = self.count_metrics()

        def per(ns_total, count):
            return ns_total / count if count else 0.0

        layer_s = {layer: self._layer_self_s(layer) for layer in LAYERS}
        sampler_ns = sum(self.self_ns[("oracle", n)] for n in ORACLE_SAMPLERS)
        granted = c["ladder.granted_draws"]
        values = {
            **c,
            **{f"{layer}.self_s": seconds for layer, seconds in layer_s.items()},
            "instances.profile.self_s": self.self_ns[("instances", "profile")] / 1e9,
            "oracle.ns_per_call": per(sampler_ns, c["oracle.calls"]),
            "primitives.ns_per_request": per(layer_s["primitives"] * 1e9, c["primitives.requests"]),
            "primitives.run_plan.self_s": self.self_ns[("primitives", "run_plan")] / 1e9,
            "parallel.ns_per_event": per(layer_s["parallel"] * 1e9, c["parallel.events"]),
            "parallel.useful_draw_share": c["ladder.useful_draws"] / granted if granted else 0.0,
            "bench.run_trials.self_s": self.self_ns[("bench", "run_trials")] / 1e9,
        }
        return {name: values[name] for name in PER_LAYER if name in values}

    def largest_self_layer(self) -> str:
        return max(LAYERS, key=self._layer_self_s)


def reconcile(counts: dict, total_samples: int | None) -> list[str]:
    """Problems with the draw ledger of a traced pass (empty when it balances).

    Every oracle draw must be charged to a primitive or to a solver plan.
    Without the ladder, whose copies emit no round events, each primitive's
    draws must also equal the matching ``RoundEvent.draws_*`` total, and the
    oracle must have drawn exactly the runs' ``total_samples``.
    ``total_samples=None`` marks a ladder pass and skips both checks; the
    ladder also counts grants toward requests still in flight.
    """
    problems = []
    if counts["primitives.draws.untagged"]:
        problems.append(f"{counts['primitives.draws.untagged']} draws outside any request")
    if total_samples is None:
        return problems
    for origin in PRIMITIVE_ORIGINS:
        charged, emitted = counts[f"primitives.draws.{origin}"], counts[f"events.draws.{origin}"]
        if charged != emitted:
            problems.append(f"primitives.draws.{origin} {charged} != round events' {emitted}")
    if total_samples != counts["oracle.draws"]:
        problems.append(f"oracle.draws {counts['oracle.draws']} != total_samples {total_samples}")
    return problems
