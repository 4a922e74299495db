"""Per-layer tracing from outside the program.

``install`` replaces the names that eclc's modules bind (``prove`` as
bound in ``sim``, ``observer``, ``cli`` and ``calculus``; ``measure`` as
bound in ``sim``; ``Frame.copy``; ...) with wrappers that record one
span per call.  Spans nest through a stack, so a layer's self time is
its span minus the spans of the calls it made.  Nothing inside the
package changes, and nothing the tracer records reaches the program's
outputs.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter

import eclc
import eclc.calculus as calculus
import eclc.cli as cli
import eclc.frame as frame
import eclc.metrics as metrics
import eclc.observer as observer
import eclc.sim as sim

_PROVE_PARAMS = ("seq", "depth_bound", "model", "kappa")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # child time of each open span
        self.stats: dict[str, list] = {}  # name -> [calls, total, self time, open]
        self.counts: Counter = Counter()
        self.prove_times: list[float] = []
        self.prove_outcomes: Counter = Counter()
        self.prove_keys: set = set()
        self.models: dict[int, tuple] = {}  # id -> (model, key); keeps ids unique

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        A call made while a span of the same name is open (recursion)
        stays inside the outer span.  ``after(args, kwargs, result)``
        runs once the span is closed, so its cost is not charged to it.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, False])
        stack = self.stack
        times = self.prove_times if name == "calculus.prove" else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stat[3]:
                return fn(*args, **kwargs)
            stat[3] = True
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[3] = False
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                if times is not None:
                    times.append(elapsed)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` to count its calls without timing them."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def after_prove(self, args, kwargs, result) -> None:
        values = list(args) + [kwargs[p] for p in _PROVE_PARAMS[len(args) :]]
        seq, bound, model, kappa = values
        self.prove_outcomes["proved" if result.proved else result.failure_reason] += 1
        known = self.models.get(id(model))
        if known is None:
            known = self.models[id(model)] = (model, (tuple(sorted(model.atom_costs.items())), model.default_cost, model.alpha))
        # formulas hash in O(1) and equal formulas hash equal, so sorted
        # hashes stand for a multiset side
        self.prove_keys.add((tuple(sorted(map(hash, seq.gamma))), tuple(sorted(map(hash, seq.delta))), bound, kappa, known[1]))

    def after_observer_prove(self, args, kwargs, result) -> None:
        self.counts["observer.prove"] += 1
        self.after_prove(args, kwargs, result)

    def after_valuation(self, args, kwargs, result) -> None:
        self.counts["observer.true"] += bool(result)

    def after_parse(self, args, kwargs, result) -> None:
        self.counts["dsl.lines"] += args[0].count("\n")

    def after_write(self, args, kwargs, result) -> None:
        self.counts["sim.report_bytes"] += sum(os.path.getsize(path) for path in result)

    def metrics(self, nodes_built: int, build_s: float) -> dict[str, float]:
        """The per-layer values of this process, except the overhead."""
        counts = self.counts
        calls, total, own = Counter(), Counter(), Counter()
        for name, (n, spent, alone, _) in self.stats.items():
            calls[name], total[name], own[name] = n, spent, alone
        times = sorted(self.prove_times)

        def pct(q: float) -> float:
            return times[min(len(times) - 1, int(q * len(times)))] * 1e3 if times else 0.0

        prove_calls = calls["calculus.prove"]
        return {
            "calculus.prove.calls": prove_calls,
            "calculus.prove.s": total["calculus.prove"],
            "calculus.prove.p50_ms": statistics.median(times) * 1e3 if times else 0.0,
            "calculus.prove.p99_ms": pct(0.99),
            "calculus.prove.proved": self.prove_outcomes["proved"],
            "calculus.prove.depth_exceeded": self.prove_outcomes[calculus.DEPTH_EXCEEDED],
            "calculus.prove.no_rule_applies": self.prove_outcomes[calculus.NO_RULE_APPLIES],
            "calculus.prove.cost_invalid": self.prove_outcomes[calculus.COST_INVALID],
            "calculus.prove.distinct_frac": _ratio(len(self.prove_keys), prove_calls),
            "calculus.transition.calls": calls["calculus.transition"],
            "calculus.transition.self_s": own["calculus.transition"],
            "calculus.measure.calls": calls["calculus.measure"],
            "calculus.measure.self_s": own["calculus.measure"],
            "formula.nodes_built": nodes_built,
            "formula.build_s": build_s,
            "formula.cost.calls": calls["formula.cost"],
            "formula.cost.s": total["formula.cost"],
            "formula.coherence.calls": calls["formula.coherence"],
            "formula.coherence.s": total["formula.coherence"],
            "frame.copy.calls": calls["frame.copy"],
            "frame.copy.s": total["frame.copy"],
            "frame.hop_distance.calls": calls["frame.hop_distance"],
            "frame.hop_distance.s": total["frame.hop_distance"],
            "frame.accessible.calls": counts["frame.accessible"],
            "observer.valuation.calls": calls["observer.valuation"],
            "observer.valuation.self_s": own["observer.valuation"],
            "observer.valuation.true_frac": _ratio(counts["observer.true"], calls["observer.valuation"]),
            "observer.prove_per_valuation": _ratio(counts["observer.prove"], calls["observer.valuation"]),
            "dsl.parse_scenario.s": total["dsl.parse_scenario"],
            "dsl.lines_per_s": _ratio(counts["dsl.lines"], total["dsl.parse_scenario"]),
            "metrics.fisher.s": total["metrics.fisher"],
            "metrics.s": total["metrics.fisher"] + total["metrics.other"],
            "sim.run_scenario.s": total["sim.run_scenario"],
            "sim.run_scenario.self_s": own["sim.run_scenario"],
            "sim.decohere.calls": calls["sim.decohere"],
            "sim.write_report.s": total["sim.write_report"],
            "sim.report_bytes": counts["sim.report_bytes"],
            "cli.main.s": total["cli.main"],
            "cli.main.self_s": own["cli.main"],
        }


def install(tracer: Tracer) -> None:
    """Wrap every binding the workloads reach, where its caller looks it up."""

    def patch(owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), after))

    for module in (eclc, calculus, sim, cli):
        patch(module, "prove", "calculus.prove", tracer.after_prove)
    patch(observer, "prove", "calculus.prove", tracer.after_observer_prove)
    patch(sim, "measure", "calculus.measure")
    patch(calculus, "transition", "calculus.transition")
    for module, attr in ((sim, "base_cost"), (sim, "curvature_cost"), (calculus, "curvature_cost"), (cli, "curvature_cost")):
        patch(module, attr, "formula.cost")
    patch(sim, "coherence", "formula.coherence")
    patch(metrics, "coherence", "formula.coherence")
    patch(frame.Frame, "copy", "frame.copy")
    patch(observer, "hop_distance", "frame.hop_distance")
    for module in (calculus, observer, sim, frame):
        module.accessible = tracer.counter("frame.accessible", module.accessible)
    patch(sim, "observer_valuation", "observer.valuation", tracer.after_valuation)
    patch(cli, "parse_scenario", "dsl.parse_scenario", tracer.after_parse)
    patch(cli, "run_scenario", "sim.run_scenario")
    patch(cli, "write_report", "sim.write_report", tracer.after_write)
    patch(sim, "decohere", "sim.decohere")
    patch(sim, "fisher_exact_two_tailed", "metrics.fisher")
    for attr in ("fit_exponential", "persistence_score", "shannon_entropy"):
        patch(sim, attr, "metrics.other")
    patch(cli, "main", "cli.main")
