"""Per-layer tracing of tropicone from outside the package.

Every public function of every tropicone module is replaced, in each module
namespace that binds it, by a wrapper that counts calls and times them. The
layers are the modules. A call is a layer boundary when the caller is in
another layer; each boundary call of an ordinary function records a span
(name, parent span, start, end). Functions in HOT run per vertex, per edge or
per inner step: their boundary calls are counted and timed but record no span,
because a span per call would dominate the traced time.

The self time of a boundary call is its duration minus the time spent in
other layers beneath it, so `cli.main.self_s` covers argparse, formatting
and the atomic write, and `decograph.build_graph.self_s` the graph builder's
own loop. The package source is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("rootsystem", "wordtools", "monomial", "decograph", "stringcone", "oracle", "cli")

HOT = frozenset(
    {
        "rootsystem.reflect",
        "rootsystem.reflect_root",
        "rootsystem.simple_root",
        "rootsystem.simple_root_weight",
        "rootsystem.fundamental_weight",
        "rootsystem.positive_roots",
        "rootsystem.minuscule_indices",
        "wordtools.j_plus",
        "wordtools.j_minus",
        "monomial.a_monomial",
        "monomial.render",
        "decograph.b_from_d",
        "decograph.firing_labels",
        "decograph.firing_labels_minuscule",
    }
)

# (metric name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("decograph.build_graph.calls", "count"),
    ("decograph.build_graph.self_s", "s"),
    ("decograph.build_graph.vertices_per_s", "1/s"),
    ("decograph.build_graph.edges_per_s", "1/s"),
    ("decograph.b_from_d.calls", "count"),
    ("decograph.b_from_d.s", "s"),
    ("decograph.b_from_d.calls_per_edge", "calls/edge"),
    ("decograph.firing_labels.s", "s"),
    ("decograph.initial_vertex.s", "s"),
    ("decograph.verify_graph.s", "s"),
    ("wordtools.validate_word.calls", "count"),
    ("wordtools.validate_word.s", "s"),
    ("wordtools.enumerate_w0_words.words_per_s", "1/s"),
    ("wordtools.j_plus.calls_per_edge", "calls/edge"),
    ("monomial.a_monomial.calls", "count"),
    ("monomial.a_monomial.s", "s"),
    ("rootsystem.reflect.calls", "count"),
    ("rootsystem.reflect.s", "s"),
    ("stringcone.weight_census.s", "s"),
    ("stringcone.weight_census.queries_per_s", "1/s"),
    ("stringcone.weight_census.points", "count"),
    ("stringcone.dual_kostant_count.s", "s"),
    ("stringcone.string_cone.self_s", "s"),
    ("stringcone.render.s", "s"),
    ("oracle.typeA_minor_poly.s", "s"),
    ("oracle.minuscule_trail_monomials.s", "s"),
    ("oracle.agreement_report.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Counters and spans for one process; inactive until `active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.spans: list = []
        # frames: [layer, seconds spent in other layers beneath, span index]
        self.stack: list[list] = [["bench", 0.0, -1]]
        self.vertices = 0
        self.edges = 0
        self.points = 0
        self.words = 0

    def install(self) -> None:
        """Wrap every public tropicone function in every namespace binding it."""
        modules = [importlib.import_module("tropicone")]
        modules += [importlib.import_module(f"tropicone.{layer}") for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                origin = getattr(obj, "__module__", None) or ""
                if not origin.startswith("tropicone."):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, origin.rsplit(".", 1)[1])
                setattr(module, attr, wrapped[id(obj)])

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        hot = name in HOT
        consume = inspect.isgeneratorfunction(inspect.unwrap(fn))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1]
            boundary = parent[0] != layer
            if boundary:
                frame = [layer, 0.0, -1]
                if not hot:
                    frame[2] = len(tracer.spans)
                    tracer.spans.append(None)
                tracer.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                dt = perf_counter() - t0
                if boundary:
                    tracer.stack.pop()
                    parent[1] += dt
                    tracer.self_seconds[name] += dt - frame[1]
                    if not hot:
                        tracer.spans[frame[2]] = (name, parent[2], t0, t0 + dt)
            tracer.calls[name] += 1
            tracer.seconds[name] += dt
            tracer._observe(name, result)
            return iter(result) if consume else result

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "decograph.build_graph":
            self.vertices += len(result.vertices)
            self.edges += len(result.edges)
        elif name == "stringcone.weight_census":
            self.points += result
        elif name == "wordtools.enumerate_w0_words":
            self.words += len(result)

    def write_spans(self, path) -> None:
        """One JSON line per span: name, parent index (-1 for none), start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        calls, sec, own = self.calls, self.seconds, self.self_seconds

        def per(num, den):
            return num / den if den else 0.0

        values = {
            "decograph.build_graph.calls": calls["decograph.build_graph"],
            "decograph.build_graph.self_s": own["decograph.build_graph"],
            "decograph.build_graph.vertices_per_s": per(self.vertices, sec["decograph.build_graph"]),
            "decograph.build_graph.edges_per_s": per(self.edges, sec["decograph.build_graph"]),
            "decograph.b_from_d.calls": calls["decograph.b_from_d"],
            "decograph.b_from_d.s": sec["decograph.b_from_d"],
            "decograph.b_from_d.calls_per_edge": per(calls["decograph.b_from_d"], self.edges),
            "decograph.firing_labels.s": sec["decograph.firing_labels"],
            "decograph.initial_vertex.s": sec["decograph.initial_vertex"],
            "decograph.verify_graph.s": sec["decograph.verify_graph"],
            "wordtools.validate_word.calls": calls["wordtools.validate_word"],
            "wordtools.validate_word.s": sec["wordtools.validate_word"],
            "wordtools.enumerate_w0_words.words_per_s": per(self.words, sec["wordtools.enumerate_w0_words"]),
            "wordtools.j_plus.calls_per_edge": per(calls["wordtools.j_plus"], self.edges),
            "monomial.a_monomial.calls": calls["monomial.a_monomial"],
            "monomial.a_monomial.s": sec["monomial.a_monomial"],
            "rootsystem.reflect.calls": calls["rootsystem.reflect"],
            "rootsystem.reflect.s": sec["rootsystem.reflect"],
            "stringcone.weight_census.s": sec["stringcone.weight_census"],
            "stringcone.weight_census.queries_per_s": per(
                calls["stringcone.weight_census"], sec["stringcone.weight_census"]
            ),
            "stringcone.weight_census.points": self.points,
            "stringcone.dual_kostant_count.s": sec["stringcone.dual_kostant_count"],
            "stringcone.string_cone.self_s": own["stringcone.string_cone"],
            "stringcone.render.s": sec["stringcone.render"],
            "oracle.typeA_minor_poly.s": sec["oracle.typeA_minor_poly"],
            "oracle.minuscule_trail_monomials.s": sec["oracle.minuscule_trail_monomials"],
            "oracle.agreement_report.self_s": own["oracle.agreement_report"],
            "cli.main.self_s": own["cli.main"],
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
