"""Spans recorded from the benchmark's side of each layer boundary.

A Tracer keeps spans in flat arrays (name, start, end, parent, operation)
and writes them out once, at the end of a traced run.  The program is not
edited: calls into a layer are wrapped here, and for the length of a traced
operation `layer_patches` rebinds the module-level names that run_match and
run_experiment look up at call time (game_core.apply_claim,
game_core.maker_graph, harness.run_match).
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

from diameter_games import game_core, harness

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = {}
        self.positions: set = set()

    def begin(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def totals(self, first_span: int = 0) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total time, self time and call count per span name, from span index first_span on."""
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        child = [0.0] * (len(self.start) - first_span)
        for i in range(len(self.start) - 1, first_span - 1, -1):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= first_span:
                child[p - first_span] += dur
            key = self.names[self.name[i]]
            total[key] = total.get(key, 0.0) + dur
            own[key] = own.get(key, 0.0) + dur - child[i - first_span]
            calls[key] = calls.get(key, 0) + 1
        return total, own, calls

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end (seconds), parent index, operation id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'["{self.names[self.name[i]]}",{self.start[i]!r},{self.end[i]!r},'
                    f"{self.parent[i]},{self.op[i]}]\n"
                )


class TracedStrategy:
    """A strategy whose select() is a span named after the strategy's module.

    Every other attribute (name, flags, annotations, violations) is read
    through from the wrapped strategy, so transcripts do not change.
    """

    def __init__(self, inner, tracer: Tracer, position_key=None):
        self._inner = inner
        self._tracer = tracer
        self._span = f"{_layer_of(inner)}.select"
        self._position_key = position_key

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def select(self, state):
        if self._position_key is not None:
            self._tracer.count("exact_solver.scripted_nodes")
            self._tracer.positions.add(self._position_key(state))
        idx = self._tracer.begin(self._span)
        try:
            return self._inner.select(state)
        finally:
            self._tracer.finish(idx)


def _layer_of(obj) -> str:
    module = getattr(obj, "layer", None) or type(obj).__module__
    return module.rsplit(".", 1)[-1]


def traced_function(fn, tracer: Tracer, layer: str, position_key):
    """A scripted family selector, traced like TracedStrategy.select."""

    def select(state):
        tracer.count("exact_solver.scripted_nodes")
        tracer.positions.add(position_key(state))
        idx = tracer.begin(f"{layer}.select")
        try:
            return fn(state)
        finally:
            tracer.finish(idx)

    return select


@contextmanager
def layer_patches(tracer: Tracer):
    """Rebind the engine names run_match and run_experiment call by module name."""
    real_apply = game_core.apply_claim
    real_graph = game_core.maker_graph
    real_run_match = harness.run_match

    def apply_claim(state, player, edges):
        edges = list(edges)
        tracer.count("game_core.claims", len(edges))
        idx = tracer.begin("game_core.apply_claim")
        try:
            return real_apply(state, player, edges)
        finally:
            tracer.finish(idx)

    def run_match(state, maker, breaker, target_property, **kwargs):
        prop = tracer.wrap(target_property, "graph_metrics.property")
        prop.property_id = target_property.property_id
        if kwargs.get("round_observer") is not None:
            kwargs["round_observer"] = tracer.wrap(kwargs["round_observer"], "harness.observer")
        with tracer.span("game_core.run_match"):
            return real_run_match(
                state, TracedStrategy(maker, tracer), TracedStrategy(breaker, tracer), prop, **kwargs
            )

    game_core.apply_claim = apply_claim
    game_core.maker_graph = tracer.wrap(real_graph, "game_core.maker_graph")
    harness.run_match = run_match
    try:
        yield
    finally:
        game_core.apply_claim = real_apply
        game_core.maker_graph = real_graph
        harness.run_match = real_run_match
