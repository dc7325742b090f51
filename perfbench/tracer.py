"""Spans and counts around the package's layer boundaries, from outside.

`Tracer.install()` replaces public functions and methods at the module
attributes the package looks them up from at call time (for example
`hlsl.clauses.bfs_paths`, `hlsl.cli.generate_candidates`,
`hlsl.engine.Workspace.gradient`) with wrappers that record a span
(name, start, end, parent) and bump counters, then call the original.
`uninstall()` restores every attribute. Nothing under `src/` changes.

Spans and counters stay in memory; `Runner.layer_metrics()` in run.py
reduces them to the per-layer numbers of one pipeline run, and `summary()`
to a per-name table the report prints at the end of the run.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a command root


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, value), value)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`; returns (result, span)."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs), span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        """Whether a span named `name` is open."""
        return any(self.spans[i].name == name for i in self._stack)

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def install(self) -> None:
        import hlsl.cli
        import hlsl.clauses
        import hlsl.engine
        import hlsl.grounding
        import hlsl.learning

        t = self

        def load(original):
            def wrapper(*args, **kwargs):
                db, _ = t.call("data.load", original, *args, **kwargs)
                t.peak("data.atoms", len(db.atoms))
                t.peak("data.edges", sum(len(edges) for edges in db.outgoing.values()))
                return db
            return wrapper

        def generate(original):
            def wrapper(*args, **kwargs):
                out, _ = t.call("clauses.generate", original, *args, **kwargs)
                t.add("clauses.candidates", len(out))
                return out
            return wrapper

        def bfs(original):
            def wrapper(*args, **kwargs):
                out, span = t.call("clauses.bfs", original, *args, **kwargs)
                t.add("clauses.bfs_calls", 1)
                t.add("clauses.paths", len(out))
                t.peak("clauses.bfs_max_ms", (span.end - span.start) * 1e3)
                return out
            return wrapper

        def ground(original):
            def wrapper(*args, **kwargs):
                out, _ = t.call("grounding.ground", original, *args, **kwargs)
                t.add("grounding.grounds", len(out))
                t.add("grounding.terms", len(out.term_atom))
                return out
            return wrapper

        def ground_one(original):
            def wrapper(*args, **kwargs):
                t.add("grounding.ground_clause_calls", 1)
                return original(*args, **kwargs)
            return wrapper

        def restrict(original):
            def wrapper(*args, **kwargs):
                t.add("grounding.restrict_calls", 1)
                return t.call("grounding.restrict", original, *args, **kwargs)[0]
            return wrapper

        def workspace_init(original):
            def wrapper(ws, *args, **kwargs):
                t.call("engine.workspace", original, ws, *args, **kwargs)
                t.add("engine.workspace_builds", 1)
                t.add("engine.pairs", ws.n_pairs)
                t.add("engine.segments", len(ws.seg_lo))
                t.add("engine.combos", len(ws.combo_pair))
            return wrapper

        def engine_call(name):
            def make(original):
                def wrapper(*args, **kwargs):
                    t.add(f"engine.{name}_calls", 1)
                    if t.inside("learning.ppll"):
                        t.add(f"engine.ppll_{name}_calls", 1)
                    return t.call(f"engine.{name}", original, *args, **kwargs)[0]
                return wrapper
            return make

        def learner(name):
            def make(original):
                def wrapper(*args, **kwargs):
                    model, _ = t.call(f"learning.{name}", original, *args, **kwargs)
                    t.add(f"learning.{name}_kept", len(model))
                    return model
                return wrapper
            return make

        def map_infer(original):
            def wrapper(*args, **kwargs):
                sol, _ = t.call("inference.map", original, *args, **kwargs)
                t.add("inference.free_atoms", len(sol.values))
                t.add("inference.map_objective", sol.objective)
                return sol
            return wrapper

        def plain(name):
            def make(original):
                def wrapper(*args, **kwargs):
                    return t.call(name, original, *args, **kwargs)[0]
                return wrapper
            return make

        self._patch(hlsl.cli, "load_database", load)
        self._patch(hlsl.cli, "build_adjacency", load)
        self._patch(hlsl.cli, "generate_candidates", generate)
        self._patch(hlsl.clauses, "bfs_paths", bfs)
        self._patch(hlsl.cli, "ground_clauses", ground)
        self._patch(hlsl.learning, "ground_clauses", ground)
        self._patch(hlsl.grounding, "ground_clause", ground_one)
        self._patch(hlsl.grounding.Grounding, "restrict", restrict)
        self._patch(hlsl.engine.Workspace, "__init__", workspace_init)
        self._patch(hlsl.engine.Workspace, "gradient", engine_call("gradient"))
        self._patch(hlsl.engine.Workspace, "total", engine_call("objective"))
        self._patch(hlsl.engine.Workspace, "per_clause_totals", engine_call("objective"))
        self._patch(hlsl.cli, "ppll_structure_learn", learner("ppll"))
        self._patch(hlsl.cli, "gls_structure_learn", learner("gls"))
        self._patch(hlsl.cli, "map_infer", map_infer)
        self._patch(hlsl.cli, "auc_roc", plain("inference.auc"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def total(self, name: str, under: str | None = None) -> float:
        """Summed duration of spans called `name` (optionally only those
        whose command root is called `under`)."""
        out = 0.0
        for span in self.spans:
            if span.name == name and (under is None or self._root(span).name == under):
                out += span.end - span.start
        return out

    def _root(self, span: Span) -> Span:
        while span.parent >= 0:
            span = self.spans[span.parent]
        return span

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: how many spans, their summed duration, and their
        summed self time (duration minus that of direct children)."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.end - span.start
            if span.parent >= 0:
                out[self.spans[span.parent].name]["self_s"] -= span.end - span.start
        return out

    def self_time(self, prefix: str) -> float:
        """Summed self time of spans whose name starts with `prefix`: each
        span's duration minus that of its direct children."""
        roots = {i for i, s in enumerate(self.spans) if s.name.startswith(prefix)}
        out = sum(self.spans[i].end - self.spans[i].start for i in roots)
        for span in self.spans:
            if span.parent in roots:
                out -= span.end - span.start
        return out
