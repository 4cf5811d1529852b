"""Span tracer that wraps drdkit's public functions from outside the package.

drdkit modules bind each other's functions by name (`from .ratlin import
mat_mul`), so wrapping one module attribute would miss calls made through the
other bindings. The tracer therefore rebinds the wrapper in every drdkit
module that holds the same function object, wraps methods on their class, and
restores every name it touched when the `with` block ends.

Spans are kept in memory as parallel arrays (target, start, end, parent span,
graph id) and written out by `write_tsv` after the run.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# Metric prefix -> (module, attribute path). The layers are drdkit's modules.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("digraph.parse_digraph", "drdkit.digraph", "parse_digraph"),
    ("digraph.distance_table", "drdkit.digraph", "distance_table"),
    ("digraph.strongly_connected", "drdkit.digraph", "strongly_connected"),
    ("partitions.distance_regular_scan", "drdkit.partitions", "distance_regular_scan"),
    ("ratlin.mat_mul", "drdkit.ratlin", "mat_mul"),
    ("ratlin.SpanBasis.init", "drdkit.ratlin", "SpanBasis.__init__"),
    ("ratlin.SpanBasis.solve", "drdkit.ratlin", "SpanBasis.solve"),
    ("ratlin.minimal_polynomial", "drdkit.ratlin", "minimal_polynomial"),
    ("ratlin.eval_poly_at_matrix", "drdkit.ratlin", "eval_poly_at_matrix"),
    ("scheme.distance_matrices", "drdkit.scheme", "distance_matrices"),
    ("scheme.scheme_axioms", "drdkit.scheme", "scheme_axioms"),
    ("scheme.pair_intersection_counts", "drdkit.scheme", "pair_intersection_counts"),
    ("scheme.damerell_numbers", "drdkit.scheme", "damerell_numbers"),
    ("scheme.two_way_relations", "drdkit.scheme", "two_way_relations"),
    ("scheme.distance_polynomials", "drdkit.scheme", "distance_polynomials"),
    ("scheme.walk_count_constancy", "drdkit.scheme", "walk_count_constancy"),
    ("spectral.is_normal", "drdkit.spectral", "is_normal"),
    ("spectral.spectrum", "drdkit.spectral", "spectrum"),
    ("spectral.spectral_excess_rhs", "drdkit.spectral", "spectral_excess_rhs"),
    ("characterize.check_all", "drdkit.characterize", "check_all"),
    ("report.report_document", "drdkit.report", "report_document"),
    ("report.canonical_json", "drdkit.report", "canonical_json"),
    ("cli.main", "drdkit.cli", "main"),
)
NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """Context manager that records one span per call of each of TARGETS.

    Reports returned by `characterize.check_all` are appended to `kept`, so
    the caller can read their public fields when the CLI hides them.
    """

    def __init__(self):
        self.names = NAMES
        self.kept: list = []
        self.graph = -1
        self.target = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.graph_id = array("l")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.target)

    def _wrap(self, index: int, fn):
        target, start, end, parent, graph_id = (
            self.target, self.start, self.end, self.parent, self.graph_id
        )
        stack = self._stack
        kept = self.kept if self.names[index] == "characterize.check_all" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(target)
            target.append(index)
            parent.append(stack[-1] if stack else -1)
            graph_id.append(self.graph)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                start[span] = t0
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "drdkit" or name.startswith("drdkit."))
        ]
        try:
            for index, (_, module_name, attr_path) in enumerate(TARGETS):
                owner = importlib.import_module(module_name)
                *path, attr = attr_path.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if path:
                    original = vars(owner)[attr]
                    self._rebind(owner, attr, self._wrap(index, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(index, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _rebind(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def summarize(self, lo: int, hi: int) -> dict[str, tuple[int, float, float]]:
        """(calls, inclusive ms, self ms) per target over spans [lo, hi).

        Self time is a span's duration minus the durations of its child
        spans; calls nest, so children never overlap each other."""
        covered = [0.0] * (hi - lo)
        for s in range(lo, hi):
            p = self.parent[s]
            if p >= lo:
                covered[p - lo] += self.end[s] - self.start[s]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for s in range(lo, hi):
            t = self.target[s]
            duration = self.end[s] - self.start[s]
            calls[t] += 1
            total[t] += duration
            own[t] += duration - covered[s - lo]
        return {
            name: (calls[i], total[i] * 1000.0, own[i] * 1000.0)
            for i, name in enumerate(self.names)
        }

    def nested_ms(self, lo: int, hi: int, child: str, parent: str) -> float:
        """Summed ms of `child` spans whose direct parent span is a `parent` span."""
        c, p = self.names.index(child), self.names.index(parent)
        return 1000.0 * sum(
            self.end[s] - self.start[s]
            for s in range(lo, hi)
            if self.target[s] == c and self.parent[s] >= 0 and self.target[self.parent[s]] == p
        )

    def write_tsv(self, path: str) -> None:
        """One line per span: id, name, start s, end s, parent id, graph id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tgraph\n")
            for s in range(len(self.target)):
                fh.write(
                    f"{s}\t{self.names[self.target[s]]}\t{self.start[s]:.9f}\t"
                    f"{self.end[s]:.9f}\t{self.parent[s]}\t{self.graph_id[s]}\n"
                )
