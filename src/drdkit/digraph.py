"""Simple digraph core: parsing, validation, distances, girth, converse.

Vertices are dense indices 0..n-1; external string labels are kept only for
reporting. All types are immutable after construction and every operation is
a pure function.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DuplicateArc, EmptyGraph, LoopRejected, ParseError

INF = math.inf

# Largest vertex count accepted. A header is checked against it before the
# dense n x n adjacency is allocated, so a hostile "1000000 0" fails at once
# instead of exhausting memory.
MAX_VERTICES = 2048


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise ParseError(f"{n} vertices exceed the limit of {MAX_VERTICES}")


@dataclass(frozen=True)
class Digraph:
    """Immutable simple digraph with a dense 01 adjacency relation."""

    n: int
    labels: tuple[str, ...]
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise EmptyGraph("digraph needs at least one vertex")
        if len(self.labels) != self.n:
            raise ParseError(f"expected {self.n} labels, got {len(self.labels)}")
        if len(self.adj) != self.n:
            raise ParseError(f"adjacency has {len(self.adj)} rows, expected {self.n}")
        for v, row in enumerate(self.adj):
            if len(row) != self.n:
                raise ParseError(f"adjacency row {v} has {len(row)} entries")
            for e in row:
                if e not in (0, 1):
                    raise ParseError(f"adjacency entries must be 0 or 1, got {e!r}")
            if row[v]:
                raise LoopRejected(f"loop at vertex {self.labels[v]}")

    @classmethod
    def from_arcs(
        cls,
        n: int,
        arcs: Iterable[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ) -> "Digraph":
        """Build from an arc list, rejecting loops and duplicate arcs."""
        if n <= 0:
            raise EmptyGraph("digraph needs at least one vertex")
        _check_size(n)
        rows = [[0] * n for _ in range(n)]
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise LoopRejected(f"loop at vertex {u}")
            if rows[u][v]:
                raise DuplicateArc(f"arc ({u}, {v}) repeated")
            rows[u][v] = 1
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        return cls(n, tuple(labels), tuple(tuple(r) for r in rows))

    @cached_property
    def out_deg(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.adj)

    @cached_property
    def in_deg(self) -> tuple[int, ...]:
        return tuple(sum(self.adj[u][v] for u in range(self.n)) for v in range(self.n))

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(u for u, e in enumerate(row) if e) for row in self.adj
        )

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(u for u in range(self.n) if self.adj[u][v])
            for v in range(self.n)
        )

    @cached_property
    def m(self) -> int:
        """Number of arcs."""
        return sum(self.out_deg)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.out_neighbors[u]]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Digraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs directed distances with diameter, eccentricities, girth.

    Entries are nonnegative ints, or ``math.inf`` for unreachable pairs.
    ``girth`` is None when the digraph has no directed cycle.
    ``strongly_connected`` says whether every entry is finite.
    ``array`` is the same table as a read-only int64 array, with -1 for an
    unreachable pair.
    """

    dist: tuple[tuple[float, ...], ...]
    diameter: int
    eccentricities: tuple[float, ...]
    girth: Optional[int]
    strongly_connected: bool
    array: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.dist)


def _bfs(neighbors: Sequence[Sequence[int]], source: int, n: int) -> list[float]:
    dist: list[float] = [INF] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for u in neighbors[v]:
            if dist[u] == INF:
                dist[u] = dv + 1
                queue.append(u)
    return dist


def strongly_connected(g: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path.

    Two BFS sweeps from vertex 0, one along arcs and one against them.
    """
    if g.n == 1:
        return True
    fwd = _bfs(g.out_neighbors, 0, g.n)
    if any(d == INF for d in fwd):
        return False
    bwd = _bfs(g.in_neighbors, 0, g.n)
    return all(d != INF for d in bwd)


def distance_table(g: Digraph) -> DistanceTable:
    """BFS from every vertex; also derives diameter, eccentricities, girth.

    The girth is the length of a shortest directed cycle, computed as the
    minimum over arcs (u, v) of dist(v, u) + 1.
    """
    n = g.n
    rows = [_bfs(g.out_neighbors, v, n) for v in range(n)]
    finite = [d for row in rows for d in row if d != INF]
    diameter = int(max(finite))
    ecc = tuple(max(row) for row in rows)
    girth: Optional[int] = None
    for u in range(n):
        for v in g.out_neighbors[u]:
            back = rows[v][u]
            if back != INF:
                cycle_len = int(back) + 1
                if girth is None or cycle_len < girth:
                    girth = cycle_len
    array = np.array(rows)
    array[array == INF] = -1
    array = array.astype(np.int64)
    array.flags.writeable = False
    return DistanceTable(
        dist=tuple(tuple(int(d) if d != INF else INF for d in row) for row in rows),
        diameter=diameter,
        eccentricities=ecc,
        girth=girth,
        strongly_connected=len(finite) == n * n,
        array=array,
    )


def converse(g: Digraph) -> Digraph:
    """The digraph with every arc reversed."""
    adj = tuple(tuple(g.adj[u][v] for u in range(g.n)) for v in range(g.n))
    return Digraph(g.n, g.labels, adj)


def regularity(g: Digraph) -> Optional[int]:
    """The common valency k when all in- and out-degrees equal k, else None."""
    k = g.out_deg[0]
    if all(d == k for d in g.out_deg) and all(d == k for d in g.in_deg):
        return k
    return None


def _parse_edge_list(lines: list[str]) -> Digraph:
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"non-numeric header {lines[0]!r}") from exc
    if n <= 0:
        raise EmptyGraph("edge list declares zero vertices")
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"declared {m} arcs but found {len(body)} arc lines")
    pairs = []
    for line in body:
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(f"malformed arc line {line!r}")
        pairs.append((toks[0], toks[1]))

    def _is_int(tok: str) -> bool:
        try:
            int(tok)
            return True
        except ValueError:
            return False

    numeric = all(_is_int(a) and _is_int(b) for a, b in pairs)
    if numeric:
        arcs = []
        for a, b in pairs:
            u, v = int(a), int(b)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex index out of range in arc {a} {b}")
            arcs.append((u, v))
        return Digraph.from_arcs(n, arcs)
    # Label mode: dense indices in first-appearance order.
    index: dict[str, int] = {}
    arcs = []
    for a, b in pairs:
        for tok in (a, b):
            if tok not in index:
                if len(index) == n:
                    raise ParseError(f"more than {n} distinct labels (at {tok!r})")
                index[tok] = len(index)
        arcs.append((index[a], index[b]))
    if len(index) != n:
        raise ParseError(f"declared {n} vertices but only {len(index)} labels appear")
    labels = tuple(sorted(index, key=index.__getitem__))
    return Digraph.from_arcs(n, arcs, labels)


def _parse_matrix(lines: list[str]) -> Digraph:
    if not lines:
        raise EmptyGraph("empty adjacency matrix")
    n = len(lines)
    _check_size(n)
    rows = []
    for line in lines:
        toks = line.split()
        if len(toks) != n:
            raise ParseError(f"matrix row {line!r} has {len(toks)} entries, expected {n}")
        try:
            rows.append(tuple(int(t) for t in toks))
        except ValueError as exc:
            raise ParseError(f"non-numeric matrix entry in {line!r}") from exc
    return Digraph(n, tuple(str(i) for i in range(n)), tuple(rows))


def parse_digraph(source: str, fmt: str = "edge-list") -> Digraph:
    """Parse a digraph from text in edge-list or adjacency-matrix format.

    Lines starting with '#' and blank lines are ignored.
    """
    lines = [ln.strip() for ln in source.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if fmt in ("edge-list", "el"):
        if not lines:
            raise EmptyGraph("empty edge list")
        return _parse_edge_list(lines)
    if fmt in ("adjacency-matrix", "matrix"):
        return _parse_matrix(lines)
    raise ParseError(f"unknown format {fmt!r}")
