"""Simple digraph core: parsing, validation, distances, girth, converse.

Vertices are dense indices 0..n-1; external string labels are kept only for
reporting. All types are immutable after construction and every operation is
a pure function.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DuplicateArc, EmptyGraph, LoopRejected, ParseError

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


@dataclass(frozen=True, eq=False)
class DistanceTable:
    """All-pairs directed distances as one read-only int64 array.

    ``array[x][y]`` is d(x, y), or -1 when y is unreachable from x. Its
    level sets 0..diameter are the distance classes, so the array is also
    their class index. ``girth`` is None when the digraph has no directed
    cycle; ``strongly_connected`` says whether no entry is -1.
    """

    array: np.ndarray = field(repr=False)
    diameter: int
    girth: Optional[int]
    strongly_connected: bool

    @property
    def n(self) -> int:
        return self.array.shape[0]


def _bfs(neighbors: Sequence[Sequence[int]], source: int, n: int) -> list[int]:
    """Distances from source along neighbors, -1 for an unreachable vertex."""
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v] + 1
        for u in neighbors[v]:
            if dist[u] < 0:
                dist[u] = dv
                queue.append(u)
    return dist


def strongly_connected(g: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path.

    Two BFS sweeps from vertex 0, one along arcs and one against them.
    """
    if -1 in _bfs(g.out_neighbors, 0, g.n):
        return False
    return -1 not in _bfs(g.in_neighbors, 0, g.n)  # in-neighbours only when needed


def distance_table(g: Digraph) -> DistanceTable:
    """BFS from every vertex; also derives the diameter and the girth.

    The diameter is the largest finite distance. The girth is the length of
    a shortest directed cycle: the minimum over arcs (u, v), i.e. entries
    d(u, v) = 1, of d(v, u) + 1 where u is reachable from v.
    """
    n = g.n
    array = np.array([_bfs(g.out_neighbors, v, n) for v in range(n)], dtype=np.int64)
    array.flags.writeable = False
    back = array.T[array == 1]
    back = back[back >= 0]
    return DistanceTable(
        array=array,
        diameter=int(array.max()),
        girth=int(back.min()) + 1 if back.size else None,
        strongly_connected=bool(array.min() >= 0),
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
