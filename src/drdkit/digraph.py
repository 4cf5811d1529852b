"""Simple digraph core: parsing, validation, distances, girth, converse.

Vertices are dense indices 0..n-1; external string labels are kept only for
reporting. All types are immutable after construction and every operation is
a pure function.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DuplicateArc, EmptyGraph, LoopRejected, ParseError

# The all-sources frontier builds the distance table when its level bound
# times n^3 flops is below FRONTIER_FLOPS_PER_STEP times the n * (n + m)
# steps of n Python BFS, and only from FRONTIER_MIN_STEPS such steps, below
# which a few numpy calls a level cost more than the whole Python table.
# Both are set from a sweep of cycles, Paley digraphs, random digraphs,
# Kautz and de Bruijn digraphs (CHANGES.md, "A dense "yes" on BLAS").
FRONTIER_FLOPS_PER_STEP = 250
FRONTIER_MIN_STEPS = 1024

# Largest vertex count accepted. A header is checked against it before the
# dense n x n adjacency is allocated, so a hostile "1000000 0" fails at once
# instead of exhausting memory.
MAX_VERTICES = 2048


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise ParseError(f"{n} vertices exceed the limit of {MAX_VERTICES}")


@dataclass(frozen=True, eq=False)
class Digraph:
    """Immutable simple digraph: its labels and its adjacency relation as one
    read-only n x n bool array, compared and hashed by value. The constructor
    validates an array of any 0/1 numbers and keeps a bool copy of it."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ParseError(f"adjacency has shape {matrix.shape}, expected n x n")
        n = len(matrix)
        if n == 0:
            raise EmptyGraph("digraph needs at least one vertex")
        if len(self.labels) != n:
            raise ParseError(f"expected {n} labels, got {len(self.labels)}")
        if matrix.dtype != bool:
            # The first row with a bad entry or a loop decides, entries first.
            bad = (matrix != 0) & (matrix != 1)
            rows = np.flatnonzero(bad.any(axis=1) | (matrix.diagonal() != 0))
            if rows.size and bad[rows[0]].any():
                entry = matrix[rows[0]][bad[rows[0]]][0].item()
                raise ParseError(f"adjacency entries must be 0 or 1, got {entry!r}")
        if matrix.diagonal().any():
            v = np.flatnonzero(matrix.diagonal())[0]
            raise LoopRejected(f"loop at vertex {self.labels[v]}")
        matrix = matrix.astype(bool, order="C")  # a copy: the caller's stays writeable
        matrix.flags.writeable = False
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_arcs(
        cls,
        n: int,
        arcs: Iterable[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ) -> "Digraph":
        """Build from an arc list, or an m x 2 array of arcs. The first arc
        in input order that is out of range, a loop or a repeat raises."""
        if n <= 0:
            raise EmptyGraph("digraph needs at least one vertex")
        _check_size(n)
        # An index past int64 makes an object array, which compares exactly.
        ends = np.asarray(arcs if isinstance(arcs, np.ndarray) else list(arcs)).reshape(-1, 2)
        tails, heads = ends.T
        keys = tails * n + heads
        labels = tuple(labels) if labels is not None else tuple(map(str, range(n)))
        # m arcs in range set m entries off the diagonal exactly when none is
        # a loop or a repeat: three reductions decide a valid arc list, whose
        # matrix then needs no check of its own. Any other input is checked
        # arc by arc, in input order, and then by the constructor.
        if len(labels) == n and (not ends.size or (ends.min() >= 0 and ends.max() < n)):
            matrix = np.zeros((n, n), dtype=bool)
            matrix.reshape(-1)[keys.astype(np.intp)] = True
            if np.count_nonzero(matrix) == len(keys) and not matrix.diagonal().any():
                matrix.flags.writeable = False
                g = object.__new__(cls)
                object.__setattr__(g, "labels", labels)
                object.__setattr__(g, "matrix", matrix)
                return g
        outside = ((ends < 0) | (ends >= n)).any(axis=1)
        order = keys.argsort(kind="stable")  # each repeat sorts after an equal key
        repeat = np.zeros(len(keys), dtype=bool)
        repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        # An out-of-range arc's key may equal a later arc's; it is flagged first.
        flagged = np.flatnonzero(outside | (tails == heads) | repeat)
        if flagged.size:
            u, v = int(tails[flagged[0]]), int(heads[flagged[0]])
            if outside[flagged[0]]:
                raise ParseError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise LoopRejected(f"loop at vertex {u}")
            raise DuplicateArc(f"arc ({u}, {v}) repeated")
        matrix = np.zeros((n, n), dtype=bool)
        matrix.reshape(-1)[keys.astype(np.intp)] = True
        return cls(labels, matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash((self.labels, np.packbits(self.matrix).tobytes()))

    @cached_property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def m(self) -> int:
        """Number of arcs."""
        return int(np.count_nonzero(self.matrix))

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        return _neighbor_lists(self.matrix)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        return _neighbor_lists(self.matrix.T)

    @cached_property
    def arc_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads): the arcs as two read-only index arrays, in
        row-major order."""
        tails, heads = np.nonzero(self.matrix)
        tails.flags.writeable = heads.flags.writeable = False
        return tails, heads

    def arcs(self) -> list[tuple[int, int]]:
        """The arcs as pairs of Python ints, in row-major order."""
        tails, heads = self.arc_arrays
        return list(zip(tails.tolist(), heads.tolist()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Digraph(n={self.n}, m={self.m})"


def _neighbor_lists(matrix: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """For each row of a bool matrix, the columns of its true entries."""
    columns = range(len(matrix))
    return tuple(tuple(compress(columns, row)) for row in matrix.tolist())


@dataclass(frozen=True, eq=False)
class DistanceTable:
    """All-pairs directed distances of a strongly connected digraph as one
    read-only int64 array.

    ``array[x][y]`` is d(x, y). Its level sets 0..diameter are the distance
    classes, so the array is also their class index. ``girth`` is None only
    on a single vertex, which has no arc.
    """

    array: np.ndarray = field(repr=False)
    diameter: int
    girth: Optional[int]

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


def _sweeps_from_0(
    forward: Sequence[Sequence[int]], backward: Sequence[Sequence[int]], n: int
) -> Optional[tuple[list[int], list[int]]]:
    """The BFS rows from vertex 0 along forward and along backward, or None
    as soon as one misses a vertex, that is, exactly when the digraph is not
    strongly connected. A miss by the first sweep skips the second."""
    row0 = _bfs(forward, 0, n)
    if -1 in row0:
        return None
    col0 = _bfs(backward, 0, n)
    return None if -1 in col0 else (row0, col0)


def strongly_connected(g: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    return _sweeps_from_0(g.out_neighbors, g.in_neighbors, g.n) is not None


def _frontier_pays(g: Digraph, levels: int) -> bool:
    """Whether the all-sources frontier, at most `levels` products of n^3
    flops, beats n Python BFS: from FRONTIER_MIN_STEPS steps n * (n + m) on,
    when levels * n^3 is below FRONTIER_FLOPS_PER_STEP times those steps."""
    n = g.n
    steps = n * (n + g.m)
    return steps >= FRONTIER_MIN_STEPS and levels * n**3 < FRONTIER_FLOPS_PER_STEP * steps


def _frontier_table(g: Digraph) -> np.ndarray:
    """Distances from every source at once: level l's frontier holds the
    pairs (x, z) first reached at distance l, the unreached nonzero entries
    of the previous frontier times A. g must be strongly connected, so
    every level reaches a new pair until all are reached."""
    n = g.n
    a = g.matrix.astype(np.float64)
    array = np.zeros((n, n), dtype=np.int64)
    reached = np.eye(n, dtype=bool)
    frontier = np.eye(n)
    left, level = n * n - n, 0
    while left:
        level += 1
        fresh = frontier @ a > 0
        fresh &= ~reached
        array[fresh] = level
        reached |= fresh
        left -= int(np.count_nonzero(fresh))
        frontier = fresh.astype(np.float64)
    return array


def distance_table(g: Digraph) -> Optional[DistanceTable]:
    """All-pairs distances, with the diameter and the girth; None when g is
    not strongly connected, decided by two BFS from vertex 0 before any
    table is allocated.

    The BFS from vertex 0 is the table's row 0, and d(x,y) <= d(x,0) + d(0,y)
    makes ecc_out(0) + ecc_in(0) a bound on the levels of the all-sources
    frontier: one float64 product of the boolean frontier with A per level.
    The frontier builds the table where `_frontier_pays` says so: on dense
    digraphs of small diameter. Otherwise, on cycles and on every digraph
    of at most 10 vertices (n^3 < FRONTIER_MIN_STEPS), one Python BFS runs
    from every other vertex.

    The girth is the length of a shortest directed cycle: the minimum over
    arcs (u, v), i.e. entries d(u, v) = 1, of d(v, u) + 1.
    """
    n = g.n
    sweeps = _sweeps_from_0(g.out_neighbors, g.in_neighbors, n)
    if sweeps is None:
        return None
    row0, col0 = sweeps
    # n * (n + m) <= n^3: below the floor in n alone, m is not even read.
    if n**3 >= FRONTIER_MIN_STEPS and _frontier_pays(g, max(row0) + max(col0)):
        array = _frontier_table(g)
    else:
        rows = [row0] + [_bfs(g.out_neighbors, v, n) for v in range(1, n)]
        array = np.array(rows, dtype=np.int64)
    array.flags.writeable = False
    back = array.T[array == 1]
    return DistanceTable(
        array=array,
        diameter=int(array.max()),
        girth=int(back.min()) + 1 if back.size else None,
    )


def converse(g: Digraph) -> Digraph:
    """The digraph with every arc reversed."""
    return Digraph(g.labels, g.matrix.T)


def regularity(g: Digraph) -> Optional[int]:
    """The common valency k when all in- and out-degrees equal k, else None."""
    out = g.matrix.sum(axis=1)
    k = int(out[0])
    return k if (out == k).all() and (g.matrix.sum(axis=0) == k).all() else None


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
    # One split per line, kept as tokens: holding every line's list would
    # make the cyclic garbage collector rescan millions of live lists.
    tokens: list[str] = []
    for line in body:
        pair = line.split()
        if len(pair) != 2:
            raise ParseError(f"malformed arc line {line!r}")
        tokens += pair
    labels = None
    try:
        ends = list(map(int, tokens))
    except ValueError:  # label mode: dense indices in first-appearance order
        index: dict[str, int] = {}
        for tok in tokens:
            if tok not in index:
                if len(index) == n:
                    raise ParseError(f"more than {n} distinct labels (at {tok!r})")
                index[tok] = len(index)
        if len(index) != n:
            raise ParseError(f"declared {n} vertices but only {len(index)} labels appear")
        ends, labels = [index[tok] for tok in tokens], tuple(index)
    arcs = np.array(ends).reshape(-1, 2)
    outside = np.flatnonzero(((arcs < 0) | (arcs >= n)).any(axis=1))
    if outside.size:
        i = 2 * outside[0]
        raise ParseError(f"vertex index out of range in arc {tokens[i]} {tokens[i + 1]}")
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
            rows.append([int(t) for t in toks])
        except ValueError as exc:
            raise ParseError(f"non-numeric matrix entry in {line!r}") from exc
    return Digraph(tuple(map(str, range(n))), np.array(rows))


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
