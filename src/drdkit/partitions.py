"""Distance-regularity by equitable distance partitions (checks DEF and F).

The distance partition around a vertex x groups the vertices by their
distance from x (out) or to x (in). It is equitable when every vertex y of a
cell has the same number of out-neighbors and of in-neighbors in each cell.
A strongly connected digraph is distance-regular when the out-distance
partition around every vertex is equitable with parameters that do not
depend on the vertex; the in-distance mirror is an equivalent formulation
and is checked independently.

Both scans, and Damerell's one-step table in `scheme`, count the neighbors
of every vertex y by their distance class around a source vertex x, with
one of three kernels and by two rules. Vertex 0 always runs on the
pure-Python `shell_counts`: it sets the reference, and a "no" found there
costs one Python row. The work of one source row is n * (D + 1) + m; below
NUMPY_ROUTE_WORK the later rows follow on Python one at a time. From it
on, `block_shell_counts` counts them in blocks of up to COUNT_BLOCK
elements per array, and each block passes or fails in one comparison with
vertex 0's reference; only the first failing row is examined further. It
counts by one float64 GEMM of the 0/1 operator with the block's one-hot
class matrix where the GEMM's flops are below GEMM_FLOPS_PER_KEY times the
keys of one numpy `bincount`, and by that `bincount` otherwise. Every
kernel visits the sources in the same order and reports the same witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .digraph import Digraph, DistanceTable
from .errors import InternalInconsistency

# Work of one source row, n * (D + 1) + m, from which the rows after vertex
# 0 run on numpy. Set from a size sweep of cycles, Paley digraphs, blow-ups
# of cycles, circulants and random digraphs (CHANGES.md, "The pair scan on
# GEMM or sorted keys"): on a "yes" numpy is faster from a work of about 40,
# and a "no" decided at vertex 0 costs the same on both routes. The cut sits
# above 8 * 15, the bound n * (n + D) on any digraph of at most 8 vertices,
# which route in constant time and on Python; all of them on numpy cost
# the fuzz workload 7 % more.
NUMPY_ROUTE_WORK = 128

# Cap on the elements of each array one block of source rows allocates on
# the numpy route; a block holds at least one row, whatever the cap. Of
# 2^12..2^17, 2^15 was fastest or within 5 % on cycles and Paley digraphs
# of 20 to 251 vertices.
COUNT_BLOCK = 1 << 15

# Flops of one BLAS GEMM worth one bincount key or bin: `block_shell_counts`
# counts by GEMM when 2 * T * n * (D + 1) flops a row (T tails: n, or 2n for
# both halves) stay below this many times its bincount's arcs + T * (D + 1)
# keys and bins. Set from a sweep of the counts on cycles, Paley digraphs,
# random digraphs, Kautz and de Bruijn digraphs (CHANGES.md, "A dense "yes"
# on BLAS"): Paley digraphs sit below 12 and GEMM is 1.2-6x faster there;
# cycles sit at 18 and up, where GEMM is 9-13 % slower up to 38 and 1.5-4x
# slower from 58.
GEMM_FLOPS_PER_KEY = 16


@dataclass(frozen=True)
class EquitableParams:
    """Parameter matrices of an equitable partition.

    d_out[i][j] = out-neighbors a cell-i vertex has in cell j;
    d_in[i][j]  = in-neighbors a cell-i vertex has in cell j.
    """

    d_out: tuple[tuple[int, ...], ...]
    d_in: tuple[tuple[int, ...], ...]
    cell_sizes: tuple[int, ...]


def numpy_route(g: Digraph, width: int) -> bool:
    """Whether the counts over distance classes 0..width - 1 run on numpy.
    The arcs are counted only where n * (width + n - 1), a bound on the
    work, reaches the cut, so a small digraph is routed in constant time."""
    n = g.n
    return n * (width + n - 1) >= NUMPY_ROUTE_WORK and n * width + g.m >= NUMPY_ROUTE_WORK


def shell_counts(
    row: Sequence[int], neighbors: Sequence[Sequence[int]], width: int
) -> list[list[int]]:
    """counts[y][j] = |{z in neighbors[y] : row[z] = j}| for every vertex y,
    where row holds one vertex's distance classes, each in [0, width)."""
    counts = []
    for nbrs in neighbors:
        c = [0] * width
        for z in nbrs:
            c[row[z]] += 1
        counts.append(c)
    return counts


def gemm_kernel(n: int, width: int, tail_count: int, arcs: int) -> bool:
    """Whether `block_shell_counts` counts by GEMM rather than bincount, for
    rows of n vertices in classes [0, width) and `arcs` arcs from
    tail_count tails: by the GEMM's flops a row against the bincount's keys
    and bins a row."""
    return 2 * tail_count * n * width < GEMM_FLOPS_PER_KEY * (arcs + tail_count * width)


def _operator(tails: np.ndarray, heads: np.ndarray, tail_count: int, n: int) -> np.ndarray:
    """The 0/1 operator M[y][z] = [arc (y, z)], tail_count x n, in float64."""
    operator = np.zeros((tail_count, n))
    operator[tails, heads] = 1.0
    return operator


def block_shell_counts(
    rows: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    width: int,
    tail_count: int,
    operator: Optional[np.ndarray] = None,
) -> np.ndarray:
    """counts[b][y][j] = |{arcs (y, z) : rows[b][z] = j}| for a block of
    source rows, every tail y in [0, tail_count) and every class in
    [0, width). Where `gemm_kernel` says so, by one GEMM: the entry
    (H M^T)[(b, j)][y] of the one-hot H[(b, j)][z] = [rows[b][z] = j] and the
    arcs' `_operator` M (built here unless given), exact in float64 since no
    sum exceeds n. Else by one bincount over the keys
    (b * tail_count + y) * width + rows[b][z]. Swapping tails and heads
    counts in-neighbors instead."""
    b, n = rows.shape
    if gemm_kernel(n, width, tail_count, len(tails)):
        if operator is None:
            operator = _operator(tails, heads, tail_count, n)
        onehot = (rows[:, None, :] == np.arange(width)[:, None]).reshape(b * width, n)
        counts = onehot.astype(np.float64) @ operator.T
        return counts.reshape(b, width, tail_count).transpose(0, 2, 1).astype(np.int64, order="C")
    keys = rows[:, heads]
    keys += tails * width
    keys += (np.arange(b) * (tail_count * width))[:, None]
    return np.bincount(keys.ravel(), minlength=b * tail_count * width).reshape(
        b, tail_count, width
    )


def count_blocks(
    dist: np.ndarray, tails: np.ndarray, heads: np.ndarray, width: int, tail_count: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(first row, block of rows, its `block_shell_counts`) over the rows of
    dist after row 0, which the callers count on the Python route, in
    `row_blocks` sized for the kernel: per row, the counts and, on bincount,
    the keys. The GEMM's operator is built once."""
    n = dist.shape[1]
    per_row, operator = tail_count * width, None
    if gemm_kernel(n, width, tail_count, len(tails)):
        operator = _operator(tails, heads, tail_count, n)
    else:
        per_row = max(per_row, len(tails))
    for lo, rows in row_blocks(dist, per_row, 1):
        yield lo, rows, block_shell_counts(rows, tails, heads, width, tail_count, operator)


def row_blocks(dist: np.ndarray, per_row: int, start: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, block of rows) of dist from row `start` on, each block up
    to COUNT_BLOCK elements per array at per_row elements a row."""
    step = max(1, COUNT_BLOCK // per_row)
    for lo in range(start, dist.shape[0], step):
        yield lo, dist[lo : lo + step]


def _equitable_params(g: Digraph, row: list[int], width: int) -> Optional[EquitableParams]:
    """Parameters of the partition of the vertices by their class in row,
    when it is equitable, else None. Every class in [0, width) must occur."""
    first = [-1] * width  # lowest vertex of each cell
    sizes = [0] * width
    for y, i in enumerate(row):
        sizes[i] += 1
        if first[i] < 0:
            first[i] = y
    params = []
    for neighbors in (g.out_neighbors, g.in_neighbors):
        counts = shell_counts(row, neighbors, width)
        if any(counts[y] != counts[first[i]] for y, i in enumerate(row)):
            return None
        params.append(tuple(tuple(counts[f]) for f in first))
    return EquitableParams(d_out=params[0], d_in=params[1], cell_sizes=tuple(sizes))


def _failure(g: Digraph, row: list[int], reference: EquitableParams) -> str:
    """How the partition by the classes in row fails vertex 0's: "cells",
    "equitable" or "params", in that order, or "" where it does not."""
    cells = max(row) + 1
    if cells != len(reference.cell_sizes):
        return "cells"
    params = _equitable_params(g, row, cells)
    if params is None:
        return "equitable"
    return "" if params == reference else "params"


def _first_failing_row(
    g: Digraph, dist: np.ndarray, width: int, reference: EquitableParams
) -> Optional[int]:
    """The first row after row 0 whose partition fails vertex 0's, counted
    in `count_blocks`: one count holds both halves, the in-half as the tails
    n..2n - 1 of the swapped arcs. A block passes in one comparison of every
    count with vertex 0's parameters at its vertex's class, zero past
    vertex 0's cells. That decides the class count and the cell sizes too:
    a vertex in a cell past vertex 0's has a neighbor one cell nearer,
    where zero is expected; a row with fewer cells misses the neighbors one
    cell farther that vertex 0's parameters hold; and with equal parameters
    the sizes follow cell by cell from the one source, since the arcs
    between cells i and i + 1 number s_i d_out[i][i+1] = s_{i+1} d_in[i+1][i]
    (out and in swapped for the in-partition)."""
    n = g.n
    tails, heads = g.arc_arrays
    both = (np.concatenate([tails, heads + n]), np.concatenate([heads, tails]))
    cells = len(reference.cell_sizes)
    # params[h][i][j]: vertex 0's out- (h = 0) and in-parameters (h = 1);
    # int32 holds any count, and keeps a block's expected counts small
    params = np.zeros((2, width, width), dtype=np.int32)
    params[:, :cells, :cells] = (reference.d_out, reference.d_in)
    halves = np.array([[0], [width]])  # class offsets of the two halves
    for lo, rows, counts in count_blocks(dist, *both, width, 2 * n):
        expected = params.reshape(2 * width, width)[rows[:, None] + halves]
        counts = counts.reshape(expected.shape)
        if not np.array_equal(counts, expected):
            return lo + int((counts != expected).any(axis=(1, 2, 3)).argmax())
    return None


# A scan's outcome: (the common parameters, None, "") on success, else
# (None, the first failing source vertex, the failure's kind).
_Scan = tuple[Optional[EquitableParams], Optional[int], str]


def _scan(g: Digraph, dist: np.ndarray, width: int) -> _Scan:
    """The scan over the rows of dist. Vertex 0 runs on the Python route and
    sets the reference. On the Python route every later row follows one at a
    time; on the numpy route `_first_failing_row` finds the first that
    fails, and only that row is examined for the failure's kind."""
    row = dist[0].tolist()
    reference = _equitable_params(g, row, max(row) + 1)
    if reference is None:
        return None, 0, "equitable"
    if numpy_route(g, width):
        x = _first_failing_row(g, dist, width, reference)
        if x is None:
            return reference, None, ""
        kind = _failure(g, dist[x].tolist(), reference)
        if not kind:
            raise InternalInconsistency(f"source row {x} fails its block test alone")
        return None, x, kind
    for x in range(1, g.n):
        kind = _failure(g, dist[x].tolist(), reference)
        if kind:
            return None, x, kind
    return reference, None, ""


def distance_regular_scan(
    g: Digraph, t: DistanceTable, direction: str
) -> tuple[Optional[EquitableParams], Optional[str]]:
    """Shared body of the out- and in-partition distance-regularity checks.

    Walks the source vertices x in order: the rows of the distance table for
    "out", its columns for "in". Each vertex's class count, then
    equitability (out before in), then equality with vertex 0's parameters
    is checked, on the route `numpy_route` picks.

    Returns (params, None) on success or (None, failure description).
    """
    dist = t.array if direction == "out" else t.array.T
    width = t.diameter + 1
    params, x, kind = _scan(g, dist, width)
    if x is None:
        return params, None
    if kind == "cells":
        return None, (
            f"vertex {g.labels[x]} has {int(dist[x].max())} {direction}-distance classes, "
            f"vertex {g.labels[0]} has {int(dist[0].max())}"
        )
    if kind == "equitable":
        return None, f"{direction}-distance partition around {g.labels[x]} is not equitable"
    return None, (
        f"{direction}-distance parameters around {g.labels[x]} differ "
        f"from those around {g.labels[0]}"
    )
