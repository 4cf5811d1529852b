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
one of three kernels and by two rules. The work of one source row is
n * (D + 1) + m; below NUMPY_ROUTE_WORK, the pure-Python `shell_counts`
counts one source row at a time. From it on, `block_shell_counts` counts a
block of source rows at once, the blocks doubling from one row up to
COUNT_BLOCK elements per array, so a "no" found at vertex 0 pays for one
row. It counts by one float64 GEMM of the 0/1 operator with the block's
one-hot class matrix where the GEMM's flops are below GEMM_FLOPS_PER_KEY
times the keys of one numpy `bincount`, and by that `bincount` otherwise.
Every kernel visits the sources in the same order and reports the same
witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .digraph import Digraph, DistanceTable
from .errors import NotStronglyConnected

# Work of one source row, n * (D + 1) + m, from which the counts run on
# numpy: below it one numpy call costs more than the Python loop it
# replaces. Set from a size sweep of cycles, Paley digraphs and random
# digraphs: on a "yes" numpy is faster from a work of about 250, and a "no"
# decided at vertex 0 pays a fixed 0.2-0.3 ms more on it, so the cut sits
# at twice that crossover.
NUMPY_ROUTE_WORK = 512

# Cap on the elements of each array one block of source rows allocates on
# the numpy route; a block holds at least one row, whatever the cap.
COUNT_BLOCK = 1 << 15

# Flops of one BLAS GEMM worth one bincount key or bin: `block_shell_counts`
# counts by GEMM when 2 * T * n * (D + 1) flops a row (T tails: n, or 2n for
# both halves) stay below this many times its bincount's arcs + T * (D + 1)
# keys and bins. Set from a sweep of the counts on cycles, Paley digraphs,
# random digraphs, Kautz and de Bruijn digraphs (ROADMAP item 4): Paley
# digraphs sit below 12 and GEMM is 1.2-6x faster there; cycles sit at 18
# and up, where GEMM is 9-13 % slower up to 38 and 1.5-4x slower from 58.
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
    dist in order, in `row_blocks` sized for the kernel: per row, the counts
    and, on bincount, the keys. The GEMM's operator is built once."""
    n = dist.shape[1]
    per_row, operator = tail_count * width, None
    if gemm_kernel(n, width, tail_count, len(tails)):
        operator = _operator(tails, heads, tail_count, n)
    else:
        per_row = max(per_row, len(tails))
    for lo, rows in row_blocks(dist, per_row):
        yield lo, rows, block_shell_counts(rows, tails, heads, width, tail_count, operator)


def row_blocks(dist: np.ndarray, per_row: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, block of rows) of dist in order: 1, 2, 4, ... rows, up to
    COUNT_BLOCK elements per array at per_row elements a row."""
    n = dist.shape[0]
    cap = max(1, COUNT_BLOCK // per_row)
    lo, step = 0, 1
    while lo < n:
        yield lo, dist[lo : lo + step]
        lo += step
        step = min(2 * step, cap)


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


# A scan's outcome: (the common parameters, None, "") on success, else
# (None, the first failing source vertex, the failure's kind).
_Scan = tuple[Optional[EquitableParams], Optional[int], str]


def _python_scan(g: Digraph, dist: np.ndarray) -> _Scan:
    """The scan over the rows of dist, one source row at a time through
    `shell_counts`."""
    reference: Optional[EquitableParams] = None
    ref_cells = 0
    for x in range(g.n):
        row = dist[x].tolist()
        cells = max(row) + 1
        if x == 0:
            ref_cells = cells
        elif cells != ref_cells:
            return None, x, "cells"
        params = _equitable_params(g, row, cells)
        if params is None:
            return None, x, "equitable"
        if reference is None:
            reference = params
        elif params != reference:
            return None, x, "params"
    return reference, None, ""


def _numpy_scan(g: Digraph, dist: np.ndarray, width: int) -> _Scan:
    """What `_python_scan` returns, from blocks of source rows through
    `count_blocks`: one count holds both halves, the in-half as the tails
    n..2n - 1 of the swapped arcs. A block's rows are tested
    together, and the first row that fails names the failure, in the order
    class count, equitability, vertex 0's parameters."""
    n = g.n
    tails, heads = g.arc_arrays
    both = (np.concatenate([tails, heads + n]), np.concatenate([heads, tails]))
    classes = np.arange(width)
    ref = None  # vertex 0's class count, (d_out, d_in) and cell sizes
    for lo, rows, counts in count_blocks(dist, *both, width, 2 * n):
        b = len(rows)
        block = np.arange(b)[:, None]
        cells = rows.max(axis=1) + 1
        member = rows[:, :, None] == classes
        first = member.argmax(axis=1)  # lowest vertex of each class
        sizes = member.sum(axis=1)
        # halves[h][b][y][j]: out- (h = 0) and in-neighbors (h = 1) of y in class j
        halves = counts.reshape(b, 2, n, width)
        halves = halves.transpose(1, 0, 2, 3)
        equitable = (halves == halves[:, block, first[block, rows]]).all(axis=(0, 2, 3))
        params = halves[:, block, first]
        if ref is None:  # the first block is vertex 0 alone
            ref = (int(cells[0]), params[:, 0, : cells[0]], sizes[0])
        c0, ref_params, ref_sizes = ref
        same = (params[:, :, :c0] == ref_params[:, None]).all(axis=(0, 2, 3)) & (
            sizes == ref_sizes
        ).all(axis=1)
        failed = (cells != c0) | ~equitable | ~same
        if failed.any():
            k = int(failed.argmax())
            kind = "cells" if cells[k] != c0 else "equitable" if not equitable[k] else "params"
            return None, lo + k, kind
    d_out, d_in = ref_params[:, :, :c0].tolist()
    return EquitableParams(
        tuple(map(tuple, d_out)), tuple(map(tuple, d_in)), tuple(ref_sizes[:c0].tolist())
    ), None, ""


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
    if not t.strongly_connected:
        raise NotStronglyConnected("distance-regularity is defined for strongly connected digraphs")
    dist = t.array if direction == "out" else t.array.T
    width = t.diameter + 1
    if numpy_route(g, width):
        params, x, kind = _numpy_scan(g, dist, width)
    else:
        params, x, kind = _python_scan(g, dist)
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
