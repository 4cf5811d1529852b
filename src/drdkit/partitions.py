"""Distance-regularity by equitable distance partitions (checks DEF and F).

The distance partition around a vertex x groups the vertices by their
distance from x (out) or to x (in). It is equitable when every vertex y of a
cell has the same number of out-neighbors and of in-neighbors in each cell.
A strongly connected digraph is distance-regular when the out-distance
partition around every vertex is equitable with parameters that do not
depend on the vertex; the in-distance mirror is an equivalent formulation
and is checked independently.

Both scans, and Damerell's one-step table in `scheme`, are one count,
`one_step_scan`: for every pair (x, y), the neighbors of y by their
distance class around the source vertex x, compared with the counts of the
first pair of the class of (x, y). It runs on one of three kernels. Vertex
0 always runs on the pure-Python `shell_counts`: it sets the references,
and a "no" found there costs one Python row. The work of one source row is
n * (D + 1) + m; below NUMPY_ROUTE_WORK the later rows follow on Python one
at a time. From it on, `block_shell_counts` counts them in blocks of up to
COUNT_BLOCK elements per array, and each block passes or fails in one
comparison with the references; only the first failing row is examined
further. It counts by one float64 GEMM of the 0/1 operator with the
block's one-hot class matrix where the GEMM's flops are below
GEMM_FLOPS_PER_KEY times the keys of one numpy `bincount`, and by that
`bincount` otherwise. Every kernel visits the pairs in the same order and
reports the same mismatch.
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
    dist after row 0, which `one_step_scan` counts on the Python route, in
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


# The one scan's outcome: refs[h][i], the half-h counts of class i's first
# pair (None for a class the scan did not reach), and the first mismatch as
# (x, y, its class, its counts in the half that differs), or None.
_Scan = tuple[list, Optional[tuple[int, int, int, list[int]]]]


def one_step_scan(g: Digraph, dist: np.ndarray, width: int, both: bool) -> _Scan:
    """For every pair (x, y) of the rows of dist, in row-major order, the
    neighbors z of y counted by their class dist[x][z] in [0, width): the
    out-neighbors, then, when `both`, the in-neighbors. Each half is compared
    with that of the first pair of the class dist[x][y]. Row 0, and below
    `NUMPY_ROUTE_WORK` every row, runs on `shell_counts` one half at a time,
    so a row that fails in its out-half counts no in-half; the later rows
    run in `count_blocks`. The first mismatch is taken in the order (row,
    half, y) on both routes."""
    halves = (g.out_neighbors, g.in_neighbors) if both else (g.out_neighbors,)
    refs: list[list] = [[None] * width for _ in halves]
    blocks = numpy_route(g, width)
    for x in range(1 if blocks else g.n):
        row = dist[x].tolist()
        for h, neighbors in enumerate(halves):
            ref = refs[h]
            for y, counts in enumerate(shell_counts(row, neighbors, width)):
                base = ref[row[y]]
                if base is None:
                    ref[row[y]] = counts
                elif counts != base:
                    return refs, (x, y, row[y], counts)
    return _block_scan(g, dist, width, refs) if blocks else (refs, None)


def _block_scan(g: Digraph, dist: np.ndarray, width: int, row0: list) -> _Scan:
    """`one_step_scan` on blocks of the rows after row 0, which set the
    references in row0. One count holds every half, the in-half as the
    tails n..2n - 1 of the swapped arcs. A class that row 0 lacks takes its
    references from the first block that holds one of its pairs, before
    that block is compared, and a block passes in one comparison."""
    n, halves = g.n, len(row0)
    tails, heads = g.arc_arrays
    if halves == 2:
        tails, heads = np.concatenate([tails, heads + n]), np.concatenate([heads, tails])
    unseen = np.array([r is None for r in row0[0]])
    # ref[h * width + i]: the half-h counts of class i; int32 holds any count
    # and keeps a block's expected counts small
    ref = np.array(
        [[0] * width if r is None else r for half in row0 for r in half], dtype=np.int32
    )
    offsets = (np.arange(halves) * width)[:, None]
    for lo, rows, counts in count_blocks(dist, tails, heads, width, halves * n):
        counts = counts.reshape(len(rows), halves, n, width)
        keys = rows[:, None] + offsets  # [b, h, y]
        if unseen.any():
            labels, at = np.unique(rows, return_index=True)
            first_b, first_y = np.divmod(at[unseen[labels]], n)
            ref[keys[first_b, :, first_y]] = counts[first_b, :, first_y]
            unseen[labels] = False
        bad = counts != ref[keys]
        if bad.any():
            b, h, y = map(int, np.unravel_index(int(bad.any(axis=3).argmax()), bad.shape[:3]))
            refs = ref.reshape(halves, width, width).tolist()
            return refs, (lo + b, y, int(rows[b, y]), counts[b, h, y].tolist())
    return ref.reshape(halves, width, width).tolist(), None


def _failure(g: Digraph, row: list[int], top: int, refs: list) -> str:
    """How the partition by the classes in row fails vertex 0's, whose
    classes reach `top` and whose class i has the half-h counts refs[h][i]:
    "cells", "equitable" or "params", in that order, or "" where it does
    not."""
    if max(row) != top:
        return "cells"
    first = [row.index(i) for i in range(top + 1)]  # lowest vertex of each cell
    width = len(refs[0])
    halves = [shell_counts(row, nbrs, width) for nbrs in (g.out_neighbors, g.in_neighbors)]
    if any(c[y] != c[first[i]] for c in halves for y, i in enumerate(row)):
        return "equitable"
    if any(c[y] != ref[i] for c, ref in zip(halves, refs) for y, i in enumerate(row)):
        return "params"
    return ""


def distance_regular_scan(
    g: Digraph, t: DistanceTable, direction: str
) -> tuple[Optional[EquitableParams], Optional[str]]:
    """Shared body of the out- and in-partition distance-regularity checks.

    Runs `one_step_scan` on both halves over the source vertices x in
    order: the rows of the distance table for "out", its columns for "in".
    Every pair's counts equal those of its class's first pair exactly when
    every partition is equitable with vertex 0's parameters and cells. A
    row with a cell past vertex 0's has a vertex in vertex 0's last cell
    with a neighbor in it, where vertex 0's last cell has none; a row with
    fewer cells misses the neighbors one cell farther that vertex 0's cells
    hold; and with equal parameters the sizes follow cell by cell from the
    one source, since the arcs between cells i and i + 1 number
    s_i d_out[i][i+1] = s_{i+1} d_in[i+1][i] (out and in swapped for the
    in-partition). The first failing row is recounted for the failure's
    kind: its class count, then equitability, then equality with vertex
    0's parameters.

    Returns (params, None) on success or (None, failure description).
    """
    dist = t.array if direction == "out" else t.array.T
    refs, mismatch = one_step_scan(g, dist, t.diameter + 1, both=True)
    if mismatch is None:
        d_out, d_in = (tuple(map(tuple, half)) for half in refs)
        return EquitableParams(d_out, d_in, tuple(np.bincount(dist[0]).tolist())), None
    x = mismatch[0]
    top = int(dist[0].max())
    kind = "equitable" if x == 0 else _failure(g, dist[x].tolist(), top, refs)
    if not kind:
        raise InternalInconsistency(f"source row {x} fails its block test alone")
    if kind == "cells":
        return None, (
            f"vertex {g.labels[x]} has {int(dist[x].max())} {direction}-distance classes, "
            f"vertex {g.labels[0]} has {top}"
        )
    if kind == "equitable":
        return None, f"{direction}-distance partition around {g.labels[x]} is not equitable"
    return None, (
        f"{direction}-distance parameters around {g.labels[x]} differ "
        f"from those around {g.labels[0]}"
    )
