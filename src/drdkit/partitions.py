"""Distance-regularity by equitable distance partitions (checks DEF and F).

The distance partition around a vertex x groups the vertices by their
distance from x (out) or to x (in). It is equitable when every vertex y of a
cell has the same number of out-neighbors and of in-neighbors in each cell.
A strongly connected digraph is distance-regular when the out-distance
partition around every vertex is equitable with parameters that do not
depend on the vertex; the in-distance mirror is an equivalent formulation
and is checked independently.

Both scans, and Damerell's one-step table in `scheme`, count through one
kernel, `shell_counts`: for one source vertex's row of distances, the
neighbors of every vertex y grouped by their distance class.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .digraph import Digraph, DistanceTable, distance_table
from .errors import NotStronglyConnected


@dataclass(frozen=True)
class EquitableParams:
    """Parameter matrices of an equitable partition.

    d_out[i][j] = out-neighbors a cell-i vertex has in cell j;
    d_in[i][j]  = in-neighbors a cell-i vertex has in cell j.
    """

    d_out: tuple[tuple[int, ...], ...]
    d_in: tuple[tuple[int, ...], ...]
    cell_sizes: tuple[int, ...]


@dataclass(frozen=True)
class DistancePartition:
    """The cells {z : d(x,z) = i} around one vertex x, for i = 0..ecc(x)."""

    cells: tuple[frozenset[int], ...]


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


def out_distance_partition(g: Digraph, x: int, t: Optional[DistanceTable] = None) -> DistancePartition:
    """Cells ordered by distance from x: {z : d(x,z) = i} for i = 0..ecc(x)."""
    if t is None:
        t = distance_table(g)
    if not t.strongly_connected:
        raise NotStronglyConnected("distance partition needs a strongly connected digraph")
    row = t.array[x].tolist()
    cells: list[set[int]] = [set() for _ in range(max(row) + 1)]
    for z, i in enumerate(row):
        cells[i].add(z)
    return DistancePartition(tuple(map(frozenset, cells)))


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


def distance_regular_scan(
    g: Digraph, t: DistanceTable, direction: str
) -> tuple[Optional[EquitableParams], Optional[str]]:
    """Shared body of the out- and in-partition distance-regularity checks.

    Walks the source vertices x in order: the rows of the distance table for
    "out", its columns for "in". Each vertex's class count, then
    equitability, then equality with vertex 0's parameters is checked, and
    only one vertex's counts are held at a time.

    Returns (params, None) on success or (None, failure description).
    """
    if not t.strongly_connected:
        raise NotStronglyConnected("distance-regularity is defined for strongly connected digraphs")
    dist = t.array if direction == "out" else t.array.T
    reference: Optional[EquitableParams] = None
    ref_cells = 0
    for x in range(g.n):
        row = dist[x].tolist()
        cells = max(row) + 1
        if x == 0:
            ref_cells = cells
        elif cells != ref_cells:
            return None, (
                f"vertex {g.labels[x]} has {cells - 1} {direction}-distance classes, "
                f"vertex {g.labels[0]} has {ref_cells - 1}"
            )
        params = _equitable_params(g, row, cells)
        if params is None:
            return None, f"{direction}-distance partition around {g.labels[x]} is not equitable"
        if reference is None:
            reference = params
        elif params != reference:
            return None, (
                f"{direction}-distance parameters around {g.labels[x]} differ "
                f"from those around {g.labels[0]}"
            )
    return reference, None


def check_definition_drd(g: Digraph, t: Optional[DistanceTable] = None) -> Optional[EquitableParams]:
    """Common parameters when the out-distance partition around every vertex
    is equitable with vertex-independent parameters, else None."""
    if t is None:
        t = distance_table(g)
    params, _ = distance_regular_scan(g, t, "out")
    return params
