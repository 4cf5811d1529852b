"""Distance partitions and equitability.

A partition is equitable when every cell-to-cell neighbor count, in both arc
directions, is constant over the source cell. A strongly connected digraph is
distance-regular when the out-distance partition around every vertex is
equitable with parameters that do not depend on the vertex; the in-distance
mirror is an equivalent formulation and is checked independently.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .digraph import Digraph, DistanceTable, distance_table
from .errors import InvalidPartition, NotStronglyConnected


@dataclass(frozen=True)
class VertexPartition:
    """Ordered list of disjoint nonempty cells covering the vertex set."""

    cells: tuple[frozenset[int], ...]
    cell_of: tuple[int, ...]

    @classmethod
    def from_cells(cls, n: int, cells) -> "VertexPartition":
        cells = tuple(frozenset(c) for c in cells)
        cell_of: list[int] = [-1] * n
        seen = 0
        for i, cell in enumerate(cells):
            if not cell:
                raise InvalidPartition(f"cell {i} is empty")
            for v in cell:
                if not (0 <= v < n):
                    raise InvalidPartition(f"vertex {v} out of range")
                if cell_of[v] != -1:
                    raise InvalidPartition(f"vertex {v} in two cells")
                cell_of[v] = i
            seen += len(cell)
        if seen != n:
            raise InvalidPartition(f"cells cover {seen} of {n} vertices")
        return cls(cells, tuple(cell_of))

    @property
    def size(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class EquitableParams:
    """Parameter matrices of an equitable partition.

    d_out[i][j] = out-neighbors a cell-i vertex has in cell j;
    d_in[i][j]  = in-neighbors a cell-i vertex has in cell j.
    """

    d_out: tuple[tuple[int, ...], ...]
    d_in: tuple[tuple[int, ...], ...]
    cell_sizes: tuple[int, ...]


def out_distance_partition(g: Digraph, x: int, t: Optional[DistanceTable] = None) -> VertexPartition:
    """Cells ordered by distance from x: {z : d(x,z) = i} for i = 0..ecc(x)."""
    if t is None:
        t = distance_table(g)
    if not t.strongly_connected:
        raise NotStronglyConnected("distance partition needs a strongly connected digraph")
    ecc = int(t.eccentricities[x])
    cells = [set() for _ in range(ecc + 1)]
    for z in range(g.n):
        cells[int(t.dist[x][z])].add(z)
    return VertexPartition.from_cells(g.n, cells)


def in_distance_partition(g: Digraph, x: int, t: Optional[DistanceTable] = None) -> VertexPartition:
    """Cells ordered by distance to x: {z : d(z,x) = i}."""
    if t is None:
        t = distance_table(g)
    if not t.strongly_connected:
        raise NotStronglyConnected("distance partition needs a strongly connected digraph")
    in_ecc = max(int(t.dist[z][x]) for z in range(g.n))
    cells = [set() for _ in range(in_ecc + 1)]
    for z in range(g.n):
        cells[int(t.dist[z][x])].add(z)
    return VertexPartition.from_cells(g.n, cells)


def _cell_profile(g: Digraph, p: VertexPartition, y: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-cell out- and in-neighbor counts of a single vertex."""
    out_row = [0] * p.size
    in_row = [0] * p.size
    for z in g.out_neighbors[y]:
        out_row[p.cell_of[z]] += 1
    for z in g.in_neighbors[y]:
        in_row[p.cell_of[z]] += 1
    return tuple(out_row), tuple(in_row)


def check_equitable(g: Digraph, p: VertexPartition) -> Optional[EquitableParams]:
    """Both parameter matrices when p is equitable for g, else None."""
    if len(p.cell_of) != g.n:
        raise InvalidPartition("partition is over a different vertex set")
    d_out = []
    d_in = []
    for cell in p.cells:
        it = iter(sorted(cell))
        first = next(it)
        out_row, in_row = _cell_profile(g, p, first)
        for y in it:
            if _cell_profile(g, p, y) != (out_row, in_row):
                return None
        d_out.append(out_row)
        d_in.append(in_row)
    return EquitableParams(
        d_out=tuple(d_out),
        d_in=tuple(d_in),
        cell_sizes=tuple(len(c) for c in p.cells),
    )


def distance_regular_scan(
    g: Digraph, t: DistanceTable, direction: str
) -> tuple[Optional[EquitableParams], Optional[str]]:
    """Shared body of the out- and in-partition distance-regularity checks.

    Returns (params, None) on success or (None, failure description).
    """
    if not t.strongly_connected:
        raise NotStronglyConnected("distance-regularity is defined for strongly connected digraphs")
    build = out_distance_partition if direction == "out" else in_distance_partition
    reference: Optional[EquitableParams] = None
    ref_cells: Optional[int] = None
    for x in range(g.n):
        p = build(g, x, t)
        if ref_cells is None:
            ref_cells = p.size
        elif p.size != ref_cells:
            return None, (
                f"vertex {g.labels[x]} has {p.size - 1} {direction}-distance classes, "
                f"vertex {g.labels[0]} has {ref_cells - 1}"
            )
        params = check_equitable(g, p)
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
