from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdkit.corpus import cycle, cycle_with_chord, paley
from drdkit.digraph import Digraph, DistanceTable, distance_table
from drdkit.errors import NotStronglyConnected, PreconditionViolated
from drdkit.partitions import distance_regular_scan, shell_counts
from drdkit.scheme import damerell_numbers

from oracles import damerell_table_direct, distance_regular_scan_direct, equitable_params_direct


def cells_as_labels(g, cells):
    return [frozenset(g.labels[v] for v in cell) for cell in cells]


def out_distance_cells(t: DistanceTable, x: int) -> tuple[frozenset[int], ...]:
    """Cells {z : d(x,z) = i} for i = 0.., from row x of the distance table."""
    row = t.array[x].tolist()
    return tuple(frozenset(z for z, d in enumerate(row) if d == i) for i in range(max(row) + 1))


def in_distance_cells(t: DistanceTable, x: int) -> tuple[frozenset[int], ...]:
    """Cells {z : d(z,x) = i} for i = 0.., from column x of the distance table."""
    col = t.array[:, x].tolist()
    return tuple(frozenset(z for z, d in enumerate(col) if d == i) for i in range(max(col) + 1))


@dataclass(frozen=True)
class CoincidenceResult:
    """Whether out- and in-distance cell families coincide, and the index
    permutation realizing out-cell sigma[i] = in-cell i around every vertex."""

    families_match: bool
    sigma: tuple[int, ...]


def check_partition_coincidence(g: Digraph, t: Optional[DistanceTable] = None) -> CoincidenceResult:
    """For a distance-regular digraph, the out- and in-distance families
    around each vertex are equal as unordered set families.

    Raises PreconditionViolated when g is not distance-regular.
    """
    if t is None:
        t = distance_table(g)
    if distance_regular_scan(g, t, "out")[0] is None:
        raise PreconditionViolated("partition coincidence requires a distance-regular digraph")
    sigma: Optional[list[int]] = None
    for x in range(g.n):
        out_cells = out_distance_cells(t, x)
        in_cells = in_distance_cells(t, x)
        if len(out_cells) != len(in_cells):
            return CoincidenceResult(False, ())
        local = []
        for cell in in_cells:
            try:
                local.append(out_cells.index(cell))
            except ValueError:
                return CoincidenceResult(False, ())
        if sigma is None:
            sigma = local
        elif local != sigma:
            return CoincidenceResult(False, ())
    assert sigma is not None
    return CoincidenceResult(True, tuple(sigma))


class TestDistancePartitions:
    def test_cycle_singletons(self):
        cells = out_distance_cells(distance_table(cycle(4)), 0)
        assert cells == (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3}))

    def test_paper6_out_partition(self, fig6):
        a = fig6.labels.index("a")
        assert cells_as_labels(fig6, out_distance_cells(distance_table(fig6), a)) == [
            frozenset({"a"}),
            frozenset({"b", "c"}),
            frozenset({"d", "e"}),
            frozenset({"f"}),
        ]

    def test_paper6_in_partition(self, fig6):
        a = fig6.labels.index("a")
        assert cells_as_labels(fig6, in_distance_cells(distance_table(fig6), a)) == [
            frozenset({"a"}),
            frozenset({"d", "e"}),
            frozenset({"b", "c"}),
            frozenset({"f"}),
        ]

    def test_rejects_non_strongly_connected(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        with pytest.raises(NotStronglyConnected):
            distance_regular_scan(g, distance_table(g), "out")


class TestCheckEquitable:
    def test_paper6_distance_partition(self, fig6):
        a = fig6.labels.index("a")
        t = distance_table(fig6)
        params = distance_regular_scan(fig6, t, "out")[0]
        assert params is not None
        assert params.cell_sizes == (1, 2, 2, 1)
        # Cross-check against the independent direct count around a.
        cells = out_distance_cells(t, a)
        oracle = equitable_params_direct(fig6.adj, [sorted(c) for c in cells])
        assert oracle == (params.d_out, params.d_in)

    def test_matches_direct_oracle_on_failure(self):
        g = cycle_with_chord(4)
        t = distance_table(g)
        cells = [[sorted(c) for c in out_distance_cells(t, x)] for x in range(g.n)]
        first = next(x for x in range(g.n) if equitable_params_direct(g.adj, cells[x]) is None)
        _, failure = distance_regular_scan(g, t, "out")
        assert failure == f"out-distance partition around {g.labels[first]} is not equitable"


class TestDefinitionDrd:
    def test_cycles(self):
        for n in (3, 5, 8):
            g = cycle(n)
            params = distance_regular_scan(g, distance_table(g), "out")[0]
            assert params is not None
            for i in range(n):
                for j in range(n):
                    expected = 1 if j == (i + 1) % n else 0
                    assert params.d_out[i][j] == expected

    def test_paper6(self, fig6):
        params = distance_regular_scan(fig6, distance_table(fig6), "out")[0]
        assert params is not None
        assert params.cell_sizes == (1, 2, 2, 1)

    def test_chorded_cycle_fails(self):
        g = cycle_with_chord(4)
        assert distance_regular_scan(g, distance_table(g), "out")[0] is None

    def test_in_version_agrees(self, fig6):
        for g in (fig6, cycle(6)):
            params, failure = distance_regular_scan(g, distance_table(g), "in")
            assert params is not None and failure is None
        g = cycle_with_chord(4)
        params, failure = distance_regular_scan(g, distance_table(g), "in")
        assert params is None and failure.startswith("in-distance")


class TestPartitionCoincidence:
    def test_cycle_reversal(self):
        n = 5
        res = check_partition_coincidence(cycle(n))
        assert res.families_match
        assert res.sigma == (0,) + tuple(n - i for i in range(1, n))

    def test_paper6(self, fig6):
        res = check_partition_coincidence(fig6)
        assert res.families_match
        assert res.sigma == (0, 2, 1, 3)

    def test_paley7(self):
        res = check_partition_coincidence(paley(7))
        assert res.families_match
        assert res.sigma == (0, 2, 1)

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            check_partition_coincidence(cycle_with_chord(4))


class TestInvariants:
    def test_arc_double_counting(self, corpus):
        """|P_i| * d_out[i][j] equals |P_j| * d_in[j][i] on the common
        parameters DEF and F return on the corpus."""
        checked = 0
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if not t.strongly_connected:
                continue
            for direction in ("out", "in"):
                params, _ = distance_regular_scan(g, t, direction)
                if params is None:
                    continue
                checked += 1
                s = len(params.cell_sizes)
                for i in range(s):
                    for j in range(s):
                        assert (
                            params.cell_sizes[i] * params.d_out[i][j]
                            == params.cell_sizes[j] * params.d_in[j][i]
                        ), (name, direction)
        assert checked > 5

    def test_return_distance_constant_on_cells(self, corpus):
        """On distance-regular members, all vertices of one out-distance cell
        have the same distance back to the center."""
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if not t.strongly_connected or distance_regular_scan(g, t, "out")[0] is None:
                continue
            for x in range(g.n):
                for cell in out_distance_cells(t, x):
                    back = {int(t.array[z, x]) for z in cell}
                    assert len(back) == 1, name

    def test_coincidence_respects_girth(self, corpus):
        """On distance-regular members with girth g >= 2, the coincidence
        permutation sends i to g - i for 1 <= i <= g - 1."""
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if not t.strongly_connected or distance_regular_scan(g, t, "out")[0] is None:
                continue
            res = check_partition_coincidence(g, t)
            assert res.families_match, name
            girth = t.girth
            assert girth is not None and girth >= 2
            for i in range(1, girth):
                assert res.sigma[girth - i] == i, name

    def test_out_and_in_definitions_equivalent(self, corpus):
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if not t.strongly_connected:
                continue
            assert (distance_regular_scan(g, t, "out")[0] is None) == (
                distance_regular_scan(g, t, "in")[0] is None
            ), name


@st.composite
def strongly_connected_digraphs(draw, max_n: int = 9):
    """Digraphs on 1..max_n vertices, strongly connected by construction:
    every vertex v > 0 gets an arc from some u < v (so 0 reaches all) and
    an arc to some w < v (so all reach 0), then extra arcs are added and
    the vertices relabelled."""
    n = draw(st.integers(1, max_n))
    arcs = set()
    for v in range(1, n):
        arcs.add((draw(st.integers(0, v - 1)), v))
        arcs.add((v, draw(st.integers(0, v - 1))))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))) if pairs else set()
    perm = draw(st.permutations(range(n)))
    return Digraph.from_arcs(n, sorted((perm[u], perm[v]) for u, v in arcs))


def assert_matches_direct(g: Digraph) -> None:
    t = distance_table(g)
    for direction in ("out", "in"):
        params, failure = distance_regular_scan(g, t, direction)
        expected = distance_regular_scan_direct(g.adj, g.labels, direction)
        got = None if params is None else (params.d_out, params.d_in, params.cell_sizes)
        assert (got, failure) == expected, direction
    table = damerell_numbers(g, t)
    assert (table.exists, table.b, table.witness) == damerell_table_direct(g.adj)


# One graph per failure message of the out-scan (DEF), in its check order:
# id -> (part of the message, graph).
FAILING = {
    "class-count": ("distance classes", Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 0), (2, 0)])),
    "not-equitable": ("is not equitable", Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2), (2, 0)])),
    "parameters-differ": ("differ from", Digraph.from_arcs(3, [(0, 2), (1, 0), (2, 0), (2, 1)])),
}


class TestShellCountKernel:
    def test_counts_neighbors_by_class(self):
        # Around vertex 0 of the 4-cycle, y's out-neighbor y + 1 sits in
        # class y + 1 and its in-neighbor y - 1 in class y - 1 (mod 4).
        g = cycle(4)
        row = distance_table(g).array[0].tolist()
        assert shell_counts(row, g.out_neighbors, 4) == [
            [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]
        ]
        assert shell_counts(row, g.in_neighbors, 4) == [
            [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]
        ]

    @settings(max_examples=150, deadline=None)
    @given(strongly_connected_digraphs())
    def test_scans_match_direct_oracles(self, g):
        assert_matches_direct(g)

    def test_scans_match_direct_oracles_on_corpus(self, corpus):
        for _, g in corpus:
            if distance_table(g).strongly_connected:
                assert_matches_direct(g)

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_each_failure_message(self, case):
        message, g = FAILING[case]
        _, failure = distance_regular_scan(g, distance_table(g), "out")
        assert failure is not None and message in failure
        assert_matches_direct(g)
