from dataclasses import dataclass
from typing import Optional

import pytest

from drdkit.corpus import cycle, cycle_with_chord, paley, paper6
from drdkit.digraph import Digraph, DistanceTable, distance_table
from drdkit.errors import InvalidPartition, NotStronglyConnected, PreconditionViolated
from drdkit.partitions import (
    VertexPartition,
    check_definition_drd,
    check_equitable,
    distance_regular_scan,
    in_distance_partition,
    out_distance_partition,
)

from oracles import equitable_params_direct


def cells_as_labels(g, partition):
    return [frozenset(g.labels[v] for v in cell) for cell in partition.cells]


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
    if check_definition_drd(g, t) is None:
        raise PreconditionViolated("partition coincidence requires a distance-regular digraph")
    sigma: Optional[list[int]] = None
    for x in range(g.n):
        out_cells = out_distance_partition(g, x, t).cells
        in_cells = in_distance_partition(g, x, t).cells
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
        g = cycle(4)
        p = out_distance_partition(g, 0)
        assert p.cells == (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3}))

    def test_paper6_out_partition(self, fig6):
        a = fig6.labels.index("a")
        p = out_distance_partition(fig6, a)
        assert cells_as_labels(fig6, p) == [
            frozenset({"a"}),
            frozenset({"b", "c"}),
            frozenset({"d", "e"}),
            frozenset({"f"}),
        ]

    def test_paper6_in_partition(self, fig6):
        a = fig6.labels.index("a")
        p = in_distance_partition(fig6, a)
        assert cells_as_labels(fig6, p) == [
            frozenset({"a"}),
            frozenset({"d", "e"}),
            frozenset({"b", "c"}),
            frozenset({"f"}),
        ]

    def test_rejects_non_strongly_connected(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        with pytest.raises(NotStronglyConnected):
            out_distance_partition(g, 0)


class TestCheckEquitable:
    def test_singleton_partition_always_equitable(self):
        g = cycle_with_chord(5)
        p = VertexPartition.from_cells(g.n, [{v} for v in range(g.n)])
        params = check_equitable(g, p)
        assert params is not None
        assert params.d_out == g.adj

    def test_whole_set_equitable_iff_regular(self):
        regular = paper6()
        p = VertexPartition.from_cells(6, [set(range(6))])
        params = check_equitable(regular, p)
        assert params is not None and params.d_out == ((2,),)

        lopsided = cycle_with_chord(4)
        p = VertexPartition.from_cells(4, [set(range(4))])
        assert check_equitable(lopsided, p) is None

    def test_paper6_distance_partition(self, fig6):
        a = fig6.labels.index("a")
        p = out_distance_partition(fig6, a)
        params = check_equitable(fig6, p)
        assert params is not None
        assert params.cell_sizes == (1, 2, 2, 1)
        # Cross-check against the independent direct count.
        oracle = equitable_params_direct(fig6.adj, [sorted(c) for c in p.cells])
        assert oracle == (params.d_out, params.d_in)

    def test_matches_direct_oracle_on_failure(self):
        g = cycle_with_chord(4)
        p = out_distance_partition(g, 1)
        expected = equitable_params_direct(g.adj, [sorted(c) for c in p.cells])
        got = check_equitable(g, p)
        assert (got is None) == (expected is None)

    def test_invalid_partition_rejected(self):
        g = cycle(3)
        with pytest.raises(InvalidPartition):
            VertexPartition.from_cells(3, [{0, 1}])
        with pytest.raises(InvalidPartition):
            VertexPartition.from_cells(3, [{0, 1}, {1, 2}])


class TestDefinitionDrd:
    def test_cycles(self):
        for n in (3, 5, 8):
            params = check_definition_drd(cycle(n))
            assert params is not None
            for i in range(n):
                for j in range(n):
                    expected = 1 if j == (i + 1) % n else 0
                    assert params.d_out[i][j] == expected

    def test_paper6(self, fig6):
        params = check_definition_drd(fig6)
        assert params is not None
        assert params.cell_sizes == (1, 2, 2, 1)

    def test_chorded_cycle_fails(self):
        assert check_definition_drd(cycle_with_chord(4)) is None

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
        """|P_i| * d_out[i][j] equals |P_j| * d_in[j][i] on every equitable
        distance partition in the corpus."""
        checked = 0
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if not t.strongly_connected:
                continue
            p = out_distance_partition(g, 0, t)
            params = check_equitable(g, p)
            if params is None:
                continue
            checked += 1
            s = len(params.cell_sizes)
            for i in range(s):
                for j in range(s):
                    assert (
                        params.cell_sizes[i] * params.d_out[i][j]
                        == params.cell_sizes[j] * params.d_in[j][i]
                    ), name
        assert checked > 5

    def test_return_distance_constant_on_cells(self, corpus):
        """On distance-regular members, all vertices of one out-distance cell
        have the same distance back to the center."""
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if not t.strongly_connected or check_definition_drd(g, t) is None:
                continue
            for x in range(g.n):
                p = out_distance_partition(g, x, t)
                for cell in p.cells:
                    back = {t.dist[z][x] for z in cell}
                    assert len(back) == 1, name

    def test_coincidence_respects_girth(self, corpus):
        """On distance-regular members with girth g >= 2, the coincidence
        permutation sends i to g - i for 1 <= i <= g - 1."""
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if not t.strongly_connected or check_definition_drd(g, t) is None:
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
            assert (check_definition_drd(g, t) is None) == (
                distance_regular_scan(g, t, "in")[0] is None
            ), name
