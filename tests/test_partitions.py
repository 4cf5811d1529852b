from dataclasses import dataclass
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drdkit.digraph as digraph
import drdkit.partitions as partitions
import drdkit.scheme as scheme
from drdkit.characterize import check_all
from drdkit.corpus import cycle, cycle_with_chord, paley, random_sc
from drdkit.digraph import Digraph, DistanceTable, distance_table
from drdkit.errors import PreconditionViolated
from drdkit.partitions import (
    block_shell_counts,
    distance_regular_scan,
    gemm_kernel,
    numpy_route,
    row_blocks,
    shell_counts,
)
from drdkit.scheme import damerell_numbers

from conftest import circulant, traced_peak
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


class TestCheckEquitable:
    def test_paper6_distance_partition(self, fig6):
        a = fig6.labels.index("a")
        t = distance_table(fig6)
        params = distance_regular_scan(fig6, t, "out")[0]
        assert params is not None
        assert params.cell_sizes == (1, 2, 2, 1)
        # Cross-check against the independent direct count around a.
        cells = out_distance_cells(t, a)
        oracle = equitable_params_direct(fig6.matrix.tolist(), [sorted(c) for c in cells])
        assert oracle == (params.d_out, params.d_in)

    def test_matches_direct_oracle_on_failure(self):
        g = cycle_with_chord(4)
        t = distance_table(g)
        cells = [[sorted(c) for c in out_distance_cells(t, x)] for x in range(g.n)]
        first = next(x for x in range(g.n) if equitable_params_direct(g.matrix.tolist(), cells[x]) is None)
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
            if t is None:
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
            if t is None or distance_regular_scan(g, t, "out")[0] is None:
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
            if t is None or distance_regular_scan(g, t, "out")[0] is None:
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
            if t is None:
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
        expected = distance_regular_scan_direct(g.matrix.tolist(), g.labels, direction)
        got = None if params is None else (params.d_out, params.d_in, params.cell_sizes)
        assert (got, failure) == expected, direction
    table = damerell_numbers(g, t)
    assert (table.exists, table.b, table.witness) == damerell_table_direct(g.matrix.tolist())


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
            if distance_table(g) is not None:
                assert_matches_direct(g)

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_each_failure_message(self, case):
        message, g = FAILING[case]
        _, failure = distance_regular_scan(g, distance_table(g), "out")
        assert failure is not None and message in failure
        assert_matches_direct(g)


# Settings that put every graph on one kernel: NUMPY_ROUTE_WORK 0 sends all
# to numpy, where GEMM_FLOPS_PER_KEY 0 keeps bincount and 1 << 60 takes
# GEMM; no digraph of at most MAX_VERTICES vertices reaches the cut 1 << 40.
ROUTES = {
    "python": {"NUMPY_ROUTE_WORK": 1 << 40},
    "bincount": {"NUMPY_ROUTE_WORK": 0, "GEMM_FLOPS_PER_KEY": 0},
    "gemm": {"NUMPY_ROUTE_WORK": 0, "GEMM_FLOPS_PER_KEY": 1 << 60},
}


def assert_both_routes_match_direct(g: Digraph) -> None:
    """The Python route and both numpy kernels against the direct oracles."""
    for settings_ in ROUTES.values():
        with mock.patch.multiple(partitions, **settings_):
            assert_matches_direct(g)


@st.composite
def circulants(draw):
    n = draw(st.integers(2, 16))
    jumps = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=n - 1))
    return circulant(n, tuple(sorted(jumps)))


class TestBothRoutes:
    """The pure-Python route and the numpy route's bincount and GEMM kernels
    each give the direct oracles' verdicts, parameters and witnesses, with
    the rules moved so that every graph takes the kernel under test."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            strongly_connected_digraphs(),
            circulants().filter(lambda g: distance_table(g) is not None),
            st.sampled_from([paley(19), paley(43)]),
        ),
        st.sampled_from([1, partitions.COUNT_BLOCK]),
    )
    def test_each_route_matches_the_direct_oracles(self, g, cap):
        with mock.patch.object(partitions, "COUNT_BLOCK", cap):
            assert_both_routes_match_direct(g)

    def test_the_cut_splits_by_the_work_of_one_source_row(self):
        # n * (D + 1) + m: 4 * 2 + 12 = 20 on K_4; 30 * 30 + 30 = 930 on C_30.
        complete4 = circulant(4, (1, 2, 3))
        assert not numpy_route(complete4, 2)
        assert numpy_route(cycle(30), 30)
        with mock.patch.object(partitions, "NUMPY_ROUTE_WORK", 20):
            assert numpy_route(complete4, 2)
        with mock.patch.object(partitions, "NUMPY_ROUTE_WORK", 931):
            assert not numpy_route(cycle(30), 30)

    def test_the_kernel_splits_by_flops_per_key(self):
        # 2 T n (D + 1) flops against arcs + T (D + 1) keys a row, the same
        # ratio for T = n (G) and T = 2n (DEF, F): on paley(43)
        # 2 * 43^2 * 3 / (903 + 43 * 3) = 10.75, on C_30 54,000 / 930 = 58.1.
        for g, width, gemm in ((paley(43), 3, True), (cycle(30), 30, False)):
            assert numpy_route(g, width)
            for tail_count, arcs in ((g.n, g.m), (2 * g.n, 2 * g.m)):
                assert gemm_kernel(g.n, width, tail_count, arcs) == gemm
        with mock.patch.object(partitions, "GEMM_FLOPS_PER_KEY", 10):
            assert not gemm_kernel(43, 3, 43, 903)
        with mock.patch.object(partitions, "GEMM_FLOPS_PER_KEY", 59):
            assert gemm_kernel(30, 30, 30, 30)

    def test_block_counts_are_the_shell_counts(self):
        for g in (cycle(5), paley(7), cycle_with_chord(6), random_sc(9, 0.4, seed=3)):
            dist = distance_table(g).array
            width = int(dist.max()) + 1
            tails, heads = g.arc_arrays
            for kernel in ("bincount", "gemm"):
                with mock.patch.multiple(partitions, **ROUTES[kernel]):
                    assert gemm_kernel(g.n, width, g.n, g.m) == (kernel == "gemm")
                    out = block_shell_counts(dist, tails, heads, width, g.n)
                    into = block_shell_counts(dist, heads, tails, width, g.n)
                assert out.dtype == into.dtype == np.int64
                for x in range(g.n):
                    row = dist[x].tolist()
                    assert out[x].tolist() == shell_counts(row, g.out_neighbors, width)
                    assert into[x].tolist() == shell_counts(row, g.in_neighbors, width)

    def test_blocks_after_vertex_zero_fill_the_cap(self):
        dist = np.zeros((40, 40), dtype=np.int64)
        sizes = lambda: [len(rows) for _, rows in row_blocks(dist, 100, 1)]
        with mock.patch.object(partitions, "COUNT_BLOCK", 1000):
            assert sizes() == [10, 10, 10, 9]
        with mock.patch.object(partitions, "COUNT_BLOCK", 1):
            assert sizes() == [1] * 39
        starts = [lo for lo, _ in row_blocks(dist, 100, 1)]
        assert starts == [1]

    def test_no_digraph_of_at_most_eight_vertices_reaches_a_new_rule(self, monkeypatch):
        # n^3 <= 512 is below FRONTIER_MIN_STEPS, n * (D + 1) + m <= 120
        # below NUMPY_ROUTE_WORK, and n^2 (n + (D + 1)^2) <= 4,608 below
        # both floors of the pair scan's kernels, so no rule past those
        # floors is evaluated, and the pair scan stays on the bincount.
        assert digraph.FRONTIER_MIN_STEPS > 8**3 and partitions.NUMPY_ROUTE_WORK > 8 * 15
        assert min(scheme.SCAN_GEMM_MIN_WORK, scheme.SCAN_SORT_MIN_WORK) > 8**2 * (8 + 8**2)
        reached = []
        monkeypatch.setattr(digraph, "_frontier_pays", lambda *a: reached.append(a))
        monkeypatch.setattr(partitions, "gemm_kernel", lambda *a: reached.append(a))
        monkeypatch.setattr(scheme, "_gemm_blocks", lambda *a: reached.append(a) or [])
        monkeypatch.setattr(scheme, "_sorted_key_blocks", lambda *a: reached.append(a) or [])
        graphs = [Digraph.from_arcs(1, [])]
        for n in range(2, 9):
            complete = Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n) if u != v])
            graphs += [complete, cycle(n), random_sc(n, 0.2, seed=n), random_sc(n, 0.5, seed=n)]
        for g in graphs:
            assert check_all(g).agreement
        assert reached == []

    def test_a_no_at_vertex_zero_counts_one_row(self, monkeypatch):
        # Vertex 0 runs on the Python route on both routes: its out-half is
        # counted, fails, and no block is counted.
        g = random_sc(60, 0.1, seed=1)
        t = distance_table(g)
        assert numpy_route(g, t.diameter + 1)
        rows, blocks = [], []
        real_rows, real_blocks = partitions.shell_counts, partitions.block_shell_counts
        monkeypatch.setattr(
            partitions, "shell_counts", lambda r, *a: rows.append(r) or real_rows(r, *a)
        )
        monkeypatch.setattr(
            partitions, "block_shell_counts", lambda r, *a: blocks.append(r) or real_blocks(r, *a)
        )
        params, failure = distance_regular_scan(g, t, "out")
        assert params is None and f"around {g.labels[0]} " in failure
        assert rows == [t.array[0].tolist()] and blocks == []


def _complete_bipartite(a: int, b: int) -> Digraph:
    """Arcs both ways between parts {0..a-1} and {a..a+b-1}."""
    arcs = [(u, v) for u in range(a) for v in range(a, a + b)]
    return Digraph.from_arcs(a + b, arcs + [(v, u) for u, v in arcs])


# One digraph per failure kind whose witness lies past the first block of
# source rows (vertex 0 alone): id -> (graph, DEF's failure, Damerell's witness).
LATE_FAILURES = {
    # The centre of the star K_{1,5}, vertex 5, has eccentricity 1; each leaf 2.
    "class-count": (
        _complete_bipartite(5, 1),
        "vertex 5 has 1 out-distance classes, vertex 0 has 2",
        (1, 2, (0, 5), (5, 0), 4, 0),
    ),
    # Around vertex 1 the out-counts are equitable and the in-counts are not.
    "in-half": (
        Digraph.from_arcs(6, [
            (0, 4), (1, 0), (1, 2), (1, 3), (2, 4), (3, 4),
            (4, 0), (4, 1), (4, 5), (5, 0), (5, 2), (5, 3),
        ]),
        "out-distance partition around 1 is not equitable",
        (1, 0, (0, 4), (1, 0), 1, 0),
    ),
    # K_{4,2}: every partition is equitable; vertex 4 has out-degree 4, not 2.
    # Damerell's first mismatch, like the star's, is at j = 2.
    "parameters": (
        _complete_bipartite(4, 2),
        "out-distance parameters around 4 differ from those around 0",
        (1, 2, (0, 4), (4, 0), 3, 1),
    ),
}


class TestLateWitnesses:
    @pytest.mark.parametrize("case", sorted(LATE_FAILURES))
    def test_the_numpy_route_names_the_first_failing_source(self, case, monkeypatch):
        g, failure, damerell = LATE_FAILURES[case]
        t = distance_table(g)
        monkeypatch.setattr(partitions, "NUMPY_ROUTE_WORK", 0)
        assert distance_regular_scan(g, t, "out") == (None, failure)
        table = damerell_numbers(g, t)
        assert not table.exists and table.witness == damerell
        assert damerell[3][0] >= 1  # a later source row
        assert_both_routes_match_direct(g)

    @pytest.mark.parametrize("cap", [1, 50, partitions.COUNT_BLOCK])
    @pytest.mark.parametrize("case", sorted(LATE_FAILURES))
    def test_each_late_failure_matches_the_python_route(self, case, cap, monkeypatch):
        # DEF, F and G on blocks of 1 row, of 50 elements (a few rows) and
        # of the default cap, against the row-at-a-time Python route.
        g, _, _ = LATE_FAILURES[case]
        t = distance_table(g)
        run = lambda: (
            distance_regular_scan(g, t, "out"),
            distance_regular_scan(g, t, "in"),
            damerell_numbers(g, t),
        )
        monkeypatch.setattr(partitions, "NUMPY_ROUTE_WORK", 1 << 40)
        expected = run()
        monkeypatch.setattr(partitions, "NUMPY_ROUTE_WORK", 0)
        monkeypatch.setattr(partitions, "COUNT_BLOCK", cap)
        assert run() == expected

    def test_the_in_half_alone_fails(self):
        g, _, _ = LATE_FAILURES["in-half"]
        row = distance_table(g).array[1].tolist()
        first = [row.index(i) for i in range(max(row) + 1)]
        out = shell_counts(row, g.out_neighbors, len(first))
        into = shell_counts(row, g.in_neighbors, len(first))
        assert all(out[y] == out[first[i]] for y, i in enumerate(row))
        assert any(into[y] != into[first[i]] for y, i in enumerate(row))


class TestNumpyRouteMemory:
    def test_cycle_holds_blocks_not_the_whole_count_table(self):
        # C_100 has n * (D + 1) = 10,000 counts a row; the whole table
        # would be n^2 (D + 1) * 8 B = 8 MB.
        g = cycle(100)
        t = distance_table(g)
        width = t.diameter + 1
        assert numpy_route(g, width)
        g.arc_arrays
        bound = 5 * (partitions.COUNT_BLOCK + g.n * width) * 8
        assert traced_peak(lambda: distance_regular_scan(g, t, "out")) < bound
        assert traced_peak(lambda: distance_regular_scan(g, t, "in")) < bound
        assert traced_peak(lambda: damerell_numbers(g, t)) < bound

    def test_gemm_holds_blocks_beside_one_operator(self):
        # paley(131) counts by GEMM: 2n * (D + 1) = 786 counts a row, in
        # blocks of COUNT_BLOCK elements, beside the operator [A; A^T] (or
        # A alone for G) of 2n^2 float64, built once a scan.
        g = paley(131)
        t = distance_table(g)
        width = t.diameter + 1
        assert numpy_route(g, width) and gemm_kernel(g.n, width, 2 * g.n, 2 * g.m)
        g.arc_arrays
        bound = 5 * (partitions.COUNT_BLOCK + g.n * width) * 8 + 2 * g.n * g.n * 8
        assert traced_peak(lambda: distance_regular_scan(g, t, "out")) < bound
        assert traced_peak(lambda: distance_regular_scan(g, t, "in")) < bound
        assert traced_peak(lambda: damerell_numbers(g, t)) < bound

    def test_frontier_holds_a_few_square_arrays(self):
        # The frontier keeps A, the table, the frontier and its product
        # (n^2 float64 or int64 each) and three n^2 bool arrays.
        g = paley(131)
        g.out_neighbors, g.in_neighbors, g.matrix
        called = []
        real = digraph._frontier_table
        with mock.patch.object(digraph, "_frontier_table", lambda g: called.append(g) or real(g)):
            assert traced_peak(lambda: distance_table(g)) < 6 * g.n * g.n * 8
        assert called == [g]
