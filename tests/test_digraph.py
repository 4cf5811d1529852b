import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drdkit.digraph as digraph
from drdkit.characterize import check_all
from drdkit.corpus import cycle, edge_list_text, paley, paper6, random_sc
from drdkit.digraph import (
    MAX_VERTICES,
    Digraph,
    converse,
    distance_table,
    parse_digraph,
    regularity,
    strongly_connected,
)
from drdkit.errors import DuplicateArc, EmptyGraph, LoopRejected, ParseError

from conftest import strongly_connected_digraphs, traced_peak
from oracles import brute_girth, table_by_floyd_warshall


def small_digraphs(max_n: int = 6):
    """Hypothesis strategy: arbitrary simple digraphs on 1..max_n vertices."""

    def build(n: int, bits: int) -> Digraph:
        positions = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = [positions[i] for i in range(len(positions)) if bits >> i & 1]
        return Digraph.from_arcs(n, arcs)

    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.builds(
            build, st.just(n), st.integers(0, (1 << (n * (n - 1))) - 1)
        )
    )


class TestParsing:
    def test_triangle_edge_list(self):
        g = parse_digraph("3 3\n0 1\n1 2\n2 0")
        assert g.n == 3
        assert g.matrix.astype(int).tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

    def test_paper6_labels(self):
        text = "6 12\n" + "\n".join(
            f"{u} {v}"
            for u, v in [
                ("a", "b"), ("a", "c"), ("b", "d"), ("b", "e"), ("c", "d"),
                ("c", "e"), ("d", "a"), ("d", "f"), ("e", "a"), ("e", "f"),
                ("f", "b"), ("f", "c"),
            ]
        )
        g = parse_digraph(text)
        assert g.labels == ("a", "b", "c", "d", "e", "f")
        assert g.n == 6 and g.m == 12
        assert regularity(g) == 2
        assert g == paper6()

    def test_duplicate_arc_rejected(self):
        with pytest.raises(DuplicateArc):
            parse_digraph("2 2\n0 1\n0 1")

    def test_loop_rejected(self):
        with pytest.raises(LoopRejected):
            parse_digraph("2 1\n1 1")

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            parse_digraph("0 0")
        with pytest.raises(EmptyGraph):
            parse_digraph("# only a comment\n")

    def test_malformed_lines(self):
        with pytest.raises(ParseError):
            parse_digraph("2 1\n0 1 2")
        with pytest.raises(ParseError):
            parse_digraph("2 2\n0 1")
        with pytest.raises(ParseError):
            parse_digraph("2 1\n0 5")

    def test_adjacency_matrix_format(self):
        g = parse_digraph("0 1 0\n0 0 1\n1 0 0", fmt="adjacency-matrix")
        assert g == cycle(3)
        with pytest.raises(LoopRejected):
            parse_digraph("1 0\n0 0", fmt="adjacency-matrix")

    def test_oversized_header_fails_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="exceed the limit"):
                parse_digraph("1000000 0")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the dense rows alone would need terabytes
        with pytest.raises(ParseError):
            Digraph.from_arcs(MAX_VERTICES + 1, [])
        with pytest.raises(ParseError):
            parse_digraph("0\n" * (MAX_VERTICES + 1), fmt="adjacency-matrix")

    def test_comments_ignored(self):
        g = parse_digraph("# a triangle\n3 3\n0 1\n# middle\n1 2\n2 0")
        assert g.m == 3

    def test_oversized_header_fails_before_the_body_is_split(self):
        # A header past the limit over a long body: the header alone is
        # read, so the memory traced stays far below one list of the lines.
        text = "# comment\n" * 1000 + "100000 200000\n" + "0 1\n" * 200_000
        message = []

        def parse():
            with pytest.raises(ParseError) as info:
                parse_digraph(text)
            message.append(str(info.value))

        assert traced_peak(parse) < 1 << 20
        assert message == ["100000 vertices exceed the limit of 2048"]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_line_ends_split_as_splitlines_does(self, data):
        # Every line end that str.splitlines() splits at, "\r\n" included,
        # between lines of paper6 and drawn blank and comment lines.
        ends = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028"])
        filler = st.lists(st.sampled_from(["", "  ", "# 7 7"]), max_size=2)
        text = ""
        for line in edge_list_text(paper6()).splitlines():
            for extra in data.draw(filler) + [line]:
                text += extra + data.draw(ends)
        assert parse_digraph(text) == paper6()


def _edge_list(text: str):
    return lambda: parse_digraph(text)


def _matrix(text: str):
    return lambda: parse_digraph(text, fmt="adjacency-matrix")


def _arcs(n: int, arcs, labels=None):
    return lambda: Digraph.from_arcs(n, arcs, labels)


# Every input error, with its exact class and message: (build, class, str).
INPUT_ERRORS = {
    "arc-out-of-range": (_arcs(3, [(0, 1), (0, 3)]), ParseError, "arc (0, 3) out of range for n=3"),
    "arc-negative": (_arcs(3, [(-1, 0)]), ParseError, "arc (-1, 0) out of range for n=3"),
    "arc-loop": (_arcs(3, [(0, 1), (2, 2)]), LoopRejected, "loop at vertex 2"),
    "arc-repeated": (_arcs(3, [(0, 1), (1, 2), (0, 1)]), DuplicateArc, "arc (0, 1) repeated"),
    # Input order decides: the repeat comes before the out-of-range arc.
    "arc-repeat-first": (_arcs(3, [(0, 1), (0, 1), (0, 5)]), DuplicateArc, "arc (0, 1) repeated"),
    "arc-range-first": (_arcs(3, [(0, 5), (0, 1), (0, 1)]), ParseError, "arc (0, 5) out of range for n=3"),
    "arc-loop-first": (_arcs(3, [(1, 1), (0, 1), (0, 1)]), LoopRejected, "loop at vertex 1"),
    "arc-no-vertex": (_arcs(0, []), EmptyGraph, "digraph needs at least one vertex"),
    "arc-too-many": (_arcs(MAX_VERTICES + 1, []), ParseError, "2049 vertices exceed the limit of 2048"),
    "arc-label-count": (_arcs(2, [(0, 1)], ("a",)), ParseError, "expected 2 labels, got 1"),
    "el-repeated": (_edge_list("2 2\n0 1\n0 1"), DuplicateArc, "arc (0, 1) repeated"),
    "el-loop": (_edge_list("2 1\n1 1"), LoopRejected, "loop at vertex 1"),
    "el-out-of-range": (_edge_list("2 1\n0 5"), ParseError, "vertex index out of range in arc 0 5"),
    # The parser checks every index's range before any repeat.
    "el-range-before-repeat": (
        _edge_list("3 3\n0 1\n0 1\n0 3"), ParseError, "vertex index out of range in arc 0 3"
    ),
    # In label mode a loop is named by its index, not its label.
    "el-label-loop": (_edge_list("2 2\na b\nb b"), LoopRejected, "loop at vertex 1"),
    "el-label-repeated": (_edge_list("2 2\na b\na b"), DuplicateArc, "arc (0, 1) repeated"),
    "el-empty": (_edge_list("# nothing\n"), EmptyGraph, "empty edge list"),
    "el-header-one-token": (_edge_list("3"), ParseError, "expected header 'n m', got '3'"),
    "el-header-three-tokens": (_edge_list("3 1 2"), ParseError, "expected header 'n m', got '3 1 2'"),
    "el-header-non-numeric": (_edge_list("a 1\n0 1"), ParseError, "non-numeric header 'a 1'"),
    "el-header-zero": (_edge_list("0 0"), EmptyGraph, "edge list declares zero vertices"),
    "el-header-negative": (_edge_list("-2 0"), EmptyGraph, "edge list declares zero vertices"),
    "el-header-too-many": (_edge_list("1000000 0"), ParseError, "1000000 vertices exceed the limit of 2048"),
    # The header alone decides the vertex limit, before the arc count.
    "el-too-many-before-arc-count": (_edge_list("5000 2\n0 1"), ParseError, "5000 vertices exceed the limit of 2048"),
    "el-arc-count": (_edge_list("2 2\n0 1"), ParseError, "declared 2 arcs but found 1 arc lines"),
    "el-malformed-arc": (_edge_list("2 1\n0 1 2"), ParseError, "malformed arc line '0 1 2'"),
    "el-too-many-labels": (_edge_list("2 2\na b\nc a"), ParseError, "more than 2 distinct labels (at 'c')"),
    "el-too-few-labels": (_edge_list("3 1\na b"), ParseError, "declared 3 vertices but only 2 labels appear"),
    "el-unknown-format": (lambda: parse_digraph("1 0", fmt="csv"), ParseError, "unknown format 'csv'"),
    "matrix-empty": (_matrix("# nothing"), EmptyGraph, "empty adjacency matrix"),
    "matrix-entry-2": (_matrix("0 2\n0 0"), ParseError, "adjacency entries must be 0 or 1, got 2"),
    "matrix-entry-negative": (_matrix("0 0\n-1 0"), ParseError, "adjacency entries must be 0 or 1, got -1"),
    "matrix-non-numeric": (_matrix("0 x\n0 0"), ParseError, "non-numeric matrix entry in '0 x'"),
    "matrix-ragged": (_matrix("0 1 0\n0 0\n1 0 0"), ParseError, "matrix row '0 0' has 2 entries, expected 3"),
    # A ragged row fails before any entry of an earlier row is checked.
    "matrix-ragged-first": (_matrix("0 2\n0"), ParseError, "matrix row '0' has 1 entries, expected 2"),
    "matrix-loop": (_matrix("0 1 0\n0 1 0\n0 0 0"), LoopRejected, "loop at vertex 1"),
    # Row-major order: the first offending row decides, and within a row its
    # entries are checked before its loop.
    "matrix-loop-before-later-entry": (
        _matrix("0 0 0\n0 1 0\n0 0 3"), LoopRejected, "loop at vertex 1"
    ),
    "matrix-entry-before-loop-of-row": (
        _matrix("0 0 0\n0 1 2\n0 0 0"), ParseError, "adjacency entries must be 0 or 1, got 2"
    ),
    "matrix-first-entry-in-row": (
        _matrix("0 0 0\n0 0 5\n7 0 0"), ParseError, "adjacency entries must be 0 or 1, got 5"
    ),
    "matrix-too-many": (
        _matrix("0\n" * (MAX_VERTICES + 1)), ParseError, "2049 vertices exceed the limit of 2048"
    ),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_input_error_messages(case):
    build, cls, message = INPUT_ERRORS[case]
    with pytest.raises(ParseError) as info:
        build()
    assert (type(info.value), str(info.value)) == (cls, message)


class TestConnectivity:
    def test_cycle_is_strongly_connected(self):
        assert strongly_connected(cycle(5))

    def test_two_triangles_with_bridge_is_not(self):
        arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
        assert not strongly_connected(Digraph.from_arcs(6, arcs))

    def test_paper6_is_strongly_connected(self):
        assert strongly_connected(paper6())

    def test_no_table_exactly_when_not_strongly_connected(self):
        # Every digraph on at most 4 vertices, against reachability read
        # off (I + A)^(n - 1).
        for n in range(1, 5):
            positions = [(u, v) for u in range(n) for v in range(n) if u != v]
            for mask in range(1 << len(positions)):
                g = Digraph.from_arcs(n, [p for b, p in enumerate(positions) if mask >> b & 1])
                reach = np.linalg.matrix_power(np.eye(n, dtype=np.int64) + g.matrix, n - 1)
                sc = bool((reach > 0).all())
                assert strongly_connected(g) == sc
                assert (distance_table(g) is None) == (not sc)

    def test_a_long_path_fails_fast(self, monkeypatch):
        # A directed path on MAX_VERTICES vertices: the out-sweep from 0
        # reaches every vertex and the in-sweep none, so two BFS decide it,
        # no table is built and every check is not-applicable.
        g = Digraph.from_arcs(MAX_VERTICES, [(v, v + 1) for v in range(MAX_VERTICES - 1)])
        bfs, frontier = [], []
        real = digraph._bfs
        monkeypatch.setattr(digraph, "_bfs", lambda *a: bfs.append(a[1]) or real(*a))
        monkeypatch.setattr(digraph, "_frontier_table", lambda g: frontier.append(g))
        report = check_all(g)
        assert report.overall is None and not report.strongly_connected
        assert report.diameter is None and report.girth is None
        assert len(bfs) <= 2 and frontier == []


class TestDistances:
    def test_cycle_distances(self):
        n = 7
        t = distance_table(cycle(n))
        for i in range(n):
            for j in range(n):
                assert t.array[i, j] == (j - i) % n
        assert t.diameter == n - 1
        assert t.girth == n

    def test_paper6_shells_and_girth(self):
        g = paper6()
        t = distance_table(g)
        assert t.diameter == 3
        a = g.labels.index("a")
        shells = {i: {g.labels[z] for z in range(6) if t.array[a, z] == i} for i in range(4)}
        assert shells[1] == {"b", "c"}
        assert shells[2] == {"d", "e"}
        assert shells[3] == {"f"}
        assert t.girth == 3
        assert t.girth == brute_girth(g.matrix.tolist())

    def test_acyclic_has_no_girth(self):
        # An acyclic digraph on two or more vertices is not strongly
        # connected, so it has no table; one vertex has a table, no girth.
        assert distance_table(Digraph.from_arcs(3, [(0, 1), (1, 2)])) is None
        t = distance_table(Digraph.from_arcs(1, []))
        assert (t.array.tolist(), t.diameter, t.girth) == ([[0]], 0, None)

    def test_digon_girth(self):
        g = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        assert distance_table(g).girth == 2


class TestConverse:
    def test_cycle_converse(self):
        g = converse(cycle(3))
        assert g.matrix[1, 0] and g.matrix[0, 2] and g.m == 3

    def test_symmetric_fixed_point(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        assert converse(g) == g

    def test_paper6_converse_neighbors(self):
        g = paper6()
        c = converse(g)
        a = g.labels.index("a")
        outs = {g.labels[v] for v in c.out_neighbors[a]}
        assert outs == {"d", "e"}

    def test_involution(self):
        g = random_sc(6, 0.4, seed=7)
        assert converse(converse(g)) == g
        assert converse(converse(g)) in {g} and converse(g) not in {g}


@st.composite
def shuffled_arcs(draw, max_n: int = 6):
    """(n, arcs): a simple digraph's arcs in a drawn order."""
    n = draw(st.integers(1, max_n))
    positions = [(u, v) for u in range(n) for v in range(n) if u != v]
    return n, draw(st.permutations(positions))[: draw(st.integers(0, len(positions)))]


class TestNumpyViews:
    @settings(max_examples=50, deadline=None)
    @given(shuffled_arcs())
    def test_matrix_and_arc_arrays_are_adj(self, case):
        n, arcs = case
        g = Digraph.from_arcs(n, arcs)
        assert g.matrix.dtype == bool and not g.matrix.flags.writeable
        assert g.matrix.tolist() == [[(u, v) in arcs for v in range(n)] for u in range(n)]
        tails, heads = g.arc_arrays
        assert not tails.flags.writeable and not heads.flags.writeable
        assert list(zip(tails.tolist(), heads.tolist())) == g.arcs() == sorted(arcs)
        assert all(type(u) is int and type(v) is int for u, v in g.arcs())
        assert g.m == len(arcs)
        assert g.out_neighbors == tuple(tuple(v for v in range(n) if (u, v) in arcs) for u in range(n))
        assert g.in_neighbors == tuple(tuple(u for u in range(n) if (u, v) in arcs) for v in range(n))

    @settings(max_examples=50, deadline=None)
    @given(shuffled_arcs())
    def test_equal_and_hashed_by_value(self, case):
        n, arcs = case
        g = Digraph.from_arcs(n, arcs)
        same = Digraph.from_arcs(n, sorted(arcs))
        assert g == same and hash(g) == hash(same)
        relabeled = Digraph.from_arcs(n, arcs, [f"v{i}" for i in range(n)])
        assert g != relabeled
        if arcs:
            fewer = Digraph.from_arcs(n, arcs[1:])
            assert g != fewer and fewer not in {g}
        assert g in {same} and relabeled not in {g, same}

    def test_constructor_copies_a_caller_matrix(self):
        rows = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        g = Digraph(("0", "1", "2"), rows)
        assert g == cycle(3) and hash(g) == hash(cycle(3))
        assert rows.flags.writeable and g.matrix is not rows
        rows[0, 1] = 0
        assert g.matrix[0, 1]

    def test_built_once_and_shared(self):
        from drdkit.ratlin import adjacency_matrix

        g = paper6()
        assert g.matrix is g.matrix and g.arc_arrays is g.arc_arrays
        a = adjacency_matrix(g)
        assert a.num.dtype == np.int64 and a.num.tolist() == g.matrix.astype(int).tolist()


class TestRegularity:
    def test_cycle(self):
        assert regularity(cycle(9)) == 1

    def test_paper6(self):
        assert regularity(paper6()) == 2

    def test_chorded_cycle_is_not_regular(self):
        from drdkit.corpus import cycle_with_chord

        assert regularity(cycle_with_chord(4)) is None

    def test_equal_out_degrees_but_unequal_in_degrees(self):
        assert regularity(Digraph.from_arcs(3, [(0, 1), (1, 0), (2, 0)])) is None
        assert regularity(Digraph.from_arcs(1, [])) == 0


def _assert_table_matches_floyd_warshall(g):
    """The int64 table and the diameter and girth read off it against
    Floyd-Warshall, and no table where Floyd-Warshall leaves a pair
    unreachable."""
    t = distance_table(g)
    dist, diameter, girth, sc = table_by_floyd_warshall(g.matrix.tolist())
    if not sc:
        assert t is None
        return
    assert t.array.dtype == np.int64 and not t.array.flags.writeable
    assert (t.array.tolist(), t.diameter, t.girth, t.n) == (dist, diameter, girth, g.n)


@settings(max_examples=200, deadline=None)
@given(small_digraphs(9))
def test_distance_table_matches_floyd_warshall(g):
    _assert_table_matches_floyd_warshall(g)


def test_distance_table_matches_floyd_warshall_on_the_corpus(corpus):
    bridged = Digraph.from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    path = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    for _, g in corpus + [("bridged", bridged), ("path3", path)]:
        _assert_table_matches_floyd_warshall(g)


@settings(max_examples=60, deadline=None)
@given(strongly_connected_digraphs(5))
def test_distance_invariants(g):
    t = distance_table(g)
    n = g.n
    d = t.array.tolist()
    for v in range(n):
        for u in range(n):
            assert (d[v][u] == 0) == (v == u)
            assert (d[v][u] == 1) == g.matrix[v, u]
            for w in range(n):
                assert 0 <= d[v][w] <= d[v][u] + d[u][w]


@settings(max_examples=60, deadline=None)
@given(small_digraphs(5))
def test_converse_swaps_distances(g):
    t = distance_table(g)
    tc = distance_table(converse(g))
    assert (tc is None) == (t is None)
    if t is not None:
        assert np.array_equal(tc.array, t.array.T)


@settings(max_examples=50, deadline=None)
@given(strongly_connected_digraphs(6))
def test_girth_matches_brute_force(g):
    assert distance_table(g).girth == brute_girth(g.matrix.tolist())


def test_girth_matches_brute_force_on_seven_vertices():
    for seed in range(8):
        g = random_sc(7, 0.25 + 0.05 * seed, seed=seed)
        assert distance_table(g).girth == brute_girth(g.matrix.tolist())


# Settings that force each way of building the distance table.
TABLE_ROUTES = {
    "frontier": {"FRONTIER_MIN_STEPS": 0, "FRONTIER_FLOPS_PER_STEP": 1 << 60},
    "python": {"FRONTIER_MIN_STEPS": 1 << 60},
}


def table_by(route: str, g: Digraph):
    """The distance table of g built the given way, and only that way; None,
    with neither way run, when g is not strongly connected."""
    called = []
    real = digraph._frontier_table
    with mock.patch.multiple(digraph, **TABLE_ROUTES[route]), mock.patch.object(
        digraph, "_frontier_table", lambda g: called.append(g) or real(g)
    ):
        t = distance_table(g)
    assert called == ([g] if route == "frontier" and t is not None else [])
    return t


class TestFrontier:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            small_digraphs(9),
            st.builds(random_sc, st.integers(2, 24), st.floats(0.3, 0.9), seed=st.integers(0, 99)),
            st.builds(cycle, st.integers(2, 30)),
        )
    )
    def test_frontier_table_is_the_python_table(self, g):
        frontier, python = table_by("frontier", g), table_by("python", g)
        assert (frontier is None) == (python is None) == (not strongly_connected(g))
        if python is None:
            return
        assert np.array_equal(frontier.array, python.array)
        assert frontier.array.dtype == np.int64 and not frontier.array.flags.writeable
        assert (frontier.diameter, frontier.girth) == (python.diameter, python.girth)

    def test_acyclic_has_no_girth_either_way(self):
        acyclic = Digraph.from_arcs(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
        for route in TABLE_ROUTES:
            assert table_by(route, acyclic) is None
            t = table_by(route, Digraph.from_arcs(1, []))
            assert (t.array.tolist(), t.diameter, t.girth) == ([[0]], 0, None)

    def test_the_rule_splits_by_levels_times_cube_against_bfs_steps(self):
        # bound * n^3 against 250 * n * (n + m): paley(43) 4 * 43^3 = 318,028
        # below 250 * 40,678; random_sc(40, 0.2) 6 * 40^3 below 250 * 13,360.
        # C_30's bound 29 + 29 times 30^3 is 1,566,000 >= 250 * 1,800, and
        # C_10's 10^3 steps stay below FRONTIER_MIN_STEPS.
        for g, frontier in (
            (paley(43), True), (random_sc(40, 0.2, seed=1), True), (cycle(30), False), (cycle(10), False)
        ):
            called = []
            real = digraph._frontier_table
            with mock.patch.object(digraph, "_frontier_table", lambda g: called.append(g) or real(g)):
                distance_table(g)
            assert called == ([g] if frontier else [])
