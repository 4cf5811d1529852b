import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdkit.corpus import cycle, paper6, random_sc
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
        assert g.out_deg == (1, 1, 1)
        assert g.adj[0][1] == 1 and g.adj[1][2] == 1 and g.adj[2][0] == 1

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


class TestConnectivity:
    def test_cycle_is_strongly_connected(self):
        assert strongly_connected(cycle(5))

    def test_two_triangles_with_bridge_is_not(self):
        arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
        assert not strongly_connected(Digraph.from_arcs(6, arcs))

    def test_paper6_is_strongly_connected(self):
        assert strongly_connected(paper6())

    def test_distance_table_field_matches_two_sweeps(self, corpus):
        bridged = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
        graphs = list(corpus) + [
            ("bridged_triangles", Digraph.from_arcs(6, bridged)),
            ("path3", Digraph.from_arcs(3, [(0, 1), (1, 2)])),
        ]
        for name, g in graphs:
            assert distance_table(g).strongly_connected == strongly_connected(g), name
        assert not distance_table(Digraph.from_arcs(6, bridged)).strongly_connected


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
        assert t.girth == brute_girth(g.adj)

    def test_acyclic_has_no_girth(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        assert distance_table(g).girth is None

    def test_digon_girth(self):
        g = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        assert distance_table(g).girth == 2


class TestConverse:
    def test_cycle_converse(self):
        g = converse(cycle(3))
        assert g.adj[1][0] == 1 and g.adj[0][2] == 1

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


class TestRegularity:
    def test_cycle(self):
        assert regularity(cycle(9)) == 1

    def test_paper6(self):
        assert regularity(paper6()) == 2

    def test_chorded_cycle_is_not_regular(self):
        from drdkit.corpus import cycle_with_chord

        assert regularity(cycle_with_chord(4)) is None


def _assert_table_matches_floyd_warshall(g):
    """The int64 table, with -1 for unreachable, and the diameter, girth and
    strong connectivity read off it, against Floyd-Warshall."""
    t = distance_table(g)
    dist, diameter, girth, sc = table_by_floyd_warshall(g.adj)
    assert t.array.dtype == np.int64 and not t.array.flags.writeable
    assert (t.array.tolist(), t.diameter, t.girth, t.strongly_connected, t.n) == (
        dist, diameter, girth, sc, g.n
    )


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
@given(small_digraphs(5))
def test_distance_invariants(g):
    t = distance_table(g)
    n = g.n
    d = t.array.tolist()
    for v in range(n):
        for u in range(n):
            assert (d[v][u] == 0) == (v == u)
            assert (d[v][u] == 1) == bool(g.adj[v][u])
            for w in range(n):
                if d[v][u] >= 0 and d[u][w] >= 0:
                    assert 0 <= d[v][w] <= d[v][u] + d[u][w]


@settings(max_examples=60, deadline=None)
@given(small_digraphs(5))
def test_converse_swaps_distances(g):
    t = distance_table(g)
    tc = distance_table(converse(g))
    for v in range(g.n):
        for u in range(g.n):
            assert tc.array[v, u] == t.array[u, v]


@settings(max_examples=50, deadline=None)
@given(small_digraphs(6))
def test_girth_matches_brute_force(g):
    assert distance_table(g).girth == brute_girth(g.adj)


def test_girth_matches_brute_force_on_seven_vertices():
    for seed in range(8):
        g = random_sc(7, 0.25 + 0.05 * seed, seed=seed)
        assert distance_table(g).girth == brute_girth(g.adj)
