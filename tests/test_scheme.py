import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drdkit.characterize as characterize
import drdkit.scheme as scheme
from drdkit.characterize import CheckConfig, check_all, check_single
from drdkit.cli import main
from drdkit.corpus import (
    all_strongly_connected_digraphs,
    cycle,
    cycle_with_chord,
    debruijn,
    edge_list_text,
    kautz,
    paley,
    paper6,
    random_sc,
)
from drdkit.digraph import Digraph, distance_table, strongly_connected
from drdkit.errors import InternalInconsistency
from drdkit.partitions import distance_regular_scan
from drdkit.ratlin import (
    IntMatrix,
    SpanBasis,
    adjacency_matrix,
    mat_mul,
    minimal_polynomial,
)
from drdkit.scheme import (
    TwoWayRelations,
    adjacency_transpose_index,
    damerell_numbers,
    distance_matrices,
    distance_polynomials,
    pair_intersection_counts,
    scheme_axioms,
    transpose_closure,
    two_way_relations,
    walk_count_constancy,
    wang_suzuki_drd_check,
)
from drdkit.spectral import is_normal

from conftest import circulant, small_digraphs, strongly_connected_digraphs, traced_peak
from oracles import (
    adjacency_transpose_by_matrices,
    class_matrices,
    comellas_damerell_link,
    count_walks,
    distance_polynomials_by_evaluation,
    distance_stack,
    intersection_numbers,
    ones,
    pair_counts_by_dict,
    partition_basis_by_matrices,
    product_table_by_matrices,
    scheme_axioms_by_matrices,
    transpose_closure_by_matrices,
    two_way_relations_by_unique,
    walk_count_constancy_from_zero,
    weak_dr_comellas,
)


def build(g):
    return distance_matrices(g, distance_table(g))


def axioms(t):
    return scheme_axioms(pair_intersection_counts(t), transpose_closure(t))


def polynomials(g, t):
    return distance_polynomials(
        distance_matrices(g, t), adjacency_matrix(g), pair_intersection_counts(t)
    )


def reference_axioms(mats):
    """The matrix-level reference's flags and witness, after asserting the two
    axioms that hold by construction on the distance classes."""
    ref = scheme_axioms_by_matrices(mats)
    assert ref.pop("identity") and ref.pop("sum_to_j")
    return ref


def axiom_fields(rep):
    return {
        "transpose_closed": rep.transpose_closed,
        "product_closed": rep.product_closed,
        "commutative": rep.commutative,
        "witness": rep.witness,
    }


def _diagonal_one(dist):
    dist[0, 0] = 1


def _arc_at_two(dist):
    dist[0, 1] = 2


def _no_class_one(dist):
    dist[dist == 1] = 2


def _past_the_diameter(dist):
    dist[0, 2] = 9


class TestDistanceMatrices:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (_diagonal_one, "A_0 != I"),
            (_arc_at_two, "A_1 != adjacency matrix"),
            (_no_class_one, "A_1 != adjacency matrix"),
            (_past_the_diameter, "do not partition"),
        ],
        ids=["diagonal-one", "arc-at-two", "no-class-one", "past-the-diameter"],
    )
    def test_doctored_tables_are_internal_inconsistencies(
        self, edit, message, monkeypatch, tmp_path
    ):
        # The table's three invariants are checked before any reader asks
        # for its classes' first pairs, so a table with no class 1 fails
        # on A_1 != A, an internal inconsistency (exit 3).
        g = cycle(5)
        t = distance_table(g)
        dist = t.array.copy()
        edit(dist)
        dist.flags.writeable = False
        doctored = replace(t, array=dist)
        with pytest.raises(InternalInconsistency, match=message):
            distance_matrices(g, doctored)
        monkeypatch.setattr(characterize, "distance_table", lambda g: doctored)
        path = tmp_path / "cycle5.el"
        path.write_text(edge_list_text(g))
        assert main(["check", str(path), "--char", "D"]) == 3

    def test_scan_of_a_table_that_skips_a_class_exits_three(self, monkeypatch, tmp_path):
        # Check A reads the pair count scan before anything else checks the
        # table, so the scan itself refuses labels other than 0..D before
        # it indexes its per-class reference.
        g = cycle(5)
        t = distance_table(g)
        dist = t.array.copy()
        _no_class_one(dist)
        dist.flags.writeable = False
        doctored = replace(t, array=dist)
        with pytest.raises(InternalInconsistency, match="classes 0..4"):
            pair_intersection_counts(doctored)
        monkeypatch.setattr(characterize, "distance_table", lambda g: doctored)
        path = tmp_path / "cycle5.el"
        path.write_text(edge_list_text(g))
        assert main(["check", str(path), "--char", "A"]) == 3

    def test_cycle_powers(self):
        g = cycle(5)
        t = build(g)
        a = adjacency_matrix(g)
        power = IntMatrix.identity(5)
        for i in range(t.diameter + 1):
            assert distance_stack(t)[i] == power
            power = mat_mul(power, a)

    def test_paper6_last_shell_row(self, fig6):
        t = build(fig6)
        assert t.diameter == 3
        a = fig6.labels.index("a")
        f = fig6.labels.index("f")
        row = distance_stack(t)[3].entries[a]
        assert sum(row) == 1 and row[f] == 1

    def test_sum_to_all_ones(self, corpus):
        for name, g in corpus:
            t = distance_table(g)
            if t is None:
                continue
            total = IntMatrix.zeros(g.n, g.n)
            for member in distance_stack(distance_matrices(g, t)):
                total = total.add(member)
            assert total == ones(g.n), name


class TestTransposeClosure:
    def test_cycle_reversal(self):
        n = 6
        t = build(cycle(n))
        tm = transpose_closure(t)
        assert tm.sigma == (0,) + tuple(n - i for i in range(1, n))

    def test_paper6(self, fig6):
        t = build(fig6)
        assert transpose_closure(t).sigma == (0, 2, 1, 3)

    def test_chorded_cycle_fails(self):
        t = build(cycle_with_chord(4))
        tm = transpose_closure(t)
        assert not tm.exists
        assert tm.failing_index is not None

    def test_sigma_is_involution(self, corpus):
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if t is None:
                continue
            tm = transpose_closure(distance_matrices(g, t))
            if tm.exists:
                assert tm.sigma[0] == 0, name
                for i, j in enumerate(tm.sigma):
                    assert tm.sigma[j] == i, name


class TestIntersectionNumbers:
    def test_cycle_cyclic_delta(self):
        n = 5
        g = cycle(n)
        tensor = intersection_numbers(distance_table(g))
        assert tensor.exists
        for h in range(n):
            for i in range(n):
                for j in range(n):
                    expected = 1 if (i + j) % n == h else 0
                    assert tensor.p[h][i][j] == expected

    def test_paper6_bounds(self, fig6):
        t = distance_table(fig6)
        tensor = intersection_numbers(t)
        assert tensor.exists
        D = t.diameter
        for h in range(D + 1):
            for i in range(D + 1):
                for j in range(D + 1):
                    if h > i + j:
                        assert tensor.p[h][i][j] == 0
        for i in range(D + 1):
            for j in range(D + 1):
                if i + j <= D:
                    assert tensor.p[i + j][i][j] != 0

    def test_chorded_cycle_fails_with_witness(self):
        g = cycle_with_chord(4)
        tensor = intersection_numbers(distance_table(g))
        assert not tensor.exists
        assert tensor.witness is not None

    def test_commutativity_when_exists(self, corpus):
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if t is None:
                continue
            tensor = intersection_numbers(t)
            if tensor.exists and transpose_closure(distance_matrices(g, t)).exists:
                D = t.diameter
                for h in range(D + 1):
                    for i in range(D + 1):
                        for j in range(D + 1):
                            assert tensor.p[h][i][j] == tensor.p[h][j][i], name


class TestDistancePolynomials:
    def test_cycle_monomials(self):
        g = cycle(6)
        polys = polynomials(g, distance_table(g))
        assert polys is not None
        for i, p in enumerate(polys):
            expected = (0,) * i + (1,)
            assert p.coeffs == expected

    def test_paper6_degrees_and_identity(self, fig6):
        t = distance_table(fig6)
        polys = polynomials(fig6, t)
        assert polys is not None
        assert [p.degree for p in polys] == [0, 1, 2, 3]
        from drdkit.ratlin import eval_poly_at_matrix

        a = adjacency_matrix(fig6)
        for i, p in enumerate(polys):
            assert eval_poly_at_matrix(p, a) == distance_stack(t)[i]

    def test_chorded_cycle_has_none(self):
        g = cycle_with_chord(4)
        assert polynomials(g, distance_table(g)) is None

    def test_degree_bound_everywhere(self, corpus):
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if t is None:
                continue
            polys = polynomials(g, t)
            if polys is not None:
                assert all(p.degree == i for i, p in enumerate(polys)), name

    @staticmethod
    def _both(g, t, scan):
        """The induction's polynomials and the evaluation oracle's, as
        coefficient tuples (None where there are none)."""
        polys = distance_polynomials(distance_matrices(g, t), adjacency_matrix(g), scan)
        mats = [[list(row) for row in m.entries] for m in distance_stack(t)]
        ref = distance_polynomials_by_evaluation(mats, scan)
        return (None if polys is None else tuple(p.coeffs for p in polys)), ref

    @staticmethod
    def _perturbed(scan, i, h, delta):
        """scan with the coordinate h of A_i A, values[h, i, 1], moved by
        delta."""
        values = scan.values.copy()
        values[h, i, 1] += delta
        return replace(scan, values=values)

    def test_induction_equals_evaluating_every_polynomial(self, corpus):
        for name, g in corpus + [("paley19", paley(19)), ("kautz_3_2", kautz(3, 2))]:
            if g.n == 1 or not strongly_connected(g):
                continue
            t = distance_table(g)
            got, ref = self._both(g, t, pair_intersection_counts(t))
            assert got == ref, name

    def test_induction_equals_evaluation_on_every_perturbed_coordinate(self, fig6):
        # A wrong coordinate at or below distance i + 1 makes both the
        # induction and the evaluation refuse.
        for g in (fig6, cycle(6), paley(7), kautz(2, 2)):
            t = distance_table(g)
            scan = pair_intersection_counts(t)
            assert self._both(g, t, scan)[0] is not None
            for i in range(1, t.diameter):
                for h in range(i + 2):
                    for delta in (-1, 1):
                        got, ref = self._both(g, t, self._perturbed(scan, i, h, delta))
                        assert got is None and ref is None, (g.n, i, h, delta)

    def test_perturbed_product_table_gives_none(self):
        g = cycle(6)
        t = build(g)
        a = adjacency_matrix(g)
        scan = pair_intersection_counts(t)
        assert distance_polynomials(t, a, scan) is not None
        assert distance_polynomials(t, a, self._perturbed(scan, 2, 1, 1)) is None

    def test_one_product_per_step(self, monkeypatch):
        # The re-verification takes one product A_i A per step, on float64,
        # which is exact on a 01 matrix (n < 2^53): no mat_mul at all.
        g = cycle(12)
        t = build(g)
        scan = pair_intersection_counts(t)
        calls = []
        real = scheme.mat_mul
        monkeypatch.setattr(scheme, "mat_mul", lambda a, b: calls.append(1) or real(a, b))
        assert distance_polynomials(t, adjacency_matrix(g), scan) is not None
        assert not calls


def _c32_blown_up() -> Digraph:
    """C_32[K_4-bar]: arcs (i, a) -> (i + 1 mod 32, b), n = 128, D = 32."""
    return Digraph.from_arcs(
        128, [(4 * i + a, 4 * ((i + 1) % 32) + b) for i in range(32) for a in range(4) for b in range(4)]
    )


class TestWalkCounts:
    def test_c4_power_four_is_identity(self):
        g = cycle(4)
        t = build(g)
        assert walk_count_constancy(t, adjacency_matrix(g), max_len=4)

    def test_paper6_constant(self, fig6):
        t = build(fig6)
        assert walk_count_constancy(t, adjacency_matrix(fig6))

    def test_chorded_cycle_fails(self):
        g = cycle_with_chord(4)
        t = build(g)
        res = walk_count_constancy(t, adjacency_matrix(g))
        assert not res
        ell, h, pair0, pair1, v0, v1 = res.witness
        # The witness is a genuine walk-count discrepancy: re-count both
        # pairs by explicit enumeration.
        assert count_walks(g.matrix.tolist(), *pair0, ell) == v0
        assert count_walks(g.matrix.tolist(), *pair1, ell) == v1
        assert v0 != v1

    def test_max_len_below_diameter_refused(self):
        from drdkit.errors import PreconditionViolated

        g = cycle(5)
        t = build(g)
        with pytest.raises(PreconditionViolated):
            walk_count_constancy(t, adjacency_matrix(g), max_len=2)

    def test_walks_past_the_int64_bound_stay_exact(self, monkeypatch):
        # Walks stop at l = D + 1. On the blow-up C_32[K_4-bar], arcs
        # (i, a) -> (i + 1 mod 32, b), n = 128 and D = 32, every row sum of
        # A^l is 4^l, and A^l is 4^(l - 1) on the pairs at distance l mod 32.
        # The products A^l = A^(l-1) A run on float64 while 4^(l - 1) < 2^53,
        # up to A^27; A^28..A^33 go through mat_mul, and A^33, the first
        # power past 2^63, takes the object-array route. The verdict must
        # match the default walk length.
        g = _c32_blown_up()
        t = build(g)
        a = adjacency_matrix(g)
        powers = []
        real = scheme.mat_mul
        monkeypatch.setattr(scheme, "mat_mul", lambda a, b: powers.append(real(a, b)) or powers[-1])
        long = walk_count_constancy(t, a, max_len=70)
        assert t.diameter == 32
        assert [p.num.dtype == object for p in powers] == [False] * 5 + [True]
        assert bool(long) == bool(walk_count_constancy(t, a)) is True
        a = adjacency_matrix(paper6())
        power = IntMatrix.identity(6)
        for _ in range(70):
            power = mat_mul(power, a)
        assert power.num.dtype == object
        assert sum(power.entries[0]) == 2**70

    def test_the_chain_from_two_matches_the_chain_from_zero(self, corpus):
        # `distance_matrices` proves A^0 = A_0 and A^1 = A_1, so the chain
        # starts at A^2; against the chain that compares A^0 and A^1 too, the
        # result (ok, max_len and witness) is the same at the default bound
        # and past D + 1, on cycle(40) and past 2^63 on C_32[K_4-bar].
        graphs = small_digraphs() + [g for _, g in corpus] + [cycle(40), _c32_blown_up()]
        for g in graphs:
            t = build(g)
            a = adjacency_matrix(g)
            for bound in (None, 70):
                new = walk_count_constancy(t, a, bound)
                old = walk_count_constancy_from_zero(t, a, bound)
                assert (new.ok, new.max_len, new.witness) == (old.ok, old.max_len, old.witness)

    def test_witness_is_the_first_differing_pair_of_the_lowest_class(self):
        # Against powers taken by numpy and classes listed pair by pair: the
        # lowest class on which A^l is not constant, its first pair in
        # row-major order, and the first pair of the class where A^l differs
        # from that one, with both walk counts.
        graphs = [cycle_with_chord(n) for n in (4, 5, 6)]
        graphs += [random_sc(n, 0.3, seed=s) for s in range(30) for n in (5, 7)]
        failing = 0
        for g in graphs:
            t = build(g)
            walks = walk_count_constancy(t, adjacency_matrix(g))
            if walks:
                continue
            failing += 1
            ell, h, pair0, pair1, v0, v1 = walks.witness
            power = np.linalg.matrix_power(g.matrix.astype(np.int64), ell)
            cells = [
                [(x, y) for x in range(g.n) for y in range(g.n) if t.array[x, y] == c]
                for c in range(t.diameter + 1)
            ]
            uneven = [c for c, cell in enumerate(cells) if len({power[p] for p in cell}) > 1]
            assert h == uneven[0] and pair0 == cells[h][0]
            assert pair1 == next(p for p in cells[h] if power[p] != power[pair0])
            assert (v0, v1) == (power[pair0], power[pair1])
        assert failing >= 20

    def test_a_bound_past_n_steps_to_n_minus_1(self, monkeypatch):
        # Constancy up to l = D + 1 gives it for every l, and by
        # Cayley-Hamilton so does constancy below n, so a bound of 10^9
        # steps at most min(D + 1, n - 1) = 3 products on paley(19) and
        # echoes the bound. A 4th product fails at once instead of walking on;
        # a float bound of 0 sends every product through mat_mul to be counted.
        g = paley(19)
        calls = []
        real = scheme.mat_mul
        monkeypatch.setattr(scheme, "FLOAT64_EXACT", 0)

        def counted(a, b):
            calls.append(1)
            assert len(calls) <= 3, "walked past l = D + 1"
            return real(a, b)

        monkeypatch.setattr(scheme, "mat_mul", counted)
        v = check_single(g, "E", CheckConfig(max_walk_len=10**9))
        assert v.verdict == "yes" and v.params == {"max_len": 10**9}

    def test_no_walk_length_fails_first_past_d_plus_1(self):
        # Against the first l < n where A^l, stepped in numpy, is not
        # constant on a distance class: never past D + 1, and the test
        # stepped at any bound finds the same l, or none.
        graphs = [g for n in range(1, 5) for g in all_strongly_connected_digraphs(n)]
        graphs += [random_sc(n, 0.2 + 0.1 * (s % 5), seed=s) for s in range(40) for n in (5, 7, 9)]
        for g in graphs:
            t = build(g)
            power, first = np.eye(g.n, dtype=np.int64), None
            for ell in range(g.n):
                power = power @ g.matrix if ell else power
                if any(len(set(power[t.array == h].tolist())) > 1 for h in range(t.diameter + 1)):
                    first = ell
                    break
            walks = walk_count_constancy(t, adjacency_matrix(g), max_len=10**6)
            assert first is None or first <= t.diameter + 1
            assert (None if walks else walks.witness[0]) == first

    def test_witness_does_not_depend_on_a_bound_past_n(self):
        g = cycle_with_chord(5)
        t = build(g)
        a = adjacency_matrix(g)
        at_d = walk_count_constancy(t, a, max_len=t.diameter)
        at_50 = walk_count_constancy(t, a, max_len=50)
        assert not at_d and at_d.witness == at_50.witness
        assert at_50.max_len == 50

    def test_matches_walk_enumeration(self):
        for g in (cycle(5), cycle_with_chord(5), paper6()):
            a = g.matrix.tolist()
            power = IntMatrix.identity(g.n)
            am = adjacency_matrix(g)
            for ell in range(5):
                for x in range(g.n):
                    for y in range(g.n):
                        assert power.entries[x][y] == count_walks(a, x, y, ell)
                power = mat_mul(power, am)


class TestSchemeAxioms:
    def test_cycle_passes(self):
        t = build(cycle(5))
        rep = axioms(t)
        assert rep.all

    def test_paper6_passes(self, fig6):
        t = build(fig6)
        assert axioms(t).all

    def test_ad_hoc_family_fails_product_closure(self):
        # A family that is not the distance matrices has no library axioms;
        # the matrix-level reference must refuse it.
        g = cycle_with_chord(4)
        a = adjacency_matrix(g)
        i = IntMatrix.identity(4)
        rest = IntMatrix(ones(4).num - i.num - a.num)
        rep = scheme_axioms_by_matrices([i, a, rest])
        assert rep["identity"] and rep["sum_to_j"]
        assert not rep["product_closed"]
        assert rep["witness"] is not None

    @staticmethod
    def _assert_matches_matrices(g):
        t = build(g)
        assert axiom_fields(axioms(t)) == reference_axioms(distance_stack(t))

    @settings(max_examples=100, deadline=None)
    @given(strongly_connected_digraphs(8))
    def test_table_reads_match_the_matrix_reference(self, g):
        self._assert_matches_matrices(g)

    def test_table_reads_match_the_matrix_reference_on_the_corpus(self, corpus):
        for name, g in corpus:
            if strongly_connected(g):
                self._assert_matches_matrices(g)

    def test_axioms_iff_definition(self, corpus):
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if t is None:
                continue
            axioms_pass = axioms(distance_matrices(g, t)).all
            drd = distance_regular_scan(g, t, "out")[0] is not None
            assert axioms_pass == drd, name


class TestDamerell:
    def test_cycle_table(self):
        n = 5
        g = cycle(n)
        t = build(g)
        table = damerell_numbers(g, t)
        assert table.exists
        D = n - 1
        for i in range(D + 1):
            for j in range(D + 1):
                expected = 1 if j == (i + 1) % n else 0
                assert table.b[i][j] == expected

    def test_paper6(self, fig6):
        t = build(fig6)
        assert damerell_numbers(fig6, t).exists

    def test_chorded_cycle(self):
        g = cycle_with_chord(4)
        t = build(g)
        table = damerell_numbers(g, t)
        assert not table.exists
        assert table.witness is not None

    def test_upper_triangle_zero_when_exists(self, corpus):
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if t is None:
                continue
            table = damerell_numbers(g, t)
            if table.exists:
                D = t.diameter
                for i in range(D + 1):
                    for j in range(i + 2, D + 1):
                        assert table.b[i][j] == 0, name


class TestTwoWayRelations:
    def test_cycle(self):
        n = 5
        g = cycle(n)
        t = build(g)
        rel = two_way_relations(t)
        assert set(rel.delta) == {(0, 0)} | {(i, n - i) for i in range(1, n)}
        assert wang_suzuki_drd_check(rel, t, lambda: axioms(t))

    def test_paper6(self, fig6):
        t = build(fig6)
        rel = two_way_relations(t)
        assert len(rel.delta) == 4 == t.diameter + 1
        assert wang_suzuki_drd_check(rel, t, lambda: axioms(t))

    def test_chorded_cycle(self):
        g = cycle_with_chord(4)
        t = build(g)
        rel = two_way_relations(t)
        assert not wang_suzuki_drd_check(rel, t, lambda: axioms(t))

    def test_h_reads_the_distance_matrices_axioms(self, corpus):
        # H's verdict and witness equal the scheme axioms of the two-way
        # classes computed on their own.
        for name, g in corpus:
            if g.n == 1 or not strongly_connected(g):
                continue
            t = build(g)
            rel = two_way_relations(t)
            h = next(v for v in check_all(g).verdicts if v.id == "H")
            if len(rel.delta) != t.diameter + 1:
                assert h.verdict == "no" and "two-way distance classes" in h.witness, name
                continue
            alone = reference_axioms(class_matrices(rel.index, len(rel.delta)))
            shared = axioms(t)
            assert wang_suzuki_drd_check(rel, t, lambda: shared).axioms is shared, name
            assert axiom_fields(shared) == alone, name
            assert h.verdict == ("yes" if alone["witness"] is None else "no"), name
            if alone["witness"] is not None:
                assert h.witness == alone["witness"], name

    def test_classes_that_are_not_the_distance_matrices_raise(self, fig6):
        t = build(fig6)
        rel = two_way_relations(t)
        swapped = rel.index.copy()
        swapped[rel.index == 1] = 2
        swapped[rel.index == 2] = 1
        with pytest.raises(InternalInconsistency):
            wang_suzuki_drd_check(TwoWayRelations(rel.delta, swapped), t, lambda: axioms(t))

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            strongly_connected_digraphs(9),
            st.sampled_from([cycle(16), kautz(2, 3), debruijn(2, 4)]),
        )
    )
    def test_matches_the_unique_oracle(self, g):
        t = distance_table(g)
        rel, ref = two_way_relations(t), two_way_relations_by_unique(t)
        assert rel.delta == ref.delta
        assert rel.index.shape == ref.index.shape
        assert np.array_equal(rel.index, ref.index)

    def test_classes_partition(self, fig6):
        t = build(fig6)
        rel = two_way_relations(t)
        classes = class_matrices(rel.index, len(rel.delta))
        total = IntMatrix.zeros(6, 6)
        for m in classes:
            total = total.add(m)
        assert total == ones(6)
        assert rel.delta[0] == (0, 0)
        assert classes[0] == IntMatrix.identity(6)


class TestWeakDistanceRegularity:
    def test_cycles_and_paper6(self, fig6):
        for g in (cycle(4), cycle(7), fig6):
            t = distance_table(g)
            assert weak_dr_comellas(g, t)
            assert comellas_damerell_link(g, t)

    def test_kautz22_is_weak_dr_but_not_normal(self):
        g = kautz(2, 2)
        t = distance_table(g)
        assert weak_dr_comellas(g, t)
        assert not is_normal(adjacency_matrix(g))
        assert distance_regular_scan(g, t, "out")[0] is None
        assert comellas_damerell_link(g, t)

    def test_weak_dr_equals_walk_constancy(self, corpus):
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if t is None:
                continue
            walks = walk_count_constancy(distance_matrices(g, t), adjacency_matrix(g))
            assert weak_dr_comellas(g, t) == bool(walks), name

    def test_link_true_on_corpus(self, corpus):
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if t is None:
                continue
            assert comellas_damerell_link(g, t), name


def _assert_scan_matches_oracle(t):
    scan = pair_intersection_counts(t)
    values, ok, witness = pair_counts_by_dict(t.array.tolist(), t.diameter)
    assert not scan.values.flags.writeable and not scan.ok.flags.writeable
    assert scan.values.tolist() == [[list(row) for row in v] for v in values]
    assert scan.ok.tolist() == [list(row) for row in ok]
    assert scan.witness == witness
    assert (scan.witness is None) == scan.all_constant


def _assert_scan_matches_products(g, t):
    """The scan read as a product table equals the matrix reference: every
    product's coordinates, the first open product, closure and
    commutativity."""
    scan = pair_intersection_counts(t)
    ref = product_table_by_matrices(distance_stack(t))
    size = t.diameter + 1
    assert tuple(tuple(scan.coords(i, j) for j in range(size)) for i in range(size)) == ref.table
    assert scan.first_open == ref.first_open
    assert scan.all_constant == ref.all_constant
    assert scan.commutative == ref.commutative


def _sorted_block_start(row: int, n: int, cap: int) -> int:
    """The first row of the sorted-key block that holds `row`: blocks double
    from one row up to cap // n^2 rows."""
    lo, step, most = 0, 1, max(1, cap // (n * n))
    while lo + step <= row:
        lo += step
        step = min(2 * step, most)
    return lo


# The star K_{1,5} with arcs both ways: the centre is vertex 5.
STAR = Digraph.from_arcs(6, [(v, 5) for v in range(5)] + [(5, v) for v in range(5)])
SCAN_SAMPLES = [cycle(n) for n in (3, 10, 16)] + [paley(7), paley(19), STAR]


class TestPairCountScan:
    @settings(max_examples=150, deadline=None)
    @given(strongly_connected_digraphs(9), st.sampled_from([1, 50, scheme.SCAN_BLOCK]))
    def test_matches_the_dictionary_oracle(self, g, cap):
        t = distance_table(g)
        with mock.patch.object(scheme, "SCAN_BLOCK", cap):
            _assert_scan_matches_oracle(t)
            _assert_scan_matches_products(g, t)

    def test_every_closed_family_commutes(self, corpus):
        # A A_i is zero past distance i + 1 and positive at it, so in a
        # closed family every A_i is a polynomial in A, and the family
        # commutes. The matrix reference confirms it.
        closed = 0
        for name, g in corpus:
            if not strongly_connected(g):
                continue
            ref = product_table_by_matrices(distance_stack(distance_table(g)))
            if ref.all_constant:
                assert ref.commutative, name
                closed += 1
        assert closed >= 15

    @pytest.mark.parametrize("cap", [1, scheme.SCAN_BLOCK], ids=["block1", "default"])
    @pytest.mark.parametrize(
        "g, commutes",
        [(circulant(8, (1, 4, 5)), True), (kautz(2, 3), False)],
        ids=["circulant8", "kautz23"],
    )
    def test_one_pass_decides_commutativity(self, g, commutes, cap, monkeypatch):
        # Both families are open, so closure does not imply commutativity;
        # it is still read off the counts of the one pass. On every kernel
        # one bincount counts the class references; then bincount counts
        # every block of pairs, GEMM no pair, and sorted keys every pair from
        # the sorted block that holds the first mismatch on. When one
        # bincount block holds all n^2 pairs, as both digraphs' do at the
        # default cap, that one count is all the bincount kernel makes.
        t = distance_table(g)
        n, width = g.n, t.diameter + 1
        monkeypatch.setattr(scheme, "SCAN_BLOCK", cap)
        step = max(1, cap // max(n, width * width))
        mismatch_row = pair_intersection_counts(t).witness[4][0]
        sorted_from = _sorted_block_start(mismatch_row, n, cap) * n
        real = scheme._pair_counts
        for kernel, pairs_from in (("bincount", 0), ("gemm", n * n), ("sorted", sorted_from)):
            calls = []
            monkeypatch.setattr(scheme, "scan_kernel", lambda *a: kernel)
            monkeypatch.setattr(scheme, "_pair_counts", lambda *a: calls.append(1) or real(*a))
            scan = pair_intersection_counts(t)
            assert not scan.all_constant
            assert scan.commutative == commutes
            if kernel == "bincount" and step >= n * n:
                assert len(calls) == 1 and cap == scheme.SCAN_BLOCK
            else:
                assert len(calls) == 1 + len(range(pairs_from, n * n, step)), kernel
            if cap == 1 and kernel == "bincount":
                assert len(calls) == 1 + n * n

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(strongly_connected_digraphs(9), st.sampled_from(SCAN_SAMPLES)),
        st.sampled_from(["bincount", "gemm", "sorted"]),
        st.sampled_from([1, 50, scheme.SCAN_BLOCK]),
    )
    def test_each_kernel_matches_the_dictionary_oracle(self, g, kernel, cap):
        t = distance_table(g)
        with mock.patch.multiple(scheme, scan_kernel=lambda *a: kernel, SCAN_BLOCK=cap):
            _assert_scan_matches_oracle(t)
            _assert_scan_matches_products(g, t)

    def test_the_kernel_oracle_meets_one_block_and_several(self):
        # The bincount counts every pair in one block when a block of
        # SCAN_BLOCK // max(n, (D + 1)^2) pairs holds all n^2: at the default
        # cap on every digraph with at most 9 vertices, so on every drawn
        # one, and on half the samples above, while at caps 1 and 50 every
        # sample takes several blocks.
        def one_block(g, cap):
            with mock.patch.object(scheme, "SCAN_BLOCK", cap):
                return scheme._bincount_step(g.n, distance_table(g).diameter + 1) >= g.n**2

        assert all(
            scheme._bincount_step(n, width) >= n * n for n in range(1, 10) for width in range(1, n + 1)
        )
        assert [one_block(g, scheme.SCAN_BLOCK) for g in SCAN_SAMPLES] == [
            True, False, False, True, True, True,
        ]
        assert not any(one_block(g, cap) for g in SCAN_SAMPLES for cap in (1, 50))

    def test_one_block_counts_every_pair_once(self, monkeypatch):
        # In one block the class references are read off the count of all
        # n^2 pairs; with several, they are counted first, on their own.
        g = cycle_with_chord(6)
        t = distance_table(g)
        real = scheme._pair_counts
        monkeypatch.setattr(scheme, "scan_kernel", lambda *a: "bincount")
        for cap, sizes in ((scheme.SCAN_BLOCK, [36]), (50, [t.diameter + 1] + [1] * 36)):
            counted = []
            monkeypatch.setattr(scheme, "SCAN_BLOCK", cap)
            monkeypatch.setattr(
                scheme, "_pair_counts", lambda d, pairs, w: counted.append(len(pairs)) or real(d, pairs, w)
            )
            scan = pair_intersection_counts(t)
            assert counted == sizes, cap
            assert not scan.all_constant
        monkeypatch.setattr(scheme, "_pair_counts", real)
        _assert_scan_matches_oracle(t)

    def test_sorted_keys_fall_back_from_the_block_of_a_late_mismatch(self, monkeypatch):
        # The star's first mismatch is at row 5, in the third sorted block
        # (rows 3..5): rows 0..2 are only sorted, and the bincount counts
        # the class references and the pairs of rows 3..5.
        t = distance_table(STAR)
        scan = pair_intersection_counts(t)
        assert scan.witness[4][0] == 5 == STAR.n - 1
        assert _sorted_block_start(5, STAR.n, scheme.SCAN_BLOCK) == 3
        counted = []
        real = scheme._pair_counts
        monkeypatch.setattr(scheme, "scan_kernel", lambda *a: "sorted")
        monkeypatch.setattr(
            scheme, "_pair_counts", lambda d, pairs, w: counted.extend(pairs) or real(d, pairs, w)
        )
        assert pair_intersection_counts(t).witness == scan.witness
        first = np.unique(t.array.ravel(), return_index=True)[1].tolist()
        assert counted == first + list(range(3 * STAR.n, STAR.n**2))

    def test_the_kernel_rule(self):
        # Flops per key 2 (D + 1)^2 n / (n + (D + 1)^2): below 18 at D = 2
        # for every n; 18.2 on C_10, whose work 11,000 is below the sorted
        # keys' floor; 22.2 and 33.9 on kautz(3, 3) and de Bruijn(2, 5).
        # Paley(11) and kautz(2, 3) work 2,420 and 4,032, below GEMM's floor.
        assert [scheme.scan_kernel(n, n) for n in (8, 10, 14, 300)] == (
            ["bincount"] * 2 + ["sorted"] * 2
        )
        assert [scheme.scan_kernel(q, 3) for q in (11, 19, 59, 503, 2039)] == (
            ["bincount"] + ["gemm"] * 4
        )
        assert scheme.scan_kernel(12, 4) == "bincount"
        assert scheme.scan_kernel(36, 4) == scheme.scan_kernel(32, 6) == "bincount"
        assert scheme.scan_kernel(512, 10) == scheme.scan_kernel(324, 6) == "bincount"

    @pytest.mark.parametrize(
        "g, step",
        [(paley(7), 3), (cycle_with_chord(6), 5), (cycle_with_chord(5), 7), (kautz(2, 3), 5)],
    )
    def test_blocks_that_split_rows_unevenly(self, g, step):
        """Blocks of `step` pairs cross row ends, and the last is short."""
        t = distance_table(g)
        assert g.n % step and (g.n * g.n) % step
        cap = step * max(g.n, (t.diameter + 1) ** 2)
        with mock.patch.multiple(scheme, SCAN_BLOCK=cap, scan_kernel=lambda *a: "bincount"):
            _assert_scan_matches_oracle(t)

    def test_a_row_larger_than_the_block_cap(self):
        # A row of pairs on the bincount, and C_40's n^2 keys a source row
        # on the sorted keys, which the rule picks.
        g = cycle(40)
        t = distance_table(g)
        assert g.n * (t.diameter + 1) ** 2 > scheme.SCAN_BLOCK
        with mock.patch.object(scheme, "scan_kernel", lambda *a: "bincount"):
            _assert_scan_matches_oracle(t)
        with mock.patch.object(scheme, "SCAN_BLOCK", g.n * g.n - 1):
            assert scheme.scan_kernel(g.n, t.diameter + 1) == "sorted"
            _assert_scan_matches_oracle(t)
        assert pair_intersection_counts(t).all_constant

    def test_witness_is_first_pair_at_lowest_slot(self):
        # Pair (0, 1) is the first of class 1; (0, 2) is the next pair of
        # class 1 and differs from it first at (i, j) = (1, 1): no z has
        # d(0,z) = 1 = d(z,1), while z = 1 has d(0,1) = 1 = d(1,2).
        t = distance_table(cycle_with_chord(4))
        scan = pair_intersection_counts(t)
        assert scan.witness == (1, 1, 1, (0, 1), (0, 2), 0, 1)


def _circulants(max_n: int):
    """Every strongly connected circulant Cay(Z_n, S), 2 <= n <= max_n: the
    nonempty S in {1, ..., n - 1} whose gcd with n is 1."""
    for n in range(2, max_n + 1):
        for mask in range(1, 1 << (n - 1)):
            jumps = tuple(s for s in range(1, n) if mask >> (s - 1) & 1)
            if math.gcd(n, *jumps) == 1:
                yield n, jumps


class TestCirculantSweep:
    def test_every_circulant_up_to_nine_vertices(self):
        """All 487 strongly connected circulants with n <= 9: the checks
        agree, the pair count scan equals the matrix product table, and
        every directed "yes" has Damerell's girth."""
        swept = yes = undirected_yes = 0
        for n, jumps in _circulants(9):
            g = circulant(n, jumps)
            rep = check_all(g)
            assert rep.agreement, (n, jumps)
            t = distance_table(g)
            _assert_scan_matches_products(g, t)
            swept += 1
            if rep.overall != "yes":
                continue
            yes += 1
            if np.array_equal(g.matrix, g.matrix.T):
                undirected_yes += 1
            else:
                assert t.girth in (t.diameter, t.diameter + 1), (n, jumps)
        assert (swept, yes, undirected_yes) == (487, 59, 25)

    def test_the_undirected_hexagon_is_outside_damerell(self):
        g = circulant(6, (1, 5))
        t = distance_table(g)
        assert check_all(g).overall == "yes"
        assert (t.girth, t.diameter) == (2, 3)


def _assert_index_reads_match_matrices(g):
    t = build(g)
    mats = distance_stack(t)
    tm = transpose_closure(t)
    assert (tm.sigma, tm.failing_index) == transpose_closure_by_matrices(mats)
    assert adjacency_transpose_index(t) == adjacency_transpose_by_matrices(mats)
    index, reps = partition_basis_by_matrices(mats)
    assert np.array_equal(t.array, index)
    assert t.reps.tolist() == reps.tolist()
    assert len(mats) == len(reps) == t.diameter + 1


class TestMemory:
    """Neither `distance_matrices` nor the pair count scan keeps a second
    copy of what the distance table or the scan's count array holds: no
    stack of D + 1 dense matrices, no nested tuples of counts."""

    @pytest.mark.parametrize("n", [60, 100])
    def test_distance_matrices_builds_no_matrix_stack(self, n):
        g = cycle(n)
        t = distance_table(g)
        assert traced_peak(lambda: distance_matrices(g, t)) < 6 * n * n * 8

    @pytest.mark.parametrize("n", [60, 100])
    def test_pair_scan_keeps_its_count_array(self, n):
        t = distance_table(cycle(n))
        width = t.diameter + 1
        assert traced_peak(lambda: pair_intersection_counts(t)) < 1.5 * width**3 * 8

    def test_gemm_scan_holds_blocks_beside_one_operand(self):
        # paley(131) scans by GEMM: beside the table, its operand
        # Y[z][(j, y)] of (D + 1) n^2 float64 is built once, and a block's
        # one-hot holds at most SCAN_BLOCK elements, its product D + 1
        # times as many.
        g = paley(131)
        t = distance_table(g)
        width = t.diameter + 1
        assert scheme.scan_kernel(g.n, width) == "gemm"
        bound = (width + 1) * g.n * g.n * 8 + 3 * width * scheme.SCAN_BLOCK * 8
        assert traced_peak(lambda: pair_intersection_counts(t)) < bound


class TestIndexReads:
    """Transposes and each class's first pair read off the distance table
    agree with the matrix-level references."""

    @settings(max_examples=200, deadline=None)
    @given(strongly_connected_digraphs(9))
    def test_matches_the_matrix_references(self, g):
        _assert_index_reads_match_matrices(g)

    def test_corpus(self, corpus):
        # Two directed triangles through vertex 0: every arc returns at
        # distance 2, but A_2 holds more pairs than there are arcs, so A^T
        # lies properly inside A_2 and is no distance matrix.
        bowtie = Digraph.from_arcs(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        for name, g in corpus + [("bowtie", bowtie)]:
            if strongly_connected(g):
                _assert_index_reads_match_matrices(g)

    def test_no_matrix_is_transposed_or_compared(self, corpus, monkeypatch):
        def refuse(*args):
            raise AssertionError("a class matrix was built or compared")

        # A transposed class matrix would be a new IntMatrix.
        built = [build(g) for _, g in corpus if strongly_connected(g)]
        monkeypatch.setattr(IntMatrix, "__init__", refuse)
        monkeypatch.setattr(IntMatrix, "__eq__", refuse)
        for t in built:
            transpose_closure(t)
            adjacency_transpose_index(t)


class TestOneStepExpansions:
    def test_coefficient_bounds_on_drd_members(self, corpus):
        """When the one-step products stay in the span, the coefficient at
        distance i+1 is nonzero and everything past it vanishes."""
        checked = 0
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if t is None:
                continue
            mats = distance_stack(t)
            a = adjacency_matrix(g)
            D = t.diameter
            scan = pair_intersection_counts(t)
            if not scan.ok[:, 1].all():  # some A_i * A leaves the span
                continue
            checked += 1
            basis = SpanBasis(mats)
            for i in range(D + 1):
                coeffs = basis.solve(mat_mul(mats[i], a))
                assert coeffs is not None, name
                for h in range(i + 2, D + 1):
                    assert coeffs[h] == 0, name
                if i + 1 <= D:
                    assert coeffs[i + 1] != 0, name
                # The left-multiplication expansion has the mirror bounds.
                left = basis.solve(mat_mul(a, mats[i]))
                if left is not None:
                    for h in range(i + 2, D + 1):
                        assert left[h] == 0, name
        assert checked >= 10

    def test_paper6_left_and_right_scalars_stored(self, fig6):
        t = build(fig6)
        scan = pair_intersection_counts(t)
        assert scan.ok[:, 1].all()  # every (i, 1) slice is constant
        assert scan.ok[1].all()  # every (1, j) slice is constant
        # p^h_{i1} sits at values[h, i, 1]; the left scalars at values[h, 1, i].
        assert scan.values[1, 0, 1] == 1

    def test_girth_relations_on_damerell_members(self, corpus):
        """Where the forward count table exists and girth >= 3, the diameter
        is girth or girth - 1 and the transpose map pairs i with girth - i."""
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if t is None:
                continue
            if not damerell_numbers(g, t).exists:
                continue
            girth = t.girth
            tm = transpose_closure(distance_matrices(g, t))
            assert tm.exists, name
            for i in range(1, girth):
                assert tm.sigma[i] == girth - i, name
            if girth >= 3:
                assert t.diameter in (girth, girth - 1), name

    def test_positive_verdict_gives_min_poly_degree(self, corpus):
        for name, g in corpus:
            if g.n == 1:
                continue
            t = distance_table(g)
            if t is None:
                continue
            if distance_regular_scan(g, t, "out")[0] is None:
                continue
            mu = minimal_polynomial(adjacency_matrix(g))
            assert mu.degree == t.diameter + 1, name
