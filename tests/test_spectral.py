import math
from fractions import Fraction

import numpy as np
import pytest

from drdkit.corpus import cycle, cycle_with_chord, paley
from drdkit.digraph import Digraph, distance_table
from drdkit.ratlin import adjacency_matrix, minimal_polynomial
from drdkit.spectral import average_last_shell, is_normal, spectral_excess_rhs, spectrum

from oracles import (
    perron,
    poly_eval,
    poly_inner_product,
    poly_inner_product_trace,
    predistance_polynomials,
)


class TestIsNormal:
    def test_symmetric(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        assert is_normal(adjacency_matrix(g))

    def test_circulant(self):
        assert is_normal(adjacency_matrix(cycle(7)))

    def test_triangle_with_extra_arc_is_not(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        assert not is_normal(adjacency_matrix(g))


class TestSpectrum:
    def test_c4_fourth_roots_of_unity(self):
        s = spectrum(adjacency_matrix(cycle(4)))
        assert s.n == 4
        assert all(m == 1 for _, m in s.eigs)
        got = sorted((round(l.real, 9), round(l.imag, 9)) for l, _ in s.eigs)
        assert got == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
        assert perron(s) == pytest.approx(1.0)
        assert perron(s).imag == 0.0

    def test_paley7(self):
        s = spectrum(adjacency_matrix(paley(7)))
        assert perron(s) == pytest.approx(3.0)
        assert s.eigs[0][1] == 1
        assert sorted(m for _, m in s.eigs) == [1, 3, 3]
        others = [l for l, m in s.eigs if m == 3]
        root7 = math.sqrt(7.0)
        for l in others:
            assert l.real == pytest.approx(-0.5, abs=1e-9)
            assert abs(l.imag) == pytest.approx(root7 / 2, abs=1e-9)
        assert sum(m for _, m in s.eigs) == 7

    def test_paper6_four_distinct(self, fig6):
        s = spectrum(adjacency_matrix(fig6))
        assert len(s.eigs) == 4
        assert perron(s) == pytest.approx(2.0)
        assert s.eigs[0][1] == 1

    def test_conjugate_symmetry(self, fig6):
        s = spectrum(adjacency_matrix(fig6))
        eig_set = {(round(l.real, 12), round(l.imag, 12)) for l, _ in s.eigs}
        assert eig_set == {(re, -im) for re, im in eig_set}

    def test_distinct_count_matches_min_poly_on_normal_corpus(self, corpus):
        for name, g in corpus:
            a = adjacency_matrix(g)
            if not is_normal(a):
                continue
            s = spectrum(a)
            assert len(s.eigs) == minimal_polynomial(a).degree, name


class TestInnerProduct:
    def test_constant_poly_norm_is_one(self, fig6):
        s = spectrum(adjacency_matrix(fig6))
        one = np.array([1.0 + 0j])
        assert poly_inner_product(one, one, s) == pytest.approx(1.0)

    def test_cycle_monomials_unit_norm(self):
        s = spectrum(adjacency_matrix(cycle(6)))
        for i in range(6):
            mono = np.zeros(i + 1, dtype=complex)
            mono[i] = 1.0
            assert poly_inner_product(mono, mono, s) == pytest.approx(1.0)

    def test_hermitian_symmetry(self, fig6):
        s = spectrum(adjacency_matrix(fig6))
        rng = np.random.default_rng(3)
        p = rng.normal(size=3) + 1j * rng.normal(size=3)
        q = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert poly_inner_product(p, q, s) == pytest.approx(
            poly_inner_product(q, p, s).conjugate()
        )

    def test_trace_form_agrees(self, corpus):
        rng = np.random.default_rng(11)
        for name, g in corpus:
            if g.n > 12:
                continue
            a = adjacency_matrix(g)
            if not is_normal(a):
                continue
            s = spectrum(a)
            d = s.d
            for _ in range(10):
                p = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
                q = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
                v1 = poly_inner_product(p, q, s)
                v2 = poly_inner_product_trace(p, q, a)
                assert abs(v1 - v2) <= 1e-9 * max(abs(v1), abs(v2), 1.0), name


class TestPredistance:
    def test_p0_is_one(self, fig6):
        ps = predistance_polynomials(spectrum(adjacency_matrix(fig6)))
        assert ps.polys[0] == pytest.approx(np.array([1.0 + 0j]))

    def test_cycle_monomials(self):
        ps = predistance_polynomials(spectrum(adjacency_matrix(cycle(5))))
        for i, p in enumerate(ps.polys):
            expected = np.zeros(i + 1, dtype=complex)
            expected[i] = 1.0
            assert p == pytest.approx(expected, abs=1e-9)

    def test_orthogonality_residue(self, corpus):
        for name, g in corpus:
            a = adjacency_matrix(g)
            if not is_normal(a) or g.n > 12:
                continue
            s = spectrum(a)
            ps = predistance_polynomials(s)
            top = max(ps.norms)
            for i in range(len(ps.polys)):
                for j in range(i + 1, len(ps.polys)):
                    ip = poly_inner_product(ps.polys[i], ps.polys[j], s)
                    assert abs(ip) <= 1e-9 * top, name

    def test_norm_equals_value_at_perron(self, fig6):
        s = spectrum(adjacency_matrix(fig6))
        ps = predistance_polynomials(s)
        for p, norm in zip(ps.polys, ps.norms):
            assert poly_inner_product(p, p, s).real == pytest.approx(norm, rel=1e-9)
            assert norm > 0

    def test_sum_is_all_ones_on_regular_normal_members(self, corpus):
        from drdkit.digraph import regularity

        for name, g in corpus:
            if g.n == 1 or g.n > 12 or regularity(g) is None:
                continue
            t = distance_table(g)
            if not t.strongly_connected:
                continue
            a = adjacency_matrix(g)
            if not is_normal(a):
                continue
            ps = predistance_polynomials(spectrum(a))
            arr = np.array([[float(x) for x in row] for row in g.adj], dtype=complex)
            total = np.zeros_like(arr)
            for p in ps.polys:
                acc = np.zeros_like(arr)
                for c in p[::-1]:
                    acc = acc @ arr + c * np.eye(g.n)
                total += acc
            assert np.max(np.abs(total - np.ones((g.n, g.n)))) < 1e-8, name


class TestSpectralExcess:
    def test_cycles_give_one(self):
        for n in range(3, 13):
            s = spectrum(adjacency_matrix(cycle(n)))
            assert abs(spectral_excess_rhs(s) - 1.0) < 1e-9

    def test_paley7_gives_three(self):
        s = spectrum(adjacency_matrix(paley(7)))
        assert spectral_excess_rhs(s) == pytest.approx(3.0, rel=1e-9)
        t = distance_table(paley(7))
        assert average_last_shell(t) == 3

    def test_paper6_gives_one(self, fig6):
        s = spectrum(adjacency_matrix(fig6))
        assert spectral_excess_rhs(s) == pytest.approx(1.0, rel=1e-9)
        assert average_last_shell(distance_table(fig6)) == 1

    def test_rhs_equals_last_predistance_value(self, corpus):
        """The spectrum-only expression coincides with the top predistance
        polynomial evaluated at the Perron value."""
        from drdkit.digraph import regularity

        for name, g in corpus:
            if g.n == 1 or regularity(g) is None:
                continue
            a = adjacency_matrix(g)
            if not is_normal(a):
                continue
            s = spectrum(a)
            ps = predistance_polynomials(s)
            rhs = spectral_excess_rhs(s)
            pd_val = poly_eval(ps.polys[-1], perron(s)).real
            assert rhs == pytest.approx(pd_val, rel=1e-8), name


class TestAverageLastShell:
    def test_cycle(self):
        assert average_last_shell(distance_table(cycle(8))) == 1

    def test_chorded_cycle_rational(self):
        g = cycle_with_chord(4)
        t = distance_table(g)
        # Distances to the far side shrink for vertex 0; count by hand:
        # shells at distance D=3: only some vertices have one.
        total = sum(1 for row in t.array.tolist() for d in row if d == t.diameter)
        assert average_last_shell(t) == Fraction(total, 4)
