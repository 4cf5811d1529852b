"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS line with its headline numbers when it succeeds.

Tolerances are pinned here and nowhere else: combinatorial checks are exact,
spectral equalities run at 1e-6 relative, the excess inequality allows 1e-9
absolute slack, and the dual inner-product oracle must agree to 1e-9
relative.
"""
import random
import time

import numpy as np
import pytest

from drdkit.characterize import CHECK_IDS, check_all
from drdkit.corpus import (
    all_strongly_connected_digraphs,
    cycle,
    paley,
    paper6,
    random_sc,
)
from drdkit.digraph import distance_table, regularity
from drdkit.partitions import distance_regular_scan
from drdkit.ratlin import SpanBasis, adjacency_matrix, eval_poly_at_matrix, mat_mul
from drdkit.scheme import (
    distance_matrices,
    distance_polynomials,
    pair_intersection_counts,
    transpose_closure,
)
from drdkit.spectral import average_last_shell, is_normal, spectral_excess_rhs, spectrum

from oracles import (
    comellas_damerell_link,
    distance_stack,
    hoffman_polynomial,
    intersection_numbers,
    ones,
    perron,
    poly_eval,
    poly_inner_product,
    poly_inner_product_trace,
    predistance_polynomials,
    weak_dr_comellas,
)


def _report(line: str) -> None:
    print(f"\nACCEPTANCE {line}", flush=True)


def test_criterion_1_master_equivalence():
    """All 14 verdicts agree on every strongly connected digraph with at most
    4 vertices and on 500 seeded random ones with 5 to 8 vertices."""
    start = time.perf_counter()
    graphs = 0
    for n in range(1, 5):
        for g in all_strongly_connected_digraphs(n):
            rep = check_all(g)
            assert rep.agreement, f"disagreement on n={n} arcs={g.arcs()}"
            assert len(rep.verdicts) == len(CHECK_IDS)
            graphs += 1
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(5, 8)
        p = rng.uniform(0.2, 0.7)
        g = random_sc(n, p, seed=rng.randrange(1 << 30))
        rep = check_all(g)
        assert rep.agreement, f"disagreement on arcs={g.arcs()}"
        graphs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"master equivalence sweep took {elapsed:.1f}s"
    _report(f"1 PASS: {graphs} digraphs, all verdicts agree ({elapsed:.1f}s)")


def test_criterion_2_known_positive_example():
    """The 6-vertex valency-2 example: every characterization yes, shells
    (1,2,2,1) around every vertex, girth 3, transpose map (0)(1 2)(3), and
    exactly 4 distinct eigenvalues."""
    start = time.perf_counter()
    g = paper6()
    rep = check_all(g)
    assert all(v.verdict == "yes" for v in rep.verdicts)
    assert rep.agreement
    t = distance_table(g)
    for x in range(6):
        assert np.bincount(t.array[x]).tolist() == [1, 2, 2, 1]
    assert t.girth == 3
    tm = transpose_closure(distance_matrices(g, t))
    assert tm.sigma == (0, 2, 1, 3)
    s = spectrum(adjacency_matrix(g))
    assert len(s.eigs) == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"2 PASS: 14/14 yes, shells (1,2,2,1), girth 3, 4 eigenvalues ({elapsed*1000:.0f}ms)")


def test_criterion_3_directed_cycles():
    """Directed cycles up to 12 vertices: yes everywhere, monomial distance
    polynomials, cyclic intersection tensor, excess sides equal to 1."""
    start = time.perf_counter()
    for n in range(3, 13):
        g = cycle(n)
        rep = check_all(g)
        assert rep.overall == "yes" and rep.agreement, n
        t = distance_table(g)
        basis = distance_matrices(g, t)
        polys = distance_polynomials(basis, adjacency_matrix(g), pair_intersection_counts(t))
        for i, p in enumerate(polys):
            assert p.coeffs == (0,) * i + (1,), (n, i)
        tensor = intersection_numbers(t)
        assert tensor.exists
        for h in range(n):
            for i in range(n):
                for j in range(n):
                    assert tensor.p[h][i][j] == (1 if (i + j) % n == h else 0), n
        lhs = float(average_last_shell(t))
        rhs = spectral_excess_rhs(spectrum(adjacency_matrix(g)))
        assert abs(lhs - 1.0) <= 1e-9 and abs(rhs - 1.0) <= 1e-9, n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(f"3 PASS: cycles 3..12 all yes, excess sides = 1 ({elapsed:.1f}s)")


@pytest.mark.parametrize("q", [7, 11])
def test_criterion_4_paley_tournaments(q):
    """Paley tournaments: verdict yes, diameter 2 = girth - 1, multiplicities
    {1, (q-1)/2, (q-1)/2}, excess equality below 1e-6 relative."""
    g = paley(q)
    rep = check_all(g)
    assert rep.overall == "yes" and rep.agreement
    t = distance_table(g)
    assert t.diameter == 2 and t.girth == 3
    s = spectrum(adjacency_matrix(g))
    assert sorted(m for _, m in s.eigs) == sorted([1, (q - 1) // 2, (q - 1) // 2])
    lhs = float(average_last_shell(t))
    rhs = spectral_excess_rhs(s)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    assert gap < 1e-6
    _report(f"4 PASS: paley({q}) yes, multiplicities (1,{(q-1)//2},{(q-1)//2}), gap {gap:.2e}")


def test_criterion_5_excess_inequality(corpus):
    """On every regular normal member with as many distinct eigenvalues as
    diameter + 1: mean last shell <= p_D(perron) + 1e-9, with equality at
    1e-6 relative exactly on the combinatorially distance-regular ones."""
    checked = equalities = strict = 0
    for name, g in corpus:
        if g.n == 1 or regularity(g) is None:
            continue
        t = distance_table(g)
        if not t.strongly_connected:
            continue
        a = adjacency_matrix(g)
        if not is_normal(a):
            continue
        s = spectrum(a)
        if s.d != t.diameter:
            continue
        checked += 1
        ps = predistance_polynomials(s)
        bound = poly_eval(ps.polys[-1], perron(s)).real
        lhs = float(average_last_shell(t))
        assert lhs <= bound + 1e-9, name
        drd = distance_regular_scan(g, t, "out")[0] is not None
        equal = abs(lhs - bound) <= 1e-6 * max(abs(lhs), abs(bound))
        assert equal == drd, (name, lhs, bound)
        if equal:
            equalities += 1
        else:
            strict += 1
    assert checked >= 15 and equalities >= 10 and strict >= 1
    _report(f"5 PASS: inequality on {checked} graphs ({equalities} tight, {strict} strict)")


def test_criterion_6_strictness_witness_and_link(corpus):
    """At least one corpus member is weakly distance-regular with a
    non-normal adjacency matrix and a negative verdict; the
    normality/forward-count link predicate holds corpus-wide."""
    witnesses = []
    for name, g in corpus:
        if g.n == 1:
            continue
        t = distance_table(g)
        if not t.strongly_connected:
            continue
        assert comellas_damerell_link(g, t), name
        if (
            weak_dr_comellas(g, t)
            and not is_normal(adjacency_matrix(g))
            and distance_regular_scan(g, t, "out")[0] is None
        ):
            witnesses.append(name)
    assert witnesses, "no weak-DR strictness witness in the corpus"
    _report(f"6 PASS: strictness witnesses {witnesses}, link predicate corpus-wide")


def test_criterion_7_hoffman_identity(corpus):
    """h(A) = J bit-exact on every regular strongly connected member; absent
    with a not-regular reason on every non-regular member."""
    regular_count = irregular_count = 0
    for name, g in corpus:
        t = distance_table(g)
        if not t.strongly_connected:
            continue
        res = hoffman_polynomial(g)
        if regularity(g) is None:
            assert not res.exists and res.reason == "not-regular", name
            irregular_count += 1
        else:
            assert res.exists, name
            assert eval_poly_at_matrix(res.poly, adjacency_matrix(g)) == ones(g.n), name
            regular_count += 1
    assert regular_count >= 15 and irregular_count >= 5
    _report(f"7 PASS: Hoffman identity exact on {regular_count} regular members, "
            f"absent on {irregular_count} irregular ones")


def test_criterion_8_intersection_number_bounds(corpus):
    """On every yes-verdict member: p[h][i][j] = 0 above h = i + j, nonzero
    at h = i + j, and the counting and span-solve routes agree bit-exactly."""
    checked = 0
    for name, g in corpus:
        if g.n == 1:
            continue
        t = distance_table(g)
        if not t.strongly_connected or distance_regular_scan(g, t, "out")[0] is None:
            continue
        mats = distance_stack(t)
        tensor = intersection_numbers(t)  # internally cross-checked
        assert tensor.exists, name
        D = t.diameter
        basis = SpanBasis(mats)
        for i in range(D + 1):
            for j in range(D + 1):
                coeffs = basis.solve(mat_mul(mats[i], mats[j]))
                assert coeffs is not None, name
                for h in range(D + 1):
                    assert coeffs[h] == tensor.p[h][i][j], (name, h, i, j)
                    if h > i + j:
                        assert tensor.p[h][i][j] == 0, (name, h, i, j)
                if i + j <= D:
                    assert tensor.p[i + j][i][j] != 0, (name, i, j)
        checked += 1
    assert checked >= 12
    _report(f"8 PASS: intersection bounds and dual-route equality on {checked} graphs")


def test_criterion_9_dual_inner_product(corpus):
    """Trace form vs multiplicity form of the polynomial inner product agree
    within 1e-9 relative on 100 random pairs per member with n <= 12."""
    rng = np.random.default_rng(2024)
    graphs = 0
    worst = 0.0
    for name, g in corpus:
        if g.n > 12 or g.n == 1:
            continue
        a = adjacency_matrix(g)
        if not is_normal(a):
            continue  # the multiplicity form presumes a diagonalizable matrix
        s = spectrum(a)
        d = s.d
        for _ in range(100):
            p = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            q = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            v1 = poly_inner_product(p, q, s)
            v2 = poly_inner_product_trace(p, q, a)
            rel = abs(v1 - v2) / max(abs(v1), abs(v2), 1e-30)
            worst = max(worst, rel)
            assert rel <= 1e-9, (name, rel)
        graphs += 1
    assert graphs >= 12
    _report(f"9 PASS: {graphs} graphs x 100 pairs, worst relative gap {worst:.2e}")
