from fractions import Fraction
from itertools import islice, product
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from drdkit.corpus import cycle, cycle_with_chord, kautz, paley, paper6
import drdkit.ratlin as ratlin
from drdkit.digraph import MAX_VERTICES, Digraph, distance_table, strongly_connected
from drdkit.errors import (
    DimensionMismatch,
    InternalInconsistency,
    InvalidPartition,
    PreconditionViolated,
)
from drdkit.ratlin import (
    FLOAT64_EXACT,
    FLOAT64_MIN_INNER,
    INT64_LIMIT,
    IntMatrix,
    PartitionBasis,
    RatPolynomial,
    SpanBasis,
    adjacency_matrix,
    eval_poly_at_matrix,
    mat_mul,
    minimal_polynomial,
    minimal_polynomial_degree,
)
from drdkit.scheme import distance_matrices, distance_polynomials, pair_intersection_counts

import oracles
from oracles import (
    divide_linear,
    from_rows,
    hoffman_polynomial,
    mat_mul_reference,
    minimal_polynomial_coeffs,
    minimal_polynomial_mod,
    ones,
)

ZERO = RatPolynomial.from_coeffs([])


class TestMatrixArithmetic:
    def test_c3_square_is_other_rotation(self):
        a = adjacency_matrix(cycle(3))
        sq = mat_mul(a, a)
        assert sq == IntMatrix(np.ascontiguousarray(a.num.T))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(IntMatrix.identity(2), IntMatrix.identity(3))


def _rational(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def _rank(family):
    """Rank over Q of the row-major vectorized matrices, by sympy."""
    return sympy.Matrix([[_rational(x) for row in m for x in row] for m in family]).rank()


def _combination(coords, family):
    """sum(c_i * family_i) of nested lists, in Python arithmetic."""
    rows, cols = len(family[0]), len(family[0][0])
    return [
        [sum(c * m[x][y] for c, m in zip(coords, family)) for y in range(cols)]
        for x in range(rows)
    ]


@st.composite
def _families_with_targets(draw):
    """A family of small integer matrices that includes dependent members
    (repeats and scalar multiples, zero among them), and a target that is
    either an integer combination of the family or an arbitrary matrix."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.integers(-4, 4)
    matrix = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    family = draw(st.lists(matrix, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        source = draw(st.sampled_from(family))
        c = draw(st.sampled_from([1, -1, 2, 0, -3]))
        family.insert(draw(st.integers(0, len(family))), [[c * x for x in r] for r in source])
    if draw(st.booleans()):
        coeffs = draw(st.lists(entry, min_size=len(family), max_size=len(family)))
        target = _combination(coeffs, family)
    else:
        target = draw(matrix)
    return family, target


class TestSpanSolve:
    @settings(max_examples=100, deadline=None)
    @given(_families_with_targets())
    def test_solve_rebuilds_the_target_or_sympy_rank_grows(self, case):
        family, target = case
        coords = SpanBasis([from_rows(m) for m in family]).solve(from_rows(target))
        assert (coords is None) == (_rank(family + [target]) > _rank(family))
        if coords is not None:
            assert len(coords) == len(family)
            assert _combination(coords, family) == target

    def test_unit_vector_on_independent_basis(self):
        mats = oracles.distance_stack(distance_table(paper6()))
        coeffs = SpanBasis(mats).solve(mats[2])
        assert coeffs == (0, 0, 1, 0)

    def test_all_ones_in_distance_span(self):
        # The distance classes partition X x X, so J has all-ones coordinates.
        for g in (cycle(5), paper6(), cycle_with_chord(6)):
            mats = oracles.distance_stack(distance_table(g))
            coeffs = SpanBasis(mats).solve(ones(g.n))
            assert coeffs == (1,) * len(mats)

    def test_c3_square_outside_span_of_i_a(self):
        a = adjacency_matrix(cycle(3))
        assert SpanBasis([IntMatrix.identity(3), a]).solve(mat_mul(a, a)) is None

    def test_round_trip_reconstruction(self):
        g = cycle_with_chord(5)
        mats = oracles.distance_stack(distance_table(g))
        target = ones(g.n)
        coeffs = SpanBasis(mats).solve(target)
        acc = IntMatrix.zeros(g.n, g.n)
        for c, m in zip(coeffs, mats):
            acc = acc.add(m.scale(c))
        assert acc == target

    def test_rational_coefficients(self):
        basis = [from_rows([[2, 0], [0, 0]]), from_rows([[0, 3], [0, 0]])]
        target = from_rows([[1, 1], [0, 0]])
        assert SpanBasis(basis).solve(target) == (Fraction(1, 2), Fraction(1, 3))


@st.composite
def _wide_families_with_targets(draw):
    """A family of up to 4 integer matrices with entries within 8 of
    +-2**40 or small, possibly with dependent members, and a target that is
    an integer combination of the family or arbitrary."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    near = st.integers(2**40 - 8, 2**40 + 8)
    entry = st.one_of(st.integers(-3, 3), near, near.map(lambda x: -x))
    matrix = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    family = draw(st.lists(matrix, min_size=1, max_size=4))
    if draw(st.booleans()):
        family.append([[x - y for x, y in zip(r0, r1)] for r0, r1 in zip(family[0], family[-1])])
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(family), max_size=len(family)))
        target = _combination(coeffs, family)
    else:
        target = draw(matrix)
    return family, target


def _all_ints(basis: SpanBasis) -> bool:
    return all(
        type(x) is int for _, vec, combo in basis._rows for x in (*vec, *combo)
    )


class TestFractionFreeElimination:
    @settings(max_examples=80, deadline=None)
    @given(_families_with_targets())
    def test_rows_hold_only_ints(self, case):
        family, _ = case
        assert _all_ints(SpanBasis([from_rows(m) for m in family]))

    def test_fraction_family_rows_hold_only_ints(self):
        # An integer family whose solve has a Fraction coordinate: target =
        # (2/9) M_0 - 3 M_2, integral because 9 divides every entry of M_0.
        family = [[[9, 18], [0, 45]], [[-7, 4], [2, 0]], [[3, 0], [0, 9]]]
        basis = SpanBasis([from_rows(m) for m in family])
        assert len(basis._rows) == 3 and _all_ints(basis)
        target = _combination([Fraction(2, 9), 0, -3], family)
        assert target == [[-7, 4], [0, -17]]
        assert basis.solve(from_rows(target)) == (Fraction(2, 9), 0, -3)

    @settings(max_examples=100, deadline=None)
    @given(_wide_families_with_targets())
    def test_wide_entries_match_sympy_rank_and_coordinates(self, case):
        family, target = case
        basis = SpanBasis([from_rows(m) for m in family])
        assert len(basis._rows) == _rank(family) and _all_ints(basis)
        coords = basis.solve(from_rows(target))
        assert (coords is None) == (_rank(family + [target]) > _rank(family))
        if coords is not None and _rank(family) == len(family):
            # Independent family: the coordinates are unique.
            a = sympy.Matrix([[_rational(x) for row in m for x in row] for m in family]).T
            b = sympy.Matrix([_rational(x) for row in target for x in row])
            expected = (a.T * a).inv() * a.T * b
            assert [_rational(c) for c in coords] == list(expected)

    def test_reduce_creates_no_fraction(self, monkeypatch):
        family = [
            from_rows([[1, 2], [3, 4]]),
            from_rows([[2, 0], [12, -15]]),
            from_rows([[0, 7], [1, 1]]),
        ]

        def refuse(*args):
            raise AssertionError("Fraction created during elimination")

        monkeypatch.setattr(ratlin, "Fraction", refuse)
        basis = SpanBasis(family)
        vec, combo = [3, 9, 16, -10], [0, 0, 0, 1]  # M_0 + M_1 + M_2
        basis._reduce(vec, combo)
        assert not any(vec) and all(type(x) is int for x in combo)
        assert [Fraction(-c, combo[-1]) for c in combo[:-1]] == [1, 1, 1]


class TestIntegralEvaluation:
    def test_hoffman_polynomial_value_keeps_the_int64_form(self):
        g = paper6()
        h = hoffman_polynomial(g).poly
        assert any(isinstance(c, Fraction) for c in h.coeffs)
        value = eval_poly_at_matrix(h, adjacency_matrix(g))
        assert value.num.dtype == np.int64 and value == ones(6)

    def test_distance_polynomial_value_keeps_the_int64_form(self):
        g = paley(19)
        t = distance_table(g)
        a = adjacency_matrix(g)
        p2 = distance_polynomials(distance_matrices(g, t), a, pair_intersection_counts(t))[2]
        assert any(isinstance(c, Fraction) for c in p2.coeffs)
        value = eval_poly_at_matrix(p2, a)
        assert value.num.dtype == np.int64 and value == oracles.distance_stack(t)[2]

    def test_non_integral_value_stays_exact(self):
        # 1/3 + t/2 at the 3-cycle has entries 1/3 and 1/2: no integer matrix.
        a = adjacency_matrix(cycle(3))
        with pytest.raises(PreconditionViolated):
            eval_poly_at_matrix(RatPolynomial.from_coeffs([Fraction(1, 3), Fraction(1, 2)]), a)
        # (t^3 - 1) / 2 vanishes there, so its value is an integer matrix.
        half = Fraction(1, 2)
        value = eval_poly_at_matrix(RatPolynomial.from_coeffs([-half, 0, 0, half]), a)
        assert value.num.dtype == np.int64 and value == IntMatrix.zeros(3, 3)


class TestMinimalPolynomial:
    def test_identity(self):
        assert minimal_polynomial(IntMatrix.identity(4)) == RatPolynomial.from_coeffs([-1, 1])

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cycles_have_t_n_minus_1(self, n):
        mu = minimal_polynomial(adjacency_matrix(cycle(n)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert mu == RatPolynomial.from_coeffs(expected)

    @pytest.mark.parametrize(
        "arcs,n",
        [
            ([(0, 1), (1, 2), (2, 0), (0, 2)], 3),
            ([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4),
            ([(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)], 3),
            ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)], 5),
        ],
    )
    def test_against_divisor_oracle(self, arcs, n):
        g = Digraph.from_arcs(n, arcs)
        mu = minimal_polynomial(adjacency_matrix(g))
        assert mu.coeffs == minimal_polynomial_coeffs(g.matrix.astype(int).tolist())

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1))) - 1))
        )
    )
    def test_random_digraphs_against_divisor_oracle(self, case):
        n, bits = case
        positions = [(u, v) for u in range(n) for v in range(n) if u != v]
        g = Digraph.from_arcs(n, [p for i, p in enumerate(positions) if bits >> i & 1])
        mu = minimal_polynomial(adjacency_matrix(g))
        assert mu.coeffs == minimal_polynomial_coeffs(g.matrix.astype(int).tolist())

    def test_annihilates(self):
        g = cycle_with_chord(5)
        a = adjacency_matrix(g)
        assert eval_poly_at_matrix(minimal_polynomial(a), a) == IntMatrix.zeros(5, 5)


@st.composite
def _integer_matrices(draw):
    """Integer matrices with n <= 6: entries small or within 8 of +-2**40,
    and for half of them a block diagonal of one block repeated, so that the
    minimal polynomial is shorter than the characteristic polynomial."""
    n = draw(st.integers(1, 6))
    near = st.integers(2**40 - 8, 2**40 + 8)
    entry = st.one_of(st.integers(-3, 3), near, near.map(lambda x: -x))
    if n % 2 == 0 and draw(st.booleans()):
        k = n // 2
        block = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
        return [row + [0] * k for row in block] + [[0] * k + row for row in block]
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


class TestModularMinimalPolynomial:
    @pytest.mark.parametrize("n", [1, MAX_VERTICES])
    def test_prime_cap_is_the_largest_without_overflow(self, n):
        cap = ratlin._prime_cap(n)
        assert n * (cap - 1) ** 2 < 2**53 <= n * cap**2
        first = next(ratlin._primes(n))
        assert sympy.isprime(first)
        assert not any(sympy.isprime(m) for m in range(first + 1, cap + 1))

    def test_primality_test_matches_sympy(self):
        cap = ratlin._prime_cap(1)
        for m in list(range(5000)) + list(range(cap - 3000, cap + 1)):
            assert ratlin._is_prime(m) == sympy.isprime(m), m

    @pytest.mark.parametrize("unlucky", [1, 2])
    def test_unlucky_primes_are_discarded(self, unlucky, monkeypatch):
        # mod each of the first `unlucky` primes diag(0, m) is 0, of degree 1
        m = 1
        for p in islice(ratlin._primes(2), unlucky):
            m *= p
        degrees = []
        real = ratlin._krylov_polynomial

        def recorded(a, v, p):
            mu = real(a, v, p)
            degrees.append(len(mu) - 1)
            return mu

        monkeypatch.setattr(ratlin, "_krylov_polynomial", recorded)
        for a in (
            IntMatrix(np.array([[0, 0], [0, m]], dtype=np.int64)),
            from_rows([[0, 0], [0, m]]),
        ):
            degrees.clear()
            assert minimal_polynomial(a) == RatPolynomial.from_coeffs([0, -m, 1])
            assert degrees[: unlucky + 1] == [1] * unlucky + [2]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficient_at_its_lift_bound(self, sign):
        # [[m]] has mu = t - m and rho = |m|, so |c_0| equals its bound: a
        # lift modulo one prime between |m| and 2|m| would be wrong.
        m = sign * (next(ratlin._primes(1)) - 1)
        a = IntMatrix(np.array([[m]], dtype=np.int64))
        assert minimal_polynomial(a) == RatPolynomial.from_coeffs([-m, 1])

    def test_failed_certificate_raises_the_degree(self, monkeypatch):
        # The first prime is made to report t for diag(0, 1), as an unlucky
        # prime would; its lift t fails the certificate, since A != 0.
        real_mod, real_vanishes = ratlin._krylov_polynomial, ratlin._vanishes
        calls, verdicts = [], []

        def unlucky_first(a, v, p):
            calls.append(p)
            return [0, 1] if len(calls) == 1 else real_mod(a, v, p)

        def recorded(*args):
            verdicts.append(real_vanishes(*args))
            return verdicts[-1]

        monkeypatch.setattr(ratlin, "_krylov_polynomial", unlucky_first)
        monkeypatch.setattr(ratlin, "_vanishes", recorded)
        a = IntMatrix(np.array([[0, 0], [0, 1]], dtype=np.int64))
        assert minimal_polynomial(a) == RatPolynomial.from_coeffs([0, -1, 1])
        assert verdicts == [False, True]

    def test_failed_certificate_at_degree_n_raises(self, monkeypatch):
        # Primes of degree n are lucky (Cayley-Hamilton), so a refused
        # certificate there is final: only a fault can cause it.
        monkeypatch.setattr(ratlin, "_vanishes", lambda *args: False)
        with pytest.raises(InternalInconsistency, match="certificate failed at degree n"):
            minimal_polynomial(adjacency_matrix(cycle_with_chord(4)))

    def test_unlucky_vector_takes_the_lcm(self, monkeypatch):
        # A fixes the all-ones vector of cycle(5), whose polynomial t - 1
        # fails the certificate; the lcm over the unit vectors gives t^5 - 1.
        real_vanishes = ratlin._vanishes
        verdicts = []

        def recorded(*args):
            verdicts.append(real_vanishes(*args))
            return verdicts[-1]

        monkeypatch.setattr(ratlin, "_krylov_vector", lambda n: np.ones(n, dtype=np.int64))
        monkeypatch.setattr(ratlin, "_vanishes", recorded)
        mu = minimal_polynomial(adjacency_matrix(cycle(5)))
        assert mu == RatPolynomial.from_coeffs([-1, 0, 0, 0, 0, 1])
        assert verdicts == [False, True]

    def test_the_start_vector_is_fixed_per_n(self):
        v = ratlin._krylov_vector(40)
        assert v.shape == (40,) and v.min() >= 0 and v.max() < 2**20
        assert not v.flags.writeable
        ratlin._krylov_vector.cache_clear()
        assert np.array_equal(ratlin._krylov_vector(40), v)
        assert ratlin._krylov_vector(2).tolist() == [1002474, 905035]  # the same in every run

    @settings(max_examples=60, deadline=None)
    @given(_integer_matrices(), st.sampled_from([2, 3, 5, 7, None]))
    def test_lcm_is_the_minimal_polynomial_mod_p(self, rows, p):
        # Small primes make unlucky reductions and proper divisors common.
        a = np.array(rows, dtype=object)
        n = len(rows)
        p = p or next(ratlin._primes(n))
        a_p = (a % p).astype(np.int64)
        v_p = ratlin._krylov_vector(n) % p
        expected = minimal_polynomial_mod(a_p, p)
        assert ratlin._annihilator_mod(a_p, v_p, p) == expected
        # The vector's own polynomial divides it.
        t = sympy.Symbol("t")
        mu, mu_v = (
            sympy.Poly(list(reversed(c)), t, modulus=p)
            for c in (expected, ratlin._krylov_polynomial(a_p, v_p, p))
        )
        assert mu.rem(mu_v).is_zero

    @settings(max_examples=40, deadline=None)
    @given(_integer_matrices())
    def test_integer_matrices_against_divisor_oracle(self, rows):
        expected = minimal_polynomial_coeffs(rows)
        for a in (IntMatrix(np.array(rows, dtype=np.int64)), from_rows(rows)):
            assert minimal_polynomial(a).coeffs == expected


@st.composite
def _strongly_connected_digraphs(draw):
    """Digraphs with n <= 9: a drawn arc set, closed by the cycle
    0 -> 1 -> ... -> n - 1 -> 0 when it is not strongly connected."""
    n = draw(st.integers(1, 9))
    positions = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(positions), max_size=len(positions)))
    arcs = [pos for pos, kept in zip(positions, keep) if kept]
    g = Digraph.from_arcs(n, arcs)
    if strongly_connected(g):
        return g
    ring = {(u, (u + 1) % n) for u in range(n) if n > 1}
    return Digraph.from_arcs(n, sorted(set(arcs) | ring))


class TestMinimalPolynomialDegree:
    @settings(max_examples=80, deadline=None)
    @given(_strongly_connected_digraphs())
    def test_equals_the_degree_of_the_lift(self, g):
        a = adjacency_matrix(g)
        assert minimal_polynomial_degree(a) == minimal_polynomial(a).degree

    def test_unlucky_first_prime_falls_back_to_the_lift(self, monkeypatch):
        # diag(0, p) is 0 mod p, of Krylov degree 1, but its μ is t^2 - p t.
        # The lift starts from that prime's polynomial t instead of
        # recomputing it.
        p = next(ratlin._primes(2))
        firsts = []
        real = ratlin._integer_minimal_polynomial
        monkeypatch.setattr(
            ratlin, "_integer_minimal_polynomial", lambda *a: firsts.append(a[2]) or real(*a)
        )
        assert minimal_polynomial_degree(IntMatrix(np.array([[0, 0], [0, p]]))) == 2
        assert firsts == [[0, 1]]

    @pytest.mark.parametrize(
        "g", [paper6(), paley(19), paley(43), kautz(2, 3)], ids=lambda g: f"n{g.n}"
    )
    def test_one_krylov_polynomial_below_degree_n(self, g, monkeypatch):
        # deg μ < n on each, and one prime lifts μ: the lift reuses the
        # first prime's polynomial, so the degree costs what μ alone costs.
        primes = []
        real = ratlin._krylov_polynomial
        monkeypatch.setattr(
            ratlin, "_krylov_polynomial", lambda *a: primes.append(a[2]) or real(*a)
        )
        a = adjacency_matrix(g)
        assert minimal_polynomial_degree(a) < g.n
        assert len(primes) == 1
        assert minimal_polynomial(a).degree < g.n and len(primes) == 2

    def test_degree_n_needs_no_lift(self, monkeypatch):
        # Past int64 too: the entries are reduced mod p before the Krylov steps.
        def refuse(*args):
            raise AssertionError("the lift ran")

        for name in ("minimal_polynomial", "_integer_minimal_polynomial", "_vanishes"):
            monkeypatch.setattr(ratlin, name, refuse)
        assert minimal_polynomial_degree(adjacency_matrix(cycle(7))) == 7
        assert minimal_polynomial_degree(from_rows([[0, 2**70], [1, 0]])) == 2

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            minimal_polynomial_degree(IntMatrix.zeros(2, 3))


class TestEvalPolyAtMatrix:
    def test_identity_poly(self):
        a = adjacency_matrix(cycle(4))
        assert eval_poly_at_matrix(RatPolynomial.t(), a) == a

    def test_hoffman_identity_c3(self):
        a = adjacency_matrix(cycle(3))
        p = RatPolynomial.from_coeffs([1, 1, 1])
        assert eval_poly_at_matrix(p, a) == ones(3)

    def test_zero_poly(self):
        a = adjacency_matrix(cycle(3))
        assert eval_poly_at_matrix(ZERO, a) == IntMatrix.zeros(3, 3)


class TestHoffman:
    def test_failed_identity_is_an_internal_inconsistency(self, monkeypatch):
        monkeypatch.setattr(oracles, "eval_poly_at_matrix", lambda p, a: IntMatrix.zeros(3, 3))
        with pytest.raises(InternalInconsistency, match=r"h\(A\) != J"):
            hoffman_polynomial(cycle(3))

    def test_c3(self):
        res = hoffman_polynomial(cycle(3))
        assert res.exists
        assert res.poly == RatPolynomial.from_coeffs([1, 1, 1])

    def test_paper6_identity_holds(self):
        res = hoffman_polynomial(paper6())
        assert res.exists
        a = adjacency_matrix(paper6())
        assert eval_poly_at_matrix(res.poly, a) == ones(6)

    def test_not_regular(self):
        res = hoffman_polynomial(cycle_with_chord(4))
        assert not res.exists
        assert res.reason == "not-regular"

    def test_not_strongly_connected(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        res = hoffman_polynomial(g)
        assert not res.exists
        assert res.reason == "not-strongly-connected"


class TestRatPolynomial:
    def test_trimming_and_degree(self):
        p = RatPolynomial.from_coeffs([1, 2, 0, 0])
        assert p.degree == 1
        assert ZERO.degree == -1

    def test_divide_linear(self):
        # t^3 - 1 = (t - 1)(t^2 + t + 1)
        p = RatPolynomial.from_coeffs([-1, 0, 0, 1])
        assert divide_linear(p, 1) == RatPolynomial.from_coeffs([1, 1, 1])
        with pytest.raises(ValueError):
            divide_linear(p, 2)

    def test_str(self):
        assert str(RatPolynomial.from_coeffs([1, 1, 1])) == "t^2 + t + 1"
        assert str(RatPolynomial.from_coeffs([-1, 0, 0, 1])) == "t^3 - 1"
        assert str(ZERO) == "0"

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-5, 5), max_size=5),
        st.lists(st.integers(-5, 5), max_size=5),
        st.integers(-3, 3),
    )
    def test_ring_ops_agree_with_pointwise(self, cs, ds, x):
        p = RatPolynomial.from_coeffs(cs)
        q = RatPolynomial.from_coeffs(ds)
        assert p.add(q)(x) == p(x) + q(x)
        assert p.sub(q)(x) == p(x) - q(x)
        assert p.times_t()(x) == x * p(x)


@st.composite
def _int_matrix_pairs(draw):
    """Two n x n integer matrices, n <= 8, with entries up to 2**bits in size:
    small, near the int64 bound at n = 8 (2**29), and past it (2**40)."""
    n = draw(st.integers(1, 8))
    bits = draw(st.sampled_from([3, 29, 30, 40, 62]))
    entry = st.integers(-(2**bits), 2**bits)
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(square), draw(square)


@st.composite
def _pairs_near_float64_bound(draw):
    """Two n x n int64 matrices, n <= 4 or n next to FLOAT64_MIN_INNER, whose
    bound (max row sum of |a|) * max |b| lies within about 100 of 2**53, on
    either side: small-entry matrices with one of them scaled up."""
    n = draw(st.integers(1, 4) | st.integers(FLOAT64_MIN_INNER - 1, FLOAT64_MIN_INNER + 1))
    entry = st.integers(-3, 3)
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    a, b = draw(square), draw(square)
    row_bound = max(sum(abs(x) for x in r) for r in a)
    top = max(abs(x) for r in b for x in r)
    if not row_bound * top:
        return a, b
    s = (FLOAT64_EXACT + draw(st.integers(-100, 100))) // (row_bound * top)
    if draw(st.booleans()):
        return [[x * s for x in r] for r in a], b
    return a, [[x * s for x in r] for r in b]


class TestInt64Kernel:
    @settings(max_examples=100, deadline=None)
    @given(_pairs_near_float64_bound())
    def test_float64_tier_equals_python_product(self, pair):
        a, b = pair
        ma = IntMatrix(np.array(a, dtype=np.int64))
        mb = IntMatrix(np.array(b, dtype=np.int64))
        tiers = []
        real = ratlin._product_tier

        def recorded(x, y):
            tiers.append(real(x, y))
            return tiers[-1]

        with mock.patch.object(ratlin, "_product_tier", recorded):
            got = mat_mul(ma, mb)
        assert got.entries == mat_mul_reference(a, b)
        row_bound = max(sum(abs(x) for x in r) for r in a)
        top = max(abs(x) for r in b for x in r)
        # float64 exactly below 2**53 at inner dimensions from
        # FLOAT64_MIN_INNER on; int64 otherwise, up to 2**63.
        wide = len(a) >= FLOAT64_MIN_INNER
        expected = np.float64 if wide and row_bound * top < FLOAT64_EXACT else np.int64
        assert tiers == [expected]

    @settings(max_examples=150, deadline=None)
    @given(_int_matrix_pairs())
    def test_kernel_equals_python_product(self, pair):
        a, b = pair
        ma = IntMatrix(np.array(a, dtype=np.int64))
        mb = IntMatrix(np.array(b, dtype=np.int64))
        raw = []
        init = IntMatrix.__init__

        def recorded(matrix, num):
            raw.append(num.dtype)
            init(matrix, num)

        with mock.patch.object(IntMatrix, "__init__", recorded):
            got = mat_mul(ma, mb)
        expected = mat_mul_reference(a, b)
        assert got.entries == expected
        row_bound = max(sum(abs(x) for x in r) for r in a)
        top = max(abs(x) for r in b for x in r)
        # The int64 route is taken exactly when the proved bound holds; the
        # product is then stored as int64 exactly when every entry fits.
        assert (raw == [np.int64]) == (row_bound * top < INT64_LIMIT)
        fits = all(abs(x) < INT64_LIMIT for r in expected for x in r)
        assert (got.num.dtype == np.int64) == fits

    def test_bound_edges(self):
        # 2**63 - 1 = 7 * 1317624576693539401: the largest product that fits.
        big = (INT64_LIMIT - 1) // 7
        under = mat_mul(
            IntMatrix(np.array([[7]], dtype=np.int64)),
            IntMatrix(np.array([[big]], dtype=np.int64)),
        )
        assert under.num.dtype == np.int64 and under.entries == ((INT64_LIMIT - 1,),)
        over = mat_mul(
            IntMatrix(np.array([[8]], dtype=np.int64)),
            IntMatrix(np.array([[big]], dtype=np.int64)),
        )
        assert over.num.dtype == object and over.entries == ((8 * big,),)
        # Entries that fit but whose sum would wrap around in int64.
        half = IntMatrix(np.full((2, 2), 2**62, dtype=np.int64))
        assert mat_mul(half, ones(2)).entries == ((2**63, 2**63), (2**63, 2**63))
        assert half.add(half).entries == ((2**63, 2**63), (2**63, 2**63))
        assert IntMatrix.zeros(2, 2).scale(2**70) == IntMatrix.zeros(2, 2)
        # I * M with one nonzero entry of M: 2**53 - 1 is below the float64
        # bound; 2**53 + 1 has no float64 form, so its product must not take
        # the float64 tier. Below FLOAT64_MIN_INNER neither does.
        for n in (1, FLOAT64_MIN_INNER - 1, FLOAT64_MIN_INNER):
            for value, tier in ((FLOAT64_EXACT - 1, np.float64), (FLOAT64_EXACT + 1, np.int64)):
                num = np.zeros((n, n), dtype=np.int64)
                num[-1, 0] = value
                m = IntMatrix(num)
                assert ratlin._product_tier(IntMatrix.identity(n), m) is (
                    tier if n >= FLOAT64_MIN_INNER else np.int64
                )
                product = mat_mul(IntMatrix.identity(n), m)
                assert product.num.dtype == np.int64 and product == m

    def test_powers_keep_the_int64_form(self):
        a = adjacency_matrix(paper6())
        power = IntMatrix.identity(6)
        for _ in range(10):
            power = mat_mul(power, a)
        assert power.num.dtype == np.int64
        assert sum(power.entries[0]) == 2**10


@st.composite
def _integer_programs(draw):
    """The matrices of a random program of from_rows, scale, add and
    mat_mul on n x n matrices, each with its reference rows. Entries
    are small or near +-2**62, and factors include +-2**70, so products and
    sums cross the int64 range both ways."""
    n = draw(st.integers(1, 3))
    near = st.integers(2**62 - 4, 2**62 + 4)
    small = st.integers(-3, 3)
    entry = st.one_of(small, near, near.map(lambda x: -x))
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    factor = st.one_of(small, st.sampled_from([2**70, -(2**70)]))
    pool = [(from_rows(r), r) for r in draw(st.lists(rows, min_size=1, max_size=3))]
    for _ in range(draw(st.integers(0, 8))):
        op = draw(st.sampled_from(["scale", "add", "mul"]))
        (m, ref), (m2, ref2) = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if op == "scale":
            c = draw(factor)
            pool.append((m.scale(c), [[c * x for x in row] for row in ref]))
        elif op == "add":
            pool.append((m.add(m2), [[x + y for x, y in zip(*r)] for r in zip(ref, ref2)]))
        else:
            pool.append((mat_mul(m, m2), [list(r) for r in mat_mul_reference(ref, ref2)]))
    return pool


class TestCanonicalForm:
    @settings(max_examples=150, deadline=None)
    @given(_integer_programs())
    def test_lowest_terms_and_dtype_rule(self, pool):
        for m, ref in pool:
            assert m.entries == tuple(map(tuple, ref))
            assert all(type(x) is int for row in m.entries for x in row)
            fits = all(abs(x) < INT64_LIMIT for row in ref for x in row)
            assert m.num.dtype == (np.int64 if fits else object)
        for (m, ref), (m2, ref2) in product(pool, repeat=2):
            assert (m == m2) == (ref == ref2)


@st.composite
def _partitions_with_targets(draw):
    """A random partition of the n x n positions into s nonempty classes, an
    in-span target with small or wide integer coordinates, and the same
    target with one entry changed."""
    n = draw(st.integers(1, 5))
    s = draw(st.integers(1, min(4, n * n)))
    labels = draw(st.lists(st.integers(0, s - 1), min_size=n * n, max_size=n * n))
    labels[:s] = draw(st.permutations(range(s)))  # every class is realized
    index = np.array(labels, dtype=np.int64).reshape(n, n)
    coeff = st.integers(-50, 50) | st.integers(2**63 - 3, 2**63 + 3)
    coords = draw(st.lists(coeff, min_size=s, max_size=s))
    bump = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(1, 3)))
    return index, coords, bump


class TestPartitionBasis:
    @settings(max_examples=150, deadline=None)
    @given(_partitions_with_targets())
    def test_constancy_matches_elimination(self, case):
        index, coords, (bx, by, delta) = case
        n, s = index.shape[0], len(coords)
        fast = PartitionBasis(index, s)
        slow = SpanBasis([IntMatrix((index == i).astype(np.int64)) for i in range(s)])
        rows = [[coords[index[x, y]] for y in range(n)] for x in range(n)]
        target = from_rows(rows)
        rows[bx][by] += delta
        bumped = from_rows(rows)
        for t in (target, bumped):
            expected = slow.solve(t)
            assert fast.solve(t) == expected
        assert fast.solve(target) == tuple(coords)

    def test_rejects_non_partitions(self):
        with pytest.raises(InvalidPartition):
            PartitionBasis(np.array([[0, 2]], dtype=np.int64), 3)  # class 1 is empty

    def test_products_and_partition_solves_build_no_fraction(self, monkeypatch):
        g = paper6()
        basis = distance_matrices(g, distance_table(g))
        mats = [basis.member(i) for i in range(basis.size)]

        def refuse(*args):
            raise AssertionError("Fraction built by an integer matrix routine")

        monkeypatch.setattr(ratlin, "Fraction", refuse)
        for left in mats:
            for right in mats:
                right_t = IntMatrix(np.ascontiguousarray(right.num.T))
                coords = basis.solve(mat_mul(left, right_t).add(left.scale(-3)))
                assert coords is not None and all(type(c) is int for c in coords)
        wide = mat_mul(from_rows([[2**40, 1], [0, 1]]), from_rows([[2**40, 0], [1, 1]]))
        assert wide.num.dtype == object and wide.entries == ((2**80 + 1, 1), (1, 1))


class TestExactHorner:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.integers(-9, 9) | st.fractions(min_value=-9, max_value=9, max_denominator=12),
            max_size=6,
        ),
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
            )
        ),
    )
    def test_integer_horner_equals_fraction_evaluation(self, coeffs, rows):
        n = len(rows)
        expected = [[Fraction(0)] * n for _ in range(n)]
        power = [[Fraction(int(x == y)) for y in range(n)] for x in range(n)]
        for c in coeffs:
            for x in range(n):
                for y in range(n):
                    expected[x][y] += c * power[x][y]
            power = mat_mul_reference(power, rows)
        a = IntMatrix(np.array(rows, dtype=np.int64))
        p = RatPolynomial.from_coeffs(coeffs)
        if all(x.denominator == 1 for row in expected for x in row):
            assert eval_poly_at_matrix(p, a) == from_rows([[int(x) for x in r] for r in expected])
        else:
            with pytest.raises(PreconditionViolated):
                eval_poly_at_matrix(p, a)
