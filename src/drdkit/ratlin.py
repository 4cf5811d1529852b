"""Exact integer matrices; rational only in solve coordinates and
polynomials. Nothing here ever rounds. That exactness is what lets the
combinatorial characterizations run with zero tolerance: every quantity they
compare is an integer identity.

A matrix is one integer array, int64 when every entry has absolute value
below 2**63 and a ``dtype=object`` array of Python ints otherwise.
`mat_mul` is the exact fallback product: ``@`` runs on int64 when
B = (max row sum of |a|) * max |b|, which caps every partial sum in any
summation order, is below 2**63, else on object arrays, whose Python ints
never overflow. The 01 matrices that the checks build (identity, zero,
adjacency and class matrices) carry their bounds from construction, so only
derived matrices are scanned for them. Each product on the check path (the
walk chain, `scheme.distance_polynomials`, the normality test, the pair
count scans, the proof of μ(A) = 0 below) proves at its call site that
every partial sum is below 2**53, where float64 holds every integer, and
runs on float64 BLAS (the argument of FFLAS-FFPACK, Dumas, Giorgi and
Pernet, ACM TOMS 35(3), 2008).

The distance classes have no basis object: the distance table is their
class index, a class matrix is built only where one is multiplied or
solved for, and no stack of D + 1 dense matrices is ever kept. Membership
in the adjacency algebra is read off the walk chain over the classes
wherever that settles it (`characterize.GraphContext`). Every other span
solve runs `SpanBasis._reduce`, fraction-free: each step cross-multiplies
and divides by the content gcd, and Fractions appear only in the
coordinates a solve returns.

The minimal polynomial is computed modulo word-size primes and lifted by the
Chinese remainder theorem (the lift-then-verify pattern of Dixon, Numer.
Math. 40, 1982). Over GF(p), the Krylov sequence v, Av, A^2 v, ... of one
fixed integer vector v is eliminated up to its first dependence, which costs
O(n**3) per prime (Wiedemann, IEEE Trans. Inf. Theory 32, 1986). That
polynomial divides μ, so the lifted candidate is accepted only after
μ(A) = 0 is proved over the integers, modulo fresh primes whose product
exceeds a bound on every entry of μ(A). If the proof fails, the search goes
on at a larger degree, and every later prime takes the lcm of the Krylov
polynomials of v and of each unit vector, which is μ mod p itself. The
result never depends on chance, and a search that skips more primes than
a Hadamard bound allows stops with InternalInconsistency.

The checks read only deg μ, which `minimal_polynomial_degree` gives. A rank
mod p never exceeds the rank over the rationals, so the Krylov degree of v
modulo one prime is at most its degree over the rationals, which is at most
deg μ <= n. A first prime whose Krylov degree is n therefore proves
deg μ = n, exactly and with no lift or certificate. Almost every random
digraph ends there, and so does every cycle (μ = t^n - 1) with n <= 300,
the range checked; only a lower degree runs `_integer_minimal_polynomial`,
from that first prime's Krylov polynomial on.

Every prime p is at most a cap that depends on n alone and proves
n * (p - 1)**2 < 2**53. The Krylov and elimination steps then fit in int64,
and the proof's products run on float64 BLAS by the same argument, with both
factors reduced mod p.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .digraph import Digraph
from .errors import DimensionMismatch, InternalInconsistency, PreconditionViolated

Rational = Union[int, Fraction]

INT64_LIMIT = 1 << 63  # every int64 has absolute value below this, except -2**63
FLOAT64_EXACT = 1 << 53  # float64 holds every integer of absolute value up to this


def _norm(x: Rational) -> Rational:
    """Collapse integer-valued Fractions back to int (cheaper arithmetic)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


class IntMatrix:
    """Immutable dense integer matrix: the array ``num``, int64 exactly when
    every entry fits."""

    __slots__ = ("num", "_bounds")

    def __init__(self, num: np.ndarray):
        """The matrix of a 2-d int64 or object array of integers, which the
        matrix then owns."""
        if num.dtype == object and (not num.size or np.abs(num).max() < INT64_LIMIT):
            num = num.astype(np.int64)
        num.flags.writeable = False
        self.num = num
        self._bounds: Optional[tuple[int, int]] = None

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Row tuples of Python ints, a read-only view."""
        return tuple(map(tuple, self.num.tolist()))

    def abs_bounds(self) -> tuple[int, int]:
        """Upper bounds (max |entry|, max row sum of |entries|), as Python
        ints: the bounds given to `bounded`, else scanned exactly, except a
        row sum that could pass int64, which is bounded by max |entry| * cols."""
        if self._bounds is None:
            a = self.num
            top = max(int(a.max()), -int(a.min()))
            # Below the limit, no |entry| is -2**63 and no row sum overflows.
            wide = top * a.shape[1]
            exact = a.dtype == object or wide < INT64_LIMIT
            self._bounds = (top, int(np.abs(a).sum(axis=1).max()) if exact else wide)
        return self._bounds

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return bool(np.array_equal(self.num, other.num))

    def __repr__(self) -> str:
        return f"IntMatrix({self.entries!r})"

    @property
    def shape(self) -> tuple[int, int]:
        return self.num.shape

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @classmethod
    def bounded(cls, num: np.ndarray, top: int, row_sum: int) -> "IntMatrix":
        """The int64 matrix num, whose max |entry| is at most top and whose
        row sums of |entries| are at most row_sum: bounds known when the
        matrix is built, so `abs_bounds` need not scan it."""
        m = cls(num)
        m._bounds = (top, row_sum)
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.bounded(np.eye(n, dtype=np.int64), 1, 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls.bounded(np.zeros((rows, cols), dtype=np.int64), 0, 0)

    def scale(self, c: int) -> "IntMatrix":
        num = self.num
        if abs(c) * max(self.abs_bounds()[0], 1) >= INT64_LIMIT:
            num = num.astype(object)
        return IntMatrix(num * c)

    def add(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"add {self.shape} vs {other.shape}")
        a, b = self.num, other.num
        if self.abs_bounds()[0] + other.abs_bounds()[0] >= INT64_LIMIT:
            a, b = a.astype(object), b.astype(object)
        return IntMatrix(a + b)


def adjacency_matrix(g: Digraph) -> IntMatrix:
    k = int(g.matrix.sum(axis=1).max())
    return IntMatrix.bounded(g.matrix.astype(np.int64), min(k, 1), k)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product: ``@`` on int64 when (max row sum of |a|) * max |b| is
    below 2**63, else on object arrays."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"mat_mul {a.shape} vs {b.shape}")
    x, y = a.num, b.num
    if a.abs_bounds()[1] * b.abs_bounds()[0] >= INT64_LIMIT:
        x, y = x.astype(object), y.astype(object)
    return IntMatrix(x @ y)


class SpanBasis:
    """Echelon form of a matrix family, prepared for repeated exact
    membership solves.

    Elimination is fraction-free. An echelon row is an integer vector
    together with the integer combination of the members that it equals. A
    step cross-multiplies and divides by the content gcd, so rows and
    combinations stay Python ints and Fractions appear only in the
    coordinates `solve` returns. A row's pivot is its first nonzero entry.
    """

    def __init__(self, basis: Sequence[IntMatrix]):
        if not basis:
            raise DimensionMismatch("empty basis")
        self.shape = basis[0].shape
        self.size = len(basis)
        # Echelon rows: (pivot index, vector, combination). A combination
        # has one slot per member and a last slot for a solve's target.
        self._rows: list[tuple[int, list[int], list[int]]] = []
        for k, member in enumerate(basis):
            if member.shape != self.shape:
                raise DimensionMismatch(f"basis shapes differ: {member.shape} vs {self.shape}")
            vec = member.num.ravel().tolist()
            combo = [0] * (self.size + 1)
            combo[k] = 1
            self._reduce(vec, combo)
            pivot = next((i for i, x in enumerate(vec) if x), None)
            if pivot is not None:
                self._rows.append((pivot, vec, combo))

    def _reduce(self, vec: list[int], combo: list[int]) -> None:
        """Eliminate vec against the echelon rows in place, keeping
        vec = sum(combo[i] * member_i) (the target in the last slot)."""
        for pivot, row, row_combo in self._rows:
            f = vec[pivot]
            if not f:
                continue
            a = row[pivot]
            g = gcd(a, f)
            a, f = a // g, f // g
            vec[:] = [a * x - f * r for x, r in zip(vec, row)]
            combo[:] = [a * c - f * r for c, r in zip(combo, row_combo)]
            g = gcd(*vec, *combo)
            if g > 1:
                vec[:] = [x // g for x in vec]
                combo[:] = [c // g for c in combo]

    def solve(self, target: IntMatrix) -> Optional[tuple[Rational, ...]]:
        """Exact rational coefficients c with sum(c_i * basis_i) = target,
        or None. When the basis is dependent, one valid tuple is returned."""
        if target.shape != self.shape:
            raise DimensionMismatch(f"target {target.shape} vs basis {self.shape}")
        vec = target.num.ravel().tolist()
        combo = [0] * (self.size + 1)
        combo[-1] = 1
        self._reduce(vec, combo)
        if any(vec):
            return None
        # 0 = sum(combo[i] * basis_i) + combo[-1] * target
        return tuple(_norm(Fraction(-c, combo[-1])) for c in combo[:-1])


@dataclass(frozen=True)
class RatPolynomial:
    """Polynomial with exact rational coefficients, lowest power first."""

    coeffs: tuple[Rational, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[Rational]) -> "RatPolynomial":
        cs = [_norm(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def one(cls) -> "RatPolynomial":
        return cls((1,))

    @classmethod
    def t(cls) -> "RatPolynomial":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: Rational) -> Rational:
        acc: Rational = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _norm(acc)

    def add(self, other: "RatPolynomial") -> "RatPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return RatPolynomial.from_coeffs([x + y for x, y in zip(a, b)])

    def sub(self, other: "RatPolynomial") -> "RatPolynomial":
        return self.add(other.scale(-1))

    def scale(self, c: Rational) -> "RatPolynomial":
        return RatPolynomial.from_coeffs([c * x for x in self.coeffs])

    def times_t(self) -> "RatPolynomial":
        if self.is_zero():
            return self
        return RatPolynomial((0,) + self.coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for p in range(self.degree, -1, -1):
            c = self.coeffs[p]
            if c == 0:
                continue
            if p == 0:
                parts.append(f"{c}")
            else:
                var = "t" if p == 1 else f"t^{p}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def eval_poly_at_matrix(p: RatPolynomial, a: IntMatrix) -> IntMatrix:
    """The integer matrix p(A) for a square A: Horner on the integer
    polynomial L * p, where L is the lcm of the coefficients' denominators,
    then one exact division by L. Raises PreconditionViolated when p(A) has
    an entry that is not an integer."""
    if a.rows != a.cols:
        raise DimensionMismatch("matrix must be square")
    n = a.rows
    denom = lcm(*(c.denominator for c in p.coeffs))
    acc = IntMatrix.zeros(n, n)
    for i, c in enumerate(reversed(p.coeffs)):
        if i:
            acc = mat_mul(acc, a)
        if c:
            acc = acc.add(IntMatrix.identity(n).scale(c.numerator * (denom // c.denominator)))
    if denom == 1:
        return acc
    if (acc.num % denom).any():
        raise PreconditionViolated("p(A) has an entry that is not an integer")
    return IntMatrix(acc.num // denom)


def _prime_cap(n: int) -> int:
    """The largest p with n * (p - 1)**2 < 2**53: mod such a p, an entry of
    the product of two reduced n x n matrices is an integer below 2**53, so
    float64 holds it and every partial sum exactly, and every Krylov and
    elimination step fits in int64."""
    return isqrt((FLOAT64_EXACT - 1) // n) + 1


def _is_prime(m: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5 and 7, which is exact for every m
    below 3,215,031,751 and so for every prime cap."""
    if m < 2:
        return False
    for b in (2, 3, 5, 7):
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=4096)
def _prime_at_most(m: int) -> int:
    """The largest prime p <= m, for m >= 2; cached because every call of
    `_integer_minimal_polynomial` on matrices of one size draws the same
    primes."""
    while not _is_prime(m):
        m -= 1
    return m


def _primes(n: int) -> Iterator[int]:
    """The primes allowed for n x n matrices, largest first."""
    p = _prime_cap(n) + 1
    while p > 2:
        p = _prime_at_most(p - 1)
        yield p


@lru_cache(maxsize=256)
def _krylov_vector(n: int) -> np.ndarray:
    """The fixed start vector for n x n matrices: entries below 2**20 from a
    generator seeded with n, so every run at a given n uses the same vector.
    Cached per n, because building the generator costs more than the
    minimal polynomial of a small matrix. The standard library's generator
    is used because importing numpy.random adds about 6 MB of memory."""
    rng = random.Random(n)
    v = np.array([rng.getrandbits(20) for _ in range(n)], dtype=np.int64)
    v.flags.writeable = False
    return v


def _krylov_polynomial(a: np.ndarray, v: np.ndarray, p: int) -> list[int]:
    """Monic minimal polynomial of the vector v under a over GF(p), lowest
    power first, with coefficients in [0, p): the first dependence among
    v, av, a^2 v, ....

    The rows k_0, ..., k_n of K = [v; av; ...; a^n v] are eliminated in
    place, as in an LU factorization. After j steps, a later row t holds the
    reduced vector k_t - sum_{l<j} c_l k_l from column j on; it is zero in
    the first j columns, which hold the c_l instead. A pivot search swaps
    two columns in every row alike. The first row j whose reduced vector is
    zero gives a^j v = sum_{l<j} c_l a^l v. a and v are int64 with entries
    in [0, p), and p is at most `_prime_cap(n)`."""
    n = a.shape[0]
    k = np.empty((n + 1, n), dtype=np.int64)
    k[0] = v
    for j in range(n):
        k[j + 1] = a @ k[j] % p
    # Row n has no entries from column n on, so the loop breaks by j = n.
    for j in range(n + 1):
        if j == n or not k[j, j]:  # the pivot is almost always in place
            nonzero = np.flatnonzero(k[j, j:])
            if not nonzero.size:
                break
            q = j + int(nonzero[0])
            k[:, [j, q]] = k[:, [q, j]]
        factors = k[j + 1 :, j] * pow(int(k[j, j]), -1, p) % p
        rest = k[j + 1 :]
        rest -= factors[:, None] * k[j]
        rest %= p
        rest[:, j] = factors
    return [-c % p for c in k[j, :j].tolist()] + [1]


def _poly_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by a nonzero g over GF(p), lowest power
    first, with the remainder's leading zeros stripped."""
    r = list(f)
    inverse = pow(g[-1], -1, p)
    q = [0] * max(len(f) - len(g) + 1, 0)
    for i in reversed(range(len(q))):
        c = q[i] = r[i + len(g) - 1] * inverse % p
        for j, x in enumerate(g):
            r[i + j] = (r[i + j] - c * x) % p
    r = r[: len(g) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


def _poly_lcm(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic lcm of two monic polynomials over GF(p): f * (g / gcd(f, g))."""
    x, y = f, g
    while y:
        x, y = y, _poly_divmod(x, y, p)[1]
    cofactor = _poly_divmod(g, x, p)[0]
    scale = x[-1]  # g / x has leading coefficient 1 / scale
    out = [0] * (len(f) + len(cofactor) - 1)
    for i, c in enumerate(f):
        for j, d in enumerate(cofactor):
            out[i + j] += c * d * scale
    return [c % p for c in out]


def _annihilator_mod(a: np.ndarray, v: np.ndarray, p: int) -> list[int]:
    """Monic minimal polynomial of a over GF(p), lowest power first: the
    lcm of the Krylov polynomials of v and of every unit vector, since a
    polynomial that annihilates each e_i annihilates a."""
    mu = _krylov_polynomial(a, v, p)
    for unit in np.eye(a.shape[0], dtype=np.int64):
        mu = _poly_lcm(mu, _krylov_polynomial(a, unit, p), p)
    return mu


def _vanishes(ints: np.ndarray, coeffs: Sequence[int], rho: int, primes: Iterator[int]) -> bool:
    """Whether sum(c_i * A^i) = 0 over the integers, where A is ints and rho
    bounds its max row sum of |entries|: no entry of the sum exceeds
    B = sum(|c_i| * rho**i) in size, so it is zero once it vanishes modulo
    primes whose product exceeds B. Each prime is drawn from primes.

    Horner's products run on float64 BLAS. Both factors have entries in
    [0, p), so every partial sum of a product entry is an integer of at most
    n * (p - 1)**2 < 2**53, which float64 holds: the product is exact in any
    summation order. A cast to int64 and % then reduce it exactly."""
    bound = sum(abs(c) * rho**i for i, c in enumerate(coeffs))
    n = ints.shape[0]
    modulus = 1
    while modulus <= bound:
        p = next(primes)
        a = (ints % p).astype(np.float64)
        acc = np.zeros((n, n), dtype=np.int64)
        for c in reversed(coeffs):
            acc = (acc.astype(np.float64) @ a).astype(np.int64)
            acc.reshape(-1)[:: n + 1] += c % p  # the diagonal, in place
            acc %= p
        if acc.any():
            return False
        modulus *= p
    return True


def _integer_minimal_polynomial(
    ints: np.ndarray, rho: int, first: Optional[list[int]] = None
) -> list[int]:
    """Integer coefficients, lowest power first, of the monic minimal
    polynomial μ of the integer matrix ints (int64 or Python-int object
    array), where rho bounds its max row sum of |entries|. `first`, when
    given, is the first prime's Krylov polynomial, already computed.

    Each prime p gives the Krylov polynomial μ_{v,p} of the fixed vector v.
    It divides μ_{v,Q} mod p, where μ_{v,Q}, the polynomial of v over the
    rationals, is a monic integer divisor of μ (Gauss's lemma). So no prime
    gives a larger degree than μ_{v,Q}, and every prime of its degree gives
    exactly μ_{v,Q} mod p. Residues are kept for the primes of the largest
    degree seen and lifted into the symmetric range once their product
    exceeds twice the bound C(d, i) * rho**(d - i) on |c_i|, which holds
    because every root of μ_{v,Q} is an eigenvalue of size at most rho.

    The lift is then certified: a monic candidate of degree at most deg μ
    with candidate(A) = 0 is μ. If it fails, either every kept prime was
    unlucky or μ_{v,Q} is a proper divisor of μ; either way μ has a larger
    degree. The search continues above it, and from then on every prime
    gives the lcm of the Krylov polynomials of v, e_1, ..., e_n, which is μ
    mod p itself and so reaches deg μ for all but finitely many primes.

    How many: a prime that gives a degree below the target divides a
    nonzero m x m minor, m <= n, of the Krylov vectors v, Av, ... or of the
    vectorized powers vec(A^0), vec(A^1), .... Column j of either has
    Euclidean length at most n * 2**20 * rho**j, so by Hadamard the minor
    is below 2**bits with bits as below, and at most bits / log2(p) primes
    p can divide it. Skipping more than that at one target proves the
    target wrong, which only a fault in this computation can cause."""
    n = ints.shape[0]
    primes = _primes(n)
    v = _krylov_vector(n)
    bits = n * (n.bit_length() + 20) + n * (n - 1) // 2 * rho.bit_length()
    polynomial_mod = _krylov_polynomial
    degree, residues, modulus, skipped = 0, [0], 1, 0
    for p in primes:
        mu = first or polynomial_mod((ints % p).astype(np.int64), v % p, p)
        first = None
        d = len(mu) - 1
        if d < degree:
            skipped += 1
            if skipped * (p.bit_length() - 1) > bits:
                raise InternalInconsistency(
                    f"{skipped} primes fall below degree {degree}, more than a minor allows"
                )
            continue
        if d > degree:
            degree, residues, modulus, skipped = d, [0] * (d + 1), 1, 0
        step = pow(modulus, -1, p)
        residues = [r + modulus * ((m - r) * step % p) for r, m in zip(residues, mu)]
        modulus *= p
        if modulus <= 2 * max(comb(d, i) * rho ** (d - i) for i in range(d + 1)):
            continue
        candidate = [r - modulus if 2 * r > modulus else r for r in residues]
        if _vanishes(ints, candidate, rho, primes):
            return candidate
        if degree == n:  # Cayley-Hamilton: primes of degree n are lucky
            raise InternalInconsistency("certificate failed at degree n")
        polynomial_mod = _annihilator_mod
        degree, residues, modulus, skipped = degree + 1, [0] * (degree + 2), 1, 0
    raise InternalInconsistency("ran out of primes")


def minimal_polynomial(a: IntMatrix) -> RatPolynomial:
    """Monic least-degree polynomial annihilating a, computed modulo primes
    and certified exactly; its coefficients are integers."""
    if a.rows != a.cols:
        raise DimensionMismatch("matrix must be square")
    return RatPolynomial.from_coeffs(_integer_minimal_polynomial(a.num, a.abs_bounds()[1]))


def minimal_polynomial_degree(a: IntMatrix) -> int:
    """deg μ of a square a, exactly: n when the fixed vector's Krylov
    degree modulo the first prime, a lower bound on deg μ, is n; else the
    degree of μ, lifted from that prime's polynomial on."""
    if a.rows != a.cols:
        raise DimensionMismatch("matrix must be square")
    n = a.rows
    p = next(_primes(n))
    mu = _krylov_polynomial((a.num % p).astype(np.int64), _krylov_vector(n) % p, p)
    if len(mu) == n + 1:
        return n
    return len(_integer_minimal_polynomial(a.num, a.abs_bounds()[1], mu)) - 1
