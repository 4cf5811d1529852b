"""Complex spectral computations: eigenvalue clustering with multiplicities,
normality, predistance polynomials, and the spectral excess expression.

This is the only floating-point corner of the toolkit. Everything here is
cross-validated elsewhere against exact data (minimal-polynomial degrees,
exact shell counts), so a bad tolerance surfaces as a test failure rather
than a silent wrong verdict.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .digraph import DistanceTable
from .errors import (
    ClusteringAmbiguous,
    DegenerateGram,
    NonPositiveNorm,
    PiUnderflow,
    PreconditionViolated,
)
from .ratlin import RatMatrix, mat_mul, transpose

DEFAULT_CLUSTER_TOL = 1e-7


def is_normal(a: RatMatrix) -> bool:
    """Exact integer test A A^T = A^T A (real entries, so adjoint = transpose)."""
    at = transpose(a)
    return mat_mul(a, at) == mat_mul(at, a)


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues with multiplicities, Perron value first.

    pi[j] is the product of (eig_j - eig_l) over l != j, taken over cluster
    centroids.
    """

    eigs: tuple[tuple[complex, int], ...]
    pi: tuple[complex, ...]
    n: int

    @property
    def d(self) -> int:
        """One less than the number of distinct eigenvalues."""
        return len(self.eigs) - 1

    @property
    def perron(self) -> complex:
        return self.eigs[0][0]


def _as_float_array(a: Union[RatMatrix, Sequence[Sequence[int]]]) -> np.ndarray:
    if isinstance(a, RatMatrix):
        return np.asarray(a.num / a.den, dtype=float)
    return np.array(a, dtype=float)


def spectrum(
    a: Union[RatMatrix, Sequence[Sequence[int]]],
    tol_cluster: float = DEFAULT_CLUSTER_TOL,
) -> Spectrum:
    """Numerically computed eigenvalues, single-linkage clustered at an
    absolute threshold of tol_cluster scaled by the spectral radius.

    Clusters are symmetrized across complex conjugation (the matrix is real)
    before the pi products are formed; cluster representatives are centroids.
    Raises ClusteringAmbiguous when two distinct clusters end up closer than
    the resolution.
    """
    arr = _as_float_array(a)
    n = arr.shape[0]
    raw = np.linalg.eigvals(arr)
    rho = max(abs(raw))
    tau = tol_cluster * max(rho, 1.0)

    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(raw[i] - raw[j]) <= tau:
                parent[find(i)] = find(j)

    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(complex(raw[i]))
    centroids = [sum(vals) / len(vals) for vals in groups.values()]
    mults = [len(vals) for vals in groups.values()]

    # Conjugate symmetrization: pair each genuinely complex cluster with its
    # mirror; flatten small imaginary parts of real clusters.
    k = len(centroids)
    paired = [False] * k
    for i in range(k):
        if paired[i]:
            continue
        c = centroids[i]
        if abs(c.imag) <= tau:
            centroids[i] = complex(c.real, 0.0)
            paired[i] = True
            continue
        partner = None
        for j in range(k):
            if j != i and not paired[j] and abs(centroids[j] - c.conjugate()) <= 2 * tau:
                partner = j
                break
        if partner is None or mults[partner] != mults[i]:
            raise ClusteringAmbiguous(
                f"complex cluster at {c} has no conjugate partner of equal size"
            )
        z = (c + centroids[partner].conjugate()) / 2
        centroids[i] = z
        centroids[partner] = z.conjugate()
        paired[i] = paired[partner] = True

    for i in range(k):
        for j in range(i + 1, k):
            if abs(centroids[i] - centroids[j]) <= tau:
                raise ClusteringAmbiguous(
                    f"clusters at {centroids[i]} and {centroids[j]} overlap within tolerance"
                )

    real_idx = [i for i in range(k) if centroids[i].imag == 0.0]
    if not real_idx:
        raise ClusteringAmbiguous("no real cluster found for the Perron value")
    perron_idx = max(real_idx, key=lambda i: centroids[i].real)
    order = [perron_idx] + sorted(
        (i for i in range(k) if i != perron_idx),
        key=lambda i: (-centroids[i].real, centroids[i].imag),
    )
    eigs = tuple((centroids[i], mults[i]) for i in order)
    pi = []
    for j in range(k):
        prod = complex(1.0)
        for l in range(k):
            if l != j:
                prod *= eigs[j][0] - eigs[l][0]
        pi.append(prod)
    return Spectrum(eigs=eigs, pi=tuple(pi), n=n)


def poly_eval(coeffs: np.ndarray, x: complex) -> complex:
    acc = complex(0.0)
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def poly_inner_product(p: np.ndarray, q: np.ndarray, s: Spectrum) -> complex:
    """Spectrum-weighted inner product:
    (1/n) * sum_j m_j p(eig_j) conj(q(eig_j))."""
    total = complex(0.0)
    for lam, m in s.eigs:
        total += m * poly_eval(p, lam) * np.conjugate(poly_eval(q, lam))
    return total / s.n


def poly_inner_product_trace(
    p: np.ndarray, q: np.ndarray, a: Union[RatMatrix, Sequence[Sequence[int]]]
) -> complex:
    """Trace-form inner product (1/n) trace(p(A) conj(q(A))^T): the
    independent oracle for poly_inner_product on normal matrices."""
    arr = _as_float_array(a).astype(complex)
    n = arr.shape[0]

    def horner(coeffs: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(arr)
        for c in coeffs[::-1]:
            acc = acc @ arr + c * np.eye(n)
        return acc

    pa = horner(np.asarray(p, dtype=complex))
    qa = horner(np.asarray(q, dtype=complex))
    return complex(np.trace(pa @ np.conjugate(qa).T)) / n


@dataclass(frozen=True)
class PredistanceSet:
    """Orthogonal polynomials p_0..p_d for the spectrum-weighted inner
    product, normalized so that ||p_i||^2 = p_i(perron) > 0."""

    polys: tuple[np.ndarray, ...]
    norms: tuple[float, ...]

    @property
    def d(self) -> int:
        return len(self.polys) - 1


def predistance_polynomials(s: Spectrum, residue_tol: float = 1e-8) -> PredistanceSet:
    """Gram-Schmidt on the monomial basis 1, t, ..., t^d under the
    spectrum-weighted inner product, rescaled so each norm-squared equals the
    value at the Perron eigenvalue.

    A second orthogonalization pass guards against cancellation. Raises
    DegenerateGram on a numerically vanishing norm and NonPositiveNorm when
    the value at the Perron eigenvalue is not real positive.
    """
    lam0 = s.perron
    if lam0.imag != 0.0:
        raise PreconditionViolated("Perron eigenvalue must be real")
    d = s.d
    raw_scale = max(abs(lam0), 1.0)
    basis: list[np.ndarray] = []
    norms_sq: list[float] = []
    out: list[np.ndarray] = []
    out_norms: list[float] = []
    for i in range(d + 1):
        q = np.zeros(i + 1, dtype=complex)
        q[i] = 1.0
        for _ in range(2):  # re-orthogonalize once for stability
            for prev, prev_norm in zip(basis, norms_sq):
                coef = poly_inner_product(q, prev, s) / prev_norm
                q = q - coef * np.pad(prev, (0, len(q) - len(prev)))
        norm_sq = poly_inner_product(q, q, s).real
        scale_floor = 1e-24 * max(raw_scale ** (2 * i), 1.0)
        if norm_sq <= scale_floor:
            raise DegenerateGram(f"monomial t^{i} is numerically dependent")
        basis.append(q)
        norms_sq.append(norm_sq)
        value = poly_eval(q, lam0)
        if abs(value.imag) > residue_tol * max(abs(value), 1.0):
            raise NonPositiveNorm(
                f"p_{i}(perron) = {value} has a non-negligible imaginary part"
            )
        if value.real <= 0:
            raise NonPositiveNorm(f"p_{i}(perron) = {value.real} is not positive")
        factor = value.real / norm_sq
        p = factor * q
        out.append(p)
        out_norms.append(poly_eval(p, lam0).real)
    return PredistanceSet(polys=tuple(out), norms=tuple(out_norms))


def spectral_excess_rhs(s: Spectrum) -> float:
    """The spectrum-only side of the spectral excess identity:
    n * (sum_j |pi_0|^2 / (m_j |pi_j|^2))^(-1)."""
    mags = [abs(p) for p in s.pi]
    if min(mags) < 1e-12 * max(max(mags), 1.0):
        raise PiUnderflow("an eigenvalue product is numerically zero")
    pi0_sq = mags[0] ** 2
    total = 0.0
    for (lam, m), mag in zip(s.eigs, mags):
        total += pi0_sq / (m * mag * mag)
    return s.n / total


def average_last_shell(t: DistanceTable) -> Fraction:
    """Exact mean, over vertices, of the number of vertices at distance
    exactly the diameter."""
    if not t.strongly_connected:
        raise PreconditionViolated("last-shell average needs a strongly connected digraph")
    return Fraction(int(np.count_nonzero(t.array == t.diameter)), t.n)


def spectral_excess(s: Spectrum, t: DistanceTable) -> tuple[float, float, float]:
    """Both sides of the spectral excess identity and their relative gap:
    (mean last-shell size, spectral value, |lhs - rhs| / max(|lhs|, |rhs|))."""
    rhs = spectral_excess_rhs(s)
    lhs = float(average_last_shell(t))
    return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
