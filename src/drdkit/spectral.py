"""Complex spectral computations: eigenvalue clustering with multiplicities,
normality, and the spectral excess expression.

This is the only floating-point corner of the toolkit. Everything here is
cross-validated elsewhere against exact data (minimal-polynomial degrees,
exact shell counts), so a bad tolerance surfaces as a test failure rather
than a silent wrong verdict. The float predistance polynomials and their
inner products, which no verdict reads, are kept by the test suite as the
oracle of the spectral excess bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digraph import DistanceTable
from .errors import ClusteringAmbiguous, PiUnderflow
from .ratlin import FLOAT64_MIN_INNER, IntMatrix

DEFAULT_CLUSTER_TOL = 1e-7


def is_normal(a: IntMatrix) -> bool:
    """Exact integer test A A^T = A^T A of a square 01 A, as every adjacency
    matrix is (real entries, so adjoint = transpose).

    Every partial sum of an entry of either product is at most n < 2^53, so
    one product each and one comparison are exact: on float64, which holds
    every such integer (ratlin's FLOAT64_EXACT argument), or on the int64
    array itself below FLOAT64_MIN_INNER, as in `mat_mul`."""
    x = a.num if a.rows < FLOAT64_MIN_INNER else a.num.astype(np.float64)
    return bool((x @ x.T == x.T @ x).all())


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


def spectrum(a: IntMatrix, tol_cluster: float = DEFAULT_CLUSTER_TOL) -> Spectrum:
    """Numerically computed eigenvalues, single-linkage clustered at an
    absolute threshold of tol_cluster scaled by the spectral radius.

    Clusters are symmetrized across complex conjugation (the matrix is real)
    before the pi products are formed; cluster representatives are centroids.
    Raises ClusteringAmbiguous when two distinct clusters end up closer than
    the resolution.
    """
    arr = a.num.astype(float)
    n = arr.shape[0]
    raw = np.linalg.eigvals(arr)
    rho = np.abs(raw).max()
    tau = tol_cluster * max(rho, 1.0)

    # Single linkage: each eigenvalue takes the lowest index among those
    # within tau of it until no label changes, which labels every component
    # of the closeness graph by its lowest member.
    close = np.abs(raw[:, None] - raw[None, :]) <= tau
    label = np.arange(n)
    while True:
        lowest = np.where(close, label, n).min(axis=1)
        if np.array_equal(lowest, label):
            break
        label = lowest

    groups: dict[int, list[complex]] = {}
    for root, value in zip(label.tolist(), raw.astype(complex).tolist()):
        groups.setdefault(root, []).append(value)
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
    return Fraction(int(np.count_nonzero(t.array == t.diameter)), t.n)


def spectral_excess(s: Spectrum, t: DistanceTable) -> tuple[float, float, float]:
    """Both sides of the spectral excess identity and their relative gap:
    (mean last-shell size, spectral value, |lhs - rhs| / max(|lhs|, |rhs|))."""
    rhs = spectral_excess_rhs(s)
    lhs = float(average_last_shell(t))
    return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
