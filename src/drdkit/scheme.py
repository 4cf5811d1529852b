"""Distance-matrix algebra: the pair count scan, which is the product table
of the distance matrices, and the association-scheme axioms read from it,
transpose closure, distance polynomials, walk counts, and the one-step and
two-way-distance count tables.

Every check in this module is exact; all quantities are integer counts or
integer matrix identities, so there are no tolerances anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .digraph import Digraph, DistanceTable
from .errors import (
    InternalInconsistency,
    NotStronglyConnected,
    PreconditionViolated,
)
from .partitions import shell_counts
from .ratlin import (
    IntMatrix,
    PartitionBasis,
    RatPolynomial,
    adjacency_matrix,
    class_matrices,
    mat_mul,
)


@dataclass(frozen=True)
class DistanceMatrices:
    """The 01 matrices A_0..A_D with (A_i)[x][y] = 1 iff d(x,y) = i, and
    their partition basis, whose class index is the distance table."""

    mats: tuple[IntMatrix, ...]
    basis: PartitionBasis

    @property
    def D(self) -> int:
        return len(self.mats) - 1

    @property
    def adjacency(self) -> IntMatrix:
        """A_1 when the diameter is positive, else the zero matrix."""
        if self.D >= 1:
            return self.mats[1]
        n = self.mats[0].rows
        return IntMatrix.zeros(n, n)


def distance_matrices(g: Digraph, t: DistanceTable) -> DistanceMatrices:
    """Build A_0..A_D and verify the partition invariants at construction."""
    if not t.strongly_connected:
        raise NotStronglyConnected("distance matrices need a strongly connected digraph")
    D = t.diameter
    mats = class_matrices(t.array, D + 1)
    if mats[0] != IntMatrix.identity(g.n):
        raise InternalInconsistency("A_0 != I")
    if (sum(m.num for m in mats) != 1).any():
        raise InternalInconsistency("distance classes do not partition X x X")
    if D >= 1 and mats[1] != adjacency_matrix(g):
        raise InternalInconsistency("A_1 != adjacency matrix")
    return DistanceMatrices(mats, PartitionBasis(t.array, D + 1))


@dataclass(frozen=True)
class TransposeMap:
    """Index map sigma with A_i^T = A_sigma(i) for every i, or the first
    index with no match."""

    sigma: Optional[tuple[int, ...]]
    failing_index: Optional[int]

    @property
    def exists(self) -> bool:
        return self.sigma is not None


def _transpose_class(basis: PartitionBasis, i: int) -> Optional[int]:
    """The j with M_i^T = M_j in a partition basis, or None: the class at the
    transposed position of class i's representative, if index == j exactly
    where index^T == i. No matrix is built."""
    index = basis.index
    y, x = divmod(int(basis.reps[i]), basis.shape[1])
    j = int(index[x, y])
    return j if np.array_equal(index == j, index.T == i) else None


def transpose_closure(dm: DistanceMatrices) -> TransposeMap:
    """For i = 0..D in order, the j with A_i^T = A_j, read off the distance
    table: A_i^T = A_j iff d(x,y) = j exactly where d(y,x) = i. The failing
    index is the lowest i with no such j."""
    sigma = []
    for i in range(dm.D + 1):
        j = _transpose_class(dm.basis, i)
        if j is None:
            return TransposeMap(None, i)
        sigma.append(j)
    return TransposeMap(tuple(sigma), None)


def adjacency_transpose_index(dm: DistanceMatrices) -> Optional[int]:
    """The j with A^T = A_j, if any, read off the distance table."""
    if dm.D == 0:
        return 0  # one-vertex digraph: conventionally closed
    return _transpose_class(dm.basis, 1)


@dataclass(frozen=True)
class PairCountScan:
    """Constancy scan of the counts |{z : d(x,z) = i and d(z,y) = j}| over all
    ordered pairs (x, y) grouped by h = d(x,y). The count is (A_i A_j)[x][y],
    so the scan is the distance matrices' product table: A_i A_j is in their
    span iff its counts are constant on every class h, with those constants
    as coordinates.

    values[h][i][j] holds the count seen at the first pair of class h;
    ok[i][j] says whether that count was constant over every pair.
    commutative says whether A_i A_j = A_j A_i for every i and j.
    """

    values: tuple[tuple[tuple[int, ...], ...], ...]
    ok: tuple[tuple[bool, ...], ...]
    witness: Optional[tuple]
    commutative: bool

    @property
    def all_constant(self) -> bool:
        return all(all(row) for row in self.ok)

    def coords(self, i: int, j: int) -> Optional[tuple[int, ...]]:
        """Coordinates of A_i A_j in the distance matrices, or None where the
        product leaves their span."""
        return tuple(v[i][j] for v in self.values) if self.ok[i][j] else None

    @property
    def first_open(self) -> Optional[tuple[int, int]]:
        """The first (i, j) in row-major order whose product leaves the span."""
        open_pairs = [(i, j) for i, row in enumerate(self.ok) for j, c in enumerate(row) if not c]
        return open_pairs[0] if open_pairs else None


# Cap on the elements of each array one block of the pair count scan
# allocates; a block holds at least one pair, whatever the cap.
SCAN_BLOCK = 1 << 13


def _pair_counts(dist: np.ndarray, pairs: np.ndarray, width: int) -> np.ndarray:
    """counts[k][i * width + j] = |{z : d(x,z) = i and d(z,y) = j}| for the
    k-th pair (x, y) = divmod(pairs[k], n): one bincount over z."""
    n = dist.shape[0]
    x, y = np.divmod(pairs, n)
    keys = dist[x] * width + dist.T[y]
    keys += (np.arange(len(pairs)) * width * width)[:, None]
    return np.bincount(keys.ravel(), minlength=len(pairs) * width * width).reshape(
        len(pairs), width * width
    )


def _blocks(n: int, width: int):
    """Row-major blocks of pair indices, under SCAN_BLOCK per array."""
    step = max(1, SCAN_BLOCK // max(n, width * width))
    for lo in range(0, n * n, step):
        yield np.arange(lo, min(lo + step, n * n))


def _commutes(dist: np.ndarray, width: int) -> bool:
    """Whether A_i A_j = A_j A_i for every i and j: every pair's count at
    (i, j) equals its count at (j, i). Stops at the first block with a
    difference."""
    for pairs in _blocks(dist.shape[0], width):
        counts = _pair_counts(dist, pairs, width).reshape(len(pairs), width, width)
        if (counts != counts.transpose(0, 2, 1)).any():
            return False
    return True


def pair_intersection_counts(t: DistanceTable) -> PairCountScan:
    """Count, for every ordered pair (x, y), the z at each distance pair
    (d(x,z), d(z,y)) and compare with the first pair of class h = d(x,y) in
    row-major order. Pairs are taken in row-major blocks of at most
    SCAN_BLOCK elements per array. The witness is the first pair in
    row-major order whose counts differ from its class's first pair, at the
    lowest (i, j) where they differ. A closed family commutes: A A_i is zero
    past distance i + 1 and positive at it, so by induction every A_i is a
    polynomial in A. Only an open family is scanned again for commutativity."""
    if not t.strongly_connected:
        raise NotStronglyConnected("pair counts need a strongly connected digraph")
    dist = t.array
    n = t.n
    width = t.diameter + 1
    flat = dist.ravel()
    first = np.unique(flat, return_index=True)[1]  # first pair of each class
    ref = _pair_counts(dist, first, width)
    bad_slots = np.zeros(width * width, dtype=bool)
    witness: Optional[tuple] = None
    for pairs in _blocks(n, width):
        counts = _pair_counts(dist, pairs, width)
        expected = ref[flat[pairs]]
        bad = counts != expected
        bad_slots |= bad.any(axis=0)
        if witness is None and bad.any():
            k = int(bad.any(axis=1).argmax())
            slot = int(bad[k].argmax())
            h = int(flat[pairs[k]])
            witness = (
                *divmod(slot, width),
                h,
                divmod(int(first[h]), n),
                divmod(int(pairs[k]), n),
                int(expected[k, slot]),
                int(counts[k, slot]),
            )
    values = ref.reshape(width, width, width).tolist()
    ok = (~bad_slots).reshape(width, width).tolist()
    return PairCountScan(
        values=tuple(tuple(map(tuple, v)) for v in values),
        ok=tuple(map(tuple, ok)),
        witness=witness,
        commutative=not bad_slots.any() or _commutes(dist, width),
    )


def distance_polynomials(
    dm: DistanceMatrices, scan: PairCountScan
) -> Optional[tuple[RatPolynomial, ...]]:
    """Polynomials p_i with p_i(A) = A_i and deg p_i = i, or None.

    Built by the exact three-term-style recurrence
    c_{i+1} p_{i+1}(t) = t p_i(t) - sum_{h<=i} c_h p_h(t) from the expansion
    A_i A = sum_h c_h A_h, read from the pair count scan of the distance
    table, then re-verified by induction with one product per step:
    p_0(A) = I = A_0 and p_1(A) = A = A_1 (both proved by
    `distance_matrices`), and once p_h(A) = A_h for every h <= i,
    p_{i+1}(A) = A_{i+1} holds exactly when
    c_{i+1} A_{i+1} = A_i A - sum_{h<=i} c_h A_h.
    """
    a = dm.adjacency
    D = dm.D
    polys = [RatPolynomial.one()]
    if D >= 1:
        polys.append(RatPolynomial.t())
    for i in range(1, D):
        coeffs = scan.coords(i, 1)
        if coeffs is None:
            return None
        if any(coeffs[h] != 0 for h in range(i + 2, D + 1)):
            raise InternalInconsistency("one-step expansion reaches past distance i+1")
        lead = coeffs[i + 1]
        if lead == 0:
            return None
        nxt = polys[i].times_t()
        for h in range(i + 1):
            if coeffs[h]:
                nxt = nxt.sub(polys[h].scale(coeffs[h]))
        polys.append(nxt.scale(Fraction(1) / lead))
    if any(p.degree != i for i, p in enumerate(polys)):
        return None
    for i in range(1, D):
        coeffs = scan.coords(i, 1)
        rest = mat_mul(dm.mats[i], a)
        for h in range(i + 1):
            if coeffs[h]:
                rest = rest.add(dm.mats[h].scale(-coeffs[h]))
        if rest != dm.mats[i + 1].scale(coeffs[i + 1]):
            return None
    return tuple(polys)


@dataclass(frozen=True)
class WalkConstancy:
    """Whether the number of length-l walks between two vertices depends only
    on their distance, for every l up to max_len."""

    ok: bool
    max_len: int
    witness: Optional[tuple]

    def __bool__(self) -> bool:
        return self.ok


def walk_count_constancy(dm: DistanceMatrices, max_len: Optional[int] = None) -> WalkConstancy:
    """Check that A^l is constant on every distance class for l = 0..max_len
    (default: the diameter). max_len below the diameter would weaken the
    test and is refused. Only l < n is stepped: by Cayley-Hamilton A^n is a
    combination of I, A, ..., A^(n-1), so constancy for every l < n gives it
    for all l, and the first failing l is below n. Powers past the int64
    bound take mat_mul's object-array route, so long walks stay exact."""
    D = dm.D
    if max_len is None:
        max_len = D
    elif max_len < D:
        raise PreconditionViolated(f"max_len {max_len} below diameter {D}")
    a = dm.adjacency
    power = IntMatrix.identity(a.rows)
    for ell in range(min(max_len, a.rows - 1) + 1):
        if ell > 0:
            power = mat_mul(power, a)
        off = dm.basis.deviation(power)
        if off is not None:
            h, (x0, y0), (x, y) = off
            v0, v1 = int(power.num[x0, y0]), int(power.num[x, y])
            return WalkConstancy(False, max_len, (ell, h, (x0, y0), (x, y), v0, v1))
    return WalkConstancy(True, max_len, None)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the association-scheme axioms on the distance matrices.
    A_0 = I and sum A_i = J hold by construction (`distance_matrices`
    raises otherwise), so only transpose closure, product closure and
    commutativity are reported."""

    transpose_closed: bool
    product_closed: bool
    commutative: bool
    witness: Optional[str]

    @property
    def all(self) -> bool:
        return self.transpose_closed and self.product_closed and self.commutative


def scheme_axioms(scan: PairCountScan, transposes: TransposeMap) -> AxiomReport:
    """Whether the distance matrices are the standard basis of a commutative
    association scheme, read from their pair count scan and transpose map.
    The witness names the first failing axiom: the lowest i whose transpose
    is no distance matrix, then the first product in row-major order that
    leaves the span. A closed family commutes, so commutativity fails only
    where product closure has failed first and needs no witness of its own."""
    witness = None
    if not transposes.exists:
        witness = f"transpose of matrix {transposes.failing_index} is not in the family"
    open_pair = scan.first_open
    if open_pair is not None and witness is None:
        witness = "product {}*{} leaves the span".format(*open_pair)
    return AxiomReport(
        transpose_closed=transposes.exists,
        product_closed=open_pair is None,
        commutative=scan.commutative,
        witness=witness,
    )


@dataclass(frozen=True)
class DamerellTable:
    """One-step forward counts b[i][j] = |{z : d(y,z) = 1, d(x,z) = j}| over
    pairs with d(x,y) = i, when pair-independent. The same table read as
    b[h][i] gives the counts |shell_i(x) & out(y)| at pair distance h."""

    exists: bool
    b: Optional[tuple[tuple[int, ...], ...]]
    witness: Optional[tuple]


def damerell_numbers(g: Digraph, t: DistanceTable) -> DamerellTable:
    """Damerell's one-step table (Damerell, JCTB 31, 1981): for every pair
    (x, y), the out-neighbors z of y counted by d(x, z), through the
    `partitions.shell_counts` kernel on row x of the distance table, one
    source vertex at a time. Each pair is compared with the first pair of its
    class i = d(x,y) in row-major order; the witness is the first pair that
    differs, at the lowest j where it does."""
    if not t.strongly_connected:
        raise NotStronglyConnected("count table needs a strongly connected digraph")
    width = t.diameter + 1
    ref: list[Optional[list[int]]] = [None] * width
    ref_pair: list[tuple[int, int]] = [(-1, -1)] * width
    for x in range(g.n):
        row = t.array[x].tolist()
        for y, counts in enumerate(shell_counts(row, g.out_neighbors, width)):
            i = row[y]
            base = ref[i]
            if base is None:
                ref[i] = counts
                ref_pair[i] = (x, y)
            elif counts != base:
                j = next(jj for jj in range(width) if base[jj] != counts[jj])
                return DamerellTable(
                    False, None, (i, j, ref_pair[i], (x, y), base[j], counts[j])
                )
    return DamerellTable(True, tuple(tuple(r) for r in ref if r is not None), None)


@dataclass(frozen=True)
class TwoWayRelations:
    """Partition of X x X by the ordered pair (d(x,y), d(y,x)): the realized
    pairs in lexicographic order, and for every (x, y) the position of its
    pair in that order."""

    delta: tuple[tuple[int, int], ...]
    index: np.ndarray


def two_way_relations(t: DistanceTable) -> TwoWayRelations:
    if not t.strongly_connected:
        raise NotStronglyConnected("two-way relations need a strongly connected digraph")
    base = t.diameter + 1
    dist = t.array
    # Codes d(x,y) * base + d(y,x) sort in lexicographic pair order.
    codes, index = np.unique(dist * base + dist.T, return_inverse=True)
    pairs = tuple(divmod(int(c), base) for c in codes)
    return TwoWayRelations(pairs, index.reshape(dist.shape))


@dataclass(frozen=True)
class WangSuzukiResult:
    """Whether the two-way-distance classes form a commutative association
    scheme with exactly diameter + 1 classes."""

    ok: bool
    delta_size: int
    axioms: Optional[AxiomReport]

    def __bool__(self) -> bool:
        return self.ok


def wang_suzuki_drd_check(
    r: TwoWayRelations,
    t: DistanceTable,
    dm: DistanceMatrices,
    axioms: Callable[[], AxiomReport],
) -> WangSuzukiResult:
    """Whether the two-way classes form a commutative association scheme
    with D + 1 classes. With exactly D + 1 classes every distance i has one
    reverse distance, so the lexicographic order puts class i at
    d(x,y) = i: the class index is the distance table and the classes are
    the distance matrices, which is checked here (a mismatch is a fault, not
    a verdict). The scheme axioms are then those of the distance matrices:
    `axioms` returns the caller's shared report and is called only then."""
    if len(r.delta) != dm.D + 1:
        return WangSuzukiResult(False, len(r.delta), None)
    if not np.array_equal(r.index, t.array):
        raise InternalInconsistency("D + 1 two-way classes differ from the distance matrices")
    rep = axioms()
    return WangSuzukiResult(rep.all, len(r.delta), rep)
