"""Distance-matrix algebra: the pair count scan, which is the product table
of the distance matrices, and the association-scheme axioms read from it,
transpose closure, distance polynomials, walk counts, and the one-step and
two-way-distance count tables.

The distance table is the distance matrices: its level sets are the classes
A_0..A_D, and `distance_matrices` returns their partition basis on it. Every
reader works on that table and its pair count scan; a class matrix is built
only where it is multiplied, one at a time. Each fact has one route: the
scan decides product closure and commutativity in one pass over the pairs,
and the walk count test is the only power chain, which the caller shares
between check E and the adjacency algebra's basis.

Every check in this module is exact; all quantities are integer counts or
integer matrix identities, so there are no tolerances anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .digraph import Digraph, DistanceTable
from .errors import InternalInconsistency, PreconditionViolated
from .partitions import count_blocks, numpy_route, shell_counts
from .ratlin import (
    IntMatrix,
    PartitionBasis,
    RatPolynomial,
    mat_mul,
)


def distance_matrices(g: Digraph, t: DistanceTable) -> PartitionBasis:
    """The distance matrices A_0..A_D with (A_i)[x][y] = 1 iff d(x,y) = i,
    as their partition basis on the distance table, after three facts are
    verified on the table itself: A_0 = I, A_1 = A and sum A_i = J. No
    matrix is built; `PartitionBasis.member` builds one A_i when asked."""
    dist = t.array
    D = t.diameter
    if not np.array_equal(dist == 0, np.eye(g.n, dtype=bool)):
        raise InternalInconsistency("A_0 != I")
    if dist.min() < 0 or dist.max() > D:
        raise InternalInconsistency("distance classes do not partition X x X")
    if D >= 1 and not np.array_equal(dist == 1, g.matrix):
        raise InternalInconsistency("A_1 != adjacency matrix")
    return PartitionBasis(dist, D + 1)


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


def transpose_closure(basis: PartitionBasis) -> TransposeMap:
    """For i = 0..D in order, the j with A_i^T = A_j, read off the distance
    table: A_i^T = A_j iff d(x,y) = j exactly where d(y,x) = i. The failing
    index is the lowest i with no such j."""
    sigma = []
    for i in range(basis.size):
        j = _transpose_class(basis, i)
        if j is None:
            return TransposeMap(None, i)
        sigma.append(j)
    return TransposeMap(tuple(sigma), None)


def adjacency_transpose_index(basis: PartitionBasis) -> Optional[int]:
    """The j with A^T = A_j, if any, read off the distance table."""
    if basis.size == 1:
        return 0  # one-vertex digraph: conventionally closed
    return _transpose_class(basis, 1)


@dataclass(frozen=True, eq=False)
class PairCountScan:
    """Constancy scan of the counts |{z : d(x,z) = i and d(z,y) = j}| over all
    ordered pairs (x, y) grouped by h = d(x,y). The count is (A_i A_j)[x][y],
    so the scan is the distance matrices' product table: A_i A_j is in their
    span iff its counts are constant on every class h, with those constants
    as coordinates.

    values[h, i, j] holds the count seen at the first pair of class h;
    ok[i, j] says whether that count was constant over every pair. Both are
    read-only arrays. commutative says whether A_i A_j = A_j A_i for every
    i and j.
    """

    values: np.ndarray
    ok: np.ndarray
    witness: Optional[tuple]
    commutative: bool

    @property
    def all_constant(self) -> bool:
        return bool(self.ok.all())

    def coords(self, i: int, j: int) -> Optional[tuple[int, ...]]:
        """Coordinates of A_i A_j in the distance matrices, or None where the
        product leaves their span."""
        return tuple(self.values[:, i, j].tolist()) if self.ok[i, j] else None

    @property
    def first_open(self) -> Optional[tuple[int, int]]:
        """The first (i, j) in row-major order whose product leaves the span."""
        open_slots = np.flatnonzero(~self.ok)
        return divmod(int(open_slots[0]), self.ok.shape[1]) if open_slots.size else None


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


def pair_intersection_counts(t: DistanceTable) -> PairCountScan:
    """Count, for every ordered pair (x, y), the z at each distance pair
    (d(x,z), d(z,y)) and compare with the first pair of class h = d(x,y) in
    row-major order. Pairs are taken in row-major blocks of at most
    SCAN_BLOCK elements per array. The witness is the first pair in
    row-major order whose counts differ from its class's first pair, at the
    lowest (i, j) where they differ. The same pass decides commutativity:
    A_i A_j = A_j A_i for all i, j iff every pair's counts are symmetric in
    (i, j), and a pair equal to its class's first pair is symmetric iff that
    one is, so only the references and the mismatching pairs are compared."""
    dist = t.array
    n = t.n
    width = t.diameter + 1
    flat = dist.ravel()
    labels, first = np.unique(flat, return_index=True)  # first pair of each class
    if not np.array_equal(labels, np.arange(width)):
        raise InternalInconsistency(f"distance table does not realize classes 0..{width - 1}")
    ref = _pair_counts(dist, first, width)
    values = ref.reshape(width, width, width)
    commutative = bool((values == values.transpose(0, 2, 1)).all())
    bad_slots = np.zeros(width * width, dtype=bool)
    witness: Optional[tuple] = None
    for pairs in _blocks(n, width):
        counts = _pair_counts(dist, pairs, width)
        expected = ref[flat[pairs]]
        bad = counts != expected
        if not bad.any():
            continue
        bad_slots |= bad.any(axis=0)
        if commutative:
            off = counts[bad.any(axis=1)].reshape(-1, width, width)
            commutative = bool((off == off.transpose(0, 2, 1)).all())
        if witness is None:
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
    ok = (~bad_slots).reshape(width, width)
    values.flags.writeable = ok.flags.writeable = False
    return PairCountScan(values=values, ok=ok, witness=witness, commutative=commutative)


def distance_polynomials(
    basis: PartitionBasis, a: IntMatrix, scan: PairCountScan
) -> Optional[tuple[RatPolynomial, ...]]:
    """Polynomials p_i with p_i(A) = A_i and deg p_i = i, or None.

    Built by the exact three-term-style recurrence
    c_{i+1} p_{i+1}(t) = t p_i(t) - sum_{h<=i} c_h p_h(t) from the expansion
    A_i A = sum_h c_h A_h, read from the pair count scan of the distance
    table, then re-verified by induction with one product per step:
    p_0(A) = I = A_0 and p_1(A) = A = A_1 (both proved by
    `distance_matrices`), and once p_h(A) = A_h for every h <= i,
    p_{i+1}(A) = A_{i+1} holds exactly when A_i A = sum_h c_h A_h, that is
    when the distance basis solves the product A_i A to the coordinates c.
    """
    D = basis.size - 1
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
        if basis.solve(mat_mul(basis.member(i), a)) != scan.coords(i, 1):
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


def walk_count_constancy(
    basis: PartitionBasis, a: IntMatrix, max_len: Optional[int] = None
) -> WalkConstancy:
    """Check that A^l is constant on every distance class for l = 0..max_len
    (default: the diameter). max_len below the diameter would weaken the
    test and is refused. Only l <= min(D + 1, n - 1) is stepped. A^j is
    positive on the pairs at distance j and zero beyond j, so A^0..A^D are
    independent, and once constant on the classes they span the (D + 1)-
    dimensional class-constant space. A constant A^(D+1) is then in their
    span, and so is every later power; so the first failing l is at most
    D + 1, and below n by Cayley-Hamilton. Powers past the int64 bound take
    mat_mul's object-array route, so long walks stay exact."""
    D = basis.size - 1
    if max_len is None:
        max_len = D
    elif max_len < D:
        raise PreconditionViolated(f"max_len {max_len} below diameter {D}")
    power = IntMatrix.identity(a.rows)
    for ell in range(min(max_len, D + 1, a.rows - 1) + 1):
        if ell > 0:
            power = mat_mul(power, a)
        off = basis.deviation(power)
        if off is not None:
            h, (x0, y0), (x, y) = off
            v0, v1 = int(power.num[x0, y0]), int(power.num[x, y])
            return WalkConstancy(False, max_len, (ell, h, (x0, y0), (x, y), v0, v1))
    return WalkConstancy(True, max_len, None)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the association-scheme axioms on the distance matrices.
    A_0 = I and sum A_i = J are verified on the distance table
    (`distance_matrices` raises otherwise), so only transpose closure,
    product closure and commutativity are reported."""

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
    (x, y), the out-neighbors z of y counted by d(x, z), from row x of the
    distance table. Below `partitions.NUMPY_ROUTE_WORK` the rows go one at
    a time through `partitions.shell_counts`; from it on, in doubling
    blocks through `partitions.count_blocks`, by GEMM with A or by
    bincount. Each pair is compared with the first pair of its class
    i = d(x,y) in row-major order; the witness is the first pair that
    differs, at the lowest j where it does."""
    width = t.diameter + 1
    if numpy_route(g, width):
        return _damerell_blocks(g, t.array, width)
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


def _damerell_blocks(g: Digraph, dist: np.ndarray, width: int) -> DamerellTable:
    """`damerell_numbers` on blocks of source rows: a class's reference is
    set from the first block that holds one of its pairs, before that block
    is compared, and the witness's first pair of a class is looked up in the
    table."""
    n = g.n
    tails, heads = g.arc_arrays
    ref = np.zeros((width, width), dtype=np.int64)
    unseen = np.ones(width, dtype=bool)
    for lo, rows, counts in count_blocks(dist, tails, heads, width, n):
        counts = counts.reshape(-1, width)
        cls = rows.ravel()
        if unseen.any():
            labels, at = np.unique(cls, return_index=True)
            new = unseen[labels]
            ref[labels[new]] = counts[at[new]]
            unseen[labels] = False
        bad = counts != ref[cls]
        if bad.any():
            k = int(bad.any(axis=1).argmax())
            i, j = int(cls[k]), int(bad[k].argmax())
            first = divmod(int((dist == i).argmax()), n)
            pair = divmod(lo * n + k, n)
            return DamerellTable(
                False, None, (i, j, first, pair, int(ref[i, j]), int(counts[k, j]))
            )
    return DamerellTable(True, tuple(map(tuple, ref.tolist())), None)


@dataclass(frozen=True)
class TwoWayRelations:
    """Partition of X x X by the ordered pair (d(x,y), d(y,x)): the realized
    pairs in lexicographic order, and for every (x, y) the position of its
    pair in that order."""

    delta: tuple[tuple[int, int], ...]
    index: np.ndarray


def two_way_relations(t: DistanceTable) -> TwoWayRelations:
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
    axioms: Callable[[], AxiomReport],
) -> WangSuzukiResult:
    """Whether the two-way classes form a commutative association scheme
    with D + 1 classes. With exactly D + 1 classes every distance i has one
    reverse distance, so the lexicographic order puts class i at
    d(x,y) = i: the class index is the distance table and the classes are
    the distance matrices, which is checked here (a mismatch is a fault, not
    a verdict). The scheme axioms are then those of the distance matrices:
    `axioms` returns the caller's shared report and is called only then."""
    if len(r.delta) != t.diameter + 1:
        return WangSuzukiResult(False, len(r.delta), None)
    if not np.array_equal(r.index, t.array):
        raise InternalInconsistency("D + 1 two-way classes differ from the distance matrices")
    rep = axioms()
    return WangSuzukiResult(rep.all, len(r.delta), rep)
