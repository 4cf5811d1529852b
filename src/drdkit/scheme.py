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
between check E and membership in the adjacency algebra. The scan decides
a "yes" in whole-table passes: one GEMM per block of source rows for short
diameters, or one sort of keys per block for long ones, with a bincount for
the small sizes between and for the pairs past a mismatch (`scan_kernel`).

Every check in this module is exact; all quantities are integer counts or
integer matrix identities, so there are no tolerances anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .digraph import Digraph, DistanceTable
from .errors import InternalInconsistency, PreconditionViolated
from .partitions import count_blocks, numpy_route, shell_counts
from .ratlin import (
    FLOAT64_EXACT,
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
    return None if ((index == j) != (index.T == i)).any() else j


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
    i and j. Whichever kernel `scan_kernel` picks, the fields are the same:
    the kernels differ only in how they find the pairs that mismatch.
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
# allocates (of the one-hot X on GEMM, whose product holds D + 1 times as
# many); a block holds at least one pair (bincount) or one source row (GEMM,
# sorted keys), whatever the cap. Blocks of 2^14 or 2^15 elements made the
# bincount's "no"s up to 30 % slower inside `check_all`.
SCAN_BLOCK = 1 << 13

# The pair scan's kernel rule, `scan_kernel`, weighs a bincount of n keys
# into (D + 1)^2 bins per pair against a GEMM of 2 (D + 1)^2 n flops and a
# sort of n keys, by the bincount's work n^2 (n + (D + 1)^2) in all and
# by ratios per pair. GEMM runs from SCAN_GEMM_MIN_WORK on, where its flops
# are below SCAN_GEMM_FLOPS_PER_KEY times the keys and bins: every digraph
# of diameter 2, since 18 n < 18 (n + 9), and few others, because GEMM
# counts every pair of a "no" too. Sorted keys run from SCAN_SORT_MIN_WORK
# on, where the bins per pair are at least SCAN_SORT_BINS_PER_KEY times the
# keys; they fall back to the bincount at the first mismatch, so a "no" pays
# one row of sorting more, and the floor keeps their fixed cost off small
# digraphs. Set from a sweep of the three kernels on cycles, Paley
# digraphs, random digraphs, circulants, blow-ups of cycles, Kautz and
# de Bruijn digraphs (CHANGES.md, "The pair scan on GEMM or sorted keys").
SCAN_GEMM_MIN_WORK = 6000
SCAN_GEMM_FLOPS_PER_KEY = 18
SCAN_SORT_MIN_WORK = 40000
SCAN_SORT_BINS_PER_KEY = 2


def scan_kernel(n: int, width: int) -> str:
    """The pair scan's kernel for n vertices in classes [0, width):
    "gemm", "sorted" or "bincount"."""
    bins = width * width
    work = n * n * (n + bins)
    if work >= SCAN_GEMM_MIN_WORK and 2 * bins * n < SCAN_GEMM_FLOPS_PER_KEY * (n + bins):
        return "gemm"
    if work >= SCAN_SORT_MIN_WORK and bins >= SCAN_SORT_BINS_PER_KEY * n:
        return "sorted"
    return "bincount"


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


_Blocks = Iterator[tuple[np.ndarray, np.ndarray]]  # (pairs, their counts)


def _bincount_step(n: int, width: int) -> int:
    """Pairs per bincount block: under SCAN_BLOCK elements per array."""
    return max(1, SCAN_BLOCK // max(n, width * width))


def _bincount_blocks(dist: np.ndarray, width: int, start: int = 0) -> _Blocks:
    """(pairs, counts) over row-major blocks of pair indices from `start`
    on, of `_bincount_step` pairs each, by `_pair_counts`."""
    n = dist.shape[0]
    step = _bincount_step(n, width)
    for lo in range(start, n * n, step):
        pairs = np.arange(lo, min(lo + step, n * n))
        yield pairs, _pair_counts(dist, pairs, width)


def _gemm_blocks(dist: np.ndarray, values: np.ndarray) -> _Blocks:
    """(pairs, counts) of the blocks of source rows whose counts differ from
    their class's reference somewhere. Every count of a block is one entry
    of the float64 product of its one-hot X[(x, i)][z] = [d(x,z) = i], of up
    to SCAN_BLOCK elements, with Y[z][(j, y)] = [d(z,y) = j], built once; no
    count exceeds n < 2^53, so the product is exact. A block is tested in
    one comparison with values[d(x,y), i, j]."""
    n, width = dist.shape[0], values.shape[0]
    classes = np.arange(width)[:, None]
    after = (dist[:, None, :] == classes).reshape(n, width * n).astype(np.float64)
    expected = values.transpose(1, 2, 0).astype(np.float64)  # [i, j, h]
    step = max(1, SCAN_BLOCK // (width * n))
    for lo in range(0, n, step):
        rows = dist[lo : lo + step]
        b = len(rows)
        before = (rows[:, None, :] == classes).reshape(b * width, n).astype(np.float64)
        counts = (before @ after).reshape(b, width, width, n)  # [x, i, j, y]
        if np.array_equal(counts.transpose(1, 2, 0, 3), expected[:, :, rows]):
            continue
        counts = counts.transpose(0, 3, 1, 2).reshape(b * n, width * width)
        yield np.arange(lo * n, (lo + b) * n), counts.astype(np.int64)


def _sorted_key_blocks(dist: np.ndarray, first: np.ndarray, width: int) -> _Blocks:
    """(pairs, counts) of every pair from the first block of source rows
    that holds a pair whose counts differ from its class's reference, by
    `_bincount_blocks`. A pair's counts are the multiset of its n keys
    d(x,z) * width + d(z,y), so they equal the reference's exactly when the
    sorted keys do; blocks double from one source row, so a "no" at vertex 0
    sorts one row."""
    n = dist.shape[0]
    table = dist.astype(np.int32)  # keys stay below MAX_VERTICES^2 < 2^31
    after = table.T[None]  # after[0][y][z] = d(z,y)
    x, y = np.divmod(first, n)
    ref = np.sort(table[x] * width + after[0, y], axis=1)  # one row per class
    cap = max(1, SCAN_BLOCK // (n * n))
    lo, step = 0, 1
    while lo < n:
        rows = table[lo : lo + step]
        keys = np.sort(rows[:, None, :] * width + after, axis=2)
        if not np.array_equal(keys, ref[rows]):
            yield from _bincount_blocks(dist, width, lo * n)
            return
        lo += step
        step = min(2 * step, cap)


def pair_intersection_counts(t: DistanceTable, reps: Optional[np.ndarray] = None) -> PairCountScan:
    """Count, for every ordered pair (x, y), the z at each distance pair
    (d(x,z), d(z,y)) and compare with the first pair of class h = d(x,y) in
    row-major order. `reps`, when given, holds those first pairs as flat
    indices, as `PartitionBasis.reps` of the distance basis does, which
    has checked that the table realizes the classes 0..D; otherwise the
    scan finds them and checks that itself.

    `scan_kernel` picks how the pairs are decided. On the bincount, when one
    block holds all n^2 pairs (every digraph with at most 9 vertices, at
    the default SCAN_BLOCK), they are counted once and the class references
    are read off that count; otherwise the references are counted by one
    bincount and the other pairs by bincount in row-major blocks of pairs,
    by GEMM in blocks of source rows, or by sorted keys in blocks of source
    rows until a block holds a mismatch, and by bincount from there on.
    The witness is the first pair in row-major order whose counts differ
    from its class's first pair, at the lowest (i, j) where they differ.
    The same pass decides commutativity: A_i A_j = A_j A_i for all i, j iff
    every pair's counts are symmetric in (i, j), and a pair equal to its
    class's first pair is symmetric iff that one is, so only the references
    and the mismatching pairs are compared."""
    dist = t.array
    n = t.n
    width = t.diameter + 1
    flat = dist.ravel()
    first = reps
    if first is None:
        labels, first = np.unique(flat, return_index=True)
        if not np.array_equal(labels, np.arange(width)):
            raise InternalInconsistency(f"distance table does not realize classes 0..{width - 1}")
    kernel = scan_kernel(n, width)
    one_block = kernel == "bincount" and _bincount_step(n, width) >= n * n
    if one_block:
        pairs = np.arange(n * n)
        counts = _pair_counts(dist, pairs, width)
        ref = counts[first]
    else:
        ref = _pair_counts(dist, first, width)
    values = ref.reshape(width, width, width)
    commutative = bool((values == values.transpose(0, 2, 1)).all())
    blocks: Iterable[tuple[np.ndarray, np.ndarray]]
    if one_block:
        blocks = [(pairs, counts)]
    elif kernel == "gemm":
        blocks = _gemm_blocks(dist, values)
    elif kernel == "sorted":
        blocks = _sorted_key_blocks(dist, first, width)
    else:
        blocks = _bincount_blocks(dist, width)
    bad_slots = np.zeros(width * width, dtype=bool)
    witness: Optional[tuple] = None
    for pairs, counts in blocks:
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
    when the product A_i A equals c on every class. A must be 01, as every
    adjacency matrix is: A_i is 01 too, so every partial sum of an entry of
    A_i A is at most n < 2^53, and the product runs on float64 exactly
    (ratlin's FLOAT64_EXACT argument).
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
        polys.append(nxt if lead == 1 else nxt.scale(Fraction(1) / lead))
    if any(p.degree != i for i, p in enumerate(polys)):
        return None
    stepper = a.num.astype(np.float64)
    for i in range(1, D):
        product = (basis.index == i).astype(np.float64) @ stepper
        if not np.array_equal(product, np.array(scan.coords(i, 1))[basis.index]):
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
    test and is refused. basis must be the distance basis of a, as
    `distance_matrices` returns it: that proves A^0 = A_0 and A^1 = A_1, so
    the chain starts at l = 2, and only l <= min(D + 1, n - 1) is stepped.
    A^j is positive on the pairs at distance j and zero beyond j, so
    A^0..A^D are independent, and once constant on the classes they span
    the (D + 1)-dimensional class-constant space. A constant A^(D+1) is
    then in their span, and so is every later power; so the first failing
    l is at most D + 1, and below n by Cayley-Hamilton.

    The chain steps on float64 while it is exact. With rho the max row sum
    of |A| and t its max |entry|, every row sum of |A^l| is at most rho^l,
    so every partial sum of an entry of A^l A is at most rho^l * t; below
    2^53 float64 holds them all (ratlin's FLOAT64_EXACT argument) and the
    step is exact in any summation order. That bound is carried from step
    to step, never rescanned. Past it, the chain goes on in `mat_mul`'s
    exact tiers, whose object arrays keep long walks exact."""
    D = basis.size - 1
    if max_len is None:
        max_len = D
    elif max_len < D:
        raise PreconditionViolated(f"max_len {max_len} below diameter {D}")
    n = a.rows
    top, rho = a.abs_bounds()
    index, reps = basis.index, basis.reps
    stepper = a.num.astype(np.float64)
    power = stepper
    exact: Optional[IntMatrix] = None
    row_sum = rho  # bounds every row sum of |power|
    for ell in range(2, min(max_len, D + 1, n - 1) + 1):
        if exact is None and row_sum * top < FLOAT64_EXACT:
            power = power @ stepper
            row_sum *= rho
        else:
            if exact is None:
                exact = IntMatrix(power.astype(np.int64))
            exact = mat_mul(exact, a)
            power = exact.num
        bad = power != power.ravel()[reps][index]
        if bad.any():
            h = int(index[bad].min())
            x, y = divmod(int(np.flatnonzero(bad & (index == h))[0]), n)
            x0, y0 = divmod(int(reps[h]), n)
            v0, v1 = int(power[x0, y0]), int(power[x, y])
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
    distance table. Row 0, and below `partitions.NUMPY_ROUTE_WORK` every
    row, goes one at a time through `partitions.shell_counts`; from it on,
    the later rows go in blocks through `partitions.count_blocks`, by GEMM
    with A or by bincount. Each pair is compared with the first pair of its
    class i = d(x,y) in row-major order; the witness is the first pair that
    differs, at the lowest j where it does."""
    width = t.diameter + 1
    blocks = numpy_route(g, width)
    ref: list[Optional[list[int]]] = [None] * width
    ref_pair: list[tuple[int, int]] = [(-1, -1)] * width
    for x in range(1 if blocks else g.n):
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
    if blocks:
        return _damerell_blocks(g, t.array, width, ref)
    return DamerellTable(True, tuple(tuple(r) for r in ref if r is not None), None)


def _damerell_blocks(
    g: Digraph, dist: np.ndarray, width: int, row0: list[Optional[list[int]]]
) -> DamerellTable:
    """`damerell_numbers` on blocks of the rows after row 0, which set the
    references in row0. A class that row 0 lacks takes its reference from
    the first block that holds one of its pairs, before that block is
    compared. A block passes in one comparison, and the witness's first
    pair of a class is looked up in the table."""
    n = g.n
    tails, heads = g.arc_arrays
    unseen = np.array([r is None for r in row0])
    ref = np.array([[0] * width if r is None else r for r in row0], dtype=np.int64)
    for lo, rows, counts in count_blocks(dist, tails, heads, width, n):
        counts = counts.reshape(-1, width)
        cls = rows.ravel()
        if unseen.any():
            labels, at = np.unique(cls, return_index=True)
            new = unseen[labels]
            ref[labels[new]] = counts[at[new]]
            unseen[labels] = False
        expected = ref[cls]
        if np.array_equal(counts, expected):
            continue
        bad = counts != expected
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
    """The two-way classes of the table, by one bincount: the codes
    d(x,y) * (D + 1) + d(y,x) sort in lexicographic pair order and all lie
    below (D + 1)^2, so the codes present are the nonzero bins, in order,
    and a pair's position among them is the running count of present codes
    below its own."""
    base = t.diameter + 1
    dist = t.array
    codes = dist * base + dist.T
    present = np.bincount(codes.ravel(), minlength=base * base) > 0
    rank = np.cumsum(present) - 1
    pairs = tuple(divmod(c, base) for c in np.flatnonzero(present).tolist())
    return TwoWayRelations(pairs, rank[codes])


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
