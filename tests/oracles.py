"""Independent brute-force oracles used by the test suite.

Nothing here reuses the library's algorithms: distances come from
Floyd-Warshall instead of BFS, girth from explicit cycle enumeration or
from Floyd-Warshall's shortest closed walks, the strongly connected
digraphs on n vertices from a loop over every arc mask with Floyd-Warshall's
reachability instead of a batched closure, transposes of distance
matrices from comparing whole transposed arrays, walk
counts from recursive enumeration, minimal polynomials from a divisor
search over the factored characteristic polynomial and, modulo a prime,
from the first dependence among the vectorized powers of the matrix, the
pair intersection counts from one dictionary per ordered pair, matrix
products from the textbook triple loop, the product table of the distance
matrices from their products and span solves, the two-way classes from
`numpy.unique` over the pairs' codes, the walk count test from a chain that
compares every power from A^0 on, distance polynomials by
evaluating each of them at A from scratch, the distance-partition scans from
the textbook equitability count on every vertex's cells, Damerell's
one-step table from a plain loop over pairs and arcs, the scheme axioms
of a matrix family from its sum, transposes and `numpy` products, and the
canonical report text from the standard library's `json.dumps`.

The two last sections are different. The first holds identities from the
paper's sources that no verdict reads, composed from library primitives so
that the tests can check them: intersection numbers counted over pairs
against the matrix product table, weak distance-regularity and its link with
normality and Damerell's table, the Hoffman polynomial, and the float
predistance polynomials with their two inner products, the spectral side of
the excess bound. The second builds test matrices.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np
import sympy

from drdkit.digraph import regularity, strongly_connected
from drdkit.errors import InternalInconsistency, PreconditionViolated, SpectralError
from drdkit.ratlin import (
    FLOAT64_EXACT,
    IntMatrix,
    PartitionBasis,
    RatPolynomial,
    adjacency_matrix,
    eval_poly_at_matrix,
    mat_mul,
    minimal_polynomial,
)
from drdkit.scheme import (
    TwoWayRelations,
    WalkConstancy,
    damerell_numbers,
    distance_matrices,
    distance_polynomials,
    pair_intersection_counts,
)
from drdkit.spectral import Spectrum, is_normal

INF = math.inf


def floyd_warshall(adj, zero_diagonal: bool = True) -> list[list[float]]:
    """All-pairs shortest directed path lengths by Floyd-Warshall. Without
    zero_diagonal the diagonal starts unreachable and ends as the length of
    a shortest closed walk through each vertex."""
    n = len(adj)
    dist = [
        [0 if i == j and zero_diagonal else (1 if adj[i][j] else INF) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            for j in range(n):
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist


def table_by_floyd_warshall(adj):
    """(distances with -1 for unreachable, diameter, girth, strongly
    connected) by Floyd-Warshall: the diameter is the largest finite
    distance, and the girth the shortest closed walk (None without one)."""
    dist = floyd_warshall(adj)
    closed = floyd_warshall(adj, zero_diagonal=False)
    finite = [d for row in dist for d in row if d != INF]
    girth = min((closed[v][v] for v in range(len(adj)) if closed[v][v] != INF), default=None)
    return (
        [[-1 if d == INF else d for d in row] for row in dist],
        max(finite),
        girth,
        len(finite) == len(adj) ** 2,
    )


def strongly_connected_digraphs_by_mask(n: int) -> list[list[tuple[int, int]]]:
    """The arc lists of every strongly connected digraph on vertices
    0..n-1, in mask order: bit b of a mask is the b-th off-diagonal pair in
    row-major order, and a mask is kept when Floyd-Warshall finds every
    distance finite."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    found = []
    for mask in range(1 << len(pairs)):
        arcs = [pair for b, pair in enumerate(pairs) if mask >> b & 1]
        adj = [[False] * n for _ in range(n)]
        for u, v in arcs:
            adj[u][v] = True
        if INF not in (d for row in floyd_warshall(adj) for d in row):
            found.append(arcs)
    return found


def class_matrices(index: np.ndarray, size: int) -> tuple[IntMatrix, ...]:
    """The 01 matrices M_0..M_{size-1} with (M_i)[x][y] = 1 iff
    index[x][y] = i, for an array index with entries in [0, size)."""
    return tuple(IntMatrix((index == i).astype(np.int64)) for i in range(size))


def distance_stack(t) -> tuple[IntMatrix, ...]:
    """The distance matrices A_0..A_D of a strongly connected distance
    table, all of them at once."""
    return class_matrices(t.array, t.diameter + 1)


def transpose_closure_by_matrices(mats):
    """(sigma, failing index) of the transpose search over a family of 01
    RatMatrix objects: for each i in order, the first j whose array equals
    the transposed array of mats[i]; the failing index is the first i with
    none."""
    sigma = []
    for i, m in enumerate(mats):
        j = next((j for j, c in enumerate(mats) if np.array_equal(m.num.T, c.num)), None)
        if j is None:
            return None, i
        sigma.append(j)
    return tuple(sigma), None


def adjacency_transpose_by_matrices(mats):
    """The first j with mats[1] transposed equal to mats[j], or None; 0 for
    the one-vertex family (mats[0] alone)."""
    if len(mats) == 1:
        return 0
    return next((j for j, c in enumerate(mats) if np.array_equal(mats[1].num.T, c.num)), None)


def partition_basis_by_matrices(mats) -> Optional[PartitionBasis]:
    """The partition basis of a family of IntMatrix objects, found by
    stacking whole arrays: None unless they are nonzero 01 matrices of one
    shape that sum to all-ones; else the basis on the stack's argmax."""
    arrs = [m.num for m in mats]
    if not arrs or len({a.shape for a in arrs}) != 1:
        return None
    stack = np.stack(arrs)
    if (
        not ((stack == 0) | (stack == 1)).all()
        or not stack.any(axis=(1, 2)).all()
        or (stack.sum(axis=0) != 1).any()
    ):
        return None
    return PartitionBasis(stack.argmax(axis=0), len(mats))


def _in_disjoint_span(prod, supports):
    """Whether an integer array is a combination of 0/1 arrays with disjoint
    supports: constant on each support and zero off their union."""
    off = np.ones(prod.shape, dtype=bool)
    for support in supports:
        if len(np.unique(prod[support])) > 1:
            return False
        off &= ~support
    return not prod[off].any()


def scheme_axioms_by_matrices(mats):
    """The five association-scheme axioms of a family of 0/1 RatMatrix
    objects with disjoint supports, on whole integer arrays: mats[0] is the
    identity, the family sums to the all-ones matrix, is closed under
    transpose, and every product mats[i] @ mats[j] (numpy int64) is constant
    on each support and commutes. Returns a dict of the five flags and the
    witness of the first failing axiom in that order: the first i whose
    transpose is not in the family, the first product in row-major order
    outside the span, the first pair i < j in row-major order that does not
    commute."""
    arrs = [m.num for m in mats]
    n = arrs[0].shape[0]
    supports = [a != 0 for a in arrs]
    assert all(set(np.unique(a)) <= {0, 1} for a in arrs), "family must be 0/1"
    assert not (sum(s.astype(int) for s in supports) > 1).any(), "supports must be disjoint"
    witness = None
    identity = np.array_equal(arrs[0], np.eye(n, dtype=arrs[0].dtype))
    if not identity:
        witness = "first matrix is not the identity"
    sum_to_j = np.array_equal(sum(arrs), np.ones((n, n), dtype=np.int64))
    if not sum_to_j and witness is None:
        witness = "family does not sum to the all-ones matrix"
    failing = transpose_closure_by_matrices(mats)[1]
    if failing is not None and witness is None:
        witness = f"transpose of matrix {failing} is not in the family"
    size = len(arrs)
    products = [[arrs[i] @ arrs[j] for j in range(size)] for i in range(size)]
    open_pair = next(
        ((i, j) for i in range(size) for j in range(size)
         if not _in_disjoint_span(products[i][j], supports)),
        None,
    )
    if open_pair is not None and witness is None:
        witness = "product {}*{} leaves the span".format(*open_pair)
    noncommuting = next(
        ((i, j) for i in range(size) for j in range(i + 1, size)
         if not np.array_equal(products[i][j], products[j][i])),
        None,
    )
    if noncommuting is not None and witness is None:
        witness = "matrices {} and {} do not commute".format(*noncommuting)
    return {
        "identity": identity,
        "sum_to_j": sum_to_j,
        "transpose_closed": failing is None,
        "product_closed": open_pair is None,
        "commutative": noncommuting is None,
        "witness": witness,
    }


def brute_girth(adj):
    """Length of a shortest directed cycle found by DFS over simple paths,
    or None when the digraph is acyclic. Exponential; for n <= 7."""
    n = len(adj)
    best = [None]

    def extend(start: int, current: int, length: int, visited: set) -> None:
        if best[0] is not None and length >= best[0]:
            return
        for nxt in range(n):
            if not adj[current][nxt]:
                continue
            if nxt == start:
                if best[0] is None or length + 1 < best[0]:
                    best[0] = length + 1
            elif nxt not in visited:
                visited.add(nxt)
                extend(start, nxt, length + 1, visited)
                visited.remove(nxt)

    for v in range(n):
        extend(v, v, 0, {v})
    return best[0]


def count_walks(adj, x: int, y: int, length: int) -> int:
    """Number of directed walks of the given length, by recursion."""
    n = len(adj)

    @lru_cache(maxsize=None)
    def rec(v: int, remaining: int) -> int:
        if remaining == 0:
            return 1 if v == y else 0
        return sum(rec(u, remaining - 1) for u in range(n) if adj[v][u])

    return rec(x, length)


def mat_mul_reference(a, b) -> tuple[tuple, ...]:
    """Product of two nested lists of ints or Fractions by the triple loop,
    as row tuples, in Python arithmetic."""
    cols = list(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), 0) for col in cols) for row in a)


def _poly_at(coeffs, a):
    """coeffs (lowest power first) evaluated at the square nested list a by
    Horner with the triple-loop product, in Python arithmetic."""
    n = len(a)
    eye = [[int(x == y) for y in range(n)] for x in range(n)]
    acc = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = mat_mul_reference(acc, a)
        acc = [[v + c * e for v, e in zip(row, erow)] for row, erow in zip(acc, eye)]
    return acc


def distance_polynomials_by_evaluation(mats, products):
    """Coefficients (lowest power first) of p_0..p_D with p_i(A) = A_i and
    deg p_i = i, or None. mats are the distance matrices A_0..A_D as nested
    lists of ints, and products.coords(i, 1) the coordinates c of
    A_i A = sum c_h A_h (or None). The p_i follow
    c_{i+1} p_{i+1} = t p_i - sum_{h<=i} c_h p_h, and every p_i is then
    checked by evaluating it at A = A_1 from scratch, O(D**2) products in
    all."""
    D = len(mats) - 1
    polys = [[Fraction(1)]] + ([[Fraction(0), Fraction(1)]] if D >= 1 else [])
    for i in range(1, D):
        c = products.coords(i, 1)
        if c is None or c[i + 1] == 0:
            return None
        assert not any(c[i + 2 :]), "one-step expansion reaches past distance i+1"
        nxt = [Fraction(0)] + polys[i]
        for h in range(i + 1):
            for e, x in enumerate(polys[h]):
                nxt[e] -= c[h] * x
        polys.append([x / c[i + 1] for x in nxt])
    a = mats[min(D, 1)]  # A; for D = 0 only the constant p_0 is evaluated
    for i, p in enumerate(polys):
        while p and p[-1] == 0:
            p.pop()
        if len(p) != i + 1 or _poly_at(p, a) != mats[i]:
            return None
    return tuple(map(tuple, polys))


def minimal_polynomial_coeffs(adj) -> tuple[Fraction, ...]:
    """Monic minimal polynomial coefficients (ascending) via sympy: factor
    the characteristic polynomial and search monic divisors by degree."""
    m = sympy.Matrix(adj)
    lam = sympy.Symbol("lam")
    charpoly = m.charpoly(lam).as_expr()
    _, factors = sympy.factor_list(charpoly)

    def annihilates(poly_expr) -> bool:
        coeffs = sympy.Poly(poly_expr, lam).all_coeffs()
        acc = sympy.zeros(m.rows, m.rows)
        for c in coeffs:
            acc = acc * m + c * sympy.eye(m.rows)
        return acc == sympy.zeros(m.rows, m.rows)

    candidates = [sympy.Integer(1)]
    for factor, mult in factors:
        candidates = [
            c * factor**e for c in candidates for e in range(mult + 1)
        ]
    best = None
    for cand in candidates:
        poly = sympy.Poly(cand, lam)
        if best is not None and poly.degree() >= best.degree():
            continue
        if annihilates(poly.monic().as_expr()):
            best = poly.monic()
    assert best is not None, "characteristic polynomial must annihilate"
    coeffs = [Fraction(str(c)) for c in best.all_coeffs()]
    coeffs.reverse()
    return tuple(coeffs)


def minimal_polynomial_mod(a, p: int) -> list[int]:
    """Monic minimal polynomial of a over GF(p), lowest power first, with
    coefficients in [0, p): the first dependence among the vectorized powers
    I, a, a^2, ..., found by growing their reduced echelon form mod p.

    a is an int64 array with entries in [0, p), and n * (p - 1)**2 < 2**63
    for its size n, so no step overflows."""
    n = a.shape[0]
    width = n * n
    # Reduced echelon rows, pivot entry 1, each followed by the coefficients
    # c of the powers it combines: row = (sum c_i a^i vectorized, c).
    rows = np.zeros((0, width + n + 1), dtype=np.int64)
    pivots: list[int] = []
    power = np.eye(n, dtype=np.int64)
    for k in range(n + 1):  # Cayley-Hamilton guarantees a dependence by degree n
        vec = np.zeros(width + n + 1, dtype=np.int64)
        vec[:width] = power.ravel()
        vec[width + k] = 1
        # The rows are zero at each other's pivots, so one combination reduces.
        vec = (vec - vec[pivots] @ rows) % p
        nonzero = np.flatnonzero(vec[:width])
        if not nonzero.size:
            return vec[width : width + k + 1].tolist()
        q = int(nonzero[0])
        vec = vec * pow(int(vec[q]), -1, p) % p
        rows -= np.outer(rows[:, q], vec)
        rows %= p
        rows = np.vstack((rows, vec))
        pivots.append(q)
        power = power @ a % p
    raise AssertionError("no dependence found by degree n")


def equitable_params_direct(adj, cells):
    """Parameter matrices of an equitable partition by the textbook double
    count, or None. Independent re-statement of the definition."""
    n = len(adj)
    cell_of = {}
    for idx, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = idx
    s = len(cells)
    d_out = []
    d_in = []
    for cell in cells:
        out_ref = None
        in_ref = None
        for y in sorted(cell):
            out_row = [0] * s
            in_row = [0] * s
            for z in range(n):
                if adj[y][z]:
                    out_row[cell_of[z]] += 1
                if adj[z][y]:
                    in_row[cell_of[z]] += 1
            if out_ref is None:
                out_ref, in_ref = out_row, in_row
            elif (out_row, in_row) != (out_ref, in_ref):
                return None
        d_out.append(tuple(out_ref))
        d_in.append(tuple(in_ref))
    return tuple(d_out), tuple(d_in)


def distance_regular_scan_direct(adj, labels, direction: str):
    """(params, failure) of the out- ("out") or in-distance ("in") scan of a
    strongly connected digraph: around every vertex x in order, the cells
    {z : d(x,z) = i} (or d(z,x) = i) of its Floyd-Warshall distances must
    be as many as around vertex 0, equitable by `equitable_params_direct`,
    and give vertex 0's (d_out, d_in, cell sizes). The failure names the
    first vertex where one of the three fails, in that order."""
    n = len(adj)
    dist = floyd_warshall(adj)
    reference = None
    ref_cells = None
    for x in range(n):
        d = [dist[x][z] if direction == "out" else dist[z][x] for z in range(n)]
        cells = [[z for z in range(n) if d[z] == i] for i in range(int(max(d)) + 1)]
        if ref_cells is None:
            ref_cells = len(cells)
        elif len(cells) != ref_cells:
            return None, (
                f"vertex {labels[x]} has {len(cells) - 1} {direction}-distance classes, "
                f"vertex {labels[0]} has {ref_cells - 1}"
            )
        found = equitable_params_direct(adj, cells)
        if found is None:
            return None, f"{direction}-distance partition around {labels[x]} is not equitable"
        params = (*found, tuple(len(c) for c in cells))
        if reference is None:
            reference = params
        elif params != reference:
            return None, (
                f"{direction}-distance parameters around {labels[x]} differ "
                f"from those around {labels[0]}"
            )
    return reference, None


def damerell_table_direct(adj):
    """(exists, b, witness) of Damerell's one-step table of a strongly
    connected digraph: for every pair (x, y) in row-major order, the counts
    |{z : y -> z, d(x,z) = j}| compared with the first pair of its class
    i = d(x,y). The witness (i, j, first pair, pair, count there, count
    here) is the first pair that differs, at its lowest j."""
    n = len(adj)
    dist = floyd_warshall(adj)
    D = int(max(max(row) for row in dist))
    ref = {}
    for x in range(n):
        for y in range(n):
            i = int(dist[x][y])
            counts = [0] * (D + 1)
            for z in range(n):
                if adj[y][z]:
                    counts[int(dist[x][z])] += 1
            if i not in ref:
                ref[i] = (counts, (x, y))
                continue
            base, pair0 = ref[i]
            if counts != base:
                j = min(jj for jj in range(D + 1) if base[jj] != counts[jj])
                return False, None, (i, j, pair0, (x, y), base[j], counts[j])
    return True, tuple(tuple(ref[i][0]) for i in sorted(ref)), None


def _normalize_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _normalize_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize_floats(v) for v in obj]
    return obj


def canonical_json_by_dumps(doc) -> str:
    """The canonical report text: floats at 12 significant digits, sorted
    keys, indent 2, through the standard library's encoder."""
    return json.dumps(_normalize_floats(doc), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class ProductTable:
    """Coordinates table[i][j] of every product A_i A_j of the distance
    matrices in their partition basis (None where the product leaves the
    span), and the first pair whose two orders of product differ. It reads
    like the library's `PairCountScan`, so either can be passed where the
    other is."""

    table: tuple[tuple[Optional[tuple[int, ...]], ...], ...]
    noncommuting: Optional[tuple[int, int]]  # first (i, j), i < j, with A_i A_j != A_j A_i

    def coords(self, i: int, j: int) -> Optional[tuple[int, ...]]:
        return self.table[i][j]

    @property
    def first_open(self) -> Optional[tuple[int, int]]:
        """The first (i, j) in row-major order whose product leaves the span."""
        return next(
            ((i, j) for i, row in enumerate(self.table) for j, c in enumerate(row) if c is None),
            None,
        )

    @property
    def all_constant(self) -> bool:
        return self.first_open is None

    @property
    def commutative(self) -> bool:
        return self.noncommuting is None


def product_table_by_matrices(mats) -> ProductTable:
    """Multiply every ordered pair of the distance matrices with `mat_mul`,
    solve each product in their partition basis (found by stacking them),
    and compare the two orders of each pair exactly, whether or not the
    products lie in the span."""
    basis = partition_basis_by_matrices(mats)
    size = len(mats)
    table: list[list] = [[None] * size for _ in range(size)]
    noncommuting = None
    for i in range(size):
        for j in range(i, size):
            prod = mat_mul(mats[i], mats[j])
            table[i][j] = basis.solve(prod)
            if j == i:
                continue
            reverse = mat_mul(mats[j], mats[i])
            table[j][i] = basis.solve(reverse)
            if reverse != prod and noncommuting is None:
                noncommuting = (i, j)
    return ProductTable(tuple(map(tuple, table)), noncommuting)


def pair_counts_by_dict(dist, D: int):
    """(values, ok, witness) of the pair count scan, with one dictionary of
    counts |{z : d(x,z) = i and d(z,y) = j}| per ordered pair (x, y) of a
    strongly connected distance table of diameter D, compared with the
    first pair of its class h = d(x,y) in row-major order. The witness
    (i, j, h, first pair, pair, count there, count here) is the first
    mismatching pair in row-major order, at its lowest (i, j)."""
    n = len(dist)
    ref = [None] * (D + 1)
    ref_pair = [(-1, -1)] * (D + 1)
    ok = [[True] * (D + 1) for _ in range(D + 1)]
    witness = None
    for x in range(n):
        for y in range(n):
            h = int(dist[x][y])
            counts: dict = {}
            for z in range(n):
                key = (int(dist[x][z]), int(dist[z][y]))
                counts[key] = counts.get(key, 0) + 1
            if ref[h] is None:
                ref[h] = counts
                ref_pair[h] = (x, y)
                continue
            for key in sorted(set(ref[h]) | set(counts)):
                v0, v1 = ref[h].get(key, 0), counts.get(key, 0)
                if v0 != v1:
                    i, j = key
                    ok[i][j] = False
                    if witness is None:
                        witness = (i, j, h, ref_pair[h], (x, y), v0, v1)
    values = tuple(
        tuple(tuple(ref[h].get((i, j), 0) for j in range(D + 1)) for i in range(D + 1))
        for h in range(D + 1)
    )
    return values, tuple(map(tuple, ok)), witness


def two_way_relations_by_unique(t) -> TwoWayRelations:
    """The two-way classes of a distance table by sorting: `numpy.unique`
    over the codes d(x,y) * (D + 1) + d(y,x), which sort in lexicographic
    pair order, with each pair's position among them."""
    base = t.diameter + 1
    dist = t.array
    codes, index = np.unique(dist * base + dist.T, return_inverse=True)
    pairs = tuple(divmod(int(c), base) for c in codes)
    return TwoWayRelations(pairs, index.reshape(dist.shape))


def walk_count_constancy_from_zero(
    basis: PartitionBasis, a: IntMatrix, max_len: Optional[int] = None
) -> WalkConstancy:
    """The walk count test with every power compared from A^0 on: the
    reference for `scheme.walk_count_constancy`, which starts at A^2. The
    chain steps on float64 while the carried bound rho^(l-1) * max|A| is
    below 2^53, and through `mat_mul` past it."""
    D = basis.size - 1
    if max_len is None:
        max_len = D
    elif max_len < D:
        raise PreconditionViolated(f"max_len {max_len} below diameter {D}")
    n = a.rows
    top, rho = a.abs_bounds()
    index, reps = basis.index, basis.reps
    power = np.eye(n)
    stepper = a.num.astype(np.float64)
    exact: Optional[IntMatrix] = None
    row_sum = 1
    for ell in range(min(max_len, D + 1, n - 1) + 1):
        if ell > 0:
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


# Identities from the paper's sources that no verdict reads, composed from
# library primitives.


@dataclass(frozen=True)
class IntersectionTensor:
    """Intersection numbers p[h][i][j] = |{z : d(x,z)=i, d(z,y)=j}| for any
    pair with d(x,y) = h, when that count is pair-independent."""

    exists: bool
    p: Optional[list[list[list[int]]]]
    witness: Optional[tuple]


def intersection_numbers(t) -> IntersectionTensor:
    """The library's pair count scan cross-checked against the span
    coordinates of every product A_i * A_j in the matrix product table; any
    disagreement between the two routes raises InternalInconsistency (it
    would be a bug, not a property of the graph)."""
    scan = pair_intersection_counts(t)
    D = t.diameter
    products = product_table_by_matrices(distance_stack(t))
    for i in range(D + 1):
        for j in range(D + 1):
            coeffs = products.coords(i, j)
            if scan.ok[i, j] != (coeffs is not None):
                raise InternalInconsistency(
                    f"count scan and span solve disagree on slice ({i},{j})"
                )
            if coeffs is not None:
                for h in range(D + 1):
                    if coeffs[h] != scan.values[h, i, j]:
                        raise InternalInconsistency(
                            f"p^{h}_{{{i}{j}}}: scan {scan.values[h, i, j]} vs solve {coeffs[h]}"
                        )
    if scan.all_constant:
        return IntersectionTensor(True, scan.values.tolist(), None)
    return IntersectionTensor(False, None, scan.witness)


def weak_dr_comellas(g, t) -> bool:
    """Weak distance-regularity: every distance matrix is a polynomial of its
    own degree in the adjacency matrix (equivalently, walk counts up to the
    diameter depend only on distance)."""
    products = product_table_by_matrices(distance_stack(t))
    return distance_polynomials(distance_matrices(g, t), adjacency_matrix(g), products) is not None


def comellas_damerell_link(g, t) -> bool:
    """Consistency predicate: on weakly distance-regular digraphs, adjacency
    normality and the existence of the one-step forward count table must
    coincide. Always true for a correct implementation."""
    if not weak_dr_comellas(g, t):
        return True
    return is_normal(adjacency_matrix(g)) == damerell_numbers(g, t).exists


@dataclass(frozen=True)
class HoffmanResult:
    """Least-degree polynomial h with h(A) = J, or the reason it is absent."""

    poly: Optional[RatPolynomial]
    reason: Optional[str]  # "not-strongly-connected" | "not-regular"

    @property
    def exists(self) -> bool:
        return self.poly is not None


def divide_linear(p: RatPolynomial, root) -> RatPolynomial:
    """Exact synthetic division of p by (t - root); raises ValueError if
    root is not a root."""
    if p.is_zero():
        return p
    quot = []
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * root + c
        quot.append(acc)
    remainder = quot.pop()
    if remainder != 0:
        raise ValueError(f"{root} is not a root (remainder {remainder})")
    quot.reverse()
    return RatPolynomial.from_coeffs(quot)


def hoffman_polynomial(g) -> HoffmanResult:
    """The unique least-degree h with h(A) = J, for strongly connected
    regular digraphs (Hoffman and McAndrew, Proc. AMS 16, 1965):
    h = n * s(t) / s(k) where (t - k) * s(t) is the minimal polynomial of A.
    The identity h(A) = J is re-verified exactly."""
    if not strongly_connected(g):
        return HoffmanResult(None, "not-strongly-connected")
    k = regularity(g)
    if k is None:
        return HoffmanResult(None, "not-regular")
    a = adjacency_matrix(g)
    s = divide_linear(minimal_polynomial(a), k)
    h = s.scale(Fraction(g.n) / s(k))
    if eval_poly_at_matrix(h, a) != ones(g.n):
        raise InternalInconsistency("h(A) != J for a regular strongly connected digraph")
    return HoffmanResult(h, None)


class DegenerateGram(SpectralError):
    """Gram-Schmidt step produced a numerically singular norm."""


class NonPositiveNorm(SpectralError):
    """Orthogonal polynomial cannot be normalized to a positive value."""


def perron(s: Spectrum) -> complex:
    """The Perron value, which `spectrum` lists first."""
    return s.eigs[0][0]


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


def poly_inner_product_trace(p: np.ndarray, q: np.ndarray, a: IntMatrix) -> complex:
    """Trace-form inner product (1/n) trace(p(A) conj(q(A))^T): the
    independent oracle for poly_inner_product on normal matrices."""
    arr = a.num.astype(complex)
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


def predistance_polynomials(s: Spectrum, residue_tol: float = 1e-8) -> PredistanceSet:
    """Gram-Schmidt on the monomial basis 1, t, ..., t^d under the
    spectrum-weighted inner product, rescaled so each norm-squared equals the
    value at the Perron eigenvalue (Fiol and Garriga, JCTB 71, 1997).

    A second orthogonalization pass guards against cancellation. Raises
    DegenerateGram on a numerically vanishing norm and NonPositiveNorm when
    the value at the Perron eigenvalue is not real positive.
    """
    lam0 = perron(s)
    if lam0.imag != 0.0:
        raise PreconditionViolated("Perron eigenvalue must be real")
    raw_scale = max(abs(lam0), 1.0)
    basis: list[np.ndarray] = []
    norms_sq: list[float] = []
    out: list[np.ndarray] = []
    out_norms: list[float] = []
    for i in range(s.d + 1):
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


# Builders of test matrices.


def from_rows(rows) -> IntMatrix:
    """The integer matrix with these rows of Python ints."""
    return IntMatrix(np.array(rows, dtype=object))


def ones(n: int) -> IntMatrix:
    """The n x n all-ones matrix J."""
    return IntMatrix(np.ones((n, n), dtype=np.int64))
