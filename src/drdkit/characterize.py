"""One verdict per distance-regularity characterization, plus the contract
that every applicable verdict must agree.

The checks are deliberately redundant: each one re-derives distance-regularity
from a different mathematical angle (equitable partitions, scheme axioms,
span memberships, walk counts, one-step count tables, two-way distances,
spectral identities). They may share cached low-level primitives such as the
distance table, its pair count scan (the distance matrices' product table) or
a prepared span basis, but no check ever consults another check's verdict.

A `Report` reads its graph facts off the checks' `GraphContext`, so a fact
that no check and no reader asks for (the spectrum behind `Report.d`, say)
is never computed.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .digraph import Digraph, DistanceTable, distance_table, regularity
from .errors import InternalInconsistency, InvalidParameter, SpectralError
from .partitions import EquitableParams, distance_regular_scan
from .ratlin import (
    IntMatrix,
    PartitionBasis,
    SpanBasis,
    adjacency_matrix,
    mat_mul,
    minimal_polynomial_degree,
)
from .scheme import (
    AxiomReport,
    DamerellTable,
    PairCountScan,
    TransposeMap,
    WalkConstancy,
    adjacency_transpose_index,
    damerell_numbers,
    distance_matrices,
    distance_polynomials,
    pair_intersection_counts,
    scheme_axioms,
    transpose_closure,
    two_way_relations,
    walk_count_constancy,
    wang_suzuki_drd_check,
)
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    Spectrum,
    is_normal,
    spectral_excess,
    spectrum,
)

CHECK_IDS: tuple[str, ...] = (
    "DEF", "F", "A", "B", "C", "C1", "C2", "D", "E", "G", "G1", "H", "I", "J",
)

YES = "yes"
NO = "no"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class CheckConfig:
    """Tunables shared by all checks. Only the spectral ones use tolerances."""

    tol: float = 1e-6
    cluster_tol: float = DEFAULT_CLUSTER_TOL
    max_walk_len: Optional[int] = None
    chars: Optional[tuple[str, ...]] = None
    experimental_nx: bool = False

    def __post_init__(self) -> None:
        for name in ("tol", "cluster_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidParameter(f"{name} must be finite and >= 0, got {value}")
        if self.max_walk_len is not None and self.max_walk_len < 0:
            raise InvalidParameter(f"max_walk_len must be >= 0, got {self.max_walk_len}")


@dataclass(slots=True)
class CharacterizationVerdict:
    id: str
    verdict: str  # "yes" | "no" | "not-applicable"
    reason: Optional[str] = None
    witness: Optional[str] = None
    params: Optional[dict] = None
    elapsed_ms: float = 0.0


@dataclass(frozen=True)
class Report:
    """The verdicts on one digraph; its graph facts are read off the checks'
    context, so reading `d` may cost a spectrum. `diameter`, `girth` and `d`
    are None when the digraph is not strongly connected. `total_ms` times
    only the checks."""

    verdicts: tuple[CharacterizationVerdict, ...]
    total_ms: float
    context: "GraphContext" = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.context.g.n

    @property
    def m(self) -> int:
        return self.context.g.m

    @property
    def k(self) -> Optional[int]:
        return self.context.valency

    @property
    def strongly_connected(self) -> bool:
        return self.context.strongly_connected

    @property
    def diameter(self) -> Optional[int]:
        return self.context.table.diameter if self.strongly_connected else None

    @property
    def girth(self) -> Optional[int]:
        return self.context.table.girth if self.strongly_connected else None

    @property
    def d(self) -> Optional[int]:
        """Distinct eigenvalues minus one; None where the spectrum fails."""
        s = self.context.spectrum_or_error if self.strongly_connected else None
        return s.d if isinstance(s, Spectrum) else None

    @cached_property
    def overall(self) -> Optional[str]:
        """The common applicable verdict, or None when every check was
        not-applicable. The experimental variant never participates.
        Computed once: `agreement` reads it too."""
        applicable = [
            v.verdict
            for v in self.verdicts
            if v.verdict != NOT_APPLICABLE and v.id != "NX"
        ]
        if not applicable:
            return None
        return applicable[0] if len(set(applicable)) == 1 else "disagreement"

    @property
    def agreement(self) -> bool:
        return self.overall != "disagreement"


class GraphContext:
    """Lazily computed primitives shared by the checks for one digraph.

    Everything cached here is a low-level quantity (distance table and
    basis, pair count scan, walk counts, span bases, spectrum, the minimal
    polynomial's degree), never a verdict, and each is a `cached_property`:
    the one cache, computed on first read and kept for the context's life.
    A primitive that raises is not cached. `checks` names the checks that
    will read it. The table is None exactly when the digraph is not
    strongly connected, and then no check runs, so no check reads None;
    the runner decides that, and the single vertex, once per digraph.

    A primitive that another one already proves is read off it rather than
    recomputed: deg μ is n, with no Krylov sequence, when D + 1 = n; the
    pair count scan takes its class references from the distance basis;
    and a distance matrix's membership in the adjacency algebra is read off
    the walk chain's first failing length, so the powers are eliminated
    only for the questions that length does not settle.
    """

    def __init__(self, g: Digraph, config: CheckConfig, checks: tuple[str, ...] = CHECK_IDS):
        self.g = g
        self.config = config
        self.checks = checks

    @cached_property
    def table(self) -> Optional[DistanceTable]:
        return distance_table(self.g)

    @property
    def strongly_connected(self) -> bool:
        return self.table is not None

    @cached_property
    def valency(self) -> Optional[int]:
        return regularity(self.g)

    @cached_property
    def adjacency(self) -> IntMatrix:
        return adjacency_matrix(self.g)

    @cached_property
    def distance_basis(self) -> PartitionBasis:
        """The distance matrices, as their partition basis on the table."""
        return distance_matrices(self.g, self.table)

    @cached_property
    def pair_scan(self) -> PairCountScan:
        """Span coordinates of every A_i * A_j, shared by A, B, C, C2, D and H."""
        return pair_intersection_counts(self.table, self.distance_basis.reps)

    @cached_property
    def damerell(self) -> DamerellTable:
        return damerell_numbers(self.g, self.table)

    @cached_property
    def transpose_map(self) -> TransposeMap:
        return transpose_closure(self.distance_basis)

    @cached_property
    def adjacency_transpose(self) -> Optional[int]:
        return adjacency_transpose_index(self.distance_basis)

    @cached_property
    def min_poly_degree(self) -> int:
        """deg μ: B, C1, I, membership and the spectrum's cross-check read
        nothing else of the minimal polynomial μ.

        The distance table bounds it from below: A^j is positive at every
        pair at distance j and zero at every pair farther away, so a
        combination of I, A, ..., A^D whose top nonzero coefficient is that
        of A^j is nonzero at the pairs at distance j. Those D + 1 powers are
        independent, and D + 1 <= deg μ <= n (the paper's D <= d). When
        D + 1 = n, deg μ is n with no Krylov sequence run; otherwise it is
        `minimal_polynomial_degree`'s, computed modulo primes."""
        n = self.g.n
        if self.table.diameter + 1 == n:
            return n
        return minimal_polynomial_degree(self.adjacency)

    @cached_property
    def walks(self) -> WalkConstancy:
        """Check E's walk count test at bound max(D, `max_walk_len`), stepped
        once for E and `distance_matrix_in_powers` alike; at bound D when E
        will not run, since membership reads no walk past D. Walks shorter
        than D would not certify the theorem, and no bound steps past
        l = D + 1, after which constancy holds for every l
        (`walk_count_constancy`)."""
        longest = self.config.max_walk_len if "E" in self.checks else None
        bound = max(self.table.diameter, longest or 0)
        return walk_count_constancy(self.distance_basis, self.adjacency, bound)

    @cached_property
    def power_basis(self) -> SpanBasis:
        """The adjacency algebra, span(A^0 .. A^(deg μ - 1)), eliminated: the
        route of the membership questions that the walk chain does not
        settle (`distance_matrix_in_powers`)."""
        powers = [IntMatrix.identity(self.g.n)]
        while len(powers) < self.min_poly_degree:
            powers.append(mat_mul(powers[-1], self.adjacency))
        return SpanBasis(powers)

    def distance_matrix_in_powers(self, i: int) -> bool:
        """Whether A_i lies in the adjacency algebra, span(A^0 .. A^(deg μ
        - 1)), read off the walk chain's first failing length ℓ (ℓ = ∞ when
        the chain passes) wherever that settles it.

        A^j is positive at every pair at distance j and zero at every pair
        farther apart. Two consequences follow.

        - For i < ℓ, each A^j with j <= i is constant on the classes, so it
          lies in span(A_0 .. A_j) with a positive coefficient on A_j. That
          triangular system inverts, so A_i is in span(A^0 .. A^i): yes,
          whatever deg μ is.
        - For i = ℓ with deg μ = D + 1, the algebra is span(A^0 .. A^D).
          Write A_ℓ = sum c_j A^j and let t be the top index with c_j != 0.
          If t > ℓ, at a pair at distance t the only nonzero term is
          c_t A^t, but A_ℓ is 0 there; if t < ℓ, every term is 0 at a pair
          at distance ℓ, but A_ℓ is 1 there. So t = ℓ, and
          A^ℓ = (A_ℓ - sum_{j<ℓ} c_j A^j) / c_ℓ would be constant on the
          classes, against the choice of ℓ: no.

        Any other question (i > ℓ, or deg μ != D + 1) runs the elimination
        `power_basis`. B and C1 stop at the first failing i, which is ℓ, so
        they never eliminate; I and NX ask only i = D. Only the primitives
        read here are cached, not the answer, so I and NX both asking on
        the elimination route solve twice, over one `power_basis`.

        With deg μ = D + 1 the chain cannot first fail at ℓ = D + 1, since
        A^(D+1) lies in span(A^0 .. A^D), which is then the space of
        class-constant matrices; a chain that does (only a bound past D
        steps that far) contradicts deg μ and raises InternalInconsistency."""
        walks = self.walks
        if walks:
            return True
        ell = walks.witness[0]
        D = self.table.diameter
        if self.min_poly_degree == D + 1:
            if ell == D + 1:
                raise InternalInconsistency(
                    f"walk counts of length {ell} leave the distance classes, "
                    f"but the minimal polynomial has degree {D + 1}"
                )
            if i == ell:
                return False
        if i < ell:
            return True
        return self.power_basis.solve(self.distance_basis.member(i)) is not None

    @cached_property
    def axioms_on_distance_matrices(self) -> AxiomReport:
        return scheme_axioms(self.pair_scan, self.transpose_map)

    @cached_property
    def normal(self) -> bool:
        return is_normal(self.adjacency)

    @cached_property
    def spectrum_or_error(self):
        try:
            s = spectrum(self.adjacency, self.config.cluster_tol)
            if self.normal and len(s.eigs) != self.min_poly_degree:
                raise InternalInconsistency(
                    f"{len(s.eigs)} eigenvalue clusters vs minimal polynomial "
                    f"degree {self.min_poly_degree}"
                )
            return s
        except (SpectralError, InternalInconsistency) as exc:
            return exc


# A check returns its verdict's fields (verdict, reason, witness, params);
# the runner adds the id and the time and builds the verdict once.
_Outcome = tuple[str, Optional[str], Optional[str], Optional[dict]]


def _yes(params: Optional[dict] = None) -> _Outcome:
    return YES, None, None, params


def _no(witness: str, params: Optional[dict] = None) -> _Outcome:
    return NO, None, witness, params


def _na(reason: str) -> _Outcome:
    return NOT_APPLICABLE, reason, None, None


def _params_from_equitable(p: EquitableParams) -> dict:
    return {
        "cell_sizes": list(p.cell_sizes),
        "d_out": [list(r) for r in p.d_out],
        "d_in": [list(r) for r in p.d_in],
    }


def _check_def(ctx: GraphContext) -> _Outcome:
    params, failure = distance_regular_scan(ctx.g, ctx.table, "out")
    if params is None:
        return _no(failure or "out-distance partitions not equitable")
    return _yes(_params_from_equitable(params))


def _check_f(ctx: GraphContext) -> _Outcome:
    params, failure = distance_regular_scan(ctx.g, ctx.table, "in")
    if params is None:
        return _no(failure or "in-distance partitions not equitable")
    return _yes(_params_from_equitable(params))


def _check_a(ctx: GraphContext) -> _Outcome:
    rep = ctx.axioms_on_distance_matrices
    if not rep.all:
        return _no(rep.witness or "scheme axiom failed", params={
            "axioms": {
                # A_0 = I and sum A_i = J: distance_matrices proves both.
                "identity": True,
                "sum_to_j": True,
                "transpose_closed": rep.transpose_closed,
                "product_closed": rep.product_closed,
                "commutative": rep.commutative,
            }
        })
    return _yes()


def _check_b(ctx: GraphContext) -> _Outcome:
    D = ctx.table.diameter
    deg = ctx.min_poly_degree
    params = {"min_poly_degree": deg, "diameter": D}
    if deg != D + 1:
        return _no(f"adjacency algebra has dimension {deg}, expected {D + 1}", params)
    for i in range(D + 1):
        if not ctx.distance_matrix_in_powers(i):
            return _no(f"distance matrix {i} is not a polynomial in A", params)
    rep = ctx.axioms_on_distance_matrices
    if not rep.all:
        return _no(rep.witness or "scheme axiom failed", params)
    return _yes(params)


def _check_c(ctx: GraphContext) -> _Outcome:
    if ctx.adjacency_transpose is None:
        return _no("transpose of A is not a distance matrix")
    for i in range(ctx.table.diameter + 1):
        if not ctx.pair_scan.ok[i, 1]:
            return _no(f"A_{i} * A leaves the span of the distance matrices")
    return _yes()


def _check_c1(ctx: GraphContext) -> _Outcome:
    if ctx.adjacency_transpose is None:
        return _no("transpose of A is not a distance matrix")
    D = ctx.table.diameter
    deg = ctx.min_poly_degree
    if deg != D + 1:
        return _no(f"adjacency algebra has dimension {deg}, expected {D + 1}")
    for i in range(D + 1):
        if not ctx.distance_matrix_in_powers(i):
            return _no(f"distance matrix {i} is outside the adjacency algebra")
    return _yes()


def _check_c2(ctx: GraphContext) -> _Outcome:
    products_closed = ctx.pair_scan.all_constant
    v1 = ctx.adjacency_transpose is not None and products_closed
    v2 = ctx.transpose_map.exists and products_closed
    if v1 != v2:
        raise InternalInconsistency(f"product-closure sub-variants disagree: {v1}, {v2}")
    # The pair-count variant reads the same scan as v1; repeated so the report keeps three.
    params = {"variants": [v1, v2, v1]}
    if not v1:
        if ctx.adjacency_transpose is None:
            return _no("transpose of A is not a distance matrix", params)
        return _no("some product A_i * A_j leaves the span", params)
    return _yes(params)


def _check_d(ctx: GraphContext) -> _Outcome:
    if ctx.adjacency_transpose is None:
        return _no("transpose of A is not a distance matrix")
    polys = distance_polynomials(ctx.distance_basis, ctx.adjacency, ctx.pair_scan)
    if polys is None:
        return _no("no degree-i polynomials with p_i(A) = A_i exist")
    return _yes({"polynomials": [str(p) for p in polys]})


def _check_e(ctx: GraphContext) -> _Outcome:
    if ctx.adjacency_transpose is None:
        return _no("transpose of A is not a distance matrix")
    walks = ctx.walks
    if not walks:
        ell, h, p0, p1, v0, v1 = walks.witness
        return _no(
            f"walk counts of length {ell} differ on distance class {h}: "
            f"{v0} at {p0} vs {v1} at {p1}",
        )
    return _yes({"max_len": walks.max_len})


def _check_g(ctx: GraphContext) -> _Outcome:
    table = ctx.damerell
    if not table.exists:
        h, i, pair0, pair1, v0, v1 = table.witness
        return _no(
            f"|shell_{i}(x) & out(y)| at pair distance {h}: {v0} at {pair0} vs {v1} at {pair1}",
        )
    s_table = {f"s^{h}_{{{i},1}}": table.b[h][i] for h in range(len(table.b)) for i in range(len(table.b))}
    return _yes({"counts": s_table})


def _check_g1(ctx: GraphContext) -> _Outcome:
    table = ctx.damerell
    if not table.exists:
        i, j, pair0, pair1, v0, v1 = table.witness
        return _no(
            f"b_{{{i}{j}}} not constant: {v0} at {pair0} vs {v1} at {pair1}",
        )
    return _yes({"b": [list(row) for row in table.b]})


def _check_h(ctx: GraphContext) -> _Outcome:
    rel = two_way_relations(ctx.table)
    result = wang_suzuki_drd_check(rel, ctx.table, lambda: ctx.axioms_on_distance_matrices)
    params = {"delta": [list(p) for p in rel.delta]}
    if not result:
        classes = ctx.table.diameter + 1
        if result.delta_size != classes:
            return _no(
                f"{result.delta_size} two-way distance classes, expected {classes}", params
            )
        return _no(result.axioms.witness or "scheme axiom failed", params)
    return _yes(params)


def _check_i(ctx: GraphContext) -> _Outcome:
    params = {
        "regular": ctx.valency is not None,
        "normal": ctx.normal,
        "min_poly_degree": ctx.min_poly_degree,
    }
    if ctx.valency is None:
        return _no("digraph is not regular", params)
    if not ctx.normal:
        return _no("transpose of A is not a polynomial in A (A not normal)", params)
    D = ctx.table.diameter
    deg = ctx.min_poly_degree
    if deg != D + 1:
        return _no(f"diameter {D} is not spectrally maximum ({deg - 1})", params)
    if not ctx.distance_matrix_in_powers(D):
        return _no("distance-D matrix is not a polynomial in A", params)
    return _yes(params)


def _check_j(ctx: GraphContext) -> _Outcome:
    if ctx.valency is None:
        return _no("digraph is not regular")
    if not ctx.normal:
        return _no("transpose of A is not a polynomial in A (A not normal)")
    s = ctx.spectrum_or_error
    if isinstance(s, Exception):
        return _na(f"spectral failure: {s}")
    D = ctx.table.diameter
    if s.d != D:
        return _no(
            f"diameter {D} is not spectrally maximum ({s.d})",
            {"distinct_eigenvalues": s.d + 1},
        )
    try:
        lhs, rhs, gap = spectral_excess(s, ctx.table)
    except SpectralError as exc:
        return _na(f"spectral failure: {exc}")
    params = {"excess_lhs": lhs, "excess_rhs": rhs, "gap": gap}
    if gap > ctx.config.tol:
        return _no(
            f"mean last-shell size {lhs} differs from spectral value {rhs}",
            params,
        )
    return _yes(params)


def _check_nx(ctx: GraphContext) -> _Outcome:
    """Experimental weaker variant of check I: requires the transpose of A to
    be a distance matrix rather than a polynomial in A. Recorded for study,
    excluded from the agreement contract."""
    params: dict = {"experimental": True}
    if ctx.valency is None:
        return _no("digraph is not regular", params)
    s = ctx.spectrum_or_error
    if isinstance(s, Exception):
        return _na(f"spectral failure: {s}")
    D = ctx.table.diameter
    if s.d != D:
        return _no(f"diameter {D} is not spectrally maximum ({s.d})", params)
    if ctx.adjacency_transpose is None:
        return _no("transpose of A is not a distance matrix", params)
    if not ctx.distance_matrix_in_powers(D):
        return _no("distance-D matrix is not a polynomial in A", params)
    return _yes(params)


_CHECKS: dict[str, Callable[[GraphContext], _Outcome]] = {
    "DEF": _check_def,
    "F": _check_f,
    "A": _check_a,
    "B": _check_b,
    "C": _check_c,
    "C1": _check_c1,
    "C2": _check_c2,
    "D": _check_d,
    "E": _check_e,
    "G": _check_g,
    "G1": _check_g1,
    "H": _check_h,
    "I": _check_i,
    "J": _check_j,
    "NX": _check_nx,
}


def _verdicts(ctx: GraphContext, ids: tuple[str, ...]) -> tuple[CharacterizationVerdict, ...]:
    """The verdicts of the checks `ids` on ctx, each timed: every one is
    trivially not-applicable when the digraph is not strongly connected,
    and yes on a single vertex, which is decided once for all of them."""
    if not ctx.strongly_connected:
        return tuple(
            CharacterizationVerdict(i, NOT_APPLICABLE, reason="digraph is not strongly connected")
            for i in ids
        )
    if ctx.g.n == 1:
        return tuple(
            CharacterizationVerdict(i, YES, params={"trivial": "single vertex"}) for i in ids
        )
    clock = time.perf_counter
    verdicts = []
    for i in ids:
        start = clock()
        verdict, reason, witness, params = _CHECKS[i](ctx)
        elapsed_ms = (clock() - start) * 1000.0
        verdicts.append(CharacterizationVerdict(i, verdict, reason, witness, params, elapsed_ms))
    return tuple(verdicts)


def _selected_ids(config: CheckConfig) -> tuple[str, ...]:
    if config.chars is None:
        return CHECK_IDS
    unknown = [c for c in config.chars if c not in CHECK_IDS]
    if unknown:
        raise InvalidParameter(f"unknown characterization ids: {unknown}")
    return tuple(c for c in CHECK_IDS if c in config.chars)


def check_single(
    g: Digraph, check_id: str, config: Optional[CheckConfig] = None
) -> CharacterizationVerdict:
    """Evaluate one characterization, or the experimental NX, in isolation."""
    if check_id not in _CHECKS:
        raise InvalidParameter(f"unknown characterization id {check_id!r}")
    return _verdicts(GraphContext(g, config or CheckConfig(), (check_id,)), (check_id,))[0]


def check_all(g: Digraph, config: Optional[CheckConfig] = None) -> Report:
    """Run every enabled characterization independently and assemble their
    report. The experimental NX is listed only on a strongly connected
    digraph."""
    config = config or CheckConfig()
    ids = _selected_ids(config)
    ctx = GraphContext(g, config, ids)
    if ctx.strongly_connected and config.experimental_nx:
        ids += ("NX",)
    start = time.perf_counter()
    verdicts = _verdicts(ctx, ids)
    return Report(verdicts, (time.perf_counter() - start) * 1000.0, ctx)
