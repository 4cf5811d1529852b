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
from typing import Callable, Hashable, Optional, Union

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


@dataclass(frozen=True)
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

    @property
    def overall(self) -> Optional[str]:
        """The common applicable verdict, or None when every check was
        not-applicable. The experimental variant never participates."""
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
    polynomial's degree), never a verdict. `checks` names the checks that
    will read it. The table is None exactly when the digraph is not
    strongly connected, and then no check runs, so no check reads None.
    """

    def __init__(self, g: Digraph, config: CheckConfig, checks: tuple[str, ...] = CHECK_IDS):
        self.g = g
        self.config = config
        self.checks = checks
        self._cache: dict = {}

    def _get(self, key: Hashable, make: Callable):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    @property
    def table(self) -> Optional[DistanceTable]:
        return self._get("table", lambda: distance_table(self.g))

    @property
    def strongly_connected(self) -> bool:
        return self.table is not None

    @property
    def valency(self) -> Optional[int]:
        return self._get("valency", lambda: regularity(self.g))

    @property
    def adjacency(self) -> IntMatrix:
        return self._get("adjacency", lambda: adjacency_matrix(self.g))

    @property
    def distance_basis(self) -> PartitionBasis:
        """The distance matrices, as their partition basis on the table."""
        return self._get("distance_basis", lambda: distance_matrices(self.g, self.table))

    @property
    def pair_scan(self) -> PairCountScan:
        """Span coordinates of every A_i * A_j, shared by A, B, C, C2, D and H."""
        return self._get("pair_scan", lambda: pair_intersection_counts(self.table))

    @property
    def damerell(self) -> DamerellTable:
        return self._get("damerell", lambda: damerell_numbers(self.g, self.table))

    @property
    def transpose_map(self) -> TransposeMap:
        return self._get("transpose_map", lambda: transpose_closure(self.distance_basis))

    @property
    def adjacency_transpose(self) -> Optional[int]:
        return self._get(
            "adjacency_transpose", lambda: adjacency_transpose_index(self.distance_basis)
        )

    @property
    def min_poly_degree(self) -> int:
        """deg μ: B, C1, I, `power_basis` and the spectrum's cross-check read
        nothing else of the minimal polynomial μ."""
        return self._get("min_poly_degree", lambda: minimal_polynomial_degree(self.adjacency))

    @property
    def walks(self) -> WalkConstancy:
        """Check E's walk count test at bound max(D, `max_walk_len`), stepped
        once for E and `power_basis` alike; at bound D when E will not run,
        since `power_basis` reads no walk past D. Walks shorter than D would
        not certify the theorem, and no bound steps past l = D + 1, after
        which constancy holds for every l (`walk_count_constancy`)."""

        def make():
            longest = self.config.max_walk_len if "E" in self.checks else None
            bound = max(self.table.diameter, longest or 0)
            return walk_count_constancy(self.distance_basis, self.adjacency, bound)

        return self._get("walks", make)

    @property
    def power_basis(self) -> Union[PartitionBasis, SpanBasis]:
        """Membership in the adjacency algebra, span(A^0 .. A^(deg μ - 1)):
        the distance basis when deg μ = D + 1 and every A^j, j <= D, is
        constant on its classes (both spans then have dimension D + 1), as on
        every DRD, and elimination otherwise. With deg μ = D + 1 every power
        is a combination of A^0 .. A^D, so check E's walk test decides this
        at whatever bound >= D it was stepped to."""

        def make():
            basis = self.distance_basis
            if self.min_poly_degree == basis.size and self.walks:
                return basis
            powers = [IntMatrix.identity(self.g.n)]
            while len(powers) < self.min_poly_degree:
                powers.append(mat_mul(powers[-1], self.adjacency))
            return SpanBasis(powers)

        return self._get("power_basis", make)

    def distance_matrix_in_powers(self, i: int) -> bool:
        return self._get(
            ("dm_in_powers", i),
            lambda: self.power_basis.solve(self.distance_basis.member(i)) is not None,
        )

    @property
    def axioms_on_distance_matrices(self) -> AxiomReport:
        return self._get("axioms", lambda: scheme_axioms(self.pair_scan, self.transpose_map))

    @property
    def normal(self) -> bool:
        return self._get("normal", lambda: is_normal(self.adjacency))

    @property
    def spectrum_or_error(self):
        def make():
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

        return self._get("spectrum", make)


def _yes(check_id: str, params: Optional[dict] = None) -> CharacterizationVerdict:
    return CharacterizationVerdict(check_id, YES, params=params)


def _no(check_id: str, witness: str, params: Optional[dict] = None) -> CharacterizationVerdict:
    return CharacterizationVerdict(check_id, NO, witness=witness, params=params)


def _na(check_id: str, reason: str) -> CharacterizationVerdict:
    return CharacterizationVerdict(check_id, NOT_APPLICABLE, reason=reason)


def _params_from_equitable(p: EquitableParams) -> dict:
    return {
        "cell_sizes": list(p.cell_sizes),
        "d_out": [list(r) for r in p.d_out],
        "d_in": [list(r) for r in p.d_in],
    }


def _check_def(ctx: GraphContext) -> CharacterizationVerdict:
    params, failure = distance_regular_scan(ctx.g, ctx.table, "out")
    if params is None:
        return _no("DEF", failure or "out-distance partitions not equitable")
    return _yes("DEF", _params_from_equitable(params))


def _check_f(ctx: GraphContext) -> CharacterizationVerdict:
    params, failure = distance_regular_scan(ctx.g, ctx.table, "in")
    if params is None:
        return _no("F", failure or "in-distance partitions not equitable")
    return _yes("F", _params_from_equitable(params))


def _check_a(ctx: GraphContext) -> CharacterizationVerdict:
    rep = ctx.axioms_on_distance_matrices
    if not rep.all:
        return _no("A", rep.witness or "scheme axiom failed", params={
            "axioms": {
                # A_0 = I and sum A_i = J: distance_matrices proves both.
                "identity": True,
                "sum_to_j": True,
                "transpose_closed": rep.transpose_closed,
                "product_closed": rep.product_closed,
                "commutative": rep.commutative,
            }
        })
    return _yes("A")


def _check_b(ctx: GraphContext) -> CharacterizationVerdict:
    D = ctx.table.diameter
    deg = ctx.min_poly_degree
    params = {"min_poly_degree": deg, "diameter": D}
    if deg != D + 1:
        return _no("B", f"adjacency algebra has dimension {deg}, expected {D + 1}", params)
    for i in range(D + 1):
        if not ctx.distance_matrix_in_powers(i):
            return _no("B", f"distance matrix {i} is not a polynomial in A", params)
    rep = ctx.axioms_on_distance_matrices
    if not rep.all:
        return _no("B", rep.witness or "scheme axiom failed", params)
    return _yes("B", params)


def _check_c(ctx: GraphContext) -> CharacterizationVerdict:
    if ctx.adjacency_transpose is None:
        return _no("C", "transpose of A is not a distance matrix")
    for i in range(ctx.table.diameter + 1):
        if not ctx.pair_scan.ok[i, 1]:
            return _no("C", f"A_{i} * A leaves the span of the distance matrices")
    return _yes("C")


def _check_c1(ctx: GraphContext) -> CharacterizationVerdict:
    if ctx.adjacency_transpose is None:
        return _no("C1", "transpose of A is not a distance matrix")
    D = ctx.table.diameter
    deg = ctx.min_poly_degree
    if deg != D + 1:
        return _no("C1", f"adjacency algebra has dimension {deg}, expected {D + 1}")
    for i in range(D + 1):
        if not ctx.distance_matrix_in_powers(i):
            return _no("C1", f"distance matrix {i} is outside the adjacency algebra")
    return _yes("C1")


def _check_c2(ctx: GraphContext) -> CharacterizationVerdict:
    products_closed = ctx.pair_scan.all_constant
    v1 = ctx.adjacency_transpose is not None and products_closed
    v2 = ctx.transpose_map.exists and products_closed
    if v1 != v2:
        raise InternalInconsistency(f"product-closure sub-variants disagree: {v1}, {v2}")
    # The pair-count variant reads the same scan as v1; repeated so the report keeps three.
    params = {"variants": [v1, v2, v1]}
    if not v1:
        if ctx.adjacency_transpose is None:
            return _no("C2", "transpose of A is not a distance matrix", params)
        return _no("C2", "some product A_i * A_j leaves the span", params)
    return _yes("C2", params)


def _check_d(ctx: GraphContext) -> CharacterizationVerdict:
    if ctx.adjacency_transpose is None:
        return _no("D", "transpose of A is not a distance matrix")
    polys = distance_polynomials(ctx.distance_basis, ctx.adjacency, ctx.pair_scan)
    if polys is None:
        return _no("D", "no degree-i polynomials with p_i(A) = A_i exist")
    return _yes("D", {"polynomials": [str(p) for p in polys]})


def _check_e(ctx: GraphContext) -> CharacterizationVerdict:
    if ctx.adjacency_transpose is None:
        return _no("E", "transpose of A is not a distance matrix")
    walks = ctx.walks
    if not walks:
        ell, h, p0, p1, v0, v1 = walks.witness
        return _no(
            "E",
            f"walk counts of length {ell} differ on distance class {h}: "
            f"{v0} at {p0} vs {v1} at {p1}",
        )
    return _yes("E", {"max_len": walks.max_len})


def _check_g(ctx: GraphContext) -> CharacterizationVerdict:
    table = ctx.damerell
    if not table.exists:
        h, i, pair0, pair1, v0, v1 = table.witness
        return _no(
            "G",
            f"|shell_{i}(x) & out(y)| at pair distance {h}: {v0} at {pair0} vs {v1} at {pair1}",
        )
    s_table = {f"s^{h}_{{{i},1}}": table.b[h][i] for h in range(len(table.b)) for i in range(len(table.b))}
    return _yes("G", {"counts": s_table})


def _check_g1(ctx: GraphContext) -> CharacterizationVerdict:
    table = ctx.damerell
    if not table.exists:
        i, j, pair0, pair1, v0, v1 = table.witness
        return _no(
            "G1",
            f"b_{{{i}{j}}} not constant: {v0} at {pair0} vs {v1} at {pair1}",
        )
    return _yes("G1", {"b": [list(row) for row in table.b]})


def _check_h(ctx: GraphContext) -> CharacterizationVerdict:
    rel = two_way_relations(ctx.table)
    result = wang_suzuki_drd_check(rel, ctx.table, lambda: ctx.axioms_on_distance_matrices)
    params = {"delta": [list(p) for p in rel.delta]}
    if not result:
        classes = ctx.table.diameter + 1
        if result.delta_size != classes:
            return _no(
                "H", f"{result.delta_size} two-way distance classes, expected {classes}", params
            )
        return _no("H", result.axioms.witness or "scheme axiom failed", params)
    return _yes("H", params)


def _check_i(ctx: GraphContext) -> CharacterizationVerdict:
    params = {
        "regular": ctx.valency is not None,
        "normal": ctx.normal,
        "min_poly_degree": ctx.min_poly_degree,
    }
    if ctx.valency is None:
        return _no("I", "digraph is not regular", params)
    if not ctx.normal:
        return _no("I", "transpose of A is not a polynomial in A (A not normal)", params)
    D = ctx.table.diameter
    deg = ctx.min_poly_degree
    if deg != D + 1:
        return _no("I", f"diameter {D} is not spectrally maximum ({deg - 1})", params)
    if not ctx.distance_matrix_in_powers(D):
        return _no("I", "distance-D matrix is not a polynomial in A", params)
    return _yes("I", params)


def _check_j(ctx: GraphContext) -> CharacterizationVerdict:
    if ctx.valency is None:
        return _no("J", "digraph is not regular")
    if not ctx.normal:
        return _no("J", "transpose of A is not a polynomial in A (A not normal)")
    s = ctx.spectrum_or_error
    if isinstance(s, Exception):
        return _na("J", f"spectral failure: {s}")
    D = ctx.table.diameter
    if s.d != D:
        return _no(
            "J",
            f"diameter {D} is not spectrally maximum ({s.d})",
            {"distinct_eigenvalues": s.d + 1},
        )
    try:
        lhs, rhs, gap = spectral_excess(s, ctx.table)
    except SpectralError as exc:
        return _na("J", f"spectral failure: {exc}")
    params = {"excess_lhs": lhs, "excess_rhs": rhs, "gap": gap}
    if gap > ctx.config.tol:
        return _no(
            "J",
            f"mean last-shell size {lhs} differs from spectral value {rhs}",
            params,
        )
    return _yes("J", params)


def _check_nx(ctx: GraphContext) -> CharacterizationVerdict:
    """Experimental weaker variant of check I: requires the transpose of A to
    be a distance matrix rather than a polynomial in A. Recorded for study,
    excluded from the agreement contract."""
    params: dict = {"experimental": True}
    if ctx.valency is None:
        return _no("NX", "digraph is not regular", params)
    s = ctx.spectrum_or_error
    if isinstance(s, Exception):
        return _na("NX", f"spectral failure: {s}")
    D = ctx.table.diameter
    if s.d != D:
        return _no("NX", f"diameter {D} is not spectrally maximum ({s.d})", params)
    if ctx.adjacency_transpose is None:
        return _no("NX", "transpose of A is not a distance matrix", params)
    if not ctx.distance_matrix_in_powers(D):
        return _no("NX", "distance-D matrix is not a polynomial in A", params)
    return _yes("NX", params)


_CHECKS: dict[str, Callable[[GraphContext], CharacterizationVerdict]] = {
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


def _run_check(ctx: GraphContext, check_id: str) -> CharacterizationVerdict:
    """One check's verdict on ctx, timed; trivially not-applicable when the
    digraph is not strongly connected, and yes on a single vertex."""
    if not ctx.strongly_connected:
        return _na(check_id, "digraph is not strongly connected")
    if ctx.g.n == 1:
        return _yes(check_id, {"trivial": "single vertex"})
    start = time.perf_counter()
    v = _CHECKS[check_id](ctx)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return CharacterizationVerdict(v.id, v.verdict, v.reason, v.witness, v.params, elapsed_ms)


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
    return _run_check(GraphContext(g, config or CheckConfig(), (check_id,)), check_id)


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
    verdicts = tuple(_run_check(ctx, i) for i in ids)
    return Report(verdicts, (time.perf_counter() - start) * 1000.0, ctx)
