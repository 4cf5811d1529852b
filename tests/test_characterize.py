import math
import sys
from dataclasses import replace

import pytest

import drdkit.ratlin as ratlin
from drdkit.characterize import (
    CHECK_IDS,
    CheckConfig,
    GraphContext,
    check_all,
    check_single,
)
from drdkit.corpus import (
    all_strongly_connected_digraphs,
    cycle,
    cycle_with_chord,
    debruijn,
    kautz,
    paley,
    paper6,
    random_sc,
)
from drdkit.digraph import Digraph, distance_table, strongly_connected
from drdkit.errors import InvalidParameter
from drdkit.ratlin import IntMatrix, SpanBasis, adjacency_matrix, mat_mul
from drdkit.scheme import distance_matrices, transpose_closure
from drdkit.spectral import is_normal, spectrum

from conftest import circulant, small_digraphs, traced_peak
from oracles import distance_stack, weak_dr_comellas


class TestCheckAll:
    def test_paper6_every_verdict_yes(self, fig6):
        rep = check_all(fig6)
        assert len(rep.verdicts) == 14
        assert [v.id for v in rep.verdicts] == list(CHECK_IDS)
        assert all(v.verdict == "yes" for v in rep.verdicts)
        assert rep.agreement and rep.overall == "yes"
        assert rep.k == 2 and rep.diameter == 3 and rep.girth == 3 and rep.d == 3

    def test_chorded_cycle_every_verdict_no(self):
        rep = check_all(cycle_with_chord(4))
        assert all(v.verdict == "no" for v in rep.verdicts)
        assert rep.agreement and rep.overall == "no"
        for v in rep.verdicts:
            assert v.witness is not None, v.id

    def test_c9_yes(self):
        rep = check_all(cycle(9))
        assert rep.overall == "yes" and rep.agreement

    def test_not_strongly_connected_all_na(self):
        g = Digraph.from_arcs(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        rep = check_all(g)
        assert all(v.verdict == "not-applicable" for v in rep.verdicts)
        assert rep.overall is None
        assert rep.agreement
        # k comes from regularity; the distance and spectral facts are None.
        for g, k in ((g, 1), (Digraph.from_arcs(3, [(0, 1), (1, 2)]), None)):
            rep = check_all(g)
            assert not rep.strongly_connected
            assert (rep.n, rep.m, rep.k) == (g.n, g.m, k)
            assert rep.diameter is None and rep.d is None and rep.girth is None

    def test_single_vertex_trivially_yes(self):
        rep = check_all(Digraph.from_arcs(1, []))
        assert rep.overall == "yes" and rep.agreement
        assert rep.strongly_connected
        assert (rep.n, rep.m, rep.k, rep.diameter, rep.d) == (1, 0, 0, 0, 0)
        assert rep.girth is None

    def test_spectrum_only_where_read(self, monkeypatch):
        # Check J asks for the spectrum only on a regular normal digraph;
        # elsewhere only a reader of Report.d computes it, once.
        import drdkit.characterize as characterize

        calls = []
        monkeypatch.setattr(characterize, "spectrum", lambda *a: calls.append(1) or spectrum(*a))
        rep = check_all(cycle_with_chord(5))
        assert rep.overall == "no" and calls == []
        d = rep.d
        assert rep.d == d and calls == [1]
        calls.clear()
        rep = check_all(paper6())
        assert calls == [1]
        assert rep.d == 3 and calls == [1]

    def test_g_and_g1_share_one_count_table(self, monkeypatch):
        import drdkit.characterize as characterize

        calls = []
        real = characterize.damerell_numbers

        def counted(g, t):
            calls.append(g)
            return real(g, t)

        monkeypatch.setattr(characterize, "damerell_numbers", counted)
        for g in (paper6(), cycle_with_chord(4)):
            rep = check_all(g)
            assert rep.agreement
        assert len(calls) == 2

    def test_membership_builds_no_span_basis_where_the_walks_decide(self, monkeypatch):
        """On a DRD every A^j is constant on the distance classes, so B, C1
        and I read every membership as yes off the walk chain; on a
        deg μ = D + 1 "no", B and C1 stop at the chain's first failing
        length ℓ, which is no. Neither eliminates the powers."""
        import drdkit.characterize as characterize

        def complete(n):
            return Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n) if u != v])

        spans = []
        monkeypatch.setattr(characterize, "SpanBasis", lambda *a: spans.append(1) or SpanBasis(*a))
        for g in (
            complete(1), cycle(2), cycle(6), cycle(10), complete(3), complete(5),
            paper6(), paley(7), paley(19),
        ):
            assert check_all(g).overall == "yes"
        for g in (cycle_with_chord(5), kautz(2, 3)):
            ctx = GraphContext(g, CheckConfig())
            assert ctx.min_poly_degree == ctx.table.diameter + 1
            ell = ctx.walks.witness[0]
            rep = check_all(g)
            b = next(v for v in rep.verdicts if v.id == "B")
            assert rep.overall == "no"
            assert b.witness == f"distance matrix {ell} is not a polynomial in A"
        assert not spans

    def test_each_primitive_is_computed_at_most_once_per_context(self, monkeypatch):
        """A context computes each primitive at most once, however many
        checks and readers ask for it: every check, NX, the report document
        and the human summary over one check_all, on a "yes", two "no"s, a
        digraph that is not strongly connected and the single vertex. On the
        elimination route, membership asked twice builds one power basis."""
        import drdkit.characterize as characterize
        from drdkit.report import human_summary, report_document

        names = (
            "distance_table", "regularity", "adjacency_matrix", "distance_matrices",
            "pair_intersection_counts", "damerell_numbers", "transpose_closure",
            "adjacency_transpose_index", "minimal_polynomial_degree",
            "walk_count_constancy", "scheme_axioms", "is_normal", "spectrum", "SpanBasis",
        )
        calls = dict.fromkeys(names, 0)

        def counted(name):
            real = getattr(characterize, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(characterize, name, counted(name))
        path = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        for g in (paper6(), cycle_with_chord(5), kautz(2, 3), path, Digraph.from_arcs(1, [])):
            calls.update(dict.fromkeys(names, 0))
            rep = check_all(g, CheckConfig(experimental_nx=True))
            report_document(rep)
            human_summary(rep)
            assert max(calls.values()) <= 1, (g.arcs(), calls)
            assert calls["distance_table"] == 1
        calls.update(dict.fromkeys(names, 0))
        ctx = GraphContext(debruijn(2, 2), CheckConfig())
        D = ctx.table.diameter
        assert ctx.min_poly_degree != D + 1 and ctx.walks.witness[0] <= D
        answers = [ctx.distance_matrix_in_powers(D) for _ in range(2)]
        assert answers[0] == answers[1]
        assert calls["SpanBasis"] == 1 and max(calls.values()) == 1, calls

    def test_a_walk_failure_past_d_contradicts_deg_mu(self, tmp_path, monkeypatch):
        # With deg μ = D + 1, A^(D+1) is in span(A^0 .. A^D), the
        # class-constant space, so no chain first fails at l = D + 1. One
        # that does (patched here, on paper6 with D = 3) is an internal
        # inconsistency: check_all raises and `drdkit check` exits 3.
        import drdkit.characterize as characterize
        from drdkit.cli import main
        from drdkit.corpus import edge_list_text
        from drdkit.errors import InternalInconsistency
        from drdkit.scheme import WalkConstancy

        g = paper6()
        D = 3

        def fail_past_d(basis, a, max_len):
            return WalkConstancy(False, max_len, (D + 1, 1, (0, 1), (1, 2), 1, 2))

        monkeypatch.setattr(characterize, "walk_count_constancy", fail_past_d)
        with pytest.raises(InternalInconsistency, match="length 4"):
            check_all(g, CheckConfig(max_walk_len=D + 1))
        path = tmp_path / "paper6.el"
        path.write_text(edge_list_text(g))
        assert main(["check", str(path), "--max-walk-len", str(D + 1)]) == 3

    @pytest.mark.parametrize(
        "g, overall",
        [(cycle(30), "yes"), (random_sc(40, 0.2, seed=1), "no")],
        ids=["cycle30", "random40"],
    )
    def test_degree_n_runs_no_lift(self, g, overall, monkeypatch):
        # deg μ = n on both, which one prime proves: the checks never ask
        # for μ's coefficients.
        def refuse(a):
            raise AssertionError("minimal_polynomial ran")

        monkeypatch.setattr(ratlin, "minimal_polynomial", refuse)
        rep = check_all(g)
        assert rep.overall == overall and rep.agreement

    @pytest.mark.parametrize("g", [paley(19), cycle(12)], ids=["paley19", "cycle12"])
    def test_check_all_steps_the_powers_once(self, g, monkeypatch):
        # B's power basis and E's walks read one cached walk count check:
        # a DRD builds no SpanBasis and no second power chain.
        import drdkit.characterize as characterize

        walks, spans, products = [], [], []
        real_walks = characterize.walk_count_constancy
        monkeypatch.setattr(
            characterize, "walk_count_constancy", lambda *a: walks.append(1) or real_walks(*a)
        )
        monkeypatch.setattr(
            characterize, "SpanBasis", lambda *a: spans.append(1) or SpanBasis(*a)
        )
        monkeypatch.setattr(
            characterize, "mat_mul", lambda *a: products.append(1) or mat_mul(*a)
        )
        rep = check_all(g)
        assert rep.overall == "yes" and rep.agreement
        assert len(walks) == 1 and not spans and not products

    def test_a_long_walk_bound_steps_the_walks_once(self, monkeypatch):
        # B's power basis and E read one walk test, stepped to max(D, bound):
        # on cycle(30) no power past A^29 is stepped, whatever the bound. A
        # float bound of 0 sends every product through mat_mul to be counted.
        import drdkit.characterize as characterize
        import drdkit.scheme as scheme

        monkeypatch.setattr(scheme, "FLOAT64_EXACT", 0)

        bounds, products = [], []
        real_walks, real_mul = characterize.walk_count_constancy, scheme.mat_mul
        monkeypatch.setattr(
            characterize,
            "walk_count_constancy",
            lambda *a: bounds.append(a[2]) or real_walks(*a),
        )
        monkeypatch.setattr(scheme, "mat_mul", lambda *a: products.append(1) or real_mul(*a))
        runs = []
        for bound in (None, 1000):
            bounds.clear(), products.clear()
            rep = check_all(cycle(30), CheckConfig(max_walk_len=bound))
            assert rep.overall == "yes" and rep.agreement
            e = next(v for v in rep.verdicts if v.id == "E")
            runs.append((list(bounds), len(products), e.params))
        assert runs[0][0] == [29] and runs[1][0] == [1000]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == {"max_len": 29} and runs[1][2] == {"max_len": 1000}
        # A failing walk test keeps its witness under any bound.
        g = circulant(7, (1, 2))
        long = check_single(g, "E", CheckConfig(max_walk_len=1000))
        assert long.verdict == "no" and long.witness == check_single(g, "E").witness

    def test_the_walk_bound_is_the_diameter_without_check_e(self, monkeypatch):
        # Only E reads walks past D, so without E the one walk test stops
        # at D, whatever the bound; the verdicts stay as they were.
        import drdkit.characterize as characterize

        bounds = []
        real = characterize.walk_count_constancy
        monkeypatch.setattr(
            characterize, "walk_count_constancy", lambda *a: bounds.append(a[2]) or real(*a)
        )
        g = paley(43)
        rep = check_all(g, CheckConfig(chars=("B",), max_walk_len=1000))
        assert bounds == [2]
        assert [(v.id, v.verdict) for v in rep.verdicts] == [("B", "yes")]
        bounds.clear()
        assert check_single(g, "B", CheckConfig(max_walk_len=1000)).verdict == "yes"
        assert bounds == [2]
        bounds.clear()
        rep = check_all(g, CheckConfig(chars=("B", "E"), max_walk_len=1000))
        assert bounds == [1000]
        assert [(v.id, v.verdict) for v in rep.verdicts] == [("B", "yes"), ("E", "yes")]

    @pytest.mark.parametrize("n", [60, 100])
    def test_power_basis_holds_one_power_at_a_time(self, n, monkeypatch):
        # With the minimal polynomial and the distance basis cached, every
        # membership question reads the walk chain, which keeps a few
        # n x n arrays alive, one power at a time, and never the n powers
        # of an elimination.
        import drdkit.characterize as characterize

        spans = []
        monkeypatch.setattr(characterize, "SpanBasis", lambda *a: spans.append(1) or SpanBasis(*a))
        ctx = GraphContext(cycle(n), CheckConfig())
        assert ctx.min_poly_degree == ctx.distance_basis.size == n
        answers = []
        peak = traced_peak(lambda: answers.extend(map(ctx.distance_matrix_in_powers, range(n))))
        assert peak < 8 * n * n * 8
        assert answers == [True] * n and not spans

    def test_power_memberships_match_elimination(self, corpus, monkeypatch):
        """Each A_i lies in the adjacency algebra exactly when elimination
        over I, A, ..., A^(deg μ - 1) solves for it, for every i and every
        deg μ. Each answer takes the route the walk chain's first failing
        length ℓ gives it: yes below ℓ, no at ℓ when deg μ = D + 1, and the
        elimination otherwise; the inputs reach all three."""
        import drdkit.characterize as characterize

        solves = []

        class CountedSpanBasis(SpanBasis):
            def solve(self, target):
                solves.append(1)
                return super().solve(target)

        monkeypatch.setattr(characterize, "SpanBasis", CountedSpanBasis)
        routes = set()
        for name, g in corpus + [(g.arcs(), g) for g in small_digraphs()]:
            ctx = GraphContext(g, CheckConfig())
            D, deg = ctx.table.diameter, ctx.min_poly_degree
            ell = ctx.walks.witness[0] if not ctx.walks else math.inf
            powers = [IntMatrix.identity(g.n)]
            while len(powers) < deg:
                powers.append(mat_mul(powers[-1], ctx.adjacency))
            slow = SpanBasis(powers)
            for i, m in enumerate(distance_stack(ctx.table)):
                solves.clear()
                fast = ctx.distance_matrix_in_powers(i)
                assert fast == (slow.solve(m) is not None), (name, i)
                if solves:
                    assert i > ell or (i == ell and deg != D + 1), (name, i)
                    routes.add("elimination")
                elif fast:
                    assert i < ell, (name, i)
                    routes.add("below")
                else:
                    assert i == ell and deg == D + 1, (name, i)
                    routes.add("at")
        assert routes == {"below", "at", "elimination"}

    def test_subset_selection(self):
        config = CheckConfig(chars=("DEF", "J"))
        rep = check_all(paper6(), config)
        assert [v.id for v in rep.verdicts] == ["DEF", "J"]
        assert rep.overall == "yes"

    def test_unknown_char_rejected(self):
        with pytest.raises(InvalidParameter):
            check_all(paper6(), CheckConfig(chars=("DEF", "ZZ")))

    def test_negative_walk_bound_rejected(self):
        with pytest.raises(InvalidParameter):
            CheckConfig(max_walk_len=-1)
        assert CheckConfig(max_walk_len=0).max_walk_len == 0


def _floor_graphs():
    graphs = small_digraphs() + [cycle(n) for n in range(3, 31)]
    return graphs + [paley(7), paley(19), paper6()]


class TestMinPolyDegreeFloor:
    """I, A, ..., A^D are independent, so D + 1 <= deg μ <= n, and D + 1 = n
    decides deg μ = n before any Krylov sequence is formed."""

    def test_the_floor_agrees_with_the_krylov_degree(self, monkeypatch):
        runs = []
        real = ratlin._krylov_polynomial
        monkeypatch.setattr(ratlin, "_krylov_polynomial", lambda *a: runs.append(1) or real(*a))
        floors = 0
        for g in _floor_graphs():
            ctx = GraphContext(g, CheckConfig())
            runs.clear()
            degree = ctx.min_poly_degree
            floor = ctx.table.diameter + 1 == g.n
            assert bool(runs) != floor, g.arcs()
            floors += floor
            assert degree == ratlin.minimal_polynomial_degree(ctx.adjacency), g.arcs()
            assert ctx.table.diameter + 1 <= degree <= g.n
        assert floors >= 300

    def test_krylov_runs_once_below_the_floor(self, monkeypatch):
        # paper6 has D + 1 = 4 < 6 = n, so deg μ takes one Krylov sequence
        # there, and check_all reads it for B, C1, I and the spectrum alike;
        # every cycle has D + 1 = n and takes none.
        runs = []
        real = ratlin._krylov_polynomial
        monkeypatch.setattr(ratlin, "_krylov_polynomial", lambda *a: runs.append(1) or real(*a))
        rep = check_all(paper6())
        assert rep.overall == "yes" and rep.d == 3
        assert len(runs) == 1
        runs.clear()
        for n in (3, 10, 20, 30):
            rep = check_all(cycle(n))
            assert rep.overall == "yes" and rep.d == n - 1
        assert not runs


class TestCheckSingle:
    def test_paley7_spectral_excess(self):
        v = check_single(paley(7), "J")
        assert v.verdict == "yes"
        assert v.params["excess_lhs"] == pytest.approx(3.0)
        assert v.params["excess_rhs"] == pytest.approx(3.0)
        assert v.params["gap"] < 1e-6

    def test_chorded_cycle_def_has_witness(self):
        v = check_single(cycle_with_chord(4), "DEF")
        assert v.verdict == "no"
        assert v.witness

    def test_not_applicable_when_not_strongly_connected(self):
        g = Digraph.from_arcs(2, [(0, 1)])
        v = check_single(g, "A")
        assert v.verdict == "not-applicable"
        assert "strongly connected" in v.reason

    def test_unknown_id(self):
        with pytest.raises(InvalidParameter):
            check_single(cycle(3), "Q")

    def test_a_reports_commutative_on_an_open_circulant(self):
        # Cay(Z_8, {1, 4, 5}) is not distance-regular, so some product of its
        # distance matrices leaves their span; each class is a sum of the
        # commuting translations of Z_8, so the products still commute.
        v = check_single(circulant(8, (1, 4, 5)), "A")
        assert v.verdict == "no"
        axioms = v.params["axioms"]
        assert axioms["product_closed"] is False and axioms["commutative"] is True

    def test_a_neither_transposes_nor_adds_matrices(self, corpus, monkeypatch):
        """Check A reads its axioms off the pair count scan and the transpose
        map, so it builds no matrix: with every binding of ratlin.mat_mul,
        IntMatrix.add and IntMatrix.__init__ made to raise, it gives the
        same verdicts, witnesses and params."""
        expected = [check_single(g, "A") for _, g in corpus]

        def refuse(*args):
            raise AssertionError("a matrix was built, multiplied or added")

        for name, module in list(sys.modules.items()):
            if name.startswith("drdkit") and getattr(module, "mat_mul", None) is ratlin.mat_mul:
                monkeypatch.setattr(module, "mat_mul", refuse)
        monkeypatch.setattr(IntMatrix, "add", refuse)
        monkeypatch.setattr(IntMatrix, "__init__", refuse)
        for (name, g), want in zip(corpus, expected):
            got = check_single(g, "A")
            assert (got.verdict, got.witness, got.params) == (
                want.verdict, want.witness, want.params
            ), name
        assert {v.verdict for v in expected} == {"yes", "no"}


class TestMasterEquivalence:
    def test_exhaustive_tiny(self):
        for n in (1, 2, 3):
            for g in all_strongly_connected_digraphs(n):
                rep = check_all(g)
                assert rep.agreement, g.arcs()

    def test_corpus_agreement(self, corpus):
        for name, g in corpus:
            rep = check_all(g)
            assert rep.agreement, name

    @pytest.mark.parametrize("make, n", [(cycle, 60), (paley, 131)])
    def test_large_distance_regular_digraphs_agree(self, make, n):
        # Sizes where the float64 product tier, D's one-product induction
        # and H's shared product table carry every exact check.
        rep = check_all(make(n))
        assert rep.agreement and rep.overall == "yes"
        assert {v.verdict for v in rep.verdicts} == {"yes"}

    def test_def_implies_spectral_count_and_girth_pairing(self, corpus):
        for name, g in corpus:
            if g.n == 1:
                continue
            rep = check_all(g)
            verdicts = {v.id: v.verdict for v in rep.verdicts}
            if not rep.strongly_connected or verdicts["DEF"] != "yes":
                continue
            t = distance_table(g)
            a = adjacency_matrix(g)
            s = spectrum(a)
            assert len(s.eigs) == t.diameter + 1, name
            tm = transpose_closure(distance_matrices(g, t))
            girth = t.girth
            assert girth is not None and girth >= 2
            assert tm.sigma[1] == girth - 1, name

    def test_def_yes_makes_j_applicable_and_yes(self, corpus):
        for name, g in corpus:
            rep = check_all(g)
            verdicts = {v.id: v.verdict for v in rep.verdicts}
            if verdicts.get("DEF") == "yes":
                assert verdicts["J"] == "yes", name

    def test_j_na_reasons_are_spectral_only(self, corpus):
        for name, g in corpus:
            rep = check_all(g)
            for v in rep.verdicts:
                if v.id == "J" and v.verdict == "not-applicable":
                    assert rep.strongly_connected is False or "spectral" in v.reason, name


class TestStrictnessWitness:
    def test_kautz22_separates_weak_dr_from_drd(self):
        g = kautz(2, 2)
        assert weak_dr_comellas(g, distance_table(g))
        assert not is_normal(adjacency_matrix(g))
        rep = check_all(g)
        verdicts = {v.id: v.verdict for v in rep.verdicts}
        assert verdicts["DEF"] == "no"
        assert rep.agreement


class TestExperimentalVariant:
    def test_nx_runs_and_is_excluded_from_agreement(self, fig6):
        rep = check_all(fig6, CheckConfig(experimental_nx=True))
        ids = [v.id for v in rep.verdicts]
        assert ids[-1] == "NX"
        assert rep.verdicts[-1].verdict == "yes"
        assert rep.agreement

    def test_nx_on_corpus_never_disagrees_with_i(self, corpus):
        """Recorded observation: the weakened variant has matched check I on
        every graph we have tried. Not asserted as a theorem anywhere."""
        disagreements = []
        for name, g in corpus:
            rep = check_all(g, CheckConfig(experimental_nx=True))
            verdicts = {v.id: v.verdict for v in rep.verdicts}
            if "NX" in verdicts and verdicts["NX"] != verdicts.get("I"):
                disagreements.append(name)
        assert disagreements == []


class TestIndependenceOfChecks:
    def test_single_is_the_batch_on_that_id_alone(self, corpus):
        # Both run each check on one path, trivial verdicts included; only
        # the experimental NX is left out of a batch that is not strongly
        # connected.
        disconnected = [
            ("two_cycles", Digraph.from_arcs(4, [(0, 1), (1, 0), (2, 3), (3, 2)])),
            ("path3", Digraph.from_arcs(3, [(0, 1), (1, 2)])),
        ]
        for name, g in corpus + disconnected:
            for check_id in CHECK_IDS + ("NX",):
                nx = check_id == "NX"
                config = CheckConfig(chars=() if nx else (check_id,), experimental_nx=nx)
                batch = [replace(v, elapsed_ms=0.0) for v in check_all(g, config).verdicts]
                alone = replace(check_single(g, check_id), elapsed_ms=0.0)
                if nx and not strongly_connected(g):
                    assert batch == [] and alone.verdict == "not-applicable", name
                else:
                    assert batch == [alone], (name, check_id)

    def test_single_matches_batch(self, corpus):
        for name, g in corpus[:10]:
            rep = check_all(g)
            for v in rep.verdicts:
                alone = check_single(g, v.id)
                assert alone.verdict == v.verdict, (name, v.id)
