import sys

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
    kautz,
    paley,
    paper6,
)
from drdkit.digraph import Digraph, distance_table
from drdkit.errors import InvalidParameter
from drdkit.ratlin import IntMatrix, PartitionBasis, SpanBasis, adjacency_matrix, mat_mul
from drdkit.scheme import distance_matrices, transpose_closure
from drdkit.spectral import is_normal, spectrum

from conftest import circulant, traced_peak
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

    def test_single_vertex_trivially_yes(self):
        rep = check_all(Digraph.from_arcs(1, []))
        assert rep.overall == "yes" and rep.agreement

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

    def test_power_basis_is_the_distance_basis_exactly_when_powers_are_classes(self):
        """When deg minpoly = D + 1 and A^0 .. A^D are constant on the
        distance classes, the powers span the distance basis's space, so the
        powers are that basis; on the others they are eliminated."""

        def complete(n):
            return Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n) if u != v])

        for g in (
            complete(1), cycle(2), cycle(6), cycle(10), complete(3), complete(5),
            paper6(), paley(7), paley(19),
        ):
            ctx = GraphContext(g, CheckConfig())
            assert ctx.power_basis is ctx.distance_basis
        for g in (cycle_with_chord(5), kautz(2, 3)):
            ctx = GraphContext(g, CheckConfig())
            assert ctx.minpoly.degree == ctx.table.diameter + 1
            assert isinstance(ctx.power_basis, SpanBasis)

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

    @pytest.mark.parametrize("n", [60, 100])
    def test_power_basis_holds_one_power_at_a_time(self, n):
        # With the minimal polynomial and the distance basis cached, the
        # comparison of A^j with A_j keeps a few n x n arrays alive, not
        # the n powers.
        ctx = GraphContext(cycle(n), CheckConfig())
        assert ctx.minpoly.degree == ctx.distance_basis.size == n
        assert traced_peak(lambda: ctx.power_basis) < 8 * n * n * 8
        assert ctx.power_basis is ctx.distance_basis

    def test_power_memberships_match_elimination(self, corpus):
        """Wherever deg minpoly = D + 1, each A_i lies in the adjacency
        algebra exactly when elimination over the powers solves for it."""
        kinds = set()
        for name, g in corpus:
            ctx = GraphContext(g, CheckConfig())
            if ctx.minpoly.degree != ctx.table.diameter + 1:
                continue
            powers = [IntMatrix.identity(g.n)]
            while len(powers) < ctx.minpoly.degree:
                powers.append(mat_mul(powers[-1], ctx.adjacency))
            slow = SpanBasis(powers)
            for i, m in enumerate(distance_stack(ctx.table)):
                assert ctx.distance_matrix_in_powers(i) == (slow.solve(m) is not None), (name, i)
            kinds.add(type(ctx.power_basis))
        assert kinds == {PartitionBasis, SpanBasis}

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
        map: with every binding of ratlin.transpose and IntMatrix.add made
        to raise, it gives the same verdicts, witnesses and params."""
        expected = [check_single(g, "A") for _, g in corpus]

        def refuse(*args):
            raise AssertionError("a matrix was transposed or added")

        for name, module in list(sys.modules.items()):
            if name.startswith("drdkit") and getattr(module, "transpose", None) is ratlin.transpose:
                monkeypatch.setattr(module, "transpose", refuse)
        monkeypatch.setattr(IntMatrix, "add", refuse)
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
    def test_single_matches_batch(self, corpus):
        for name, g in corpus[:10]:
            rep = check_all(g)
            for v in rep.verdicts:
                alone = check_single(g, v.id)
                assert alone.verdict == v.verdict, (name, v.id)
