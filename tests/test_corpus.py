import itertools
import re

import pytest

from drdkit.characterize import check_all
from drdkit.corpus import (
    FAMILIES,
    GeneratorSpec,
    all_strongly_connected_digraphs,
    cycle,
    cycle_with_chord,
    debruijn,
    edge_list_text,
    generate,
    kautz,
    paley,
    paper6,
    random_sc,
)
from drdkit.digraph import Digraph, distance_table, parse_digraph, regularity, strongly_connected
from drdkit.errors import InvalidParameter

from conftest import traced_peak
from oracles import strongly_connected_digraphs_by_mask


class TestFamilies:
    def test_cycle(self):
        g = cycle(7)
        assert g.n == 7 and g.m == 7
        assert regularity(g) == 1

    def test_paper6_arc_count(self):
        g = paper6()
        assert g.n == 6 and g.m == 12
        assert regularity(g) == 2

    def test_paley7_arcs_are_squares(self):
        g = paley(7)
        squares = {1, 2, 4}
        for x in range(7):
            for y in range(7):
                if x != y:
                    assert g.matrix[x, y] == ((y - x) % 7 in squares)

    @pytest.mark.parametrize("q", [3, 7, 11, 19, 43, 59])
    def test_paley_equals_the_arc_comprehension(self, q):
        squares = {x * x % q for x in range(1, q)}
        arcs = [(x, y) for x in range(q) for y in range(q) if (y - x) % q in squares]
        assert paley(q) == Digraph.from_arcs(q, arcs)

    def test_paley_rejects_bad_modulus(self):
        with pytest.raises(InvalidParameter):
            paley(13)
        with pytest.raises(InvalidParameter):
            paley(9)

    def test_kautz_shape(self):
        g = kautz(2, 2)
        assert g.n == 6
        assert regularity(g) == 2
        assert strongly_connected(g)

    def test_debruijn_loopless_is_simple(self):
        g = debruijn(2, 3)
        assert g.n == 8
        assert not g.matrix.diagonal().any()

    def test_cycle_with_chord(self):
        g = cycle_with_chord(5)
        assert g.m == 6
        assert strongly_connected(g)
        assert regularity(g) is None

    def test_random_sc_deterministic(self):
        a = random_sc(7, 0.4, seed=123)
        b = random_sc(7, 0.4, seed=123)
        assert a == b
        assert strongly_connected(a)


class TestGenerate:
    def test_dispatch(self):
        assert generate(GeneratorSpec("cycle", (5,))) == cycle(5)
        assert generate(GeneratorSpec("paper6")) == paper6()
        assert generate(GeneratorSpec("kautz", (2, 2))) == kautz(2, 2)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            generate(GeneratorSpec("cycle", ()))
        with pytest.raises(InvalidParameter):
            generate(GeneratorSpec("nosuch", (1,)))
        with pytest.raises(InvalidParameter):
            generate(GeneratorSpec("paley", (13,)))

    # Family -> (its parameter count, the message for any other count).
    ARITY = {
        "cycle": (1, "cycle takes one parameter: n"),
        "paper6": (0, "paper6 takes no parameters"),
        "paley": (1, "paley takes one parameter: q"),
        "debruijn": (2, "debruijn takes two parameters: d n"),
        "kautz": (2, "kautz takes two parameters: d n"),
        "random-sc": (1, "random-sc takes one parameter: n"),
        "cycle-with-chord": (1, "cycle-with-chord takes one parameter: n"),
    }

    def test_families_in_order(self):
        assert FAMILIES == tuple(self.ARITY)

    @pytest.mark.parametrize("family", list(ARITY))
    def test_wrong_arity_names_the_parameters(self, family):
        count, message = self.ARITY[family]
        for wrong in sorted({0, 1, 2, 3} - {count}):
            with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
                generate(GeneratorSpec(family, (5,) * wrong))

    @pytest.mark.parametrize("family", ["nosuch", "", "Cycle", "random_sc"])
    def test_unknown_family_lists_the_known_ones(self, family):
        message = (
            f"unknown family {family!r}; known: cycle, paper6, paley, debruijn, "
            "kautz, random-sc, cycle-with-chord"
        )
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            generate(GeneratorSpec(family, (5,)))

    def test_random_sc_takes_the_spec_probability_and_seed(self):
        spec = GeneratorSpec("random-sc", (7,), p=0.3, seed=11)
        assert generate(spec) == random_sc(7, 0.3, 11)

    def test_edge_list_round_trip(self):
        for spec in (
            GeneratorSpec("cycle", (6,)),
            GeneratorSpec("paper6"),
            GeneratorSpec("paley", (7,)),
        ):
            g = generate(spec)
            assert parse_digraph(edge_list_text(g)) == g

    def test_edge_list_round_trip_with_digit_string_labels(self):
        # Word labels like "001" must not be mistaken for vertex indices.
        for g in (debruijn(2, 3), kautz(2, 2)):
            parsed = parse_digraph(edge_list_text(g))
            assert parsed.n == g.n
            assert (parsed.matrix == g.matrix).all()


class TestFamilyVerdicts:
    def test_cycles_are_distance_regular(self):
        for n in range(3, 13):
            assert check_all(cycle(n)).overall == "yes"

    def test_paley_properties(self):
        from drdkit.scheme import distance_matrices, transpose_closure

        for q in (7, 11):
            g = paley(q)
            t = distance_table(g)
            assert t.diameter == 2 and t.girth == 3
            assert transpose_closure(distance_matrices(g, t)).sigma == (0, 2, 1)
            rep = check_all(g)
            assert rep.overall == "yes" and rep.agreement

    def test_chorded_cycles_are_not(self):
        for n in range(4, 9):
            rep = check_all(cycle_with_chord(n))
            assert rep.overall == "no" and rep.agreement


class TestDamerellGirth:
    def test_every_yes_has_girth_d_or_d_plus_one(self, corpus):
        # Damerell (JCTB 31, 1981): a distance-regular digraph of diameter
        # D >= 1 that is not an undirected graph (its adjacency matrix is not
        # symmetric) has girth D or D + 1. Undirected ones are excluded: the
        # hexagon Cay(Z_6, {1, 5}) has girth 2 and D = 3. The corpus's one
        # undirected "yes" of positive diameter, the digon, has girth 2 =
        # D + 1. K_1 has no arc, so no girth.
        decided_yes = 0
        for name, g in corpus:
            if g.m == 0 or check_all(g).overall != "yes":
                continue
            t = distance_table(g)
            assert t.girth in (t.diameter, t.diameter + 1), name
            decided_yes += 1
        assert decided_yes >= 15  # cycles, paper6, Paley and Kautz members


class TestEnumeration:
    def test_counts_small(self):
        # OEIS A035512: strongly connected digraphs on n labeled vertices.
        for n, count in enumerate((1, 1, 18, 1606, 565080), start=1):
            assert sum(1 for _ in all_strongly_connected_digraphs(n)) == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sequence_matches_the_mask_oracle(self, n):
        graphs = list(all_strongly_connected_digraphs(n))
        assert [g.arcs() for g in graphs] == strongly_connected_digraphs_by_mask(n)
        assert all(g.labels == tuple(map(str, range(n))) for g in graphs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matrices_are_valid_and_equal_the_checked_build(self, n):
        for g in all_strongly_connected_digraphs(n):
            matrix = g.matrix
            assert matrix.dtype == bool and matrix.shape == (n, n)
            assert not matrix.flags.writeable and not matrix.diagonal().any()
            checked = Digraph.from_arcs(n, g.arcs())
            assert g == checked and hash(g) == hash(checked)

    def test_first_digraphs_need_one_batch_of_memory(self):
        # An unbatched pass over n = 5 holds about 170 MB of bit columns
        # before it yields anything; one batch holds a few MB.
        first = []
        peak = traced_peak(lambda: first.extend(itertools.islice(all_strongly_connected_digraphs(5), 1000)))
        assert len(first) == 1000 and peak < 8 * 2**20

    def test_all_have_property(self):
        for g in all_strongly_connected_digraphs(3):
            assert strongly_connected(g)
