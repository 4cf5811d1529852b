import argparse
import itertools
import json
import random

import pytest

import drdkit.cli
import drdkit.digraph
from drdkit.characterize import CheckConfig, check_all
from drdkit.cli import main
from drdkit.corpus import cycle_with_chord, edge_list_text, paper6
from drdkit.report import canonical_json


@pytest.fixture
def paper6_file(tmp_path):
    path = tmp_path / "paper6.el"
    path.write_text(edge_list_text(paper6()))
    return str(path)


@pytest.fixture
def chord4_file(tmp_path):
    path = tmp_path / "chord4.el"
    path.write_text(edge_list_text(cycle_with_chord(4)))
    return str(path)


@pytest.fixture
def twocycles_file(tmp_path):
    path = tmp_path / "twocycles.el"
    path.write_text("6 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
    return str(path)


class TestCheckCommand:
    def test_yes_exit_zero(self, paper6_file, capsys):
        assert main(["check", paper6_file]) == 0
        out = capsys.readouterr().out
        assert "overall: yes" in out

    def test_no_exit_one(self, chord4_file):
        assert main(["check", chord4_file]) == 1

    def test_not_applicable_exit_two(self, twocycles_file):
        assert main(["check", twocycles_file]) == 2

    def test_missing_file_exit_four(self, capsys):
        assert main(["check", "/nonexistent/file.el"]) == 4
        assert "error" in capsys.readouterr().err

    def test_parse_error_exit_four(self, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_text("2 2\n0 1\n0 1\n")
        assert main(["check", str(bad)]) == 4

    def test_undecodable_file_exit_four(self, tmp_path, capsys):
        path = tmp_path / "binary.el"
        path.write_bytes(b"\xff\xfe 3 3\n")
        assert main(["check", str(path)]) == 4
        assert "can't decode byte 0xff" in capsys.readouterr().err

    def test_oversized_header_exit_four(self, tmp_path, capsys):
        huge = tmp_path / "huge.el"
        huge.write_text("1000000 0\n")
        assert main(["check", str(huge)]) == 4
        assert "exceed the limit" in capsys.readouterr().err

    def test_json_report(self, paper6_file, capsys):
        assert main(["check", paper6_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "drdkit-report/1"
        assert doc["graph"]["n"] == 6 and doc["graph"]["k"] == 2
        assert doc["agreement"] is True
        assert len(doc["checks"]) == 14
        assert {c["verdict"] for c in doc["checks"]} == {"yes"}
        eigs = doc["spectral"]["eigenvalues"]
        assert sum(m for _, _, m in eigs) == 6
        assert doc["spectral"]["gap"] < 1e-6

    def test_json_round_trip_byte_identical(self, paper6_file, chord4_file, capsys):
        for path in (paper6_file, chord4_file):
            main(["check", path, "--json"])
            emitted = capsys.readouterr().out
            assert canonical_json(json.loads(emitted)) == emitted

    def test_json_reuses_the_check_context(self, paper6_file, monkeypatch, capsys):
        import drdkit.characterize as characterize

        calls = []
        real = characterize.minimal_polynomial

        def counted(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(characterize, "minimal_polynomial", counted)
        assert main(["check", paper6_file, "--json"]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["spectral"]["gap"] < 1e-6

    def test_char_subset(self, paper6_file, capsys):
        assert main(["check", paper6_file, "--char", "DEF,J", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["id"] for c in doc["checks"]] == ["DEF", "J"]

    def test_experimental_nx(self, paper6_file, capsys):
        assert main(["check", paper6_file, "--experimental-nx", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"][-1]["id"] == "NX"

    @pytest.mark.parametrize("flag", ["--tol", "--cluster-tol"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_invalid_tolerance_exit_four(self, paper6_file, flag, value, capsys):
        assert main(["check", paper6_file, flag, value]) == 4
        assert "must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-3", "-1"])
    def test_negative_walk_bound_exit_four(self, paper6_file, value, capsys):
        assert main(["check", paper6_file, "--max-walk-len", value]) == 4
        assert "max_walk_len must be >= 0" in capsys.readouterr().err

    def test_failed_minimal_polynomial_exit_three(self, chord4_file, monkeypatch, capsys):
        # A certificate that never passes must end in exit 3, an internal
        # inconsistency, not in a traceback with exit status 1 ("no"). The
        # minimal polynomial of cycle_with_chord(4) has degree n = 4, where a
        # failed certificate is final.
        import drdkit.ratlin as ratlin

        monkeypatch.setattr(ratlin, "_vanishes", lambda *args: False)
        assert main(["check", chord4_file]) == 3
        assert "certificate failed at degree n" in capsys.readouterr().err

    def test_failed_certificate_below_degree_n_exit_three(self, paper6_file, monkeypatch, capsys):
        # paper6's minimal polynomial has degree 4 < n = 6. Once the refused
        # certificate raises the target to degree 5, every later prime gives
        # degree 4; the search must stop after the few primes a Hadamard
        # bound allows instead of walking the whole prime list.
        import drdkit.ratlin as ratlin

        primes = []
        real = ratlin._annihilator_mod

        def counted(a, v, p):
            primes.append(p)
            assert len(primes) < 100, "the unlucky-prime bound did not stop the search"
            return real(a, v, p)

        monkeypatch.setattr(ratlin, "_vanishes", lambda *args: False)
        monkeypatch.setattr(ratlin, "_annihilator_mod", counted)
        assert main(["check", paper6_file]) == 3
        assert "primes fall below degree 5" in capsys.readouterr().err
        assert 0 < len(primes) < 100

    @pytest.mark.parametrize(
        "module, name, flags",
        [("drdkit.characterize", "distance_table", []), ("drdkit.cli", "spectral_block", ["--json"])],
        ids=["check", "report"],
    )
    def test_crash_exit_three(self, paper6_file, module, name, flags, monkeypatch, capsys):
        # Exit 1 means "no", so an exception that is not one of drdkit's own
        # errors, in the checks or in the report, must end in exit 3 with
        # one line on stderr, not a traceback.
        def crash(*args):
            raise RuntimeError("primitive failed\non two lines")

        monkeypatch.setattr(f"{module}.{name}", crash)
        assert main(["check", paper6_file, *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: primitive failed on two lines\n"

    def test_matrix_format(self, tmp_path):
        path = tmp_path / "c3.mat"
        path.write_text("0 1 0\n0 0 1\n1 0 0\n")
        assert main(["check", str(path), "--format", "adjacency-matrix"]) == 0


class TestGenCommand:
    def test_cycle(self, capsys):
        assert main(["gen", "cycle", "5"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "5 5"
        assert len(lines) == 6

    def test_paper6(self, capsys):
        assert main(["gen", "paper6"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "6 12"

    def test_invalid_parameter(self, capsys):
        assert main(["gen", "paley", "13"]) == 4
        assert "error" in capsys.readouterr().err

    def test_gen_check_pipeline(self, tmp_path, capsys):
        assert main(["gen", "paley", "7"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "paley7.el"
        path.write_text(text)
        assert main(["check", str(path)]) == 0

    def test_random_sc_without_arcs_exits_four_before_sampling(self, monkeypatch, capsys):
        # No arcless digraph on two or more vertices is strongly connected,
        # so no sample is drawn; a single vertex needs no arc.
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a digraph that cannot be strongly connected")

        assert main(["gen", "random-sc", "1", "--p", "0"]) == 0
        assert capsys.readouterr().out == "1 0\n"
        monkeypatch.setattr(drdkit.digraph.Digraph, "from_arcs", refuse)
        assert main(["gen", "random-sc", "2048", "--p", "0"]) == 4
        assert "without arcs is strongly connected" in capsys.readouterr().err


def test_two_calls_build_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(parser, *args, **kwargs):
        if kwargs.get("prog") == "drdkit":
            built.append(parser)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["gen", "cycle", "3"]) == main(["gen", "paper6"]) == 0
    # None when an earlier test already built it in this process.
    assert len(built) <= 1


@pytest.mark.parametrize(
    "argv", [["check", "PATH"], ["fuzz", "1", "1", "1"]], ids=["check", "fuzz"]
)
def test_no_flags_build_the_default_config(argv, paper6_file, monkeypatch):
    configs = []

    def recorded(g, config):
        configs.append(config)
        return check_all(g, config)

    monkeypatch.setattr(drdkit.cli, "check_all", recorded)
    assert main([paper6_file if a == "PATH" else a for a in argv]) == 0
    assert configs == [CheckConfig()]


class TestFuzzCommand:
    def test_seeded_run_is_deterministic(self, capsys):
        assert main(["fuzz", "3", "5", "30", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "3", "5", "30", "--seed", "42"]) == 0
        assert capsys.readouterr().out == first
        assert "0 disagreements" in first

    def test_single_vertex(self, capsys):
        assert main(["fuzz", "1", "1", "1"]) == 0
        assert "1 distance-regular" in capsys.readouterr().out

    def test_exhaustive_three(self, capsys):
        assert main(["fuzz", "3", "3", "--exhaustive"]) == 0
        assert "checked 18 digraphs" in capsys.readouterr().out

    @pytest.mark.parametrize("n_min", ["1", "6"])
    def test_exhaustive_past_five_exits_four_before_enumerating(self, n_min, monkeypatch, capsys):
        # n = 6 alone has 2**30 arc sets, so no such run could finish.
        def refuse(n):
            raise AssertionError("enumerated digraphs past n = 5")

        monkeypatch.setattr(drdkit.cli, "all_strongly_connected_digraphs", refuse)
        assert main(["fuzz", n_min, "6", "--exhaustive"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--exhaustive needs n_max <= 5" in captured.err

    def test_crash_counts_as_internal_inconsistency(self, monkeypatch, capsys):
        import drdkit.characterize as characterize

        def crash(g):
            raise RuntimeError("primitive failed")

        monkeypatch.setattr(characterize, "distance_table", crash)
        assert main(["fuzz", "3", "4", "3", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert "checked 0 digraphs" in captured.out and "3 disagreements" in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 3
        for line in lines:
            assert line.startswith("INTERNAL ERROR on arcs=[(")
            assert line.endswith("]: RuntimeError: primitive failed")

    def test_bad_range(self, capsys):
        assert main(["fuzz", "0", "3"]) == 4

    def test_negative_count(self, capsys):
        assert main(["fuzz", "3", "4", "-5"]) == 4
        assert "count >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol", "--cluster-tol"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_invalid_tolerance_exit_four(self, flag, value, capsys):
        assert main(["fuzz", "1", "1", "1", flag, value]) == 4
        assert "must be finite and >= 0" in capsys.readouterr().err


def _refuse_to_build(monkeypatch):
    """Make building a digraph, or a generator's words, fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("built a digraph over the size limit")

    monkeypatch.setattr(drdkit.digraph.Digraph, "from_arcs", refuse)
    monkeypatch.setattr(itertools, "product", refuse)


class TestSizeLimit:
    @pytest.mark.parametrize(
        "argv", [["fuzz", "9", "9", "1"], ["gen", "random-sc", "9", "--seed", "1"]]
    )
    def test_over_the_limit_exits_four_before_sampling(self, argv, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("sampled a digraph over the size limit")

        monkeypatch.setattr(drdkit.digraph, "MAX_VERTICES", 8)
        monkeypatch.setattr(random, "Random", refuse)
        assert main(argv) == 4
        assert "exceed the limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "cycle", "9"],
            ["gen", "cycle-with-chord", "9"],
            ["gen", "paley", "11"],
            ["gen", "debruijn", "2", "4"],
            ["gen", "kautz", "2", "3"],
        ],
    )
    def test_families_exit_four_before_building(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(drdkit.digraph, "MAX_VERTICES", 8)
        _refuse_to_build(monkeypatch)
        assert main(argv) == 4
        assert "exceed the limit" in capsys.readouterr().err

    def test_huge_word_length_is_refused_without_the_power(self, monkeypatch, capsys):
        _refuse_to_build(monkeypatch)
        assert main(["gen", "debruijn", "2", "10000"]) == 4
        assert "2 * 2^9999 vertices exceed the limit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["gen", "kautz", "10", "2"], ["gen", "debruijn", "11", "2"]])
    def test_alphabet_past_ten_digits_exits_four(self, argv, capsys):
        assert main(argv) == 4
        assert "<=" in capsys.readouterr().err
