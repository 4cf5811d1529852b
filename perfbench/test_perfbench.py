"""Tests of the benchmark itself: oracle, tracer and output contract.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import oracle
import run
import tracer as tracing
import workloads

drdkit = workloads.import_drdkit()
corpus = drdkit.corpus
HERE = os.path.dirname(os.path.abspath(__file__))


def _verdict(g) -> str:
    return oracle.verdict(g.n, g.arcs())


@pytest.mark.parametrize("n", [2, 3, 7, 10])
def test_oracle_says_yes_for_cycles(n):
    assert _verdict(corpus.cycle(n)) == "yes"


def test_oracle_says_yes_for_paley7_and_paper6():
    assert _verdict(corpus.paley(7)) == "yes"
    assert _verdict(corpus.paper6()) == "yes"


def test_oracle_says_no_for_chord_and_non_regular():
    assert _verdict(corpus.cycle_with_chord(5)) == "no"
    # 0 -> 1 -> 2 -> 0 plus 1 -> 0: vertex 1 has out-degree 2, the others 1.
    assert oracle.verdict(3, [(0, 1), (1, 2), (2, 0), (1, 0)]) == "no"


def test_oracle_rejects_not_strongly_connected():
    with pytest.raises(ValueError):
        oracle.verdict(3, [(0, 1), (1, 2)])


def test_oracle_finds_fifteen_on_fuzz_small_sweep():
    small = [g for n in range(1, 5) for g in corpus.all_strongly_connected_digraphs(n)]
    assert len(small) == 1626
    assert sum(_verdict(g) == "yes" for g in small) == 15


def _bindings():
    """Every attribute of every drdkit module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "drdkit" or name.startswith("drdkit."):
            for key, value in vars(module).items():
                seen[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        seen[(name, key, attr)] = member
    return seen


def test_tracer_rebinds_every_holder_and_restores_every_name():
    before = _bindings()
    mat_mul = drdkit.ratlin.mat_mul
    solve = drdkit.ratlin.SpanBasis.solve
    with tracing.Tracer():
        assert drdkit.ratlin.mat_mul is not mat_mul
        assert drdkit.scheme.mat_mul is drdkit.ratlin.mat_mul
        assert drdkit.characterize.mat_mul is drdkit.ratlin.mat_mul
        assert drdkit.check_all is drdkit.characterize.check_all
        assert drdkit.cli.check_all is drdkit.characterize.check_all
        assert drdkit.ratlin.SpanBasis.solve is not solve
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_tracer_restores_names_when_the_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []


def _traced_run(workload: str, count: int) -> run.Run:
    inputs = workloads.build_inputs(drdkit, workload, workloads.DEFAULT_SEED)[:count]
    expected = [oracle.verdict(inp.n, inp.arcs) for inp in inputs]
    r = run.Run(workload, drdkit, inputs, expected)
    r.measure(0, trace=True)
    return r


def test_self_times_fit_in_traced_wall_time():
    r = _traced_run("drd-yes", 2)
    layer = r.layers[0]
    wall_ms = sum(r.traced[0]) * 1000.0
    self_ms = sum(layer[f"{name}.self_ms"] for name in tracing.NAMES)
    assert 0 < self_ms <= wall_ms
    assert layer["cli.main.ms"] <= wall_ms
    assert layer["cli.main.calls"] == 2
    assert layer["ratlin.minimal_polynomial.calls"] == 4  # two per graph via the CLI
    assert layer["scheme.damerell_numbers.calls"] == 4
    assert 0 < layer["cli.post_check.ms"] < layer["cli.main.ms"]
    assert r.failures == []


class _FixedProbe:
    def reference_s(self, t0, t1):
        return 2 * run.REFERENCE_S


def _fuzz_run(count: int) -> run.Run:
    inputs = workloads.build_inputs(drdkit, "fuzz-small", workloads.DEFAULT_SEED)[:count]
    return run.Run("fuzz-small", drdkit, inputs, [oracle.verdict(i.n, i.arcs) for i in inputs])


def test_wall_time_is_scaled_by_reference_speed():
    r = _fuzz_run(300)
    r.one_pass(False)
    r.probe = _FixedProbe()
    assert r.scaled(0) == pytest.approx(sum(r.untraced[0]) / 2)
    assert r.end_to_end(1.0)["wall_s"] == r.scaled(0)
    assert r.raw_wall_s() == sum(r.untraced[0])
    assert r.failures == []


def test_passes_never_share_a_digraph(monkeypatch):
    r = _fuzz_run(200)
    seen: list[list] = []
    check_all = drdkit.characterize.check_all

    def recording(digraph):
        seen[-1].append(digraph)  # held, so no id is reused
        return check_all(digraph)

    monkeypatch.setattr(drdkit.characterize, "check_all", recording)
    for _ in range(2):
        seen.append([])
        r.one_pass(False)
    first, second = ({id(g) for g in graphs} for graphs in seen)
    assert len(first) == len(second) == 200
    assert first.isdisjoint(second)
    assert r.failures == []


def test_host_probe_ends_its_process_and_keeps_samples():
    with run.HostProbe() as probe:
        time.sleep(1.0)
    assert probe.proc.poll() is not None
    assert not os.path.exists(probe.path)
    assert len(probe.dur) >= 2 and min(probe.dur) > 0
    first = probe.mid[0]
    assert probe.reference_s(first, first) > 0
    assert probe.reference_s(first + 100, first + 101) == probe.dur[-1]


def _benchmark_json() -> dict:
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_metrics_the_command_prints():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_with_its_unit(trace):
    spec = _benchmark_json()
    metrics = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "fuzz-small",
         "--seed", "3", "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2126 * (2 if trace == "1" else 1)
    wanted = {m["name"]: m["unit"] for m in metrics}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    table = {
        words[0]: words[-1]
        for words in (line.split() for line in done.stdout.splitlines()[:-1])
        if words and words[0] in wanted
    }
    assert table == wanted


def test_command_fails_without_drdkit_sources(tmp_path):
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drd-yes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
