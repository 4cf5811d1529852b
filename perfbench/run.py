"""drdkit benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload drd-yes --seed 1 --seconds 30 --trace 0

Each graph is decided before the next is sent. Passes over the workload's
inputs repeat until the next pass would end after --seconds. With --trace 0
the passes are untraced and the end-to-end metrics are printed; with
--trace 1 untraced and traced passes alternate and the per-layer metrics are
printed. Every verdict is checked against an oracle that shares no code with
drdkit. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See README.md for the workloads and
the metric map.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, Optional

import oracle
import tracer as tracing
import workloads

SETUP_REPEATS = 11
# Fixed here rather than read from drdkit, so the metric names stay put.
CHECK_IDS = ("DEF", "F", "A", "B", "C", "C1", "C2", "D", "E", "G", "G1", "H", "I", "J")
EXIT_FOR = {"yes": 0, "no": 1}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# wall_s is pass time at a nominal host speed. A side process
# (hostprobe.py) times a fixed Fraction routine every quarter second during
# untraced passes; each graph's time is scaled by REFERENCE_S over the median
# probe duration within PAD_S of the graph. REFERENCE_S is a fixed nominal
# probe time, near the probe's typical time on the machine the baselines come
# from. The scaling holds only while drdkit's arithmetic slows like the
# probe's in slow host phases; README.md gives the raw and scaled spreads.
REFERENCE_S = 0.03
PAD_S = 0.5
# setup_s is the median of SETUP_REPEATS set-ups in fresh interpreters, each
# scaled the same way by the same routine, timed in that interpreter just
# before and just after its set-up. There the routine runs with nothing
# beside it, so its nominal time is shorter than REFERENCE_S.
SETUP_REFERENCE_S = 0.018


class HostProbe:
    """Runs hostprobe.py for the duration of a `with` block, then holds its
    samples as sorted (midpoint, duration) pairs.

    The probe writes to a file rather than a pipe, so it never blocks on a
    full pipe however long the block lasts."""

    def __enter__(self) -> "HostProbe":
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hostprobe.py")
        os.makedirs(workloads.OUT, exist_ok=True)
        self.path = os.path.join(workloads.OUT, f"hostprobe-{os.getpid()}.txt")
        with open(self.path, "w", encoding="utf-8") as fh:
            self.proc = subprocess.Popen([sys.executable, script, str(os.getpid())], stdout=fh)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=30)
        with open(self.path, encoding="utf-8") as fh:
            out = fh.read()
        os.remove(self.path)
        # The last line may be cut short by the termination.
        pairs = [line.split() for line in out.splitlines()]
        samples = sorted(
            ((float(a) + float(b)) / 2, float(b) - float(a))
            for a, b in (p for p in pairs if len(p) == 2)
        )
        if not samples:
            raise RuntimeError("host probe produced no samples")
        self.mid = [m for m, _ in samples]
        self.dur = [d for _, d in samples]

    def reference_s(self, t0: float, t1: float) -> float:
        """Median probe duration within PAD_S of [t0, t1], else the nearest."""
        lo = bisect.bisect_left(self.mid, t0 - PAD_S)
        hi = bisect.bisect_right(self.mid, t1 + PAD_S)
        if lo == hi:
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self.mid)]
            lo = min(near, key=lambda i: min(abs(self.mid[i] - t0), abs(self.mid[i] - t1)))
            hi = lo + 1
        return statistics.median(self.dur[lo:hi])


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units: dict[str, str] = {}
    for name in tracing.NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        units[f"{name}.self_ms"] = "ms"
    for check in CHECK_IDS:
        units[f"characterize.check.{check}.ms"] = "ms"
    units["cli.post_check.ms"] = "ms"
    for row in range(1, workloads.ROWS + 1):
        units[f"input.{row}.s"] = "s"
    units["trace.overhead_share"] = "share"
    return units


def _decide_cli(drdkit, inp):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = drdkit.cli.main(["check", inp.path, "--json"])
    return code, out.getvalue()


def _decide_fuzz(drdkit, inp):
    # A fresh Digraph in every pass, built in the timed window as `drdkit
    # fuzz` builds each graph it decides: a Digraph caches derived state, so
    # a reused one would run warm.
    return drdkit.characterize.check_all(drdkit.Digraph.from_arcs(inp.n, inp.arcs))


def _cli_failure(outcome, expected: str) -> Optional[str]:
    """Reads only the exit code and the agreement and overall fields."""
    code, text = outcome
    if code == 3:
        return "exit 3: characterizations disagree"
    try:
        doc = json.loads(text)
        agreement, overall = doc["agreement"], doc["overall"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"exit {code}, unreadable report: {exc!r}"
    if agreement is not True:
        return "agreement: false"
    if overall != expected or code != EXIT_FOR[expected]:
        return f"exit {code}, overall {overall!r}, oracle says {expected!r}"
    return None


def _fuzz_failure(report, expected: str) -> Optional[str]:
    if not report.agreement:
        return "agreement: false"
    if report.overall != expected:
        return f"overall {report.overall!r}, oracle says {expected!r}"
    return None


class Run:
    """The passes of one run and what they measured."""

    def __init__(self, workload: str, drdkit, inputs, expected):
        self.drdkit = drdkit
        self.inputs = inputs
        self.expected = expected
        cli = workload != "fuzz-small"
        self.decide: Callable = _decide_cli if cli else _decide_fuzz
        self.failure: Callable = _cli_failure if cli else _fuzz_failure
        self.attempted = 0
        self.failures: list[str] = []
        self.untraced: list[list[float]] = []  # per-graph seconds, one list per pass
        self.traced: list[list[float]] = []
        self.layers: list[dict] = []  # one dict per traced pass
        self.windows: list[list[tuple[float, float]]] = []  # (start, end) per graph, untraced passes
        self.probe: Optional[HostProbe] = None
        self.tracer: Optional[tracing.Tracer] = None

    def one_pass(self, traced: bool) -> float:
        gc.collect()
        times = []
        check_ms = dict.fromkeys(CHECK_IDS, 0.0)
        tr = self.tracer if traced else None
        lo = len(tr) if tr else 0
        window = []
        for i, inp in enumerate(self.inputs):
            if tr:
                tr.graph = i
            t0 = time.perf_counter()
            try:
                outcome = self.decide(self.drdkit, inp)
            except Exception as exc:  # a raise is a failed graph, not a failed run
                outcome = exc
            t1 = time.perf_counter()
            times.append(t1 - t0)
            window.append((t0, t1))
            self.attempted += 1
            if isinstance(outcome, Exception):
                why = f"raised {outcome!r}"
            else:
                why = self.failure(outcome, self.expected[i])
            if why is not None:
                self.failures.append(f"{inp.name}: {why}")
            if tr:
                for report in tr.kept:
                    for v in report.verdicts:
                        if v.id in check_ms:
                            check_ms[v.id] += v.elapsed_ms
                tr.kept.clear()
        if tr:
            hi = len(tr)
            layer = {}
            for name, (calls, ms, self_ms) in tr.summarize(lo, hi).items():
                layer[f"{name}.calls"] = calls
                layer[f"{name}.ms"] = ms
                layer[f"{name}.self_ms"] = self_ms
            for check, ms in check_ms.items():
                layer[f"characterize.check.{check}.ms"] = ms
            layer["cli.post_check.ms"] = layer["cli.main.ms"] - tr.nested_ms(
                lo, hi, "characterize.check_all", "cli.main"
            )
            self.layers.append(layer)
            self.traced.append(times)
        else:
            self.untraced.append(times)
            self.windows.append(window)
        return sum(times)

    def measure(self, seconds: float, trace: bool) -> None:
        deadline = time.perf_counter() + seconds
        if not trace:
            with HostProbe() as self.probe:
                while True:
                    wall = self.one_pass(False)
                    if time.perf_counter() + wall > deadline:
                        break
            return
        self.tracer = tracing.Tracer()
        while True:
            t0 = time.perf_counter()
            self.one_pass(False)
            with self.tracer:
                self.one_pass(True)
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                return

    def scaled(self, p: int) -> float:
        """Seconds of untraced pass p at the nominal host speed."""
        return sum(
            (t1 - t0) * REFERENCE_S / self.probe.reference_s(t0, t1)
            for t0, t1 in self.windows[p]
        )

    def raw_wall_s(self) -> float:
        return statistics.median(sum(times) for times in self.untraced)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        return {
            "wall_s": statistics.median(self.scaled(p) for p in range(len(self.untraced))),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        values = {}
        for key in self.layers[0]:
            # Counts repeat exactly; median_low keeps them whole numbers.
            median = statistics.median_low if key.endswith(".calls") else statistics.median
            values[key] = median(p[key] for p in self.layers)
        for row in range(1, workloads.ROWS + 1):
            values[f"input.{row}.s"] = statistics.median(
                sum(t for t, inp in zip(times, self.inputs) if inp.row == row)
                for times in self.untraced
            )
        untraced = self.raw_wall_s()
        traced = statistics.median(sum(t) for t in self.traced)
        values["trace.overhead_share"] = (traced - untraced) / untraced
        return values


def _setup_in_fresh_process(workload: str, seed: int) -> tuple[float, float]:
    """Seconds of one set-up in a fresh interpreter: raw, and scaled to the
    nominal host speed."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.py")
    done = subprocess.run(
        [sys.executable, script, workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    seconds, before, after = map(float, done.stdout.split()[-3:])
    return seconds, seconds * SETUP_REFERENCE_S / ((before + after) / 2)


def _print_table(workload: str, run: Run, metrics: dict, units: dict,
                 raw_setup_s: Optional[float]) -> None:
    passes = len(run.untraced) + len(run.traced)
    print(f"workload {workload}: {len(run.inputs)} graphs, {passes} passes "
          f"({len(run.untraced)} untraced, {len(run.traced)} traced)")
    for name, value in metrics.items():
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:<42} {shown:>16} {units[name]}")
    print(f"  failed_share {len(run.failures)}/{run.attempted}")
    if run.probe:
        print(f"  wall_s raw (unscaled) median {run.raw_wall_s():.6f} s")
    if raw_setup_s is not None:
        print(f"  setup_s raw (unscaled) median {raw_setup_s:.6f} s")
    for p, times in enumerate(run.untraced if run.probe else ()):
        scaled = run.scaled(p)
        print(f"  untraced pass {p}: {sum(times):.6f} s measured, {scaled:.6f} s scaled "
              f"(reference {REFERENCE_S * sum(times) / scaled * 1000:.3f} ms, "
              f"nominal {REFERENCE_S * 1000:g} ms)")
    if workload != "fuzz-small":
        for inp in run.inputs:
            print(f"  input.{inp.row} = {inp.name} (n={inp.n})")
    for line in run.failures[:20]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread: the workload is one client on a small machine. Set
    # before numpy is imported through drdkit; set-up processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        _, drdkit, inputs = workloads.setup(args.workload, args.seed)
    except (workloads.DrdkitMissing, ImportError) as exc:
        print(f"error: cannot load drdkit: {exc}", file=sys.stderr)
        return 2
    setups = [] if args.trace else [
        _setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_REPEATS)
    ]
    expected = [oracle.verdict(inp.n, inp.arcs) for inp in inputs]

    run = Run(args.workload, drdkit, inputs, expected)
    run.measure(args.seconds, bool(args.trace))
    raw_setup_s = None
    if args.trace:
        metrics = run.per_layer()
        units = layer_metric_units()
        os.makedirs(workloads.OUT, exist_ok=True)
        run.tracer.write_tsv(os.path.join(workloads.OUT, f"spans-{args.workload}.tsv"))
    else:
        metrics = run.end_to_end(statistics.median(scaled for _, scaled in setups))
        units = END_TO_END
        raw_setup_s = statistics.median(raw for raw, _ in setups)
    _print_table(args.workload, run, metrics, units, raw_setup_s)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
