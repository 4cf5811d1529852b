"""Command-line front end.

Exit codes for `check`: 0 all characterizations agree on yes; 1 they agree on
no; 2 nothing applicable (not strongly connected); 3 internal disagreement
between characterizations, a failed exact certificate or any exception
outside drdkit's own errors (a bug signal, never a property of the input);
4 I/O, parse or parameter errors.
"""
from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Optional, Sequence

from .characterize import CHECK_IDS, CheckConfig, check_all
from .corpus import (
    FAMILIES,
    GeneratorSpec,
    all_strongly_connected_digraphs,
    edge_list_text,
    generate,
    random_sc,
)
from .digraph import Digraph, _check_size, parse_digraph
from .errors import DrdError, InternalInconsistency, ParseError
from .report import canonical_json, human_summary, report_document, spectral_block

EXIT_YES = 0
EXIT_NO = 1
EXIT_NOT_APPLICABLE = 2
EXIT_DISAGREEMENT = 3
EXIT_ERROR = 4

# `fuzz --exhaustive` stops here: n = 5 has 565,080 strongly connected
# digraphs (minutes of checks), and n = 6 has 2**30 arc sets to enumerate.
EXHAUSTIVE_MAX_N = 5


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="drdkit",
        description="Decide distance-regularity of a digraph by running every "
        "characterization independently.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run all characterizations on one digraph")
    p_check.add_argument("path", help="input file ('-' for stdin)")
    p_check.add_argument(
        "--format",
        choices=("edge-list", "adjacency-matrix"),
        default="edge-list",
        help="input format (default edge-list)",
    )
    p_check.add_argument("--json", action="store_true", help="emit the JSON report")
    p_check.add_argument(
        "--tol", type=float, default=CheckConfig.tol,
        help="relative tolerance for spectral checks",
    )
    p_check.add_argument(
        "--cluster-tol", type=float, default=CheckConfig.cluster_tol,
        help="eigenvalue clustering tolerance",
    )
    p_check.add_argument(
        "--char",
        default=None,
        help="comma-separated subset of characterization ids "
        f"(from {','.join(CHECK_IDS)})",
    )
    p_check.add_argument(
        "--max-walk-len", type=int, default=None, help="walk length bound for check E"
    )
    p_check.add_argument(
        "--experimental-nx",
        action="store_true",
        help="also run the experimental weakened variant of check I",
    )

    p_gen = sub.add_parser("gen", help="emit a corpus digraph as an edge list")
    p_gen.add_argument("family", help=f"one of: {', '.join(FAMILIES)}")
    p_gen.add_argument("params", nargs="*", type=int, help="family parameters")
    p_gen.add_argument("--seed", type=int, default=None, help="seed for random-sc")
    p_gen.add_argument("--p", type=float, default=0.5, help="arc probability for random-sc")

    p_fuzz = sub.add_parser(
        "fuzz", help="run the agreement contract over many random or enumerated digraphs"
    )
    p_fuzz.add_argument("n_min", type=int)
    p_fuzz.add_argument("n_max", type=int)
    p_fuzz.add_argument("count", type=int, nargs="?", default=100)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--exhaustive",
        action="store_true",
        help="enumerate every strongly connected digraph in the size range "
        f"(n_max <= {EXHAUSTIVE_MAX_N})",
    )
    p_fuzz.add_argument("--tol", type=float, default=CheckConfig.tol)
    p_fuzz.add_argument("--cluster-tol", type=float, default=CheckConfig.cluster_tol)
    return parser


def _one_line(exc: Exception) -> str:
    """The exception's type and message on one line."""
    return " ".join(f"{type(exc).__name__}: {exc}".split())


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        if args.path == "-":
            text = sys.stdin.read()
        else:
            with open(args.path, "r", encoding="utf-8") as fh:
                text = fh.read()
        g = parse_digraph(text, args.format)
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    chars = tuple(args.char.split(",")) if args.char else None
    try:
        config = CheckConfig(
            tol=args.tol,
            cluster_tol=args.cluster_tol,
            max_walk_len=args.max_walk_len,
            chars=chars,
            experimental_nx=args.experimental_nx,
        )
        report = check_all(g, config)
        if args.json:
            ctx = report.context
            spec = None if ctx is None else spectral_block(ctx.spectrum_or_error, ctx.table)
            text = canonical_json(report_document(report, spec))
        else:
            text = human_summary(report)
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except DrdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash is a bug signal, never a verdict
        print(f"internal error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    sys.stdout.write(text)

    if not report.agreement:
        return EXIT_DISAGREEMENT
    overall = report.overall
    if overall is None:
        return EXIT_NOT_APPLICABLE
    return EXIT_YES if overall == "yes" else EXIT_NO


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        spec = GeneratorSpec(
            family=args.family, params=tuple(args.params), p=args.p, seed=args.seed
        )
        g = generate(spec)
    except DrdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(edge_list_text(g))
    return EXIT_YES


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.n_min < 1 or args.n_max < args.n_min or args.count < 0:
        print("error: need 1 <= n_min <= n_max and count >= 0", file=sys.stderr)
        return EXIT_ERROR
    if args.exhaustive and args.n_max > EXHAUSTIVE_MAX_N:
        print(f"error: --exhaustive needs n_max <= {EXHAUSTIVE_MAX_N}", file=sys.stderr)
        return EXIT_ERROR
    tally = {"yes": 0, "no": 0, "not-applicable": 0}
    disagreements = 0

    def run_one(g) -> None:
        nonlocal disagreements
        try:
            report = check_all(g, config)
        except InternalInconsistency as exc:
            disagreements += 1
            print(f"INTERNAL INCONSISTENCY on arcs={g.arcs()}: {exc}", file=sys.stderr)
            return
        except DrdError:
            raise
        except Exception as exc:  # a crash counts as an internal inconsistency
            disagreements += 1
            print(f"INTERNAL ERROR on arcs={g.arcs()}: {_one_line(exc)}", file=sys.stderr)
            return
        if not report.agreement:
            disagreements += 1
            print(f"DISAGREEMENT on n={g.n} arcs={g.arcs()}", file=sys.stderr)
            return
        overall = report.overall
        tally[overall if overall is not None else "not-applicable"] += 1

    try:
        _check_size(args.n_max)
        config = CheckConfig(tol=args.tol, cluster_tol=args.cluster_tol)
        if args.exhaustive:
            for n in range(args.n_min, args.n_max + 1):
                for g in all_strongly_connected_digraphs(n):
                    run_one(g)
        else:
            rng = random.Random(args.seed)
            for _ in range(args.count):
                n = rng.randint(args.n_min, args.n_max)
                if n == 1:
                    run_one(Digraph.from_arcs(1, []))
                    continue
                p = rng.uniform(0.2, 0.7)
                run_one(random_sc(n, p, seed=rng.randrange(1 << 30)))
    except DrdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    total = sum(tally.values())
    print(
        f"checked {total} digraphs: {tally['yes']} distance-regular, "
        f"{tally['no']} not, {tally['not-applicable']} not applicable; "
        f"{disagreements} disagreements"
    )
    return EXIT_DISAGREEMENT if disagreements else EXIT_YES


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
