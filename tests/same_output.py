"""Print digests of drdkit's observable output for one source tree, so that
two trees (say, a change and its parent) can be compared with `diff`.

    python tests/same_output.py ROOT > out.txt

ROOT is a checkout: drdkit is imported from ROOT/src, and the inputs are
built by ROOT/perfbench/workloads.py, loaded by path. The lines are:

- one sha256 per `check --json` document, for every drd-yes and drd-no
  input at seeds 1 and 97, with and without --experimental-nx (56 lines).
  Every value under a key ending in `_ms` is set to 0 first, since
  timings differ from run to run;
- the exit code and summary of `fuzz 1 4 --exhaustive` and of
  `fuzz 5 8 500 --seed 1`;
- one sha256 over the `check_all` records (every verdict's id, verdict,
  reason, witness and params, plus d, girth and diameter, with the
  experimental variant on) of the fuzz-small inputs at seeds 1 and 97;
- one sha256 per check id over the exit codes and `check --json --char X`
  documents (masked as above) of every drd-yes and drd-no input at seed 1
  (14 lines). A check run alone reaches the shared primitives in another
  order than `check_all` does, so these digests cover that order too.

The input files go to a temporary directory, so nothing is written under
ROOT. pytest does not collect this file.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

SEEDS = (1, 97)
WORKLOADS = ("drd-yes", "drd-no")


def _load(root: str):
    """drdkit from root/src and the workloads module of root/perfbench."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import drdkit
    import drdkit.characterize
    import drdkit.cli
    import drdkit.corpus

    if not os.path.abspath(drdkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"drdkit imported from {drdkit.__file__}, not from {src}")
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("same_output_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks the module up
    spec.loader.exec_module(workloads)
    return drdkit, workloads


def _run(drdkit, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = drdkit.cli.main(argv)
    return code, out.getvalue()


def _mask(doc):
    if isinstance(doc, dict):
        return {k: 0 if k.endswith("_ms") else _mask(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_mask(v) for v in doc]
    return doc


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _inputs(drdkit, workloads, tmp: str, workload: str, seed: int):
    """(name, path) of every input of workload at seed, each written as an
    edge list under tmp."""
    for name, n, arcs in workloads._named(drdkit, seed, workload):
        path = os.path.join(tmp, f"{workload}-{seed}-{name}.el")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(drdkit.corpus.edge_list_text(drdkit.Digraph.from_arcs(n, arcs)))
        yield name, path


def _check_json(drdkit, argv: list[str]) -> tuple[int, str]:
    """The exit code and the masked `check --json` document of argv."""
    code, out = _run(drdkit, ["check", "--json", *argv])
    return code, json.dumps(_mask(json.loads(out)), sort_keys=True)


def check_documents(drdkit, workloads, tmp: str) -> list[str]:
    lines = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for name, path in _inputs(drdkit, workloads, tmp, workload, seed):
                for extra in ([], ["--experimental-nx"]):
                    code, doc = _check_json(drdkit, [path, *extra])
                    nx = "nx" if extra else "--"
                    lines.append(f"check {workload} {seed} {name} {nx} exit={code} {_sha(doc)}")
    return lines


def single_check_digests(drdkit, workloads, tmp: str) -> list[str]:
    paths = [
        path
        for workload in WORKLOADS
        for _, path in _inputs(drdkit, workloads, tmp, workload, SEEDS[0])
    ]
    lines = []
    for check_id in drdkit.characterize.CHECK_IDS:
        digest = hashlib.sha256()
        for path in paths:
            code, doc = _check_json(drdkit, [path, "--char", check_id])
            digest.update(f"{code} {doc}\n".encode())
        lines.append(
            f"check --char {check_id} over {' and '.join(WORKLOADS)} at seed {SEEDS[0]}: "
            f"{digest.hexdigest()}"
        )
    return lines


def fuzz_summaries(drdkit) -> list[str]:
    lines = []
    for argv in (["fuzz", "1", "4", "--exhaustive"], ["fuzz", "5", "8", "500", "--seed", "1"]):
        code, out = _run(drdkit, argv)
        lines.append(f"{' '.join(argv)}: exit={code} {out.strip()}")
    return lines


def record_digest(drdkit, workloads) -> str:
    from drdkit.characterize import CheckConfig, check_all

    config = CheckConfig(experimental_nx=True)
    digest = hashlib.sha256()
    count = 0
    for seed in SEEDS:
        for inp in workloads._fuzz(drdkit, seed):
            rep = check_all(drdkit.Digraph.from_arcs(inp.n, inp.arcs), config)
            verdicts = [(v.id, v.verdict, v.reason, v.witness, v.params) for v in rep.verdicts]
            digest.update(repr((rep.d, rep.girth, rep.diameter, verdicts)).encode())
            count += 1
    return f"check_all records over fuzz-small at seeds {SEEDS}: {count} graphs {digest.hexdigest()}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/same_output.py ROOT", file=sys.stderr)
        return 2
    drdkit, workloads = _load(argv[0])
    with tempfile.TemporaryDirectory() as tmp:
        lines = check_documents(drdkit, workloads, tmp)
        lines += fuzz_summaries(drdkit)
        lines.append(record_digest(drdkit, workloads))
        lines += single_check_digests(drdkit, workloads, tmp)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
