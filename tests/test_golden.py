"""Golden reports: `drdkit check --json` must reproduce the stored documents
byte for byte, apart from the timing fields, which are masked.

A change that is meant to alter a report regenerates the files with
`PYTHONPATH=src python tests/test_golden.py` and says why in its change log.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest

from drdkit.cli import main
from drdkit.corpus import cycle, cycle_with_chord, edge_list_text, kautz, paley, paper6, random_sc
from drdkit.report import canonical_json

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

GRAPHS = {
    "paper6": paper6,
    "cycle10": lambda: cycle(10),
    "paley19": lambda: paley(19),
    "kautz_2_3": lambda: kautz(2, 3),
    "chord4": lambda: cycle_with_chord(4),
    "random_sc_9": lambda: random_sc(9, 0.35, seed=5),
}


def masked_report(name: str, tmp_dir: str) -> str:
    """The `check --json` document of one golden graph, timings masked."""
    path = os.path.join(tmp_dir, f"{name}.el")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edge_list_text(GRAPHS[name]()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["check", path, "--json"])
    doc = json.loads(out.getvalue())
    doc["total_ms"] = "masked"
    for check in doc["checks"]:
        check["elapsed_ms"] = "masked"
    return canonical_json(doc)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_report_matches_golden(name, tmp_path):
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        assert masked_report(name, str(tmp_path)) == fh.read()


if __name__ == "__main__":  # regenerate the golden files
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(GRAPHS):
            text = masked_report(name, tmp)
            with open(os.path.join(GOLDEN, f"{name}.json"), "w", encoding="utf-8") as fh:
                fh.write(text)
