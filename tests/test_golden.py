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
from hypothesis import given, settings
from hypothesis import strategies as st

from drdkit.cli import main
from drdkit.corpus import cycle, cycle_with_chord, edge_list_text, kautz, paley, paper6, random_sc
from drdkit.report import canonical_json

from oracles import canonical_json_by_dumps

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


# JSON-like documents as reports hold them: string keys, tuples beside lists,
# every float (NaN, infinities, -0.0, subnormals) and non-ASCII text.
documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.integers(), max_size=6)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=30,
)


class TestRenderer:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_renders_what_json_dumps_writes(self, doc):
        assert canonical_json({"doc": doc}) == canonical_json_by_dumps({"doc": doc})

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e-33, 1 / 3, 2.0**70, "é\u2713 \"\\\n", [], {},
         [[]], [True, 1, None], 10**30, (1, 2)],
    )
    def test_edge_values(self, value):
        assert canonical_json({"x": value}) == canonical_json_by_dumps({"x": value})

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_golden_documents(self, name):
        with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        assert canonical_json(doc) == canonical_json_by_dumps(doc) == text

    def test_unknown_types_are_refused(self):
        for doc in ({"x": object()}, {1: 2}):
            with pytest.raises(TypeError):
                canonical_json(doc)


if __name__ == "__main__":  # regenerate the golden files
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(GRAPHS):
            text = masked_report(name, tmp)
            with open(os.path.join(GOLDEN, f"{name}.json"), "w", encoding="utf-8") as fh:
                fh.write(text)
