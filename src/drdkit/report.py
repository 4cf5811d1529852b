"""Machine-readable report documents with deterministic serialization.

Schema "drdkit-report/1": sorted keys, floats normalized to 12 significant
digits so that parsing an emitted report and re-serializing it is
byte-identical.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import Optional

from .characterize import CharacterizationVerdict, Report
from .errors import SpectralError
from .spectral import Spectrum, spectral_excess

SCHEMA = "drdkit-report/1"


def _float_text(x: float) -> str:
    """x at 12 significant digits, written as `json.dumps` writes a float."""
    x = float(f"{x:.12g}")
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _render(obj, pad: str) -> str:
    """obj as `json.dumps(obj, sort_keys=True, indent=2)` writes it at
    indent pad, with floats normalized. Keys must be strings, as in every
    report. Strings go through the C encoder, and a list of ints is joined
    at once."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is int for v in obj):
            items = map(int.__repr__, obj)
        else:
            items = (_render(v, inner) for v in obj)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f"{encode_basestring_ascii(k)}: {_render(v, inner)}" for k, v in sorted(obj.items())
        )
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _verdict_doc(v: CharacterizationVerdict) -> dict:
    doc: dict = {"id": v.id, "verdict": v.verdict, "elapsed_ms": v.elapsed_ms}
    if v.reason is not None:
        doc["reason"] = v.reason
    if v.witness is not None:
        doc["witness"] = v.witness
    if v.params is not None:
        doc["params"] = v.params
    return doc


def spectral_block(report: Report) -> Optional[dict]:
    """Eigenvalue listing plus both sides of the spectral excess identity.
    None when the checks were trivial (not strongly connected, or one
    vertex) or the spectrum was not computable."""
    ctx = report.context
    spec = ctx.spectrum_or_error if report.strongly_connected and report.n > 1 else None
    if not isinstance(spec, Spectrum):
        return None
    block: dict = {
        "eigenvalues": [[lam.real, lam.imag, m] for lam, m in spec.eigs],
    }
    try:
        block["excess_lhs"], block["excess_rhs"], block["gap"] = spectral_excess(spec, ctx.table)
    except SpectralError:
        pass
    return block


def report_document(report: Report) -> dict:
    """Assemble the serializable document for one graph's report; its floats
    are normalized when `canonical_json` renders it."""
    return {
        "schema": SCHEMA,
        "graph": {
            "n": report.n,
            "m": report.m,
            "k": report.k,
            "diameter": report.diameter,
            "d": report.d,
            "girth": report.girth,
            "strongly_connected": report.strongly_connected,
        },
        "checks": [_verdict_doc(v) for v in report.verdicts],
        "agreement": report.agreement,
        "overall": report.overall,
        "total_ms": report.total_ms,
        "spectral": spectral_block(report),
    }


def canonical_json(doc: dict) -> str:
    """Deterministic rendering: sorted keys, normalized floats, newline end,
    byte for byte the text of `json.dumps` at indent 2."""
    return _render(doc, "") + "\n"


def human_summary(report: Report) -> str:
    """Terminal-friendly rendering of a report."""
    lines = []
    k = report.k if report.k is not None else "-"
    d = report.d if report.d is not None else "-"
    dia = report.diameter if report.diameter is not None else "-"
    g = report.girth if report.girth is not None else "-"
    lines.append(
        f"graph: n={report.n} m={report.m} k={k} D={dia} d={d} girth={g} "
        f"strongly_connected={report.strongly_connected}"
    )
    for v in report.verdicts:
        extra = ""
        if v.verdict == "no" and v.witness:
            extra = f"  [{v.witness}]"
        elif v.verdict == "not-applicable" and v.reason:
            extra = f"  [{v.reason}]"
        lines.append(f"  {v.id:>4}: {v.verdict}{extra}")
    lines.append(f"agreement: {report.agreement}")
    overall = report.overall
    lines.append(f"overall: {overall if overall is not None else 'not-applicable'}")
    return "\n".join(lines) + "\n"
