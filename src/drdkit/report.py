"""Machine-readable report documents with deterministic serialization.

Schema "drdkit-report/1": sorted keys, floats normalized to 12 significant
digits so that parsing an emitted report and re-serializing it is
byte-identical.
"""
from __future__ import annotations

import json
from typing import Optional

from .characterize import CharacterizationVerdict, Report
from .errors import SpectralError
from .spectral import Spectrum, spectral_excess

SCHEMA = "drdkit-report/1"


def _normalize_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _normalize_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize_floats(v) for v in obj]
    return obj


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
    """Deterministic rendering: sorted keys, normalized floats, newline end."""
    return json.dumps(_normalize_floats(doc), sort_keys=True, indent=2) + "\n"


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
