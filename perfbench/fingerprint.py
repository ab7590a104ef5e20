"""Result fingerprint of a `report.json`, and its comparison with a golden one.

The fingerprint keeps what a correct run must reproduce: per block
(per-task experiment or fused cell) the predicted labels, the prediction
rows they belong to, the 3x2 and 2x2 confusion tables, the skipped or
excluded subjects, and every metric.  Labels, rows, tables and subject
lists must match exactly; metric values within METRIC_TOL.  Decision
scores and report bytes are left out on purpose: a change of FFT
implementation moves scores by ~1e-12 while the results stay the same.
"""

from __future__ import annotations

import hashlib
import json

METRIC_TOL = 1e-9


def _rows_digest(predictions: list) -> str:
    """sha256 of the (subject, task, fold, true label) prediction rows."""
    rows = [row[:4] for row in predictions]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _block(block: dict) -> dict:
    return {
        "labels": "".join("C" if row[4] == "Case" else "H" for row in block["predictions"]),
        "rows_sha256": _rows_digest(block["predictions"]),
        "confusion_3x2": block["confusion_3x2"],
        "confusion_2x2": block["confusion_2x2"],
        "subjects_left_out": block.get("skipped_subjects", block.get("excluded_subjects")),
        "metrics": block["metrics"],
    }


def fingerprint(report: dict) -> dict:
    """Block key ("task/feature_set/classifier" or "fused/...") -> block fingerprint."""
    out = {}
    for b in report["per_task"]:
        out[f"{b['task']}/{b['feature_set']}/{b['classifier']}"] = _block(b)
    for b in report["fused"]:
        out[f"fused/{b['feature_set']}/{b['classifier']}"] = _block(b)
    return out


def _compare_metrics(where: str, golden: dict, actual: dict, problems: list) -> None:
    if set(golden) != set(actual):
        problems.append(f"{where}: metric keys differ")
        return
    for key, g in golden.items():
        a = actual[key]
        if isinstance(g, dict):
            _compare_metrics(f"{where}.{key}", g, a, problems)
        elif isinstance(g, bool) or isinstance(a, bool):
            if g is not a:
                problems.append(f"{where}.{key}: {a} != golden {g}")
        elif not abs(a - g) <= METRIC_TOL:  # NaN fails too
            problems.append(f"{where}.{key}: {a!r} differs from golden {g!r}")


def compare(golden: dict, actual: dict) -> list[str]:
    """Every way `actual` departs from `golden`; empty when the run is correct."""
    problems: list[str] = []
    if set(golden) != set(actual):
        problems.append(
            f"blocks differ: missing {sorted(set(golden) - set(actual))}, "
            f"extra {sorted(set(actual) - set(golden))}"
        )
    for key in sorted(set(golden) & set(actual)):
        g, a = golden[key], actual[key]
        for field in ("labels", "rows_sha256", "confusion_3x2", "confusion_2x2",
                      "subjects_left_out"):
            if g[field] != a[field]:
                problems.append(f"{key}: {field} differs from golden")
        _compare_metrics(f"{key}.metrics", g["metrics"], a["metrics"], problems)
    return problems
