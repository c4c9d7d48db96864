"""The benchmark's own verdict on a ``verify --json`` report list.

It does not trust a report's ``pass`` or ``max_error`` fields: it
recomputes the worst error from ``samples_detail``, treats any
non-finite entry as a failure, and compares with ``tolerance``.
"""

from __future__ import annotations

import math

REPORT_NAMES = {
    "iwasawa": ("iwasawa",),
    "infinitesimal": ("infinitesimal-exact", "infinitesimal-fd"),
    "projection": (
        "projection-welldef",
        "projection-displacement",
        "projection-roundtrip",
        "projection-linearity",
        "projection-pairing",
    ),
    "lagrangian-vertical": ("lagrangian-vertical-kks", "lagrangian-vertical-std"),
    "lagrangian-horizontal": ("lagrangian-horizontal-kks", "lagrangian-horizontal-std"),
    "graph": ("graph-exact", "graph-fd"),
    "theorem": ("theorem-match", "theorem-invariance", "theorem-nondegenerate"),
}
REPORT_NAMES["all"] = tuple(name for names in REPORT_NAMES.values() for name in names)

# Reports that carry one chamber-level entry instead of one per sample.
SINGLE_ENTRY = {"projection-pairing"}


def check_reports(payload, suite: str, samples: int, seed: int) -> list[str]:
    """Return every problem found in one call's report list; empty means
    the call passed."""
    if not isinstance(payload, list):
        return ["report file is not a JSON array"]
    names = tuple(r.get("suite") if isinstance(r, dict) else None for r in payload)
    expected = REPORT_NAMES[suite]
    if names != expected:
        return [f"report names {list(names)} != expected {list(expected)}"]
    problems = []
    for report in payload:
        problems += [f"{report['suite']}: {p}" for p in _check_one(report, samples, seed)]
    return problems


def _check_one(report: dict, samples: int, seed: int) -> list[str]:
    detail = report.get("samples_detail")
    if not isinstance(detail, list) or not detail:
        return ["no samples_detail"]
    want = 1 if report["suite"] in SINGLE_ENTRY else samples
    problems = []
    if len(detail) != want or report.get("samples") != len(detail):
        problems.append(f"{len(detail)} samples_detail entries, expected {want}")
    if [d.get("index") for d in detail] != list(range(len(detail))):
        problems.append("samples_detail indices out of order")
    if report.get("seed") != seed:
        problems.append(f"seed {report.get('seed')} != {seed}")
    errors = [_number(d.get("error")) for d in detail]
    bad = [i for i, e in enumerate(errors) if not math.isfinite(e)]
    if bad:
        problems.append(f"non-finite error at samples {bad}")
        worst = math.inf
    else:
        worst = max(errors)
    tolerance = _number(report.get("tolerance"))
    verdict = worst <= tolerance
    if not verdict and not bad:
        problems.append(f"max_error {worst!r} over tolerance {tolerance!r}")
    if not bad and _number(report.get("max_error")) != worst:
        problems.append(f"reported max_error {report.get('max_error')!r} != recomputed {worst!r}")
    if report.get("pass") is not verdict:
        problems.append(f"reported pass={report.get('pass')!r} but re-derived verdict is {verdict}")
    return problems


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return math.nan
    return float(value)
