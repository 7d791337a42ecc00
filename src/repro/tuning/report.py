"""Best-config reports per (kernel, shape) from sweep results.

A report is a pure function of ``(space, results)``: the results dict
maps point digests to the journaled outcome records, and every field
that could differ between an interrupted-and-resumed sweep and a clean
one-shot sweep — attempt counts, retry/crash tallies, wall-clock —
is deliberately excluded.  That is what makes the acceptance bar
("resume yields a bit-identical report") a property the code can
actually guarantee: outcome records are serialized once, journaled,
and rendered verbatim; rankings sort on the simulated metric with the
point digest as a total-order tie-break.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from ..store import durable_publish
from .space import SweepSpace

#: Report layout version, embedded so downstream consumers can detect
#: incompatible rewrites.
REPORT_SCHEMA_VERSION = 1


def build_report(space: SweepSpace, results: Dict[str, dict]) -> dict:
    """Rank completed points per group; account for every other point."""
    points = {point.digest: point for point in space.points()}
    groups: Dict[str, List[dict]] = {}
    skipped: Dict[str, List[dict]] = {"pruned": [], "poisoned": [],
                                      "failed": []}
    missing = []
    for digest in sorted(points):
        point = points[digest]
        record = results.get(digest)
        if record is None:
            missing.append(digest)
            continue
        status = record.get("status")
        if status == "ok":
            groups.setdefault(point.group, []).append(record)
        elif status in skipped:
            skipped[status].append(record)
    ranked = {}
    for group in sorted(groups):
        entries = sorted(
            groups[group],
            key=lambda record: (record["metric"], record["digest"]),
        )
        ranked[group] = {
            "best": entries[0],
            "ranked": entries,
        }
    completed = sum(len(g["ranked"]) for g in ranked.values())
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "space": space.digest(),
        "groups": ranked,
        "pruned": skipped["pruned"],
        "poisoned": skipped["poisoned"],
        "failed": skipped["failed"],
        "missing": missing,
        "totals": {
            "points": len(points),
            "completed": completed,
            "pruned": len(skipped["pruned"]),
            "poisoned": len(skipped["poisoned"]),
            "failed": len(skipped["failed"]),
            "missing": len(missing),
        },
    }


def render_report(report: dict) -> str:
    """Canonical serialization — the byte-comparison form."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(path, report: dict) -> None:
    """Publish a report atomically (:func:`repro.store.durable_publish`)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with durable_publish(path) as tmp_path:
        tmp_path.write_text(render_report(report), encoding="utf-8")


def best_rows(report: dict) -> List[dict]:
    """Flatten a report's winners into figure-style rows."""
    rows = []
    for group in sorted(report["groups"]):
        best = report["groups"][group]["best"]
        spec = best["spec"]
        rows.append({
            "group": group,
            "impl": "mlir_AXI4MLIR",
            "accel_version": f"v{spec['version']}",
            "flow": spec["flow"],
            "tiles": "x".join(str(t) for t in spec["tiles"]),
            "cpu_tiling": spec["cpu_tiling"],
            "metric_s": best["metric"],
            "digest": best["digest"],
        })
    return rows
