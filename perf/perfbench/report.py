"""Printing results and comparing two sets of runs."""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from . import metrics
from .stats import median, quartiles, spread


def print_end_to_end(result: dict) -> None:
    """One workload's end-to-end metrics, by name, with sample counts."""
    print(f"\n{result['workload']}: {result['reps']} reps x "
          f"{result['ops_per_rep']} ops "
          f"({result['latency_samples_per_rep']} latency samples per rep)")
    for name, (unit, _, bound) in metrics.END_TO_END.items():
        samples = result["samples"][name]
        print(f"  {name:<14} {result['values'][name]:>12.4f} {unit:<3} "
              f"n={len(samples)} min={min(samples):.4f} "
              f"median={median(samples):.4f} max={max(samples):.4f} "
              f"bound={bound:.2f}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<14} {share:>12.4f} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    for text in result["failures"]:
        print(f"    FAILED {text}")


def print_per_layer(result: dict) -> None:
    print(f"\n{result['workload']} (traced): per-layer metrics")
    for name, (unit, _, exact) in metrics.PER_LAYER.items():
        value = result["values"][name]
        shown = f"{value:>14d}" if isinstance(value, int) \
            else f"{value:>14.4f}"
        print(f"  {name:<34} {shown} {unit}{' (exact)' if exact else ''}")


def contract_line(result: dict, table: Dict[str, tuple]) -> str:
    """The one JSON object the acceptance driver reads."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["values"][name],
                           "unit": table[name][0]}
                    for name in table},
    })


# -- comparing two sets of runs ---------------------------------------------

def _samples(document: dict) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> every sample in a results document.

    A document holds one or more runs; each run contributes its
    per-repetition samples, so ``--spread`` and ``--aa`` documents (many
    runs) and a single plain run compare the same way.
    """
    table: Dict[Tuple[str, str], List[float]] = {}
    for run in document["runs"]:
        for workload, result in run["end_to_end"].items():
            for name, values in result["samples"].items():
                table.setdefault((workload, name), []).extend(values)
    return table


def verdict(base: List[float], other: List[float], bound: float) -> str:
    """``within-bound``, ``regressed`` or ``unresolved``.

    Unresolved: the run-to-run spread of either side is wider than the
    bound, so a difference of that size cannot be told from noise —
    unless every sample of one side beats every sample of the other.
    """
    ratio = median(other) / median(base)
    if max(spread(base), spread(other)) > bound \
            and not (max(other) < min(base) or min(other) > max(base)):
        return "unresolved"
    return "regressed" if ratio > 1.0 + bound else "within-bound"


def compare(base_doc: dict, other_doc: dict) -> bool:
    """Print the comparison; ``True`` when nothing regressed and the
    environments and exact counts agree."""
    agree = True
    if base_doc["env"]["native"] != other_doc["env"]["native"]:
        print("refusing to compare: native status differs "
              f"({base_doc['env']['native']} vs {other_doc['env']['native']})")
        return False
    base, other = _samples(base_doc), _samples(other_doc)
    print(f"{'workload':<20} {'metric':<12} {'base med [q1,q3] n':<34} "
          f"{'other med [q1,q3] n':<34} {'other/base':>10}  verdict")
    for key in sorted(base):
        if key not in other:
            continue
        bound = metrics.END_TO_END[key[1]][2]
        cells = []
        for values in (base[key], other[key]):
            q1, q2, q3 = quartiles(values)
            cells.append(f"{q2:.4f} [{q1:.4f},{q3:.4f}] n={len(values)}")
        outcome = verdict(base[key], other[key], bound)
        agree &= outcome != "regressed"
        print(f"{key[0]:<20} {key[1]:<12} {cells[0]:<34} {cells[1]:<34} "
              f"{median(other[key]) / median(base[key]):>10.3f}  {outcome}")
    for workload, layer in base_doc["runs"][0].get("per_layer", {}).items():
        theirs = other_doc["runs"][0].get("per_layer", {}).get(workload)
        if theirs is None:
            continue
        for name, (_, _, exact) in metrics.PER_LAYER.items():
            ours, other_value = layer["values"][name], theirs["values"][name]
            if exact and ours != other_value:
                agree = False
                print(f"exact count differs: {workload} {name} "
                      f"{ours} vs {other_value}")
    return agree


def print_spread(document: dict) -> None:
    """Interquartile spread of the runs' reported values, per metric —
    the rule the acceptance driver applies to its ten runs."""
    print(f"\nspread over {len(document['runs'])} runs "
          "(quartile distance / median of the per-run values)")
    table: Dict[Tuple[str, str], List[float]] = {}
    for run in document["runs"]:
        for workload, result in run["end_to_end"].items():
            for name, value in result["values"].items():
                table.setdefault((workload, name), []).append(value)
    for (workload, name), values in sorted(table.items()):
        bound = metrics.END_TO_END[name][2]
        share = spread(values)
        note = "" if share <= bound / 3 else \
            ("  > bound/3" if share <= bound else "  > BOUND")
        print(f"  {workload:<20} {name:<12} median={median(values):.4f} "
              f"spread={share:.4f} bound={bound:.2f}{note}")
