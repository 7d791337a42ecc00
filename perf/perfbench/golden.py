"""The golden reference, produced once by the slowest tier.

``--regenerate-golden`` runs :func:`generate` in a scrubbed process with
``REPRO_NO_TRACE=1`` (every kernel through the per-tile driver),
``REPRO_NO_NATIVE=1`` (pure-Python cost engine) and no kernel store,
so the reference shares nothing with the fast paths the workloads
exercise.  Normal runs only read ``perf/golden/*.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from . import specs
from .spans import NullTracer
from .worker import GOLDEN_DIR, rows_digest, sweep_group_digests

SLOW_TIER_ENV = {"REPRO_NO_TRACE": "1", "REPRO_NO_NATIVE": "1"}


def _plain(value):
    return int(value) if isinstance(value, (int, np.integer)) \
        else float(value)


def golden_counters() -> dict:
    """``PerfCounters`` fields of every spec in every pool."""
    from .ops import run_op

    table = {}
    for name, pool in sorted(specs.POOLS.items()):
        for index, spec in enumerate(pool):
            key = specs.spec_key(spec)
            if key in table:
                continue
            inputs = specs.make_inputs(name, index, 0, 0)
            counters, output = run_op(spec, inputs, "per_tile",
                                      NullTracer())
            if not np.array_equal(output,
                                  specs.expected_output(spec, inputs)):
                raise RuntimeError(f"slow tier computed {key} wrongly")
            table[key] = {field: _plain(value)
                          for field, value in vars(counters).items()}
    return table


def golden_figures() -> dict:
    from repro import experiments

    table = {}
    for smoke, names in ((False, specs.FIGURE_OPS),
                         (True, specs.SMOKE_FIGURE_OPS)):
        for name in names:
            rows = getattr(experiments, name)(
                *specs.figure_arguments(name, smoke))
            table[specs.figure_key(name, smoke)] = rows_digest(rows)
    return table


def golden_sweep(scratch: Path) -> dict:
    from repro.tuning import SweepDriver

    table = {}
    for smoke, prefix in ((False, ""), (True, "smoke.")):
        result = SweepDriver(specs.sweep_space(0, smoke),
                             scratch / f"{prefix}journal.jsonl").run()
        if not result["complete"]:
            raise RuntimeError("golden sweep did not complete")
        for group, digest in sweep_group_digests(result["report"]).items():
            table[prefix + group] = digest
    return table


def generate(scratch: Path) -> None:
    """Write ``perf/golden/{counters,figures,sweep}.json``."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, table in (("counters", golden_counters()),
                        ("figures", golden_figures()),
                        ("sweep", golden_sweep(scratch))):
        with open(GOLDEN_DIR / f"{name}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(table, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"golden/{name}.json: {len(table)} entries", flush=True)


if __name__ == "__main__":
    generate(Path(sys.argv[1]))
