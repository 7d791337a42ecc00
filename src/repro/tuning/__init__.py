"""Crash-safe autotuning sweep engine.

Enumerates matmul configuration spaces (:mod:`~repro.tuning.space`),
checkpoints progress in an append-only journal
(:mod:`~repro.tuning.journal`), executes points under a supervised
worker pool with pruning, retries, and quarantine
(:mod:`~repro.tuning.driver`), and renders deterministic best-config
reports (:mod:`~repro.tuning.report`).  ``python -m repro.tuning``
is the CLI entry point.

Heavy modules (driver pulls in the compiler and simulator) are loaded
lazily so that importing :mod:`repro.tuning` for its counters — as the
diagnostics surface does — stays cheap.
"""

from __future__ import annotations

from .counters import TUNING_COUNTERS

__all__ = [
    "TUNING_COUNTERS",
    "SweepPoint",
    "SweepSpace",
    "all_permutations",
    "group_floors",
    "smoke_space",
    "SweepJournal",
    "JournalMismatch",
    "JournalReplay",
    "SweepDriver",
    "evaluate_point",
    "tuning_workers",
    "tuning_deadline_s",
    "build_report",
    "render_report",
    "write_report",
    "best_rows",
]

_LAZY = {
    "SweepPoint": "space",
    "SweepSpace": "space",
    "all_permutations": "space",
    "group_floors": "space",
    "smoke_space": "space",
    "SweepJournal": "journal",
    "JournalMismatch": "journal",
    "JournalReplay": "journal",
    "SweepDriver": "driver",
    "evaluate_point": "driver",
    "tuning_workers": "driver",
    "tuning_deadline_s": "driver",
    "build_report": "report",
    "render_report": "report",
    "write_report": "report",
    "best_rows": "report",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
