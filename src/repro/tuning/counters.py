"""Cumulative counters of the autotuning sweep engine.

Surfaced as ``diagnostics()["tuning"]`` and merged across sweep pool
workers exactly like the store/trace/model counters: workers report
deltas against an at-fork snapshot, the parent folds them in, so the
totals describe the work the process *observed*, not just the work its
own threads did.
"""

from __future__ import annotations

from typing import Dict

from .. import counters

TUNING_COUNTERS: Dict[str, int] = counters.section("tuning", {
    "tuning_points_total": 0,        # points enumerated for the run
    "tuning_points_completed": 0,    # simulated + verified this run
    "tuning_points_pruned": 0,       # skipped via traffic estimate
    "tuning_points_poisoned": 0,     # quarantined after repeated crashes
    "tuning_points_failed": 0,       # permanent non-crash failures
    "tuning_points_resumed": 0,      # served from the journal, no recompute
    "tuning_points_inflight": 0,     # in-flight at interrupt, re-run
    "tuning_prune_unsupported": 0,   # TrafficUnsupported: simulated anyway
    "tuning_retries": 0,             # point re-dispatches after failures
    "tuning_worker_crashes": 0,      # worker processes that died mid-point
    "tuning_worker_restarts": 0,     # replacement workers forked
    "tuning_deadline_kills": 0,      # workers killed past the point deadline
    "tuning_workers_merged": 0,      # worker diagnostics deltas folded in
    "tuning_family_waits": 0,        # dispatches that passed over a twin
    "tuning_store_degraded": 0,      # points run with the store seam open
    "tuning_native_degraded": 0,     # points run with native forced off
    "tuning_journal_appends": 0,     # records appended and flushed
    "tuning_journal_commits": 0,     # fsyncs: one per report group
    "tuning_journal_io_errors": 0,   # appends lost to (injected) I/O errors
    "tuning_journal_replayed": 0,    # records recovered on resume
    "tuning_journal_torn_tail": 0,   # unterminated final records dropped
    "tuning_journal_corrupt": 0,     # checksum/JSON-invalid records skipped
    "tuning_journal_duplicates": 0,  # re-journaled results (first wins)
    "tuning_journal_compactions": 0,
})


def count(key: str, amount: int = 1) -> None:
    counters.count(TUNING_COUNTERS, key, amount)
