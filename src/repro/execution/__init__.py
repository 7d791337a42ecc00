"""Execution of lowered host IR: interpreter, trace synthesis, replay."""

from .interpreter import Interpreter, interpret_function
from .trace import (
    Cause,
    STAGE_TIMINGS,
    TRACE_COUNTERS,
    TraceUnsupported,
    trace_enabled,
)
from .recorder import TraceRecorder, record_trace
from .synthesize import (
    SynthesisUnsupported,
    TraceMismatch,
    diff_traces,
    synthesize_trace,
)
from .metrics import (
    METRICS_PLAN_COUNTERS,
    MetricsPlan,
    MetricsPlanMismatch,
)
from .replay import ReplayExecutor, replay_kernel
# Re-exported from the pool they are an ordered map over: the frozen
# perf/perfbench/layers.py imports run_model_jobs from here.
from ..pool import MODEL_PLAN_COUNTERS, run_model_jobs


#: Sections of :func:`diagnostics`, in the order it has always had.
_DIAGNOSTICS_LAYOUT = (
    "stage_timings", "trace_sources", "served", "metrics_plan",
    "model_plan",
    "store", "tuning", "faults", "native", "service",
)


# Names kept only because the frozen benchmark (``perf/``) reads them.
# The next benchmark-only PR drops them together with the layer metrics
# that read them (``model_plan.*``, ``metrics.incremental_hits``,
# ``metrics.component_memo_hit_ratio``):
#
# * ``diagnostics()["model_plan"]["model_plan_step_hits"]`` — declared
#   in :mod:`repro.pool`, never incremented (perf/perfbench/layers.py
#   :181,184; ``model_plan.step_hit_ratio`` therefore reads 0 and
#   ``model_plan.replay_s`` measures a plan-cache replay).
#   ``model_plan_workers`` beside it is live.
# * ``diagnostics()["metrics_plan"]["plan_incremental_hits"]`` — never
#   incremented (perf/perfbench/harness.py:281).
# * ``diagnostics()["trace_sources"]["recorded"]`` — never incremented
#   (perf/perfbench/harness.py:268).
# * the ``trace_record_s`` stage — fed only by ``REPRO_CHECK=1``'s
#   reference recordings (in harness.py's ``DISJOINT_STAGES``).
# * the ``manual_record_s`` stage — never fed since the hand-written
#   baselines became kernels whose traces are synthesized
#   (perf/perfbench/harness.py:230,274, ``trace.manual_record_s``).
# * ``repro.execution.record_trace`` / ``TraceRecorder`` stay
#   importable from this path (perf/perfbench/layers.py:83).
# * ``repro.execution.metrics.reset_component_memo`` — now "forget which
#   traces share plans"; perf/perfbench/layers.py:139 calls it so that
#   ``replay.first_ms`` measures a build on a fresh trace.
# * ``diagnostics()["metrics_plan"]["component_memo_hits"]`` /
#   ``["component_memo_misses"]`` — never incremented, the memo they
#   counted is gone (perf/perfbench/harness.py:278-280;
#   ``metrics.component_memo_hit_ratio`` therefore reads 0).
# * ``repro.soc.cache.OfflineLruSimulator`` in both of its modes, and
#   with it the ``lru_hierarchy_batch`` C kernel — replay classifies
#   its lines in the ``metrics_pass`` C kernel and no longer constructs
#   one (perf/perfbench/layers.py:201-213, ``soc.cache.offline_*``).
# * the base64 array branch of ``repro.service.protocol.encode_value`` /
#   ``decode_value`` — the socket sends arrays as the kernel store's
#   raw segment, and the tuning journal stores no arrays, so only
#   ``service.codec_encode_ms`` / ``service.codec_decode_ms`` still time
#   it (perf/perfbench/layers.py:273-283).

def diagnostics() -> dict:
    """Where execution time goes and where each kernel's trace came from.

    ``stage_timings`` is cumulative wall-clock per pipeline stage for
    this process; ``trace_sources`` counts how kernels obtained their
    DriverTrace (synthesized / disk_loaded) or why
    they have none — a nonzero ``synth_fallback`` means that many
    kernels failed synthesis and run per tile.  ``served`` counts every
    ``CompiledKernel.run`` call once: ``replay``, or the
    :class:`~repro.execution.trace.Cause` it ran per tile under (no
    trace offered, a failed or faulted build, or a replay refusal: a
    schedule the data plane does not serve, a changed argument, a
    pending conv slice, an injected fault); ``trace_sources
    ["replay_refused"]`` is the sum of its refusal causes.  A replay
    starts from the accelerator's current config, so a config left by
    an earlier call is never a refusal.  ``metrics_plan`` counts
    how replays obtained their metrics plane (cached-plan hits, fresh
    builds, injected-fault cache bypasses) — a nonzero
    ``metrics_plan_fallback`` means the plan cache was bypassed.  A hit
    may be on a plan another kernel built: traces of equal content
    share their plans.  ``model_plan`` holds
    ``model_plan_workers``: how many pool workers merged their deltas
    back.

    All counters include work merged back from pool workers (see
    :func:`repro.counters.merge`) — they are totals for the work this
    process *observed*, not just the work it did on its own threads.

    ``store`` counts on-disk kernel-store events — ``store_corrupt`` /
    ``store_quarantined`` are distinct from ``store_misses``, so a
    corrupted cache directory is visible as such rather than as a cold
    cache; ``store_syncs`` counts fsync batches (one per library write
    outside a commit; one per figure generator, per model-job or sweep
    worker that wrote, and per sweep run inline).  ``faults`` counts injected faults per
    ``REPRO_FAULTS`` site — the proof that a forced fallback rung
    actually fired — and
    ``native`` reports why the C fast path is (un)available.
    ``service`` counts compile/simulate-service events in this process
    (admissions, sheds, coalesced submits, worker crashes, drain-time
    worker merges) — nonzero only in a server process.  ``tuning``
    counts autotuning sweep events (points completed / pruned /
    poisoned, journal appends, ``tuning_journal_commits`` — one fsync
    per report group — and recovery anomalies, sweep-worker crashes and
    restarts, ``tuning_family_waits``: dispatches that passed over a point
    of a kernel family in flight) — nonzero only after a sweep ran.
    """
    # Lazy imports: the service and tuning packages import execution
    # machinery, so pulling them in at module scope would be circular;
    # importing them here makes sure their sections are registered.
    from .. import counters
    from ..service import server  # noqa: F401
    from ..soc._native import native_status
    from ..tuning import counters as tuning  # noqa: F401

    report = counters.snapshot()
    report["native"] = native_status()
    return {name: report[name] for name in _DIAGNOSTICS_LAYOUT}


__all__ = [
    "Interpreter", "interpret_function",
    "Cause", "STAGE_TIMINGS", "TRACE_COUNTERS", "TraceRecorder",
    "TraceUnsupported",
    "record_trace", "trace_enabled",
    "SynthesisUnsupported", "TraceMismatch", "diff_traces",
    "synthesize_trace",
    "METRICS_PLAN_COUNTERS", "MetricsPlan", "MetricsPlanMismatch",
    "MODEL_PLAN_COUNTERS", "run_model_jobs",
    "ReplayExecutor", "replay_kernel",
    "diagnostics",
]
