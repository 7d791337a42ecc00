"""Names, units, directions and bounds of every metric.

``BENCHMARK.json`` at the repo root repeats this table for the
acceptance driver; ``perf/tests`` checks the two agree.  Later changes
are judged with these names, so they do not change.
"""

from __future__ import annotations

from typing import Dict, Tuple

WORKLOADS: Dict[str, str] = {
    "figures_cold": "the reproducer's first run: every kernel pays compile, "
                    "synthesis, plan build and store publish; the store "
                    "only sees writes",
    "figures_warm": "the re-run on the store a cold pass just filled: "
                    "store reads, plan apply and ModelPlan replay carry it; "
                    "compile and build should be ~0",
    "steady_replay": "8 hot kernels, everything cached: the floor of "
                     "CompiledKernel.run; compile, synthesis, build and "
                     "store must not move it",
    "per_tile_oracle": "the slowest tiers (per-tile driver, interpreter) "
                       "that every fast path is pinned to; uses cache, copy "
                       "and DMA models live and per tile",
    "service_closed_loop": "2 closed-loop clients over the Unix socket, "
                           "Zipf(1.1) over 12 specs: codec, admission, "
                           "dispatch on top of the warm run path",
    "sweep_fresh": "a fresh autotuning sweep of ~530 near-identical "
                   "points: work sharing, traffic-model pruning, journal "
                   "fsyncs and the third fork pool",
}

#: name -> (unit, better, bound).  The bound is the relative worsening
#: of the median over runs that counts as a regression.  The timing
#: bounds are as wide as the contract allows because this sandbox is
#: not quiet: ten runs of one tree spread 4-14% between their quartiles
#: (README, "Measured spread"); a tighter bound would reject unchanged
#: code.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "lat_p50_ms": ("ms", "lower", 0.25),
    "lat_p95_ms": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: name -> (unit, better, exact).  ``exact`` counts must repeat exactly
#: between two runs of one commit with one seed.
PER_LAYER: Dict[str, Tuple[str, str, bool]] = {
    # layer section: unit costs of single public calls
    "ir.parse_ms": ("ms", "lower", False),
    "ir.print_ms": ("ms", "lower", False),
    "transforms.pipeline_ms": ("ms", "lower", False),
    "transforms.ops_after": ("count", "lower", True),
    "codegen.emit_ms": ("ms", "lower", False),
    "codegen.source_bytes": ("bytes", "lower", True),
    "compiler.compile_miss_ms": ("ms", "lower", False),
    "compiler.compile_hit_us": ("us", "lower", False),
    "compiler.disk_hit_ms": ("ms", "lower", False),
    "synthesize.trace_ms": ("ms", "lower", False),
    "synthesize.events": ("count", "lower", True),
    "trace.record_ms": ("ms", "lower", False),
    "replay.first_ms": ("ms", "lower", False),
    "replay.hit_ms": ("ms", "lower", False),
    "model_plan.record_s": ("s", "lower", False),
    "model_plan.replay_s": ("s", "lower", False),
    "model_plan.step_hit_ratio": ("ratio", "higher", True),
    "pool.fork_job_overhead_ms": ("ms", "lower", False),
    "interpreter.run_ms": ("ms", "lower", False),
    "per_tile.run_ms": ("ms", "lower", False),
    "soc.native_build_s": ("s", "lower", False),
    "soc.cache.live_lines_per_s": ("1/s", "higher", False),
    "soc.cache.offline_lines_per_s": ("1/s", "higher", False),
    "soc.cache.offline_py_lines_per_s": ("1/s", "higher", False),
    "runtime.copy_charge_ms": ("ms", "lower", False),
    "store.encode_ms": ("ms", "lower", False),
    "store.decode_ms": ("ms", "lower", False),
    "store.put_ms": ("ms", "lower", False),
    "store.get_ms": ("ms", "lower", False),
    "store.entry_bytes": ("bytes", "lower", True),
    "service.rpc_roundtrip_ms": ("ms", "lower", False),
    "service.codec_encode_ms": ("ms", "lower", False),
    "service.codec_decode_ms": ("ms", "lower", False),
    "service.overhead_ms": ("ms", "lower", False),
    "tuning.journal_append_ms": ("ms", "lower", False),
    "tuning.journal_replay_ms": ("ms", "lower", False),
    "tuning.estimate_us": ("us", "lower", False),
    # per workload: the traced repetition's diagnostics deltas and spans
    "compiler.kernel_cache_hit_ratio": ("ratio", "higher", False),
    "trace.synth_ratio": ("ratio", "higher", False),
    "metrics.build_s": ("s", "lower", False),
    "metrics.apply_s": ("s", "lower", False),
    "replay.total_s": ("s", "lower", False),
    "synthesize.total_s": ("s", "lower", False),
    "compiler.total_s": ("s", "lower", False),
    "trace.manual_record_s": ("s", "lower", False),
    "metrics.plan_hit_ratio": ("ratio", "higher", False),
    "metrics.component_memo_hit_ratio": ("ratio", "higher", False),
    "metrics.incremental_hits": ("count", "higher", False),
    "store.bytes_after_cold": ("bytes", "lower", False),
    "store.disk_hit_ratio": ("ratio", "higher", False),
    "store.corrupt": ("count", "lower", True),
    "service.lat_p99_ms": ("ms", "lower", False),
    "service.coalesced": ("count", "higher", False),
    "service.shed_busy": ("count", "lower", False),
    "service.idempotent_hits": ("count", "lower", False),
    "service.worker_restarts": ("count", "lower", True),
    "tuning.pruned_share": ("ratio", "higher", True),
    "tuning.points_simulated": ("count", "lower", True),
    "verify.counter_mismatches": ("count", "lower", True),
    "verify.output_mismatches": ("count", "lower", True),
    "closure.attributed_share": ("ratio", "higher", False),
    "closure.unattributed_s": ("s", "lower", False),
    "closure.stage_sum_s": ("s", "lower", False),
    "closure.worker_merged_s": ("s", "lower", False),
    "trace.overhead_share": ("ratio", "lower", False),
}


def benchmark_json(run_seconds: int) -> dict:
    """The contract file's content, derived from the tables above."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in PER_LAYER.items()],
    }
