"""Parent side: scrubbed environment, bench root, repetitions per run.

Every measured process is a fresh ``python -m perfbench.worker`` with
the environment built by :func:`scrubbed_env`.  All temporary stores,
journals, sockets and the program's own temp files (``TMPDIR``) live
under one bench root, removed when the run ends however it ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from . import metrics
from .spans import totals_by_name
from .stats import median, more_reps, percentile

PERF_DIR = Path(__file__).resolve().parent.parent
REPO_DIR = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

MIN_REPS = 3
#: One worker must end well inside the driver's 180 s limit per run.
WORKER_TIMEOUT_S = 150.0
#: Stop adding repetitions once a workload has used this much wall.
WORKLOAD_BUDGET_S = 120.0

#: Workloads whose repetitions are windows inside one set-up process.
WINDOWED = ("steady_replay", "per_tile_oracle", "service_closed_loop")

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    """A measured process crashed, timed out or printed no result."""


def scrubbed_env(root: Path, store: Optional[Path] = None) -> Dict[str, str]:
    """The fixed environment every measured process runs in.

    Ambient ``REPRO_*`` switches are removed so only the program's
    defaults are measured; BLAS is pinned to one thread because numpy's
    worker threads compete with the program's own fork pools for the
    sandbox's cores (unpinned, the cold figure suite burns ~5 cpu-s
    more and its wall clock spreads twice as wide).
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update({pin: "1" for pin in BLAS_PINS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_DIR / "src"),
                                         str(PERF_DIR)])
    env["TMPDIR"] = str(root / "tmp")
    if store is not None:
        env["REPRO_KERNEL_CACHE_DIR"] = str(store)
    return env


def _terminate(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


@contextlib.contextmanager
def bench_root() -> Iterator[Path]:
    """The one directory this run writes temporary files under."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    (root / "tmp").mkdir()
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        yield root
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(root, ignore_errors=True)


def run_worker(job: dict, cwd: Path, env: Dict[str, str]) -> dict:
    """Run one job in a fresh process group; returns its result.

    The result gains ``process_wall_s``: the wall clock from just
    before the process was started until it had exited.
    """
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", json.dumps(job)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        output, errors = process.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        # Timeout or interrupt: take the whole group down (the service
        # and the fork pools are grandchildren) and reap the leader.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    wall = time.perf_counter() - started
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{job['workload']} worker exited {process.returncode}: "
            f"{errors.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["process_wall_s"] = wall
    return result


def run_reps(workload: str, seed: int, root: Path, rule: dict,
             shared: dict, trace: bool = False,
             smoke: bool = False) -> List[dict]:
    """Set up once and time one or more repetitions of a workload.

    ``rule`` is ``{"min_reps", "seconds"}`` (see :func:`stats.more_reps`).
    The figure suite and the sweep need a fresh process and store per
    repetition, so one call is one repetition.  The op-list workloads
    (:data:`WINDOWED`) set up once — import, warm kernels, start and
    warm the server — and run every repetition as a window in that
    process.  ``figures_warm`` fills one store with a cold pass per run
    (``shared`` remembers it) and re-runs on it.
    """
    cwd = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root))
    store = cwd / "store"
    if workload == "figures_warm":
        store = shared.setdefault("store", store)
    store.mkdir(exist_ok=True)
    env = scrubbed_env(root, store)
    job = {"workload": workload, "seed": seed, "smoke": smoke,
           "trace": trace, "store": str(store), "rule": rule}
    if not workload.startswith("figures_"):
        # Set-up is everything the process did outside its timed
        # sections: start, import, native C build, warm-up, server
        # start and drain.
        result = run_worker(job, cwd, env)
        setup_s = result["process_wall_s"] \
            - sum(rep["wall_s"] for rep in result["reps"])
    else:
        # The suite's own process start and import are timed, so its
        # set-up happens here: a throwaway process that imports the
        # program and builds its native library (cold leg), or the cold
        # pass that fills the store (warm leg).
        if workload == "figures_cold" or "fill_s" not in shared:
            setup_started = time.perf_counter()
            if workload == "figures_warm":
                fill = run_worker(dict(job, trace=False), cwd, env)
                if fill["reps"][0]["failed"]:
                    raise WorkerFailed("store fill failed: "
                                       f"{fill['reps'][0]['failures']}")
            else:
                run_worker(dict(job, workload="probe"), cwd, env)
            shared["fill_s"] = time.perf_counter() - setup_started
        setup_s = shared["fill_s"]
        result = run_worker(job, cwd, env)
        result["reps"][0]["wall_s"] = result["process_wall_s"]
    for rep in result["reps"]:
        rep.update(setup_s=setup_s, peak_rss_mb=result["peak_rss_mb"],
                   env=result["env"], spans=result["spans"])
    return result["reps"]


def summarize_rep(rep: dict) -> dict:
    """The end-to-end samples one repetition contributes."""
    latencies_ms = [seconds * 1e3 for seconds in rep["latencies_s"]]
    return {"wall_s": rep["wall_s"], "cpu_s": rep["cpu_s"],
            "lat_p50_ms": median(latencies_ms),
            "lat_p95_ms": percentile(latencies_ms, 95.0),
            "setup_s": rep["setup_s"], "peak_rss_mb": rep["peak_rss_mb"]}


#: How a run's repetitions become its one reported value.  Timings take
#: the best repetition: this sandbox's noise only ever adds time, in
#: slow phases of 10-20 s that can cover most of a run, so the minimum
#: is the steadiest estimate of what the program costs (README,
#: "Measured spread"); the median is printed beside it.
REDUCE = {"wall_s": min, "cpu_s": min, "lat_p50_ms": min, "lat_p95_ms": min,
          "setup_s": median, "peak_rss_mb": max}


def aggregate(workload: str, reps: List[dict]) -> dict:
    """One value per metric and failure counts over the repetitions."""
    samples = [summarize_rep(rep) for rep in reps]
    values = {name: REDUCE[name]([sample[name] for sample in samples])
              for name in metrics.END_TO_END}
    return {
        "workload": workload,
        "reps": len(reps),
        "ops_per_rep": reps[0]["attempted"],
        "latency_samples_per_rep": len(reps[0]["latencies_s"]),
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "failures": [text for rep in reps for text in rep["failures"]][:5],
        "values": values,
        "samples": {name: [sample[name] for sample in samples]
                    for name in metrics.END_TO_END},
        "env": reps[0]["env"],
    }


def run_workload(workload: str, seed: int, seconds: float, root: Path,
                 smoke: bool = False) -> dict:
    """Untraced repetitions until ``seconds`` of timed work are done.

    At least :data:`MIN_REPS` repetitions run (one under ``--smoke``).
    """
    rule = {"min_reps": 1 if smoke else MIN_REPS,
            "seconds": 0.0 if smoke else seconds}
    reps: List[dict] = []
    shared: dict = {}
    started = time.perf_counter()
    while more_reps([rep["wall_s"] for rep in reps], **rule) \
            and time.perf_counter() - started < WORKLOAD_BUDGET_S:
        reps.extend(run_reps(workload, seed, root, rule, shared,
                             smoke=smoke))
    return aggregate(workload, reps)


# -- traced run -------------------------------------------------------------

#: Program stage timers that never nest inside one another; their sum is
#: the part of a run the program itself accounts for.
DISJOINT_STAGES = ("compile_s", "trace_synth_s", "trace_record_s",
                   "manual_record_s", "replay_s")
#: Spans that only group other spans; their self time is loop overhead.
STRUCTURAL_SPANS = ("rep", "op")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def workload_layer_metrics(workload: str, untraced_wall: float,
                           traced: dict) -> Dict[str, float]:
    """Per-layer numbers of one workload, from the traced repetition's
    ``diagnostics()`` deltas and the benchmark's own spans."""
    diag = traced["diag"]
    stages = diag["stage_timings"]
    sources = diag["trace_sources"]
    plan = diag["metrics_plan"]
    store = diag["store"]
    tuning = diag["tuning"]
    service = diag["service"]
    cache = diag.get("kernel_cache", {})  # not visible over the socket
    latencies_ms = [s * 1e3 for s in traced["latencies_s"]]
    wall = traced["wall_s"]
    # Time inside the public calls the benchmark wraps, per thread that
    # recorded spans; the rest of the wall is process start, loop
    # overhead and result printing.
    named = totals_by_name(traced["spans"])
    threads = len({span["thread"] for span in traced["spans"]}) or 1
    attributed = sum(row["self_s"] for name, row in named.items()
                     if name not in STRUCTURAL_SPANS) / threads
    resolved = tuning["tuning_points_completed"] \
        + tuning["tuning_points_pruned"]
    return {
        "compiler.kernel_cache_hit_ratio": _ratio(
            cache.get("hits", 0),
            cache.get("hits", 0) + cache.get("misses", 0)),
        "trace.synth_ratio": _ratio(
            sources["synthesized"],
            sources["synthesized"] + sources["recorded"]),
        "metrics.build_s": stages["metrics_plan_build_s"],
        "metrics.apply_s": stages["metrics_plan_apply_s"],
        "replay.total_s": stages["replay_s"],
        "synthesize.total_s": stages["trace_synth_s"],
        "compiler.total_s": stages["compile_s"],
        "trace.manual_record_s": stages["manual_record_s"],
        "metrics.plan_hit_ratio": _ratio(
            plan["metrics_plan_hits"],
            plan["metrics_plan_hits"] + plan["metrics_plan_misses"]),
        "metrics.component_memo_hit_ratio": _ratio(
            plan["component_memo_hits"],
            plan["component_memo_hits"] + plan["component_memo_misses"]),
        "metrics.incremental_hits": plan["plan_incremental_hits"],
        "store.bytes_after_cold": traced["store_bytes"],
        "store.disk_hit_ratio": _ratio(
            store["store_hits"],
            store["store_hits"] + store["store_misses"]),
        "store.corrupt": store["store_corrupt"],
        "service.lat_p99_ms": percentile(latencies_ms, 99.0)
        if workload == "service_closed_loop" else 0.0,
        "service.coalesced": service["service_coalesced"],
        "service.shed_busy": service["service_shed_busy"],
        "service.idempotent_hits": service["service_idempotent_hits"],
        "service.worker_restarts": service["service_worker_restarts"],
        "tuning.pruned_share": _ratio(tuning["tuning_points_pruned"],
                                      resolved),
        "tuning.points_simulated": tuning["tuning_points_completed"],
        "verify.counter_mismatches": traced["mismatches"]["counters"],
        "verify.output_mismatches": traced["mismatches"]["output"],
        "closure.attributed_share": _ratio(attributed, wall),
        "closure.unattributed_s": wall - attributed,
        "closure.stage_sum_s": sum(stages[stage]
                                   for stage in DISJOINT_STAGES),
        "closure.worker_merged_s": traced["worker_cpu_s"],
        "trace.overhead_share": _ratio(wall, untraced_wall) - 1.0,
    }


def run_layers(root: Path, smoke: bool) -> Dict[str, float]:
    """The layer microbenchmarks, in one scrubbed process."""
    cwd = Path(tempfile.mkdtemp(prefix="layers-", dir=root))
    store = cwd / "store"
    store.mkdir()
    return run_worker({"workload": "layers", "smoke": smoke,
                       "store": str(store), "seed": 0},
                      cwd, scrubbed_env(root, store))["metrics"]


def run_traced(workload: str, seed: int, root: Path,
               layer_values: Dict[str, float], smoke: bool = False) -> dict:
    """One untraced and one traced repetition, turned into every
    per-layer metric.

    ``layer_values`` is the layer section's result (:func:`run_layers`),
    shared by every workload of a run.  The untraced repetition is only
    the traced one's yardstick (``trace.overhead_share``); end-to-end
    metrics are never taken from here.
    """
    shared: dict = {}
    if workload in WINDOWED:
        # One process, two windows: the worker traces only the last.
        reps = run_reps(workload, seed, root,
                        {"min_reps": 2, "seconds": 0.0}, shared,
                        trace=True, smoke=smoke)
    else:
        rule = {"min_reps": 1, "seconds": 0.0}
        reps = run_reps(workload, seed, root, rule, shared, smoke=smoke) \
            + run_reps(workload, seed, root, rule, shared, trace=True,
                       smoke=smoke)
    untraced, traced = reps
    values = dict(layer_values)
    values.update(workload_layer_metrics(workload, untraced["wall_s"],
                                         traced))
    if set(values) != set(metrics.PER_LAYER):
        raise RuntimeError(
            "per-layer metrics out of step with metrics.PER_LAYER: "
            f"{sorted(set(values) ^ set(metrics.PER_LAYER))}")
    return {"workload": workload, "values": values,
            "spans": traced["spans"],
            "attempted": sum(rep["attempted"] for rep in reps),
            "failed": sum(rep["failed"] for rep in reps),
            "failures": [t for rep in reps for t in rep["failures"]][:5],
            "env": traced["env"]}
