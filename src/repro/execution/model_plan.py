"""Model-granularity replay: fused metrics plans + a replay worker pool.

The per-kernel pipeline (trace -> decoded plan -> MetricsPlan) treats
every invocation independently: each replay re-fingerprints the full
runtime/board state — including an export of both cache levels' LRU
contents — before it can reuse a cached MetricsPlan.  For the model
figures (fig16's ResNet-18 layer sequence, fig17's TinyBERT matmul
schedule) the invocation sequence itself is static, so this module
lifts the caching to model granularity:

**ModelSession** runs a named sequence of kernel invocations against
one shared board.  Because the board is shared, the cache warm-state
carries between kernels exactly the way ``OfflineLruSimulator`` already
carries it *within* one kernel: each step's metrics plane starts from
the previous step's live LRU contents, so back-to-back layers see a
realistically warm cache instead of the cold-cache-per-kernel
accounting the figure harnesses used to do.

**ModelPlan** is the fused artifact a session records: one fingerprint
pinning the board configuration and start state, plus the ordered
per-step ``(config, MetricsPlan)`` pairs.  On the next session with the
same name/fingerprint each step's sub-plan is served by an O(1) config
comparison — no per-step state pickling, hashing, or cache-ways export
— and the stitched timeline of per-step final states is available via
:meth:`ModelPlan.timeline`.  Plans persist in the PR 6
:class:`~repro.store.KernelStore` under ``model-*`` entry names; a
foreign payload under such a name is quarantined on its own (counted
as ``model_plan_stale``), never the kernel entries it refers to.

Correctness is inductive: the fingerprint pins the start state, each
recorded sub-plan deterministically reproduces the exact state the
per-kernel path would compute from that state, and any step that falls
off the fused plan (injected ``model.plan`` fault, config divergence)
degrades to :func:`repro.execution.metrics.obtain_plan`
for that step — bit-identical by the per-kernel guarantees.

Selectors: ``REPRO_FAULTS="model.plan:fail"`` forces the fallback rung
(every step takes the per-kernel path, nothing is recorded, counted as
``model_plan_fallback``); ``REPRO_CHECK=1`` rebuilds every fused-step
hit from the live metrics plane and raises :class:`ModelPlanMismatch`
on divergence; ``REPRO_MODEL_WORKERS=N`` sizes the replay worker pool.

**run_model_jobs** fans independent model jobs (the manual and
generated legs of fig16, the two fig17 strategies, plan prebuilds) onto
the supervised fork pool (:mod:`repro.pool`) over the shared sharded
store.  Workers report counter *deltas* — stage timings, trace/metrics/
model/store/fault counters, kernel-cache stats — which the pool merges
back (:func:`repro.counters.merge`), so ``stage_timings()`` and
``diagnostics()`` keep counting work that happened in workers.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from collections import OrderedDict, deque
from dataclasses import astuple
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import counters, faults, pool
from ..envutil import check_requested, env_int
from . import metrics
from .trace import add_stage_time

#: Worker-pool size for run_model_jobs (default: min(4, cpu_count)).
MODEL_WORKERS_ENV = "REPRO_MODEL_WORKERS"

#: How session steps obtained their metrics plane, plus pool activity.
MODEL_PLAN_COUNTERS: Dict[str, int] = counters.section("model_plan", {
    "model_plan_hits": 0,        # sessions fully replayed from a fused plan
    "model_plan_misses": 0,      # sessions that recorded a fresh fused plan
    "model_plan_step_hits": 0,   # steps served from a fused sub-plan
    "model_plan_fallback": 0,    # steps forced onto the per-kernel path
    "model_plan_divergence": 0,  # steps that fell off a fused plan
    "model_plan_stale": 0,       # foreign persisted payloads quarantined
    "model_plan_workers": 0,     # pool workers merged back into the parent
})

#: In-process fused-plan registry, LRU over (name, fingerprint).
_MAX_MEMORY_PLANS = 16
_MODEL_PLANS: "OrderedDict[Tuple[str, str], ModelPlan]" = OrderedDict()
#: Fork-safe: forked children (service workers, model-pool workers)
#: must not inherit it held by another parent thread.
_REGISTRY_LOCK = counters.fork_safe_lock()


def reset_model_plan_counters() -> None:
    counters.reset(MODEL_PLAN_COUNTERS)


def reset_model_plans() -> None:
    """Drop the in-process fused-plan registry (tests)."""
    with _REGISTRY_LOCK:
        _MODEL_PLANS.clear()


class ModelPlanMismatch(RuntimeError):
    """A fused sub-plan diverges from the live metrics plane."""


class ModelPlan:
    """One fused, replayable metrics plane for a whole kernel sequence.

    ``steps`` is the ordered list of ``(config, plan)`` pairs: ``config``
    is the repr of the cheap per-step identity tuple (step key, decode
    key, runtime knobs, descriptor addresses, engine regions, trace
    shape) and ``plan`` the step's :class:`MetricsPlan`.  Everything
    global to the sequence — board timing/cache geometry and the exact
    start state, cache contents included — is pinned once by
    ``fingerprint`` instead of being re-hashed per step.
    """

    __slots__ = ("name", "fingerprint", "steps")

    def __init__(self, name: str, fingerprint: str,
                 steps: List[Tuple[str, "metrics.MetricsPlan"]]) -> None:
        self.name = name
        self.fingerprint = fingerprint
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)

    def timeline(self) -> np.ndarray:
        """Stitched (num_steps, 9) matrix of per-step metrics end states.

        Row *i* is step *i*'s ``MetricsPlan.final_state``: the absolute
        counter/clock values after that kernel, so consecutive rows show
        the model's cumulative trajectory.
        """
        if not self.steps:
            return np.zeros((0, 9))
        return np.stack([np.asarray(plan.final_state, dtype=np.float64)
                         for _, plan in self.steps])


# -- fingerprinting ---------------------------------------------------------

def board_fingerprint(board) -> str:
    """Digest of the board configuration and exact start state.

    The per-step configs deliberately exclude board-global inputs; this
    fingerprint pins them once per session: timing model, cache
    geometry, every perf counter, the clock domain state, and the exact
    LRU contents of both cache levels (the warm-state carry's input).
    """
    caches = board.caches
    config = (
        astuple(board.timing),
        (caches.l1.size_bytes, caches.l1.line_size, caches.l1.associativity),
        (caches.l2.size_bytes, caches.l2.line_size, caches.l2.associativity),
        caches.line_size,
    )
    state = (
        astuple(board.counters),
        board.clock, board.accel_ready_at, board.dma_busy_until,
        (caches.l1.hits, caches.l1.misses,
         caches.l2.hits, caches.l2.misses),
    )
    digest = hashlib.sha256(pickle.dumps((config, state), protocol=4))
    digest.update(metrics._cache_digest(caches.l1))
    digest.update(metrics._cache_digest(caches.l2))
    return digest.hexdigest()


def _step_config(step_key, ex, decode_key: Tuple) -> str:
    """The cheap per-step identity: everything plan_fingerprint hashes
    except the board-global config/state the session fingerprint pins.

    A repr string rather than the tuple itself so the comparison is
    exact after a store round-trip (the JSON manifest cannot carry
    arbitrary step-key objects, but their reprs are deterministic).
    """
    engine = ex.engine
    return repr((
        step_key,
        decode_key,
        ex.rt.copy_style,
        ex.rt._call_cost,
        bool(ex.double_buffered),
        tuple((d.base_address, d.offset) for d in ex.descriptors),
        tuple(ex.trace.arg_specs),
        (engine.input_region.base, engine.input_region.size,
         engine.output_region.base, engine.output_region.size),
        ex.trace.init_params is None,
        int(ex.trace.num_events),
    ))


# -- persistence ------------------------------------------------------------

def _store_entry_name(name: str) -> str:
    """``model-<src digest>-<digest>``, as every store entry is named."""
    from ..compiler import store_entry_name

    return store_entry_name("model", name)


def _register_plan(plan: "ModelPlan") -> None:
    with _REGISTRY_LOCK:
        _MODEL_PLANS[(plan.name, plan.fingerprint)] = plan
        while len(_MODEL_PLANS) > _MAX_MEMORY_PLANS:
            _MODEL_PLANS.popitem(last=False)


def _lookup_plan(name: str, fingerprint: str) -> Optional["ModelPlan"]:
    key = (name, fingerprint)
    with _REGISTRY_LOCK:
        plan = _MODEL_PLANS.get(key)
        if plan is not None:
            _MODEL_PLANS.move_to_end(key)
            return plan
    from ..compiler import default_kernel_cache, load_entry

    store = default_kernel_cache().resolve_store()
    if store is None:
        return None

    entry = _store_entry_name(name)
    status, payload = load_entry(store, entry)
    plan = payload.get("plan") if status == "hit" else None
    if status == "hit" and not isinstance(plan, ModelPlan):
        store.quarantine(entry)
        status = "stale"
    if status == "stale":
        # A foreign payload under this name was quarantined (here or by
        # load_entry's version check): only the model entry goes, the
        # kernel entries its steps point at are untouched.
        MODEL_PLAN_COUNTERS["model_plan_stale"] += 1
    if status != "hit" or plan.fingerprint != fingerprint:
        # A fingerprint mismatch is the same model name from a
        # different board/start state (not stale): leave the entry for
        # the config that wrote it.
        return None
    plan.steps = [tuple(step) for step in plan.steps]
    _register_plan(plan)
    return plan


def _persist_plan(plan: "ModelPlan") -> None:
    from ..compiler import KERNEL_STORE_VERSION, default_kernel_cache

    store = default_kernel_cache().resolve_store()
    if store is None:
        return

    store.store(_store_entry_name(plan.name), {
        "store_version": KERNEL_STORE_VERSION,
        "plan": plan,
    })


# -- the session ------------------------------------------------------------

class ModelSession:
    """A named, ordered sequence of kernel invocations on one board.

    Run each generated kernel through :meth:`run` with a deterministic
    ``step_key``; the session threads a ``plan_source`` hook down to the
    replay executor so the step's MetricsPlan comes from the fused
    ModelPlan when one matches (recording a fresh one otherwise), and
    the shared board carries the cache warm-state between steps.  Call
    :meth:`finish` once the sequence is complete to fuse + persist.

    Hand-written (manual-driver) steps don't route through
    ``CompiledKernel.run``; call the driver against ``session.board``
    with ``plan_source=session.plan_source(step_key)`` so its trace
    replay joins the fused plan too (without it the step still gets the
    warm-state carry, just not a fused sub-plan).
    """

    def __init__(self, name: str, board) -> None:
        self.name = name
        self.board = board
        self._fingerprint = board_fingerprint(board)
        self._steps: List[Tuple[str, "metrics.MetricsPlan"]] = []
        self._cursor = 0
        self._plan: Optional[ModelPlan] = \
            _lookup_plan(name, self._fingerprint)
        self._replaying = self._plan is not None
        self._dirty = False
        self._finished = False
        self._result: Optional[ModelPlan] = None

    # -- step execution ---------------------------------------------------
    def run(self, kernel, *arrays, step_key, runtime=None, trace=None):
        """Execute one step; returns the step's perf-counter delta."""
        if self._finished:
            raise RuntimeError(f"ModelSession {self.name!r} already finished")
        return kernel.run(self.board, *arrays, runtime=runtime, trace=trace,
                          plan_source=self.plan_source(step_key))

    def plan_source(self, step_key) -> Callable:
        """The per-step metrics-plane hook for one ``step_key``.

        Pass the returned callable as the ``plan_source=`` of any replay
        entry point that accepts one (``CompiledKernel.run`` does this
        automatically via :meth:`run`; the manual drivers take it as a
        keyword) to make that invocation a session step.
        """
        def source(ex, decode_key):
            return self._step_plan(step_key, ex, decode_key)
        return source

    def _step_plan(self, step_key, ex, decode_key):
        if faults.fires("model.plan") == "fail":
            MODEL_PLAN_COUNTERS["model_plan_fallback"] += 1
            return metrics.obtain_plan(ex, decode_key)
        config = _step_config(step_key, ex, decode_key)
        if self._replaying:
            steps = self._plan.steps
            if self._cursor < len(steps) \
                    and steps[self._cursor][0] == config:
                start = time.perf_counter()
                plan = steps[self._cursor][1]
                self._cursor += 1
                MODEL_PLAN_COUNTERS["model_plan_step_hits"] += 1
                add_stage_time("model_plan_apply_s",
                               time.perf_counter() - start)
                if check_requested():
                    problems = metrics.diff_plans(
                        plan, metrics._timed_build(ex)
                    )
                    if problems:
                        raise ModelPlanMismatch(
                            f"fused ModelPlan {self.name!r} step "
                            f"{self._cursor - 1} diverges from the live "
                            "metrics plane on: " + ", ".join(problems)
                        )
                return plan
            # The live sequence fell off the fused plan: keep the
            # matched prefix (it IS the live prefix) and record on.
            MODEL_PLAN_COUNTERS["model_plan_divergence"] += 1
            self._steps = [tuple(step) for step in steps[:self._cursor]]
            self._replaying = False
            self._plan = None
            self._dirty = True
        plan = self._record_build(ex)
        self._steps.append((config, plan))
        self._dirty = True
        return plan

    def _record_build(self, ex) -> "metrics.MetricsPlan":
        """Build one recording step's MetricsPlan, fingerprint-free.

        While recording, the fused fingerprint plus the step config
        already pin every metrics-plane input, so the per-step
        ``plan_fingerprint`` — a pickle + sha256 over the board state
        *including an export of both cache levels' LRU ways* — is pure
        overhead; build directly instead.  The build is the identical
        deterministic computation ``obtain_plan`` runs on a miss, so
        the accounting mirrors it too.
        """
        if faults.fires("metrics.plan") == "fail":
            metrics.METRICS_PLAN_COUNTERS["metrics_plan_fallback"] += 1
        else:
            metrics.METRICS_PLAN_COUNTERS["metrics_plan_misses"] += 1
        return metrics._timed_build(ex)

    # -- fusion -----------------------------------------------------------
    def finish(self) -> Optional[ModelPlan]:
        """Fuse and persist the recorded plan (idempotent).

        Returns the session's fused ModelPlan: the replayed one on a
        full hit, the freshly recorded one otherwise, or ``None`` when
        nothing was recorded (every step fell back, or none ran).
        """
        if self._finished:
            return self._result
        self._finished = True
        if self._replaying and not self._dirty:
            if self._cursor:
                MODEL_PLAN_COUNTERS["model_plan_hits"] += 1
            self._result = self._plan
            return self._result
        if not self._steps:
            return None
        start = time.perf_counter()
        plan = ModelPlan(self.name, self._fingerprint, list(self._steps))
        _register_plan(plan)
        _persist_plan(plan)
        MODEL_PLAN_COUNTERS["model_plan_misses"] += 1
        add_stage_time("model_plan_build_s", time.perf_counter() - start)
        self._result = plan
        return plan


# -- the worker pool --------------------------------------------------------

def model_workers() -> int:
    """Requested pool size: REPRO_MODEL_WORKERS, else min(4, cpus)."""
    default = max(1, min(4, os.cpu_count() or 1))
    return env_int(MODEL_WORKERS_ENV, default, minimum=1)


def _call_job(job: dict) -> dict:
    """Pool handler: one ``(callable, args)`` model job."""
    try:
        return {"result": job["fn"](*job["args"])}
    except Exception as exc:  # noqa: BLE001 — re-raised in the parent
        return {"error": exc}


def run_model_jobs(jobs: Sequence[Tuple[Callable, tuple]],
                   workers: Optional[int] = None) -> list:
    """Run independent model jobs, in parallel when the pool allows.

    ``jobs`` is a sequence of ``(callable, args)`` pairs; both must be
    picklable (module-level functions, plain-data args).  Results come
    back in submission order; a job's exception is re-raised here.
    Falls back to inline sequential execution — bit-identical, the
    jobs are deterministic — when the pool is sized <= 1, fork is
    unavailable, or we are already inside a pool worker.  A worker that
    dies mid-job raises :class:`repro.pool.WorkerDied`; nothing is
    retried.

    ``workers`` overrides the REPRO_MODEL_WORKERS sizing.
    """
    jobs = list(jobs)
    if workers is None:
        workers = model_workers()
    workers = min(workers, len(jobs))
    if workers <= 1 or pool.in_worker() or not pool.fork_available():
        return [fn(*args) for fn, args in jobs]
    results: list = [None] * len(jobs)
    queued = deque(enumerate(jobs))
    idle = list(range(workers))
    running: Dict[int, int] = {}
    job_pool = pool.Pool(workers, _call_job)
    try:
        while queued or running:
            while idle and queued:
                index, (fn, args) = queued.popleft()
                slot = idle.pop()
                job_pool.submit(slot, {"fn": fn, "args": args})
                running[slot] = index
            for slot, reply in job_pool.wait(list(running), None):
                index = running.pop(slot)
                if reply is None:
                    raise pool.WorkerDied(
                        f"pool worker {slot} died running model job "
                        f"{index}")
                if "error" in reply:
                    raise reply["error"]
                results[index] = reply["result"]
                idle.append(slot)
    finally:
        MODEL_PLAN_COUNTERS["model_plan_workers"] += job_pool.shutdown()
    return results
