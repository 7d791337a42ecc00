"""The tier matrix: every selectable configuration against the interpreter.

The contract of the whole execution stack is that each fast tier yields
the reference interpreter's results bit for bit.  Three axes select what
runs — ``REPRO_FAULTS`` forces any subset of the fallback rungs (replay
-> per-tile, synthesis -> recording, MetricsPlan -> live metrics plane,
fused ModelPlan -> per-kernel plans), ``REPRO_NO_NATIVE`` picks the
pure-Python cost engine, ``REPRO_CHECK`` verifies every served artifact
— and this file runs their *product*, not one switch at a time.

For each configuration the interpreter runs once; then every element of
``subsets(rungs) x NO_NATIVE x CHECK`` runs the same kernels twice on
one fresh kernel store (the second pass starts from empty in-process
caches, so it takes the store-hit paths) and must reproduce the
interpreter's PerfCounters, output bytes, board clock and both cache
levels' LRU digests after every step.

Tier-1 runs the product in-process; ``-m matrix`` runs it again with
each case inside a :class:`repro.pool.Pool` worker.
"""

import contextlib
import itertools

import numpy as np
import pytest

from repro import faults, pool
from repro.accelerators import make_conv_system, make_matmul_system
from repro.compiler import AXI4MLIRCompiler, KernelCache
from repro.execution import (
    METRICS_PLAN_COUNTERS,
    MODEL_PLAN_COUNTERS,
    TRACE_COUNTERS,
    ModelSession,
    reset_model_plans,
)
from repro.execution.metrics import _cache_digest
from repro.runtime import DoubleBufferedRuntime
from repro.soc import _native, make_pynq_z2

from test_model_plan import MATMUL_SPECS, _matmul_data

#: The four fallback rungs a fault clause can force.
RUNGS = ("replay:fail", "synth:fail", "metrics.plan:fail",
         "model.plan:fail")

#: (forced rungs, REPRO_NO_NATIVE, REPRO_CHECK): 16 x 2 x 2 selections.
PRODUCT = list(itertools.product(
    [subset for size in range(len(RUNGS) + 1)
     for subset in itertools.combinations(RUNGS, size)],
    (False, True), (False, True)))


def _matmul_step(m, n, k, size, version, flow, runtime_cls=None):
    a, b = _matmul_data(m, n, k)

    def make(cache):
        hw, info = make_matmul_system(version, size, flow=flow)
        return hw, AXI4MLIRCompiler(info, kernel_cache=cache) \
            .compile_matmul(m, n, k)
    return make, (a, b, np.zeros((m, n), np.int32)), runtime_cls


def _conv_step():
    rng = np.random.default_rng(23)
    image = rng.integers(-4, 4, (1, 4, 8, 8)).astype(np.int32)
    weights = rng.integers(-4, 4, (2, 4, 3, 3)).astype(np.int32)

    def make(cache):
        hw, info = make_conv_system(4, 3)
        return hw, AXI4MLIRCompiler(info, kernel_cache=cache) \
            .compile_conv(1, 4, 8, 2, 3, 1)
    return make, (image, weights, np.zeros((1, 2, 6, 6), np.int32)), None


#: name -> (steps share a ModelSession, [(make, arrays, runtime class)]).
CONFIGS = {
    "matmul-v1-Ns": (False, [_matmul_step(16, 16, 16, 4, 1, "Ns")]),
    "matmul-v3-Cs-double-buffered": (False, [_matmul_step(
        32, 16, 64, 8, 3, "Cs", DoubleBufferedRuntime)]),
    "conv-ic4-f3": (False, [_conv_step()]),
    "model-two-step": (True, [_matmul_step(*spec[:6])
                              for spec in MATMUL_SPECS]),
}


def _run(name, interpreted=False):
    """The config's steps on one fresh board; what must agree, per step."""
    in_session, steps = CONFIGS[name]
    board = make_pynq_z2()
    session = ModelSession(f"tier-matrix-{name}", board) \
        if in_session and not interpreted else None
    seen = []
    for index, (make, arrays, runtime_cls) in enumerate(steps):
        hw, kernel = make(KernelCache())
        board.attach_accelerator(hw)
        arrays = [array.copy() for array in arrays]
        runtime = runtime_cls(board) if runtime_cls else None
        if interpreted:
            counters = kernel.run_interpreted(board, *arrays,
                                              runtime=runtime)
        elif session is not None:
            counters = session.run(kernel, *arrays, runtime=runtime,
                                   step_key=(name, index))
        else:
            counters = kernel.run(board, *arrays, runtime=runtime)
        seen.append((counters.as_dict(), arrays[-1].tobytes(), board.clock,
                     _cache_digest(board.caches.l1),
                     _cache_digest(board.caches.l2)))
    if session is not None:
        session.finish()
    return seen


@contextlib.contextmanager
def _selected(rungs, no_native, check, store):
    """One element of the product, selected for the current process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FAULTS", ";".join(rungs))
        patch.delenv("REPRO_FAULTS_SEED", raising=False)
        patch.setenv("REPRO_CHECK", "1" if check else "0")
        patch.setenv("REPRO_KERNEL_CACHE_DIR", str(store))
        if no_native:
            # The switch is read by the one-shot toolchain probe.
            patch.setenv("REPRO_NO_NATIVE", "1")
            patch.setattr(_native, "_tried", False)
            patch.setattr(_native, "_lib", None)
            patch.setattr(_native, "_status", "untried")
        faults.reset_faults()
        try:
            yield
        finally:
            faults.reset_faults()


def _two_passes(job):
    """Cold then warm on ``job``'s store (also the pool handler)."""
    with _selected(job["rungs"], job["no_native"], job["check"],
                   job["store"]):
        passes = []
        for _ in range(2):
            reset_model_plans()  # the warm pass reads the store
            passes.append(_run(job["name"]))
    return {"passes": passes}


def _hit_paths():
    return (TRACE_COUNTERS["disk_loaded"],
            METRICS_PLAN_COUNTERS["metrics_plan_hits"]
            + MODEL_PLAN_COUNTERS["model_plan_step_hits"])


@pytest.mark.parametrize("mode", [
    "in-process", pytest.param("pool-worker", marks=pytest.mark.matrix)])
@pytest.mark.parametrize("name", CONFIGS)
def test_every_selection_matches_the_interpreter(name, mode, tmp_path):
    oracle = _run(name, interpreted=True)
    workers = None
    if mode == "pool-worker":
        if not pool.fork_available():
            pytest.skip("no fork on this platform")
        workers = pool.Pool(1, _two_passes)
    try:
        for case, (rungs, no_native, check) in enumerate(PRODUCT):
            job = {"name": name, "rungs": rungs, "no_native": no_native,
                   "check": check, "store": str(tmp_path / str(case))}
            if workers is None:
                reply = _two_passes(job)
            else:
                workers.submit(0, job)
                ((_, reply),) = workers.wait([0], 120.0)
                assert reply is not None, f"worker died on {job}"
            assert reply["passes"] == [oracle, oracle], job
    finally:
        if workers is not None:
            workers.shutdown()


@pytest.mark.ambient_faults_incompatible
@pytest.mark.parametrize("name", CONFIGS)
def test_the_second_pass_takes_the_hit_paths(name, tmp_path):
    """What makes the matrix bite: with no rung forced the warm pass
    loads its traces from the store and applies stored plans, so a
    wrong plan application cannot hide behind a rebuild."""
    with _selected((), False, False, tmp_path):
        reset_model_plans()
        _run(name)
        loaded, applied = _hit_paths()
        reset_model_plans()
        _run(name)
        steps = len(CONFIGS[name][1])
        assert _hit_paths() == (loaded + steps, applied + steps)
