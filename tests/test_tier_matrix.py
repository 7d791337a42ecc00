"""The tier matrix: every selectable configuration against the interpreter.

The contract of the whole execution stack is that each fast tier yields
the reference interpreter's results bit for bit.  Two axes select what
runs — ``REPRO_FAULTS`` forces any subset of the doors to the per-tile
driver (a refused replay, a failed synthesis), ``REPRO_CHECK`` verifies
every served artifact — and this file runs their *product*, not one
switch at a time.  (``metrics.plan:fail`` is not a factor: it bypasses
the plan cache into the very build a miss runs, which every cold pass
covers.  Nor is the C library: replay runs on it, so a process without
it runs every kernel per tile — one more case per config pins that.)

For each configuration the interpreter runs once; then every element of
``subsets(rungs) x CHECK`` runs the same kernels twice on
one fresh kernel store (the second pass starts from empty in-process
caches, so it takes the store-hit paths) and must reproduce the
interpreter's PerfCounters, output bytes, board clock and both cache
levels' LRU digests after every step.  Since a forced rung publishes
nothing, one more case publishes with nothing forced and then runs the
warm pass under ``replay:fail``: every kernel the store hands back runs
per tile on the driver it rebuilds through the compile it was looked up
with (an entry holds no IR).  For one config a third pass runs the
interpreter on the kernels the store hands back, whose module is
rebuilt the same way on that first read.

Tier-1 runs the product in-process (a caller's no-fork rung calls the
pool handler directly, which is the same call); ``-m matrix`` runs it
again with each case inside a :class:`repro.pool.Pool` worker.
"""

import contextlib
import itertools
import warnings

import numpy as np
import pytest

from repro import faults, pool
from repro.accelerators import make_conv_system, make_matmul_system
from repro.baselines.manual import manual_conv_kernel, manual_matmul_kernel
from repro.compiler import AXI4MLIRCompiler, KernelCache
from repro.execution import METRICS_PLAN_COUNTERS, TRACE_COUNTERS, Cause
from repro.execution.trace import SERVED_COUNTERS
from repro.execution.metrics import _cache_digest
from repro.runtime import DoubleBufferedRuntime
from repro.soc import _native, make_pynq_z2
from repro.store import KernelStore

from test_model_plan import MATMUL_SPECS, _matmul_data

#: The clauses that select a path: the two doors to the per-tile rung.
RUNGS = ("replay:fail", "synth:fail")

#: (cold-pass rungs, warm-pass rungs, REPRO_CHECK): the 4 x 2
#: selections, forced on both passes, then the store-loaded per-tile
#: case.
PRODUCT = [
    (rungs, rungs, check)
    for rungs, check in itertools.product(
        [subset for size in range(len(RUNGS) + 1)
         for subset in itertools.combinations(RUNGS, size)],
        (False, True))
] + [((), ("replay:fail",), False)]

#: The C library withheld on both passes: no replay is offered.
NO_C_LIBRARY = ("native.compile:fail",)


def _matmul_step(m, n, k, size, version, flow, runtime_cls=None,
                 **compiler_kwargs):
    a, b = _matmul_data(m, n, k)

    def make(cache):
        hw, info = make_matmul_system(version, size, flow=flow)
        return hw, AXI4MLIRCompiler(info, kernel_cache=cache,
                                    **compiler_kwargs) \
            .compile_matmul(m, n, k)
    return make, (a, b, np.zeros((m, n), np.int32)), runtime_cls


def _conv_step(manual=False):
    rng = np.random.default_rng(23)
    image = rng.integers(-4, 4, (1, 4, 8, 8)).astype(np.int32)
    weights = rng.integers(-4, 4, (2, 4, 3, 3)).astype(np.int32)
    out = np.zeros((1, 2, 6, 6), np.int32)

    def make(cache):
        hw, info = make_conv_system(4, 3)
        if manual:
            return hw, manual_conv_kernel(
                (image.shape, weights.shape, out.shape), cache=cache)
        return hw, AXI4MLIRCompiler(info, kernel_cache=cache) \
            .compile_conv(1, 4, 8, 2, 3, 1)
    return make, (image, weights, out), None


def _manual_matmul_step(m, n, k, size, version, flow, tiles=None):
    a, b = _matmul_data(m, n, k)

    def make(cache):
        hw, _ = make_matmul_system(version, size, flow=flow)
        return hw, manual_matmul_kernel(((m, k), (k, n), (m, n)), version,
                                        size, flow, tiles, cache=cache)
    return make, (a, b, np.zeros((m, n), np.int32)), None


#: The config whose steps each start on a fresh board, so all three
#: replays have one plan fingerprint.  The first two kernels sit under
#: different cache keys (the second spells out the loop order the first
#: derives) but their traces have equal content: the second's first
#: replay is a hit on the plan the first one built (and, on the warm
#: pass, stored).  The third
#: is the stranger — a permuted loop order, so other content (and other
#: counters) under the same fingerprint — that must not be served it.
TWINS_AND_STRANGER = "content-equal-pair-and-stranger"

#: name -> [(make, arrays, runtime class)]; a config's steps share one
#: board, so the second kernel of ``model-two-step`` starts warm.  The
#: ``manual-*`` configs are the cpp_MANUAL drivers (hand-built IR whose
#: host initializes the engine before allocating the operands).
CONFIGS = {
    "matmul-v1-Ns": [_matmul_step(16, 16, 16, 4, 1, "Ns")],
    "matmul-v3-Cs-double-buffered": [_matmul_step(
        32, 16, 64, 8, 3, "Cs", DoubleBufferedRuntime)],
    "conv-ic4-f3": [_conv_step()],
    "manual-matmul-v4-Cs": [_manual_matmul_step(32, 16, 64, 8, 4, "Cs",
                                                (16, 8, 32))],
    "manual-conv-ic4-f3": [_conv_step(manual=True)],
    "model-two-step": [_matmul_step(*spec[:6]) for spec in MATMUL_SPECS],
    TWINS_AND_STRANGER: [
        _matmul_step(32, 16, 16, 4, 3, "Ns", **options)
        for options in ({}, {"permutation": ("m", "n", "k")},
                        {"permutation": ("k", "n", "m")})],
}


def _run(name, interpreted=False):
    """The config's steps on one fresh board; what must agree, per step."""
    board = make_pynq_z2()
    seen = []
    for make, arrays, runtime_cls in CONFIGS[name]:
        if name == TWINS_AND_STRANGER:
            board = make_pynq_z2()
        hw, kernel = make(KernelCache())
        board.attach_accelerator(hw)
        arrays = [array.copy() for array in arrays]
        runtime = runtime_cls(board) if runtime_cls else None
        run = kernel.run_interpreted if interpreted else kernel.run
        counters = run(board, *arrays, runtime=runtime)
        seen.append((counters.as_dict(), arrays[-1].tobytes(), board.clock,
                     _cache_digest(board.caches.l1),
                     _cache_digest(board.caches.l2)))
    return seen


@contextlib.contextmanager
def _selected(rungs, check, store):
    """One element of the product, selected for the current process.

    The toolchain probe is re-run under the selection's own faults, so
    whether the C library is there is the case's choice, not whatever
    an earlier test or an ambient ``native.compile:fail`` left behind.
    """
    with pytest.MonkeyPatch.context() as patch, \
            warnings.catch_warnings():
        warnings.filterwarnings("ignore", "native fast path unavailable")
        patch.setenv("REPRO_FAULTS", ";".join(rungs))
        patch.delenv("REPRO_FAULTS_SEED", raising=False)
        patch.setenv("REPRO_CHECK", "1" if check else "0")
        patch.setenv("REPRO_KERNEL_CACHE_DIR", str(store))
        patch.setattr(_native, "_tried", False)
        patch.setattr(_native, "_lib", None)
        patch.setattr(_native, "_status", "untried")
        faults.reset_faults()
        try:
            yield
        finally:
            faults.reset_faults()


#: The config whose round trip also interprets the kernel it loaded:
#: its module is rebuilt only then, on first read.
LOADED_INTERPRETED = "matmul-v1-Ns"


def _two_passes(job):
    """Cold then warm on ``job``'s store (also the pool handler).  Each
    step compiles into a fresh ``KernelCache``, so the warm pass reads
    the store.  Also returns the native status each of the two ran
    under."""
    rounds = [(rungs, False) for rungs in job["rungs"]]
    if job["name"] == LOADED_INTERPRETED:
        rounds.append((job["rungs"][-1], True))
    passes, native = [], []
    for rungs, interpreted in rounds:
        with _selected(rungs, job["check"], job["store"]):
            passes.append(_run(job["name"], interpreted))
            if not interpreted:
                native.append(_native.native_status()["status"])
    return {"passes": passes, "native": native}


def _rounds(name):
    return 3 if name == LOADED_INTERPRETED else 2


def _submit(mode, job, workers):
    """``job`` in-process or in a worker."""
    if mode != "pool-worker":
        return _two_passes(job)
    workers.submit(0, job)
    ((_, reply),) = workers.wait([0], 120.0)
    assert reply is not None, f"worker died on {job}"
    return reply


@contextlib.contextmanager
def _workers(mode):
    """The pool worker a ``pool-worker`` case runs in (else ``None``)."""
    if mode != "pool-worker":
        yield None
        return
    if not pool.fork_available():
        pytest.skip("no fork on this platform")
    workers = pool.Pool(1, _two_passes)
    try:
        yield workers
    finally:
        workers.shutdown()


def _hit_paths():
    return (TRACE_COUNTERS["disk_loaded"],
            METRICS_PLAN_COUNTERS["metrics_plan_hits"])


def _served_grew(before):
    """The ``diagnostics()["served"]`` counts that grew since ``before``."""
    return {key: SERVED_COUNTERS[key] - before[key]
            for key in SERVED_COUNTERS
            if SERVED_COUNTERS[key] != before[key]}


def _cause(rungs):
    """What serves every call of a pass under ``rungs``: synthesis runs
    (and fails) before a replay could be refused."""
    if "synth:fail" in rungs:
        return Cause.SYNTH_FAULT.value
    if "replay:fail" in rungs:
        return Cause.REPLAY_FAULT.value
    return "replay"


MODES = ["in-process", pytest.param("pool-worker", marks=pytest.mark.matrix)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", CONFIGS)
def test_every_selection_matches_the_interpreter(name, mode, tmp_path):
    oracle = _run(name, interpreted=True)
    steps = len(CONFIGS[name])
    rounds = _rounds(name)
    with _workers(mode) as workers:
        for case, (cold, warm, check) in enumerate(PRODUCT):
            job = {"name": name, "rungs": (cold, warm), "check": check,
                   "store": str(tmp_path / str(case))}
            sources, served = dict(TRACE_COUNTERS), dict(SERVED_COUNTERS)
            reply = _submit(mode, job, workers)
            assert reply["passes"] == [oracle] * rounds, job
            # Each call counted once, under the cause its pass forced.
            expected = {}
            for rungs in (cold, warm):
                expected[_cause(rungs)] = \
                    expected.get(_cause(rungs), 0) + steps
            assert _served_grew(served) == expected, job
            assert reply["native"] == ["ok"] * 2, job
            # A kernel is never recorded; one that fails synthesis has
            # no trace and ran per tile, both passes.
            grew = {key: TRACE_COUNTERS[key] - sources[key]
                    for key in sources}
            assert grew["recorded"] == 0, job
            if "synth:fail" in cold:
                assert grew["synth_fallback"] == 2 * steps, job
                assert grew["synthesized"] == grew["disk_loaded"] == 0, job
            if cold != warm:
                # The warm kernels came from the store (and, replay
                # refused, ran their rebuilt drivers per tile).
                assert grew["disk_loaded"] == steps * (rounds - 1), job


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", CONFIGS)
def test_without_the_c_library_every_kernel_runs_per_tile(name, mode,
                                                          tmp_path):
    """Replay runs on the C kernels, so a process without them is not
    offered it: nothing is synthesized or recorded, nothing reaches the
    store, and both passes still equal the interpreter."""
    oracle = _run(name, interpreted=True)
    rounds = _rounds(name)
    job = {"name": name, "rungs": (NO_C_LIBRARY, NO_C_LIBRARY),
           "check": False, "store": str(tmp_path)}
    with _workers(mode) as workers:
        sources, served = dict(TRACE_COUNTERS), dict(SERVED_COUNTERS)
        reply = _submit(mode, job, workers)
    assert reply["passes"] == [oracle] * rounds
    assert reply["native"] == ["fault-injected"] * 2
    assert TRACE_COUNTERS["synthesized"] == sources["synthesized"]
    assert _served_grew(served) \
        == {Cause.NO_TRACE.value: 2 * len(CONFIGS[name])}
    assert not list(tmp_path.rglob("*.entry"))


@pytest.mark.usefixtures("clean_faults")
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", CONFIGS)
def test_under_repro_no_trace_every_call_runs_per_tile(name, mode, tmp_path,
                                                      monkeypatch):
    """``REPRO_NO_TRACE=1``, the one per-tier switch: every call runs per
    tile, counted as ``no_trace``; nothing is synthesized or published."""
    oracle = _run(name, interpreted=True)
    monkeypatch.setenv("REPRO_NO_TRACE", "1")
    job = {"name": name, "rungs": ((), ()), "check": False,
           "store": str(tmp_path)}
    with _workers(mode) as workers:
        sources, served = dict(TRACE_COUNTERS), dict(SERVED_COUNTERS)
        reply = _submit(mode, job, workers)
    assert reply["passes"] == [oracle] * _rounds(name)
    assert TRACE_COUNTERS["synthesized"] == sources["synthesized"]
    assert _served_grew(served) \
        == {Cause.NO_TRACE.value: 2 * len(CONFIGS[name])}
    assert not list(tmp_path.rglob("*.entry"))


@pytest.mark.usefixtures("clean_faults")
@pytest.mark.parametrize("name", CONFIGS)
def test_the_second_pass_takes_the_hit_paths(name, tmp_path):
    """What makes the matrix bite: with no rung forced the warm pass
    loads its traces from the store and applies stored plans, so a
    wrong plan application cannot hide behind a rebuild, and no call
    is refused."""
    with _selected((), False, tmp_path):
        built = METRICS_PLAN_COUNTERS["metrics_plan_misses"]
        refused = TRACE_COUNTERS["replay_refused"]
        _run(name)
        loaded, applied = _hit_paths()
        _run(name)
        steps = len(CONFIGS[name])
        assert _hit_paths() == (loaded + steps, applied + steps)
        assert TRACE_COUNTERS["replay_refused"] == refused
        if name == TWINS_AND_STRANGER:
            # The second kernel never built, yet its entry holds a
            # plan: the first kernel's, which the warm pass applied.
            assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] == built + 2
            store = KernelStore(tmp_path)
            stored = [set(store.load(path.name[:-len(".entry")])[1]
                          ["metrics_plans"])
                      for path in tmp_path.glob("objects/*/*.entry")]
            assert len(stored) == 3 and len(set.union(*stored)) == 1


@pytest.mark.usefixtures("clean_faults")
@pytest.mark.parametrize("name", CONFIGS)
def test_a_stored_kernel_re_emits_the_same_driver(name, tmp_path):
    """A store entry keeps no IR: the driver a loaded kernel runs per
    tile is rebuilt through the compile it was looked up with, and is
    the compiled driver byte for byte (loop names included)."""
    with _selected((), False, tmp_path):
        built = [make(KernelCache())[1] for make, _, _ in CONFIGS[name]]
        _run(name)  # publishes
        caches = [KernelCache() for _ in CONFIGS[name]]
        loaded = [make(cache)[1]
                  for cache, (make, _, _) in zip(caches, CONFIGS[name])]
    for cache, fresh, stored in zip(caches, built, loaded):
        assert cache.disk_hits == 1 and stored.trace_state.module is None
        assert stored.source == fresh.source
        assert stored.schedule_table == fresh.schedule_table
