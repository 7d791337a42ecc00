"""Kernel sequences on one shared board, and the model-job worker pool.

The model figures (fig16's ResNet-18 layers, fig17's TinyBERT matmul
schedules) run their kernels back to back on *one* board, so each
kernel starts from the cache warm state the previous one left.  The
contract under test: such a sequence through the fast tiers — a
synthesized trace replayed under per-trace cached MetricsPlans, built
on the first pass and hit on the second — is **bit-identical** to the
same sequence with every kernel on a fresh board object that was handed
the previous board's state, and to the oracle tiers (the reference
interpreter; the per-tile driver for the hand-written baseline):
PerfCounters, output arrays, the board clock, and the exact LRU warm
state (:func:`repro.soc.cache.warm_state_digest`) all match after
every step.

Every scenario drives the same tiny two-kernel sequences (a matmul
schedule and a manual+generated conv pair, miniatures of fig17/fig16)
so the whole file stays fast.  ``TestWorkerPool`` covers
:func:`repro.pool.run_model_jobs`, which fans independent sequences
onto the fork pool.
"""

import copy

import numpy as np
import pytest

from repro import counters
from repro.accelerators import ConvAccelerator, make_conv_system, \
    make_matmul_system
from repro.baselines import cpu_conv, manual_conv_driver
from repro.compiler import (
    AXI4MLIRCompiler,
    KernelCache,
    default_kernel_cache,
)
from repro.execution import (
    METRICS_PLAN_COUNTERS,
    MODEL_PLAN_COUNTERS,
    run_model_jobs,
)
from repro.pool import worker_count
from repro.soc import make_pynq_z2
from repro.soc.cache import warm_state_digest

#: (m, n, k, size, version, flow, accel_size) — two small fig17-style steps.
MATMUL_SPECS = ((16, 16, 16, 8, 3, "Ns", None),
                (32, 16, 16, 8, 2, "As", None))


@pytest.fixture(autouse=True)
def _fresh_pool_counters():
    counters.reset(MODEL_PLAN_COUNTERS)


def _matmul_data(m, n, k, seed=5):
    rng = np.random.default_rng(seed)
    a = rng.integers(-7, 7, (m, k)).astype(np.int32)
    b = rng.integers(-7, 7, (k, n)).astype(np.int32)
    return a, b


def _observe(board, step_counters, out):
    return (step_counters.as_dict(), out.tobytes(),
            warm_state_digest(board.caches), board.clock)


def run_matmul_sequence(specs=MATMUL_SPECS, cache=None, carried=False,
                        interpreted=False):
    """``specs`` back to back on one board; what must agree, per step.

    ``cache`` shares compiled kernels (and the MetricsPlans cached on
    their traces) between calls; ``carried`` runs every kernel on a
    deep copy of the board the previous one left; ``interpreted`` runs
    the reference interpreter.
    """
    board = make_pynq_z2()
    states = []
    for m, n, k, size, version, flow, accel in specs:
        if carried:
            board = copy.deepcopy(board)
        hw, info = make_matmul_system(version, size, flow=flow,
                                      accel_size=accel)
        board.attach_accelerator(hw)
        kernel = AXI4MLIRCompiler(
            info, kernel_cache=KernelCache() if cache is None else cache
        ).compile_matmul(m, n, k)
        a, b = _matmul_data(m, n, k)
        c = np.zeros((m, n), np.int32)
        run = kernel.run_interpreted if interpreted else kernel.run
        step_counters = run(board, a, b, c)
        assert np.array_equal(c, a.astype(np.int64) @ b.astype(np.int64))
        states.append(_observe(board, step_counters, c))
    return states


def run_conv_sequence(cache=None, carried=False, interpreted=False):
    """A manual step and a generated step sharing one warm board.

    ``interpreted`` is the oracle pass: the caller has set
    ``REPRO_NO_TRACE=1`` (the hand-written driver then runs per tile)
    and the generated step goes through the interpreter.
    """
    board = make_pynq_z2()
    rng = np.random.default_rng(23)
    image = rng.integers(-4, 4, (1, 4, 8, 8)).astype(np.int32)
    weights = rng.integers(-4, 4, (2, 4, 3, 3)).astype(np.int32)
    expected, _ = cpu_conv(make_pynq_z2(), image, weights, 1)
    states = []

    out = np.zeros((1, 2, 6, 6), np.int32)
    board.attach_accelerator(ConvAccelerator(max_ic=4, max_fhw=3))
    step_counters = manual_conv_driver(board, image, weights, out, 1)
    assert np.array_equal(out, expected)
    states.append(_observe(board, step_counters, out))

    if carried:
        board = copy.deepcopy(board)
    hw, info = make_conv_system(4, 3)
    board.attach_accelerator(hw)
    kernel = AXI4MLIRCompiler(
        info, kernel_cache=KernelCache() if cache is None else cache
    ).compile_conv(1, 4, 8, 2, 3, 1)
    out = np.zeros((1, 2, 6, 6), np.int32)
    run = kernel.run_interpreted if interpreted else kernel.run
    step_counters = run(board, image, weights, out)
    assert np.array_equal(out, expected)
    states.append(_observe(board, step_counters, out))
    return states


def _plan_traffic():
    return (METRICS_PLAN_COUNTERS["metrics_plan_misses"],
            METRICS_PLAN_COUNTERS["metrics_plan_hits"])


class TestFusedBitIdentity:
    """A shared-board sequence against its two references."""

    @pytest.mark.usefixtures("clean_faults")
    def test_matmul_record_and_replay_match_per_kernel(self):
        cache = KernelCache()
        misses, hits = _plan_traffic()
        built = run_matmul_sequence(cache=cache)
        assert _plan_traffic() == (misses + len(MATMUL_SPECS), hits)
        # Same kernels, same start states: every plan is a cache hit.
        replayed = run_matmul_sequence(cache=cache)
        assert _plan_traffic() == (misses + len(MATMUL_SPECS),
                                   hits + len(MATMUL_SPECS))
        assert built == replayed
        assert built == run_matmul_sequence(carried=True)
        assert built == run_matmul_sequence(interpreted=True)

    @pytest.mark.usefixtures("clean_faults")
    def test_conv_manual_and_generated_steps_fuse(self, monkeypatch):
        cache = KernelCache()
        built = run_conv_sequence(cache=cache)
        _, hits = _plan_traffic()
        # The manual-driver step and the generated step both replay
        # from the plans the first pass left on their traces.
        replayed = run_conv_sequence(cache=cache)
        assert _plan_traffic()[1] == hits + 2
        assert built == replayed
        assert built == run_conv_sequence(carried=True)
        monkeypatch.setenv("REPRO_NO_TRACE", "1")
        assert built == run_conv_sequence(interpreted=True)


class TestWarmStateCarry:
    """The fig16/fig17 accounting fix: layers share one warm board."""

    def _step_pair(self, shared_board: bool):
        m, n, k, size, version, flow = 32, 32, 32, 8, 3, "Ns"
        hw, info = make_matmul_system(version, size, flow=flow)
        kernel = AXI4MLIRCompiler(
            info, kernel_cache=KernelCache()
        ).compile_matmul(m, n, k)
        a, b = _matmul_data(m, n, k)
        boards = []
        states = []
        board = make_pynq_z2()
        for _ in range(2):
            if not shared_board:
                board = make_pynq_z2()
            board.attach_accelerator(
                make_matmul_system(version, size, flow=flow)[0])
            c = np.zeros((m, n), np.int32)
            counters = kernel.run(board, a, b, c)
            states.append(counters.as_dict())
            boards.append(board)
        return states, boards

    def test_second_step_sees_warm_state(self):
        cold, cold_boards = self._step_pair(shared_board=False)
        warm, warm_boards = self._step_pair(shared_board=True)
        # Identical kernel, identical data: only the carried board
        # state differs, and it must show up in the accounting.
        assert warm[0] == cold[0]
        assert warm[1] != cold[1]
        # Each run wraps fresh simulated allocations, so the carried
        # LRU contents change eviction *victims*, never the compulsory
        # miss count — a drift here means the carry went wrong.
        assert warm[1]["cache_misses"] == cold[1]["cache_misses"]
        # The second warm step starts from (and extends) the first
        # step's live LRU contents instead of a cold hierarchy.
        assert warm_state_digest(warm_boards[1].caches) != \
            warm_state_digest(cold_boards[1].caches)
        assert warm_state_digest(cold_boards[1].caches) == \
            warm_state_digest(cold_boards[0].caches)

    def test_session_path_equals_shared_board_path(self):
        """The figure harness's model runner is the shared-board path:
        two separately compiled kernels on its one board account
        exactly like one kernel run twice on a shared board."""
        from repro.experiments.harness import run_matmul_model

        warm, _ = self._step_pair(shared_board=True)
        spec = (32, 32, 32, 8, 3, "Ns", None)
        assert [c.as_dict() for c in run_matmul_model((spec, spec))] \
            == warm


class TestWorkerPool:
    def test_pool_results_match_inline(self, monkeypatch):
        from repro.experiments.harness import run_matmul_model

        specs_a = (MATMUL_SPECS[0],)
        specs_b = (MATMUL_SPECS[1],)
        jobs = [(run_matmul_model, (specs_a,)),
                (run_matmul_model, (specs_b,))]
        monkeypatch.setenv("REPRO_WORKERS", "1")
        inline = run_model_jobs(jobs)
        assert MODEL_PLAN_COUNTERS["model_plan_workers"] == 0
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pooled = run_model_jobs(jobs)
        assert [[c.as_dict() for c in r] for r in pooled] == \
            [[c.as_dict() for c in r] for r in inline]

    @pytest.mark.usefixtures("clean_faults")
    def test_pool_merges_worker_diagnostics(self, monkeypatch):
        from repro.execution import STAGE_TIMINGS
        from repro.experiments.harness import run_matmul_model

        monkeypatch.setenv("REPRO_WORKERS", "2")
        # Forked workers inherit the shared kernel cache: start it empty
        # so they have plans to build.
        default_kernel_cache().clear()
        before_build = STAGE_TIMINGS["metrics_plan_build_s"]
        before_misses = METRICS_PLAN_COUNTERS["metrics_plan_misses"]
        run_model_jobs([(run_matmul_model, ((MATMUL_SPECS[0],),)),
                        (run_matmul_model, ((MATMUL_SPECS[1],),))])
        # The builds happened in forked workers; the parent's stage
        # timings and counters must still account for them.
        assert MODEL_PLAN_COUNTERS["model_plan_workers"] == 2
        assert STAGE_TIMINGS["metrics_plan_build_s"] > before_build
        assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] > \
            before_misses

    @pytest.mark.usefixtures("clean_faults")
    def test_no_fork_rung_runs_inline_and_merges_nothing(
            self, monkeypatch):
        from repro import pool
        from repro.experiments.harness import run_matmul_model

        jobs = [(run_matmul_model, ((MATMUL_SPECS[0],),)),
                (run_matmul_model, ((MATMUL_SPECS[1],),))]
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pooled = run_model_jobs(jobs)
        assert MODEL_PLAN_COUNTERS["model_plan_workers"] == 2
        counters.reset(MODEL_PLAN_COUNTERS)
        monkeypatch.setattr(pool, "fork_available", lambda: False)
        before = sum(_plan_traffic())
        inline = run_model_jobs(jobs)
        assert [[c.as_dict() for c in r] for r in inline] == \
            [[c.as_dict() for c in r] for r in pooled]
        # Counted where it ran: the replays' own bumps, no worker merge.
        assert MODEL_PLAN_COUNTERS["model_plan_workers"] == 0
        assert sum(_plan_traffic()) > before

    def test_malformed_worker_count_warns_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "three-ish")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert worker_count() >= 1
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            worker_count()  # second read: no second warning

    def test_worker_count_is_clamped_and_defaults_to_cpu_bound(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert worker_count() == 1
        monkeypatch.delenv("REPRO_WORKERS")
        assert 1 <= worker_count() <= 4
