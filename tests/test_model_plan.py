"""Model-granularity replay (repro.execution.model_plan).

The contract under test: running a kernel *sequence* through a
:class:`ModelSession` — fused ModelPlan record/replay, inter-kernel
cache warm-state carry, worker-pool dispatch — is **bit-identical** to
running the same sequence step-by-step through the per-kernel metrics
plane (the ``REPRO_FAULTS="model.plan:fail"`` rung): PerfCounters,
output arrays, the board clock, and the exact LRU warm state
(:func:`repro.soc.cache.warm_state_digest`) all match.

Every scenario drives the same tiny two-kernel sequences (a matmul
schedule and a manual+generated conv pair, miniatures of fig17/fig16)
so the whole file stays fast.
"""

import numpy as np
import pytest

from repro.accelerators import ConvAccelerator, make_conv_system, \
    make_matmul_system
from repro.baselines import cpu_conv, manual_conv_driver
from repro.compiler import AXI4MLIRCompiler, KernelCache
from repro.execution import (
    MODEL_PLAN_COUNTERS,
    ModelPlanMismatch,
    ModelSession,
    model_workers,
    reset_model_plan_counters,
    reset_model_plans,
    run_model_jobs,
)
from repro.soc import make_pynq_z2
from repro.soc.cache import warm_state_digest

#: (m, n, k, size, version, flow, accel_size) — two small fig17-style steps.
MATMUL_SPECS = ((16, 16, 16, 8, 3, "Ns", None),
                (32, 16, 16, 8, 2, "As", None))


@pytest.fixture(autouse=True)
def _fresh_model_registry():
    reset_model_plans()
    reset_model_plan_counters()
    yield
    reset_model_plans()


def _matmul_data(m, n, k, seed=5):
    rng = np.random.default_rng(seed)
    a = rng.integers(-7, 7, (m, k)).astype(np.int32)
    b = rng.integers(-7, 7, (k, n)).astype(np.int32)
    return a, b


def run_matmul_sequence(name="model-test-matmul", specs=MATMUL_SPECS):
    """One ModelSession over ``specs``; returns (states, fused plan)."""
    board = make_pynq_z2()
    session = ModelSession(name, board)
    states = []
    for spec in specs:
        m, n, k, size, version, flow, accel = spec
        hw, info = make_matmul_system(version, size, flow=flow,
                                      accel_size=accel)
        board.attach_accelerator(hw)
        kernel = AXI4MLIRCompiler(
            info, kernel_cache=KernelCache()
        ).compile_matmul(m, n, k)
        a, b = _matmul_data(m, n, k)
        c = np.zeros((m, n), np.int32)
        counters = session.run(kernel, a, b, c, step_key=("mm",) + spec)
        expected = (a.astype(np.int64) @ b.astype(np.int64))
        assert np.array_equal(c, expected)
        states.append((counters.as_dict(), c.tobytes(),
                       warm_state_digest(board.caches), board.clock))
    return states, session.finish()


def run_conv_sequence(name="model-test-conv"):
    """A manual step and a generated step sharing one warm board."""
    board = make_pynq_z2()
    session = ModelSession(name, board)
    rng = np.random.default_rng(23)
    image = rng.integers(-4, 4, (1, 4, 8, 8)).astype(np.int32)
    weights = rng.integers(-4, 4, (2, 4, 3, 3)).astype(np.int32)
    expected, _ = cpu_conv(make_pynq_z2(), image, weights, 1)
    states = []

    out = np.zeros((1, 2, 6, 6), np.int32)
    board.attach_accelerator(ConvAccelerator(max_ic=4, max_fhw=3))
    counters = manual_conv_driver(
        board, image, weights, out, 1,
        plan_source=session.plan_source(("manual-conv",)),
    )
    assert np.array_equal(out, expected)
    states.append((counters.as_dict(), out.tobytes(),
                   warm_state_digest(board.caches), board.clock))

    hw, info = make_conv_system(4, 3)
    board.attach_accelerator(hw)
    kernel = AXI4MLIRCompiler(
        info, kernel_cache=KernelCache()
    ).compile_conv(1, 4, 8, 2, 3, 1)
    out = np.zeros((1, 2, 6, 6), np.int32)
    counters = session.run(kernel, image, weights, out,
                           step_key=("gen-conv",))
    assert np.array_equal(out, expected)
    states.append((counters.as_dict(), out.tobytes(),
                   warm_state_digest(board.caches), board.clock))
    return states, session.finish()


class TestFusedBitIdentity:
    @pytest.mark.ambient_faults_incompatible
    def test_matmul_record_and_replay_match_per_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "model.plan:fail")
        kill, none_plan = run_matmul_sequence()
        assert none_plan is None
        assert MODEL_PLAN_COUNTERS["model_plan_fallback"] == \
            len(MATMUL_SPECS)
        monkeypatch.delenv("REPRO_FAULTS")

        recorded, plan = run_matmul_sequence()
        assert MODEL_PLAN_COUNTERS["model_plan_misses"] == 1
        assert plan is not None and len(plan) == len(MATMUL_SPECS)

        replayed, plan2 = run_matmul_sequence()
        assert MODEL_PLAN_COUNTERS["model_plan_hits"] == 1
        assert MODEL_PLAN_COUNTERS["model_plan_step_hits"] == \
            len(MATMUL_SPECS)
        assert plan2 is plan

        assert kill == recorded == replayed

    @pytest.mark.ambient_faults_incompatible
    def test_conv_manual_and_generated_steps_fuse(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "model.plan:fail")
        kill, _ = run_conv_sequence()
        monkeypatch.delenv("REPRO_FAULTS")
        recorded, plan = run_conv_sequence()
        replayed, _ = run_conv_sequence()
        assert kill == recorded == replayed
        # Both the manual-driver step and the generated step recorded
        # fused sub-plans, and both replayed from them.
        assert plan is not None and len(plan) == 2
        assert MODEL_PLAN_COUNTERS["model_plan_step_hits"] == 2

    @pytest.mark.ambient_faults_incompatible
    def test_timeline_is_stitched_per_step_end_states(self):
        _, plan = run_matmul_sequence()
        timeline = plan.timeline()
        assert timeline.shape == (len(MATMUL_SPECS), 9)
        # Absolute end states: clock (column 5) advances monotonically.
        assert np.all(np.diff(timeline[:, 5]) > 0)
        # Replaying yields the identical fused timeline.
        _, plan2 = run_matmul_sequence()
        assert np.array_equal(plan2.timeline(), timeline)

    @pytest.mark.ambient_faults_incompatible
    def test_divergence_keeps_prefix_and_rerecords(self, monkeypatch):
        run_matmul_sequence()
        diverged_specs = (MATMUL_SPECS[0],
                          (16, 32, 16, 8, 3, "Bs", None))
        monkeypatch.setenv("REPRO_FAULTS", "model.plan:fail")
        kill, _ = run_matmul_sequence(specs=diverged_specs)
        monkeypatch.delenv("REPRO_FAULTS")
        reset_model_plan_counters()
        live, plan = run_matmul_sequence(specs=diverged_specs)
        assert MODEL_PLAN_COUNTERS["model_plan_divergence"] == 1
        assert MODEL_PLAN_COUNTERS["model_plan_step_hits"] == 1
        assert MODEL_PLAN_COUNTERS["model_plan_misses"] == 1
        assert live == kill
        assert plan is not None and len(plan) == 2
        # The re-recorded plan replays cleanly on the next session.
        again, _ = run_matmul_sequence(specs=diverged_specs)
        assert again == live
        assert MODEL_PLAN_COUNTERS["model_plan_hits"] == 1

    def test_fault_site_forces_per_kernel_path(self, monkeypatch):
        from repro import faults

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        recorded, _ = run_matmul_sequence()
        reset_model_plans()
        reset_model_plan_counters()
        fired = faults.fault_counters().get("model.plan", 0)
        monkeypatch.setenv("REPRO_FAULTS", "model.plan:fail@1.0")
        faulted, plan = run_matmul_sequence()
        assert plan is None
        assert MODEL_PLAN_COUNTERS["model_plan_fallback"] == \
            len(MATMUL_SPECS)
        # The rung counts itself: one firing per forced step.
        assert faults.fault_counters()["model.plan"] == \
            fired + len(MATMUL_SPECS)
        assert faulted == recorded


class TestCrossCheck:
    def test_metrics_check_implies_model_check(self, monkeypatch):
        """One switch: the value that checks cached MetricsPlan hits is
        the one the fused-step site reads, and only ``1`` requests it."""
        from repro.envutil import check_requested

        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert not check_requested()
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert not check_requested()
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert check_requested()

    @pytest.mark.ambient_faults_incompatible
    def test_clean_replay_passes_under_check(self, monkeypatch):
        run_matmul_sequence()
        monkeypatch.setenv("REPRO_CHECK", "1")
        replayed, _ = run_matmul_sequence()
        assert MODEL_PLAN_COUNTERS["model_plan_step_hits"] == \
            len(MATMUL_SPECS)

    @pytest.mark.ambient_faults_incompatible
    def test_tampered_sub_plan_raises(self, monkeypatch):
        _, plan = run_matmul_sequence()
        tampered = plan.steps[1][1]
        tampered.final_state = \
            np.asarray(tampered.final_state, dtype=np.float64) + 1.0
        monkeypatch.setenv("REPRO_CHECK", "1")
        with pytest.raises(ModelPlanMismatch):
            run_matmul_sequence()


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

    def test_second_step_sees_warm_state(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "model.plan:fail")
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

    def test_session_path_equals_shared_board_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "model.plan:fail")
        warm, _ = self._step_pair(shared_board=True)
        monkeypatch.delenv("REPRO_FAULTS")
        spec = (32, 32, 32, 8, 3, "Ns", None)
        session_states, _ = run_matmul_sequence(
            name="warm-carry", specs=(spec, spec))
        assert [s[0] for s in session_states] == warm


class TestPersistence:
    @pytest.mark.ambient_faults_incompatible
    def test_store_roundtrip_replays_from_disk(self, monkeypatch,
                                               tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        recorded, plan = run_matmul_sequence(name="persisted")
        entries = list((tmp_path / "objects").rglob("model-*.entry"))
        assert len(entries) == 1
        # Forget the in-memory registry: the next session must come
        # back bit-identical from the persisted fused plan.
        reset_model_plans()
        reset_model_plan_counters()
        replayed, plan2 = run_matmul_sequence(name="persisted")
        assert MODEL_PLAN_COUNTERS["model_plan_step_hits"] == \
            len(MATMUL_SPECS)
        assert replayed == recorded
        assert np.array_equal(plan2.timeline(), plan.timeline())

    @pytest.mark.ambient_faults_incompatible
    def test_stale_schema_evicts_only_the_model_plan(self, monkeypatch,
                                                     tmp_path):
        from repro.compiler import KERNEL_STORE_VERSION
        from repro.execution.model_plan import _store_entry_name
        from repro.store import KernelStore

        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        run_matmul_sequence(name="stale-schema")
        objects = tmp_path / "objects"
        kernel_entries = sorted(objects.rglob("kernel-*.entry"))
        assert kernel_entries  # generated kernels persisted alongside
        # Overwrite the model entry with a foreign payload — another
        # store version (load_entry's check), then the current version
        # holding no ModelPlan (the session's own isinstance guard).
        # Either way it is quarantined and counted, and the session
        # re-records.
        store = KernelStore(tmp_path)
        entry = _store_entry_name("stale-schema")
        for version in (KERNEL_STORE_VERSION - 1, KERNEL_STORE_VERSION):
            assert store.store(entry, {"store_version": version,
                                       "plan": None})
            reset_model_plans()
            reset_model_plan_counters()
            rerecorded, plan = run_matmul_sequence(name="stale-schema")
            assert MODEL_PLAN_COUNTERS["model_plan_stale"] == 1
            assert MODEL_PLAN_COUNTERS["model_plan_step_hits"] == 0
            assert MODEL_PLAN_COUNTERS["model_plan_misses"] == 1
            assert plan is not None
            # Eviction was surgical: every kernel entry survived.
            assert sorted(objects.rglob("kernel-*.entry")) == kernel_entries

    def test_foreign_fingerprint_leaves_entry_alone(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        run_matmul_sequence(name="foreign")
        reset_model_plans()
        # Same model name, different start state: the persisted plan's
        # fingerprint cannot match, but it is not *stale* — the session
        # records its own run and the entry is not quarantined.
        board = make_pynq_z2()
        board.caches.l1.access_line(7)  # perturb the start state
        session = ModelSession("foreign", board)
        assert session._plan is None
        assert MODEL_PLAN_COUNTERS["model_plan_stale"] == 0


class TestWorkerPool:
    def test_pool_results_match_inline(self, monkeypatch):
        from repro.experiments.harness import run_matmul_model

        specs_a = (MATMUL_SPECS[0],)
        specs_b = (MATMUL_SPECS[1],)
        jobs = [(run_matmul_model, (specs_a,)),
                (run_matmul_model, (specs_b,))]
        monkeypatch.setenv("REPRO_MODEL_WORKERS", "1")
        inline = run_model_jobs(jobs)
        assert MODEL_PLAN_COUNTERS["model_plan_workers"] == 0
        monkeypatch.setenv("REPRO_MODEL_WORKERS", "2")
        reset_model_plans()
        pooled = run_model_jobs(jobs)
        assert [[c.as_dict() for c in r] for r in pooled] == \
            [[c.as_dict() for c in r] for r in inline]

    def test_pool_merges_worker_diagnostics(self, monkeypatch):
        from repro.execution import STAGE_TIMINGS
        from repro.execution.metrics import METRICS_PLAN_COUNTERS
        from repro.experiments.harness import run_matmul_model

        monkeypatch.setenv("REPRO_MODEL_WORKERS", "2")
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

    def test_no_fork_rung_runs_inline_and_merges_nothing(
            self, monkeypatch):
        from repro import pool
        from repro.experiments.harness import run_matmul_model

        jobs = [(run_matmul_model, ((MATMUL_SPECS[0],),)),
                (run_matmul_model, ((MATMUL_SPECS[1],),))]
        monkeypatch.setenv("REPRO_MODEL_WORKERS", "2")
        pooled = run_model_jobs(jobs)
        assert MODEL_PLAN_COUNTERS["model_plan_workers"] == 2
        reset_model_plans()
        reset_model_plan_counters()
        monkeypatch.setattr(pool, "fork_available", lambda: False)
        inline = run_model_jobs(jobs)
        assert [[c.as_dict() for c in r] for r in inline] == \
            [[c.as_dict() for c in r] for r in pooled]
        # Counted where it ran: the sessions' own bumps, no worker merge.
        assert MODEL_PLAN_COUNTERS["model_plan_workers"] == 0
        assert sum(MODEL_PLAN_COUNTERS.values()) > 0

    def test_malformed_worker_count_warns_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_WORKERS", "three-ish")
        with pytest.warns(RuntimeWarning, match="REPRO_MODEL_WORKERS"):
            assert model_workers() >= 1
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            model_workers()  # second read: no second warning

    def test_worker_count_is_clamped_and_defaults_to_cpu_bound(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_WORKERS", "0")
        assert model_workers() == 1
        monkeypatch.delenv("REPRO_MODEL_WORKERS")
        assert 1 <= model_workers() <= 4


class TestSwitches:
    def test_metrics_kill_switch_disables_model_plans(self, monkeypatch):
        """No plan of either kind: both rungs forced, nothing recorded,
        every step computed live."""
        from repro.execution import METRICS_PLAN_COUNTERS

        monkeypatch.setenv("REPRO_FAULTS",
                           "metrics.plan:fail;model.plan:fail")
        before = dict(METRICS_PLAN_COUNTERS)
        _, plan = run_matmul_sequence()
        assert plan is None
        assert MODEL_PLAN_COUNTERS["model_plan_fallback"] == \
            len(MATMUL_SPECS)
        assert METRICS_PLAN_COUNTERS["metrics_plan_fallback"] == \
            before["metrics_plan_fallback"] + len(MATMUL_SPECS)
        assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] == \
            before["metrics_plan_misses"]

    def test_finished_session_rejects_new_steps(self):
        board = make_pynq_z2()
        session = ModelSession("finished", board)
        session.finish()
        with pytest.raises(RuntimeError, match="finished"):
            session.run(None, step_key=("late",))
