"""Chaos suite: every degradation-ladder rung under injected faults.

The acceptance bar is bit-identity: for every single injected fault,
benchmark configurations must produce exactly the PerfCounters and
output bytes of the clean run — a fault may only ever force an
already-equivalent fallback path, never change results.
"""

import os

import numpy as np
import pytest

from repro import counters, faults
from repro.accelerators import make_conv_system, make_matmul_system
from repro.compiler import AXI4MLIRCompiler, KernelCache
from repro.execution import diagnostics
from repro.execution.metrics import METRICS_PLAN_COUNTERS
from repro.execution.trace import TRACE_COUNTERS
from repro.soc import make_pynq_z2
from repro.store import STORE_COUNTERS


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch, fresh_native_probe):
    """Each test controls its own fault spec, even under CI's chaos leg
    (the native probe included: it is re-run under the test's spec)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    faults.reset_faults()
    counters.reset(STORE_COUNTERS)
    yield
    faults.reset_faults()


class TestGrammar:
    def test_single_clause_defaults_to_always(self):
        clauses = faults.parse_faults("store.read:io")
        assert clauses["store.read"].kind == "io"
        assert clauses["store.read"].probability == 1.0

    def test_full_spec(self):
        spec = "store.read:io@0.3;native.compile:fail;store.write:io@0.1"
        clauses = faults.parse_faults(spec)
        assert set(clauses) == {"store.read", "native.compile",
                                "store.write"}
        assert clauses["store.write"].kind == "io"
        assert clauses["store.write"].probability == 0.1

    def test_lock_alias(self):
        # The alias went with the ``store.lock`` site it named: both
        # spellings are unknown sites now, and unknown sites raise.
        for spec in ("lock:timeout", "store.lock:timeout"):
            with pytest.raises(faults.FaultConfigError):
                faults.parse_faults(spec)

    @pytest.mark.parametrize("bad", [
        "unknown.site:io",            # unknown site
        "store.read:timeout",         # kind not supported by site
        "store.read",                 # missing kind
        "store.read:io@1.5",          # probability out of range
        "store.read:io@x",            # unparsable probability
        "store.read:io;store.read:corrupt",  # duplicate site
    ])
    def test_bad_specs_fail_loudly(self, bad):
        with pytest.raises(faults.FaultConfigError):
            faults.parse_faults(bad)

    def test_inactive_without_env(self):
        assert not faults.faults_active()
        assert faults.fires("store.read") is None

    def test_env_changes_take_effect_immediately(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store.read:io")
        assert faults.fires("store.read") == "io"
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert faults.fires("store.read") is None


class TestDocstringContract:
    """The module docstring is executable documentation: every fault
    clause it shows must parse against the real site registry, so the
    grammar example can never drift from the code again (it once
    showed ``lock:timeout@0.1`` against an example using canonical
    site names)."""

    CLAUSE_RE = r"\b([a-z]+(?:\.[a-z]+)+:[a-z]+(?:@[0-9.]+)?)\b"

    def _docstring_clauses(self):
        import re
        return re.findall(self.CLAUSE_RE, faults.__doc__)

    def test_every_docstring_clause_parses(self):
        clauses = self._docstring_clauses()
        assert clauses, "docstring lost its grammar examples"
        for clause in clauses:
            parsed = faults.parse_faults(clause)  # must not raise
            assert len(parsed) == 1

    def test_grammar_example_covers_service_sites(self):
        sites = {clause.split(":")[0]
                 for clause in self._docstring_clauses()}
        assert "store.write" in sites
        assert "service.worker" in sites

    def test_readme_rung_table_names_the_real_sites(self):
        """README's "Forcing a fallback rung" table cannot drift: every
        clause in its second column parses, and the sites it names are
        exactly the registered ones outside the service and the sweep
        (those have the site table under **Robustness**)."""
        import re
        from pathlib import Path

        readme = Path(__file__).resolve().parent.parent / "README.md"
        lines = iter(readme.read_text().splitlines())
        assert any(line.startswith("| Rung ") for line in lines)
        next(lines)  # the |---| separator
        clauses = []
        for line in lines:
            if not line.startswith("|"):
                break
            clauses += re.findall(r"`([^`]+)`", line.split("|")[2])
        for clause in clauses:
            assert len(faults.parse_faults(clause)) == 1
        assert {clause.split(":")[0] for clause in clauses} == {
            site for site in faults.SITES
            if not site.startswith(("service.", "tuning."))}

    def test_every_registered_kind_parses(self):
        for site, kinds in faults.SITES.items():
            for kind in kinds:
                parsed = faults.parse_faults(f"{site}:{kind}@0.5")
                assert parsed[site].kind == kind


class TestMalformedSeed:
    """REPRO_FAULTS_SEED follows the one-shot-warning knob contract:
    garbage warns once and falls back to the default seed instead of
    erroring (or silently changing the schedule)."""

    def _fresh_warn_memo(self, monkeypatch):
        from repro import envutil
        monkeypatch.setattr(envutil, "_warned_env_values", set())

    def test_malformed_seed_warns_once_and_uses_default(
            self, monkeypatch):
        self._fresh_warn_memo(monkeypatch)
        monkeypatch.setenv("REPRO_FAULTS", "replay:fail@0.3")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "banana")
        with pytest.warns(RuntimeWarning,
                          match="REPRO_FAULTS_SEED='banana'"):
            schedule = [faults.fires("replay") for _ in range(64)]
        # Same schedule as the default seed 0.
        faults.reset_faults()
        monkeypatch.setenv("REPRO_FAULTS_SEED", "0")
        assert [faults.fires("replay") for _ in range(64)] == schedule

    def test_warning_is_one_shot_per_value(self, monkeypatch):
        import warnings as warnings_mod

        self._fresh_warn_memo(monkeypatch)
        monkeypatch.setenv("REPRO_FAULTS", "replay:fail")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "3.5")
        with pytest.warns(RuntimeWarning):
            faults.fires("replay")
        faults.reset_faults()  # force clause re-parse
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert faults.fires("replay") == "fail"


class TestDeterminism:
    def _schedule(self, seed, draws=64):
        faults.reset_faults()
        os.environ["REPRO_FAULTS"] = "replay:fail@0.3"
        os.environ["REPRO_FAULTS_SEED"] = str(seed)
        try:
            return [faults.fires("replay") for _ in range(draws)]
        finally:
            del os.environ["REPRO_FAULTS"]
            del os.environ["REPRO_FAULTS_SEED"]

    def test_same_seed_same_schedule(self):
        assert self._schedule(7) == self._schedule(7)

    def test_different_seed_different_schedule(self):
        assert self._schedule(7) != self._schedule(8)

    def test_probability_thins_the_schedule(self):
        fired = [k for k in self._schedule(7, draws=200) if k]
        assert 20 < len(fired) < 120  # ~0.3 of 200

    def test_sites_draw_independent_streams(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS",
                           "replay:fail@0.5;synth:fail@0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "3")
        interleaved = [faults.fires("replay") for _ in range(32)]
        faults.reset_faults()
        for _ in range(32):
            faults.fires("synth")  # extra draws on the *other* site
        alone = [faults.fires("replay") for _ in range(32)]
        assert interleaved == alone

    def test_counters_track_fired_sites(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "synth:fail")
        for _ in range(3):
            assert faults.fires("synth") == "fail"
        assert faults.FAULT_COUNTERS["synth"] == 3


class TestKeyedDraws:
    """keyed_fires: per-key verdicts independent of consultation order.

    The sweep engine uses these for per-point crash/poison injection —
    a point's verdict must be a pure function of (seed, site, key) so
    a resumed sweep reproduces the interrupted sweep's verdicts no
    matter which process asks, how many times, or in what order.
    """

    def test_verdict_is_order_and_repeat_independent(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tuning.worker:crash@0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "11")
        keys = [f"point{i}" for i in range(32)]
        forward = [faults.keyed_fires("tuning.worker", k) for k in keys]
        backward = [faults.keyed_fires("tuning.worker", k)
                    for k in reversed(keys)]
        assert forward == list(reversed(backward))
        # Unlike fires(), repeat consultation does not advance a stream.
        assert forward == [faults.keyed_fires("tuning.worker", k)
                           for k in keys]

    def test_verdict_depends_on_seed_and_key(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tuning.point:poison@0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "1")
        keys = [f"point{i}" for i in range(64)]
        one = [faults.keyed_fires("tuning.point", k) for k in keys]
        monkeypatch.setenv("REPRO_FAULTS_SEED", "2")
        faults.reset_faults()
        two = [faults.keyed_fires("tuning.point", k) for k in keys]
        assert one != two
        fired = [k for k in one if k]
        assert 0 < len(fired) < len(keys)  # ~0.5, not all-or-nothing

    def test_inactive_site_returns_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.reset_faults()
        assert faults.keyed_fires("tuning.worker", "point0") is None

    def test_fired_verdicts_are_counted(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tuning.point:poison")
        faults.reset_faults()
        assert faults.keyed_fires("tuning.point", "a") == "poison"
        assert faults.keyed_fires("tuning.point", "b") == "poison"
        assert faults.FAULT_COUNTERS["tuning.point"] == 2


# -- bit-identity under every single fault ----------------------------------

CONFIGS = [
    ("matmul", dict(version=3, size=8, flow="Cs"), (32, 32, 32)),
    ("matmul", dict(version=2, size=4, flow="As"), (16, 16, 16)),
    ("conv", dict(ic=4, fhw=3), (1, 4, 8, 4, 3)),
]

FAULT_SPECS = [
    "store.read:io",
    "store.read:corrupt",
    "store.write:io",
    "native.compile:fail",
    "metrics.plan:fail",
    "replay:fail",
    "synth:fail",
]


def _run_config(kind, params, shape, store_dir):
    """Compile + run one benchmark config twice, then once via a disk
    reload; returns everything that must be bit-identical."""
    if kind == "matmul":
        hw, info = make_matmul_system(**params)
        m, n, k = shape
        rng = np.random.default_rng(77)
        arrays = [rng.integers(-5, 5, (m, k)).astype(np.int32),
                  rng.integers(-5, 5, (k, n)).astype(np.int32)]
        out_shape = (m, n)
        compile_fn = lambda c: c.compile_matmul(m, n, k)  # noqa: E731
    else:
        hw, info = make_conv_system(**params)
        batch, in_ch, in_hw, out_ch, f_hw = shape
        out_hw = in_hw - f_hw + 1
        rng = np.random.default_rng(78)
        arrays = [
            rng.integers(-4, 4, (batch, in_ch, in_hw, in_hw))
            .astype(np.int32),
            rng.integers(-4, 4, (out_ch, in_ch, f_hw, f_hw))
            .astype(np.int32),
        ]
        out_shape = (batch, out_ch, out_hw, out_hw)
        compile_fn = lambda c: c.compile_conv(*shape)  # noqa: E731

    results = []

    def run(kernel):
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        out = np.zeros(out_shape, np.int32)
        counters = kernel.run(board, *arrays, out)
        results.append((counters.as_dict(), out.tobytes()))

    cache = KernelCache(disk_dir=store_dir)
    kernel = compile_fn(AXI4MLIRCompiler(info, kernel_cache=cache))
    run(kernel)
    run(kernel)  # warm kernel: trace + metrics-plan paths
    reader = KernelCache(disk_dir=store_dir)
    run(compile_fn(AXI4MLIRCompiler(info, kernel_cache=reader)))
    return results


@pytest.fixture(scope="module")
def clean_baselines(tmp_path_factory):
    """Fault-free reference results, computed once per module.

    Module-scoped, so it sets up before the function-scoped autouse
    env scrub — ambient faults (CI's chaos leg) are removed by hand.
    """
    ambient = {name: os.environ.pop(name, None)
               for name in ("REPRO_FAULTS", "REPRO_FAULTS_SEED")}
    faults.reset_faults()
    try:
        baselines = {}
        for index, (kind, params, shape) in enumerate(CONFIGS):
            store = tmp_path_factory.mktemp(f"clean-store-{index}")
            baselines[index] = _run_config(kind, params, shape, str(store))
        return baselines
    finally:
        for name, value in ambient.items():
            if value is not None:
                os.environ[name] = value


class TestSingleFaultBitIdentity:
    @pytest.mark.parametrize("spec", FAULT_SPECS)
    @pytest.mark.parametrize("config_index", range(len(CONFIGS)))
    def test_fault_preserves_results(self, spec, config_index,
                                     clean_baselines, tmp_path,
                                     monkeypatch):
        kind, params, shape = CONFIGS[config_index]
        monkeypatch.setenv("REPRO_FAULTS", spec)
        monkeypatch.setenv("REPRO_FAULTS_SEED", "11")
        faults.reset_faults()
        with pytest.warns(RuntimeWarning) \
                if spec == "native.compile:fail" else _nullcontext():
            results = _run_config(kind, params, shape, str(tmp_path))
        assert results == clean_baselines[config_index]
        # Probability 1.0: the fault must actually have fired.
        site = spec.split(":")[0]
        assert faults.FAULT_COUNTERS.get(site, 0) > 0


def _nullcontext():
    import contextlib
    return contextlib.nullcontext()


# -- the ladder's bookkeeping under faults ----------------------------------

class TestDegradationCounters:
    def _compile_and_run(self, store_dir=None, shape=(16, 16, 16)):
        hw, info = make_matmul_system(3, 8, flow="Ns")
        cache = KernelCache(disk_dir=store_dir)
        kernel = AXI4MLIRCompiler(info, kernel_cache=cache) \
            .compile_matmul(*shape)
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        rng = np.random.default_rng(5)
        m, n, k = shape
        a = rng.integers(-5, 5, (m, k)).astype(np.int32)
        b = rng.integers(-5, 5, (k, n)).astype(np.int32)
        c = np.zeros((m, n), np.int32)
        kernel.run(board, a, b, c)
        return cache

    def test_synth_fault_falls_back_to_the_per_tile_driver(
            self, monkeypatch):
        """The fallback is the per-tile driver: the kernel is left
        without a trace, and nothing is recorded in its place."""
        monkeypatch.setenv("REPRO_FAULTS", "synth:fail")
        before = dict(TRACE_COUNTERS)
        cache = self._compile_and_run()
        assert TRACE_COUNTERS["synth_fallback"] \
            == before["synth_fallback"] + 1
        assert TRACE_COUNTERS["recorded"] == before["recorded"]
        (kernel,) = cache._entries.values()
        assert kernel.trace_state.failed
        assert kernel.trace_state.trace is None

    def test_native_fault_runs_every_kernel_per_tile(self, tmp_path,
                                                     monkeypatch):
        """Replay runs on the C kernels: without the library it is not
        offered, so a kernel is neither synthesized nor published and
        runs on the per-tile driver."""
        from repro.execution import trace_enabled

        monkeypatch.setenv("REPRO_FAULTS", "native.compile:fail")
        faults.reset_faults()
        with pytest.warns(RuntimeWarning, match="every kernel runs per tile"):
            assert not trace_enabled()
        before = dict(TRACE_COUNTERS)
        cache = self._compile_and_run(store_dir=str(tmp_path))
        assert dict(TRACE_COUNTERS) == before
        (kernel,) = cache._entries.values()
        assert kernel.trace_state.trace is None
        assert not kernel.trace_state.failed
        assert not list(tmp_path.rglob("*.entry"))

    def test_metrics_fault_counts_as_fallback(self, monkeypatch):
        """``metrics.plan:fail`` is a cache bypass: the replay runs the
        build a miss runs, but looks nothing up and keeps nothing."""
        from repro.execution import STAGE_TIMINGS

        monkeypatch.setenv("REPRO_FAULTS", "metrics.plan:fail")
        before = dict(METRICS_PLAN_COUNTERS)
        built_s = STAGE_TIMINGS["metrics_plan_build_s"]
        cache = self._compile_and_run()
        assert METRICS_PLAN_COUNTERS["metrics_plan_fallback"] \
            == before["metrics_plan_fallback"] + 1
        assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] \
            == before["metrics_plan_misses"]
        assert METRICS_PLAN_COUNTERS["metrics_plan_hits"] \
            == before["metrics_plan_hits"]
        assert STAGE_TIMINGS["metrics_plan_build_s"] > built_s
        (kernel,) = cache._entries.values()
        assert not kernel.trace_state.trace.metrics_plans

    def test_store_read_io_counts_io_not_miss(self, tmp_path,
                                              monkeypatch):
        store = str(tmp_path / "s")
        self._compile_and_run(store_dir=store)  # publish cleanly
        monkeypatch.setenv("REPRO_FAULTS", "store.read:io")
        cache = self._compile_and_run(store_dir=store)
        assert STORE_COUNTERS["store_io_errors"] > 0
        assert cache.disk_hits == 0 and cache.disk_corrupt == 0

    def test_store_corrupt_fault_quarantines_then_recovers(
            self, tmp_path, monkeypatch):
        store = tmp_path / "s"
        self._compile_and_run(store_dir=str(store))
        monkeypatch.setenv("REPRO_FAULTS", "store.read:corrupt")
        cache = self._compile_and_run(store_dir=str(store))
        assert cache.disk_corrupt == 1
        assert list((store / "corrupt").iterdir())
        # Fault lifted: the republished entry loads again.
        monkeypatch.delenv("REPRO_FAULTS")
        recovered = self._compile_and_run(store_dir=str(store))
        assert recovered.disk_hits == 1

    def test_store_write_fault_leaves_no_partial_entry(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store.write:io")
        store = tmp_path / "s"
        self._compile_and_run(store_dir=str(store))
        assert STORE_COUNTERS["store_write_failures"] > 0
        files = [p for p in store.rglob("*") if p.is_file()]
        assert files == []  # nothing published, nothing leaked

    def test_a_failing_store_costs_each_kernel_one_read_and_one_write(
            self, tmp_path, monkeypatch):
        """The per-call bound: with every store read and write failing,
        a kernel pays one failed read (then it lives in the cache's
        memory) and one failed publish per artifact set (its plans count
        as stored), whatever the number of runs."""
        monkeypatch.setenv("REPRO_FAULTS", "store.read:io;store.write:io")
        cache = KernelCache(disk_dir=str(tmp_path / "s"))
        rng = np.random.default_rng(5)
        a = rng.integers(-5, 5, (16, 16)).astype(np.int32)
        b = rng.integers(-5, 5, (16, 16)).astype(np.int32)
        seen = []
        for _ in range(5):
            hw, info = make_matmul_system(3, 8, flow="Ns")
            board = make_pynq_z2()
            board.attach_accelerator(hw)
            kernel = AXI4MLIRCompiler(info, kernel_cache=cache) \
                .compile_matmul(16, 16, 16)
            c = np.zeros((16, 16), np.int32)
            seen.append((kernel.run(board, a, b, c).as_dict(), c.tobytes()))
        assert seen == [seen[0]] * 5
        assert STORE_COUNTERS["store_io_errors"] == 1
        assert STORE_COUNTERS["store_write_failures"] == 1
        # A warm board needs a MetricsPlan the kernel lacks: one more
        # publish is attempted, and fails.
        kernel.run(board, a, b, np.zeros((16, 16), np.int32))
        assert STORE_COUNTERS["store_io_errors"] == 1
        assert STORE_COUNTERS["store_write_failures"] == 2
        assert not list(tmp_path.rglob("*.entry"))


class TestNativeFaultMemo:
    def test_one_shot_warning_and_no_retry(self, monkeypatch):
        from repro.soc import _native

        monkeypatch.setenv("REPRO_FAULTS", "native.compile:fail")
        faults.reset_faults()
        with pytest.warns(RuntimeWarning, match="fault-injected"):
            assert _native.native_lib() is None
        fired = faults.FAULT_COUNTERS["native.compile"]
        # Memoized: later calls neither warn nor re-probe the fault.
        import warnings as warnings_mod
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert _native.native_lib() is None
        assert faults.FAULT_COUNTERS["native.compile"] == fired
        assert _native.native_status() == {
            "available": False, "status": "fault-injected",
        }


class TestDiagnostics:
    def test_diagnostics_has_robustness_sections(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "synth:fail")
        faults.fires("synth")
        report = diagnostics()
        assert set(report) >= {"stage_timings", "trace_sources",
                               "metrics_plan", "store", "faults",
                               "native"}
        assert report["faults"].get("synth", 0) >= 1
        assert set(report["store"]) == set(STORE_COUNTERS)
        assert "status" in report["native"]


class TestForkSafety:
    def test_child_gets_fresh_fault_lock(self, monkeypatch):
        """A child forked while another thread holds ``faults._lock``
        (exactly what a service worker-restart fork can hit) must get a
        fresh lock instead of deadlocking on its first ``fires()``."""
        import multiprocessing
        import threading

        monkeypatch.setenv("REPRO_FAULTS", "synth:fail@0.5")
        faults.reset_faults()
        faults.fires("synth")  # warm the memo so _lock is exercised

        release = threading.Event()

        def holder():
            with faults._lock:
                release.wait(timeout=30)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        while not faults._lock.locked():
            pass

        def child(queue):
            # Would hang forever on an inherited held lock.
            queue.put(faults.fires("synth") in (None, "fail"))

        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        process = context.Process(target=child, args=(queue,))
        process.start()
        ok = queue.get(timeout=30)
        process.join(timeout=30)
        release.set()
        thread.join(timeout=5)
        assert ok
        assert process.exitcode == 0
