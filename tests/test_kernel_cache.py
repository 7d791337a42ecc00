"""Tests for the compiled-kernel cache (flow-exploration sweeps)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.accelerators import make_matmul_system
from repro.accelerators.catalog import VERSION_FLOWS
from repro.compiler import (
    AXI4MLIRCompiler,
    KernelCache,
    accelerator_fingerprint,
    default_kernel_cache,
)
from repro.soc import make_pynq_z2


@pytest.fixture
def cache():
    return KernelCache()


def make_compiler(cache, version=3, size=8, flow="Ns", **kwargs):
    _, info = make_matmul_system(version, size, flow=flow)
    return AXI4MLIRCompiler(info, kernel_cache=cache, **kwargs)


class TestKernelCache:
    def test_second_compile_hits(self, cache):
        kernel_a = make_compiler(cache).compile_matmul(32, 32, 32)
        kernel_b = make_compiler(cache).compile_matmul(32, 32, 32)
        stats = cache.stats()
        trace_stats = stats.pop("trace")
        assert stats == {"hits": 1, "misses": 1, "entries": 1}
        assert set(trace_stats) == {"synthesized", "recorded",
                                    "synth_fallback", "disk_loaded",
                                    "manual_recorded", "manual_fallback",
                                    "metrics_plan_hits",
                                    "metrics_plan_misses",
                                    "metrics_plan_fallback",
                                    "plan_incremental_hits",
                                    "component_memo_hits",
                                    "component_memo_misses"}
        assert kernel_a.entry_point is kernel_b.entry_point
        assert kernel_a.source == kernel_b.source

    def test_specialized_copies_share_lowering(self, cache):
        fast = make_compiler(cache, specialized_copies=True) \
            .compile_matmul(32, 32, 32)
        slow = make_compiler(cache, specialized_copies=False) \
            .compile_matmul(32, 32, 32)
        assert cache.misses == 1 and cache.hits == 1
        assert fast.entry_point is slow.entry_point
        assert fast.specialized_copies and not slow.specialized_copies

    def test_distinct_configs_do_not_collide(self, cache):
        make_compiler(cache, flow="Ns").compile_matmul(32, 32, 32)
        make_compiler(cache, flow="Cs").compile_matmul(32, 32, 32)
        make_compiler(cache, flow="Ns").compile_matmul(64, 32, 32)
        make_compiler(cache, size=16, flow="Ns").compile_matmul(32, 32, 32)
        assert cache.misses == 4 and cache.hits == 0

    def test_flow_sweep_compiles_each_config_once(self, cache):
        """The fig11 acceptance criterion: one lowering per (flow, shape)."""
        configs = [
            (dims, size, version, flow)
            for dims in (32, 64)
            for size in (8, 16)
            for version in (2, 3)
            for flow in VERSION_FLOWS[version]
        ]
        for specialized in (False, True):  # fig11 then fig12/13 settings
            for dims, size, version, flow in configs:
                _, info = make_matmul_system(version, size, flow=flow)
                compiler = AXI4MLIRCompiler(
                    info, specialized_copies=specialized, kernel_cache=cache
                )
                compiler.compile_matmul(dims, dims, dims)
        assert cache.misses == len(configs)
        assert cache.hits == len(configs)

    def test_cached_kernel_runs_correctly(self, cache):
        hw, info = make_matmul_system(3, 8, flow="Cs")
        AXI4MLIRCompiler(info, kernel_cache=cache).compile_matmul(32, 32, 32)
        kernel = AXI4MLIRCompiler(info, kernel_cache=cache) \
            .compile_matmul(32, 32, 32)
        assert cache.hits == 1
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        rng = np.random.default_rng(5)
        a = rng.integers(-5, 5, (32, 32)).astype(np.int32)
        b = rng.integers(-5, 5, (32, 32)).astype(np.int32)
        c = np.zeros((32, 32), np.int32)
        counters = kernel.run(board, a, b, c)
        assert np.array_equal(c, a.astype(np.int64) @ b.astype(np.int64))
        assert counters.task_clock_ms() > 0

    def test_cache_counters_match_uncached(self):
        """A cache hit must not change measured results."""

        def measure(**compiler_kwargs):
            hw, info = make_matmul_system(3, 8, flow="As")
            board = make_pynq_z2()
            board.attach_accelerator(hw)
            kernel = AXI4MLIRCompiler(info, **compiler_kwargs) \
                .compile_matmul(32, 32, 32)
            rng = np.random.default_rng(9)
            a = rng.integers(-5, 5, (32, 32)).astype(np.int32)
            b = rng.integers(-5, 5, (32, 32)).astype(np.int32)
            c = np.zeros((32, 32), np.int32)
            return kernel.run(board, a, b, c).as_dict()

        cache = KernelCache()
        first = measure(kernel_cache=cache)
        cached = measure(kernel_cache=cache)
        uncached = measure(use_kernel_cache=False)
        assert cache.hits == 1
        assert first == cached == uncached

    def test_eviction_respects_maxsize(self):
        cache = KernelCache(maxsize=2)
        for dims in (16, 32, 48):
            make_compiler(cache).compile_matmul(dims, dims, dims)
        assert len(cache) == 2
        make_compiler(cache).compile_matmul(16, 16, 16)  # evicted → miss
        assert cache.misses == 4

    def test_opt_out_bypasses_global_cache(self):
        _, info = make_matmul_system(3, 8, flow="Ns")
        compiler = AXI4MLIRCompiler(info, use_kernel_cache=False)
        assert compiler.kernel_cache is None

    def test_default_is_process_global(self):
        _, info = make_matmul_system(3, 8, flow="Ns")
        compiler = AXI4MLIRCompiler(info)
        assert compiler.kernel_cache is default_kernel_cache()

    def test_fingerprint_distinguishes_flows(self):
        _, ns = make_matmul_system(3, 8, flow="Ns")
        _, cs = make_matmul_system(3, 8, flow="Cs")
        assert accelerator_fingerprint(ns) != accelerator_fingerprint(cs)
        _, ns2 = make_matmul_system(3, 8, flow="Ns")
        assert accelerator_fingerprint(ns) == accelerator_fingerprint(ns2)


@pytest.mark.ambient_faults_incompatible
class TestDiskKernelStore:
    """The on-disk store (REPRO_KERNEL_CACHE_DIR / .repro_cache)."""

    @staticmethod
    def entry_files(store) -> list:
        import pathlib
        return sorted(pathlib.Path(store, "objects").glob("*/*.entry"))

    def test_load_or_build_across_cache_instances(self, tmp_path):
        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        built = make_compiler(writer).compile_matmul(32, 32, 32)
        assert writer.disk_hits == 0 and writer.disk_misses == 1
        assert self.entry_files(store) == []  # lowering alone: no entry
        self._run(built)  # the first replay publishes it

        reader = KernelCache(disk_dir=store)  # fresh memory cache
        loaded = make_compiler(reader).compile_matmul(32, 32, 32)
        assert reader.disk_hits == 1
        assert loaded.source == built.source
        assert loaded.func_name == built.func_name
        assert loaded.parameters == built.parameters
        assert loaded.schedule_table == built.schedule_table
        assert loaded.plan is not None

    def test_env_var_enables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR",
                           str(tmp_path / "env_cache"))
        writer = KernelCache()
        self._run(make_compiler(writer).compile_matmul(16, 16, 16), size=16)
        reader = KernelCache()
        make_compiler(reader).compile_matmul(16, 16, 16)
        assert reader.disk_hits == 1
        stats = reader.stats()
        assert stats["disk_hits"] == 1
        assert stats["disk_dir"].endswith("env_cache")

    def test_stats_stay_minimal_without_store(self, cache):
        make_compiler(cache).compile_matmul(16, 16, 16)
        assert set(cache.stats()) == {"hits", "misses", "entries", "trace"}

    def test_loaded_kernel_runs_identically(self, tmp_path):
        store = str(tmp_path / "repro_cache")

        def measure(kernel_cache):
            hw, info = make_matmul_system(3, 8, flow="Cs")
            board = make_pynq_z2()
            board.attach_accelerator(hw)
            kernel = AXI4MLIRCompiler(info, kernel_cache=kernel_cache) \
                .compile_matmul(32, 32, 32)
            rng = np.random.default_rng(21)
            a = rng.integers(-5, 5, (32, 32)).astype(np.int32)
            b = rng.integers(-5, 5, (32, 32)).astype(np.int32)
            c = np.zeros((32, 32), np.int32)
            counters = kernel.run(board, a, b, c)
            return counters.as_dict(), c.tobytes()

        fresh = measure(KernelCache(disk_dir=store))
        from_disk_cache = KernelCache(disk_dir=store)
        loaded = measure(from_disk_cache)
        assert from_disk_cache.disk_hits == 1
        assert fresh == loaded

    def test_store_version_bump_invalidates_entries(self, tmp_path,
                                                    monkeypatch):
        import repro.compiler as compiler_mod

        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        self._run(make_compiler(writer).compile_matmul(16, 16, 16), size=16)
        assert len(self.entry_files(store)) == 1
        monkeypatch.setattr(compiler_mod, "KERNEL_STORE_VERSION",
                            compiler_mod.KERNEL_STORE_VERSION + 1)
        reader = KernelCache(disk_dir=store)
        make_compiler(reader).compile_matmul(16, 16, 16)
        assert reader.disk_hits == 0  # old-format entry never loads

    def _run(self, kernel, seed=33, size=32, trace=None):
        hw, _ = make_matmul_system(3, 8, flow="Ns")
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        rng = np.random.default_rng(seed)
        a = rng.integers(-5, 5, (size, size)).astype(np.int32)
        b = rng.integers(-5, 5, (size, size)).astype(np.int32)
        c = np.zeros((size, size), np.int32)
        counters = kernel.run(board, a, b, c, trace=trace)
        return counters.as_dict(), c.tobytes()

    @pytest.mark.ambient_faults_incompatible
    def test_kernel_that_never_replays_is_never_written(self, tmp_path):
        """Entries persist traced kernels: lowering alone (or a
        per-tile run) publishes nothing, and the next process lowers
        the kernel again instead of loading it."""
        from repro.store import STORE_COUNTERS

        store = str(tmp_path / "repro_cache")
        writes = STORE_COUNTERS["store_writes"]
        first = KernelCache(disk_dir=store)
        kernel = make_compiler(first).compile_matmul(32, 32, 32)
        self._run(kernel, trace=False)
        assert STORE_COUNTERS["store_writes"] == writes
        assert self.entry_files(store) == []
        second = KernelCache(disk_dir=store)
        again = make_compiler(second).compile_matmul(32, 32, 32)
        assert (second.disk_misses, second.disk_hits, second.misses) \
            == (1, 0, 1)
        assert again.source == kernel.source

    def test_trace_round_trip(self, tmp_path):
        """Warm processes skip recording *and* synthesis entirely."""
        from repro.execution import TRACE_COUNTERS

        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        kernel = make_compiler(writer).compile_matmul(32, 32, 32)
        fresh = self._run(kernel)   # first run persists the trace

        before = dict(TRACE_COUNTERS)
        reader = KernelCache(disk_dir=store)
        loaded = make_compiler(reader).compile_matmul(32, 32, 32)
        assert reader.disk_hits == 1
        assert TRACE_COUNTERS["disk_loaded"] == before["disk_loaded"] + 1
        trace = loaded.trace_state.trace
        assert trace is not None
        assert trace.num_events == kernel.trace_state.trace.num_events
        # The decoded replay plan rides along with the trace.
        assert trace.decoded
        warmed = self._run(loaded)
        assert warmed == fresh
        assert TRACE_COUNTERS["synthesized"] == before["synthesized"]
        assert TRACE_COUNTERS["recorded"] == before["recorded"]

    def test_metrics_plan_round_trip(self, tmp_path):
        """Warm processes apply the persisted MetricsPlan in O(state)."""
        from repro.execution import METRICS_PLAN_COUNTERS

        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        kernel = make_compiler(writer).compile_matmul(32, 32, 32)
        fresh = self._run(kernel)   # first run persists trace + plan
        assert kernel.trace_state.trace.metrics_plans

        reader = KernelCache(disk_dir=store)
        loaded = make_compiler(reader).compile_matmul(32, 32, 32)
        assert reader.disk_hits == 1
        trace = loaded.trace_state.trace
        assert trace is not None and trace.metrics_plans
        before = dict(METRICS_PLAN_COUNTERS)
        warmed = self._run(loaded)
        assert warmed == fresh
        # The fresh board fingerprints identically, so the loaded plan
        # is applied — no rebuild.
        assert METRICS_PLAN_COUNTERS["metrics_plan_hits"] \
            == before["metrics_plan_hits"] + 1
        assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] \
            == before["metrics_plan_misses"]

    def test_component_digest_round_trips_with_trace(self, tmp_path):
        """A metrics-built trace persists its component-memo digest.

        The digest is a plain hex string precisely so the store codec
        can carry it: warm processes then key the cross-entry component
        memo without re-hashing the trace's structural arrays.  A
        non-string digest would make the whole post-replay payload
        unencodable and silently demote plans to memory-only.
        """
        from repro.execution.metrics import _trace_component_digest

        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        kernel = make_compiler(writer).compile_matmul(32, 32, 32)
        self._run(kernel)   # builds the plan -> computes the digest
        fresh = kernel.trace_state.trace
        digest = getattr(fresh, "component_digest", None)
        assert isinstance(digest, str) and digest

        reader = KernelCache(disk_dir=store)
        loaded = make_compiler(reader).compile_matmul(32, 32, 32)
        trace = loaded.trace_state.trace
        assert trace.metrics_plans  # the persist hook must not degrade
        assert getattr(trace, "component_digest", None) == digest
        # _trace_component_digest must serve the persisted value as-is.
        assert _trace_component_digest(trace) == digest

    def test_corrupt_entry_is_quarantined_and_rebuilt(self, tmp_path):
        """Corruption is counted apart from misses, the file moves to
        corrupt/, and the rebuild republishes a loadable entry."""
        store = tmp_path / "repro_cache"
        writer = KernelCache(disk_dir=str(store))
        self._run(make_compiler(writer).compile_matmul(16, 16, 16), size=16)
        entries = self.entry_files(store)
        assert len(entries) == 1
        entries[0].write_bytes(b"not a kernel store entry")

        reader = KernelCache(disk_dir=str(store))
        kernel = make_compiler(reader).compile_matmul(16, 16, 16)
        assert kernel.source  # rebuilt from scratch
        assert reader.disk_corrupt == 1
        assert reader.disk_hits == 0 and reader.disk_misses == 0
        quarantined = list((store / "corrupt").iterdir())
        assert len(quarantined) == 1  # evidence kept, never re-read

        # The rebuilt kernel's first replay republishes: a third
        # process loads cleanly.
        self._run(kernel, size=16)
        third = KernelCache(disk_dir=str(store))
        make_compiler(third).compile_matmul(16, 16, 16)
        assert third.disk_hits == 1
        assert third.disk_corrupt == 0

    def test_truncated_entry_is_corrupt_not_miss(self, tmp_path):
        """A writer killed mid-crash leaves either no entry (tmp files
        are invisible) or, with a torn tool, a short file — which must
        fail the checksum, not load garbage."""
        store = tmp_path / "repro_cache"
        writer = KernelCache(disk_dir=str(store))
        self._run(make_compiler(writer).compile_matmul(16, 16, 16), size=16)
        entry = self.entry_files(store)[0]
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) // 2])
        reader = KernelCache(disk_dir=str(store))
        make_compiler(reader).compile_matmul(16, 16, 16)
        assert reader.disk_corrupt == 1 and reader.disk_misses == 0

    def test_legacy_pickle_entries_are_ignored(self, tmp_path):
        """Version-skew: store-v2 flat ``kernel-*.pkl`` files alongside
        new entries are never consulted (and never crash the loader)."""
        store = tmp_path / "repro_cache"
        store.mkdir()
        (store / "kernel-deadbeef0000-abc.pkl").write_bytes(b"\x80\x04old")
        cache = KernelCache(disk_dir=str(store))
        kernel = make_compiler(cache).compile_matmul(16, 16, 16)
        assert cache.disk_misses == 1 and cache.disk_corrupt == 0
        self._run(kernel, size=16)
        reader = KernelCache(disk_dir=str(store))
        make_compiler(reader).compile_matmul(16, 16, 16)
        assert reader.disk_hits == 1
        assert (store / "kernel-deadbeef0000-abc.pkl").exists()

    def test_publish_leaves_no_tmp_litter(self, tmp_path):
        store = tmp_path / "repro_cache"
        cache = KernelCache(disk_dir=str(store))
        kernel = make_compiler(cache).compile_matmul(32, 32, 32)
        self._run(kernel)  # persist hook publishes the entry
        leftovers = [p for p in store.rglob("*") if ".tmp-" in p.name]
        assert leftovers == []

    def test_ir_is_printed_once_per_kernel(self, tmp_path, monkeypatch):
        """Every publish of a kernel shares one IR text, and a kernel
        loaded from disk keeps the text it was parsed from."""
        import repro.compiler as compiler_mod

        calls = []
        real = compiler_mod.print_module
        monkeypatch.setattr(compiler_mod, "print_module",
                            lambda module: calls.append(1) or real(module))
        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        kernel = make_compiler(writer).compile_matmul(32, 32, 32)
        self._run(kernel)           # the one publish
        assert calls == [1]
        loaded = make_compiler(KernelCache(disk_dir=store)) \
            .compile_matmul(32, 32, 32)
        slow = make_compiler(KernelCache(disk_dir=store),
                             specialized_copies=False) \
            .compile_matmul(32, 32, 32)
        self._run(slow)             # new plan key: republished
        assert calls == [1]
        assert loaded._ir_text == kernel._ir_text
        # The cached text is not part of the kernel's identity.
        assert replace(kernel, _ir_text=None) == kernel
        assert "_ir_text" not in repr(kernel)


class TestPublicationRule:
    """Entries are published after a replay, from two places only."""

    @staticmethod
    def call_sites(pattern):
        import pathlib
        import re

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        return sorted(
            (str(path.relative_to(src)), line.strip())
            for path in src.rglob("*.py")
            for line in path.read_text().splitlines()
            if re.search(pattern, line) and not line.lstrip().startswith("def "))

    def test_publish_entry_has_two_call_sites(self):
        files = [path for path, _ in self.call_sites(r"\bpublish_entry\(")]
        assert files == ["repro/baselines/manual.py", "repro/compiler.py"]

    def test_persist_hook_is_the_only_disk_store_caller(self):
        (site,) = self.call_sites(r"\b_disk_store\(")
        assert site[0] == "repro/compiler.py" and "lambda" in site[1]


class TestManualTraceEntries:
    """The cpp_MANUAL baselines' traces persist like kernel traces."""

    @pytest.fixture(autouse=True)
    def _store(self, tmp_path, monkeypatch):
        self.store = tmp_path / "repro_cache"
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(self.store))
        self.fresh_process(monkeypatch)

    @staticmethod
    def fresh_process(monkeypatch):
        import repro.baselines.manual as manual_mod
        from repro.execution.metrics import reset_component_memo

        monkeypatch.setattr(manual_mod, "_MANUAL_TRACES", {})
        # monkeypatch keeps the old table (and its traces) alive: a new
        # process would not find their plans in memory either.
        reset_component_memo()

    @staticmethod
    def run():
        from repro.baselines import manual_matmul_driver

        hw, _ = make_matmul_system(3, 8, flow="Cs")
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        rng = np.random.default_rng(3)
        a = rng.integers(-5, 5, (32, 32)).astype(np.int32)
        b = rng.integers(-5, 5, (32, 32)).astype(np.int32)
        c = np.zeros((32, 32), np.int32)
        counters = manual_matmul_driver(board, a, b, c, 3, 8, "Cs")
        return counters.as_dict(), c.tobytes()

    @staticmethod
    def counts():
        from repro.execution import METRICS_PLAN_COUNTERS, TRACE_COUNTERS
        from repro.store import STORE_COUNTERS

        return (TRACE_COUNTERS["manual_recorded"],
                METRICS_PLAN_COUNTERS["metrics_plan_misses"],
                STORE_COUNTERS["store_writes"])

    def entries(self):
        return sorted(p.name for p in self.store.glob("objects/*/*.entry"))

    @pytest.mark.ambient_faults_incompatible
    def test_second_process_records_builds_and_writes_nothing(
            self, monkeypatch):
        start = self.counts()
        fresh = self.run()
        assert self.counts() == tuple(n + 1 for n in start)
        (name,) = self.entries()
        assert name.startswith("manual-")
        assert self.run() == fresh          # same process: memo hit
        self.fresh_process(monkeypatch)
        assert self.run() == fresh          # "new process": disk hit
        assert self.counts() == tuple(n + 1 for n in start)

    @pytest.mark.ambient_faults_incompatible
    def test_foreign_store_version_is_quarantined_and_rerecorded(
            self, monkeypatch):
        """The one payload check: a checksum-valid payload of another
        KERNEL_STORE_VERSION under a current name never loads."""
        from repro.compiler import KERNEL_STORE_VERSION
        from repro.store import KernelStore

        fresh = self.run()
        (name,) = self.entries()
        assert KernelStore(self.store).store(
            name[:-len(".entry")],
            {"store_version": KERNEL_STORE_VERSION - 1, "trace": None})
        self.fresh_process(monkeypatch)
        start = self.counts()
        assert self.run() == fresh
        # Re-recorded, rebuilt and republished under the same name...
        assert self.counts() == tuple(n + 1 for n in start)
        assert self.entries() == [name]
        assert len(list((self.store / "corrupt").iterdir())) == 1
        # ...so the process after that finds everything again.
        self.fresh_process(monkeypatch)
        assert self.run() == fresh
        assert self.counts() == tuple(n + 1 for n in start)

    @pytest.mark.ambient_faults_incompatible
    def test_entry_from_another_source_digest_is_ignored(self,
                                                         monkeypatch):
        import repro.compiler as compiler_mod

        fresh = self.run()
        monkeypatch.setattr(compiler_mod, "_SOURCE_TREE_DIGEST", "f" * 64)
        self.fresh_process(monkeypatch)
        from repro.execution import TRACE_COUNTERS
        recorded = TRACE_COUNTERS["manual_recorded"]
        assert self.run() == fresh
        assert TRACE_COUNTERS["manual_recorded"] == recorded + 1
        assert len(self.entries()) == 2     # the foreign entry untouched
        assert not (self.store / "corrupt").exists()
