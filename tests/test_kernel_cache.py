"""Tests for the compiled-kernel cache (flow-exploration sweeps)."""

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.accel_config import parse_accelerator
from repro.accelerators import make_conv_system, make_matmul_system
from repro.accelerators.catalog import VERSION_FLOWS, matmul_config_dict
from repro.compiler import (
    AXI4MLIRCompiler,
    KernelCache,
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
                                    "replay_refused",
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
        assert ns.fingerprint != cs.fingerprint
        _, ns2 = make_matmul_system(3, 8, flow="Ns")
        assert ns.fingerprint == ns2.fingerprint


def _twin_requests():
    """(id, info, kernel name, shape) over the sweep smoke space, the
    Fig. 14 problems, 64/128/256 cubes on v1-v4, and the scaled ResNet18
    conv layers: every request a figure, the sweep or the service
    compiles with CPU tiling both on and off."""
    from repro.experiments.figures import (
        FIG14_CAPACITY,
        FIG14_QUANTUM,
        fig14_problems,
        fig16_layers,
    )
    from repro.heuristics import best_configuration, square_tile_configuration
    from repro.tuning import smoke_space

    matmuls = {(p.m, p.n, p.k, p.version, p.size, p.flow, p.accel_size)
               for p in smoke_space().points()}
    for m, n, k in fig14_problems():
        choices = [square_tile_configuration(m, n, k, flow, FIG14_QUANTUM,
                                             FIG14_CAPACITY)
                   for flow in ("As", "Bs", "Cs")]
        choices.append(best_configuration(m, n, k, FIG14_QUANTUM,
                                          FIG14_CAPACITY))
        matmuls |= {(m, n, k, 4, FIG14_QUANTUM, c.flow, tuple(c.tiles))
                    for c in choices}
    matmuls |= {(d, d, d, version, size, flow, None)
                for d in (64, 128, 256) for size in (4, 16)
                for version in (1, 2, 3, 4)
                for flow in VERSION_FLOWS[version]}
    for m, n, k, version, size, flow, tiles in sorted(
            matmuls, key=lambda spec: spec[:6] + (spec[6] or (),)):
        _, info = make_matmul_system(version, size, flow=flow,
                                     accel_size=tiles)
        yield (f"v{version}-{size}-{flow}-{m}x{n}x{k}-{tiles}", info,
               "matmul", (m, n, k))
    for layer in fig16_layers():
        _, info = make_conv_system(layer.in_ch, layer.f_hw,
                                   max_slice=layer.out_hw ** 2)
        yield (f"conv-{layer}", info, "conv",
               (layer.batch, layer.in_ch, layer.in_hw, layer.out_ch,
                layer.f_hw, layer.stride))


def _manual_requests():
    """(id, ``build(cache)``) for every ``cpp_MANUAL`` kernel the figure
    suite runs: the matmul drivers of figs. 11-13 and the scaled ResNet18
    conv layers of fig. 16."""
    from repro.baselines.manual import manual_conv_kernel, manual_matmul_kernel
    from repro.experiments.figures import fig16_layers

    for dims in (64, 128):
        for size in (8, 16):
            for version in (2, 3):
                for flow in VERSION_FLOWS[version]:
                    yield (f"manual-v{version}-{size}-{flow}-{dims}",
                           lambda cache, d=dims, v=version, s=size, f=flow:
                           manual_matmul_kernel(((d, d),) * 3, v, s, f,
                                                cache=cache))
    for layer in fig16_layers():
        shapes = (layer.input_shape(), layer.filter_shape(),
                  layer.output_shape())
        yield (f"manual-conv-{layer}",
               lambda cache, shapes=shapes, stride=layer.stride:
               manual_conv_kernel(shapes, stride, cache=cache))


def _same_lowering(first, second) -> bool:
    """Whether two kernels print the same IR and emit the same driver."""
    from repro.ir.printer import print_module

    return print_module(first.module) == print_module(second.module) \
        and first.source == second.source \
        and first.schedule_table == second.schedule_table


class TestCpuTilingTwins:
    """A ``cpu_tiling`` request is keyed on whether tiling changes its
    lowering: twins whose tiling is a no-op share one kernel."""

    def test_shared_key_iff_equal_lowering(self):
        """Also the precondition of a store entry holding no IR: a key's
        lowering is deterministic, so the kernel a loaded entry rebuilds
        through its compile is the one that was published."""
        from repro.compiler import build_conv_module, build_matmul_module
        from repro.ir.printer import print_module

        shared = kept = 0
        for name, info, kind, shape in _twin_requests():
            cache = KernelCache()
            twins = []
            for tiling in (False, True):
                compiler = AXI4MLIRCompiler(info, kernel_cache=cache,
                                            enable_cpu_tiling=tiling)
                twins.append(getattr(compiler, f"compile_{kind}")(*shape))
                again = getattr(AXI4MLIRCompiler(
                    info, use_kernel_cache=False, enable_cpu_tiling=tiling),
                    f"compile_{kind}")(*shape)
                assert _same_lowering(twins[-1], again), (name, tiling)
            # The lowering the request asks for, with no key in between.
            build = build_matmul_module if kind == "matmul" \
                else build_conv_module
            asked = AXI4MLIRCompiler(info, use_kernel_cache=False) \
                .compile_module(build(*shape, info.data_type))
            same = print_module(asked.module) \
                == print_module(twins[0].module) \
                and asked.plan == twins[0].plan
            assert (twins[1] is twins[0]) == same, name
            shared += same
            kept += not same
        assert shared >= 100 and kept >= 4
        manual = 0
        for name, build in _manual_requests():
            assert _same_lowering(build(KernelCache()),
                                  build(KernelCache())), name
            manual += 1
        assert manual == 39

    def test_tiled_request_keeps_its_own_kernel(self, cache):
        untiled = make_compiler(cache, size=16, enable_cpu_tiling=False) \
            .compile_matmul(256, 256, 256)
        tiled = make_compiler(cache, size=16).compile_matmul(256, 256, 256)
        assert tiled is not untiled and cache.misses == 2
        assert tiled.plan.cpu_tiles != untiled.plan.cpu_tiles
        assert untiled.plan.cpu_tiles == {"m": 256, "n": 256, "k": 256}


class TestCatalogMemo:
    """The catalog parses each distinct configuration once; its
    fingerprint (the compile-cache key) is computed once per object."""

    def test_equal_arguments_share_the_config_not_the_hardware(self):
        hw, info = make_matmul_system(4, 8, flow="Cs", accel_size=[16, 8, 8])
        hw2, info2 = make_matmul_system(4, 8, flow="Cs",
                                        accel_size=(16, 8, 8))
        assert info2 is info and hw2 is not hw
        conv, conv_info = make_conv_system(4, 3)
        conv2, conv_info2 = make_conv_system(4, 3, max_slice=64)
        assert conv_info2 is conv_info and conv2 is not conv
        assert conv2.max_slice == 64 != conv.max_slice

    def test_copies_fingerprint_their_own_fields(self):
        _, info = make_matmul_system(4, 8, flow="Ns")
        base = info.fingerprint
        for copy in (info.with_flow("Cs"), info.with_accel_size((16, 8, 8)),
                     replace(info, name="renamed")):
            assert copy.fingerprint != base
        assert info.fingerprint == base

    def test_a_fresh_parse_keys_the_same_kernels(self):
        _, info = make_matmul_system(3, 8, flow="As")
        parsed = parse_accelerator(matmul_config_dict(3, 8, "As"))
        assert parsed is not info
        assert parsed.fingerprint == info.fingerprint

    def test_a_pickled_config_keeps_its_fingerprint(self):
        _, info = make_conv_system(2, 3)
        fingerprint = info.fingerprint
        copy = pickle.loads(pickle.dumps(info))
        assert copy == info and copy.fingerprint == fingerprint


@pytest.mark.usefixtures("clean_faults")
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
        import repro.kernel_cache as kernel_cache_mod

        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        self._run(make_compiler(writer).compile_matmul(16, 16, 16), size=16)
        assert len(self.entry_files(store)) == 1
        monkeypatch.setattr(kernel_cache_mod, "KERNEL_STORE_VERSION",
                            kernel_cache_mod.KERNEL_STORE_VERSION + 1)
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

    @pytest.mark.usefixtures("clean_faults")
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
        # The C decoders' plans are not stored: replay re-derives them.
        assert trace.decoded == {}
        warmed = self._run(loaded)
        assert warmed == fresh
        assert trace.decoded
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
        """The plan registry's content digest is never persisted: the
        loaded trace's digest, recomputed from its columns, is the
        fresh trace's."""
        from repro.execution.metrics import _trace_component_digest

        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        kernel = make_compiler(writer).compile_matmul(32, 32, 32)
        self._run(kernel)   # builds the plan -> computes the digest
        digest = _trace_component_digest(kernel.trace_state.trace)

        reader = KernelCache(disk_dir=store)
        loaded = make_compiler(reader).compile_matmul(32, 32, 32)
        trace = loaded.trace_state.trace
        assert trace.metrics_plans  # the persist hook must not degrade
        assert not hasattr(trace, "_component_digest")
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

    @pytest.mark.usefixtures("clean_faults")
    def test_suspend_disk_store_scopes_the_calling_thread(self, tmp_path):
        """Inside ``suspend_disk_store`` a cache has no store and a
        traced run publishes nothing; scopes nest, and another thread
        still sees the store."""
        import threading

        from repro.kernel_cache import (disk_store_suspended,
                                        suspend_disk_store)

        store = tmp_path / "repro_cache"
        cache = KernelCache(disk_dir=str(store))
        outside = cache.resolve_store()
        assert outside is not None
        seen = []
        with suspend_disk_store():
            assert cache.resolve_store() is None and disk_store_suspended()
            with suspend_disk_store():
                assert cache.resolve_store() is None
            assert cache.resolve_store() is None and disk_store_suspended()
            thread = threading.Thread(
                target=lambda: seen.append(cache.resolve_store()))
            thread.start()
            thread.join()
            self._run(make_compiler(cache).compile_matmul(32, 32, 32))
            assert "disk_dir" not in cache.stats()
        assert seen == [outside]
        assert not disk_store_suspended() and cache.resolve_store() is outside
        assert self.entry_files(store) == []
        assert cache.disk_misses == 0

    def test_publish_leaves_no_tmp_litter(self, tmp_path):
        store = tmp_path / "repro_cache"
        cache = KernelCache(disk_dir=str(store))
        kernel = make_compiler(cache).compile_matmul(32, 32, 32)
        self._run(kernel)  # persist hook publishes the entry
        leftovers = [p for p in store.rglob("*") if ".tmp-" in p.name]
        assert leftovers == []

    def test_persist_hook_syncs_unless_the_caller_owns_the_commit(
            self, tmp_path, monkeypatch):
        """A library caller's entry is durable when ``run`` returns; one
        written under ``group_commit`` waits for the owner's sync."""
        from repro.store import STORE_COUNTERS, group_commit, sync_all

        fsynced = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: fsynced.append(
            os.readlink(f"/proc/self/fd/{fd}")) or real(fd))
        cache = KernelCache(disk_dir=str(tmp_path / "repro_cache"))
        syncs = STORE_COUNTERS["store_syncs"]
        self._run(make_compiler(cache).compile_matmul(32, 32, 32))
        [entry] = self.entry_files(tmp_path / "repro_cache")
        assert str(entry) in fsynced
        assert STORE_COUNTERS["store_syncs"] == syncs + 1
        fsynced.clear()
        with group_commit():
            self._run(make_compiler(cache).compile_matmul(16, 16, 16),
                      size=16)
        assert fsynced == []
        sync_all()
        assert {str(path) for path in self.entry_files(
            tmp_path / "repro_cache")} - {str(entry)} <= set(fsynced)
        assert STORE_COUNTERS["store_syncs"] == syncs + 2

    @pytest.mark.usefixtures("clean_faults")
    def test_a_publish_prints_nothing(self, tmp_path, monkeypatch):
        """An entry holds no IR: neither a first publish nor a loaded
        kernel's republish prints the module, or builds it."""
        from repro.ir import printer
        from repro.store import STORE_COUNTERS

        calls = []
        real = printer._print_op
        monkeypatch.setattr(printer, "_print_op",
                            lambda *args: calls.append(1) or real(*args))
        store = str(tmp_path / "repro_cache")
        writes = STORE_COUNTERS["store_writes"]
        self._run(make_compiler(KernelCache(disk_dir=store))
                  .compile_matmul(32, 32, 32))    # the first publish
        slow = make_compiler(KernelCache(disk_dir=store),
                             specialized_copies=False) \
            .compile_matmul(32, 32, 32)
        self._run(slow)             # new plan key: republished
        assert STORE_COUNTERS["store_writes"] == writes + 2
        assert calls == []
        assert slow.trace_state.module is None


class TestPublicationRule:
    """Entries are published after a replay, from one place only."""

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

    def test_the_store_is_written_from_one_place(self):
        (site,) = self.call_sites(r"\bstore\.store\(")
        assert site[0] == "repro/kernel_cache.py"

    def test_persist_hook_is_the_only_disk_store_caller(self):
        (site,) = self.call_sites(r"\b_disk_store\(")
        assert site[0] == "repro/kernel_cache.py" and "lambda" in site[1]


#: The eight kernels ``steady_replay`` keeps hot: (kind, shape, system).
HOT_KERNELS = (
    ("matmul", (64, 64, 64), (1, 8, "Ns", None)),
    ("matmul", (64, 64, 64), (2, 8, "As", None)),
    ("matmul", (64, 64, 64), (3, 16, "Ns", None)),
    ("matmul", (128, 128, 128), (3, 16, "Cs", None)),
    ("matmul", (128, 32, 256), (4, 16, "Bs", (32, 16, 32))),
    ("matmul", (64, 64, 64), (4, 16, "Cs", (16, 16, 16))),
    ("conv", (1, 256, 8, 16, 3, 1), None),
    ("conv", (1, 64, 13, 16, 3, 2), None),
)

#: fig12 at its smoke scale: both copy panels, so every kernel is also
#: served as a ``specialized_copies=False`` replace() variant.  Counts
#: every IR parse, every driver emission, every ``exec`` of driver
#: code (an audit hook sees each, whoever runs it) and every rebuild of
#: a disk-loaded kernel.
_FIG12_JOB = r"""
import json
import sys
from repro.codegen import PythonEmitter
from repro.compiler import KernelCache
from repro.ir.parser import Parser
counts = {"parses": 0, "emits": 0, "execs": 0, "rebuilds": 0}

def counting(name, real):
    def call(self):
        counts[name] += 1
        return real(self)
    return call

Parser.parse_module = counting("parses", Parser.parse_module)
PythonEmitter.emit = counting("emits", PythonEmitter.emit)

def audit(event, args):
    if event == "exec" and args[0].co_filename.startswith("<axi4mlir:"):
        counts["execs"] += 1

sys.addaudithook(audit)
load = KernelCache._disk_load

def rebuilt(compile_fn):
    counts["rebuilds"] += 1
    return compile_fn()

KernelCache._disk_load = lambda cache, store, name, compile_fn: load(
    cache, store, name, lambda: rebuilt(compile_fn))
from repro.compiler import default_kernel_cache
from repro.experiments.figures import fig12_rows
rows = fig12_rows(32, 8, 3)
print(json.dumps({"rows": rows, **counts,
                  "disk_hits": default_kernel_cache().disk_hits}))
"""


def _hot_kernel(cache, kind, shape, system, specialized=True):
    """(hardware, kernel, operands) for one HOT_KERNELS row."""
    from repro.accelerators import make_conv_system

    rng = np.random.default_rng(3)
    if kind == "matmul":
        m, n, k = shape
        version, size, flow, accel_size = system
        hw, info = make_matmul_system(version, size, flow=flow,
                                      accel_size=accel_size)
        kernel = AXI4MLIRCompiler(info, kernel_cache=cache,
                                  specialized_copies=specialized) \
            .compile_matmul(m, n, k)
        shapes = ((m, k), (k, n), (m, n))
    else:
        batch, in_ch, in_hw, out_ch, f_hw, stride = shape
        out_hw = (in_hw - f_hw) // stride + 1
        hw, info = make_conv_system(in_ch, f_hw, max_slice=out_hw ** 2)
        kernel = AXI4MLIRCompiler(info, kernel_cache=cache,
                                  specialized_copies=specialized) \
            .compile_conv(*shape)
        shapes = ((batch, in_ch, in_hw, in_hw), (out_ch, in_ch, f_hw, f_hw),
                  (batch, out_ch, out_hw, out_hw))
    operands = [rng.integers(-4, 4, s).astype(np.int32) for s in shapes[:2]]
    return hw, kernel, operands + [np.zeros(shapes[2], np.int32)]


def _observe(hw, kernel, operands, interpreted=False):
    """Counters, output bytes and board clock of one run on a new board."""
    board = make_pynq_z2()
    board.attach_accelerator(hw)
    operands = [array.copy() for array in operands]
    run = kernel.run_interpreted if interpreted else kernel.run
    counters = run(board, *operands)
    return counters.as_dict(), operands[-1].tobytes(), board.clock


@pytest.mark.usefixtures("clean_faults")
class TestDeferredParse:
    """A disk hit only decodes its entry, which holds no IR: the module
    and driver are rebuilt, once, by the ``compile_fn`` the kernel was
    looked up with when something reads ``kernel.module``, ``source`` or
    ``schedule_table``, and the driver is ``exec``'d when the per-tile
    rung runs it.  A replay does none of these, and nothing parses."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """Every IR parse in this process, whoever asks for it."""
        from repro.ir.parser import Parser

        calls = []
        real = Parser.parse_module
        monkeypatch.setattr(Parser, "parse_module",
                            lambda self: calls.append(1) or real(self))
        return calls

    @pytest.fixture
    def rebuilds(self, monkeypatch):
        """Every call of a disk-loaded kernel's ``compile_fn``."""
        calls = []
        load = KernelCache._disk_load

        def counted(cache, store, name, compile_fn):
            return load(cache, store, name,
                        lambda: calls.append(name) or compile_fn())
        monkeypatch.setattr(KernelCache, "_disk_load", counted)
        return calls

    @pytest.fixture
    def drivers(self, monkeypatch):
        """Every driver emission and ``exec`` in this process."""
        import repro.kernel as kernel_mod
        from repro.codegen import PythonEmitter

        calls = []
        emit = PythonEmitter.emit
        monkeypatch.setattr(PythonEmitter, "emit",
                            lambda self: calls.append("emit") or emit(self))
        build = kernel_mod.compile_host_function
        monkeypatch.setattr(
            kernel_mod, "compile_host_function",
            lambda *args: calls.append("exec") or build(*args))
        return calls

    @staticmethod
    def _published(store, size=32):
        """A kernel compiled, replayed (so published) and its result."""
        writer = KernelCache(disk_dir=store)
        kernel = make_compiler(writer).compile_matmul(size, size, size)
        hw, _ = make_matmul_system(3, 8, flow="Ns")
        operands = [np.ones((size, size), np.int32),
                    np.full((size, size), 2, np.int32),
                    np.zeros((size, size), np.int32)]
        return kernel, hw, operands, _observe(hw, kernel, operands)

    def test_disk_load_does_not_parse(self):
        import inspect

        source = inspect.getsource(KernelCache._disk_load)
        for call in ("parse_module(", "emit_function(", "exec(",
                     "compile_host_function(", "compile_fn("):
            assert call not in source

    def test_replay_of_hot_kernels_parses_nothing(self, tmp_path, parses,
                                                  drivers, rebuilds):
        store = str(tmp_path / "store")
        writer = KernelCache(disk_dir=store)
        built = [_hot_kernel(writer, *row, specialized)
                 for row in HOT_KERNELS for specialized in (True, False)]
        expected = [_observe(*case) for case in built]
        del parses[:], drivers[:]
        reader = KernelCache(disk_dir=store)
        loaded = [_hot_kernel(reader, *row, specialized)
                  for row in HOT_KERNELS for specialized in (True, False)]
        served = [_observe(*case) for case in loaded]
        assert reader.disk_hits == len(HOT_KERNELS)
        assert parses == [] and drivers == [] and rebuilds == []
        assert served == expected
        # The driver a loaded kernel rebuilds is the same driver, emitted
        # once per kernel and shared by its replace() variant.
        for (_, fresh, _), (_, stored, _) in zip(built, loaded):
            assert stored.source == fresh.source
            assert stored.schedule_table == fresh.schedule_table
        assert drivers == ["emit"] * len(HOT_KERNELS)
        assert len(rebuilds) == len(HOT_KERNELS) and parses == []

    def test_a_stored_kernel_payload_is_data(self, tmp_path):
        from repro.store import KernelStore

        store = tmp_path / "store"
        self._published(str(store))
        (path,) = TestDiskKernelStore.entry_files(store)
        status, payload = KernelStore(store).load(path.name[:-len(".entry")])
        assert status == "hit"
        assert set(payload) == {"func_name", "parameters", "plan",
                                "call_style", "host_dma_init", "trace",
                                "metrics_plans", "store_version"}
        assert (payload["call_style"], payload["host_dma_init"]) \
            == ("generated", None)

    def test_replay_of_a_figure_parses_nothing(self, tmp_path):
        import json
        import os
        import subprocess
        import sys

        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["REPRO_KERNEL_CACHE_DIR"] = str(tmp_path / "store")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        cold, warm = (json.loads(subprocess.run(
            [sys.executable, "-c", _FIG12_JOB], env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout)
            for _ in range(2))
        assert warm["disk_hits"] > 0
        assert (warm["parses"], warm["emits"], warm["execs"],
                warm["rebuilds"]) == (0, 0, 0, 0)
        assert warm["rows"] == cold["rows"]

    def test_module_is_parsed_on_first_read(self, tmp_path, parses,
                                            drivers, rebuilds):
        """The first read of a loaded kernel's module is one rebuild,
        whose module and driver the kernel adopts; nothing parses."""
        from repro.ir.printer import print_module

        store = str(tmp_path / "store")
        built, hw, operands, _ = self._published(store)
        loaded = make_compiler(KernelCache(disk_dir=store)) \
            .compile_matmul(32, 32, 32)
        del parses[:], drivers[:]
        assert loaded.trace_state.module is None and rebuilds == []
        assert print_module(loaded.module) == print_module(built.module)
        assert loaded.module is loaded.module
        assert loaded.source == built.source
        assert len(rebuilds) == 1 and drivers == ["emit"] and parses == []
        assert _observe(hw, loaded, operands, interpreted=True) \
            == _observe(hw, built, operands, interpreted=True)
        assert len(rebuilds) == 1

    def test_replace_variants_share_one_parse(self, tmp_path, parses,
                                              rebuilds):
        """``replace`` variants share one rebuild, whichever reads it."""
        store = str(tmp_path / "store")
        self._published(store)
        loaded = make_compiler(KernelCache(disk_dir=store)) \
            .compile_matmul(32, 32, 32)
        del parses[:]
        variant = replace(loaded, specialized_copies=False)
        assert rebuilds == []
        assert variant.module is loaded.module
        assert loaded.schedule_table is variant.schedule_table
        assert len(rebuilds) == 1 and parses == []
        assert not variant.specialized_copies and loaded.specialized_copies

    def test_compiled_kernel_keeps_the_module_it_was_given(self):
        from repro.compiler import build_matmul_module
        from repro.kernel import CompiledKernel
        from repro.ir import element_type_from_string

        module = build_matmul_module(4, 4, 4, element_type_from_string("i32"))
        kernel = CompiledKernel(module=module, func_name="matmul_call")
        assert kernel.module is module
        assert replace(kernel, specialized_copies=False).module is module


def _hostile_sym_name(ir, statement):
    """The IR with its function renamed to a string that ends the
    driver's ``def`` line and runs ``statement`` when the source is
    ``exec``'d.  The custom ``func.func @name`` form cannot spell such
    a name, so the function is rewritten in the generic form."""
    from repro.ir.attributes import StringAttr

    name = f"f():\n    pass\n{statement}\ndef matmul_call"
    lines = ir.split("\n")
    header = lines[1]
    args = header[header.index("(") + 1:header.rindex(")")]
    types = ", ".join(arg.split(": ", 1)[1] for arg in args.split(", "))
    lines[1] = (f'  "func.func"() {{sym_name = {StringAttr(name)}, '
                f'function_type = ({types}) -> ()}} ({{')
    lines.insert(2, f"  ^bb0({args}):")
    lines[-2] = "  })"
    return "\n".join(lines)


def _hostile_iv_name(ir, statement):
    """The IR with its outermost loop's ``iv_name`` turned into a
    subscription that evaluates ``statement`` wherever the driver binds
    or reads the loop variable (a valid target and a valid operand)."""
    from repro.ir.attributes import StringAttr

    hint = f"{{}}[{statement}]"
    head, attrs, tail = ir.rpartition('{iv_name = "m"}')
    assert attrs
    return f"{head}{{iv_name = {StringAttr(hint)}}}{tail}"


@pytest.mark.usefixtures("clean_faults")
class TestHostileEntries:
    """A store entry is data.  Anyone can compute its checksum, so an
    entry may carry any head and any trace; what is loaded is checked
    before it becomes a C index, and no stored name becomes code."""

    @classmethod
    def forge(cls, tmp_path, edit):
        """A published kernel's entry rewritten by ``edit(payload)``
        with a valid checksum; returns (store, entry path, what the
        honest kernel computed, hardware, operands)."""
        from repro.store import KernelStore, pack_entry

        store = tmp_path / "store"
        _, hw, operands, expected = TestDeferredParse._published(str(store))
        (path,) = TestDiskKernelStore.entry_files(store)
        kernel_store = KernelStore(store)
        status, payload = kernel_store.load(path.name[:-len(".entry")])
        assert status == "hit"
        edit(payload)
        path.write_bytes(pack_entry(*cls.seal(payload)))
        return store, path, expected, hw, operands

    @staticmethod
    def seal(payload):
        """``encode_payload(payload)``, plus any dict of decoded plans
        past the trace's eight columns written the way a codec that
        persisted them would: one more column, one object node per
        plan."""
        import json
        import zlib

        from repro.store import encode_payload

        columns = payload["trace"]
        payload["trace"] = columns[:8]
        manifest, stream = encode_payload(payload)
        payload["trace"] = columns
        if len(columns) == 8:
            return manifest, stream
        document = json.loads(manifest)
        segment = bytearray(zlib.decompress(stream))

        def node(value):
            if isinstance(value, np.ndarray):
                document["arrays"].append(
                    [value.dtype.str, list(value.shape), len(segment),
                     None, None])
                segment.extend(value.tobytes()
                               + bytes(-value.nbytes % 8))
                return ["nd", len(document["arrays"]) - 1]
            if isinstance(value, tuple):
                return ["t", [node(item) for item in value]]
            if hasattr(value, "compute_a"):
                return ["o", type(value).__name__,
                        [[name, node(field)]
                         for name, field in vars(value).items()]]
            return value

        (trace_node,) = [value for key, value in document["payload"][1]
                         if key == "trace"]
        trace_node[1] += [["d", [[node(key), node(plan)]
                                 for key, plan in decoded.items()]]
                          for decoded in columns[8:]]
        document["size"] = len(segment)
        return json.dumps(document).encode(), zlib.compress(bytes(segment))

    @pytest.mark.parametrize("rewrite", [_hostile_sym_name,
                                         _hostile_iv_name])
    def test_a_hostile_name_runs_nothing(self, tmp_path, rewrite):
        """User IR text still reaches the emitter: compiled from text,
        names that would run code in the driver (plus a matmul for the
        pipeline to lower) are refused by the emitter itself."""
        from repro.codegen.python_emitter import EmitError
        from repro.ir.printer import print_module

        sentinel = tmp_path / "executed"
        statement = f"open({str(sentinel)!r}, 'w').close()"
        lowered = make_compiler(KernelCache()).compile_matmul(32, 32, 32)
        hostile = rewrite(print_module(lowered.module), statement)
        matmul = ('    "linalg.matmul"(%arg0, %arg1, %arg2) '
                  '{operandSegmentSizes = [2, 1]} : (memref<32x32xi32>, '
                  'memref<32x32xi32>, memref<32x32xi32>)\n')
        head, ret, tail = hostile.rpartition('    "func.return"()')
        with pytest.raises(EmitError):
            make_compiler(KernelCache()).compile_module(
                head + matmul + ret + tail)
        assert not sentinel.exists()

    def test_a_forged_func_name_runs_nothing(self, tmp_path):
        """An entry holds no IR, so a forged head can only name another
        function than its kernel's compile: replay is still served from
        the trace, and the rebuild a per-tile run needs refuses the name
        before anything is emitted or ``exec``'d.  The refusal
        quarantines the entry: a later replay publishes nothing, and the
        next lookup compiles afresh."""
        from repro.store import STORE_COUNTERS
        from repro.transforms import CompileError

        sentinel = tmp_path / "executed"
        name = (f"f():\n    pass\nopen({str(sentinel)!r}, 'w').close()\n"
                f"def matmul_call")

        def edit(payload):
            payload["func_name"] = name

        store, path, expected, hw, operands = self.forge(tmp_path, edit)
        reader = KernelCache(disk_dir=str(store))
        loaded = make_compiler(reader).compile_matmul(32, 32, 32)
        assert reader.disk_hits == 1 and reader.disk_corrupt == 0
        assert _observe(hw, loaded, operands) == expected
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        quarantined = STORE_COUNTERS["store_quarantined"]
        with pytest.raises(CompileError, match="stored kernel names"):
            loaded.run(board, *operands, trace=False)
        with pytest.raises(CompileError, match="stored kernel names"):
            loaded.source
        assert loaded.trace_state.module is None
        assert loaded.trace_state.entry_point is None
        assert not sentinel.exists()
        assert STORE_COUNTERS["store_quarantined"] == quarantined + 1
        assert not path.exists()
        assert (store / "corrupt" / path.name).exists()
        writes = STORE_COUNTERS["store_writes"]
        # Every plan now counts as unpublished: only the cleared persist
        # hook keeps this replay from writing the forged head back.
        loaded.trace_state.trace._stored_plans = frozenset()
        assert _observe(hw, loaded, operands) == expected
        assert STORE_COUNTERS["store_writes"] == writes
        assert not path.exists()
        fresh = make_compiler(reader).compile_matmul(32, 32, 32)
        assert fresh is not loaded and reader.disk_misses == 1
        assert fresh.source and fresh.func_name != name
        assert _observe(hw, fresh, operands) == expected
        assert STORE_COUNTERS["store_writes"] == writes + 1

    def test_a_loaded_trace_is_arrays(self, tmp_path):
        """The receive refs and flush item counts the C decoders read
        load as int64 ndarrays: one ``(class, tile)`` pair per receive,
        one item count per flush."""
        from repro.kernel_cache import stored_trace
        from repro.store import KernelStore

        store = tmp_path / "store"
        TestDeferredParse._published(str(store))
        (path,) = TestDiskKernelStore.entry_files(store)
        status, payload = KernelStore(store).load(path.name[:-len(".entry")])
        assert status == "hit"
        trace = stored_trace(payload)
        assert trace.recv_pos.size and trace.flush_pos.size
        for array, shape in ((trace.recv_refs, (trace.recv_pos.size, 2)),
                             (trace.flush_item_counts,
                              (trace.flush_pos.size,))):
            assert isinstance(array, np.ndarray)
            assert (array.dtype, array.shape) == (np.int64, shape)

    # A stored trace is its columns (execution.synthesize.trace_columns):
    # (arg_specs, kinds, words, sends, recvs, flushes, init_params,
    # region_sizes), each send/recv row (key, pos, starts, regions).

    @staticmethod
    def _forged_flush_count(payload):
        """A flush past the end of the event stream."""
        flush_pos = payload["trace"][5][0]
        flush_pos[-1] = payload["trace"][1].size + (1 << 20)

    @staticmethod
    def _float_flush_counts(payload):
        columns = list(payload["trace"])
        flush_pos, flush_bytes = columns[5]
        columns[5] = (flush_pos.astype(np.float64), flush_bytes)
        payload["trace"] = tuple(columns)

    @staticmethod
    def _three_column_refs(payload):
        """A receive class whose tile starts are three columns wide."""
        recvs = payload["trace"][4]
        key, pos, starts, regions = recvs[-1]
        recvs[-1] = (key, pos, np.c_[starts, starts, starts], regions)

    @staticmethod
    def _foreign_class_ref(payload):
        """A receive class of an argument the kernel does not have."""
        arg_specs, recvs = payload["trace"][0], payload["trace"][4]
        key, *rows = recvs[-1]
        recvs[-1] = ((len(arg_specs),) + key[1:], *rows)

    @staticmethod
    def _forged_staging_offset(payload):
        """A send tile staged before the start of the input region."""
        sends = payload["trace"][3]
        key, pos, starts, regions = sends[0]
        regions = regions.copy()
        regions[-1] = -4
        sends[0] = (key, pos, starts, regions)

    @staticmethod
    def _forged_decoded_plan(payload):
        """A stored decoded plan — one more column, which the codec
        cannot decode — whose first compute reads a send class the
        trace does not have."""
        from repro.execution.synthesize import assemble_trace
        from repro.execution.trace import decode_for_accelerator, decode_key

        trace = assemble_trace(*payload["trace"])
        hw, _ = make_matmul_system(3, 8, flow="Ns")
        plan = decode_for_accelerator(trace, hw)
        plan.compute_a[0] = plan.pack(len(trace.send_classes), 0)
        payload["trace"] += ({decode_key(hw): plan},)

    @staticmethod
    def _forged_region_index(payload):
        """A stored MetricsPlan writing past the output staging region."""
        (plan,) = payload["metrics_plans"].values()
        _, dest, _ = plan.output_writes[0]
        dest[0] = 1 << 40

    @staticmethod
    def _forged_end_state(payload):
        """A stored MetricsPlan whose L2 end-state lists one line more
        than its per-set occupancies add up to."""
        (plan,) = payload["metrics_plans"].values()
        counts, lines = plan.l2_state
        plan.l2_state = (counts, np.append(lines, lines[:1]))

    @pytest.mark.parametrize("edit", [
        "_forged_flush_count", "_float_flush_counts", "_three_column_refs",
        "_foreign_class_ref", "_forged_staging_offset",
        "_forged_decoded_plan", "_forged_region_index", "_forged_end_state"])
    def test_a_forged_flush_count_is_quarantined_and_resynthesized(
            self, tmp_path, edit):
        """An out-of-stream or mistyped flush, a receive class the C
        decoders would index memory by wrongly, a tile staged outside
        its region (the C last-writer scan's bound), a stored decoded plan
        (the store writes none), a MetricsPlan writing outside the
        trace's staging regions or one whose cache end-state is not
        ``(counts, lines)`` never gets that far."""
        store, path, expected, _, operands = self.forge(
            tmp_path, getattr(self, edit))
        reader = KernelCache(disk_dir=str(store))
        kernel = make_compiler(reader).compile_matmul(32, 32, 32)
        # A fresh accelerator: the run starts where the publishing run
        # did, so a loaded MetricsPlan would serve it.
        hw, _ = make_matmul_system(3, 8, flow="Ns")
        assert _observe(hw, kernel, operands) == expected
        assert (reader.disk_hits, reader.disk_corrupt) == (0, 1)
        assert (store / "corrupt" / path.name).exists()
        # Re-synthesized and republished: the next process loads it.
        third = KernelCache(disk_dir=str(store))
        make_compiler(third).compile_matmul(32, 32, 32)
        assert (third.disk_hits, third.disk_corrupt) == (1, 0)

    def test_an_end_state_of_another_geometry_is_rebuilt(self, tmp_path):
        """A stored plan whose L2 end-state has one set too few passes
        the load checks, which need no geometry, so the entry is a disk
        hit; the board refuses the plan before replay writes anything,
        and it is rebuilt: the run counts like the honest one."""
        from repro.execution import METRICS_PLAN_COUNTERS

        def edit(payload):
            (plan,) = payload["metrics_plans"].values()
            counts, lines = plan.l2_state
            plan.l2_state = (counts[:-1], lines[:int(counts[:-1].sum())])

        store, _, expected, _, operands = self.forge(tmp_path, edit)
        reader = KernelCache(disk_dir=str(store))
        kernel = make_compiler(reader).compile_matmul(32, 32, 32)
        hw, _ = make_matmul_system(3, 8, flow="Ns")
        before = dict(METRICS_PLAN_COUNTERS)
        assert _observe(hw, kernel, operands) == expected
        assert (reader.disk_hits, reader.disk_corrupt) == (1, 0)
        assert [METRICS_PLAN_COUNTERS[name] - before[name] for name in (
            "metrics_plan_hits", "metrics_plan_misses")] == [0, 1]

    def test_a_forged_digest_shares_no_plans(self, tmp_path):
        """Traces share plans by a digest of their own columns, never
        by one an entry carries: a ``Cs`` entry claiming the ``Ns``
        trace's digest (with a valid checksum) gets no ``Ns`` plan, and
        both kernels, loaded and run in one process, count honestly."""
        from repro.execution.metrics import (
            _trace_component_digest,
            reset_component_memo,
        )
        from repro.store import KernelStore, encode_payload, pack_entry

        store = tmp_path / "store"
        rng = np.random.default_rng(5)
        operands = [rng.integers(-4, 4, (64, 64)).astype(np.int32)
                    for _ in range(2)] + [np.zeros((64, 64), np.int32)]
        honest, entries, digests = {}, {}, {}
        for flow in ("Ns", "Cs"):
            hw, _ = make_matmul_system(3, 8, flow=flow)
            kernel = make_compiler(KernelCache(disk_dir=str(store)),
                                   flow=flow).compile_matmul(64, 64, 64)
            honest[flow] = _observe(hw, kernel, operands)
            digests[flow] = _trace_component_digest(kernel.trace_state.trace)
            (entries[flow],) = set(TestDiskKernelStore.entry_files(store)) \
                - set(entries.values())
        assert digests["Ns"] != digests["Cs"]
        name = entries["Cs"].name[:-len(".entry")]
        status, payload = KernelStore(store).load(name)
        assert status == "hit"
        payload["trace"] += (digests["Ns"],)
        entries["Cs"].write_bytes(pack_entry(*encode_payload(payload)))

        reset_component_memo()
        reader = KernelCache(disk_dir=str(store))
        kernels, seen = {}, {}
        for flow in ("Ns", "Cs"):
            hw, _ = make_matmul_system(3, 8, flow=flow)
            kernels[flow] = make_compiler(reader, flow=flow) \
                .compile_matmul(64, 64, 64)
            seen[flow] = _observe(hw, kernels[flow], operands)
        assert seen == honest
        ns, cs = (kernels[flow].trace_state.trace for flow in ("Ns", "Cs"))
        assert ns.metrics_plans is not cs.metrics_plans
        assert [_trace_component_digest(ns), _trace_component_digest(cs)] \
            == [digests["Ns"], digests["Cs"]]

    def test_without_the_c_library_a_forged_entry_runs_per_tile(
            self, tmp_path):
        """The load check does not need the C library: without it the
        entry is quarantined all the same, and the kernel runs per tile,
        synthesizing and publishing nothing."""
        from repro.execution import TRACE_COUNTERS
        from repro.soc._native import suspend_native

        store, path, expected, hw, operands = self.forge(
            tmp_path, self._forged_flush_count)
        before = dict(TRACE_COUNTERS)
        with suspend_native():
            reader = KernelCache(disk_dir=str(store))
            kernel = make_compiler(reader).compile_matmul(32, 32, 32)
            assert (reader.disk_hits, reader.disk_corrupt) == (0, 1)
            assert _observe(hw, kernel, operands) == expected
        assert dict(TRACE_COUNTERS) == before
        assert (store / "corrupt" / path.name).exists()
        assert TestDiskKernelStore.entry_files(store) == []


class TestManualTraceEntries:
    """The cpp_MANUAL baselines are kernels: their entries persist the
    IR, trace and plans like any kernel's, plus the host engine."""

    @pytest.fixture(autouse=True)
    def _store(self, tmp_path, monkeypatch):
        self.store = tmp_path / "repro_cache"
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(self.store))
        self.fresh_process(monkeypatch)
        yield
        default_kernel_cache().clear()

    @staticmethod
    def fresh_process(monkeypatch):
        from repro.execution.metrics import reset_component_memo

        default_kernel_cache().clear()
        # A new process would not find the old traces' plans in memory
        # either.
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

        return (TRACE_COUNTERS["synthesized"],
                METRICS_PLAN_COUNTERS["metrics_plan_misses"],
                STORE_COUNTERS["store_writes"])

    def entries(self):
        return sorted(p.name for p in self.store.glob("objects/*/*.entry"))

    @pytest.mark.usefixtures("clean_faults")
    def test_second_process_records_builds_and_writes_nothing(
            self, monkeypatch):
        start = self.counts()
        fresh = self.run()
        assert self.counts() == tuple(n + 1 for n in start)
        (name,) = self.entries()
        assert name.startswith("kernel-")
        assert self.run() == fresh          # same process: memo hit
        self.fresh_process(monkeypatch)
        assert self.run() == fresh          # "new process": disk hit
        assert self.counts() == tuple(n + 1 for n in start)

    @pytest.mark.usefixtures("clean_faults")
    def test_foreign_store_version_is_quarantined_and_rerecorded(
            self, monkeypatch):
        """The one payload check: a checksum-valid payload of another
        KERNEL_STORE_VERSION under a current name never loads."""
        from repro.kernel_cache import KERNEL_STORE_VERSION
        from repro.store import KernelStore

        fresh = self.run()
        (name,) = self.entries()
        assert KernelStore(self.store).store(
            name[:-len(".entry")],
            {"store_version": KERNEL_STORE_VERSION - 1, "trace": None})
        self.fresh_process(monkeypatch)
        start = self.counts()
        assert self.run() == fresh
        # Re-synthesized, rebuilt and republished under the same name...
        assert self.counts() == tuple(n + 1 for n in start)
        assert self.entries() == [name]
        assert len(list((self.store / "corrupt").iterdir())) == 1
        # ...so the process after that finds everything again.
        self.fresh_process(monkeypatch)
        assert self.run() == fresh
        assert self.counts() == tuple(n + 1 for n in start)

    @pytest.mark.usefixtures("clean_faults")
    def test_entry_from_another_source_digest_is_ignored(self,
                                                         monkeypatch):
        import repro.kernel_cache as kernel_cache_mod

        fresh = self.run()
        monkeypatch.setattr(kernel_cache_mod, "_SOURCE_TREE_DIGEST",
                            "f" * 64)
        self.fresh_process(monkeypatch)
        from repro.execution import TRACE_COUNTERS
        synthesized = TRACE_COUNTERS["synthesized"]
        assert self.run() == fresh
        assert TRACE_COUNTERS["synthesized"] == synthesized + 1
        assert len(self.entries()) == 2     # the foreign entry untouched
        assert not (self.store / "corrupt").exists()

    @pytest.mark.usefixtures("clean_faults")
    @pytest.mark.parametrize("field,value", [
        ("call_style", "bogus"),
        ("call_style", None),
        # The trace is preinitialized: it needs the host's engine...
        ("host_dma_init", None),
        # ...with the region sizes the trace was built against...
        ("host_dma_init", (0, 0, 8, 0, 8)),
        # ...as five non-negative ints.
        ("host_dma_init", (0, 0, 1 << 19, 0)),
        ("host_dma_init", (0, -1, 1 << 19, 0, 1 << 19)),
        ("host_dma_init", (0, 0, 1 << 19, 0, float(1 << 19))),
        ("host_dma_init", [0, 0, 1 << 19, 0, 1 << 19]),
    ])
    def test_a_forged_head_is_quarantined(self, monkeypatch, field, value):
        """The head fields a kernel is built from are checked at load
        like its trace: a forged value is quarantined as corrupt, and
        the kernel is rebuilt and republished."""
        from repro.store import KernelStore

        fresh = self.run()
        (entry,) = self.entries()
        name = entry[:-len(".entry")]
        store = KernelStore(self.store)
        status, payload = store.load(name)
        assert status == "hit"
        assert payload["host_dma_init"] == (0, 0, 1 << 19, 0, 1 << 19)
        payload[field] = value
        assert store.store(name, payload)
        self.fresh_process(monkeypatch)
        start = self.counts()
        assert self.run() == fresh
        assert default_kernel_cache().disk_corrupt == 1
        assert [path.name for path in (self.store / "corrupt").iterdir()] \
            == [entry]
        assert self.counts() == tuple(n + 1 for n in start)
        assert self.entries() == [entry]

    @pytest.mark.usefixtures("clean_faults")
    @pytest.mark.parametrize("forgery", [
        "kind out of range", "extra flush", "missing receive"])
    def test_a_forged_event_kind_is_quarantined(self, monkeypatch,
                                                forgery):
        """The metrics pass indexes a per-kind table by each event's
        kind and reads transfer times by flush and receive ordinals, so
        a kinds column that leaves ``K_LOOP..K_RWAIT`` or disagrees with
        ``flush_pos`` / ``recv_pos`` is quarantined at load: the stored
        trace is never replayed, the kernel is re-synthesized."""
        from repro.execution import TRACE_COUNTERS
        from repro.execution.trace import K_FLUSH, K_LOOP, K_RECV, K_RWAIT
        from repro.store import KernelStore

        fresh = self.run()
        (entry,) = self.entries()
        name = entry[:-len(".entry")]
        store = KernelStore(self.store)
        status, payload = store.load(name)
        assert status == "hit"
        columns = list(payload["trace"])
        kinds = columns[1].copy()
        loop = int(np.flatnonzero(kinds == K_LOOP)[0])
        if forgery == "kind out of range":
            kinds[loop] = K_RWAIT + 1
        elif forgery == "extra flush":
            kinds[loop] = K_FLUSH
        else:
            kinds[np.flatnonzero(kinds == K_RECV)[0]] = K_LOOP
        columns[1] = kinds
        payload["trace"] = tuple(columns)
        assert store.store(name, payload)
        self.fresh_process(monkeypatch)
        start = self.counts()
        loaded = TRACE_COUNTERS["disk_loaded"]
        assert self.run() == fresh
        assert TRACE_COUNTERS["disk_loaded"] == loaded
        assert default_kernel_cache().disk_corrupt == 1
        assert [path.name for path in (self.store / "corrupt").iterdir()] \
            == [entry]
        assert self.counts() == tuple(n + 1 for n in start)
