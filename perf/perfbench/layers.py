"""The layer section: unit cost of one public call per layer.

Runs in one scrubbed process after the traced repetition.  Millisecond
values are medians over the hot spec pool (one fresh object per
kernel), counts are exact.  Nothing here is a workload: these numbers
say what a single plan apply, store read or RPC costs, so a change to
one layer can be checked against the end-to-end metric it should move.
"""

from __future__ import annotations

import collections
import os
import tempfile
import time
from typing import Callable, Dict, List

import numpy as np

from . import metrics, specs
from .ops import build_kernel, compile_spec, make_system
from .spans import NullTracer
from .stats import median
from .worker import stop_server

_QUIET = NullTracer()
LINE_STREAM = 200_000
#: Passes over the pool in the compile chain; the section has ~5 s to
#: fill while its server drains, so medians rest on several samples.
ROUNDS = 3


def _seconds(fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _noop() -> int:
    return 0


def _module_for(spec: dict, info):
    from repro.compiler import build_conv_module, build_matmul_module

    if spec["kind"] == "matmul":
        return build_matmul_module(spec["m"], spec["n"], spec["k"],
                                   info.data_type), "matmul_call"
    return build_conv_module(spec["batch"], spec["in_ch"], spec["in_hw"],
                             spec["out_ch"], spec["f_hw"], spec["stride"],
                             info.data_type), "conv_call"


def _arrays(spec: dict) -> List[np.ndarray]:
    return specs.make_inputs("hot", specs.HOT_POOL.index(spec), 0, 0) \
        + [np.zeros(specs.output_shape(spec), np.int32)]


def _fresh_board(spec: dict):
    """A new board with a new hardware model (a run reconfigures it)."""
    from repro.soc import make_pynq_z2

    board = make_pynq_z2()
    board.attach_accelerator(make_system(spec)[0])
    return board


def _fresh_run_state(spec: dict, kernel):
    """(board, runtime, descriptors) as ``CompiledKernel.run`` makes them."""
    board = _fresh_board(spec)
    runtime = kernel.make_runtime(board)
    descriptors = [runtime.make_memref(array, f"arg{i}")
                   for i, array in enumerate(_arrays(spec))]
    return board, runtime, descriptors


def compile_chain(pool, out: Dict[str, List[float]]) -> None:
    """ir / transforms / codegen / compiler / synthesize / trace / replay,
    one pass per pool kernel."""
    from repro.accel_config import CPUInfo
    from repro.codegen import emit_function, schedule_event_count
    from repro.compiler import KernelCache, suspend_disk_store
    from repro.execution import record_trace, replay_kernel, synthesize_trace
    from repro.execution.metrics import reset_component_memo
    from repro.ir.parser import parse_module
    from repro.ir.printer import print_module
    from repro.transforms import parse_pass_pipeline

    hot_dir = tempfile.mkdtemp(prefix="hot-store-")
    for spec in pool:
        # transforms + codegen + ir on a fresh module
        _, info = make_system(spec)
        module, func_name = _module_for(spec, info)
        out["transforms.pipeline_ms"].append(1e3 * _seconds(
            lambda: parse_pass_pipeline(
                "generalize,annotate,lower-to-accel", info=info,
                cpu=CPUInfo()).run(module)))
        out["transforms.ops_after"].append(sum(1 for _ in module.walk()))
        func_op = module.lookup(func_name)
        emitted = []
        out["codegen.emit_ms"].append(1e3 * _seconds(
            lambda: emitted.append(emit_function(func_op))))
        out["codegen.source_bytes"].append(len(emitted[0][0].encode()))
        printed = []
        out["ir.print_ms"].append(1e3 * _seconds(
            lambda: printed.append(print_module(module))))
        out["ir.parse_ms"].append(1e3 * _seconds(
            lambda: parse_module(printed[0])))

        # compiler: memory miss, memory hit, disk hit
        memory_cache = KernelCache()
        with suspend_disk_store():
            out["compiler.compile_miss_ms"].append(1e3 * _seconds(
                lambda: compile_spec(spec, info, memory_cache)))
            out["compiler.compile_hit_us"].append(1e6 * _seconds(
                lambda: [compile_spec(spec, info, memory_cache)
                         for _ in range(50)]) / 50)
        published = compile_spec(spec, info, KernelCache(disk_dir=hot_dir))
        published.run(_fresh_board(spec), *_arrays(spec))
        out["compiler.disk_hit_ms"].append(1e3 * _seconds(
            lambda: compile_spec(spec, info, KernelCache(disk_dir=hot_dir))))

        # synthesize / record the kernel's trace, then replay it twice
        kernel = compile_spec(spec, info, memory_cache)
        board, runtime, descriptors = _fresh_run_state(spec, kernel)
        arg_specs = tuple((d.sizes, d.strides, d.itemsize, str(d.dtype))
                          for d in descriptors)
        traces = []
        out["synthesize.trace_ms"].append(1e3 * _seconds(
            lambda: traces.append(
                synthesize_trace(kernel.schedule_table, arg_specs))))
        events = schedule_event_count(kernel.schedule_table)
        out["synthesize.events"].append(events)
        out["trace.record_ms"].append(1e3 * _seconds(
            lambda: record_trace(kernel.entry_point, arg_specs,
                                 expected_events=events)))
        # A build from nothing: later passes over the pool must not be
        # served by the process-wide component memo of the first.
        reset_component_memo()
        out["replay.first_ms"].append(1e3 * _seconds(
            lambda: replay_kernel(traces[0], board, runtime, descriptors,
                                  False)))
        board, runtime, descriptors = _fresh_run_state(spec, kernel)
        out["replay.hit_ms"].append(1e3 * _seconds(
            lambda: replay_kernel(traces[0], board, runtime, descriptors,
                                  False)))


def slow_tiers(values: Dict[str, float]) -> None:
    """Interpreter and per-tile driver on 64x64x64 v3 Cs."""
    from .ops import run_op

    spec = specs.ORACLE_POOL[3]
    inputs = specs.make_inputs("oracle", 3, 0, 0)
    for name, tier in (("interpreter.run_ms", "interpreted"),
                       ("per_tile.run_ms", "per_tile")):
        run_op(spec, inputs, tier, _QUIET)
        values[name] = 1e3 * median(
            [_seconds(lambda: run_op(spec, inputs, tier, _QUIET))
             for _ in range(3)])


def model_plan_and_pool(values: Dict[str, float]) -> None:
    """A TinyBERT matmul schedule recorded, then replayed from its
    fused ModelPlan; and what one trip through the fork pool costs."""
    from repro.execution import diagnostics, run_model_jobs
    from repro.experiments import run_matmul_model
    from repro.frontends.tinybert import (TinyBertConfig,
                                          tinybert_matmul_shapes)
    from repro.heuristics import best_configuration

    model = []
    for shape in tinybert_matmul_shapes(TinyBertConfig(seq_len=32,
                                                       batch=1)):
        m, n, k = shape.padded(16)
        best = best_configuration(m, n, k, 16, 16 * 16 * 16)
        model.append((m, n, k, 16, 4, best.flow, best.tiles))
    model = tuple(model)
    values["model_plan.record_s"] = _seconds(
        lambda: run_matmul_model(model))
    before = diagnostics()["model_plan"]["model_plan_step_hits"]
    values["model_plan.replay_s"] = _seconds(
        lambda: run_matmul_model(model))
    hits = diagnostics()["model_plan"]["model_plan_step_hits"] - before
    values["model_plan.step_hit_ratio"] = hits / len(model)

    jobs = [(_noop, ()), (_noop, ())]
    inline = _seconds(lambda: [fn(*args) for fn, args in jobs])
    values["pool.fork_job_overhead_ms"] = 1e3 * (
        median([_seconds(lambda: run_model_jobs(jobs, workers=2))
                for _ in range(3)]) - inline)


def soc_and_runtime(values: Dict[str, float]) -> None:
    """Live and offline cache models on one fixed line stream; one
    specialized 16x16 tile copy charge."""
    from repro.runtime import AxiRuntime, CopyKinds
    from repro.runtime.copy import charge_memref_copy
    from repro.soc import make_pynq_z2
    from repro.soc._native import suspend_native
    from repro.soc.cache import OfflineLruSimulator

    lines = np.random.default_rng(0).integers(0, 1 << 14, LINE_STREAM)
    live = make_pynq_z2().caches.l1
    values["soc.cache.live_lines_per_s"] = LINE_STREAM / _seconds(
        lambda: live.access_batch(lines))
    native = OfflineLruSimulator(make_pynq_z2().caches)
    values["soc.cache.offline_lines_per_s"] = LINE_STREAM / _seconds(
        lambda: native.process(lines))
    with suspend_native():
        pure = OfflineLruSimulator(make_pynq_z2().caches)
        values["soc.cache.offline_py_lines_per_s"] = LINE_STREAM / _seconds(
            lambda: pure.process(lines))

    board = make_pynq_z2()
    runtime = AxiRuntime(board)
    runtime.dma_init(0, 0x4000_0000, 0x2_0000, 0x4010_0000, 0x2_0000)
    tile = runtime.make_memref(np.zeros((64, 64), np.int32)) \
        .subview([16, 16], [16, 16])
    base = runtime.dma.input_region.base
    values["runtime.copy_charge_ms"] = 1e3 * _seconds(
        lambda: [charge_memref_copy(board, tile, base, 4,
                                    CopyKinds.SPECIALIZED)
                 for _ in range(200)]) / 200


def store_layer(values: Dict[str, float]) -> None:
    """Encode/decode and put/get of one real kernel+trace+plan payload."""
    from repro.store import (KernelStore, decode_payload, encode_payload,
                             pack_entry)

    spec = specs.HOT_POOL[3]
    _, kernel = build_kernel(spec, _QUIET)
    kernel.run(_fresh_board(spec), *_arrays(spec))
    # The payload the kernel cache publishes: read one back.
    store = KernelStore(os.environ["REPRO_KERNEL_CACHE_DIR"])
    entries = sorted(store.objects_dir().rglob("kernel-*.entry"),
                     key=lambda path: path.stat().st_size)
    name = entries[-1].name[:-len(".entry")]
    status, payload = store.load(name)
    if status != "hit":
        raise RuntimeError(f"store read of {name} returned {status}")
    packed = []
    values["store.encode_ms"] = 1e3 * median(
        [_seconds(lambda: packed.append(encode_payload(payload)))
         for _ in range(5)])
    manifest, npz = packed[0]
    values["store.entry_bytes"] = len(pack_entry(manifest, npz))
    values["store.decode_ms"] = 1e3 * median(
        [_seconds(lambda: decode_payload(manifest, npz)) for _ in range(5)])
    scratch = KernelStore(tempfile.mkdtemp(prefix="store-layer-"))
    values["store.put_ms"] = 1e3 * median(
        [_seconds(lambda: scratch.store(f"bench-{i}", payload))
         for i in range(5)])
    values["store.get_ms"] = 1e3 * median(
        [_seconds(lambda: scratch.load(f"bench-{i}")) for i in range(5)])


def service_layer(values: Dict[str, float], smoke: bool):
    """Codec, a health round trip, and what the socket adds to a
    request: RPC median minus in-process ``run_request`` median.

    Returns the server process, already told to drain: the caller
    measures the other layers while it does (the drain idles for 5 s)
    and reaps it at the end.
    """
    import json
    import signal
    import subprocess
    import sys

    from repro.service import ServiceClient, run_request
    from repro.service.protocol import decode_value, encode_value

    block = np.random.default_rng(0).integers(-7, 7, (128, 128)) \
        .astype(np.int32)
    message = {"spec": {"inputs": [block, block]}, "output": block}
    wire = []
    values["service.codec_encode_ms"] = 1e3 * median(
        [_seconds(lambda: wire.append(json.dumps(encode_value(message))))
         for _ in range(10)])
    values["service.codec_decode_ms"] = 1e3 * median(
        [_seconds(lambda: decode_value(json.loads(wire[0])))
         for _ in range(10)])

    pool = specs.HOT_POOL[:2] if smoke else specs.HOT_POOL
    requests = [dict(spec, inputs=specs.make_inputs("hot", index, 0, 0))
                for index, spec in enumerate(pool)]
    rounds = 2 if smoke else 6
    with open("layer-server.err", "w") as errors:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--socket",
             "layer.sock"],
            stdout=subprocess.PIPE, stderr=errors, text=True)
    try:
        ready = json.loads(server.stdout.readline())
        with ServiceClient(ready["socket"]) as client:
            client.warmup([dict(spec) for spec in pool])
            values["service.rpc_roundtrip_ms"] = 1e3 * median(
                [_seconds(client.health) for _ in range(100)])
            for request in requests:
                client.submit(request)
            remote = [_seconds(lambda: client.submit(request))
                      for _ in range(rounds) for request in requests]
    except BaseException:
        stop_server(server)
        raise
    server.send_signal(signal.SIGTERM)
    for request in requests:
        run_request(request)
    local = [_seconds(lambda: run_request(request))
             for _ in range(rounds) for request in requests]
    values["service.overhead_ms"] = 1e3 * (median(remote) - median(local))
    return server


def tuning_layer(values: Dict[str, float], smoke: bool) -> None:
    """Journal append (write+fsync) and replay; one traffic estimate."""
    from repro.analysis import estimate_traffic
    from repro.dialects import linalg
    from repro.tuning import SweepJournal

    records = 20 if smoke else 200
    path = os.path.join(tempfile.mkdtemp(prefix="journal-"), "j.jsonl")
    journal = SweepJournal(path)
    journal.append_meta("bench")
    record = {"status": "ok", "metric": 1.0, "spec": specs.HOT_POOL[0]}
    values["tuning.journal_append_ms"] = 1e3 * _seconds(
        lambda: [journal.append_result(f"{i:016x}", record)
                 for i in range(records)]) / records
    journal.close()
    values["tuning.journal_replay_ms"] = 1e3 * _seconds(
        lambda: SweepJournal(path).replay(expect_space="bench"))

    spec = dict(specs.HOT_POOL[2], cpu_tiling=False)
    _, info = make_system(spec)
    kernel = compile_spec(spec, info)
    values["tuning.estimate_us"] = 1e6 * _seconds(
        lambda: [estimate_traffic(kernel.plan, info.opcode_map,
                                  linalg.matmul_maps())
                 for _ in range(50)]) / 50


def run(job: dict, tracer) -> dict:
    """Every layer metric of the layer section, by name."""
    from repro.soc._native import native_lib

    values: Dict[str, float] = {
        # First use in this fresh process: the C build every process pays.
        "soc.native_build_s": _seconds(native_lib),
    }
    pool = specs.HOT_POOL[:2] if job["smoke"] else specs.HOT_POOL
    columns: Dict[str, List[float]] = collections.defaultdict(list)
    server = service_layer(values, job["smoke"])
    try:
        rounds = 1 if job["smoke"] else ROUNDS
        for _ in range(rounds):
            compile_chain(pool, columns)
        for name, column in columns.items():
            exact = metrics.PER_LAYER[name][2]
            values[name] = sum(column) // rounds if exact \
                else median(column)
        slow_tiers(values)
        model_plan_and_pool(values)
        soc_and_runtime(values)
        store_layer(values)
        tuning_layer(values, job["smoke"])
    finally:
        stop_server(server)
    return {"metrics": values}
