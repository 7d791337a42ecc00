"""Row generators for every table and figure in the paper's evaluation.

Scale control: the paper's largest problems (dims = 256, full ResNet
spatial extents) make the line-level cache simulation take minutes; by
default the harnesses run a reduced grid that preserves every claimed
*shape*.  Set ``REPRO_FULL_SCALE=1`` to regenerate the full grids.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

from ..accelerators.catalog import VERSION_FLOWS
from ..frontends import RESNET18_LAYERS, scaled_layer
from ..frontends.tinybert import (
    TinyBertConfig,
    attention_matmul_macs,
    other_layer_macs,
    tinybert_matmul_shapes,
)
from ..heuristics import best_configuration, square_tile_configuration
from ..soc import TimingModel, make_pynq_z2
from ..soc.timing import TABLE1_OPS_PER_CYCLE
from .harness import (
    conv_model_counters,
    matmul_model_counters,
    measure_cpu_conv,
    measure_cpu_matmul,
    measure_generated_conv,
    measure_generated_matmul,
    measure_manual_conv,
    measure_manual_matmul,
)


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL_SCALE", "0") not in ("0", "", "false")


def _matmul_dims() -> List[int]:
    return [64, 128, 256] if full_scale() else [64, 128]


def format_table(rows: Sequence[Dict], columns: Sequence[str]) -> str:
    """Plain-text table for benchmark output."""
    if not rows:
        return "(no rows)"
    widths = {
        c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) for c in columns
    }
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

def table1_rows() -> List[Dict]:
    """The accelerator catalog with Table I throughputs."""
    reuse = {1: "Nothing", 2: "Inputs", 3: "Ins/Out",
             4: "Ins/Out (flex size)"}
    opcodes = {1: "sAsBcCrC", 2: "sA, sB, cCrC", 3: "sA, sB, cC, rC",
               4: "sA, sB, cC, rC, cfg"}
    rows = []
    for version in (1, 2, 3, 4):
        for size, ops in sorted(TABLE1_OPS_PER_CYCLE.items()):
            rows.append({
                "type": f"v{version}",
                "possible_reuse": reuse[version],
                "opcodes": opcodes[version],
                "size": size,
                "ops_per_cycle": ops,
                "flows": "/".join(VERSION_FLOWS[version]),
            })
    return rows


# ---------------------------------------------------------------------------
# Fig. 10 — CPU vs accelerator relevance
# ---------------------------------------------------------------------------

def fig10_rows() -> List[Dict]:
    """Runtime characterization: mlir_CPU vs v1 offload, Ns flow."""
    dims_grid = ([16, 32, 64, 128, 256] if full_scale()
                 else [16, 32, 64, 128])
    rows = []
    for dims in dims_grid:
        cpu = measure_cpu_matmul(dims)
        rows.append({
            "dims": dims, "accel_size": 0, "accel_version": "NONE",
            "task_clock_ms": cpu.task_clock_ms(),
        })
        for size in (4, 8, 16):
            if dims < size:
                continue
            counters = measure_generated_matmul(dims, dims, dims, size, 1,
                                                "Ns")
            rows.append({
                "dims": dims, "accel_size": size, "accel_version": "v1",
                "task_clock_ms": counters.task_clock_ms(),
            })
    return rows


# ---------------------------------------------------------------------------
# Fig. 11 — flows before the copy optimization
# ---------------------------------------------------------------------------

def fig11_rows() -> List[Dict]:
    """Manual Ns vs generated Ns/As/Bs/Cs, generic (unoptimized) copies."""
    rows = []
    for dims in _matmul_dims():
        for size in (8, 16):
            for version in (2, 3):
                manual = measure_manual_matmul(dims, dims, dims, size,
                                               version, "Ns")
                rows.append({
                    "dims": dims, "accel_size": size,
                    "accel_version": f"v{version}",
                    "impl": "cpp_MANUAL", "flow": "Ns",
                    "task_clock_ms": manual.task_clock_ms(),
                })
                for flow in VERSION_FLOWS[version]:
                    counters = measure_generated_matmul(
                        dims, dims, dims, size, version, flow,
                        specialized=False,
                    )
                    rows.append({
                        "dims": dims, "accel_size": size,
                        "accel_version": f"v{version}",
                        "impl": "mlir_AXI4MLIR", "flow": flow,
                        "task_clock_ms": counters.task_clock_ms(),
                    })
    return rows


# ---------------------------------------------------------------------------
# Fig. 12 — perf counters with/without the MemRef copy optimization
# ---------------------------------------------------------------------------

def fig12_rows(dims: int = 128, size: int = 16, version: int = 3
               ) -> List[Dict]:
    """Counters for v3-16 at dims==128, normalized to the CPU run."""
    cpu = measure_cpu_matmul(dims)
    rows = []
    for optimized in (False, True):
        panel = "12b(optimized)" if optimized else "12a(unoptimized)"
        manual = measure_manual_matmul(dims, dims, dims, size, version, "Ns")
        rows.append({
            "panel": panel, "impl": "cpp_MANUAL", "flow": "Ns",
            **manual.normalized_to(cpu),
        })
        for flow in VERSION_FLOWS[version]:
            counters = measure_generated_matmul(
                dims, dims, dims, size, version, flow,
                specialized=optimized,
            )
            rows.append({
                "panel": panel, "impl": "mlir_AXI4MLIR", "flow": flow,
                **counters.normalized_to(cpu),
            })
    return rows


# ---------------------------------------------------------------------------
# Fig. 13 — headline: manual vs generated, matched flows
# ---------------------------------------------------------------------------

def fig13_rows() -> List[Dict]:
    rows = []
    for dims in _matmul_dims():
        for size in (8, 16):
            for version in (2, 3):
                for flow in VERSION_FLOWS[version]:
                    manual = measure_manual_matmul(dims, dims, dims, size,
                                                   version, flow)
                    generated = measure_generated_matmul(dims, dims, dims,
                                                         size, version, flow)
                    rows.append({
                        "dims": dims, "accel_size": size,
                        "accel_version": f"v{version}", "flow": flow,
                        "cpp_MANUAL_ms": manual.task_clock_ms(),
                        "mlir_AXI4MLIR_ms": generated.task_clock_ms(),
                        "speedup": manual.task_clock_ms()
                        / generated.task_clock_ms(),
                        "cache_ref_reduction":
                            1.0 - generated.cache_references
                            / manual.cache_references,
                    })
    return rows


# ---------------------------------------------------------------------------
# Fig. 14 — flexible sizes on v4
# ---------------------------------------------------------------------------

FIG14_QUANTUM = 16
FIG14_CAPACITY = 16 * 16 * 16


def fig14_problems() -> List[tuple]:
    values = [256, 32, 512] if full_scale() else [128, 32, 256]
    from itertools import permutations

    return sorted(set(permutations(values)))


def sweep_rows(journal_path=None, report_path=None) -> List[Dict]:
    """Best-config rows from a smoke run of the autotuning sweep engine.

    Runs (or, when ``journal_path`` points at an interrupted sweep's
    journal, resumes) the crash-safe sweep over the smoke space and
    flattens the per-(kernel, shape) winners into table rows — the
    same shape the figure tables use, so the tuned configurations can
    be compared directly against the heuristic-chosen ones.
    """
    import shutil
    import tempfile

    from ..tuning import SweepDriver, best_rows, smoke_space

    scratch = None if journal_path else tempfile.mkdtemp(prefix="repro-sweep-")
    journal_path = journal_path or os.path.join(scratch, "sweep.jsonl")
    driver = SweepDriver(smoke_space(), journal_path=journal_path,
                         report_path=report_path)
    result = driver.run()
    if not result["complete"]:
        raise RuntimeError("autotuning sweep was interrupted before "
                           "completing; resume it with the same journal: "
                           f"{journal_path}")
    if scratch:
        shutil.rmtree(scratch, ignore_errors=True)
    return best_rows(result["report"])


def fig14_rows() -> List[Dict]:
    rows = []
    for m, n, k in fig14_problems():
        row: Dict = {"dims": f"{m}_{n}_{k}"}
        for flow in ("As", "Bs", "Cs"):
            choice = square_tile_configuration(
                m, n, k, flow, FIG14_QUANTUM, FIG14_CAPACITY
            )
            counters = measure_generated_matmul(
                m, n, k, 16, 4, flow, accel_size=choice.tiles,
            )
            row[f"{flow}-squareTile_ms"] = counters.task_clock_ms()
        best = best_configuration(m, n, k, FIG14_QUANTUM, FIG14_CAPACITY)
        counters = measure_generated_matmul(
            m, n, k, 16, 4, best.flow, accel_size=best.tiles,
        )
        row["Best_ms"] = counters.task_clock_ms()
        row["Best_config"] = best.label()
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 16 — ResNet18 convolution layers
# ---------------------------------------------------------------------------

def fig16_layers():
    if full_scale():
        return list(RESNET18_LAYERS)
    return [scaled_layer(layer) for layer in RESNET18_LAYERS]


def fig16_rows() -> List[Dict]:
    """Per-layer manual vs generated conv, measured as *model* runs.

    Both implementations execute the full layer sequence back-to-back
    on one shared board each (fig16 is a network, not eleven isolated
    kernels), so every layer after the first sees the realistically
    warm cache its predecessors left behind; the two model legs run in
    parallel on the replay worker pool.
    """
    layers = tuple(fig16_layers())
    manual_counters, generated_counters = conv_model_counters(layers)
    rows = []
    for original, manual, generated in zip(
        RESNET18_LAYERS, manual_counters, generated_counters
    ):
        normalized = generated.normalized_to(manual)
        rows.append({
            "layer": original.label,
            "branch_instructions": normalized["branch-instructions"],
            "cache_references": normalized["cache-references"],
            "task_clock": normalized["task-clock"],
            "speedup": manual.task_clock_ms() / generated.task_clock_ms(),
        })
    return rows


# ---------------------------------------------------------------------------
# Fig. 17 — TinyBERT end to end
# ---------------------------------------------------------------------------

def _cpu_mac_seconds(macs: float, timing: TimingModel) -> float:
    return macs * timing.cpu_cycles_per_mac / timing.cpu_freq_hz


def _fig17_specs(shapes, strategy: str) -> tuple:
    """The ordered matmul-kernel configs one fig17 strategy executes."""
    specs = []
    for shape in shapes:
        m, n, k = shape.padded(FIG14_QUANTUM)
        if strategy == "Ns-SquareTile":
            choice = square_tile_configuration(
                m, n, k, "Ns", FIG14_QUANTUM, FIG14_CAPACITY
            )
            flow, tiles = "Ns", choice.tiles
        else:
            best = best_configuration(m, n, k, FIG14_QUANTUM,
                                      FIG14_CAPACITY)
            flow, tiles = best.flow, best.tiles
        specs.append((m, n, k, 16, 4, flow, tiles))
    return tuple(specs)


def fig17_rows(config: TinyBertConfig = TinyBertConfig()) -> List[Dict]:
    """End-to-end TinyBERT time decomposition per compilation strategy.

    Each strategy's matmul schedule runs as one model on a shared
    board (warm-state carry between consecutive matmuls); the two
    strategies run in parallel on the replay worker pool.
    """
    timing = make_pynq_z2().timing
    shapes = tinybert_matmul_shapes(config)
    other_s = _cpu_mac_seconds(other_layer_macs(config), timing)
    attn_s = _cpu_mac_seconds(attention_matmul_macs(config), timing)

    strategy_specs = {
        strategy: _fig17_specs(shapes, strategy)
        for strategy in ("Ns-SquareTile", "AXI4MLIR Best")
    }
    counters_by_strategy = dict(zip(
        strategy_specs,
        matmul_model_counters(*strategy_specs.values()),
    ))

    def gemm_cpu_seconds() -> float:
        return sum(_cpu_mac_seconds(s.macs, timing) for s in shapes)

    def gemm_accel_seconds(strategy: str) -> float:
        return sum(
            counters.task_clock_ms() / 1e3 * shape.count
            for shape, counters in zip(shapes, counters_by_strategy[strategy])
        )

    cpu_total = other_s + attn_s + gemm_cpu_seconds()
    rows = [{
        "strategy": "CPU (MLIR)",
        "other_layers_s": other_s,
        "matmuls_cpu_s": attn_s + gemm_cpu_seconds(),
        "matmuls_acc_s": 0.0,
        "e2e_s": cpu_total,
        "e2e_speedup": 1.0,
        "matmul_speedup": 1.0,
    }]
    for strategy in ("Ns-SquareTile", "AXI4MLIR Best"):
        accel_s = gemm_accel_seconds(strategy)
        total = other_s + attn_s + accel_s
        rows.append({
            "strategy": strategy,
            "other_layers_s": other_s,
            "matmuls_cpu_s": attn_s,
            "matmuls_acc_s": accel_s,
            "e2e_s": total,
            "e2e_speedup": cpu_total / total,
            "matmul_speedup": gemm_cpu_seconds() / accel_s,
        })
    return rows
