"""Fixed spec pools and the seeded op lists drawn from them.

A spec is a dict in the compile/simulate service's request vocabulary
(``kind``, shape, ``version``/``size``/``flow``/``accel_size``, lowering
knobs) without ``inputs``.  The pools never change with the seed: the
seed picks the order of the ops, which input set each op uses, and the
input data.  How often each spec appears is fixed by the pool weights,
so every seed does the same amount of work and two seeds differ only by
noise — that is what lets runs with different seeds be compared.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence, Tuple

import numpy as np


def _matmul(m: int, n: int, k: int, version: int, size: int, flow: str,
            accel_size: Sequence[int] = (), **knobs) -> dict:
    spec = {"kind": "matmul", "m": m, "n": n, "k": k, "version": version,
            "size": size, "flow": flow, **knobs}
    if accel_size:
        spec["accel_size"] = list(accel_size)
    return spec


def _conv(in_hw: int, in_ch: int, f_hw: int, out_ch: int,
          stride: int) -> dict:
    return {"kind": "conv", "batch": 1, "in_ch": in_ch, "in_hw": in_hw,
            "out_ch": out_ch, "f_hw": f_hw, "stride": stride}


#: Eight kernels kept hot in ``steady_replay``: one per accelerator
#: version and flow family, the flexible v4 with 16x16x16-class tiles,
#: and two ResNet18 conv layers at the figure suite's reduced scale.
HOT_POOL: Tuple[dict, ...] = (
    _matmul(64, 64, 64, 1, 8, "Ns"),
    _matmul(64, 64, 64, 2, 8, "As"),
    _matmul(64, 64, 64, 3, 16, "Ns"),
    _matmul(128, 128, 128, 3, 16, "Cs"),
    _matmul(128, 32, 256, 4, 16, "Bs", accel_size=(32, 16, 32)),
    _matmul(64, 64, 64, 4, 16, "Cs", accel_size=(16, 16, 16)),
    _conv(8, 256, 3, 16, 1),
    _conv(13, 64, 3, 16, 2),
)

#: The same families at the smallest shapes that still give the
#: per-tile driver and the interpreter hundreds of tiles to walk
#: (tens of milliseconds per op).
ORACLE_POOL: Tuple[dict, ...] = (
    _matmul(32, 32, 32, 1, 4, "Ns"),
    _matmul(64, 64, 64, 2, 8, "As"),
    _matmul(64, 64, 64, 3, 8, "Ns"),
    _matmul(64, 64, 64, 3, 16, "Cs"),
    _matmul(128, 32, 256, 4, 16, "Bs", accel_size=(32, 16, 32)),
    _matmul(64, 64, 64, 4, 16, "Cs", accel_size=(16, 16, 16)),
    _conv(6, 64, 3, 8, 1),
    _conv(9, 64, 1, 8, 2),
)

#: What the service's tenants ask for: the hot kernels plus the lowering
#: knobs only requests can set (host tiling off, generic copies, a
#: permuted loop order) and one rectangular problem.
SERVICE_POOL: Tuple[dict, ...] = HOT_POOL + (
    _matmul(64, 64, 64, 2, 8, "Bs", cpu_tiling=False),
    _matmul(32, 32, 32, 3, 8, "As", specialized=False),
    _matmul(64, 64, 64, 3, 16, "Ns", permutation=["k", "n", "m"]),
    _matmul(32, 64, 32, 1, 8, "Ns"),
)

POOLS: Dict[str, Tuple[dict, ...]] = {
    "hot": HOT_POOL, "oracle": ORACLE_POOL, "service": SERVICE_POOL,
}

#: Input sets per spec: identical requests recur (and may coalesce in
#: the service) but no kernel sees one fixed operand pair.
INPUT_SETS = {"hot": 8, "oracle": 2, "service": 4}

#: The eight row generators of the figure suite.  ``fig17_rows`` takes
#: a shorter TinyBERT sequence (see ``figure_arguments``): at the
#: default 2x128 tokens it alone is a third of the suite, and three
#: cold repetitions would not fit the run budget.
FIGURE_OPS: Tuple[str, ...] = (
    "table1_rows", "fig10_rows", "fig11_rows", "fig12_rows", "fig13_rows",
    "fig14_rows", "fig16_rows", "fig17_rows",
)
SMOKE_FIGURE_OPS: Tuple[str, ...] = ("table1_rows", "fig12_rows")

#: Sweep shapes (one report group each), small enough that three fresh
#: sweeps of ~530 points fit the run budget.
SWEEP_SHAPES: Tuple[Tuple[int, int, int], ...] = ((8, 8, 8), (16, 16, 16))
SMOKE_SWEEP_SHAPES: Tuple[Tuple[int, int, int], ...] = ((8, 8, 8),)

#: (ops per repetition, smoke ops) of the op-list workloads: about a
#: second of work each, so a run holds many repetitions and the median
#: over them shrugs off the sandbox's seconds-long slow phases, while
#: 25 latency samples still lie beyond each repetition's p95.
OPS_PER_REP = {"steady_replay": (500, 16), "per_tile_oracle": (48, 8),
               "service_closed_loop": (500, 24)}
WORKLOAD_POOL = {"steady_replay": "hot", "per_tile_oracle": "oracle",
                 "service_closed_loop": "service"}
ZIPF_EXPONENT = 1.1


def spec_key(spec: dict) -> str:
    """Canonical text of a spec: the golden file's key."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def figure_arguments(name: str, smoke: bool) -> tuple:
    """Positional arguments for one row generator (imports ``repro``)."""
    if name == "fig17_rows":
        from repro.frontends.tinybert import TinyBertConfig

        return (TinyBertConfig(seq_len=32, batch=1),)
    if name == "fig12_rows" and smoke:
        return (32, 8, 3)
    return ()


def figure_key(name: str, smoke: bool) -> str:
    return f"smoke.{name}" if smoke and name == "fig12_rows" else name


def sweep_space(seed: int, smoke: bool):
    """The swept grid; the seed only orders the shapes."""
    from repro.tuning import SweepSpace

    shapes = list(SMOKE_SWEEP_SHAPES if smoke else SWEEP_SHAPES)
    np.random.default_rng([seed, 5]).shuffle(shapes)
    if smoke:
        return SweepSpace(shapes=tuple(shapes), versions=(1, 2),
                          sizes=(4,), cpu_tiling_options=(False, True))
    return SweepSpace(shapes=tuple(shapes), versions=(1, 2, 3, 4),
                      sizes=(4, 8), permutations=(("k", "n", "m"),),
                      cpu_tiling_options=(False, True))


# -- seeded op lists --------------------------------------------------------

def _apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Integer counts summing to ``total``, by largest remainder."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(weights)),
                   key=lambda i: (counts[i] - exact[i], i))
    for index in order[:total - sum(counts)]:
        counts[index] += 1
    return counts


def op_list(workload: str, seed: int, smoke: bool = False) -> List[dict]:
    """The ops of one repetition: ``{"spec", "set", "tier"}`` each.

    ``spec`` indexes the workload's pool, ``set`` its input set, and
    ``tier`` is how the op executes: ``replay`` (the default
    ``CompiledKernel.run``), ``per_tile`` (``trace=False``),
    ``interpreted`` (``run_interpreted``) or ``rpc`` (``ServiceClient``).
    """
    pool = POOLS[WORKLOAD_POOL[workload]]
    total = OPS_PER_REP[workload][1 if smoke else 0]
    if workload == "service_closed_loop":
        weights = [1.0 / rank ** ZIPF_EXPONENT
                   for rank in range(1, len(pool) + 1)]
    else:
        weights = [1.0] * len(pool)
    ops = []
    for index, count in enumerate(_apportion(total, weights)):
        for occurrence in range(count):
            tier = "replay"
            if workload == "per_tile_oracle":
                tier = "interpreted" if (index + occurrence) % 4 == 3 \
                    else "per_tile"
            elif workload == "service_closed_loop":
                tier = "rpc"
            ops.append({"spec": index, "set": 0, "tier": tier})
    rng = np.random.default_rng([seed, len(ops)])
    rng.shuffle(ops)
    sets = rng.integers(0, INPUT_SETS[WORKLOAD_POOL[workload]], len(ops))
    for op, chosen in zip(ops, sets.tolist()):
        op["set"] = chosen
    return ops


def op_list_digest(ops: Sequence[dict]) -> str:
    body = json.dumps(list(ops), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


# -- input data and numpy references ----------------------------------------

def input_shapes(spec: dict) -> List[Tuple[int, ...]]:
    if spec["kind"] == "matmul":
        return [(spec["m"], spec["k"]), (spec["k"], spec["n"])]
    return [(spec["batch"], spec["in_ch"], spec["in_hw"], spec["in_hw"]),
            (spec["out_ch"], spec["in_ch"], spec["f_hw"], spec["f_hw"])]


def output_shape(spec: dict) -> Tuple[int, ...]:
    if spec["kind"] == "matmul":
        return (spec["m"], spec["n"])
    out_hw = (spec["in_hw"] - spec["f_hw"]) // spec["stride"] + 1
    return (spec["batch"], spec["out_ch"], out_hw, out_hw)


def make_inputs(pool: str, index: int, set_index: int,
                seed: int) -> List[np.ndarray]:
    """Seeded int32 operands, bounded so float64 references are exact."""
    spec = POOLS[pool][index]
    rng = np.random.default_rng(
        [seed, sorted(POOLS).index(pool), index, set_index])
    bound = 7 if spec["kind"] == "matmul" else 4
    return [rng.integers(-bound, bound, shape).astype(np.int32)
            for shape in input_shapes(spec)]


def expected_output(spec: dict, inputs: Sequence[np.ndarray]) -> np.ndarray:
    """The numpy reference the simulated output must equal."""
    if spec["kind"] == "matmul":
        a, b = inputs
        return (a.astype(np.float64) @ b.astype(np.float64)) \
            .astype(np.int32)
    image, weights = inputs
    f_hw, stride = spec["f_hw"], spec["stride"]
    windows = np.lib.stride_tricks.sliding_window_view(
        image.astype(np.int64), (f_hw, f_hw), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    return np.einsum("bcyxij,ocij->boyx", windows,
                     weights.astype(np.int64)).astype(np.int32)
