"""Seeded op lists, pools and the golden file's coverage."""

import copy
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import specs  # noqa: E402
from perfbench.worker import load_golden  # noqa: E402

OP_WORKLOADS = ("steady_replay", "per_tile_oracle", "service_closed_loop")


def test_same_seed_same_ops_other_seed_other_ops_pools_untouched():
    pools_before = copy.deepcopy(specs.POOLS)
    for workload in OP_WORKLOADS:
        first = specs.op_list_digest(specs.op_list(workload, 11))
        again = specs.op_list_digest(specs.op_list(workload, 11))
        other = specs.op_list_digest(specs.op_list(workload, 12))
        assert first == again
        assert first != other
    assert specs.POOLS == pools_before


def test_every_seed_does_the_same_work():
    for workload in OP_WORKLOADS:
        def census(seed):
            ops = specs.op_list(workload, seed)
            return sorted((op["spec"], op["tier"]) for op in ops)

        assert census(1) == census(2)
        assert len(census(1)) == specs.OPS_PER_REP[workload][0]


def test_oracle_interprets_every_fourth_op_and_service_is_zipf():
    oracle = specs.op_list("per_tile_oracle", 0)
    assert sum(op["tier"] == "interpreted" for op in oracle) * 4 \
        == len(oracle)
    counts = np.bincount([op["spec"]
                          for op in specs.op_list("service_closed_loop", 0)])
    assert len(counts) == len(specs.SERVICE_POOL)
    assert list(counts) == sorted(counts, reverse=True)
    assert counts[0] > 3 * counts[-1]


def test_inputs_depend_on_seed_and_references_are_exact():
    a = specs.make_inputs("hot", 0, 0, seed=1)
    b = specs.make_inputs("hot", 0, 0, seed=1)
    c = specs.make_inputs("hot", 0, 0, seed=2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    spec = specs.ORACLE_POOL[7]
    image, weights = specs.make_inputs("oracle", 7, 0, seed=3)
    out = specs.expected_output(spec, [image, weights])
    assert out.shape == specs.output_shape(spec)
    stride = spec["stride"]
    window = image[0, :, 2 * stride:2 * stride + 1, stride:stride + 1]
    assert out[0, 5, 2, 1] == int((window[:, 0, 0] * weights[5, :, 0, 0])
                                  .sum())


def test_golden_covers_every_pool_spec_figure_and_sweep_group():
    counters = load_golden("counters")
    for pool in specs.POOLS.values():
        for spec in pool:
            assert specs.spec_key(spec) in counters
            assert json.loads(specs.spec_key(spec)) == spec
    figures = load_golden("figures")
    for smoke, names in ((False, specs.FIGURE_OPS),
                         (True, specs.SMOKE_FIGURE_OPS)):
        for name in names:
            assert specs.figure_key(name, smoke) in figures
    sweep = load_golden("sweep")
    for m, n, k in specs.SWEEP_SHAPES:
        assert f"matmul-{m}x{n}x{k}" in sweep
    for m, n, k in specs.SMOKE_SWEEP_SHAPES:
        assert f"smoke.matmul-{m}x{n}x{k}" in sweep
