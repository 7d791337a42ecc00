"""A replay takes the accelerator as it finds it.

The flexible (v4) matmul and the conv accelerator run flows that write
their own configuration (``configure``; ``cfg_fsize`` / ``cfg_ic``), so
a repeat call finds the accelerator in the config the previous call
left.  The C decoders start from that config, so every call replays —
none is refused — and each is bit-identical to a per-tile twin with the
same history: counters, output bytes, board clock, both LRU digests and
the accelerator end state (config, last tiles, pending slice).

The spec pools are the benchmark's request pools, copied here so that
the test does not depend on the benchmark package.
"""

import numpy as np
import pytest

from repro.accelerators import ConvAccelerator, MatMulAccelerator
from repro.execution import TRACE_COUNTERS
from repro.execution.metrics import _cache_digest
from repro.experiments.harness import compile_request, request_shapes
from repro.soc import make_pynq_z2


def _matmul(m, n, k, version, size, flow, accel_size=(), **knobs):
    spec = {"kind": "matmul", "m": m, "n": n, "k": k, "version": version,
            "size": size, "flow": flow, **knobs}
    if accel_size:
        spec["accel_size"] = list(accel_size)
    return spec


def _conv(in_hw, in_ch, f_hw, out_ch, stride):
    return {"kind": "conv", "batch": 1, "in_ch": in_ch, "in_hw": in_hw,
            "out_ch": out_ch, "f_hw": f_hw, "stride": stride}


HOT_POOL = (
    _matmul(64, 64, 64, 1, 8, "Ns"),
    _matmul(64, 64, 64, 2, 8, "As"),
    _matmul(64, 64, 64, 3, 16, "Ns"),
    _matmul(128, 128, 128, 3, 16, "Cs"),
    _matmul(128, 32, 256, 4, 16, "Bs", accel_size=(32, 16, 32)),
    _matmul(64, 64, 64, 4, 16, "Cs", accel_size=(16, 16, 16)),
    _conv(8, 256, 3, 16, 1),
    _conv(13, 64, 3, 16, 2),
)

ORACLE_POOL = (
    _matmul(32, 32, 32, 1, 4, "Ns"),
    _matmul(64, 64, 64, 2, 8, "As"),
    _matmul(64, 64, 64, 3, 8, "Ns"),
    _matmul(64, 64, 64, 3, 16, "Cs"),
    _matmul(128, 32, 256, 4, 16, "Bs", accel_size=(32, 16, 32)),
    _matmul(64, 64, 64, 4, 16, "Cs", accel_size=(16, 16, 16)),
    _conv(6, 64, 3, 8, 1),
    _conv(9, 64, 1, 8, 2),
)

SERVICE_POOL = HOT_POOL + (
    _matmul(64, 64, 64, 2, 8, "Bs", cpu_tiling=False),
    _matmul(32, 32, 32, 3, 8, "As", specialized=False),
    _matmul(64, 64, 64, 3, 16, "Ns", permutation=["k", "n", "m"]),
    _matmul(32, 64, 32, 1, 8, "Ns"),
)


def _distinct(*pools):
    specs = []
    for spec in (spec for pool in pools for spec in pool):
        if spec not in specs:
            specs.append(spec)
    return specs


#: The 28 pool entries are 17 distinct requests.
POOL_SPECS = _distinct(HOT_POOL, ORACLE_POOL, SERVICE_POOL)


def _spec_id(spec):
    if spec["kind"] == "conv":
        return "conv-{in_hw}-{in_ch}-{f_hw}-{out_ch}-{stride}".format(**spec)
    knobs = "".join(f"-{key}" for key in
                    ("cpu_tiling", "specialized", "permutation")
                    if key in spec)
    return "v{version}-{size}-{flow}-{m}x{n}x{k}".format(**spec) + knobs


def _inputs(spec, rng):
    return [rng.integers(-7, 7, shape).astype(np.int32)
            for shape in request_shapes(spec)[0]]


def _accel_state(hw):
    if type(hw) is MatMulAccelerator:
        names = ("tile_m", "tile_n", "tile_k", "_a", "_b", "_c")
    else:
        names = ("ic", "fhw", "_filter", "_slice")
    state = {name: np.asarray(getattr(hw, name)).tolist() for name in names}
    state["stats"] = (hw.total_cycles, hw.instructions_executed)
    return state


def _board_state(board):
    return (board.clock, _cache_digest(board.caches.l1),
            _cache_digest(board.caches.l2))


def _call(board, request, hw, inputs, mode):
    """One call on ``board`` with ``hw`` attached; all that must agree."""
    board.attach_accelerator(hw)
    output = np.zeros(request.output_shape, np.int32)
    if mode == "interpreted":
        counters = request.kernel.run_interpreted(board, *inputs, output)
    else:
        counters = request.kernel.run(board, *inputs, output,
                                      trace=mode == "replay")
    return (counters.as_dict(), output.tobytes(), _accel_state(hw),
            _board_state(board))


@pytest.mark.usefixtures("clean_faults")
@pytest.mark.parametrize("spec", POOL_SPECS, ids=_spec_id)
def test_three_calls_replay_and_match_per_tile(spec):
    modes = ["replay", "per_tile"]
    if spec in ORACLE_POOL:
        modes.append("interpreted")
    sides = {mode: (make_pynq_z2(), compile_request(spec)) for mode in modes}
    rng = np.random.default_rng(7)
    refused = TRACE_COUNTERS["replay_refused"]
    for _ in range(3):
        inputs = _inputs(spec, rng)
        seen = {mode: _call(board, request, request.hw, inputs, mode)
                for mode, (board, request) in sides.items()}
        assert sides["replay"][1].kernel.trace_state.trace is not None
        for mode in modes[1:]:
            assert seen["replay"] == seen[mode], mode
    assert TRACE_COUNTERS["replay_refused"] == refused


#: Nine shapes over one shared v4 matmul and one shared conv
#: accelerator: the v4 requests configure three different tilings.
SEQUENCE_SPECS = (
    _matmul(64, 64, 64, 4, 16, "Cs", accel_size=(16, 16, 16)),
    _matmul(128, 32, 256, 4, 16, "Bs", accel_size=(32, 16, 32)),
    _matmul(32, 64, 32, 4, 16, "As", accel_size=(16, 32, 16)),
    _matmul(64, 32, 64, 4, 16, "Ns", accel_size=(16, 16, 16)),
    _matmul(32, 32, 64, 4, 16, "Cs", accel_size=(32, 32, 32)),
    _conv(6, 64, 3, 8, 1),
    _conv(9, 64, 1, 8, 2),
    _conv(8, 32, 3, 4, 1),
    _conv(7, 16, 2, 4, 2),
)


def _shared_accelerators():
    return {"matmul": MatMulAccelerator(16, 4),
            "conv": ConvAccelerator(max_ic=64, max_fhw=3, max_slice=64)}


@pytest.mark.usefixtures("clean_faults")
def test_a_seeded_sequence_on_shared_accelerators():
    requests = [compile_request(spec) for spec in SEQUENCE_SPECS]
    sides = {mode: (make_pynq_z2(), _shared_accelerators())
             for mode in ("replay", "per_tile")}
    rng = np.random.default_rng(2024)
    refused = TRACE_COUNTERS["replay_refused"]
    for index in rng.integers(0, len(SEQUENCE_SPECS), 40):
        spec, request = SEQUENCE_SPECS[index], requests[index]
        inputs = _inputs(spec, rng)
        seen = [_call(board, request, hws[spec["kind"]], inputs, mode)
                for mode, (board, hws) in sides.items()]
        assert request.kernel.trace_state.trace is not None
        assert seen[0] == seen[1], _spec_id(spec)
    assert TRACE_COUNTERS["replay_refused"] == refused


@pytest.mark.usefixtures("clean_faults")
def test_a_pending_conv_slice_is_refused_and_runs_per_tile():
    """A slice an earlier stream left pending is the one entry state the
    decoder cannot see: that call falls back per tile, with the same
    results as a per-tile twin, and the next call replays again."""
    spec = _conv(6, 64, 3, 8, 1)
    sides = {mode: (make_pynq_z2(), compile_request(spec))
             for mode in ("replay", "per_tile")}
    rng = np.random.default_rng(3)
    pending = [np.int32(5), np.int32(-2)]
    for _, request in sides.values():
        request.hw._slice = list(pending)
    for expect_refused in (1, 0):
        inputs = _inputs(spec, rng)
        refused = TRACE_COUNTERS["replay_refused"]
        seen = [_call(board, request, request.hw, inputs, mode)
                for mode, (board, request) in sides.items()]
        assert TRACE_COUNTERS["replay_refused"] == refused + expect_refused
        assert seen[0] == seen[1]
