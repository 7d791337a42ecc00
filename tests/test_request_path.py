"""Every entry point runs a generated kernel through one request builder.

The figure measurements, the model legs, the sweep's points and the
service's requests all go from configuration to board through
:func:`repro.experiments.harness.compile_request`.  The contract under
test: for one configuration they return the same ``PerfCounters`` and
the same output, whichever entry point asked.
"""

import numpy as np

from repro.experiments.harness import (
    _conv_data,
    _conv_golden,
    expected_matmul,
    matmul_inputs,
    measure_generated_conv,
    measure_generated_matmul,
    request_shapes,
    run_conv_model,
    run_matmul_model,
)
from repro.frontends.resnet import ConvLayer
from repro.service import protocol
from repro.service.worker import run_request
from repro.tuning.driver import evaluate_point
from repro.tuning.space import SweepPoint

LAYER = ConvLayer(in_hw=8, in_ch=4, f_hw=3, out_ch=4, stride=1)


class TestEntryPointsAgree:
    def test_matmul(self):
        a, b = matmul_inputs(32, 32, 32)
        measured = measure_generated_matmul.__wrapped__(32, 32, 32, 8, 3,
                                                        "Ns")
        served, output = run_request({
            "kind": "matmul", "m": 32, "n": 32, "k": 32, "size": 8,
            "version": 3, "flow": "Ns", "inputs": [a, b]})
        outcome = evaluate_point(SweepPoint(
            32, 32, 32, 3, 8, "Ns", (8, 8, 8), cpu_tiling=True).spec())
        swept = protocol.decode_value(outcome["counters"])
        modelled = run_matmul_model(((32, 32, 32, 8, 3, "Ns", None),))[0]
        assert np.array_equal(output, expected_matmul(a, b))
        assert measured.as_dict() == served.as_dict() == swept.as_dict() \
            == modelled.as_dict()

    def test_conv(self):
        image, weights = _conv_data(LAYER)
        measured = measure_generated_conv.__wrapped__(LAYER)
        served, output = run_request({
            "kind": "conv", "batch": 1, "in_ch": 4, "in_hw": 8,
            "out_ch": 4, "f_hw": 3, "stride": 1,
            "inputs": [image, weights]})
        modelled = run_conv_model((LAYER,), "generated")[0]
        assert np.array_equal(output, _conv_golden(LAYER))
        assert measured.as_dict() == served.as_dict() == modelled.as_dict()


class TestRequestShapes:
    def test_shapes_follow_the_spec(self):
        assert request_shapes({"kind": "matmul", "m": 4, "n": 8, "k": 16}) \
            == (((4, 16), (16, 8)), (4, 8))
        # stride 1 when absent; out_hw = (in_hw - f_hw) // stride + 1
        assert request_shapes({"kind": "conv", "batch": 2, "in_ch": 3,
                               "in_hw": 9, "out_ch": 5, "f_hw": 3}) \
            == (((2, 3, 9, 9), (5, 3, 3, 3)), (2, 5, 7, 7))
