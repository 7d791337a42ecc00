"""Catalog: accelerator instances paired with their configuration files.

``matmul_config_dict`` produces exactly the JSON structure of paper
Fig. 5, so building a system from the catalog exercises the same parsing
path a user's hand-written configuration file would.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..accel_config import AcceleratorInfo, parse_accelerator
from .conv import ConvAccelerator
from .matmul import MatMulAccelerator

#: Flow strategies supported per version (paper Table I "possible reuse").
VERSION_FLOWS: Dict[int, Tuple[str, ...]] = {
    1: ("Ns",),
    2: ("Ns", "As", "Bs"),
    3: ("Ns", "As", "Bs", "Cs"),
    4: ("Ns", "As", "Bs", "Cs"),
}

_FLOW_STRINGS_V1 = {"Ns": "(sAsBcCrC)"}
_FLOW_STRINGS_V2 = {
    "Ns": "(sA sB cCrC)",
    "As": "(sA (sB cCrC))",
    "Bs": "(sB (sA cCrC))",
}
_FLOW_STRINGS_V3 = {
    "Ns": "(sA sB cC rC)",
    "As": "(sA (sB cC rC))",
    "Bs": "(sB (sA cC rC))",
    "Cs": "((sA sB cC) rC)",
}

_OPCODE_MAP_V1 = (
    "opcode_map < "
    "sAsBcCrC = [send_literal(0x21), send(0), send(1), recv(2)], "
    "reset = [send_literal(0xFF)] >"
)
_OPCODE_MAP_V2 = (
    "opcode_map < "
    "sA = [send_literal(0x22), send(0)], "
    "sB = [send_literal(0x23), send(1)], "
    "cCrC = [send_literal(0x26), recv(2)], "
    "reset = [send_literal(0xFF)] >"
)
_OPCODE_MAP_V3 = (
    "opcode_map < "
    "sA = [send_literal(0x22), send(0)], "
    "sB = [send_literal(0x23), send(1)], "
    "cC = [send_literal(0xF0)], "
    "rC = [send_literal(0x24), recv(2)], "
    "reset = [send_literal(0xFF)] >"
)
_OPCODE_MAP_V4 = _OPCODE_MAP_V3[:-1] + (
    ", cfg = [send_literal(0x30), send_dim(0, 0), send_dim(1, 1), "
    "send_dim(0, 1)] >"
)


def matmul_config_dict(
    version: int,
    size: int,
    flow: str = "Ns",
    data_type: str = "int32",
    accel_size: Optional[Sequence[int]] = None,
) -> dict:
    """The Fig. 5-style configuration entry for one Table I accelerator."""
    if version not in VERSION_FLOWS:
        raise ValueError(f"unknown accelerator version v{version}")
    if flow not in VERSION_FLOWS[version]:
        raise ValueError(
            f"v{version} supports flows {VERSION_FLOWS[version]}, not {flow!r}"
        )
    opcode_map = {
        1: _OPCODE_MAP_V1, 2: _OPCODE_MAP_V2,
        3: _OPCODE_MAP_V3, 4: _OPCODE_MAP_V4,
    }[version]
    flows = {
        1: _FLOW_STRINGS_V1, 2: _FLOW_STRINGS_V2,
        3: _FLOW_STRINGS_V3, 4: _FLOW_STRINGS_V3,
    }[version]
    sizes = list(accel_size) if accel_size is not None else [size] * 3
    config = {
        "name": f"matmul_v{version}_{size}",
        "version": f"{version}.0",
        "description": f"Table I v{version} MatMul accelerator, size {size}",
        "kernel": "linalg.matmul",
        "accel_size": sizes,
        "data_type": data_type,
        "dims": ["m", "n", "k"],
        "data": {"A": ["m", "k"], "B": ["k", "n"], "C": ["m", "n"]},
        "opcode_map": opcode_map,
        "opcode_flow_map": dict(flows),
        "selected_flow": flow,
        "init_opcodes": "(cfg)" if version == 4 else "(reset)",
        "dma_config": {
            "id": 0,
            "inputAddress": 0x4000_0000,
            "inputBufferSize": 0x2_0000,
            "outputAddress": 0x4010_0000,
            "outputBufferSize": 0x2_0000,
        },
    }
    if version == 4:
        config["flexible_size"] = True
        config["flex_quantum"] = size
        config["buffer_capacity"] = 16 * size * size
    return config


@lru_cache(maxsize=256)
def _matmul_info(version: int, size: int, flow: str, data_type: str,
                 accel_size: Optional[Tuple[int, ...]]) -> AcceleratorInfo:
    # AcceleratorInfo is frozen all the way down, so one parse serves
    # every caller asking for the same entry.
    return parse_accelerator(matmul_config_dict(
        version, size, flow, data_type=data_type, accel_size=accel_size))


def make_matmul_system(
    version: int,
    size: int,
    flow: str = "Ns",
    dtype=np.int32,
    accel_size: Optional[Sequence[int]] = None,
) -> Tuple[MatMulAccelerator, AcceleratorInfo]:
    """Fresh hardware model + shared parsed config for a catalog entry."""
    config = _matmul_info(
        version, size, flow, np.dtype(dtype).name,
        tuple(accel_size) if accel_size is not None else None)
    hardware = MatMulAccelerator(size, version, dtype=dtype)
    return hardware, config


_CONV_OPCODE_MAP = (
    "opcode_map < "
    "sIcO = [send_literal(70), send(0)], "
    "sF = [send_literal(1), send(1)], "
    "rO = [send_literal(8), recv(2)], "
    "rst = [send_literal(32), send_dim(1, 3), "
    "send_literal(16), send_dim(0, 1)] >"
)


def conv_config_dict(ic: int, fhw: int, data_type: str = "int32") -> dict:
    """Configuration for the Sec. IV-D convolution accelerator.

    ``accel_size`` over dims (b, oh, ow, ic, oc, fh, fw) is
    ``(0, 0, 0, iC, 1, fH, fW)``: the device consumes the full channel
    depth and filter window, produces one output channel per iteration,
    and leaves batch/spatial tiling to the host (Fig. 15a).
    """
    return {
        "name": f"conv2d_ic{ic}_f{fhw}",
        "version": "1.0",
        "description": "SECDA-style output/filter-stationary Conv2D engine",
        "kernel": "linalg.conv_2d_nchw_fchw",
        "accel_size": [0, 0, 0, ic, 1, fhw, fhw],
        "data_type": data_type,
        # Dim names follow the kernel's canonical loop names (n = batch,
        # f = output channel, c = input channel), i.e. the paper's
        # (B, H, W, iC, oC, fH, fW) in Fig. 15a.
        "dims": ["n", "oh", "ow", "c", "f", "fh", "fw"],
        "data": {
            "I": ["n", "c", "oh", "ow", "fh", "fw"],
            "W": ["f", "c", "fh", "fw"],
            "O": ["n", "f", "oh", "ow"],
        },
        "opcode_map": _CONV_OPCODE_MAP,
        "opcode_flow_map": {"FOs": "(sF (sIcO) rO)"},
        "selected_flow": "FOs",
        "init_opcodes": "(rst)",
        # Fig. 15b iterates batch outermost, then output channels.
        "loop_permutation": ["n", "f", "oh", "ow"],
        "dma_config": {
            "id": 0,
            "inputAddress": 0x4000_0000,
            "inputBufferSize": 0x2_0000,
            "outputAddress": 0x4010_0000,
            "outputBufferSize": 0x2_0000,
        },
    }


@lru_cache(maxsize=256)
def _conv_info(ic: int, fhw: int, data_type: str) -> AcceleratorInfo:
    return parse_accelerator(conv_config_dict(ic, fhw, data_type=data_type))


def make_conv_system(
    ic: int, fhw: int, dtype=np.int32, max_slice: int = 128 * 128,
) -> Tuple[ConvAccelerator, AcceleratorInfo]:
    config = _conv_info(ic, fhw, np.dtype(dtype).name)
    hardware = ConvAccelerator(max_ic=max(ic, 1), max_fhw=max(fhw, 1),
                               max_slice=max_slice, dtype=dtype)
    return hardware, config
