"""Tile-based MatMul accelerators v1-v4 (paper Table I).

All four versions share the same primitive datapath — load A tile, load B
tile, multiply-accumulate into an internal C buffer, stream C out — and
differ in which composite opcodes their control unit accepts, which is
exactly what determines the data-reuse (stationary) flows the host can
drive:

========  ===============  ============================  ================
Version   Possible reuse   Opcodes                       Size behaviour
========  ===============  ============================  ================
v1        Nothing          ``sAsBcCrC``                  fixed square
v2        Inputs           ``sA``, ``sB``, ``cCrC``      fixed square
v3        Ins/Out          ``sA``, ``sB``, ``cC``,       fixed square
                           ``rC``
v4        Ins/Out          v3 plus ``cfg``               flexible tiles
========  ===============  ============================  ================

Throughput follows Table I: (size, OPs/cycle) = (4, 10), (8, 60),
(16, 112).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..numerics import float64_exact_bound
from ..soc.timing import matmul_ops_per_cycle
from .base import StreamAccelerator

#: Opcode literals shared by the whole family (and the configs/codegen).
MATMUL_LITERALS: Dict[str, int] = {
    "sAsBcCrC": 0x21,
    "sA": 0x22,
    "sB": 0x23,
    "rC": 0x24,
    "sBcCrC": 0x25,
    "cCrC": 0x26,
    "sAcCrC": 0x27,
    "cfg": 0x30,
    "cC": 0xF0,
    "reset": 0xFF,
}

#: Primitive micro-op sequences implementing each composite opcode.
_MICRO_OPS: Dict[str, Tuple[str, ...]] = {
    "sAsBcCrC": ("load_a", "load_b", "compute", "push_c"),
    "sA": ("load_a",),
    "sB": ("load_b",),
    "cC": ("compute",),
    "rC": ("push_c",),
    "cCrC": ("compute", "push_c"),
    "sBcCrC": ("load_b", "compute", "push_c"),
    "sAcCrC": ("load_a", "compute", "push_c"),
    "cfg": ("configure",),
    "reset": ("reset",),
}

#: Opcode names accepted by each accelerator version.
VERSION_OPCODES: Dict[int, Tuple[str, ...]] = {
    1: ("sAsBcCrC", "reset"),
    2: ("sA", "sB", "cCrC", "sBcCrC", "sAcCrC", "reset"),
    3: ("sA", "sB", "cC", "rC", "reset"),
    4: ("sA", "sB", "cC", "rC", "cfg", "reset"),
}


class MatMulAccelerator(StreamAccelerator):
    """Behavioural model of one Table I accelerator instance.

    ``size`` is the native square tile extent.  ``version`` selects the
    accepted opcode set.  v4 instances honour the ``cfg`` instruction,
    which re-programs the (tM, tN, tK) tile extents at run time subject
    to per-buffer capacity and the size quantum.
    """

    def __init__(self, size: int, version: int, dtype=np.int32):
        if version not in VERSION_OPCODES:
            raise ValueError(f"unknown accelerator version v{version}")
        super().__init__(f"matmul_v{version}_{size}")
        self.size = size
        self.version = version
        self.dtype = np.dtype(dtype)
        if self.dtype.itemsize != 4:
            raise ValueError("accelerators stream 32-bit elements")
        self.ops_per_cycle = matmul_ops_per_cycle(size)
        self.flexible = version == 4
        #: Per-operand buffer capacity in elements; v4 allows rectangular
        #: tiles as long as each operand fits (16*size^2 elements).
        self.buffer_capacity = (16 * size * size if self.flexible
                                else size * size)
        self.size_quantum = size if self.flexible else 1
        self.tile_m = size
        self.tile_n = size
        self.tile_k = size
        self._a = np.zeros((self.tile_m, self.tile_k), self.dtype)
        self._b = np.zeros((self.tile_k, self.tile_n), self.dtype)
        self._c = np.zeros((self.tile_m, self.tile_n), self.dtype)
        primitives = {
            "load_a": self._load_a,
            "load_b": self._load_b,
            "compute": self._compute,
            "push_c": self._push_c,
            "configure": self._configure,
            "reset": self._reset,
        }
        for opcode_name in VERSION_OPCODES[version]:
            sequence = _MICRO_OPS[opcode_name]
            if len(sequence) == 1:
                # Single-primitive opcodes dispatch straight to the
                # primitive (the hot case: sA/sB/cC/rC).
                handler = primitives[sequence[0]]
            else:
                def handler(seq=tuple(primitives[p] for p in sequence)
                            ) -> float:
                    total = 0.0
                    for primitive in seq:
                        total += primitive()
                    return total

            self.register_opcode(MATMUL_LITERALS[opcode_name], handler)
        self._refresh_needs()

    def _refresh_needs(self) -> None:
        """Recompute per-opcode data-word counts (tile-size dependent)."""
        for opcode_name in VERSION_OPCODES[self.version]:
            total = 0
            for primitive in _MICRO_OPS[opcode_name]:
                if primitive == "load_a":
                    total += self.tile_m * self.tile_k
                elif primitive == "load_b":
                    total += self.tile_k * self.tile_n
                elif primitive == "configure":
                    total += 3
            self._needs[MATMUL_LITERALS[opcode_name]] = total

    # -- primitives ---------------------------------------------------------
    def _load_a(self) -> float:
        words = self.read_words(self.tile_m * self.tile_k, self.dtype)
        self._a = words.reshape(self.tile_m, self.tile_k)
        return 0.0

    def _load_b(self) -> float:
        words = self.read_words(self.tile_k * self.tile_n, self.dtype)
        self._b = words.reshape(self.tile_k, self.tile_n)
        return 0.0

    def _compute(self) -> float:
        # In-place accumulate: _push_c hands the buffer off and installs
        # a fresh one, so the pushed array is never mutated afterwards.
        macs = self.tile_m * self.tile_n * self.tile_k
        a, b = self._a, self._b
        if macs >= 32768 and self.dtype.kind == "i" \
                and float64_exact_bound(self.tile_k, a, b):
            # Large tiles: int32 matmul has no BLAS kernel; the exact
            # float64 path's final cast wraps identically to int32
            # accumulation.
            self._c += (a.astype(np.float64)
                        @ b.astype(np.float64)).astype(np.int64)
            return 2.0 * macs / self.ops_per_cycle
        self._c += a @ b
        return 2.0 * macs / self.ops_per_cycle

    def _push_c(self) -> float:
        self.write_words(np.ascontiguousarray(self._c))
        self._c = np.zeros((self.tile_m, self.tile_n), self.dtype)
        return 0.0

    def _configure(self) -> float:
        tile_m, tile_n, tile_k = (int(w) for w in self.read_words(3))
        for label, value in (("tM", tile_m), ("tN", tile_n), ("tK", tile_k)):
            if value <= 0 or value % self.size_quantum:
                raise ValueError(
                    f"{self.name}: {label}={value} is not a positive "
                    f"multiple of {self.size_quantum}"
                )
        for label, elements in (
            ("A", tile_m * tile_k),
            ("B", tile_k * tile_n),
            ("C", tile_m * tile_n),
        ):
            if elements > self.buffer_capacity:
                raise ValueError(
                    f"{self.name}: {label} tile of {elements} elements "
                    f"exceeds buffer capacity {self.buffer_capacity}"
                )
        self.tile_m, self.tile_n, self.tile_k = tile_m, tile_n, tile_k
        self._refresh_needs()
        self._reset()
        return 0.0

    def _reset(self) -> float:
        self._a = np.zeros((self.tile_m, self.tile_k), self.dtype)
        self._b = np.zeros((self.tile_k, self.tile_n), self.dtype)
        self._c = np.zeros((self.tile_m, self.tile_n), self.dtype)
        return 0.0
