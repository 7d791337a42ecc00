"""Reference interpreter for lowered host IR.

Executes ``scf`` / ``arith`` / ``memref`` / ``accel`` (and functional
``linalg``) operations directly against a :class:`~repro.runtime.AxiRuntime`.
The Python emitter (:mod:`repro.codegen`) is the fast path; this
interpreter defines the semantics, and tests assert both agree on
results *and* performance counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..dialects import accel, linalg
from ..ir.attributes import unwrap
from ..ir.core import Block, Operation, Value
from ..runtime import AxiRuntime, MemRefDescriptor


class InterpreterError(RuntimeError):
    pass


class Interpreter:
    """Executes one function body over bound argument values."""

    def __init__(self, runtime: Optional[AxiRuntime] = None,
                 charge_costs: bool = True):
        self.runtime = runtime
        self.charge_costs = charge_costs and runtime is not None
        self.env: Dict[Value, object] = {}

    # -- entry point ---------------------------------------------------------
    def run(self, func_op: Operation, args: Sequence[object]) -> List[object]:
        if func_op.name != "func.func":
            raise InterpreterError(f"expected func.func, got {func_op.name}")
        entry = func_op.regions[0].entry_block
        if len(args) != len(entry.arguments):
            raise InterpreterError(
                f"function takes {len(entry.arguments)} arguments, "
                f"got {len(args)}"
            )
        self.env = dict(zip(entry.arguments, args))
        return self._run_block(entry)

    # -- block / op dispatch ----------------------------------------------
    def _run_block(self, block: Block) -> List[object]:
        for op in block.operations:
            result = self._execute(op)
            if op.name == "func.return":
                return result
        return []

    def _value(self, value: Value):
        try:
            return self.env[value]
        except KeyError:
            raise InterpreterError(f"use of undefined value {value!r}") from None

    #: op name -> handler attribute name, filled on first use.  Loop
    #: bodies re-execute the same few op kinds thousands of times; the
    #: repeated name mangling showed up in profiles.  The handler itself
    #: is still fetched through getattr so subclass overrides and
    #: per-instance patches keep working.
    _handler_names: Dict[str, str] = {}

    def _execute(self, op: Operation):
        attr = self._handler_names.get(op.name)
        if attr is None:
            attr = "_op_" + op.name.replace(".", "_")
            self._handler_names[op.name] = attr
        handler = getattr(self, attr, None)
        if handler is None:
            raise InterpreterError(f"unsupported operation {op.name}")
        return handler(op)

    # -- func -----------------------------------------------------------------
    def _op_func_return(self, op: Operation):
        return [self._value(v) for v in op.operands]

    # -- arith ------------------------------------------------------------
    def _op_arith_constant(self, op: Operation):
        self.env[op.results[0]] = unwrap(op.get_attr("value"))

    def _binary(self, op: Operation, fn):
        lhs = self._value(op.operands[0])
        rhs = self._value(op.operands[1])
        self.env[op.results[0]] = fn(lhs, rhs)

    def _op_arith_addi(self, op):
        self._binary(op, lambda a, b: a + b)

    def _op_arith_subi(self, op):
        self._binary(op, lambda a, b: a - b)

    def _op_arith_muli(self, op):
        self._binary(op, lambda a, b: a * b)

    def _op_arith_minui(self, op):
        self._binary(op, min)

    def _op_arith_addf(self, op):
        self._binary(op, lambda a, b: a + b)

    def _op_arith_subf(self, op):
        self._binary(op, lambda a, b: a - b)

    def _op_arith_mulf(self, op):
        self._binary(op, lambda a, b: a * b)

    # -- scf ------------------------------------------------------------------
    def _op_scf_for(self, op: Operation):
        lower = int(self._value(op.operands[0]))
        upper = int(self._value(op.operands[1]))
        step = int(self._value(op.operands[2]))
        if step <= 0:
            raise InterpreterError(f"scf.for with non-positive step {step}")
        body = op.regions[0].entry_block
        iv = body.arguments[0]
        for value in range(lower, upper, step):
            if self.charge_costs:
                self.runtime.loop_iteration()
            self.env[iv] = value
            self._run_block(body)

    def _op_scf_yield(self, op: Operation):
        return None

    # -- memref -----------------------------------------------------------
    def _op_memref_alloc(self, op: Operation):
        memref_type = op.results[0].type
        dtype = np.float32 if str(memref_type.element_type) == "f32" \
            else np.int32
        array = np.zeros(memref_type.shape, dtype=dtype)
        if self.runtime is not None:
            desc = self.runtime.make_memref(array, "alloc")
        else:
            desc = MemRefDescriptor.from_numpy(array)
        self.env[op.results[0]] = desc

    def _op_memref_subview(self, op: Operation):
        source: MemRefDescriptor = self._value(op.operands[0])
        offsets = [int(self._value(v)) for v in op.operands[1:]]
        sizes = list(unwrap(op.get_attr("static_sizes")))
        if self.charge_costs:
            self.runtime.subview_setup()
        self.env[op.results[0]] = source.subview(offsets, sizes)

    def _op_memref_load(self, op: Operation):
        desc: MemRefDescriptor = self._value(op.operands[0])
        indices = [int(self._value(v)) for v in op.operands[1:]]
        self.env[op.results[0]] = desc.load(indices)

    def _op_memref_store(self, op: Operation):
        value = self._value(op.operands[0])
        desc: MemRefDescriptor = self._value(op.operands[1])
        indices = [int(self._value(v)) for v in op.operands[2:]]
        desc.store(value, indices)

    def _op_memref_dim(self, op: Operation):
        desc: MemRefDescriptor = self._value(op.operands[0])
        self.env[op.results[0]] = desc.sizes[int(unwrap(op.get_attr("index")))]

    # -- accel ------------------------------------------------------------
    def _require_runtime(self) -> AxiRuntime:
        if self.runtime is None:
            raise InterpreterError(
                "accel operations need a bound AxiRuntime"
            )
        return self.runtime

    def _op_accel_dma_init(self, op: Operation):
        rt = self._require_runtime()
        args = [int(self._value(v)) for v in op.operands]
        rt.dma_init(*args)

    def _op_accel_send_literal(self, op: Operation):
        rt = self._require_runtime()
        literal = int(self._value(op.operands[0]))
        offset = int(self._value(op.operands[1]))
        self.env[op.results[0]] = rt.send_literal(literal, offset)

    def _op_accel_send(self, op: Operation):
        rt = self._require_runtime()
        desc = self._value(op.operands[0])
        offset = int(self._value(op.operands[1]))
        self.env[op.results[0]] = rt.send_memref(desc, offset)

    def _op_accel_send_dim(self, op: Operation):
        rt = self._require_runtime()
        desc = self._value(op.operands[0])
        dim = int(self._value(op.operands[1]))
        offset = int(self._value(op.operands[2]))
        self.env[op.results[0]] = rt.send_dim(desc, dim, offset)

    def _op_accel_send_idx(self, op: Operation):
        rt = self._require_runtime()
        value = int(self._value(op.operands[0]))
        offset = int(self._value(op.operands[1]))
        self.env[op.results[0]] = rt.send_idx(value, offset)

    def _op_accel_flush_send(self, op: Operation):
        rt = self._require_runtime()
        offset = int(self._value(op.operands[0]))
        self.env[op.results[0]] = rt.flush_send(offset)

    def _op_accel_recv(self, op: Operation):
        rt = self._require_runtime()
        desc = self._value(op.operands[0])
        offset = int(self._value(op.operands[1]))
        accumulate = accel.recv_mode(op) == accel.RECV_ACCUMULATE
        rt.recv_memref(desc, offset, accumulate=accumulate)

    # -- linalg (functional fallback for CPU-side ops) ---------------------
    def _op_linalg_generic(self, op: Operation):
        name = linalg.kernel_name(op)
        operands = [self._value(v) for v in op.operands]
        views = [d.view() for d in operands]
        if name == "linalg.matmul":
            a, b_, c = views
            c += a @ b_
            return
        if name == "linalg.conv_2d_nchw_fchw":
            self._conv_reference(op, views)
            return
        raise InterpreterError(
            "only matmul/conv linalg.generic fallbacks are supported"
        )

    def _conv_reference(self, op: Operation, views) -> None:
        image, weights, out = views
        maps = linalg.indexing_maps(op)
        stride = 1
        for expr in maps[0].results:
            terms = linalg.linear_form(expr)[0]
            if len(terms) == 2:
                stride = max(terms.values())
                break
        batch, out_ch, out_h, out_w = out.shape
        _, in_ch, f_h, f_w = weights.shape
        for n in range(batch):
            for f in range(out_ch):
                for oh in range(out_h):
                    for ow in range(out_w):
                        window = image[
                            n, :, oh * stride:oh * stride + f_h,
                            ow * stride:ow * stride + f_w,
                        ]
                        out[n, f, oh, ow] += np.sum(window * weights[f])

    def _op_linalg_yield(self, op: Operation):
        return None


def interpret_function(func_op: Operation, args: Sequence[object],
                       runtime: Optional[AxiRuntime] = None,
                       charge_costs: bool = True) -> List[object]:
    """Convenience wrapper: run one function with bound arguments."""
    return Interpreter(runtime, charge_costs).run(func_op, args)
