"""Python host-code emitter (the runtime-replacement step, Fig. 4 step 5).

The paper lowers the ``accel`` dialect into C calls against the AXI DMA
library and compiles them into the application binary.  Here the same
lowering emits *Python source* whose calls target
:class:`~repro.runtime.AxiRuntime`; ``exec`` turns it into a callable
when the per-tile rung first runs it (a replay never does).  Generated
code is pure driver code — loops, subviews, staged sends, flushes,
receives — and is the artifact benchmarked as ``mlir_AXI4MLIR``.

The emitted text is kept human-readable (it is part of this library's
observable behaviour: examples print it), but is micro-optimized the
way a C compiler would: runtime library calls are bound to locals at
function entry (one attribute lookup per call site per *invocation*,
not per loop iteration), and loop-invariant values — ``arith.constant``
results and subview size tuples — are hoisted out of the loop nests::

    def matmul_call(rt, arg0, arg1, arg2):
        dma_init = rt.dma_init
        send_literal = rt.send_literal
        ...
        c0 = 0
        sz0 = (8, 8)
        dma_init(c0, c1, c2, c3, c2)
        for m in range(c0, c8, c9):
            loop_iteration()
            ...

Alongside the source, the emitter produces a *schedule side table*: a
nested description of the loop nest and every statement in each body —
runtime calls with their operand value names, subview offset forms,
``arith`` index computations, and the constant pool — with static
bounds where known.  Two consumers read it: the trace recorder
cross-checks a recorded schedule against :func:`schedule_event_count`
(event counts must match the loop-nest expansion), and the
ahead-of-time synthesizer (:mod:`repro.execution.synthesize`) expands
it directly into a replayable :class:`DriverTrace` without ever
executing the emitted driver.

The emitter also runs on IR a user hands ``compile_module`` as text: a
name it interpolates must be a plain identifier the driver does not
bind itself, and a value it formats as a literal must be a number.
Anything else is an :class:`EmitError`, never source.
"""

from __future__ import annotations

import keyword
import math
import re
from typing import Dict, List, Optional, Tuple

from ..dialects import accel
from ..ir.attributes import StringAttr, unwrap
from ..ir.core import Block, Operation, Value


class EmitError(RuntimeError):
    pass


#: Runtime-library methods the emitted code may call; each call site is
#: emitted against a local binding established at function entry.
_RT_METHODS = (
    "dma_init", "send_literal", "send_memref", "send_dim", "send_idx",
    "flush_send", "recv_memref", "loop_iteration", "subview_setup",
)

#: Schedule-table entries that expand to a recorded runtime-library
#: event (everything else — ``arith``, ``subview``, ``dim`` — is pure
#: host-side index computation the recorder never sees).
SCHEDULE_EVENT_OPS = frozenset(_RT_METHODS)

#: Names the emitted code binds or calls itself, and the shape of the
#: value names it generates (``arg0``, ``c3``, ``sub1``, ``off7``, ...):
#: no name taken from the IR may shadow one.
_BOUND_NAMES = frozenset(("rt", "range", "min") + _RT_METHODS)
_GENERATED_NAME = re.compile(r"(?:arg|c|v|sub|sz|d|off)[0-9]+")


def _identifier(name) -> str:
    """``name`` if it is safe to interpolate as a Python identifier."""
    if not isinstance(name, str) or not name.isidentifier() \
            or keyword.iskeyword(name) or name in _BOUND_NAMES \
            or _GENERATED_NAME.fullmatch(name):
        raise EmitError(f"{name!r} is not a usable driver identifier")
    return name


def _literal(value):
    """``value`` if its ``repr`` is a plain Python number literal."""
    if type(value) not in (int, float, bool) \
            or (type(value) is float and not math.isfinite(value)):
        raise EmitError(f"{value!r} is not a numeric literal")
    return value


class PythonEmitter:
    """Walks one lowered ``func.func`` and produces Python source."""

    def __init__(self, func_op: Operation):
        if func_op.name != "func.func":
            raise EmitError(f"expected func.func, got {func_op.name}")
        self.func_op = func_op
        self.names: Dict[Value, str] = {}
        self.lines: List[str] = []
        self.indent = 1
        self.counter = 0
        self.loop_names: List[str] = []
        #: Constant values by SSA value, for schedule bounds + hoisting.
        self.const_values: Dict[Value, object] = {}
        self._const_lines: List[str] = []
        self._size_tuples: Dict[Tuple[int, ...], str] = {}
        self._size_lines: List[str] = []
        self._used_methods: List[str] = []
        #: Nested schedule description (the side table).  ``constants``
        #: maps hoisted-constant names to their values; ``args`` lists
        #: the driver's memref argument names in order; body entries
        #: carry the emitted value names of their operands so the
        #: synthesizer can re-evaluate the loop nest symbolically.
        self.schedule: dict = {"op": "func", "constants": {}, "args": [],
                               "body": []}
        self._body_stack: List[list] = [self.schedule["body"]]

    # -- naming ----------------------------------------------------------
    def name_of(self, value: Value) -> str:
        name = self.names.get(value)
        if name is None:
            raise EmitError(f"value {value!r} used before definition")
        return name

    def fresh(self, value: Value, hint: str = "v") -> str:
        name = f"{hint}{self.counter}"
        self.counter += 1
        self.names[value] = name
        return name

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _rt(self, method: str) -> str:
        if method not in _RT_METHODS:
            raise EmitError(f"unknown runtime-library method {method!r}")
        if method not in self._used_methods:
            self._used_methods.append(method)
        return method

    def _size_tuple(self, sizes: Tuple[int, ...]) -> str:
        name = self._size_tuples.get(sizes)
        if name is None:
            name = f"sz{len(self._size_tuples)}"
            self._size_tuples[sizes] = name
            self._size_lines.append(f"    {name} = {sizes!r}")
        return name

    def _record(self, entry: dict) -> None:
        self._body_stack[-1].append(entry)

    # -- entry ------------------------------------------------------------
    def emit(self) -> str:
        func_name = _func_name(self.func_op)
        entry = self.func_op.regions[0].entry_block
        arg_names = []
        for i, argument in enumerate(entry.arguments):
            name = f"arg{i}"
            self.names[argument] = name
            arg_names.append(name)
        self.schedule["args"] = list(arg_names)
        header = f"def {func_name}(rt, {', '.join(arg_names)}):"
        self._hoist_constants(entry)
        if not entry.operations:
            self.line("pass")
        self._emit_block(entry)
        prelude = [
            f"    {method} = rt.{method}" for method in self._used_methods
        ]
        return "\n".join(
            [header] + prelude + self._const_lines + self._size_lines
            + self.lines
        ) + "\n"

    def _hoist_constants(self, block: Block) -> None:
        """Emit every ``arith.constant`` once, at function entry.

        Constants are pure and loop-invariant; the IR materializes them
        inside the loop bodies that use them, but re-binding them every
        iteration is wasted interpreter work in the hot driver loops.
        """
        for op in block.operations:
            if op.name == "arith.constant":
                value = _literal(unwrap(op.get_attr("value")))
                name = self.fresh(op.results[0], "c")
                self.const_values[op.results[0]] = value
                self.schedule["constants"][name] = value
                self._const_lines.append(f"    {name} = {value!r}")
            for region in op.regions:
                for inner in region.blocks:
                    self._hoist_constants(inner)

    # -- blocks / ops ---------------------------------------------------------
    def _emit_block(self, block: Block) -> None:
        for op in block.operations:
            self._emit_op(op)

    #: op name -> handler attribute name (same memoized-mangling idiom
    #: as Interpreter._execute).
    _handler_names: Dict[str, str] = {}

    def _emit_op(self, op: Operation) -> None:
        attr = self._handler_names.get(op.name)
        if attr is None:
            attr = "_op_" + op.name.replace(".", "_")
            self._handler_names[op.name] = attr
        handler = getattr(self, attr, None)
        if handler is None:
            raise EmitError(f"cannot emit {op.name} as host code")
        handler(op)

    # -- func ------------------------------------------------------------
    def _op_func_return(self, op: Operation) -> None:
        if op.operands:
            values = ", ".join(self.name_of(v) for v in op.operands)
            self.line(f"return {values}")
        else:
            self.line("return None")

    # -- arith ------------------------------------------------------------
    def _op_arith_constant(self, op: Operation) -> None:
        del op  # hoisted to the function prelude

    def _binary(self, op: Operation, operator: str) -> None:
        lhs = self.name_of(op.operands[0])
        rhs = self.name_of(op.operands[1])
        name = self.fresh(op.results[0])
        self.line(f"{name} = {lhs} {operator} {rhs}")
        self._record({"op": "arith", "fn": operator, "result": name,
                      "args": [lhs, rhs]})

    def _op_arith_addi(self, op):
        self._binary(op, "+")

    def _op_arith_subi(self, op):
        self._binary(op, "-")

    def _op_arith_muli(self, op):
        self._binary(op, "*")

    def _op_arith_addf(self, op):
        self._binary(op, "+")

    def _op_arith_subf(self, op):
        self._binary(op, "-")

    def _op_arith_mulf(self, op):
        self._binary(op, "*")

    def _op_arith_minui(self, op: Operation) -> None:
        lhs = self.name_of(op.operands[0])
        rhs = self.name_of(op.operands[1])
        name = self.fresh(op.results[0])
        self.line(f"{name} = min({lhs}, {rhs})")
        self._record({"op": "arith", "fn": "min", "result": name,
                      "args": [lhs, rhs]})

    # -- scf ------------------------------------------------------------------
    def _op_scf_for(self, op: Operation) -> None:
        lower = self.name_of(op.operands[0])
        upper = self.name_of(op.operands[1])
        step = self.name_of(op.operands[2])
        body = op.regions[0].entry_block
        iv_hint = op.get_attr("iv_name")
        hint = iv_hint.value if isinstance(iv_hint, StringAttr) else "i"
        iv_name = hint
        suffix = 1
        while iv_name in self.loop_names:
            suffix += 1
            iv_name = f"{hint}{suffix}"
        _identifier(iv_name)
        self.loop_names.append(iv_name)
        self.names[body.arguments[0]] = iv_name
        self.line(f"for {iv_name} in range({lower}, {upper}, {step}):")
        entry = {
            "op": "for", "iv": iv_name,
            "lower": self.const_values.get(op.operands[0]),
            "upper": self.const_values.get(op.operands[1]),
            "step": self.const_values.get(op.operands[2]),
            "args": [lower, upper, step],
            "body": [],
        }
        self._record(entry)
        self._body_stack.append(entry["body"])
        self.indent += 1
        self.line(f"{self._rt('loop_iteration')}()")
        self._record({"op": "loop_iteration"})
        self._emit_block(body)
        self.indent -= 1
        self._body_stack.pop()
        self.loop_names.pop()

    def _op_scf_yield(self, op: Operation) -> None:
        del op  # loop bodies need no explicit terminator in Python

    # -- memref -----------------------------------------------------------
    def _op_memref_subview(self, op: Operation) -> None:
        source = self.name_of(op.operands[0])
        offsets = ", ".join(self.name_of(v) for v in op.operands[1:])
        sizes = tuple(map(_literal, unwrap(op.get_attr("static_sizes"))))
        name = self.fresh(op.results[0], "sub")
        trailing = "," if len(op.operands) == 2 else ""
        self.line(
            f"{name} = {source}.subview(({offsets}{trailing}), "
            f"{self._size_tuple(sizes)})"
        )
        self._record({"op": "subview", "result": name, "ref": source,
                      "offsets": [self.name_of(v) for v in op.operands[1:]],
                      "sizes": list(sizes)})
        self.line(f"{self._rt('subview_setup')}()")
        self._record({"op": "subview_setup"})

    def _op_memref_dim(self, op: Operation) -> None:
        source = self.name_of(op.operands[0])
        index = int(_literal(unwrap(op.get_attr("index"))))
        name = self.fresh(op.results[0], "d")
        self.line(f"{name} = {source}.sizes[{index}]")
        self._record({"op": "dim", "result": name, "ref": source,
                      "index": index})

    # -- accel ------------------------------------------------------------
    def _op_accel_dma_init(self, op: Operation) -> None:
        names = [self.name_of(v) for v in op.operands]
        self.line(f"{self._rt('dma_init')}({', '.join(names)})")
        self._record({"op": "dma_init", "args": names})

    def _op_accel_send_literal(self, op: Operation) -> None:
        literal = self.name_of(op.operands[0])
        offset = self.name_of(op.operands[1])
        name = self.fresh(op.results[0], "off")
        self.line(f"{name} = {self._rt('send_literal')}({literal}, {offset})")
        self._record({"op": "send_literal", "result": name,
                      "value": literal, "offset": offset})

    def _op_accel_send(self, op: Operation) -> None:
        ref = self.name_of(op.operands[0])
        offset = self.name_of(op.operands[1])
        name = self.fresh(op.results[0], "off")
        self.line(f"{name} = {self._rt('send_memref')}({ref}, {offset})")
        self._record({"op": "send_memref", "result": name, "ref": ref,
                      "offset": offset})

    def _op_accel_send_dim(self, op: Operation) -> None:
        ref = self.name_of(op.operands[0])
        dim = self.name_of(op.operands[1])
        offset = self.name_of(op.operands[2])
        name = self.fresh(op.results[0], "off")
        self.line(f"{name} = {self._rt('send_dim')}({ref}, {dim}, {offset})")
        self._record({"op": "send_dim", "result": name, "ref": ref,
                      "dim": dim, "offset": offset})

    def _op_accel_send_idx(self, op: Operation) -> None:
        value = self.name_of(op.operands[0])
        offset = self.name_of(op.operands[1])
        name = self.fresh(op.results[0], "off")
        self.line(f"{name} = {self._rt('send_idx')}({value}, {offset})")
        self._record({"op": "send_idx", "result": name, "value": value,
                      "offset": offset})

    def _op_accel_flush_send(self, op: Operation) -> None:
        offset = self.name_of(op.operands[0])
        name = self.fresh(op.results[0], "off")
        self.line(f"{name} = {self._rt('flush_send')}({offset})")
        self._record({"op": "flush_send", "result": name, "offset": offset})

    def _op_accel_recv(self, op: Operation) -> None:
        ref = self.name_of(op.operands[0])
        offset = self.name_of(op.operands[1])
        accumulate = accel.recv_mode(op) == accel.RECV_ACCUMULATE
        self.line(
            f"{self._rt('recv_memref')}({ref}, {offset}, "
            f"accumulate={accumulate})"
        )
        self._record({"op": "recv_memref", "ref": ref, "offset": offset,
                      "accumulate": accumulate})


def schedule_event_count(table: Optional[dict]) -> Optional[int]:
    """Total runtime-library calls the schedule expands to.

    ``None`` when any loop bound is not statically known.  The trace
    recorder compares this against the number of events it actually
    recorded — a cheap structural proof that the recording covered the
    whole loop nest.
    """
    if not table:
        return None

    def count(body: list) -> Optional[int]:
        total = 0
        for entry in body:
            if entry["op"] == "for":
                lower, upper = entry["lower"], entry["upper"]
                step = entry["step"]
                if lower is None or upper is None or not step:
                    return None
                trips = len(range(lower, upper, step))
                inner = count(entry["body"])
                if inner is None:
                    return None
                total += trips * inner
            elif entry["op"] in SCHEDULE_EVENT_OPS:
                total += 1
        return total

    return count(table["body"])


def emit_function(func_op: Operation) -> Tuple[str, dict]:
    """Emit source plus the schedule side table."""
    emitter = PythonEmitter(func_op)
    source = emitter.emit()
    return source, emitter.schedule


def _func_name(func_op: Operation) -> str:
    sym = func_op.get_attr("sym_name")
    return _identifier(sym.value) if isinstance(sym, StringAttr) \
        else "host_func"


def compile_host_function(func_op: Operation,
                          source: Optional[str] = None):
    """Emit and ``exec`` the driver; returns ``(callable, source)``.

    The one place driver source becomes code.  ``source``, when given,
    must be what :func:`emit_function` made of ``func_op``.
    """
    text = source or emit_function(func_op)[0]
    func_name = _func_name(func_op)
    namespace: dict = {}
    exec(compile(text, f"<axi4mlir:{func_name}>", "exec"), namespace)
    return namespace[func_name], text
