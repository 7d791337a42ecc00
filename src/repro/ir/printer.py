"""Textual IR printing in an MLIR-flavoured syntax.

The printer assigns ``%0, %1, ...`` names to SSA values per function (block
arguments of the entry block get ``%arg0`` style names) so that printed
modules resemble the paper's listings (Figs. 2 and 6b).  A loop's
attributes (the ``iv_name`` its driver loop is named after) follow its
body, ``scf.for ... { ... } {iv_name = "m"}``, as in MLIR.
"""

from __future__ import annotations

from typing import Dict, List

from .attributes import Attribute, StringAttr
from .core import Block, Module, Operation, Region, Value
from .types import FunctionType


class _NameScope:
    def __init__(self):
        self.names: Dict[Value, str] = {}
        self.counter = 0

    def name(self, value: Value) -> str:
        existing = self.names.get(value)
        if existing is not None:
            return existing
        fresh = f"%{self.counter}"
        self.counter += 1
        self.names[value] = fresh
        return fresh

    def assign(self, value: Value, name: str) -> str:
        self.names[value] = name
        return name


def _format_attr_dict(attributes: Dict[str, Attribute],
                      skip: tuple = ()) -> str:
    entries = [
        f"{key} = {value}"
        for key, value in attributes.items()
        if key not in skip
    ]
    if not entries:
        return ""
    return " {" + ", ".join(entries) + "}"


def _print_block(block: Block, scope: _NameScope, lines: List[str],
                 indent: int, index: int) -> None:
    pad = "  " * indent
    if block.arguments:
        args = ", ".join(
            f"{scope.name(a)}: {a.type}" for a in block.arguments
        )
        lines.append(f"{pad}^bb{index}({args}):")
    elif index > 0:
        # Argument-less non-entry blocks still need a label so the textual
        # parser can tell where one block ends and the next begins.
        lines.append(f"{pad}^bb{index}:")
    for op in block.operations:
        _print_op(op, scope, lines, indent)


def _print_region(region: Region, scope: _NameScope, lines: List[str],
                  indent: int) -> None:
    for i, block in enumerate(region.blocks):
        _print_block(block, scope, lines, indent, index=i)


def _print_op(op: Operation, scope: _NameScope, lines: List[str],
              indent: int) -> None:
    pad = "  " * indent

    if op.name == "func.func":
        _print_func(op, scope, lines, indent)
        return

    results = ", ".join(scope.name(r) for r in op.results)
    prefix = f"{results} = " if results else ""

    if op.name == "scf.for":
        lower, upper, step = op.operands[:3]
        body = op.regions[0].entry_block
        iv = scope.name(body.arguments[0])
        header = (
            f"{pad}{prefix}scf.for {iv} = {scope.name(lower)} "
            f"to {scope.name(upper)} step {scope.name(step)} {{"
        )
        lines.append(header)
        for nested in body.operations:
            _print_op(nested, scope, lines, indent + 1)
        lines.append(f"{pad}}}{_format_attr_dict(op.attributes)}")
        return

    operands = ", ".join(scope.name(v) for v in op.operands)
    attrs = _format_attr_dict(op.attributes)
    types = ""
    if op.operands or op.results:
        in_types = ", ".join(str(v.type) for v in op.operands)
        out_types = ", ".join(str(r.type) for r in op.results)
        if out_types:
            types = f" : ({in_types}) -> ({out_types})"
        else:
            types = f" : ({in_types})"

    line = f"{pad}{prefix}\"{op.name}\"({operands}){attrs}{types}"
    lines.append(line)
    for region in op.regions:
        lines.append(f"{pad}({{")
        _print_region(region, scope, lines, indent + 1)
        lines.append(f"{pad}}})")


def _print_func(op: Operation, scope: _NameScope, lines: List[str],
                indent: int) -> None:
    pad = "  " * indent
    sym = op.get_attr("sym_name")
    name = sym.value if isinstance(sym, StringAttr) else "<anonymous>"
    func_type = op.get_attr("function_type")
    entry = op.regions[0].entry_block
    arg_strs = []
    for i, argument in enumerate(entry.arguments):
        arg_name = scope.assign(argument, f"%arg{i}")
        arg_strs.append(f"{arg_name}: {argument.type}")
    result_types = ""
    if isinstance(func_type, Attribute):
        ft = getattr(func_type, "value", None)
        if isinstance(ft, FunctionType) and ft.results:
            result_types = " -> " + ", ".join(str(t) for t in ft.results)
    lines.append(f"{pad}func.func @{name}({', '.join(arg_strs)}){result_types} {{")
    for nested in entry.operations:
        _print_op(nested, scope, lines, indent + 1)
    lines.append(f"{pad}}}")


def print_op(op: Operation) -> str:
    scope = _NameScope()
    lines: List[str] = []
    _print_op(op, scope, lines, 0)
    return "\n".join(lines)


def print_module(module: Module) -> str:
    lines: List[str] = ["module {"]
    scope = _NameScope()
    for op in module.body.operations:
        _print_op(op, scope, lines, 1)
    lines.append("}")
    return "\n".join(lines)
