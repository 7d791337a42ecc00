"""Core SSA IR object model: values, operations, blocks, regions, modules.

A deliberately small re-creation of MLIR's object model.  Operations are
generic (a name plus operands/results/attributes/regions); dialect modules
provide typed constructors and accessors on top.  Use-def chains are
maintained eagerly so transformation passes can rewrite IR safely.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .attributes import Attribute, attr
from .types import FunctionType, Type


class IRError(RuntimeError):
    """Raised for malformed IR manipulations (detached ops, bad indices...)."""


class Value:
    """An SSA value: either an operation result or a block argument."""

    def __init__(self, type: Type):
        self.type = type
        self.uses: List[Tuple["Operation", int]] = []

    @property
    def owner(self):
        raise NotImplementedError

    def replace_all_uses_with(self, replacement: "Value") -> None:
        if replacement is self:
            return
        for operation, index in list(self.uses):
            operation._set_operand(index, replacement)

    def has_uses(self) -> bool:
        return bool(self.uses)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.type}>"


class OpResult(Value):
    def __init__(self, type: Type, op: "Operation", index: int):
        super().__init__(type)
        self.op = op
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.op


class BlockArgument(Value):
    def __init__(self, type: Type, block: "Block", index: int):
        super().__init__(type)
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block


class Operation:
    """A generic operation.

    ``name`` is the fully qualified MLIR-style op name (``"scf.for"``,
    ``"accel.send"``).  ``attributes`` maps attribute names to
    :class:`~repro.ir.attributes.Attribute` instances; plain Python values
    are normalized through :func:`~repro.ir.attributes.attr`.
    """

    def __init__(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, object]] = None,
        regions: int = 0,
    ):
        self.name = name
        self._operands: List[Value] = []
        self.results: List[OpResult] = [
            OpResult(t, self, i) for i, t in enumerate(result_types)
        ]
        self.attributes: Dict[str, Attribute] = {}
        if attributes:
            for key, value in attributes.items():
                self.attributes[key] = attr(value)
        self.regions: List[Region] = [Region(self) for _ in range(regions)]
        self.parent: Optional[Block] = None
        #: Source location (``"<file>:<line>"``) when this op was created by
        #: the textual parser; ``None`` for programmatically built IR.
        self.location: Optional[str] = None
        for operand in operands:
            self._append_operand(operand)

    # -- operands ---------------------------------------------------------
    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def _append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise IRError(f"operand of {self.name} must be a Value, got {value!r}")
        index = len(self._operands)
        self._operands.append(value)
        value.uses.append((self, index))

    def _set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        old.uses.remove((self, index))
        self._operands[index] = value
        value.uses.append((self, index))

    def set_operand(self, index: int, value: Value) -> None:
        """Public operand replacement (bounds-checked)."""
        if not 0 <= index < len(self._operands):
            raise IRError(f"operand index {index} out of range for {self.name}")
        self._set_operand(index, value)

    def drop_all_operands(self) -> None:
        for index, operand in enumerate(self._operands):
            operand.uses.remove((self, index))
        self._operands.clear()

    # -- results ----------------------------------------------------------
    @property
    def result(self) -> OpResult:
        if len(self.results) != 1:
            raise IRError(f"{self.name} has {len(self.results)} results, not 1")
        return self.results[0]

    # -- attributes ---------------------------------------------------------
    def get_attr(self, key: str, default=None):
        return self.attributes.get(key, default)

    def set_attr(self, key: str, value) -> None:
        self.attributes[key] = attr(value)

    # -- structure ----------------------------------------------------------
    @property
    def parent_op(self) -> Optional["Operation"]:
        if self.parent is None or self.parent.parent is None:
            return None
        return self.parent.parent.parent

    def block(self) -> "Block":
        if self.parent is None:
            raise IRError(f"{self.name} is detached")
        return self.parent

    def erase(self) -> None:
        """Remove from the parent block and sever all use-def edges."""
        for result in self.results:
            if result.has_uses():
                raise IRError(
                    f"cannot erase {self.name}: result {result.index} "
                    f"still has uses"
                )
        self.drop_all_operands()
        for region in self.regions:
            for blk in list(region.blocks):
                for op in list(blk.operations):
                    op.drop_all_operands()
        if self.parent is not None:
            self.parent.operations.remove(self)
            self.parent = None

    def move_before(self, other: "Operation") -> None:
        """Detach this op and re-insert it right before ``other``."""
        if other.parent is None:
            raise IRError("cannot move before a detached operation")
        if self.parent is not None:
            self.parent.operations.remove(self)
        block = other.parent
        index = block.operations.index(other)
        block.operations.insert(index, self)
        self.parent = block

    def move_after(self, other: "Operation") -> None:
        if other.parent is None:
            raise IRError("cannot move after a detached operation")
        if self.parent is not None:
            self.parent.operations.remove(self)
        block = other.parent
        index = block.operations.index(other)
        block.operations.insert(index + 1, self)
        self.parent = block

    def walk(self, post_order: bool = False) -> Iterator["Operation"]:
        """Yield this op and every nested op (pre-order by default)."""
        if not post_order:
            yield self
        for region in self.regions:
            for blk in region.blocks:
                for op in list(blk.operations):
                    yield from op.walk(post_order)
        if post_order:
            yield self

    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-copy this operation (and nested regions).

        ``value_map`` maps old values to new ones; operands not present in
        the map are kept as-is (they dominate the clone site).
        """
        value_map = value_map if value_map is not None else {}
        cloned = Operation(
            self.name,
            operands=[value_map.get(v, v) for v in self._operands],
            result_types=[r.type for r in self.results],
            attributes=dict(self.attributes),
            regions=len(self.regions),
        )
        for old_result, new_result in zip(self.results, cloned.results):
            value_map[old_result] = new_result
        for old_region, new_region in zip(self.regions, cloned.regions):
            for old_block in old_region.blocks:
                new_block = new_region.add_block(
                    [a.type for a in old_block.arguments]
                )
                for old_arg, new_arg in zip(old_block.arguments,
                                            new_block.arguments):
                    value_map[old_arg] = new_arg
                for op in old_block.operations:
                    new_block.append(op.clone(value_map))
        return cloned

    def __repr__(self) -> str:
        return f"<Operation {self.name}>"


class Block:
    """A straight-line sequence of operations with block arguments."""

    def __init__(self, arg_types: Sequence[Type] = (),
                 parent: Optional["Region"] = None):
        self.arguments: List[BlockArgument] = [
            BlockArgument(t, self, i) for i, t in enumerate(arg_types)
        ]
        self.operations: List[Operation] = []
        self.parent = parent

    def append(self, op: Operation) -> Operation:
        if op.parent is not None:
            raise IRError(f"{op.name} is already attached to a block")
        self.operations.append(op)
        op.parent = self
        return op

    def insert(self, index: int, op: Operation) -> Operation:
        if op.parent is not None:
            raise IRError(f"{op.name} is already attached to a block")
        self.operations.insert(index, op)
        op.parent = self
        return op

    def add_argument(self, type: Type) -> BlockArgument:
        argument = BlockArgument(type, self, len(self.arguments))
        self.arguments.append(argument)
        return argument

    @property
    def terminator(self) -> Optional[Operation]:
        return self.operations[-1] if self.operations else None

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)


class Region:
    """A list of blocks owned by an operation."""

    def __init__(self, parent: Optional[Operation] = None):
        self.blocks: List[Block] = []
        self.parent = parent

    def add_block(self, arg_types: Sequence[Type] = ()) -> Block:
        block = Block(arg_types, parent=self)
        self.blocks.append(block)
        return block

    @property
    def entry_block(self) -> Block:
        if not self.blocks:
            raise IRError("region has no blocks")
        return self.blocks[0]

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


# ---------------------------------------------------------------------------
# Structural top-level ops
# ---------------------------------------------------------------------------


class Module:
    """Convenience wrapper around a ``builtin.module`` operation."""

    def __init__(self):
        self.op = Operation("builtin.module", regions=1)
        self.op.regions[0].add_block()

    @property
    def body(self) -> Block:
        return self.op.regions[0].entry_block

    def add_function(self, func_op: Operation) -> Operation:
        if func_op.name != "func.func":
            raise IRError(f"expected a func.func, got {func_op.name}")
        return self.body.append(func_op)

    def functions(self) -> List[Operation]:
        return [op for op in self.body if op.name == "func.func"]

    def lookup(self, symbol: str) -> Operation:
        from .attributes import StringAttr

        for op in self.body:
            name = op.get_attr("sym_name")
            if isinstance(name, StringAttr) and name.value == symbol:
                return op
        raise KeyError(f"no symbol {symbol!r} in module")

    def walk(self) -> Iterator[Operation]:
        yield from self.op.walk()

    def __str__(self) -> str:
        from .printer import print_module

        return print_module(self)


def make_func(
    name: str,
    input_types: Sequence[Type],
    result_types: Sequence[Type] = (),
    arg_names: Sequence[str] = (),
) -> Operation:
    """Create an empty ``func.func`` with an entry block."""
    func_op = Operation(
        "func.func",
        attributes={
            "sym_name": name,
            "function_type": FunctionType(tuple(input_types),
                                          tuple(result_types)),
        },
        regions=1,
    )
    func_op.regions[0].add_block(input_types)
    if arg_names:
        func_op.set_attr("arg_names", list(arg_names))
    return func_op


def func_entry_block(func_op: Operation) -> Block:
    return func_op.regions[0].entry_block
