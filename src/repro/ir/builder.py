"""Insertion-point-based IR construction helper (MLIR's ``OpBuilder``)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .core import Block, IRError, Operation, Value
from .types import Type


class InsertionPoint:
    """A position within a block where new operations are inserted."""

    def __init__(self, block: Block, index: Optional[int] = None):
        self.block = block
        self.index = len(block.operations) if index is None else index

    @staticmethod
    def at_end(block: Block) -> "InsertionPoint":
        return InsertionPoint(block)

    @staticmethod
    def before(op: Operation) -> "InsertionPoint":
        block = op.block()
        return InsertionPoint(block, block.operations.index(op))

    @staticmethod
    def after(op: Operation) -> "InsertionPoint":
        block = op.block()
        return InsertionPoint(block, block.operations.index(op) + 1)


class Builder:
    """Creates operations at a movable insertion point.

    The constant cache de-duplicates ``arith.constant`` ops per block, which
    keeps the emitted host code free of repeated literals (the paper's
    listings declare each constant once at function entry).
    """

    def __init__(self, insertion_point: Optional[InsertionPoint] = None):
        self._ip = insertion_point
        self._stack: List[InsertionPoint] = []
        self._constant_cache: Dict[Tuple[int, object, Type], Value] = {}

    # -- insertion point management ----------------------------------------
    @property
    def insertion_point(self) -> InsertionPoint:
        if self._ip is None:
            raise IRError("builder has no insertion point")
        return self._ip

    def set_insertion_point(self, ip: InsertionPoint) -> None:
        self._ip = ip

    def push_insertion_point(self, ip: InsertionPoint) -> None:
        if self._ip is not None:
            self._stack.append(self._ip)
        self._ip = ip

    def pop_insertion_point(self) -> None:
        if not self._stack:
            raise IRError("insertion point stack is empty")
        self._ip = self._stack.pop()

    # -- op creation ---------------------------------------------------------
    def insert(self, op: Operation) -> Operation:
        ip = self.insertion_point
        ip.block.insert(ip.index, op)
        ip.index += 1
        return op

    def create(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[dict] = None,
        regions: int = 0,
    ) -> Operation:
        return self.insert(
            Operation(name, operands, result_types, attributes, regions)
        )

    # -- constants -----------------------------------------------------------
    def cached_constant(self, value, type: Type, make) -> Value:
        """Return an existing constant in the current block or build one."""
        block = self.insertion_point.block
        key = (id(block), value, type)
        cached = self._constant_cache.get(key)
        if cached is not None:
            return cached
        result = make()
        self._constant_cache[key] = result
        return result
