"""``scf`` dialect: structured control flow.

Only ``scf.for`` (plus its ``scf.yield`` terminator) is needed for the
AXI4MLIR flow — the generated host code is a perfect loop nest over tiles
(paper Fig. 2b / Fig. 6b).
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from ..ir.builder import Builder, InsertionPoint
from ..ir.core import Block, Operation, Value
from ..ir.parser import register_dialect_op
from ..ir.types import INDEX
from ..ir.verifier import VerificationError, register_verifier

#: Ops this dialect re-materializes from textual IR.  ``scf.for`` uses the
#: custom ``scf.for %iv = %lb to %ub step %st { ... }`` syntax; the parser
#: handles it directly.
SCF_OPS = tuple(
    register_dialect_op(name) for name in ("scf.for", "scf.yield")
)


def for_op(b: Builder, lower: Value, upper: Value, step: Value,
           iv_name: Optional[str] = None) -> Operation:
    """Create an empty ``scf.for`` (body gets an induction-variable arg)."""
    op = b.create(
        "scf.for",
        operands=[lower, upper, step],
        regions=1,
    )
    body = op.regions[0].add_block([INDEX])
    if iv_name:
        op.set_attr("iv_name", iv_name)
    # The terminator is appended when the body context closes (build_for)
    # or immediately for callers that fill the body manually.
    del body
    return op


def body_block(op: Operation) -> Block:
    if op.name != "scf.for":
        raise VerificationError(f"expected scf.for, got {op.name}")
    return op.regions[0].entry_block


def bounds(op: Operation):
    """Return the (lower, upper, step) operands of an ``scf.for``."""
    lower, upper, step = op.operands[:3]
    return lower, upper, step


def yield_op(b: Builder) -> Operation:
    return b.create("scf.yield")


@contextlib.contextmanager
def build_for(b: Builder, lower: Value, upper: Value, step: Value,
              iv_name: Optional[str] = None) -> Iterator[Value]:
    """Context manager building a loop body at the right insertion point.

    Yields the induction variable; appends ``scf.yield`` when the body is
    complete::

        with scf.build_for(b, c0, c60, c4, "m") as m:
            ...
    """
    loop = for_op(b, lower, upper, step, iv_name)
    body = body_block(loop)
    b.push_insertion_point(InsertionPoint.at_end(body))
    try:
        yield body.arguments[0]
        yield_op(b)
    finally:
        b.pop_insertion_point()


@register_verifier("scf.for")
def _verify_for(op: Operation) -> None:
    if len(op.operands) != 3:
        raise VerificationError("scf.for takes (lower, upper, step)")
    for operand in op.operands:
        if operand.type != INDEX:
            raise VerificationError(
                f"scf.for bounds must be index, got {operand.type}"
            )
    if len(op.regions) != 1 or len(op.regions[0].blocks) != 1:
        raise VerificationError("scf.for needs exactly one body block")
    body = op.regions[0].entry_block
    if len(body.arguments) != 1 or body.arguments[0].type != INDEX:
        raise VerificationError("scf.for body takes one index argument")
    if body.operations and body.terminator.name != "scf.yield":
        raise VerificationError("scf.for body must end with scf.yield")


def perfect_nest_depth(op: Operation) -> int:
    """Depth of the perfectly nested loop chain rooted at ``op``."""
    depth = 0
    current = op
    while current is not None and current.name == "scf.for":
        depth += 1
        body = body_block(current)
        non_yield = [o for o in body.operations if o.name != "scf.yield"]
        current = non_yield[0] if len(non_yield) == 1 else None
    return depth
