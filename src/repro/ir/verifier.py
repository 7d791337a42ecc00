"""Structural IR verification.

Checks the invariants the transformation passes rely on:

* every operand of an op is defined before use (dominance within a block,
  or defined in an enclosing region);
* use-def bookkeeping is consistent (every operand records its use, every
  recorded use points back at the operand slot);
* blocks containing a terminator have it in last position;
* per-op verifiers registered by dialects hold.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from .core import Block, IRError, Operation, Value

#: Ops that must terminate their block when present.
TERMINATORS = {"func.return", "scf.yield", "linalg.yield"}

_OP_VERIFIERS: Dict[str, Callable[[Operation], None]] = {}


def register_verifier(op_name: str):
    """Decorator used by dialect modules to attach a per-op verifier."""

    def decorate(fn: Callable[[Operation], None]):
        _OP_VERIFIERS[op_name] = fn
        return fn

    return decorate


class VerificationError(IRError):
    """Raised when IR invariants are violated."""


def op_diag(op: Operation) -> str:
    """``"<op name> at <location>"`` when the op has a source location.

    Parser-constructed operations carry a ``"<file>:<line>"`` location, so
    verifier diagnostics can point back into the ``.mlir`` source.
    """
    location = getattr(op, "location", None)
    if location:
        return f"{op.name} (at {location})"
    return op.name


def _check_use_def(op: Operation) -> None:
    for index, operand in enumerate(op.operands):
        if (op, index) not in operand.uses:
            raise VerificationError(
                f"{op.name}: operand #{index} does not record its use"
            )
    for result in op.results:
        for user, index in result.uses:
            if user.operands[index] is not result:
                raise VerificationError(
                    f"{op.name}: stale use record on result #{result.index}"
                )


def _verify_block(block: Block, visible: Set[Value],
                  verifiers: Dict[str, Callable[[Operation], None]]) -> None:
    visible = set(visible)
    visible.update(block.arguments)
    for position, op in enumerate(block.operations):
        if op.parent is not block:
            raise VerificationError(f"{op.name}: wrong parent block link")
        for index, operand in enumerate(op.operands):
            if operand not in visible:
                raise VerificationError(
                    f"{op.name}: operand #{index} ({operand!r}) is not "
                    f"defined before use"
                )
        _check_use_def(op)
        if op.name in TERMINATORS and position != len(block.operations) - 1:
            raise VerificationError(
                f"{op.name} must be the last operation in its block"
            )
        custom = verifiers.get(op.name)
        if custom is not None:
            custom(op)
        for region in op.regions:
            for nested in region.blocks:
                _verify_block(nested, visible, verifiers)
        visible.update(op.results)


def verify(op: Operation,
           extra_verifiers: Optional[Dict[str, Callable[[Operation], None]]] = None
           ) -> None:
    """Verify ``op`` and everything nested inside it."""
    verifiers = dict(_OP_VERIFIERS)
    if extra_verifiers:
        verifiers.update(extra_verifiers)
    _check_use_def(op)
    custom = verifiers.get(op.name)
    if custom is not None:
        custom(op)
    for region in op.regions:
        for block in region.blocks:
            _verify_block(block, set(), verifiers)


def dominates(a: Operation, b: Operation) -> bool:
    """True when ``a`` executes before ``b`` (same block, or a encloses b)."""
    block_b: Optional[Block] = b.parent
    while block_b is not None:
        if a.parent is block_b:
            ops = block_b.operations
            ancestor = b
            while ancestor.parent is not block_b:
                parent_op = ancestor.parent_op
                if parent_op is None:
                    return False
                ancestor = parent_op
            return ops.index(a) < ops.index(ancestor)
        parent_op = block_b.parent.parent if block_b.parent else None
        block_b = parent_op.parent if parent_op else None
    return False
