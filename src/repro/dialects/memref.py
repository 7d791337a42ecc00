"""``memref`` dialect: buffer allocation, subviews, loads, stores.

``memref.subview`` here always takes one dynamic offset per dimension plus
static sizes/strides attributes, matching the shape of the paper's listings
(``memref.subview %A[%m, %k] [4, 4] [1, 1]``).
"""

from __future__ import annotations

from typing import Sequence

from ..ir.attributes import unwrap
from ..ir.builder import Builder
from ..ir.core import Operation, Value
from ..ir.parser import register_dialect_op
from ..ir.types import DYNAMIC, INDEX, MemRefType, Type
from ..ir.verifier import VerificationError, op_diag, register_verifier

#: Ops this dialect re-materializes from textual IR.
MEMREF_OPS = tuple(
    register_dialect_op(name) for name in (
        "memref.alloc", "memref.dealloc", "memref.subview", "memref.load",
        "memref.store", "memref.dim", "memref.copy",
    )
)


def alloc(b: Builder, type: MemRefType) -> Value:
    if not isinstance(type, MemRefType):
        raise VerificationError(f"memref.alloc requires a MemRefType, got {type}")
    return b.create("memref.alloc", result_types=[type]).result


def dealloc(b: Builder, ref: Value) -> Operation:
    return b.create("memref.dealloc", operands=[ref])


def subview_type(source: MemRefType, sizes: Sequence[int]) -> MemRefType:
    """Result type of a subview: sizes change, strides are inherited."""
    return MemRefType(
        shape=tuple(sizes),
        element_type=source.element_type,
        strides=source.layout_strides(),
        offset=DYNAMIC,
    )


def subview(
    b: Builder,
    source: Value,
    offsets: Sequence[Value],
    sizes: Sequence[int],
    strides: Sequence[int] = (),
) -> Value:
    """Take a strided window of ``source`` at dynamic ``offsets``."""
    src_type = source.type
    if not isinstance(src_type, MemRefType):
        raise VerificationError(f"subview source must be a memref, got {src_type}")
    if len(offsets) != src_type.rank or len(sizes) != src_type.rank:
        raise VerificationError(
            f"subview of rank-{src_type.rank} memref needs "
            f"{src_type.rank} offsets and sizes"
        )
    strides = tuple(strides) if strides else tuple([1] * src_type.rank)
    op = b.create(
        "memref.subview",
        operands=[source, *offsets],
        result_types=[subview_type(src_type, sizes)],
        attributes={
            "static_sizes": list(sizes),
            "static_strides": list(strides),
        },
    )
    return op.result


def load(b: Builder, ref: Value, indices: Sequence[Value]) -> Value:
    ref_type = ref.type
    if not isinstance(ref_type, MemRefType):
        raise VerificationError(f"memref.load on non-memref {ref_type}")
    return b.create(
        "memref.load",
        operands=[ref, *indices],
        result_types=[ref_type.element_type],
    ).result


def store(b: Builder, value: Value, ref: Value,
          indices: Sequence[Value]) -> Operation:
    return b.create("memref.store", operands=[value, ref, *indices])


def dim(b: Builder, ref: Value, index: int) -> Value:
    return b.create(
        "memref.dim",
        operands=[ref],
        result_types=[INDEX],
        attributes={"index": index},
    ).result


def copy(b: Builder, source: Value, dest: Value) -> Operation:
    return b.create("memref.copy", operands=[source, dest])


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


@register_verifier("memref.subview")
def _verify_subview(op: Operation) -> None:
    source = op.operands[0]
    src_type = source.type
    if not isinstance(src_type, MemRefType):
        raise VerificationError("memref.subview source must be a memref")
    if len(op.operands) != 1 + src_type.rank:
        raise VerificationError(
            "memref.subview needs one dynamic offset per source dimension"
        )
    sizes = unwrap(op.get_attr("static_sizes"))
    if sizes is None or len(sizes) != src_type.rank:
        raise VerificationError(
            f"{op_diag(op)}: static_sizes must list one size per source "
            f"dimension (rank {src_type.rank}), got {sizes!r}"
        )
    strides = unwrap(op.get_attr("static_strides"))
    if strides is None or len(strides) != src_type.rank:
        raise VerificationError(
            f"{op_diag(op)}: static_strides must list one stride per "
            f"source dimension (rank {src_type.rank}), got {strides!r}"
        )
    if any(not isinstance(s, int) or s <= 0 for s in strides):
        raise VerificationError(
            f"{op_diag(op)}: static_strides entries must be positive "
            f"integers, got {strides!r}"
        )
    result_type = op.results[0].type
    if not isinstance(result_type, MemRefType):
        raise VerificationError("memref.subview must produce a memref")
    if tuple(result_type.shape) != tuple(sizes):
        raise VerificationError(
            f"memref.subview result shape {result_type.shape} does not "
            f"match static_sizes {tuple(sizes)}"
        )


@register_verifier("memref.dim")
def _verify_dim(op: Operation) -> None:
    from ..ir.attributes import IntegerAttr

    if len(op.operands) != 1:
        raise VerificationError(f"{op_diag(op)}: takes exactly one operand")
    ref_type = op.operands[0].type
    if not isinstance(ref_type, MemRefType):
        raise VerificationError(
            f"{op_diag(op)}: operand must be a memref, got {ref_type}"
        )
    index = op.get_attr("index")
    if not isinstance(index, IntegerAttr):
        raise VerificationError(
            f"{op_diag(op)}: requires an integer 'index' attribute, "
            f"got {index!r}"
        )
    if not 0 <= index.value < ref_type.rank:
        raise VerificationError(
            f"{op_diag(op)}: index {index.value} out of range for "
            f"rank-{ref_type.rank} memref"
        )


@register_verifier("memref.load")
def _verify_load(op: Operation) -> None:
    ref_type = op.operands[0].type
    if not isinstance(ref_type, MemRefType):
        raise VerificationError("memref.load operand 0 must be a memref")
    if len(op.operands) != 1 + ref_type.rank:
        raise VerificationError(
            f"memref.load on rank-{ref_type.rank} memref needs "
            f"{ref_type.rank} indices"
        )
    if op.results[0].type != ref_type.element_type:
        raise VerificationError("memref.load result/element type mismatch")


@register_verifier("memref.store")
def _verify_store(op: Operation) -> None:
    if len(op.operands) < 2:
        raise VerificationError("memref.store takes (value, memref, indices...)")
    ref_type = op.operands[1].type
    if not isinstance(ref_type, MemRefType):
        raise VerificationError("memref.store operand 1 must be a memref")
    if len(op.operands) != 2 + ref_type.rank:
        raise VerificationError(
            f"memref.store on rank-{ref_type.rank} memref needs "
            f"{ref_type.rank} indices"
        )
    if op.operands[0].type != ref_type.element_type:
        raise VerificationError("memref.store value/element type mismatch")
