"""``linalg`` dialect: structured linear-algebra operations.

Provides ``linalg.generic`` (indexing maps + iterator types + scalar body,
paper Fig. 2a), the named ops the paper targets (``linalg.matmul``,
``linalg.conv_2d_nchw_fchw``), and the structural queries used by the
match-and-annotate pass (step 3 of the AXI4MLIR flow, Fig. 4).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ir.affine import (
    AffineBinaryExpr,
    AffineBinaryOpKind,
    AffineDimExpr,
    AffineMap,
    fold_expr,
)
from ..ir.attributes import AffineMapAttr, ArrayAttr, StringAttr, unwrap
from ..ir.builder import Builder, InsertionPoint
from ..ir.core import Operation, Value
from ..ir.parser import register_dialect_op
from ..ir.types import MemRefType
from ..ir.verifier import VerificationError, op_diag, register_verifier

PARALLEL = "parallel"
REDUCTION = "reduction"

#: Ops this dialect re-materializes from textual IR.
LINALG_OPS = tuple(
    register_dialect_op(name) for name in (
        "linalg.generic", "linalg.matmul", "linalg.conv_2d_nchw_fchw",
        "linalg.yield",
    )
)


# ---------------------------------------------------------------------------
# linalg.generic
# ---------------------------------------------------------------------------


def generic(
    b: Builder,
    indexing_maps: Sequence[AffineMap],
    iterator_types: Sequence[str],
    inputs: Sequence[Value],
    outputs: Sequence[Value],
    body: Optional[Callable[[Builder, List[Value]], Value]] = None,
) -> Operation:
    """Create a ``linalg.generic`` over memref operands.

    ``body`` receives a builder positioned inside the region and the block
    arguments (one scalar per operand); it returns the value to yield into
    the output.  When omitted, a multiply-accumulate body is built, which is
    the kernel of every operation in the paper's benchmark suite.
    """
    operands = [*inputs, *outputs]
    if len(indexing_maps) != len(operands):
        raise VerificationError(
            f"linalg.generic needs one indexing map per operand: "
            f"{len(indexing_maps)} maps for {len(operands)} operands"
        )
    op = b.create(
        "linalg.generic",
        operands=operands,
        attributes={
            "indexing_maps": [AffineMapAttr(m) for m in indexing_maps],
            "iterator_types": list(iterator_types),
            "operandSegmentSizes": [len(inputs), len(outputs)],
        },
        regions=1,
    )
    scalar_types = []
    for operand in operands:
        operand_type = operand.type
        if not isinstance(operand_type, MemRefType):
            raise VerificationError(
                f"linalg.generic operands must be memrefs, got {operand_type}"
            )
        scalar_types.append(operand_type.element_type)
    block = op.regions[0].add_block(scalar_types)
    inner = Builder(InsertionPoint.at_end(block))
    if body is None:
        body = _mul_add_body
    result = body(inner, list(block.arguments))
    inner.create("linalg.yield", operands=[result])
    return op


def _mul_add_body(b: Builder, args: List[Value]) -> Value:
    from . import arith

    if len(args) != 3:
        raise VerificationError(
            f"default mul-add body expects 3 scalars, got {len(args)}"
        )
    a, w, acc = args
    is_float = str(a.type).startswith("f")
    mul = arith.mulf(b, a, w) if is_float else arith.muli(b, a, w)
    return arith.addf(b, acc, mul) if is_float else arith.addi(b, acc, mul)


def indexing_maps(op: Operation) -> List[AffineMap]:
    maps_attr = op.get_attr("indexing_maps")
    if not isinstance(maps_attr, ArrayAttr):
        raise VerificationError(f"{op.name} has no indexing_maps")
    return [m.value for m in maps_attr]


def iterator_types(op: Operation) -> List[str]:
    iters = op.get_attr("iterator_types")
    if not isinstance(iters, ArrayAttr):
        raise VerificationError(f"{op.name} has no iterator_types")
    return [i.value for i in iters]


def num_inputs(op: Operation) -> int:
    segments = unwrap(op.get_attr("operandSegmentSizes"))
    return int(segments[0])


def inputs(op: Operation) -> Tuple[Value, ...]:
    return op.operands[: num_inputs(op)]


def outputs(op: Operation) -> Tuple[Value, ...]:
    return op.operands[num_inputs(op):]


def loop_dim_names(op: Operation) -> Tuple[str, ...]:
    maps = indexing_maps(op)
    names = maps[0].dim_names
    return names or tuple(f"d{i}" for i in range(maps[0].num_dims))


def loop_ranges(op: Operation) -> Tuple[int, ...]:
    """Infer each loop dimension's trip count from operand shapes.

    For a dim appearing as a plain ``AffineDimExpr`` in some operand's map,
    the range is that operand's corresponding shape entry.  Dims that only
    appear inside compound expressions (convolution windows) are resolved
    from the remaining extents: ``size = operand_extent - (sum of other
    term extents) + 1`` for ``oh + kh`` style expressions.
    """
    maps = indexing_maps(op)
    num_dims = maps[0].num_dims
    ranges: List[Optional[int]] = [None] * num_dims
    compound: List[Tuple[AffineBinaryExpr, int]] = []

    for operand, amap in zip(op.operands, maps):
        shape = operand.type.shape
        for axis, expr in enumerate(amap.results):
            match expr:
                case AffineDimExpr(position):
                    extent = shape[axis]
                    known = ranges[position]
                    if known is not None and known != extent:
                        raise VerificationError(
                            f"dim {position} has conflicting extents "
                            f"{known} and {extent}"
                        )
                    ranges[position] = extent
                case AffineBinaryExpr():
                    compound.append((expr, shape[axis]))

    # Second pass: solve `stride*oh + kh`-style window expressions.
    for expr, extent in compound:
        terms = linear_form(expr)[0]
        unknown = [(d, c) for d, c in terms.items() if ranges[d] is None]
        if len(unknown) != 1:
            continue
        dim_pos, coefficient = unknown[0]
        used = 0
        for d, c in terms.items():
            if d != dim_pos:
                used += c * (ranges[d] - 1)
        ranges[dim_pos] = (extent - 1 - used) // coefficient + 1

    if any(r is None for r in ranges):
        raise VerificationError(
            f"could not infer all loop ranges for {op.name}: {ranges}"
        )
    return tuple(int(r) for r in ranges)


def linear_form(expr) -> Tuple[Dict[int, int], int]:
    """``2*oh + kh + 1`` as ``({oh: 2, kh: 1}, 1)``: each dim position's
    coefficient, and the constant term."""

    def binary(kind, lhs, rhs):
        (lhs_terms, lhs_constant), (rhs_terms, rhs_constant) = lhs, rhs
        if kind is AffineBinaryOpKind.ADD:
            terms = dict(lhs_terms)
            for d, c in rhs_terms.items():
                terms[d] = terms.get(d, 0) + c
            return terms, lhs_constant + rhs_constant
        if kind is AffineBinaryOpKind.MUL and not (lhs_terms and rhs_terms):
            scale, (terms, constant) = (rhs_constant, lhs) if lhs_terms \
                else (lhs_constant, rhs)
            return ({d: c * scale for d, c in terms.items()},
                    constant * scale)
        raise VerificationError(f"non-linear indexing expression {expr}")

    return fold_expr(expr, lambda position: ({position: 1}, 0),
                     lambda value: ({}, value), binary)


# ---------------------------------------------------------------------------
# Named operations and their canonical generic traits
# ---------------------------------------------------------------------------


def matmul_maps() -> List[AffineMap]:
    """Indexing maps of MatMul: C(m,n) += A(m,k) * B(k,n) (paper Fig. 2a)."""
    names = ("m", "n", "k")
    m, n, k = AffineDimExpr(0), AffineDimExpr(1), AffineDimExpr(2)
    return [
        AffineMap(3, (m, k), names),
        AffineMap(3, (k, n), names),
        AffineMap(3, (m, n), names),
    ]


MATMUL_ITERATORS = (PARALLEL, PARALLEL, REDUCTION)


def matmul(b: Builder, a: Value, rhs: Value, out: Value) -> Operation:
    """Create a named ``linalg.matmul``."""
    return b.create(
        "linalg.matmul",
        operands=[a, rhs, out],
        attributes={"operandSegmentSizes": [2, 1]},
    )


def conv_2d_nchw_fchw_maps(stride: int = 1) -> List[AffineMap]:
    """Indexing maps of NCHW/FCHW conv over (n, f, oh, ow, c, fh, fw)."""
    names = ("n", "f", "oh", "ow", "c", "fh", "fw")
    n, f, oh, ow, c, fh, fw = (AffineDimExpr(i) for i in range(7))

    def strided(outer, inner):
        return (outer if stride == 1 else outer * stride) + inner

    return [
        AffineMap(7, (n, c, strided(oh, fh), strided(ow, fw)), names),
        AffineMap(7, (f, c, fh, fw), names),
        AffineMap(7, (n, f, oh, ow), names),
    ]


CONV_ITERATORS = (PARALLEL, PARALLEL, PARALLEL, PARALLEL,
                  REDUCTION, REDUCTION, REDUCTION)


def conv_2d_nchw_fchw(b: Builder, image: Value, filter: Value, out: Value,
                      stride: int = 1) -> Operation:
    """Create a named ``linalg.conv_2d_nchw_fchw``."""
    return b.create(
        "linalg.conv_2d_nchw_fchw",
        operands=[image, filter, out],
        attributes={
            "operandSegmentSizes": [2, 1],
            "strides": [stride, stride],
        },
    )


# ---------------------------------------------------------------------------
# Structural matching (used by the match-and-annotate pass)
# ---------------------------------------------------------------------------


def body_is_multiply_accumulate(op: Operation) -> bool:
    """True when the region computes ``yield(acc + a*b)``."""
    if not op.regions or not op.regions[0].blocks:
        return False
    block = op.regions[0].entry_block
    names = [inner.name for inner in block.operations]
    return names in (
        ["arith.mulf", "arith.addf", "linalg.yield"],
        ["arith.muli", "arith.addi", "linalg.yield"],
    )


def matches_matmul(op: Operation) -> bool:
    """Structural check: is this generic a MatMul (maps, iterators, body)?"""
    if op.name != "linalg.generic":
        return False
    if iterator_types(op) != list(MATMUL_ITERATORS):
        return False
    try:
        maps = indexing_maps(op)
    except VerificationError:
        return False
    want = matmul_maps()
    return [m.results for m in maps] == [m.results for m in want] \
        and body_is_multiply_accumulate(op)


def kernel_name(op: Operation) -> Optional[str]:
    """Canonical kernel implemented by this op, if recognizable."""
    if op.name in ("linalg.matmul", "linalg.conv_2d_nchw_fchw"):
        return op.name
    if op.name == "linalg.generic":
        if matches_matmul(op):
            return "linalg.matmul"
        if len(iterator_types(op)) == 7:
            return "linalg.conv_2d_nchw_fchw"
    return None


def _verify_segment_sizes(op: Operation) -> None:
    """``operandSegmentSizes`` must be two non-negative ints summing to
    the operand count — accessors like :func:`inputs` index with it."""
    from ..ir.attributes import IntegerAttr

    segments = op.get_attr("operandSegmentSizes")
    if not isinstance(segments, ArrayAttr) or len(segments) != 2 or any(
        not isinstance(e, IntegerAttr) for e in segments
    ):
        raise VerificationError(
            f"{op_diag(op)}: operandSegmentSizes must be a pair of "
            f"integers, got {segments!r}"
        )
    sizes = [e.value for e in segments]
    if any(s < 0 for s in sizes) or sum(sizes) != len(op.operands):
        raise VerificationError(
            f"{op_diag(op)}: operandSegmentSizes {sizes} do not sum to "
            f"the {len(op.operands)} operands"
        )


@register_verifier("linalg.matmul")
@register_verifier("linalg.conv_2d_nchw_fchw")
def _verify_named_op(op: Operation) -> None:
    _verify_segment_sizes(op)


@register_verifier("linalg.generic")
def _verify_generic(op: Operation) -> None:
    _verify_segment_sizes(op)
    maps = indexing_maps(op)
    iters = iterator_types(op)
    if any(i not in (PARALLEL, REDUCTION) for i in iters):
        raise VerificationError(f"{op_diag(op)}: bad iterator types {iters}")
    if len(maps) != len(op.operands):
        raise VerificationError(
            f"{op_diag(op)}: {len(maps)} indexing maps for "
            f"{len(op.operands)} operands"
        )
    if not maps:
        raise VerificationError(
            f"{op_diag(op)}: linalg.generic needs at least one operand "
            f"and indexing map"
        )
    num_dims = maps[0].num_dims
    if num_dims != len(iters):
        raise VerificationError(
            f"{len(iters)} iterator types for {num_dims}-dim maps"
        )
    for amap, operand in zip(maps, op.operands):
        if amap.num_dims != num_dims:
            raise VerificationError("indexing maps disagree on dim count")
        operand_type = operand.type
        if isinstance(operand_type, MemRefType):
            if amap.num_results != operand_type.rank:
                raise VerificationError(
                    f"map {amap} rank does not match operand {operand_type}"
                )
