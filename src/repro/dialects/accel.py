"""``accel`` dialect: host-accelerator transaction operations.

The paper introduces this dialect as the intermediate abstraction between
tiled ``linalg`` code and the AXI DMA runtime library (Sec. III-C, Fig. 9):
operations encode initialization, staged sends, and receives, and are easy
to hoist across loop levels to implement stationary dataflows.

Staging semantics
-----------------
``send_literal`` / ``send`` / ``send_dim`` / ``send_idx`` copy words into
the DMA input region at a running byte ``offset`` (an ``i32`` SSA value)
and return the advanced offset, enabling several logical transfers to be
batched into one DMA transaction.  ``flush_send`` issues
``dma_start_send`` for the accumulated batch and blocks on
``dma_wait_send_completion``, resetting the offset to zero.  ``recv``
blocks until the accelerator produces data and copies it back into a
memref (optionally accumulating).  This matches the runtime library calls
of Sec. III-A one-for-one.
"""

from __future__ import annotations

from typing import Sequence

from ..ir.builder import Builder
from ..ir.core import Operation, Value
from ..ir.parser import register_dialect_op
from ..ir.types import I32, MemRefType
from ..ir.verifier import VerificationError, register_verifier

#: Receive modes: overwrite the destination tile or accumulate into it.
RECV_STORE = "store"
RECV_ACCUMULATE = "accumulate"

ACCEL_OPS = tuple(
    register_dialect_op(name) for name in (
        "accel.dma_init",
        "accel.send_literal",
        "accel.send",
        "accel.send_dim",
        "accel.send_idx",
        "accel.flush_send",
        "accel.recv",
    )
)

#: Ops that participate in a staged send batch.
STAGING_OPS = (
    "accel.send_literal",
    "accel.send",
    "accel.send_dim",
    "accel.send_idx",
)


def dma_init(b: Builder, dma_id: Value, input_address: Value,
             input_buffer_size: Value, output_address: Value,
             output_buffer_size: Value) -> Operation:
    """Configure the DMA engine; executed once per application (Fig. 6b L3)."""
    return b.create(
        "accel.dma_init",
        operands=[dma_id, input_address, input_buffer_size,
                  output_address, output_buffer_size],
    )


def send_literal(b: Builder, literal: Value, offset: Value) -> Value:
    """Stage a 32-bit opcode literal; returns the advanced offset."""
    return b.create(
        "accel.send_literal",
        operands=[literal, offset],
        result_types=[I32],
    ).result


def send(b: Builder, ref: Value, offset: Value) -> Value:
    """Stage a memref tile into the DMA input region (packing copy)."""
    return b.create(
        "accel.send",
        operands=[ref, offset],
        result_types=[I32],
    ).result


def send_dim(b: Builder, ref: Value, dim_index: Value, offset: Value) -> Value:
    """Stage one dimension extent of ``ref`` (paper Fig. 15b L7/L9)."""
    return b.create(
        "accel.send_dim",
        operands=[ref, dim_index, offset],
        result_types=[I32],
    ).result


def send_idx(b: Builder, index_value: Value, offset: Value) -> Value:
    """Stage a loop index value as a word (for index-driven accelerators)."""
    return b.create(
        "accel.send_idx",
        operands=[index_value, offset],
        result_types=[I32],
    ).result


def flush_send(b: Builder, offset: Value) -> Value:
    """``dma_start_send`` + ``dma_wait_send_completion`` for the batch."""
    return b.create(
        "accel.flush_send",
        operands=[offset],
        result_types=[I32],
    ).result


def recv(b: Builder, ref: Value, offset: Value,
         mode: str = RECV_STORE) -> Operation:
    """Wait for output data and copy it into ``ref`` (Fig. 6b L17)."""
    if mode not in (RECV_STORE, RECV_ACCUMULATE):
        raise VerificationError(f"bad recv mode {mode!r}")
    return b.create(
        "accel.recv",
        operands=[ref, offset],
        attributes={"mode": mode},
    )


def recv_mode(op: Operation) -> str:
    mode = op.get_attr("mode")
    return mode.value if mode is not None else RECV_STORE


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


@register_verifier("accel.dma_init")
def _verify_dma_init(op: Operation) -> None:
    if len(op.operands) != 5:
        raise VerificationError(
            "accel.dma_init takes (id, in_addr, in_size, out_addr, out_size)"
        )


def _expect_operands(op: Operation, count: int,
                     memref_positions: Sequence[int] = ()) -> None:
    if len(op.operands) != count:
        raise VerificationError(f"{op.name} takes {count} operands")
    for position in memref_positions:
        if not isinstance(op.operands[position].type, MemRefType):
            raise VerificationError(
                f"{op.name} operand #{position} must be a memref, got "
                f"{op.operands[position].type}"
            )


@register_verifier("accel.send_literal")
def _verify_send_literal(op: Operation) -> None:
    _expect_operands(op, 2)


@register_verifier("accel.send")
def _verify_send(op: Operation) -> None:
    _expect_operands(op, 2, memref_positions=[0])


@register_verifier("accel.send_dim")
def _verify_send_dim(op: Operation) -> None:
    _expect_operands(op, 3, memref_positions=[0])


@register_verifier("accel.send_idx")
def _verify_send_idx(op: Operation) -> None:
    _expect_operands(op, 2)


@register_verifier("accel.flush_send")
def _verify_flush(op: Operation) -> None:
    _expect_operands(op, 1)


@register_verifier("accel.recv")
def _verify_recv(op: Operation) -> None:
    _expect_operands(op, 2, memref_positions=[0])
    mode = recv_mode(op)
    if mode not in (RECV_STORE, RECV_ACCUMULATE):
        raise VerificationError(f"accel.recv: bad mode {mode!r}")
