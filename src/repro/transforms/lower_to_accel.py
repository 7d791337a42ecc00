"""Lowering: annotated ``linalg.generic`` to ``scf`` loops + ``accel`` ops.

This is steps 4-5 of the paper's flow (Fig. 4): tiling for the CPU
memory hierarchy and the accelerator size, then host-code generation in
the ``accel`` dialect following the user's ``opcode_flow`` (producing IR
shaped like Fig. 6b / Fig. 15b).

Loop structure, outermost to innermost:

1. optional CPU-cache tiling loops (one per dim whose chosen CPU tile is
   smaller than its extent), in the permuted order;
2. accelerator tiling loops, in the permuted order, whose bodies carry
   the ``accel`` communication ops at the levels computed by
   :func:`repro.transforms.flow_analysis.place_flow`.

Staged sends batch into one DMA transaction: ``accel.flush_send`` is
inserted before each receive, before entering a nested flow scope, and
at the end of each scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..dialects import accel, arith, linalg, scf
from ..ir.affine import AffineExpr
from ..ir.attributes import unwrap
from ..ir.builder import Builder, InsertionPoint
from ..ir.core import Module, Operation, Value
from ..ir.types import I32, INDEX, MemRefType
from ..opcodes import (
    FlowGroup,
    FlowOpcode,
    Opcode,
    OpcodeFlow,
    Recv,
    Send,
    SendDim,
    SendIdx,
    SendLiteral,
)
from .annotate import PREFIX, is_annotated
from .cpu_tiling import FOOTPRINT_ITEMSIZE, choose_cpu_tiles
from .errors import CompileError
from .flow_analysis import (
    FlowPlacement,
    PlacedGroup,
    PlacedOpcode,
    derive_loop_order,
    place_flow,
)
from .pass_manager import Pass, PipelineContext, option_bool, register_pass


@dataclass
class LoweringPlan:
    """Everything resolved before emission, useful for tests/heuristics."""

    dim_names: Tuple[str, ...]
    extents: Dict[str, int]
    #: Effective tile extent per dim (accel size, 1, or the full extent).
    tiles: Dict[str, int]
    #: Dims that get an accelerator-tiling host loop, in nest order.
    loop_order: Tuple[str, ...]
    #: CPU-cache tile per dim (== extent when no outer loop is needed).
    cpu_tiles: Dict[str, int]
    placement: FlowPlacement
    operand_host_dims: List[Set[str]]
    init_flow: Optional[OpcodeFlow]


def _effective_tiles(dim_names: Sequence[str], extents: Dict[str, int],
                     accel_dim: Dict[str, int]) -> Tuple[Dict[str, int],
                                                         List[str]]:
    """Resolve per-dim tile extents and which dims need host loops.

    ``accel_dim[d] == 0`` means the accelerator does not tile ``d``: the
    host iterates it with step 1 (paper Fig. 15).  A tile covering the
    full extent removes the loop entirely ("no tiling will be performed
    across these dimensions", Sec. IV-D).
    """
    tiles: Dict[str, int] = {}
    host_dims: List[str] = []
    for dim in dim_names:
        extent = extents[dim]
        size = int(accel_dim.get(dim, 0))
        if size == 0:
            tiles[dim] = 1
            host_dims.append(dim)
        elif size >= extent:
            tiles[dim] = extent
        else:
            if extent % size:
                raise CompileError(
                    f"dim {dim!r}: extent {extent} is not divisible by "
                    f"accelerator tile {size}; pad the problem or pick a "
                    f"flexible-size accelerator"
                )
            tiles[dim] = size
            host_dims.append(dim)
    return tiles, host_dims


def _result_tile_size(expr: AffineExpr, tiles: Dict[str, int],
                      dim_names: Sequence[str]) -> int:
    """Subview extent along one operand axis: 1 + sum(coef * (tile-1))."""
    terms = linalg.linear_form(expr)[0]
    size = 1
    for dim_pos, coefficient in terms.items():
        size += coefficient * (tiles[dim_names[dim_pos]] - 1)
    return size


def _expr_to_ir(b: Builder, expr: AffineExpr,
                iv_by_pos: Dict[int, Value]) -> Value:
    """Emit index arithmetic computing ``expr`` over loop ivs.

    Dims without a host loop contribute 0 (their whole extent lives in
    the accelerator tile).
    """
    terms, constant = linalg.linear_form(expr)
    result: Optional[Value] = None
    for dim_pos, coefficient in sorted(terms.items()):
        iv = iv_by_pos.get(dim_pos)
        if iv is None:
            continue
        term = iv
        if coefficient != 1:
            term = arith.muli(b, iv, arith.index_constant(b, coefficient))
        result = term if result is None else arith.addi(b, result, term)
    if result is None:
        return arith.index_constant(b, constant)
    if constant:
        result = arith.addi(b, result, arith.index_constant(b, constant))
    return result


class _Emitter:
    """Per-operation emission state."""

    def __init__(self, op: Operation, plan: LoweringPlan,
                 opcode_map, literals_are_hex: bool = True):
        self.op = op
        self.plan = plan
        self.opcode_map = opcode_map
        self.maps = linalg.indexing_maps(op)
        self.dim_names = plan.dim_names
        self.dim_pos = {d: i for i, d in enumerate(plan.dim_names)}
        self.operands = list(op.operands)
        self.num_inputs = linalg.num_inputs(op)
        #: dim name -> current accel-loop induction variable.
        self.ivs: Dict[str, Value] = {}
        #: dim name -> (enclosing lower-bound value or None, extent of the
        #: current CPU-tile scope).  Covers host dims whose accel loop is
        #: not (yet) open at the emission point.
        self.bounds: Dict[str, Tuple[Optional[Value], int]] = {}

    # -- subview emission ------------------------------------------------
    def effective_extents(self) -> Dict[str, int]:
        """Per-dim subview extent at the current emission point.

        Dims whose accelerator loop is open contribute one tile; host
        dims whose loop is *inside* the current scope are aggregated
        wholesale (their remaining CPU-tile extent) — this is how a
        hoisted ``recv`` covers a whole output slice (paper Fig. 15b);
        dims without host loops contribute their full in-accelerator
        tile.
        """
        extents: Dict[str, int] = {}
        for dim in self.dim_names:
            if dim in self.ivs:
                extents[dim] = self.plan.tiles[dim]
            elif dim in self.bounds:
                extents[dim] = self.bounds[dim][1]
            else:
                extents[dim] = self.plan.tiles[dim]
        return extents

    def operand_subview(self, b: Builder, arg: int) -> Value:
        operand = self.operands[arg]
        operand_type = operand.type
        if not isinstance(operand_type, MemRefType):
            raise CompileError(
                f"operand {arg} of {self.op.name} is not a memref"
            )
        amap = self.maps[arg]
        iv_by_pos: Dict[int, Value] = {
            self.dim_pos[d]: iv for d, iv in self.ivs.items()
        }
        # Host dims not yet opened sit at their enclosing CPU-tile lower
        # bound (or 0 when there is no outer loop).
        for dim, (lower, _extent) in self.bounds.items():
            if dim not in self.ivs and lower is not None:
                iv_by_pos[self.dim_pos[dim]] = lower
        extents = self.effective_extents()
        offsets = [_expr_to_ir(b, expr, iv_by_pos) for expr in amap.results]
        sizes = [
            _result_tile_size(expr, extents, self.dim_names)
            for expr in amap.results
        ]
        return memref_subview(b, operand, offsets, sizes)

    def tile_extent_of_operand_dim(self, arg: int, dim_index: int) -> int:
        amap = self.maps[arg]
        if dim_index >= len(amap.results):
            raise CompileError(
                f"send_dim({arg}, {dim_index}): operand has rank "
                f"{len(amap.results)}"
            )
        return _result_tile_size(
            amap.results[dim_index], self.plan.tiles, self.dim_names
        )


def memref_subview(b: Builder, source: Value, offsets: Sequence[Value],
                   sizes: Sequence[int]) -> Value:
    from ..dialects import memref as memref_dialect

    return memref_dialect.subview(b, source, offsets, sizes)


def operand_dims(maps, dim_names: Sequence[str]) -> Tuple[Tuple[str, ...]]:
    """Per operand, the dims of each indexing expression in turn: the
    operand footprint :func:`choose_cpu_tiles` sizes CPU tiles by."""
    return tuple(tuple(dim_names[p] for expr in amap.results
                       for p in sorted(expr.used_dims())) for amap in maps)


class LowerToAccelPass(Pass):
    """Lower every annotated generic op in the module."""

    name = "linalg-to-accel"

    def __init__(self, cpu_cache_bytes: Optional[int] = None,
                 enable_cpu_tiling: bool = True):
        super().__init__()
        self.cpu_cache_bytes = cpu_cache_bytes or 512 * 1024
        self.enable_cpu_tiling = enable_cpu_tiling
        self.plans: List[LoweringPlan] = []

    # -- planning ------------------------------------------------------------
    def plan_operation(self, op: Operation) -> LoweringPlan:
        dim_names = tuple(linalg.loop_dim_names(op))
        extents = dict(zip(dim_names, linalg.loop_ranges(op)))
        accel_dim = {
            k: int(v) for k, v in unwrap(op.get_attr(PREFIX + "accel_dim")).items()
        }
        unknown = set(accel_dim) - set(dim_names)
        if unknown:
            raise CompileError(
                f"accel_dim names unknown dims {sorted(unknown)}"
            )
        tiles, host_dims = _effective_tiles(dim_names, extents, accel_dim)

        maps = linalg.indexing_maps(op)
        operand_host_dims: List[Set[str]] = []
        for amap in maps:
            used: Set[str] = set()
            for expr in amap.results:
                used |= {dim_names[p] for p in expr.used_dims()}
            operand_host_dims.append(used & set(host_dims))

        flow: OpcodeFlow = op.get_attr(PREFIX + "opcode_flow").value
        opcode_map = op.get_attr(PREFIX + "opcode_map").value

        permutation_attr = op.get_attr(PREFIX + "permutation")
        if permutation_attr is not None:
            requested = [str(s) for s in unwrap(permutation_attr)]
            # Dims that ended up fully inside the accelerator (extent <=
            # tile) have no host loop; drop them from the request.
            order = [d for d in requested if d in host_dims]
            if sorted(order) != sorted(host_dims):
                missing = sorted(set(host_dims) - set(order))
                raise CompileError(
                    f"permutation {requested} does not cover the host "
                    f"loop dims; missing {missing}"
                )
        else:
            order = derive_loop_order(
                flow, opcode_map, operand_host_dims, host_dims, tiles
            )

        if not order:
            # Everything fits in the accelerator: flatten the flow.
            flow = OpcodeFlow(FlowGroup(tuple(
                FlowOpcode(name) for name in flow.opcode_names()
            )))
        placement = place_flow(flow, opcode_map, operand_host_dims, order,
                               tiles)

        if self.enable_cpu_tiling:
            cpu_tiles = choose_cpu_tiles(
                {d: extents[d] for d in order},
                {d: tiles[d] for d in order},
                operand_dims(maps, dim_names),
                FOOTPRINT_ITEMSIZE,
                self.cpu_cache_bytes,
                loop_order=order,
            )
        else:
            cpu_tiles = {d: extents[d] for d in order}

        init_attr = op.get_attr(PREFIX + "init_opcodes")
        init_flow = init_attr.value if init_attr is not None else None

        return LoweringPlan(
            dim_names=dim_names,
            extents=extents,
            tiles=tiles,
            loop_order=tuple(order),
            cpu_tiles=cpu_tiles,
            placement=placement,
            operand_host_dims=operand_host_dims,
            init_flow=init_flow,
        )

    # -- emission ----------------------------------------------------------
    def run(self, module: Module) -> None:
        self.plans = []
        targets = [op for op in module.walk()
                   if op.name == "linalg.generic" and is_annotated(op)]
        for op in targets:
            plan = self.plan_operation(op)
            self.plans.append(plan)
            self.lower_operation(op, plan)

    def lower_operation(self, op: Operation, plan: LoweringPlan) -> None:
        b = Builder(InsertionPoint.before(op))
        opcode_map = op.get_attr(PREFIX + "opcode_map").value
        emitter = _Emitter(op, plan, opcode_map)

        self._emit_dma_init(b, op)
        if plan.init_flow is not None:
            self._emit_init_opcodes(b, emitter, plan, opcode_map)

        self._emit_loop_nest(b, emitter, plan, opcode_map)
        op.erase()

    def _emit_dma_init(self, b: Builder, op: Operation) -> None:
        config = unwrap(op.get_attr(PREFIX + "dma_init_config"))
        func_op = op.parent_op
        while func_op is not None and func_op.name != "func.func":
            func_op = func_op.parent_op
        if func_op is not None:
            for existing in func_op.walk():
                if existing.name == "accel.dma_init":
                    existing_id = existing.get_attr("dma_id")
                    if existing_id is not None and \
                            unwrap(existing_id) == config["id"]:
                        return
        operands = [
            arith.index_constant(b, int(config[key]))
            for key in ("id", "inputAddress", "inputBufferSize",
                        "outputAddress", "outputBufferSize")
        ]
        init = accel.dma_init(b, *operands)
        init.set_attr("dma_id", int(config["id"]))

    # -- opcode action emission ------------------------------------------
    def _emit_actions(self, b: Builder, emitter: _Emitter, opcode: Opcode,
                      offset: Value, staged: bool) -> Tuple[Value, bool]:
        """Emit one opcode's actions; returns (offset value, staged?)."""
        for action in opcode.actions:
            if isinstance(action, SendLiteral):
                literal = arith.constant(b, action.value, I32)
                offset = accel.send_literal(b, literal, offset)
                staged = True
            elif isinstance(action, Send):
                subview = emitter.operand_subview(b, action.arg)
                offset = accel.send(b, subview, offset)
                staged = True
            elif isinstance(action, SendDim):
                offset, staged = self._emit_send_dim(
                    b, emitter, action, offset
                )
            elif isinstance(action, SendIdx):
                iv = emitter.ivs.get(action.dim)
                if iv is None:
                    iv = arith.index_constant(b, 0)
                offset = accel.send_idx(b, iv, offset)
                staged = True
            elif isinstance(action, Recv):
                if staged:
                    offset = accel.flush_send(b, offset)
                    staged = False
                subview = emitter.operand_subview(b, action.arg)
                zero = arith.constant(b, 0, I32)
                accel.recv(b, subview, zero, mode=accel.RECV_ACCUMULATE)
            else:  # pragma: no cover - parser only produces the above
                raise CompileError(f"unknown action {action}")
        return offset, staged

    def _emit_send_dim(self, b: Builder, emitter: _Emitter,
                       action: SendDim, offset: Value) -> Tuple[Value, bool]:
        tile_extent = emitter.tile_extent_of_operand_dim(
            action.arg, action.dim
        )
        operand = emitter.operands[action.arg]
        operand_type = operand.type
        full_extent = operand_type.shape[action.dim]
        if tile_extent == full_extent:
            # Matches the paper's accel.sendDim on the whole operand
            # (Fig. 15b L7/L9).
            dim_const = arith.index_constant(b, action.dim)
            offset = accel.send_dim(b, operand, dim_const, offset)
        else:
            # Tile extent differs from the full dim (flexible-size
            # accelerators): the extent is a compile-time constant.
            literal = arith.constant(b, tile_extent, I32)
            offset = accel.send_literal(b, literal, offset)
        return offset, True

    def _emit_init_opcodes(self, b: Builder, emitter: _Emitter,
                           plan: LoweringPlan, opcode_map) -> None:
        offset: Value = arith.constant(b, 0, I32)
        staged = False
        for name in plan.init_flow.opcode_names():
            offset, staged = self._emit_actions(
                b, emitter, opcode_map[name], offset, staged
            )
        if staged:
            accel.flush_send(b, offset)

    # -- loop nest -----------------------------------------------------------
    def _emit_loop_nest(self, b: Builder, emitter: _Emitter,
                        plan: LoweringPlan, opcode_map) -> None:
        order = plan.loop_order
        outer_dims = [
            d for d in order
            if plan.cpu_tiles.get(d, plan.extents[d]) < plan.extents[d]
        ]

        accel_bounds = emitter.bounds

        # Outer CPU-cache tiling loops wrap the whole placed nest.
        def emit_outer(index: int) -> None:
            if index == len(outer_dims):
                self._emit_placed(b, emitter, plan, opcode_map,
                                  plan.placement.root, -1)
                return
            dim = outer_dims[index]
            extent = plan.extents[dim]
            cpu_tile = plan.cpu_tiles[dim]
            zero = arith.index_constant(b, 0)
            upper = arith.index_constant(b, extent)
            step = arith.index_constant(b, cpu_tile)
            with scf.build_for(b, zero, upper, step, f"{dim}o") as iv:
                accel_bounds[dim] = (iv, cpu_tile)
                emit_outer(index + 1)
                del accel_bounds[dim]

        for dim in order:
            if dim not in outer_dims:
                accel_bounds[dim] = (None, plan.extents[dim])

        emit_outer(0)

    def _emit_placed(self, b: Builder, emitter: _Emitter,
                     plan: LoweringPlan, opcode_map,
                     group: PlacedGroup, current_level: int) -> None:
        """Emit a placed group: loops down to its level, then its items."""
        order = plan.loop_order
        accel_bounds = emitter.bounds

        def open_loops(from_level: int, to_level: int, body) -> None:
            """Open accel loops for positions (from_level, to_level]."""
            if from_level >= to_level:
                body()
                return
            level = from_level + 1
            dim = order[level]
            lower_value, extent = accel_bounds[dim]
            step = plan.tiles[dim]
            if lower_value is None:
                lower = arith.index_constant(b, 0)
                upper = arith.index_constant(b, extent)
            else:
                lower = lower_value
                upper = arith.addi(
                    b, lower_value, arith.index_constant(b, extent)
                )
            step_value = arith.index_constant(b, step)
            with scf.build_for(b, lower, upper, step_value, dim) as iv:
                emitter.ivs[dim] = iv
                open_loops(level, to_level, body)
                del emitter.ivs[dim]

        def emit_items() -> None:
            offset: Value = arith.constant(b, 0, I32)
            staged = False
            for item in group.items:
                if isinstance(item, PlacedOpcode):
                    offset, staged = self._emit_actions(
                        b, emitter, opcode_map[item.name], offset, staged
                    )
                else:
                    if staged:
                        offset = accel.flush_send(b, offset)
                        staged = False
                    self._emit_placed(b, emitter, plan, opcode_map,
                                      item, group.level)
                    offset = arith.constant(b, 0, I32)
            if staged:
                accel.flush_send(b, offset)

        open_loops(current_level, group.level, emit_items)


@register_pass("lower-to-accel")
def _make_lower_to_accel(context: PipelineContext, options: dict) -> Pass:
    cache_bytes = None
    if context.cpu is not None:
        cache_bytes = context.cpu.last_level_size
    if "cache-bytes" in options:
        try:
            cache_bytes = int(options["cache-bytes"], 0)
        except ValueError as error:
            raise CompileError(
                f"bad cache-bytes option {options['cache-bytes']!r}"
            ) from error
    return LowerToAccelPass(
        cpu_cache_bytes=cache_bytes,
        enable_cpu_tiling=option_bool(options, "cpu-tiling", True),
    )
