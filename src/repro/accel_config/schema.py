"""Typed configuration objects (paper Fig. 5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..ir.types import Type
from ..opcodes import OpcodeFlow, OpcodeMap


@dataclass(frozen=True)
class CPUInfo:
    """Host CPU description: ``"cpu"`` section of the config file.

    ``cache_levels`` are capacities in bytes, smallest (L1) first;
    ``cache_types`` parallels it with ``"data"`` / ``"shared"`` tags.
    Frequency and cache geometry have PYNQ-Z2 (Cortex-A9) defaults.
    """

    cache_levels: Tuple[int, ...] = (32 * 1024, 512 * 1024)
    cache_types: Tuple[str, ...] = ("data", "shared")
    line_size: int = 32
    associativity: Tuple[int, ...] = (4, 8)
    frequency_hz: float = 650e6

    def __post_init__(self) -> None:
        object.__setattr__(self, "cache_levels", tuple(self.cache_levels))
        object.__setattr__(self, "cache_types", tuple(self.cache_types))
        object.__setattr__(self, "associativity", tuple(self.associativity))
        if len(self.cache_levels) != len(self.cache_types):
            raise ValueError("cache-levels and cache-types length mismatch")

    @property
    def l1_data_size(self) -> int:
        for size, kind in zip(self.cache_levels, self.cache_types):
            if kind == "data":
                return size
        return self.cache_levels[0]

    @property
    def last_level_size(self) -> int:
        return self.cache_levels[-1]


@dataclass(frozen=True)
class DMAConfig:
    """DMA engine parameters: ``dma_config`` (trait ``dma_init_config``)."""

    id: int = 0
    input_address: int = 0x42
    input_buffer_size: int = 0xFF00
    output_address: int = 0xFF42
    output_buffer_size: int = 0xFF00

    def __post_init__(self) -> None:
        if self.input_buffer_size <= 0 or self.output_buffer_size <= 0:
            raise ValueError("DMA buffer sizes must be positive")

    def as_operand_list(self) -> Tuple[int, int, int, int, int]:
        return (self.id, self.input_address, self.input_buffer_size,
                self.output_address, self.output_buffer_size)


@dataclass(frozen=True)
class AcceleratorInfo:
    """One accelerator entry of the configuration file.

    ``dims`` names the kernel's loop dimensions (e.g. ``["m","n","k"]``);
    ``data`` maps operand names, in operand order, to the dims that index
    them (``{"A": ["m","k"], "B": ["k","n"], "C": ["m","n"]}``);
    ``accel_size`` gives the accelerator tile extent per dim, where 0 means
    "the accelerator does not tile this dim" (conv Fig. 15a).
    """

    name: str
    kernel: str
    accel_size: Tuple[int, ...]
    data_type: Type
    dims: Tuple[str, ...]
    data: Tuple[Tuple[str, Tuple[str, ...]], ...]
    opcode_map: OpcodeMap
    opcode_flows: Tuple[Tuple[str, OpcodeFlow], ...]
    selected_flow: str
    dma_config: DMAConfig = field(default_factory=DMAConfig)
    init_opcodes: Optional[OpcodeFlow] = None
    version: str = "1.0"
    description: str = ""
    #: True when tile sizes may vary per problem as long as they divide
    #: ``flex_quantum`` and fit the buffers (the paper's v4 "flex size").
    flexible_size: bool = False
    flex_quantum: int = 1
    #: Accelerator internal buffer capacity in elements (for flex sizing).
    buffer_capacity: int = 0
    #: Optional explicit host loop order (outermost first); when absent
    #: the compiler derives it from the selected opcode flow.
    loop_permutation: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "accel_size", tuple(self.accel_size))
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(
            self, "data",
            tuple((k, tuple(v)) for k, v in self.data),
        )
        object.__setattr__(self, "opcode_flows", tuple(self.opcode_flows))
        if len(self.accel_size) != len(self.dims):
            raise ValueError(
                f"accel_size has {len(self.accel_size)} entries for "
                f"{len(self.dims)} dims"
            )
        flow_names = [name for name, _ in self.opcode_flows]
        if self.selected_flow not in flow_names:
            raise ValueError(
                f"selected_flow {self.selected_flow!r} not among {flow_names}"
            )
        for arg_name, arg_dims in self.data:
            unknown = [d for d in arg_dims if d not in self.dims]
            if unknown:
                raise ValueError(
                    f"operand {arg_name!r} uses unknown dims {unknown}"
                )
        if self.loop_permutation is not None:
            object.__setattr__(self, "loop_permutation",
                               tuple(self.loop_permutation))
            unknown_dims = [d for d in self.loop_permutation
                            if d not in self.dims]
            if unknown_dims:
                raise ValueError(
                    f"loop_permutation uses unknown dims {unknown_dims}"
                )
        for _, flow in self.opcode_flows:
            flow.validate_against(self.opcode_map)
        if self.init_opcodes is not None:
            self.init_opcodes.validate_against(self.opcode_map)

    # -- queries ------------------------------------------------------------
    @cached_property
    def fingerprint(self) -> Tuple:
        """Everything that affects lowering: the compile-cache key's
        accelerator half.  Computed once per object; ``replace`` copies
        (``with_flow``, ``with_accel_size``) compute their own."""
        return (
            self.name,
            self.kernel,
            self.accel_size,
            str(self.data_type),
            self.dims,
            self.data,
            str(self.opcode_map),
            tuple((name, str(flow)) for name, flow in self.opcode_flows),
            self.selected_flow,
            str(self.init_opcodes) if self.init_opcodes is not None
            else None,
            self.dma_config.as_operand_list(),
            self.flexible_size,
            self.flex_quantum,
            self.buffer_capacity,
            self.loop_permutation,
            self.version,
        )

    @property
    def flow(self) -> OpcodeFlow:
        return self.flow_named(self.selected_flow)

    def flow_named(self, name: str) -> OpcodeFlow:
        for flow_name, flow in self.opcode_flows:
            if flow_name == name:
                return flow
        raise KeyError(name)

    def flow_names(self) -> List[str]:
        return [name for name, _ in self.opcode_flows]

    def operand_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.data)

    def operand_dims(self, index: int) -> Tuple[str, ...]:
        return self.data[index][1]

    def tile_sizes(self) -> Dict[str, int]:
        """Per-dim accelerator tile size (0 entries mean untiled)."""
        return dict(zip(self.dims, self.accel_size))

    def with_flow(self, flow_name: str) -> "AcceleratorInfo":
        """A copy of this config selecting a different opcode flow."""
        from dataclasses import replace

        if flow_name not in self.flow_names():
            raise KeyError(flow_name)
        return replace(self, selected_flow=flow_name)

    def with_accel_size(self, sizes) -> "AcceleratorInfo":
        """A copy with new tile sizes (for flexible-size accelerators)."""
        from dataclasses import replace

        return replace(self, accel_size=tuple(sizes))


@dataclass(frozen=True)
class SystemConfig:
    """A full parsed configuration file: one CPU, many accelerators."""

    cpu: CPUInfo
    accelerators: Tuple[AcceleratorInfo, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "accelerators", tuple(self.accelerators))

    def accelerator(self, name: Optional[str] = None) -> AcceleratorInfo:
        if name is None:
            if len(self.accelerators) != 1:
                raise KeyError(
                    "config has multiple accelerators; pass a name"
                )
            return self.accelerators[0]
        for accel in self.accelerators:
            if accel.name == name:
                return accel
        raise KeyError(name)
