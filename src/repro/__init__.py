"""AXI4MLIR reproduction: user-driven automatic host code generation for
custom AXI-based accelerators (CGO 2024), on a simulated PYNQ-Z2-class SoC.

Public API tour:

* :class:`repro.compiler.AXI4MLIRCompiler` — configuration in, executable
  host driver out;
* :mod:`repro.accelerators` — the Table I accelerator library + conv engine,
  with ready-made configuration files;
* :mod:`repro.soc` — the simulated board (caches, DMA, AXI-Stream, perf);
* :mod:`repro.baselines` — ``cpp_MANUAL`` drivers and ``mlir_CPU`` reference;
* :mod:`repro.heuristics` — flexible-tiling/dataflow selection (Sec. IV-C);
* :mod:`repro.frontends` — ResNet18 conv layers and TinyBERT.
"""

from .accel_config import (
    AcceleratorInfo,
    ConfigError,
    CPUInfo,
    DMAConfig,
    SystemConfig,
    load_config,
    parse_config,
)
from .compiler import (
    AXI4MLIRCompiler,
    build_conv_module,
    build_matmul_module,
)
from .kernel import CompiledKernel
from .kernel_cache import KernelCache, default_kernel_cache
from .runtime import AxiRuntime, MemRefDescriptor
from .soc import Board, PerfCounters, TimingModel, make_pynq_z2
from .transforms import CompileError

__version__ = "1.0.0"

__all__ = [
    "AcceleratorInfo", "ConfigError", "CPUInfo", "DMAConfig",
    "SystemConfig", "load_config", "parse_config",
    "AXI4MLIRCompiler", "CompiledKernel", "KernelCache",
    "build_conv_module", "build_matmul_module", "default_kernel_cache",
    "AxiRuntime", "MemRefDescriptor",
    "Board", "PerfCounters", "TimingModel", "make_pynq_z2",
    "CompileError",
    "__version__",
]
