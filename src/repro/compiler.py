"""Top-level AXI4MLIR driver: configuration to executable host code.

Typical use (see ``examples/quickstart.py``)::

    accel_hw, accel_info = make_matmul_system(version=3, size=8, flow="Cs")
    compiler = AXI4MLIRCompiler(accel_info)
    kernel = compiler.compile_matmul(64, 64, 64)
    board = make_pynq_z2()
    board.attach_accelerator(accel_hw)
    counters = kernel.run(board, A, B, C)      # C += A @ B on the accelerator

``kernel.py`` holds the kernel a compile returns and its run,
``kernel_cache.py`` the cache and its store; this module is the
compiler.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional, Sequence, Tuple

from .accel_config import AcceleratorInfo, CPUInfo
from .codegen import emit_function
from .dialects import func, linalg
from .execution.trace import add_stage_time
from .ir import Module, MemRefType, parse_module
from .kernel import CompiledKernel
# suspend_disk_store: re-exported for perf/perfbench/layers.py.
from .kernel_cache import (KernelCache, default_kernel_cache,  # noqa: F401
                           suspend_disk_store)
from .transforms import CompileError, build_axi4mlir_pipeline
from .transforms.cpu_tiling import cpu_tiling_applies
from .transforms.lower_to_accel import operand_dims


def build_matmul_module(m: int, n: int, k: int, element_type) -> Module:
    """A module holding ``matmul_call``: C(m,n) += A(m,k) * B(k,n)."""
    module = Module()
    func_op = func.define(
        "matmul_call",
        [
            MemRefType((m, k), element_type),
            MemRefType((k, n), element_type),
            MemRefType((m, n), element_type),
        ],
    )
    module.add_function(func_op)
    b = func.builder_at_entry(func_op)
    a, rhs, out = func.arguments(func_op)
    linalg.matmul(b, a, rhs, out)
    func.ret(b)
    return module


def build_conv_module(batch: int, in_ch: int, in_hw: int, out_ch: int,
                      f_hw: int, stride: int, element_type) -> Module:
    """A module holding ``conv_call`` for one NCHW/FCHW convolution."""
    out_hw = (in_hw - f_hw) // stride + 1
    module = Module()
    func_op = func.define(
        "conv_call",
        [
            MemRefType((batch, in_ch, in_hw, in_hw), element_type),
            MemRefType((out_ch, in_ch, f_hw, f_hw), element_type),
            MemRefType((batch, out_ch, out_hw, out_hw), element_type),
        ],
    )
    module.add_function(func_op)
    b = func.builder_at_entry(func_op)
    image, weights, out = func.arguments(func_op)
    linalg.conv_2d_nchw_fchw(b, image, weights, out, stride=stride)
    func.ret(b)
    return module


#: Per named kernel: its op, its operands' dims and its module builder.
_NAMED_KERNELS = {
    name: (op, operand_dims(maps, maps[0].dim_names), build)
    for name, op, maps, build in (
        ("matmul_call", "linalg.matmul", linalg.matmul_maps(),
         build_matmul_module),
        ("conv_call", "linalg.conv_2d_nchw_fchw",
         linalg.conv_2d_nchw_fchw_maps(), build_conv_module))}


def cpu_fingerprint(cpu: CPUInfo) -> Tuple:
    """The CPU-config half of a kernel cache key (tiling decisions)."""
    return (cpu.cache_levels, cpu.cache_types, cpu.line_size,
            cpu.associativity, cpu.frequency_hz)

class AXI4MLIRCompiler:
    """User-facing compiler: accelerator config in, host driver out."""

    def __init__(self, info: AcceleratorInfo, cpu: Optional[CPUInfo] = None,
                 flow_name: Optional[str] = None,
                 permutation: Optional[Sequence[str]] = None,
                 enable_cpu_tiling: bool = True,
                 specialized_copies: bool = True,
                 kernel_cache: Optional[KernelCache] = None,
                 use_kernel_cache: bool = True):
        self.info = info
        self.cpu = cpu or CPUInfo()
        self.flow_name = flow_name
        self.permutation = permutation if permutation is not None \
            else info.loop_permutation
        self.enable_cpu_tiling = enable_cpu_tiling
        self.specialized_copies = specialized_copies
        self.kernel_cache = kernel_cache if kernel_cache is not None \
            else (default_kernel_cache() if use_kernel_cache else None)

    # -- generic entry ---------------------------------------------------
    def compile_module(self, module, func_name: Optional[str] = None,
                       parameters: Optional[dict] = None) -> CompiledKernel:
        """Compile a :class:`Module` or textual ``.mlir`` source.

        ``module`` may be an in-memory module or a string of textual IR
        (as printed by the IR printer / stored in ``tests/filecheck``
        fixtures).  ``func_name`` defaults to the module's first (and
        typically only) function.
        """
        return self._lower(module, func_name, parameters,
                           self.enable_cpu_tiling)

    def _lower(self, module, func_name: Optional[str],
               parameters: Optional[dict], cpu_tiling: bool) -> CompiledKernel:
        start = time.perf_counter()
        try:
            if isinstance(module, str):
                module = parse_module(module, verify=True)
            if func_name is None:
                functions = module.functions()
                if not functions:
                    raise CompileError(
                        "module defines no func.func to compile"
                    )
                func_name = functions[0].get_attr("sym_name").value
            pipeline = build_axi4mlir_pipeline(
                self.info,
                cpu=self.cpu,
                flow_name=self.flow_name,
                permutation=self.permutation,
                enable_cpu_tiling=cpu_tiling,
            )
            pipeline.run(module)
            # Synthesis needs the schedule table: emit now, exec on demand.
            emitted = emit_function(module.lookup(func_name))
            lower_pass = pipeline.passes[-1]
            plan = lower_pass.plans[0] \
                if getattr(lower_pass, "plans", None) else None
            kernel = CompiledKernel(
                module=module,
                func_name=func_name,
                plan=plan,
                specialized_copies=self.specialized_copies,
                parameters=dict(parameters or {}),
            )
            kernel.trace_state.emitted = emitted
            return kernel
        finally:
            add_stage_time("compile_s", time.perf_counter() - start)

    def _cache_key(self, kernel_name: str, shape: Tuple,
                   cpu_tiling: bool) -> Tuple:
        """What the lowering is a function of.  ``cpu_tiling`` is whether
        CPU tiling changes the plan, not the request's flag: a request
        whose tiling is a no-op names its untiled twin's kernel."""
        permutation = tuple(self.permutation) \
            if self.permutation is not None else None
        return (
            self.info.fingerprint,
            cpu_fingerprint(self.cpu),
            self.flow_name,
            permutation,
            cpu_tiling,
            kernel_name,
            shape,
        )

    def _compile_cached(self, kernel_name: str, extents: Tuple,
                        parameters: dict) -> CompiledKernel:
        """Look up / populate the kernel cache for one named kernel.

        Cache hits rebind the shared lowered module and driver to this
        compiler's runtime knobs; generated code never mutates its IR,
        so sharing is safe.
        """
        info = self.info
        op, operands, build_module = _NAMED_KERNELS[kernel_name]
        if info.kernel != op:
            raise CompileError(f"accelerator {info.name!r} implements "
                               f"{info.kernel!r}, not {op}")
        cpu_tiling = self.enable_cpu_tiling and cpu_tiling_applies(
            extents, info.dims, info.accel_size, operands,
            self.cpu.last_level_size)

        def build() -> CompiledKernel:
            module = build_module(**parameters, element_type=info.data_type)
            return self._lower(module, kernel_name, parameters, cpu_tiling)

        cache = self.kernel_cache
        if cache is None:
            return build()
        kernel = cache.get_or_compile(self._cache_key(
            kernel_name, tuple(parameters.values()), cpu_tiling), build)
        if kernel.specialized_copies == self.specialized_copies:
            return kernel
        return replace(kernel, specialized_copies=self.specialized_copies)

    # -- kernels -----------------------------------------------------------
    def compile_matmul(self, m: int, n: int, k: int) -> CompiledKernel:
        return self._compile_cached(
            "matmul_call", (("m", m), ("n", n), ("k", k)),
            {"m": m, "n": n, "k": k})

    def compile_conv(self, batch: int, in_ch: int, in_hw: int, out_ch: int,
                     f_hw: int, stride: int = 1) -> CompiledKernel:
        out_hw = (in_hw - f_hw) // stride + 1
        extents = (("n", batch), ("f", out_ch), ("oh", out_hw),
                   ("ow", out_hw), ("c", in_ch), ("fh", f_hw), ("fw", f_hw))
        return self._compile_cached("conv_call", extents, {
            "batch": batch, "in_ch": in_ch, "in_hw": in_hw,
            "out_ch": out_ch, "f_hw": f_hw, "stride": stride})
