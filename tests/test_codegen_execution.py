"""Tests for the Python emitter and the reference interpreter, including
the equivalence of both execution paths (results AND perf counters)."""

import numpy as np
import pytest

from repro.accelerators import MatMulAccelerator, make_matmul_system
from repro.codegen import compile_host_function, emit_function
from repro.codegen.python_emitter import EmitError, PythonEmitter
from repro.compiler import AXI4MLIRCompiler, build_matmul_module
from repro.dialects import arith, func, scf
from repro.execution import interpret_function
from repro.execution.interpreter import Interpreter, InterpreterError
from repro.ir import I32, INDEX, MemRefType, Module, make_func
from repro.ir.core import Operation
from repro.runtime import AxiRuntime
from repro.soc import make_pynq_z2


def make_kernel(version=3, size=4, flow="As", dims=16):
    hw, info = make_matmul_system(version, size, flow=flow)
    kernel = AXI4MLIRCompiler(info, enable_cpu_tiling=False).compile_matmul(
        dims, dims, dims
    )
    return hw, kernel


class TestEmitter:
    def test_source_structure(self):
        _, kernel = make_kernel()
        source = kernel.source
        assert source.startswith("def matmul_call(rt, arg0, arg1, arg2):")
        # Library calls are bound to locals at entry and called bare.
        assert "dma_init = rt.dma_init" in source
        assert "recv_memref = rt.recv_memref" in source
        assert "flush_send = rt.flush_send" in source
        assert "for m in range(" in source
        assert "for k in range(" in source
        assert "for n in range(" in source
        assert "recv_memref(" in source
        assert "accumulate=True" in source
        assert "flush_send(" in source

    def test_constants_and_sizes_hoisted(self):
        """Loop-invariant constants live in the prelude, not the body."""
        _, kernel = make_kernel()
        lines = kernel.source.splitlines()
        first_loop = next(i for i, text in enumerate(lines)
                          if text.lstrip().startswith("for "))
        body = lines[first_loop:]
        assert not any(ln.lstrip().startswith("c") and "= " in ln
                       and ln.split("= ")[-1].lstrip("-").isdigit()
                       for ln in body), "constant assignment inside a loop"
        assert any(ln.strip().startswith("sz0 = (") for ln in lines)

    def test_schedule_table_counts_driver_events(self):
        from repro.codegen import schedule_event_count
        from repro.execution import TraceRecorder

        _, kernel = make_kernel()
        expected = schedule_event_count(kernel.schedule_table)
        recorder = TraceRecorder(tuple(
            ((16, 16), (16, 1), 4, "int32") for _ in range(3)
        ))
        kernel.entry_point(recorder, *recorder.make_args())
        assert expected == recorder.calls

    def test_loop_variables_named_after_dims(self):
        _, kernel = make_kernel(flow="Cs")
        # Cs order is (m, n, k).
        source = kernel.source
        assert source.index("for m in") < source.index("for n in") \
            < source.index("for k in")

    def test_duplicate_iv_names_disambiguated(self):
        module = Module()
        f = module.add_function(make_func("dup", []))
        b = func.builder_at_entry(f)
        zero = arith.index_constant(b, 0)
        four = arith.index_constant(b, 4)
        one = arith.index_constant(b, 1)
        with scf.build_for(b, zero, four, one, "i"):
            with scf.build_for(b, zero, four, one, "i"):
                pass
        func.ret(b)
        source = emit_function(f)[0]
        assert "for i in range" in source
        assert "for i2 in range" in source

    def test_emitted_code_is_executable_python(self):
        _, kernel = make_kernel()
        compiled, text = compile_host_function(kernel.func_op)
        assert callable(compiled)
        assert text == kernel.source

    def test_unsupported_op_reported(self):
        module = Module()
        f = module.add_function(make_func("bad", []))
        b = func.builder_at_entry(f)
        b.create("weird.op")
        func.ret(b)
        with pytest.raises(EmitError, match="weird.op"):
            emit_function(f)[0]

    def test_non_func_rejected(self):
        with pytest.raises(EmitError):
            PythonEmitter(Operation("test.notafunc"))

    @pytest.mark.parametrize("name", [
        "f(rt):\n    pass\ndef g", "for", "rt", "range", "send_memref",
        "arg0", "c3", "1x"])
    def test_only_plain_identifiers_become_names(self, name):
        """IR read back from a kernel store is the emitter's input, so a
        name it interpolates is a fresh identifier or an EmitError."""
        module = Module()
        f = module.add_function(make_func(name, []))
        b = func.builder_at_entry(f)
        zero = arith.index_constant(b, 0)
        with scf.build_for(b, zero, zero, zero, "m"):
            pass
        func.ret(b)
        with pytest.raises(EmitError, match="identifier"):
            emit_function(f)[0]
        f.set_attr("sym_name", "kernel")
        f.regions[0].entry_block.operations[1].set_attr("iv_name", name)
        with pytest.raises(EmitError, match="identifier"):
            emit_function(f)[0]

    @pytest.mark.parametrize("site", ["constant", "dim", "subview"])
    @pytest.mark.parametrize("value", ["0]\nimport os\nx = [0", [1],
                                       float("nan")])
    def test_only_numbers_become_literals(self, site, value):
        module = Module()
        f = module.add_function(make_func("kernel",
                                          [MemRefType((4, 4), I32)]))
        b = func.builder_at_entry(f)
        (ref,) = func.arguments(f)
        zero = arith.index_constant(b, 0)
        if site == "constant":
            b.create("arith.constant", result_types=[INDEX],
                     attributes={"value": value})
        elif site == "dim":
            b.create("memref.dim", operands=[ref], result_types=[INDEX],
                     attributes={"index": value})
        else:
            b.create("memref.subview", operands=[ref, zero, zero],
                     result_types=[ref.type],
                     attributes={"static_sizes": [value, 4]})
        func.ret(b)
        with pytest.raises(EmitError, match="literal"):
            emit_function(f)[0]


class TestInterpreter:
    def test_scalar_arithmetic(self):
        module = Module()
        f = module.add_function(make_func("calc", []))
        b = func.builder_at_entry(f)
        three = arith.constant(b, 3, I32)
        four = arith.constant(b, 4, I32)
        total = arith.addi(b, three, four)
        product = arith.muli(b, total, four)
        func.ret(b, [product])
        assert interpret_function(f, []) == [28]

    def test_loop_semantics(self):
        module = Module()
        f = module.add_function(make_func("loop", []))
        b = func.builder_at_entry(f)
        zero = arith.index_constant(b, 0)
        ten = arith.index_constant(b, 10)
        three = arith.index_constant(b, 3)
        body_counter = []
        with scf.build_for(b, zero, ten, three):
            pass
        func.ret(b)
        interp = Interpreter()
        loop = f.regions[0].entry_block.operations[-2]
        original = interp._op_scf_for
        iterations = []

        def counting(op):
            iterations.append(op)
            return original(op)

        interp._op_scf_for = counting
        interp.run(f, [])
        del body_counter
        assert len(iterations) == 1  # ceil(10/3) iterations inside

    def test_zero_step_rejected(self):
        module = Module()
        f = module.add_function(make_func("bad", []))
        b = func.builder_at_entry(f)
        zero = arith.index_constant(b, 0)
        with scf.build_for(b, zero, zero, zero):
            pass
        func.ret(b)
        with pytest.raises(InterpreterError):
            interpret_function(f, [])

    def test_argument_arity_checked(self):
        module = Module()
        f = module.add_function(make_func("two", [INDEX, INDEX]))
        with pytest.raises(InterpreterError):
            interpret_function(f, [1])

    def test_accel_ops_require_runtime(self):
        _, kernel = make_kernel()
        with pytest.raises(InterpreterError):
            interpret_function(kernel.func_op, [None, None, None],
                               runtime=None)

    def test_functional_linalg_matmul_fallback(self, rng):
        module = build_matmul_module(8, 8, 8, I32)
        from repro.transforms import GeneralizeNamedOpsPass
        GeneralizeNamedOpsPass().run(module)
        a = rng.integers(-5, 5, (8, 8)).astype(np.int32)
        b = rng.integers(-5, 5, (8, 8)).astype(np.int32)
        c = np.zeros((8, 8), np.int32)
        from repro.runtime import MemRefDescriptor
        args = [MemRefDescriptor.from_numpy(x) for x in (a, b, c)]
        interpret_function(module.lookup("matmul_call"), args)
        assert np.array_equal(args[2].view(), a @ b)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_functional_linalg_conv_fallback(self, stride, rng):
        """The conv fallback reads its stride off the image map."""
        from repro.compiler import build_conv_module
        from repro.runtime import MemRefDescriptor
        from repro.transforms import GeneralizeNamedOpsPass

        module = build_conv_module(1, 3, 7, 2, 3, stride, I32)
        GeneralizeNamedOpsPass().run(module)
        image = rng.integers(-5, 5, (1, 3, 7, 7)).astype(np.int32)
        weights = rng.integers(-5, 5, (2, 3, 3, 3)).astype(np.int32)
        out_hw = (7 - 3) // stride + 1
        expected = np.zeros((1, 2, out_hw, out_hw), np.int32)
        for f in range(2):
            for oh in range(out_hw):
                for ow in range(out_hw):
                    window = image[0, :, oh * stride:oh * stride + 3,
                                   ow * stride:ow * stride + 3]
                    expected[0, f, oh, ow] = np.sum(window * weights[f])
        args = [MemRefDescriptor.from_numpy(x) for x in
                (image, weights, np.zeros_like(expected))]
        interpret_function(module.lookup("conv_call"), args)
        assert np.array_equal(args[2].view(), expected)


class TestEmitterInterpreterEquivalence:
    @pytest.mark.parametrize("version,flow", [
        (1, "Ns"), (2, "As"), (3, "Cs"), (3, "Ns"),
    ])
    def test_results_and_counters_agree(self, version, flow, rng):
        dims, size = 16, 4
        a = rng.integers(-5, 5, (dims, dims)).astype(np.int32)
        b = rng.integers(-5, 5, (dims, dims)).astype(np.int32)

        hw1, kernel = make_kernel(version, size, flow, dims)
        board1 = make_pynq_z2()
        board1.attach_accelerator(hw1)
        c1 = np.zeros((dims, dims), np.int32)
        emitted = kernel.run(board1, a, b, c1)

        hw2 = MatMulAccelerator(size, version)
        board2 = make_pynq_z2()
        board2.attach_accelerator(hw2)
        c2 = np.zeros((dims, dims), np.int32)
        interpreted = kernel.run_interpreted(board2, a, b, c2)

        assert np.array_equal(c1, a @ b)
        assert np.array_equal(c2, c1)
        assert emitted.cache_references == pytest.approx(
            interpreted.cache_references
        )
        assert emitted.branch_instructions == pytest.approx(
            interpreted.branch_instructions
        )
        assert emitted.cpu_cycles == pytest.approx(interpreted.cpu_cycles)
        assert emitted.task_clock_ms() == pytest.approx(
            interpreted.task_clock_ms()
        )
        assert emitted.dma_transactions == interpreted.dma_transactions
