"""A tour of the compiler internals: IR at every stage of the pipeline.

Shows what the paper's Figs. 2, 6a, and 6b look like in this library:
the linalg-level program, the trait attributes the annotate pass
attaches, the lowered scf+accel IR, and the emitted Python host code —
plus the interpreter/emitted-code equivalence check.

Run:  python examples/ir_and_codegen_tour.py
"""

import numpy as np

from repro import make_pynq_z2
from repro.accelerators import MatMulAccelerator, make_matmul_system
from repro.codegen import compile_host_function
from repro.compiler import build_matmul_module
from repro.ir import print_op
from repro.transforms import (
    AnnotateForAcceleratorPass,
    GeneralizeNamedOpsPass,
    LowerToAccelPass,
)
from repro.transforms.pass_manager import PassManager

hardware, info = make_matmul_system(version=3, size=4, flow="As")
module = build_matmul_module(8, 8, 8, info.data_type)

print("=== 1. linalg level (paper Fig. 2a) ===")
print(module)

pm = PassManager()
pm.add(GeneralizeNamedOpsPass())
annotate = AnnotateForAcceleratorPass(info)
pm.add(annotate)
pm.run(module)

print("\n=== 2. after match-and-annotate (paper Fig. 6a trait) ===")
generic = annotate.annotated[0]
for key, value in generic.attributes.items():
    if key.startswith("accel."):
        print(f"  {key} = {value}")

lower = LowerToAccelPass(enable_cpu_tiling=False)
lower.run(module)
print("\n=== 3. lowered scf + accel IR (paper Fig. 6b) ===")
print(module)

plan = lower.plans[0]
print(f"\nloop order {plan.loop_order} (A-stationary: the compiler "
      f"derived the paper's (m, k, n) permutation from the flow)")

func_op = module.lookup("matmul_call")
entry, source = compile_host_function(func_op)
print("\n=== 4. emitted Python host code ===")
print(source)

print("=== 5. interpreter vs emitted code ===")
from repro.kernel import CompiledKernel  # noqa: E402

kernel = CompiledKernel(module=module, func_name="matmul_call", plan=plan)
assert kernel.source == source  # the kernel emits the same driver
rng = np.random.default_rng(0)
a = rng.integers(-5, 5, (8, 8)).astype(np.int32)
b = rng.integers(-5, 5, (8, 8)).astype(np.int32)

board1 = make_pynq_z2()
board1.attach_accelerator(MatMulAccelerator(4, version=3))
c1 = np.zeros((8, 8), np.int32)
emitted = kernel.run(board1, a, b, c1)

board2 = make_pynq_z2()
board2.attach_accelerator(MatMulAccelerator(4, version=3))
c2 = np.zeros((8, 8), np.int32)
interpreted = kernel.run_interpreted(board2, a, b, c2)

assert np.array_equal(c1, a @ b) and np.array_equal(c2, a @ b)
print(f"results identical: {np.array_equal(c1, c2)}")
print(f"emitted     task-clock {emitted.task_clock_ms():.4f} ms, "
      f"refs {emitted.cache_references:.0f}")
print(f"interpreted task-clock {interpreted.task_clock_ms():.4f} ms, "
      f"refs {interpreted.cache_references:.0f}")

print("\n=== 6. textual IR round-trip: parse a module from text ===")
# The printer's output is also the parser's input: whole pipelines can
# start from an .mlir string (or fixture file) instead of Python builders.
from repro.ir import parse_module, print_module  # noqa: E402
from repro.transforms import parse_pass_pipeline  # noqa: E402

MATMUL_SOURCE = """
module {
  func.func @matmul_from_text(%arg0: memref<8x8xi32>, %arg1: memref<8x8xi32>, %arg2: memref<8x8xi32>) {
    "linalg.matmul"(%arg0, %arg1, %arg2) {operandSegmentSizes = [2, 1]} : (memref<8x8xi32>, memref<8x8xi32>, memref<8x8xi32>)
    "func.return"()
  }
}
"""

parsed = parse_module(MATMUL_SOURCE, verify=True)
print("parsed functions:", [f.get_attr("sym_name").value
                            for f in parsed.functions()])

# Run the same pipeline, but named textually this time.
parse_pass_pipeline("generalize,annotate,lower-to-accel{cpu-tiling=off}",
                    info=info).run(parsed)
lowered_text = print_module(parsed)
print(f"lowered module: {len(lowered_text.splitlines())} lines of IR")

# The contract the test suite locks down: printing is a fixpoint.
assert print_module(parse_module(lowered_text)) == lowered_text
print("print(parse(print(m))) == print(m) holds")

# Text in, executable host code out.
from repro.compiler import AXI4MLIRCompiler  # noqa: E402

kernel_from_text = AXI4MLIRCompiler(
    info, enable_cpu_tiling=False
).compile_module(MATMUL_SOURCE)
board3 = make_pynq_z2()
board3.attach_accelerator(MatMulAccelerator(4, version=3))
c3 = np.zeros((8, 8), np.int32)
kernel_from_text.run(board3, a, b, c3)
assert np.array_equal(c3, a @ b)
print("kernel compiled from text computes the same C = A @ B")
