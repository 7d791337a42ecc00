"""Tests for the compiler passes: generalize, annotate, flow analysis,
CPU tiling, and the lowering structure."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerators import make_conv_system, make_matmul_system
from repro.compiler import build_conv_module, build_matmul_module
from repro.dialects import linalg, scf
from repro.ir import I32, Module, verify
from repro.ir.attributes import unwrap
from repro.opcodes import parse_opcode_flow, parse_opcode_map
from repro.transforms import (
    AnnotateForAcceleratorPass,
    CompileError,
    GeneralizeNamedOpsPass,
    LowerToAccelPass,
    build_axi4mlir_pipeline,
    choose_cpu_tiles,
    cpu_tiling_applies,
    derive_loop_order,
    place_flow,
)
from repro.transforms.annotate import PREFIX, is_annotated
from repro.transforms.pass_manager import PassManager

MATMUL_MAP = parse_opcode_map(
    "opcode_map < sA = [send_literal(0x22), send(0)], "
    "sB = [send_literal(0x23), send(1)], "
    "cC = [send_literal(0xF0)], "
    "rC = [send_literal(0x24), recv(2)], "
    "sBcCrC = [send_literal(0x25), send(1), recv(2)] >"
)
MATMUL_OPERAND_DIMS = [{"m", "k"}, {"k", "n"}, {"m", "n"}]
MATMUL_DIMS = ["m", "n", "k"]
TILES = {"m": 4, "n": 4, "k": 4}


class TestGeneralize:
    def test_matmul_generalizes_to_paper_trait(self):
        module = build_matmul_module(8, 8, 8, I32)
        GeneralizeNamedOpsPass().run(module)
        verify(module.op)
        ops = [op for op in module.walk() if op.name == "linalg.generic"]
        assert len(ops) == 1
        assert linalg.matches_matmul(ops[0])
        assert linalg.loop_ranges(ops[0]) == (8, 8, 8)

    def test_conv_generalizes(self):
        module = build_conv_module(1, 4, 8, 2, 3, 2, I32)
        GeneralizeNamedOpsPass().run(module)
        ops = [op for op in module.walk() if op.name == "linalg.generic"]
        assert linalg.kernel_name(ops[0]) == "linalg.conv_2d_nchw_fchw"
        # (n, f, oh, ow, c, fh, fw) with stride-2 output 3x3.
        assert linalg.loop_ranges(ops[0]) == (1, 2, 3, 3, 4, 3, 3)


    def test_linear_form_of_an_indexing_expression(self):
        from repro.ir.affine import parse_affine_map
        from repro.ir.verifier import VerificationError

        exprs = parse_affine_map(
            "affine_map<(a, b) -> (a * 2 + b + 3, 2 * (b + 1), a * b)>"
        ).results
        assert linalg.linear_form(exprs[0]) == ({0: 2, 1: 1}, 3)
        assert linalg.linear_form(exprs[1]) == ({1: 2}, 2)
        with pytest.raises(VerificationError, match="non-linear"):
            linalg.linear_form(exprs[2])


class TestAnnotate:
    def annotated_module(self, flow="As"):
        _, info = make_matmul_system(3, 4, flow=flow)
        module = build_matmul_module(8, 8, 8, I32)
        pm = PassManager()
        pm.add(GeneralizeNamedOpsPass())
        pm.add(AnnotateForAcceleratorPass(info))
        pm.run(module)
        return module

    def test_trait_attributes_attached(self):
        module = self.annotated_module()
        op = [o for o in module.walk() if o.name == "linalg.generic"][0]
        assert is_annotated(op)
        assert unwrap(op.get_attr(PREFIX + "accel_dim")) == \
            {"m": 4, "n": 4, "k": 4}
        assert op.get_attr(PREFIX + "opcode_map").value.names() == \
            ["sA", "sB", "cC", "rC", "reset"]
        assert str(op.get_attr(PREFIX + "opcode_flow").value) == \
            "opcode_flow < (sA (sB cC rC)) >"
        dma = unwrap(op.get_attr(PREFIX + "dma_init_config"))
        assert dma["inputBufferSize"] == 0x2_0000

    def test_no_match_is_an_error(self):
        _, info = make_matmul_system(3, 4)
        module = Module()
        with pytest.raises(CompileError):
            AnnotateForAcceleratorPass(info).run(module)

    def test_kernel_mismatch_detected(self):
        _, conv_info = make_conv_system(4, 3)
        module = build_matmul_module(8, 8, 8, I32)
        GeneralizeNamedOpsPass().run(module)
        with pytest.raises(CompileError):
            AnnotateForAcceleratorPass(conv_info).run(module)


class TestLoopOrderDerivation:
    def order(self, flow_text):
        flow = parse_opcode_flow(flow_text)
        return derive_loop_order(flow, MATMUL_MAP, MATMUL_OPERAND_DIMS,
                                 MATMUL_DIMS, TILES)

    def test_a_stationary_paper_fig6a(self):
        # permutation_map = (m, n, k) -> (m, k, n) in the paper.
        assert self.order("(sA (sBcCrC))") == ["m", "k", "n"]

    def test_c_stationary(self):
        assert self.order("((sA sB cC) rC)") == ["m", "n", "k"]

    def test_b_stationary(self):
        assert self.order("(sB (sA cC rC))") == ["n", "k", "m"]

    def test_nothing_stationary_keeps_kernel_order(self):
        assert self.order("(sA sB cC rC)") == ["m", "n", "k"]


class TestPlacement:
    def place(self, flow_text, order):
        flow = parse_opcode_flow(flow_text)
        return place_flow(flow, MATMUL_MAP, MATMUL_OPERAND_DIMS, order,
                          TILES)

    def test_ns_all_innermost(self):
        placement = self.place("(sA sB cC rC)", ["m", "n", "k"])
        assert placement.levels_by_opcode == \
            {"sA": 2, "sB": 2, "cC": 2, "rC": 2}

    def test_as_hoists_sA(self):
        placement = self.place("(sA (sBcCrC))", ["m", "k", "n"])
        assert placement.levels_by_opcode["sA"] == 1
        assert placement.levels_by_opcode["sBcCrC"] == 2

    def test_cs_hoists_rC(self):
        placement = self.place("((sA sB cC) rC)", ["m", "n", "k"])
        assert placement.levels_by_opcode["rC"] == 1
        assert placement.levels_by_opcode["sA"] == 2

    def test_degenerate_extra_nesting_deepens(self):
        placement = self.place("(sA ((sBcCrC)))", ["m", "k", "n"])
        assert placement.levels_by_opcode["sBcCrC"] == 2

    def test_over_nested_flow_collapses_to_innermost(self):
        # More parenthesis levels than loops: the extra scopes collapse
        # onto the innermost loop and only delimit transfer batches.
        placement = self.place("(sA (sB (cC (rC))))", ["m", "k", "n"])
        assert placement.levels_by_opcode["cC"] == 2
        assert placement.levels_by_opcode["rC"] == 2
        assert placement.max_level() <= 2

    def test_unknown_opcode_rejected(self):
        with pytest.raises(CompileError):
            self.place("(sZ)", ["m", "n", "k"])


class TestCpuTiling:
    OPERANDS = [["m", "k"], ["k", "n"], ["m", "n"]]

    def test_small_problem_not_tiled(self):
        tiles = choose_cpu_tiles(
            {"m": 64, "n": 64, "k": 64}, {"m": 8, "n": 8, "k": 8},
            self.OPERANDS, 4, 512 * 1024,
        )
        assert tiles == {"m": 64, "n": 64, "k": 64}

    def test_large_problem_tiled_to_budget(self):
        tiles = choose_cpu_tiles(
            {"m": 1024, "n": 1024, "k": 1024}, {"m": 16, "n": 16, "k": 16},
            self.OPERANDS, 4, 512 * 1024,
        )
        footprint = (tiles["m"] * tiles["k"] + tiles["k"] * tiles["n"]
                     + tiles["m"] * tiles["n"]) * 4
        assert footprint <= 512 * 1024 // 2
        assert any(tiles[d] < 1024 for d in "mnk")

    def test_tiles_are_divisors_and_multiples(self):
        tiles = choose_cpu_tiles(
            {"m": 768, "n": 768, "k": 768}, {"m": 16, "n": 16, "k": 16},
            self.OPERANDS, 4, 256 * 1024,
        )
        for dim in "mnk":
            assert 768 % tiles[dim] == 0
            assert tiles[dim] % 16 == 0


class TestCpuTilingApplies:
    """:func:`cpu_tiling_applies` is the closed form of "CPU tiling
    changes the plan": ``choose_cpu_tiles(...) != extents`` over the host
    dims, which the lowering picks as it does (accelerator size 0, or
    below the extent)."""

    MATMUL = (("m", "k"), ("k", "n"), ("m", "n"))
    CONV = (("n", "c", "oh", "fh", "ow", "fw"), ("f", "c", "fh", "fw"),
            ("n", "f", "oh", "ow"))

    @staticmethod
    def agree(extents, sizes, operands, cache_bytes):
        host = {d: e for d, e in extents.items() if e > sizes.get(d, 0)}
        tiles = {d: sizes.get(d, 0) or 1 for d in host}
        tiled = choose_cpu_tiles(host, tiles, operands, 4, cache_bytes)
        applies = cpu_tiling_applies(
            tuple(extents.items()), tuple(sizes), tuple(sizes.values()),
            operands, cache_bytes)
        assert applies == (tiled != host), (extents, sizes, cache_bytes)
        return applies

    def test_matches_the_heuristic_on_a_matmul_grid(self):
        sizes = (1, 6, 16, 64, 256)
        applied = 0
        for m, n, k in itertools.product(sizes, repeat=3):
            for tm, tn, tk in itertools.product((0, 4, 16), repeat=3):
                for cache_bytes in (4 * 1024, 512 * 1024):
                    applied += self.agree({"m": m, "n": n, "k": k},
                                          {"m": tm, "n": tn, "k": tk},
                                          self.MATMUL, cache_bytes)
        assert applied > 0

    @settings(max_examples=300, deadline=None)
    @given(extents=st.fixed_dictionaries(
               {d: st.sampled_from((1, 2, 3, 7, 8, 14, 16, 64))
                for d in ("n", "f", "oh", "ow", "c", "fh", "fw")}),
           sizes=st.dictionaries(
               st.sampled_from(("n", "f", "oh", "ow", "c", "fh", "fw")),
               st.sampled_from((0, 1, 2, 4, 7, 8, 64))),
           cache_bytes=st.sampled_from((1024, 32 * 1024, 512 * 1024)))
    def test_matches_the_heuristic_on_conv_operands(self, extents, sizes,
                                                    cache_bytes):
        self.agree(extents, sizes, self.CONV, cache_bytes)


class TestLowering:
    def lowered(self, version=3, flow="As", dims=16, size=4,
                cpu_tiling=False):
        _, info = make_matmul_system(version, size, flow=flow)
        module = build_matmul_module(dims, dims, dims, I32)
        pm = build_axi4mlir_pipeline(info, enable_cpu_tiling=cpu_tiling)
        pm.run(module)
        return module

    def loop_nest_depth(self, module):
        func_op = module.functions()[0]
        tops = [op for op in func_op.regions[0].entry_block
                if op.name == "scf.for"]
        return max(scf.perfect_nest_depth(top) for top in tops), tops

    def test_as_flow_structure_matches_fig6b(self):
        module = self.lowered(flow="As")
        verify(module.op)
        text = str(module)
        # dma_init once, reset before the loops.
        assert text.count("accel.dma_init") == 1
        ops = [op.name for op in module.walk()]
        assert ops.count("accel.recv") == 1
        # sA's send sits in the second loop, sB/rC in the innermost.
        func_op = module.functions()[0]
        outer = [op for op in func_op.regions[0].entry_block
                 if op.name == "scf.for"][0]
        second = [op for op in scf.body_block(outer) if op.name == "scf.for"][0]
        second_body_ops = [op.name for op in scf.body_block(second)]
        assert "accel.send" in second_body_ops          # sA tile
        inner = [op for op in scf.body_block(second) if op.name == "scf.for"][0]
        inner_body_ops = [op.name for op in scf.body_block(inner)]
        assert "accel.recv" in inner_body_ops

    def test_ns_flow_all_communication_innermost(self):
        module = self.lowered(flow="Ns")
        func_op = module.functions()[0]
        loops = [op for op in func_op.walk() if op.name == "scf.for"]
        assert len(loops) == 3
        innermost = loops[-1]
        names = [op.name for op in scf.body_block(innermost)]
        assert names.count("accel.send") == 2
        assert names.count("accel.recv") == 1

    def test_cs_flow_recv_after_k_loop(self):
        module = self.lowered(flow="Cs")
        func_op = module.functions()[0]
        loops = [op for op in func_op.walk() if op.name == "scf.for"]
        n_loop_body = scf.body_block(loops[1])
        names = [op.name for op in n_loop_body]
        k_index = names.index("scf.for")
        recv_index = names.index("accel.recv")
        assert recv_index > k_index

    def test_flush_before_each_recv(self):
        module = self.lowered(flow="Ns")
        for func_op in module.functions():
            for block_ops in _blocks(func_op):
                for i, op in enumerate(block_ops):
                    if op.name == "accel.recv":
                        names_before = [o.name for o in block_ops[:i]]
                        assert "accel.flush_send" in names_before

    def test_divisibility_enforced(self):
        _, info = make_matmul_system(3, 4)
        module = build_matmul_module(10, 10, 10, I32)
        pm = build_axi4mlir_pipeline(info)
        with pytest.raises(CompileError):
            pm.run(module)

    def test_cpu_tiling_adds_outer_loops(self):
        _, info = make_matmul_system(3, 16, flow="Ns")
        module = build_matmul_module(256, 256, 256, I32)
        pm = build_axi4mlir_pipeline(info, enable_cpu_tiling=True)
        pm.run(module)
        func_op = module.functions()[0]
        loops = [op for op in func_op.walk() if op.name == "scf.for"]
        assert len(loops) > 3  # outer CPU tiles + inner accel loops

    def test_generic_op_replaced(self):
        module = self.lowered()
        assert not any(op.name == "linalg.generic" for op in module.walk())

    def test_plan_recorded(self):
        _, info = make_matmul_system(3, 4, flow="As")
        module = build_matmul_module(16, 16, 16, I32)
        pm = build_axi4mlir_pipeline(info, enable_cpu_tiling=False)
        pm.run(module)
        plan = pm.passes[-1].plans[0]
        assert plan.loop_order == ("m", "k", "n")
        assert plan.tiles == {"m": 4, "n": 4, "k": 4}

    def test_conv_lowering_structure_matches_fig15b(self):
        _, info = make_conv_system(8, 3)
        module = build_conv_module(1, 8, 6, 4, 3, 1, I32)
        pm = build_axi4mlir_pipeline(info, enable_cpu_tiling=False)
        pm.run(module)
        verify(module.op)
        plan = pm.passes[-1].plans[0]
        assert plan.loop_order == ("n", "f", "oh", "ow")
        func_op = module.functions()[0]
        loops = [op for op in func_op.walk() if op.name == "scf.for"]
        assert len(loops) == 4
        # rO: recv of the whole (1,1,4,4) output slice inside the f loop.
        f_body = scf.body_block(loops[1])
        recvs = [op for op in f_body if op.name == "accel.recv"]
        assert len(recvs) == 1
        slice_type = recvs[0].operands[0].type
        assert tuple(slice_type.shape) == (1, 1, 4, 4)

    def test_init_opcodes_emitted_before_loops(self):
        module = self.lowered(flow="Ns")
        func_op = module.functions()[0]
        names = [op.name for op in func_op.regions[0].entry_block]
        first_loop = names.index("scf.for")
        assert "accel.send_literal" in names[:first_loop]   # reset opcode
        assert "accel.flush_send" in names[:first_loop]


def _blocks(func_op):
    result = []

    def visit(block):
        result.append(list(block.operations))
        for op in block.operations:
            for region in op.regions:
                for nested in region.blocks:
                    visit(nested)

    visit(func_op.regions[0].entry_block)
    return result
