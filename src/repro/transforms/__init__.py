"""AXI4MLIR compiler transformations (paper Fig. 4, steps 2-5).

* :mod:`repro.transforms.pass_manager` — pass infrastructure;
* :mod:`repro.transforms.generalize`   — named linalg ops to ``linalg.generic``;
* :mod:`repro.transforms.annotate`     — match-and-annotate: attach the
  accelerator trait attributes from a parsed configuration;
* :mod:`repro.transforms.flow_analysis`— opcode dependence/placement and
  loop-order derivation from ``opcode_flow`` (stationary hoisting);
* :mod:`repro.transforms.cpu_tiling`   — cache-hierarchy tile selection;
* :mod:`repro.transforms.lower_to_accel` — tiled loop-nest + ``accel``
  dialect code generation;
* :mod:`repro.transforms.pipeline`     — the end-to-end pass pipeline.
"""

from .errors import CompileError
from .pass_manager import (
    Pass,
    PassManager,
    PipelineContext,
    parse_pass_pipeline,
    register_pass,
    registered_passes,
)
from .generalize import GeneralizeNamedOpsPass, generalize_named_op
from .annotate import AnnotateForAcceleratorPass, trait_attributes
from .flow_analysis import (
    FlowPlacement,
    derive_loop_order,
    opcode_dependences,
    place_flow,
)
from .cpu_tiling import choose_cpu_tiles, cpu_tiling_applies
from .lower_to_accel import LowerToAccelPass
from .pipeline import build_axi4mlir_pipeline

__all__ = [
    "CompileError", "Pass", "PassManager", "PipelineContext",
    "parse_pass_pipeline", "register_pass", "registered_passes",
    "GeneralizeNamedOpsPass", "generalize_named_op",
    "AnnotateForAcceleratorPass", "trait_attributes",
    "FlowPlacement", "derive_loop_order", "opcode_dependences", "place_flow",
    "choose_cpu_tiles", "cpu_tiling_applies",
    "LowerToAccelPass",
    "build_axi4mlir_pipeline",
]
