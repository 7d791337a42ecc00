"""Minimal pass infrastructure: named passes over a module, with
verification between passes and optional IR dumping for debugging.

Besides the programmatic :class:`PassManager`, this module implements a
textual pipeline specification (``"generalize,annotate,lower-to-accel"``)
so fixture files and command lines can name a pipeline without touching
Python.  Pass modules register a factory under a canonical name with
:func:`register_pass`; factories receive a :class:`PipelineContext`
(accelerator/CPU configuration) plus per-pass options written as
``name{key=value,...}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..ir.core import Module
from ..ir.verifier import verify
from .errors import CompileError


class Pass:
    """Base class: subclasses override :meth:`run`."""

    #: Human-readable pass name (defaults to the class name).
    name: str = ""

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__

    def run(self, module: Module) -> None:
        raise NotImplementedError


class PassManager:
    """Runs a pipeline of passes, verifying the module between them."""

    def __init__(self, verify_each: bool = True,
                 dump_each: bool = False):
        self.passes: List[Pass] = []
        self.verify_each = verify_each
        self.dump_each = dump_each
        self.dumps: List[str] = []

    def add(self, pass_instance: Pass) -> "PassManager":
        self.passes.append(pass_instance)
        return self

    def run(self, module: Module) -> Module:
        for pass_instance in self.passes:
            try:
                pass_instance.run(module)
            except CompileError:
                raise
            except Exception as error:
                raise CompileError(
                    f"pass {pass_instance.name} failed: {error}"
                ) from error
            if self.verify_each:
                verify(module.op)
            if self.dump_each:
                self.dumps.append(
                    f"// ----- after {pass_instance.name} -----\n{module}"
                )
        return module


# ---------------------------------------------------------------------------
# Textual pipeline specifications
# ---------------------------------------------------------------------------


@dataclass
class PipelineContext:
    """Configuration a textual pipeline binds its passes against.

    ``info`` is the :class:`~repro.accel_config.AcceleratorInfo` for the
    accelerator-aware passes; ``cpu`` the optional
    :class:`~repro.accel_config.CPUInfo` driving cache tiling.  Kept as
    plain ``object`` fields so this module stays import-light.
    """

    info: Optional[object] = None
    cpu: Optional[object] = None
    flow_name: Optional[str] = None
    permutation: Optional[Sequence[str]] = None


#: Canonical pipeline name -> factory(context, options) -> Pass.
_PASS_REGISTRY: Dict[
    str, Callable[[PipelineContext, Dict[str, str]], Pass]
] = {}


def register_pass(name: str):
    """Decorator: register a pass factory under a pipeline-spec name."""

    def decorate(factory: Callable[[PipelineContext, Dict[str, str]], Pass]):
        _PASS_REGISTRY[name] = factory
        return factory

    return decorate


def registered_passes() -> List[str]:
    return sorted(_PASS_REGISTRY)


def option_bool(options: Dict[str, str], key: str, default: bool) -> bool:
    """Interpret a pass option string as a boolean."""
    raw = options.get(key)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in ("1", "on", "true", "yes"):
        return True
    if lowered in ("0", "off", "false", "no"):
        return False
    raise CompileError(f"bad boolean pass option {key}={raw!r}")


def _split_spec(spec: str) -> List[str]:
    """Split ``"a,b{x=1,y=2},c"`` on commas outside ``{...}``."""
    entries: List[str] = []
    depth = 0
    current = []
    for ch in spec:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise CompileError(f"unbalanced '}}' in pipeline {spec!r}")
        if ch == "," and depth == 0:
            entries.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise CompileError(f"unbalanced '{{' in pipeline {spec!r}")
    entries.append("".join(current))
    return [e.strip() for e in entries if e.strip()]


def parse_pass_pipeline(
    spec: str,
    info: Optional[object] = None,
    cpu: Optional[object] = None,
    flow_name: Optional[str] = None,
    permutation: Optional[Sequence[str]] = None,
    verify_each: bool = True,
    dump_each: bool = False,
) -> PassManager:
    """Build a :class:`PassManager` from a textual pipeline spec.

    ``spec`` is a comma-separated list of registered pass names, each
    optionally carrying ``{key=value,...}`` options — e.g.
    ``"generalize,annotate,lower-to-accel{cpu-tiling=off}"``.  An empty
    spec yields an empty pipeline (useful for parse/print-only fixtures).
    """
    context = PipelineContext(info=info, cpu=cpu, flow_name=flow_name,
                              permutation=permutation)
    pm = PassManager(verify_each=verify_each, dump_each=dump_each)
    for entry in _split_spec(spec):
        name, options = entry, {}
        if "{" in entry:
            if not entry.endswith("}"):
                raise CompileError(f"malformed pass entry {entry!r}")
            name, body = entry[:-1].split("{", 1)
            name = name.strip()
            for item in body.split(","):
                item = item.strip()
                if not item:
                    continue
                if "=" not in item:
                    raise CompileError(
                        f"malformed option {item!r} in pass {name!r}"
                    )
                key, value = item.split("=", 1)
                options[key.strip()] = value.strip()
        factory = _PASS_REGISTRY.get(name)
        if factory is None:
            raise CompileError(
                f"unknown pass {name!r}; registered: {registered_passes()}"
            )
        pm.add(factory(context, options))
    return pm
