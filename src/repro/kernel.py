"""A lowered kernel and its runs: each call is served by replay of its
trace or by the per-tile driver under one
:class:`~repro.execution.trace.Cause`, and counted once as that
:class:`Served` value (``diagnostics()["served"]``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import counters
from .codegen import compile_host_function, emit_function, schedule_event_count
from .envutil import check_requested
from .execution import interpret_function
from .execution.recorder import record_trace
from .execution.replay import replay_kernel
from .execution.synthesize import TraceMismatch, diff_traces, synthesize_trace
from .execution.trace import (REFUSALS, SERVED_COUNTERS, TRACE_COUNTERS,
                              Cause, TraceUnsupported, trace_enabled)
from .ir import Module
from .runtime import AxiRuntime, CALL_STYLE_GENERATED, DoubleBufferedRuntime
from .soc import Board
from .transforms.lower_to_accel import LoweringPlan


class Served(NamedTuple):
    """What served one call: ``rung`` is ``"replay"`` or ``"per_tile"``,
    and ``cause`` why a per-tile call was not replayed."""

    rung: str
    cause: Optional[Cause] = None


#: The outcomes, made once: serving a call allocates no outcome.
REPLAYED = Served("replay")
PER_TILE = {cause: Served("per_tile", cause) for cause in Cause}

#: Exact types only: runtime subclasses may override call semantics in
#: ways the replay executor cannot see.
_REPLAY_RUNTIMES = (AxiRuntime, DoubleBufferedRuntime)


def count_served(served: Served) -> None:
    """Count one call under its rung or cause; a replay refusal also
    in ``trace_sources["replay_refused"]``, their sum."""
    cause = served.cause
    SERVED_COUNTERS[cause or served.rung] += 1
    if cause in REFUSALS:
        TRACE_COUNTERS["replay_refused"] += 1


class KernelTraceState:
    """Shared (mutable) state of one lowered kernel: trace, IR, driver.

    Lives outside the :class:`CompiledKernel` dataclass fields proper so
    that ``dataclasses.replace`` rebinds (``specialized_copies``
    variants) share one trace, one (rebuilt) module and one driver.
    :meth:`replay` is the trace lifecycle.
    """

    __slots__ = ("lock", "trace", "failed", "persist", "module", "rebuild",
                 "emitted", "entry_point")

    def __init__(self):
        self.lock = counters.fork_safe_lock()
        self.trace = None
        #: The :class:`Cause` the trace build failed with, for good.
        self.failed: Optional[Cause] = None
        #: Set by KernelCache when a disk store is active: publishes
        #: the entry with the trace and MetricsPlans memory holds, when
        #: the disk lacks one (``kernel_cache.publish_due``).
        self.persist = None
        #: The kernel's IR; ``None`` until a stored kernel's module is
        #: first read (:attr:`CompiledKernel.module`).
        self.module = None
        #: A disk-loaded kernel's rebuild: one name-checked call of the
        #: ``compile_fn`` it was looked up with (KernelCache._rebuild).
        self.rebuild = None
        #: ``(driver source, schedule table)`` and the driver callable,
        #: derived from ``module`` when first read (see CompiledKernel).
        self.emitted = None
        self.entry_point = None

    def replay(self, board, rt, descriptors, build) -> Served:
        """Replay the trace against ``descriptors``: :data:`REPLAYED`,
        or the per-tile outcome whose cause the caller runs the driver
        under.

        The trace is loaded (by the owner) or built once, by
        ``build(arg_specs)``, under the lock.  A build that raises marks
        the state failed for good with its cause (the per-tile run
        surfaces any real error), except :class:`TraceMismatch`, which
        fails loudly.  The replay starts from the board's accelerator
        as an earlier call left it (its config is part of
        ``decode_key``).  A replay refusal leaves the state as it is
        and is the outcome of every such call.  A replay runs
        ``persist``, which publishes what the disk lacks.
        """
        if self.trace is None and self.failed is None:
            with self.lock:
                if self.trace is None and self.failed is None:
                    try:
                        self.trace = build(tuple(
                            (d.sizes, d.strides, d.itemsize, str(d.dtype))
                            for d in descriptors))
                    except TraceMismatch:
                        raise
                    except TraceUnsupported as exc:
                        self.failed = exc.cause
                    except Exception:
                        self.failed = Cause.SYNTHESIS_FAILED
        if self.trace is None:
            return PER_TILE[self.failed]
        try:
            replay_kernel(self.trace, board, rt, descriptors,
                          type(rt) is DoubleBufferedRuntime)
        except TraceUnsupported as exc:
            return PER_TILE[exc.cause]
        if self.persist is not None:
            self.persist()
        return REPLAYED


@dataclass(init=False)
class CompiledKernel:
    """The result of one compilation: the lowered IR and its plan.

    ``module`` is an argument but not a field: it is kept in the shared
    ``trace_state``, so ``dataclasses.replace`` never reads it — which
    would rebuild a stored kernel that nothing else asked for.  The
    driver — :attr:`source`, :attr:`schedule_table`, :attr:`entry_point`
    — is derived from ``module`` by one path, cached there too: emitted
    once (at compile time; a stored kernel adopts its rebuild's) and
    ``exec``'d on the first per-tile run.

    ``call_style`` selects the runtime's call overheads and, for
    ``CALL_STYLE_MANUAL``, its raw-array copy style.  ``host_dma_init``
    is the ``dma_init`` the host runs *before* it allocates the
    arguments, for a driver whose IR holds none (the hand-written
    baselines, :mod:`repro.baselines.manual`): every run and
    :meth:`run_interpreted` does snapshot → ``dma_init`` →
    ``make_memref`` for it, and its trace is preinitialized.
    """

    func_name: str
    plan: Optional[LoweringPlan] = None
    specialized_copies: bool = True
    parameters: dict = field(default_factory=dict)
    call_style: str = CALL_STYLE_GENERATED
    host_dma_init: Optional[Tuple[int, int, int, int, int]] = None
    trace_state: KernelTraceState = field(
        default_factory=KernelTraceState, repr=False, compare=False
    )

    def __init__(self, module: Optional[Module] = None, *, func_name: str,
                 plan: Optional[LoweringPlan] = None,
                 specialized_copies: bool = True,
                 parameters: Optional[dict] = None,
                 call_style: str = CALL_STYLE_GENERATED,
                 host_dma_init: Optional[Tuple[int, int, int, int,
                                               int]] = None,
                 trace_state: Optional[KernelTraceState] = None):
        self.func_name = func_name
        self.plan = plan
        self.specialized_copies = specialized_copies
        self.parameters = {} if parameters is None else parameters
        self.call_style = call_style
        self.host_dma_init = host_dma_init
        self.trace_state = KernelTraceState() if trace_state is None \
            else trace_state
        if module is not None:
            self.trace_state.module = module

    @property
    def module(self) -> Module:
        """The lowered IR.  A stored kernel adopts, on first read, the
        module and driver of one compile through the ``compile_fn`` it
        was looked up with (:meth:`KernelCache._rebuild`, which
        quarantines a forged head)."""
        state = self.trace_state
        if state.module is None:
            # Unlocked: racing first reads each compile, to equal results.
            fresh = state.rebuild()
            state.emitted = fresh.trace_state.emitted
            state.module = fresh.module
        return state.module

    @property
    def func_op(self):
        return self.module.lookup(self.func_name)

    @property
    def source(self) -> str:
        return self._emitted()[0]

    @property
    def schedule_table(self) -> dict:
        return self._emitted()[1]

    @property
    def entry_point(self):
        state = self.trace_state
        if state.entry_point is None:
            state.entry_point = compile_host_function(
                self.func_op, self.source)[0]
        return state.entry_point

    def _emitted(self):
        state = self.trace_state
        if state.emitted is None:
            func_op = self.func_op  # a stored kernel's rebuild emits
            if state.emitted is None:
                state.emitted = emit_function(func_op)
        return state.emitted

    def make_runtime(self, board: Board) -> AxiRuntime:
        return AxiRuntime(board, specialized_copies=self.specialized_copies,
                          call_style=self.call_style)

    @property
    def preinitialized(self) -> Optional[Tuple[int, int]]:
        """The host engine's ``(input, output)`` region sizes, or
        ``None``: what this kernel's traces are built with."""
        init = self.host_dma_init
        return None if init is None else (init[2], init[4])

    def _bind(self, board: Board, rt: AxiRuntime, arrays):
        """The counters' start and the argument descriptors, in the
        host's order: a ``host_dma_init`` runs measured, before the
        arguments are allocated."""
        before = None
        if self.host_dma_init is not None:
            before = board.snapshot()
            rt.dma_init(*self.host_dma_init)
        descriptors = [rt.make_memref(np.ascontiguousarray(a), f"arg{i}")
                       for i, a in enumerate(arrays)]
        return (board.snapshot() if before is None else before), descriptors

    def run(self, board: Board, *arrays: np.ndarray,
            runtime: Optional[AxiRuntime] = None,
            trace: Optional[bool] = None):
        """Execute the emitted host code against ``board``.

        Returns the perf counter delta for this invocation.

        ``trace`` selects trace-compiled execution: the kernel's static
        schedule is synthesized ahead-of-time from the emitter's side
        table and replayed as batched numpy, bit-identical to the
        per-tile path.  ``None`` (the default) enables it unless
        ``REPRO_NO_TRACE=1``.  The per-tile path is the only fallback:
        a schedule synthesis cannot prove (``REPRO_FAULTS="synth:fail"``
        forces that), a replay refusal (``replay:fail``) and an
        unsupported runtime all land on it, transparently.  The call is
        counted once, as its :class:`Served` outcome
        (:func:`count_served`).
        """
        rt = runtime or self.make_runtime(board)
        before, descriptors = self._bind(board, rt, arrays)
        if trace is False or not trace_enabled() \
                or type(rt) not in _REPLAY_RUNTIMES:
            served = PER_TILE[Cause.NO_TRACE]
        else:
            served = self.trace_state.replay(board, rt, descriptors,
                                             self._build_trace)
        count_served(served)
        if served is not REPLAYED:
            self.entry_point(rt, *descriptors)
        return board.measure_since(before)

    # -- trace-compiled execution ----------------------------------------

    def _build_trace(self, specs):
        """Synthesize the trace from the schedule table.

        A synthesis failure — a proven-unsupported construct, the
        ``synth`` fault or an unexpected blowup (recursion/memory on a
        pathological schedule) — is counted and raised:
        :meth:`KernelTraceState.replay` then leaves the kernel per tile
        under its cause.  ``REPRO_CHECK=1`` also records the
        driver and raises :class:`TraceMismatch` if the two traces
        differ anywhere.
        """
        try:
            synthesized = synthesize_trace(self.schedule_table, specs,
                                           self.preinitialized)
        except Exception:
            TRACE_COUNTERS["synth_fallback"] += 1
            raise
        if check_requested():
            recorded = record_trace(
                self.entry_point, specs,
                expected_events=schedule_event_count(self.schedule_table),
                preinitialized=self.preinitialized,
            )
            mismatches = diff_traces(synthesized, recorded)
            if mismatches:
                raise TraceMismatch(
                    f"synthesized trace for {self.func_name!r} differs "
                    f"from the recorded one: {', '.join(mismatches)}"
                )
        TRACE_COUNTERS["synthesized"] += 1
        return synthesized

    def run_interpreted(self, board: Board, *arrays: np.ndarray,
                        runtime: Optional[AxiRuntime] = None):
        """Execute via the reference interpreter (tests / debugging)."""
        rt = runtime or self.make_runtime(board)
        before, descriptors = self._bind(board, rt, arrays)
        interpret_function(self.func_op, descriptors, rt)
        return board.measure_since(before)
