"""Host code generation: lowered IR to executable Python driver code."""

from .python_emitter import (
    PythonEmitter,
    compile_host_function,
    emit_function,
    schedule_event_count,
)

__all__ = [
    "PythonEmitter", "compile_host_function", "emit_function",
    "schedule_event_count",
]
