"""Demanded abstract interpretation: incremental, query-driven analysis
engines over reified computation graphs, with a batch oracle for
from-scratch consistency checking."""

from .batch import BatchResult, batch_analyze
from .engine import Engine, EngineError, Metrics, PreservationError
from .graph import (
    Daig,
    check_ai_consistency,
    check_cfg_consistency,
    check_wf,
    init_daig,
    to_dot,
)
from .interproc import Context, DaigForest, callee_context
from .lang import analyze_loops, apply_edit, inline_program, parse_program

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "batch_analyze",
    "Engine",
    "EngineError",
    "Metrics",
    "PreservationError",
    "Daig",
    "check_ai_consistency",
    "check_cfg_consistency",
    "check_wf",
    "init_daig",
    "to_dot",
    "Context",
    "DaigForest",
    "callee_context",
    "analyze_loops",
    "apply_edit",
    "inline_program",
    "parse_program",
    "__version__",
]
