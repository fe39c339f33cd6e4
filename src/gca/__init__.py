"""Cellular automata with dynamic global links: engine, algorithms, models."""

from .core import (
    Address,
    ByPointer,
    CellState,
    Configuration,
    FixedPoint,
    GcaError,
    PreconditionError,
    RuleContext,
    RuleEvaluationError,
    RuleSet,
    RunResult,
    StepLimitError,
    Steps,
    Topology,
    Trace,
    make_configuration,
    normalize_relative,
    resolve,
    run,
    step_async,
    step_sync,
)
from . import algorithms, firing, oracles  # noqa: E402  (registers the catalog)
from .algorithms import CATALOG, AlgorithmSpec, catalog_names, default_instance, execute

__version__ = "0.1.0"
