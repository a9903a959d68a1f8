"""Simulation of self-similar algorithms under dynamic environments."""

from .batch import BatchItem, BatchResult, BatchRunner
from .checkpoint import (
    DriverState,
    EngineCheckpoint,
    RoundState,
    RunCheckpoint,
    resume_run,
)
from .array_engine import ArrayEngine, ArrayRoundRecord
from .engine import Simulator
from .messaging import MergeMessagePassingSimulator
from .metrics import (
    RunStatistics,
    aggregate,
    aggregate_records,
    format_table,
    statistics_from_payloads,
)
from .probes import (
    CheckpointProbe,
    ConvergenceProbe,
    JSONLSink,
    ObjectiveProbe,
    StatsProbe,
    TemporalProbe,
    TemporalProperty,
)
from .protocol import Engine, HistoryProbe, Probe, RoundRecord, RunContext, run_engine
from .result import SimulationResult

__all__ = [
    "BatchItem",
    "BatchResult",
    "BatchRunner",
    "CheckpointProbe",
    "DriverState",
    "EngineCheckpoint",
    "RoundState",
    "RunCheckpoint",
    "RunContext",
    "resume_run",
    "Engine",
    "Probe",
    "HistoryProbe",
    "ObjectiveProbe",
    "ConvergenceProbe",
    "TemporalProbe",
    "TemporalProperty",
    "StatsProbe",
    "JSONLSink",
    "run_engine",
    "RoundRecord",
    "Simulator",
    "ArrayEngine",
    "ArrayRoundRecord",
    "MergeMessagePassingSimulator",
    "RunStatistics",
    "aggregate",
    "aggregate_records",
    "statistics_from_payloads",
    "format_table",
    "SimulationResult",
]
