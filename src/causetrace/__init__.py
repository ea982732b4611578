"""Deterministic scenario simulator for a modular driving pipeline with
counterfactual violation cause attribution."""

from .attribution import (AttributionReport, MonotonicityViolation, NoViolation,
                          NoViolatingPlanningMessage, Unattributable, attribute,
                          tarantula_scores)
from .middleware import ComponentId, Trace, trace_digest
from .oracles import OracleConfig, evaluate
from .runner import AdsConfig, RunResult, rtest, run_with_substitution
from .scenario import Scenario, load_scenario
from .substitutes import QuantizationUnits, SubstitutionPlan, split_trace

__version__ = "0.1.0"

__all__ = [
    "AdsConfig", "AttributionReport", "ComponentId", "MonotonicityViolation",
    "NoViolatingPlanningMessage", "NoViolation", "OracleConfig", "QuantizationUnits",
    "RunResult", "Scenario", "SubstitutionPlan", "Trace", "Unattributable",
    "attribute", "evaluate", "load_scenario", "rtest", "run_with_substitution",
    "split_trace", "tarantula_scores", "trace_digest", "__version__",
]
