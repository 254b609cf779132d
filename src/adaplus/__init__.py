"""Belief-style adaptive optimization with Nesterov momentum and decoupled weight decay.

The package bundles the optimizer kernels and their ancestor baselines
(:mod:`adaplus.kernels`), an independent scalar reference for differential
testing (:mod:`adaplus.oracle`), desk-scale benchmark objectives
(:mod:`adaplus.problems`), and a deterministic experiment harness with a CLI
(:mod:`adaplus.bench`, ``adaplus-bench``).
"""

from .bench import (
    ComparisonTable,
    LogRow,
    RunConfig,
    RunRecord,
    RunSummary,
    compare,
    config_to_text,
    emit,
    load_config,
    load_record,
    parse_config,
    run,
)
from .errors import ConfigError, DimensionMismatch, NonFiniteValue, OptimizerError
from .kernels import (
    KERNEL_IDS,
    KERNEL_STEPS,
    HyperParams,
    OptimizerState,
    ParamVector,
    adabelief_step,
    adam_step,
    adamw_step,
    adaplus_step,
    drive_stream,
    nadam_step,
    sgdm_step,
)
from .oracle import replay
from .problems import (
    GradientSource,
    LogisticProblem,
    NoiseSpec,
    Problem,
    check_gradient,
    large_grad_small_curvature,
    logistic_regression_synthetic,
    quadratic,
    rosenbrock,
)
from .transcript import StepTranscript

__version__ = "0.1.0"

__all__ = [
    "ComparisonTable",
    "ConfigError",
    "DimensionMismatch",
    "GradientSource",
    "HyperParams",
    "KERNEL_IDS",
    "KERNEL_STEPS",
    "LogisticProblem",
    "LogRow",
    "NoiseSpec",
    "NonFiniteValue",
    "OptimizerError",
    "OptimizerState",
    "ParamVector",
    "Problem",
    "RunConfig",
    "RunRecord",
    "RunSummary",
    "StepTranscript",
    "adabelief_step",
    "adam_step",
    "adamw_step",
    "adaplus_step",
    "check_gradient",
    "compare",
    "config_to_text",
    "drive_stream",
    "emit",
    "large_grad_small_curvature",
    "load_config",
    "load_record",
    "logistic_regression_synthetic",
    "nadam_step",
    "parse_config",
    "quadratic",
    "replay",
    "rosenbrock",
    "run",
    "sgdm_step",
]
