"""Stable quasi-likelihood estimation for pure-jump Levy-driven SDEs."""

from .errors import (
    DomainError,
    ModelViolationError,
    NumericError,
    OptimizationError,
    PartialFailureError,
    SimulationOverflowError,
    StableQLError,
    UsageError,
)
from .config import preset_config
from .harness import Design, ExperimentConfig, run_experiment
from .inference import StudentizedReport, confidence_intervals, studentize
from .llt import RateFit, invert_density, l1_distance, rate_fit
from .models import MODEL_REGISTRY, ModelSpec, Theta, build_model
from .samplers import NoiseSpec, RngStream
from .sde import ObservationSeries, simulate_fine, thin
from .sqlik import (
    FitResult,
    OptimizerConfig,
    fit,
    quasi_hessian,
    quasi_loglik,
    quasi_score,
    residuals,
)
from .stable_core import InfoConstants, StableKernel, stable_tail_coefficient

__all__ = [
    "Design",
    "DomainError",
    "ExperimentConfig",
    "FitResult",
    "InfoConstants",
    "MODEL_REGISTRY",
    "ModelSpec",
    "ModelViolationError",
    "NoiseSpec",
    "NumericError",
    "ObservationSeries",
    "OptimizationError",
    "OptimizerConfig",
    "PartialFailureError",
    "RateFit",
    "RngStream",
    "SimulationOverflowError",
    "StableKernel",
    "StableQLError",
    "StudentizedReport",
    "Theta",
    "UsageError",
    "build_model",
    "confidence_intervals",
    "fit",
    "invert_density",
    "l1_distance",
    "preset_config",
    "quasi_hessian",
    "quasi_loglik",
    "quasi_score",
    "rate_fit",
    "residuals",
    "run_experiment",
    "simulate_fine",
    "studentize",
    "thin",
]

__version__ = "0.1.0"
