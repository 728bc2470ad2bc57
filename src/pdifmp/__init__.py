"""Simulation and convergence analysis of piecewise diffusion Markov processes."""

from .core import (
    CumulativeKernel,
    HybridState,
    ModeSet,
    PDifMPModel,
    Trajectory,
    cumulative_weights,
    sample_mode,
    validate_model,
)
from .drivers import DriverStream, fork_for_path
from .flows import (
    EulerMaruyama,
    ExactGBMFlow,
    GliomaSplitting,
    em_interpolate,
    em_step,
    phi1,
)
from .jump_engine import (
    JumpAdaptedGrid,
    next_jump,
    simulate_coupled_pair,
    simulate_path,
)
from .models import (
    BuiltModel,
    GbmJumpParams,
    GliomaParams,
    build_model,
    list_model_ids,
    make_glioma,
)
from .analysis import (
    fit_slope,
    grow_weak_error_estimate,
    strong_rmse,
    sup_difference,
)

__all__ = [
    "BuiltModel",
    "CumulativeKernel",
    "DriverStream",
    "EulerMaruyama",
    "ExactGBMFlow",
    "GbmJumpParams",
    "GliomaParams",
    "GliomaSplitting",
    "HybridState",
    "JumpAdaptedGrid",
    "ModeSet",
    "PDifMPModel",
    "Trajectory",
    "build_model",
    "cumulative_weights",
    "em_interpolate",
    "em_step",
    "fit_slope",
    "fork_for_path",
    "grow_weak_error_estimate",
    "list_model_ids",
    "make_glioma",
    "next_jump",
    "phi1",
    "sample_mode",
    "simulate_coupled_pair",
    "simulate_path",
    "strong_rmse",
    "sup_difference",
    "validate_model",
]
__version__ = "0.1.0"
