"""Simulation and convergence analysis of piecewise diffusion Markov processes."""

from .core import (
    CumulativeKernel,
    HybridState,
    ModeSet,
    PDifMPModel,
    SamplerKernel,
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
    exact_gbm_flow,
    phi1,
)
from .jump_engine import (
    JumpAdaptedGrid,
    accept_candidate,
    apply_jump,
    next_jump,
    simulate_batch,
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
    ConvergenceReport,
    fit_slope,
    grow_weak_error_estimate,
    ks_statistic,
    strong_rmse,
    sup_difference,
)

__all__ = [
    "BuiltModel",
    "ConvergenceReport",
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
    "SamplerKernel",
    "Trajectory",
    "accept_candidate",
    "apply_jump",
    "build_model",
    "cumulative_weights",
    "em_interpolate",
    "em_step",
    "exact_gbm_flow",
    "fit_slope",
    "fork_for_path",
    "grow_weak_error_estimate",
    "ks_statistic",
    "list_model_ids",
    "make_glioma",
    "next_jump",
    "phi1",
    "sample_mode",
    "simulate_batch",
    "simulate_coupled_pair",
    "simulate_path",
    "strong_rmse",
    "sup_difference",
    "validate_model",
]
__version__ = "0.1.0"
