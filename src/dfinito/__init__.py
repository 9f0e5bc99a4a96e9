"""Damped proximal Finito: optimizer, theory checks, and benchmark harness."""

from .model import ProblemInstance, Regularizer
from .sampling import SamplingPlan, epoch_order, optimal_cyclic_order
from .engine import DampedRunConfig, apply_Spi, apply_Ti, apply_Tpi, epoch_step, run
from .diagnostics import TraceRecord, bound_convex, bound_strongly_convex, grad_map_residual, pi_norm_sq, rho_ratio
from .prox import prox, subgradient_residual
from .problems import (
    HeterogeneityCertificate,
    gen_heterogeneous,
    gen_least_squares,
    gen_logistic,
    load_instance,
    save_instance,
)
from .oracle import brute_force_best_order, expected_contraction, solve_reference, zstar_table
from .baselines import prox_gd_run, saga_run, sgd_run, svrg_run, theoretical_step_size
from .verify import verify_heterogeneous

__all__ = [
    "ProblemInstance",
    "Regularizer",
    "SamplingPlan",
    "DampedRunConfig",
    "TraceRecord",
    "HeterogeneityCertificate",
    "apply_Spi",
    "apply_Ti",
    "apply_Tpi",
    "bound_convex",
    "bound_strongly_convex",
    "brute_force_best_order",
    "epoch_order",
    "epoch_step",
    "expected_contraction",
    "gen_heterogeneous",
    "gen_least_squares",
    "gen_logistic",
    "grad_map_residual",
    "load_instance",
    "optimal_cyclic_order",
    "pi_norm_sq",
    "prox",
    "prox_gd_run",
    "rho_ratio",
    "run",
    "saga_run",
    "save_instance",
    "sgd_run",
    "solve_reference",
    "subgradient_residual",
    "svrg_run",
    "theoretical_step_size",
    "verify_heterogeneous",
    "zstar_table",
]

__version__ = "0.1.0"
