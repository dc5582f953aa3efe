"""Numerical laboratory for a singular quasilinear diffusion problem.

The equation under study is u_t = f(g(u_x) u_xx) on an interval (-b, b)
with the singular Dirichlet condition u(+-b, t) = +infinity.  The package
bundles four instruments:

* regime classification from the tail exponent of g, the growth rate of f
  and the initial datum class (``singflow.regime``),
* traveling-wave profiles by quadrature with boundary-rate extraction
  (``singflow.wave``),
* explicit sub- and super-solution families with pointwise certification
  of their differential inequalities (``singflow.barriers``),
* an explicit finite-difference solver with cap ladders probing
  existence versus instantaneous blow-up (``singflow.solver``).

``singflow.cli`` exposes all of it as a scenario-driven command line tool;
``singflow.suite`` holds the cross-module invariant checks.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (DomainError, HorizonError, InsufficientDataError,
                     ParameterError, RateExtractionError, RegimeError,
                     ScenarioError, SingflowError, SolverOverflowError,
                     StepSizeError)
from .model import (DiffusionWeight, InitialDatum, Nonlinearity, ProblemSpec,
                    custom_nonlinearity, custom_weight, initial_b1,
                    initial_b2, initial_b3, make_problem, power_tail_weight,
                    preset_curvature, preset_p_heat, psi, signed_power)
from .regime import (EXISTS, EXISTS_UNIQUE, NEEDS_B2, NOT_EXISTS,
                     OUTSIDE_THEORY, RegimeVerdict, classify, classify_wave,
                     uniqueness_threshold)
from .wave import (WaveProfile, check_points, compute_wave, divergence_rate,
                   g_antiderivative, profile_residuals)
from .barriers import (BarrierFunction, SuperFamilyParams, convex_envelope,
                       h_tail, sub_uk, sub_vL, super_family, super_mu,
                       translate_wave, verify_inequality)
from .solver import (CapStudy, GridField, SolveReport, cap_study, cfl_limit,
                     make_field, solve, step)
from .verify import (default_gamma_grid, fit_boundary_rate, residual_values,
                     scale_sub, scale_super)
from .suite import run_suite

__all__ = [
    "__version__",
    # errors
    "SingflowError", "DomainError", "ParameterError", "RegimeError",
    "InsufficientDataError", "RateExtractionError", "StepSizeError",
    "SolverOverflowError", "HorizonError", "ScenarioError",
    # model
    "Nonlinearity", "DiffusionWeight", "InitialDatum", "ProblemSpec",
    "psi", "signed_power", "custom_nonlinearity", "custom_weight",
    "power_tail_weight", "preset_p_heat", "preset_curvature",
    "initial_b1", "initial_b2", "initial_b3", "make_problem",
    # regime
    "RegimeVerdict", "classify", "classify_wave", "uniqueness_threshold",
    "EXISTS", "EXISTS_UNIQUE", "NOT_EXISTS", "NEEDS_B2", "OUTSIDE_THEORY",
    # wave
    "WaveProfile", "compute_wave", "divergence_rate", "check_points",
    "profile_residuals", "g_antiderivative",
    # barriers
    "BarrierFunction", "SuperFamilyParams", "h_tail", "sub_uk", "sub_vL",
    "super_family", "super_mu", "convex_envelope", "translate_wave",
    "verify_inequality",
    # solver
    "GridField", "SolveReport", "CapStudy", "make_field", "cfl_limit",
    "step", "solve", "cap_study",
    # verify
    "residual_values", "scale_super", "scale_sub",
    "fit_boundary_rate", "default_gamma_grid",
    # suite
    "run_suite",
]
