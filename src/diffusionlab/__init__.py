"""diffusionlab: numerics for the degenerate diffusion equation u_t = u^p Lap(u).

Submodules:
    profiles    self-similar profile ODE, tail certification, evaluation
    steady      steady Dirichlet profiles on balls and their exact rescaling
    pde         regularized radial evolution, rescaled picture, comparisons
    rates       closed-form exponents, heat polynomials, decay fitting
    experiments manifest-driven scenario runner, sweeps, reports
"""

from .errors import (
    DiffusionLabError,
    DomainError,
    NewtonDivergence,
    NoCrossingError,
    RangeError,
    SingularityError,
    StepTooSmall,
    ToleranceError,
    WindowError,
)
from .profiles import (
    Profile,
    ProfileParams,
    TailBound,
    certify_tail_bounds,
    check_integral_identity,
    eval_self_similar,
    fit_tail_exponent,
    integrate_profile,
    self_similar_residual,
    taylor_start,
)
from .steady import SteadyProfile, scale_profile, shoot_unit_profile, verify_scaling_law
from .pde import (
    EvolutionRun,
    InitialDatum,
    SolverConfig,
    build_grid,
    evolve,
    rescale_to_v,
    separated_subsolution,
)
from .rates import (
    INF,
    DecayFit,
    exponent_roundtrip,
    fit_decay,
    heat_polynomial,
    rate_fast,
    rate_gamma,
    rate_lq,
    rate_nu,
    vartheta,
)

__version__ = "0.1.0"

__all__ = [
    "DiffusionLabError", "DomainError", "NewtonDivergence", "NoCrossingError",
    "RangeError", "SingularityError", "StepTooSmall", "ToleranceError", "WindowError",
    "Profile", "ProfileParams", "TailBound", "certify_tail_bounds",
    "check_integral_identity", "eval_self_similar", "fit_tail_exponent",
    "integrate_profile", "self_similar_residual", "taylor_start",
    "SteadyProfile", "scale_profile", "shoot_unit_profile", "verify_scaling_law",
    "EvolutionRun", "InitialDatum", "SolverConfig", "build_grid",
    "evolve", "rescale_to_v", "separated_subsolution",
    "INF", "DecayFit", "exponent_roundtrip", "fit_decay", "heat_polynomial",
    "rate_fast", "rate_gamma", "rate_lq", "rate_nu", "vartheta",
]
