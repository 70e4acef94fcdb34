"""Blow-up thresholds for the periodic b-family of shallow-water equations.

The package computes the local-in-space blow-up threshold of the family,
both through closed-form analytic bounds and through numerical solution of
the underlying weighted variational problem, and validates the pointwise
blow-up criterion and lifespan bound with a pseudo-spectral simulator.
"""

# Written only here (pyproject.toml reads it), and before the submodule
# imports, so that any of them may import it.
__version__ = "0.1.0"

from .errors import (
    BetaOutOfRange,
    BFamilyError,
    BOutOfRange,
    LinearSolveFailure,
    NoConvergence,
)
from .estimates import (
    ALPHA,
    EstimateResult,
    delta_b,
    estimate1,
    estimate2,
    estimate3,
    thresholds,
)
from .kernel import (
    BETA_MAX,
    eval_dp,
    eval_p,
    eval_w,
    unit_weight,
)
from .legendre import degree_upsilon, legendre_p, legendre_ratio
from .sim import (
    BlowupReport,
    ConservedQuantities,
    ConvolutionBoundReport,
    CriterionPoint,
    SimConfig,
    TorusField,
    Trajectory,
    check_convolution_bound,
    check_criterion,
    conserved_quantities,
    integrate,
    lifespan_bound,
    rhs,
    step,
)
from .threshold import (
    STATUS_FINITE,
    STATUS_INFINITE,
    STATUS_UNDETERMINED,
    BetaBResult,
    SweepRow,
    compute_beta_b,
    f_discriminant,
    sweep,
)
from .variational import (
    ELSolution,
    JResult,
    SpectralJ,
    compute_j,
    compute_j_bvp,
    compute_j_direct,
    compute_j_spectral,
    solve_euler_lagrange,
)

__all__ = [
    "ALPHA",
    "BETA_MAX",
    "BFamilyError",
    "BOutOfRange",
    "BetaBResult",
    "BetaOutOfRange",
    "BlowupReport",
    "ConservedQuantities",
    "ConvolutionBoundReport",
    "CriterionPoint",
    "ELSolution",
    "EstimateResult",
    "JResult",
    "LinearSolveFailure",
    "NoConvergence",
    "STATUS_FINITE",
    "STATUS_INFINITE",
    "STATUS_UNDETERMINED",
    "SimConfig",
    "SpectralJ",
    "SweepRow",
    "TorusField",
    "Trajectory",
    "check_convolution_bound",
    "check_criterion",
    "compute_beta_b",
    "compute_j",
    "compute_j_bvp",
    "compute_j_direct",
    "compute_j_spectral",
    "conserved_quantities",
    "degree_upsilon",
    "delta_b",
    "estimate1",
    "estimate2",
    "estimate3",
    "eval_dp",
    "eval_p",
    "eval_w",
    "f_discriminant",
    "integrate",
    "legendre_p",
    "legendre_ratio",
    "lifespan_bound",
    "rhs",
    "solve_euler_lagrange",
    "step",
    "sweep",
    "thresholds",
    "unit_weight",
]
