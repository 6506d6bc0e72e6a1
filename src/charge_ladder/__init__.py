"""Exact polynomial families for Coulomb charge equilibria.

The package generates the polynomial pairs whose roots balance as point
charges in the plane (optionally in a homogeneous field), certifies the
associated log-free rational integrals in exact arithmetic, verifies the
equilibria numerically, and integrates the first-order root dynamics with
its conserved quantity.
"""

__version__ = "0.1.0"

from .dynamics import (
    CollisionDetected,
    StepSizeUnderflow,
    Trajectory,
    TrajectorySample,
    acceleration_residual,
    bilinear_residual,
    conserved_quantity,
    integrate,
    vortex_rhs,
)
from .generators import (
    BracketParams,
    Certificate,
    LadderState,
    UnsupportedLambda,
    adler_moser,
    adler_moser_wronskian,
    admissible_degrees,
    bracket,
    certify_rational_integrals,
    lambda2_ladder,
    residue_divisibility,
)
from .numerics import (
    ChargeSystem,
    CollisionError,
    ConvergenceFailure,
    EquilibriumReport,
    force,
    roots,
    verify_equilibrium,
)
from .polyrat import (
    DivisionByZero,
    ExactPoly,
    InvariantViolation,
    NotCoprime,
    NotSquarefree,
    RationalIntegral,
    ReductionResult,
    UndefinedGcd,
    gcd_poly,
    hermite_reduce,
    integrate_rational,
    wronskian,
)
from .spectral import (
    FieldPair,
    FieldRequired,
    SolveReport,
    ba_lambda1,
    bilinear_field_check,
    find_parameter_weight,
    scale_substitute,
    solve_p_given_q,
)

__all__ = [name for name in dir() if not name.startswith("_")]
