"""Wu pseudometrics of Reinhardt indicatrices.

The pipeline: unit indicatrices of holomorphically invariant pseudometrics
(closed forms on elementary Reinhardt domains, certificate clouds for the
counterexample domains) are pushed through the squared-modulus map to
moduli space, where the minimal-volume enclosing diagonal ellipsoid is a
minimal-volume enclosing simplex, solved as a concave program.  The two
normalizations W-tilde and W = sqrt(m) W-tilde are returned as diagonal
Hermitian seminorms.
"""

from .busemann import (
    Indicatrix,
    UnknownBoundednessError,
    UnsupportedIndicatrixError,
    absolute_directions,
    cloud_indicatrix,
    convexify,
    product_indicatrix,
    radial_indicatrix,
    support,
)
from .cli import eval_metric, main
from .domains import (
    DomainSpec,
    SandwichIndicatrix,
    UnsupportedBasePointError,
    elem_reinhardt,
    g2,
    gn,
    indicatrix_at,
    membership,
    metric_indicatrix,
    polydisc,
    synthetic_rem_one,
    synthetic_rem_two,
    truncated_gn,
    truncation_intercepts,
)
from .experiments import (
    EXPERIMENTS,
    GOLDEN_CASES,
    ConfigError,
    ExperimentConfig,
    GoldenCase,
    ResultRow,
    golden_eta_hat,
    run_experiment,
)
from .geometry import DiagonalHermitianForm, SimplexParams
from .metrics import (
    BranchInfo,
    MultiIndex,
    OutsideDomainError,
    UnsupportedCaseError,
    elem_reinhardt_metric_info,
    gamma_disc,
    kappa_punctured_disc,
    membership_elem_reinhardt,
    phi_r,
)
from .wu import (
    ContradictionReport,
    DegenerateAxisError,
    SimplexProgram,
    SolveInfo,
    SolverError,
    WuResult,
    certify_contradiction_gn,
    gn_ratio,
    min_vol_simplex,
    min_vol_simplex_info,
    simplex_program,
    wu_metric,
    wu_product,
)

__version__ = "0.1.0"
