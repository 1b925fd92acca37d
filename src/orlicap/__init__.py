"""Numerical verification of capacitary strong-type inequalities."""

from .errors import ConfigurationError, NumericalError
from .young import (
    E_E,
    ConditionReport,
    FactoredPair,
    YoungSpec,
    check_delta2,
    check_delta2_plus,
    check_pairing,
    check_submultiplicative_f,
    custom_table,
    derive_psi,
    eval_phi,
    eval_phi_prime,
    exp_log,
    exp_loglog,
    factored,
    power,
    power_log,
)
from .grid import (
    GridDomain,
    GridFunction,
    SetMask,
    ball_mask,
    build_domain,
    from_callable,
    integrate,
    level_mask,
)
from .norms import luxemburg_norm, modular
from .capacity import (
    BallEstimate,
    CapacityCache,
    CapacityResult,
    ball_capacity_estimate,
    capacity_ball_radial,
    capacity_variational,
    riesz_capacity_variational,
)
from .strongtype import (
    PsiSpec,
    StrongTypeReport,
    SuiteVerdict,
    TestFunctionSpec,
    build_test_function,
    derived_psi,
    explicit_psi,
    lhs_dyadic,
    rhs_energy,
    truncation_H,
    verify_strong_type,
)
from .averages import (
    AverageTrace,
    average_trace,
    capacitary_average,
    default_centers,
    grid_lipschitz,
    snap_to_node,
)

__version__ = "0.1.0"
