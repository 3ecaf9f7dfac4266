"""Numerical lab for Birkhoff-James orthogonality, semi-inner products, and
approximate-orthogonality-preserving operators on discretized vector-valued
L^p spaces."""

from .blockspace import (
    BlockFunctional,
    BochnerElement,
    CheckResult,
    SpaceSpec,
    apply_functional,
    bochner_norm,
    dual_exponent,
    functional_norm,
    inner_duality_map,
    inner_norm,
    support_functional,
    zero_set,
)
from .errors import (
    BadSpec,
    BjlabError,
    ConfigError,
    DegenerateDraw,
    NonFiniteValue,
    NotSmooth,
    ShapeMismatch,
    UnsupportedExponent,
    ZeroElement,
    ZeroVector,
)
from .harness import ExperimentConfig, RunReport, parse_config, run
from .ortho import (
    certificate_check,
    is_approx_bj_orthogonal,
    is_bj_orthogonal,
    make_orthogonal_partner,
    min_certificate_value,
    minimize_convex_1d,
)
from .preserver import (
    AtomPartition,
    ScalingOperator,
    TrialRecord,
    apply_operator,
    draw_orthogonal_pair,
    h_alpha_witness,
    is_scalar_multiple_of_isometry,
    preservation_trial,
    preservation_trials,
    random_element,
    u_eps_L1,
    u_eps_l1,
    u_eps_Lp,
)
from .sip import (
    SipAxiomReport,
    semi_inner_product,
    sip_axiom_report,
    sip_orthogonality_criterion,
)

__version__ = "0.1.0"
