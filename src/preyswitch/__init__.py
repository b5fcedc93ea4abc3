"""Filippov dynamics of the prey-switching 1-predator/2-prey model.

The package classifies the switching plane, integrates concatenated
Filippov trajectories (smooth pieces plus the sliding flow), and locates
the parameter value at which the sliding flow's repulsive pseudo-focus
lands on the fold-return curve, producing a sliding homoclinic loop.
"""

from .errors import (
    BlowUp,
    ChatteringGuard,
    ConstraintViolation,
    DegenerateTau,
    DomainError,
    FocusLanding,
    IdentityInfeasible,
    InequalityViolated,
    Lemma2Violation,
    MultipleRoots,
    NoBracket,
    NoReturn,
    OrbitEscaped,
    ParameterLoadError,
    PoleError,
    PreySwitchError,
    SameSign,
    StepFailure,
    TangencyAmbiguity,
    VerificationFailure,
)
from .model import (
    Parameters,
    Piece,
    RegionLabel,
    SigmaState,
    State,
    classify_sigma_point,
    eval_field,
    first_integral_F,
    lie_derivatives,
    load_parameters,
    parameters_from_dict,
    switching_function,
    to_model_coords,
    validate_parameters,
)
from .sliding import (
    FocusKind,
    PseudoEquilibrium,
    classify_focus,
    eval_sliding,
    fc_slope_at_focus,
    focus_condition_holds,
    h_rescale_constant,
    hyperbola_and_Fc,
    monotonicity_witnesses,
    pseudo_equilibria,
)
from .flow import (
    Arc,
    ArcKind,
    Direction,
    EventKind,
    EventRecord,
    IntegratorConfig,
    Trajectory,
    characteristic_time,
    events_payload,
    integrate_filippov,
    integrate_sliding,
    integrate_smooth,
    lv_period,
    trajectory_rows,
)
from .connection import (
    ConnectionCertificate,
    Lemma1Report,
    MuCurve,
    NPointReport,
    build_N_point,
    coarse_mu_curve,
    distance_to_connection,
    distances_to_connection,
    find_shilnikov,
    fixed_point_brackets,
    lemma1_asymptotics_report,
    mu_curve,
    mu_point,
    return_map_sample,
    verify_connection,
)

__version__ = "0.1.0"
