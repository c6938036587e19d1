"""Pseudo-spectral laboratory for a generalized dissipative flow model.

The package builds mild solutions of a periodic incompressible flow
with fractional dissipation and power-law convection, and measures the
norm inequalities, exponent relations, and contraction conditions that
govern their existence: dyadic frequency analysis (Besov norms), Lorentz
norms of time trajectories, empirical inequality constants, and a Picard
solver with a smallness gate.
"""

from .besov_analysis import (
    BesovIndex,
    DyadicCutoff,
    LorentzBesov,
    besov_norm,
    besov_norms,
    block_lp_norms,
    build_cutoff,
    chi,
    partition_sum,
    phi_profile,
    reconstruct,
    trajectory_norm,
)
from .errors import (
    BlowupError,
    ConfigurationError,
    DivergenceError,
    EvaluationError,
    GateError,
    GnsError,
    HypothesisError,
    ParameterError,
    RangeError,
    ShapeError,
    SideConditionError,
)
from .estimates_lab import (
    ESTIMATE_IDS,
    HypothesisSet,
    InequalityReport,
    SampleSpec,
    check_hypotheses,
    derive_exponents,
    estimate_constant,
    hypothesis_margins,
    hypothesis_report,
    random_field,
    scaling_invariance_check,
    window_margins,
)
from .lorentz_time import (
    LorentzIndex,
    TimeSamples,
    decreasing_rearrangement,
    holder_product_check,
    log_nodes,
    lorentz_norm,
    pointwise_product,
    power_identity_check,
    read_trajectory_csv,
)
from .mild_solver import (
    ContractionDiagnostics,
    SolverConfig,
    SolverConstants,
    Trajectory,
    estimate_solver_constants,
    phi_map,
    picard_solve,
    pressure_recover,
    record_norms,
    save_trajectory,
    smallness_gate,
    solution_norm,
    write_norm_csv,
)
from .nonlinearity import (
    PowerLaw,
    apply_power,
    convective_term,
    divergence_convection,
    pointwise_difference_bound,
    power_values,
)
from .spectral_core import (
    Grid,
    SpectralField,
    apply_multiplier,
    dilate,
    divergence,
    fractional_laplacian,
    gradient,
    leray_project,
    read_field,
    semigroup_apply,
    write_field,
)

__version__ = "0.1.0"
