"""Noise thresholds for local realism of multiparty qudit correlations."""

__version__ = "0.1.0"

from .scenario import (
    PAPER_SETTINGS_NAMES,
    PhaseSettings,
    PureState,
    Scenario,
    canonical_phases,
    ghz_state,
    paper_optimal_state,
    paper_settings,
    paper_table_normalization,
    product_state,
    setting_unitaries,
    tritter_unitary,
)
from .probabilities import (
    CorrelationTensor,
    NegativeProbabilityError,
    ScenarioMismatchError,
    correlation_tensor,
)
from .simplex import (
    BoundedSimplex,
    LinearProgram,
    LPSolution,
    SolverFailure,
    SolverOptions,
    certified_lower_bound,
    dump_lp_text,
    independent_rows,
    solve_lp,
)
from .threshold import (
    JointDistribution,
    ThresholdResult,
    ThresholdSolver,
    assignment_marginal_matrix,
    build_threshold_lp,
    feasible_at,
    threshold,
    threshold_from_tensor,
)
from .search import (
    InvalidParameterError,
    OptimizationConfig,
    OptimizationResult,
    ParameterVector,
    encode,
    optimize_phases,
    optimize_state_and_phases,
)
from .scenario_io import (
    SETTINGS_KEYWORDS,
    STATE_KEYWORDS,
    ScenarioFile,
    ScenarioFileError,
    explicit_settings_spec,
    format_angle,
    load_scenario_file,
    parse_angle,
    parse_scenario_file,
)
from .reports import (
    ReportError,
    build_optimize_report,
    build_threshold_report,
    load_report,
    verify_report,
    write_report,
)
