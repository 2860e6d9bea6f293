"""Switched vector-field path following: guidance laws, simulator, benchmark."""

from .angles import wrap_angle
from .baselines import (
    BaselineParams,
    LookaheadInfeasibleError,
    basic_vf_command,
    nlgl_command,
    plos_command,
)
from .guidance import (
    CurvatureReport,
    GuidanceParams,
    GuidancePhase,
    case1_convergence_time,
    commanded_course,
    sat,
    validate_curvature_constraint,
)
from .paths import (
    CirclePath,
    LinePath,
    PathDomainError,
    PathFrame,
    PolylinePath,
    ReferencePath,
    SinusoidPath,
    UnboundedCurvatureError,
    load_polyline,
)
from .simulation import (
    GUIDANCE_LAWS,
    LAWS,
    BoxStats,
    MonteCarloSummary,
    ScenarioConfig,
    Trajectory,
    TrialMetrics,
    benchmark_scenario,
    chattering_index,
    comparison_scenario,
    compute_metrics,
    monte_carlo,
    run_trial,
)
from .vehicle import (
    AirspeedSpec,
    VehicleState,
    WindInfeasibleError,
    WindModel,
    ground_speed,
    step_vehicle,
    turn_rate,
)

__version__ = "0.1.0"
