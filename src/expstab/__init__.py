"""Adaptive exponential stabilization for parameter-varying strict-feedback systems.

A numpy-based toolkit implementing and verifying adaptive controllers that
drive strict-feedback plants with fast time-varying parameters to the
origin at a prescribed exponential rate, including the unknown-control-
direction variant based on a Nussbaum dynamic gain, together with a
breakpoint-aware fixed-step simulator, the wing-rock benchmark, and a
trajectory analysis suite.
"""

from .model import (
    SystemModel,
    ParameterBounds,
    ValidationReport,
    eval_regressor,
    eval_parameters,
    validate_model,
)
from .scalar import ScalarState, ScalarGains, scalar_A_law, scalar_B_law, scalar_C_law
from .nussbaum import (
    NussbaumSpec,
    NussbaumOverflowError,
    NussbaumDomainError,
    nussbaum_value,
    verify_enhanced,
)
from .backstepping import (
    GainConfig,
    BacksteppingEngine,
    EngineEval,
    FactorizationError,
    propagate_sensitivities,
    factorize_line_integral,
    damping_gain,
    terminal_gain,
    control_theorem1,
    control_theorem2,
)
from .sim import (
    Scenario,
    Trajectory,
    ScenarioError,
    simulate,
    integrate_fixed,
    export_csv,
    export_npz,
    load_csv,
    load_npz,
)
from .analysis import (
    EnvelopeFit,
    fit_envelope,
    check_monotone,
    detect_limit,
    compare_runs,
    settling_time,
    energy_descent_ok,
)
from .scenarios import (
    WING_ROCK_TABLE,
    wing_rock_model,
    build_wing_rock,
    build_synthetic,
    build_scalar,
    build_named,
    scenario_names,
)

__version__ = "0.1.0"
