"""Funnel-based model predictive output tracking.

The package splits along the pipeline: funnel boundaries and gain
conditions (``funnel``), the chained error variables (``errchain``), plant
descriptions (``systems``), fixed-step simulation and the funnel feedback
law (``sim``), the barrier optimal control problem (``ocp``), the receding
horizon loop (``mpc``), CSV/SVG artifacts (``logio``), and the command line
front end (``cli``).
"""

from .errchain import (
    chain_matrix,
    error_variables,
    highest_error_identity_check,
    jet_matrix,
    polynomial_coefficients,
    top_error_rows,
)
from .errors import (
    FunnelMpcError,
    InternalDynamicsDiverged,
    OcpInfeasibleError,
    PreconditionViolation,
    RecursiveFeasibilityViolation,
    SingularGainError,
)
from .funnel import (
    ClassGReport,
    FunnelChain,
    FunnelFunction,
    GainSelection,
    InitialJetData,
    build_funnel_chain,
    chain_margins,
    class_g_check,
    default_gamma,
    exponential_sum_funnel,
    funnel_from_callables,
    gain_lower_bounds,
    gamma_margin,
    saturation_bound,
    select_gains,
)
from .logio import (
    TrajectoryTable,
    closed_loop_table,
    read_trajectory_csv,
    write_closed_loop_svg,
    write_records_csv,
    write_trajectory_csv,
)
from .mpc import (
    ClosedLoopLog,
    GuaranteeReport,
    MpcConfig,
    OcpRecord,
    output_guarantees,
    run_fmpc,
    verify_guarantees,
)
from .ocp import (
    OcpSolution,
    OcpSpec,
    StageCost,
    brute_force_ocp,
    cost_functional,
    solve_ocp,
    stage_cost,
)
from .sim import (
    ControlSignal,
    FeedbackLaw,
    JetHistory,
    NormalFormPlant,
    StateSpacePlant,
    Trajectory,
    feasibility_feedback,
    feedback_rollout,
    integrate_open_loop,
    linear_jet_response,
    make_plant,
    rk4_step_maps,
    rollout_jets_batch,
    zoh_feedback_rollout,
)
from .systems import (
    CausalOperator,
    MassOnCarParams,
    ReferenceSignal,
    RelativeDegreeSystem,
    StateSpaceSystem,
    constant_reference,
    cosine_reference,
    delay_operator,
    estimate_dynamics_bounds,
    integrator_chain,
    internal_dynamics_operator,
    mass_on_car_initial_data,
    mass_on_car_normal_form,
    mass_on_car_state_space,
    static_operator,
)

__version__ = "0.1.0"
