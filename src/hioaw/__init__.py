"""Hybrid input/output automata over shared spatio-temporal world variables.

Sampled trajectories, grid fields, automata whose outputs live on a common
grid, parallel composition that sums shared world outputs, bounded refinement
checking, and a two-car scenario where coordination travels through the
ground itself.
"""

from .automaton import (
    ConstantInputs,
    Environment,
    Hioaw,
    RandomScheduler,
    SampledGenerator,
    Scheduler,
    Signature,
    TransitionRule,
    UrgentScheduler,
    make_signature,
)
from .cars import (
    CarParams,
    GroundEnvironment,
    TwoCarWorld,
    build_car,
    build_two_car_world,
    first_action_step,
    first_risk_steps,
    supervisor_oracle,
)
from .composition import (
    CompatReport,
    check_compatible,
    compose,
    decompose_execution,
    project_trace,
    shared_world_outputs,
    verify_decomposition,
)
from .errors import HioawError
from .executions import (
    EPSILON,
    ExecutionFragment,
    align_paddings,
    executions_close,
    pad,
    prefix_execution,
    restrict_execution,
    trace_of,
    unpad,
)
from .fields import (
    FieldKind,
    FieldSlice,
    SpaceGrid,
    SpatioTemporalField,
    field_sum,
    footprint,
    neighborhood,
    occupancy_field,
    pressure_field,
    snapshot_csv,
)
from .finite import FiniteSpec, LocationSpec, TransitionSpec, build_finite
from .refinement import (
    FiniteInstance,
    check_simulation,
    check_trace_inclusion,
    comparable,
    finite_compose,
    product_relation,
    replay_counterexample,
    simulation_implies_inclusion_check,
)
from .scenario import (
    BuiltScenario,
    Scenario,
    build_scenario,
    load_scenario,
    parse_scenario,
    run_check,
)
from .trajectories import (
    Trajectory,
    Valuation,
    VarKind,
    VarName,
    auto_var,
    concat,
    constant_trajectory,
    point_trajectory,
    sum_trajectories,
    trajectories_close,
    valuations_close,
    world_var,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
