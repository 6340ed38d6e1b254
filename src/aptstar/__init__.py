"""Sampling-based asymptotically optimal motion planning with adaptive
batch sizing and force-prolated elliptical nearest-neighbor search."""

from .adaptive import (
    BatchConfig,
    BatchState,
    ChargeConfig,
    adapt_batch_size,
    alternate_charge_schedule,
    bernoulli_number,
    decay_factor,
    informed_ratio,
    sigmoid_smooth,
    tanh_taylor_charge,
    vertex_charge,
)
from .geometry import (
    HyperRectangle,
    InformedSet,
    ProblemInstance,
    WorldModel,
    distance,
    is_motion_valid,
    is_state_valid,
    lebesgue_measure,
    load_world,
    sample_informed,
    sample_uniform,
    save_world,
    unit_ball_volume,
)
from .neighbors import (
    EllipsoidRegion,
    NeighborConfig,
    coulomb_force,
    rnn_radius,
)
from .planner import (
    PLANNERS,
    PlannerConfig,
    PlannerRun,
    SearchTree,
    extract_path,
    plan_apt,
    plan_batch_informed_trees,
    plan_informed_rrt_star,
    plan_rrt_connect,
)
from .worlds import WorldSpec, canonical_start_goal, make_problem, make_world
from .bench import BenchmarkSuite, SummaryRow, run_benchmark, summarize

__version__ = "0.1.0"
