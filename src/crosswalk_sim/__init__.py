"""Closed-loop simulation of speed scaling for an occluded crosswalk.

A nonlinear single-track vehicle tracks a fixed avoidance path while one
of three policies scales its speed: a QMDP policy over a discrete
crosswalk POMDP, an occlusion-count heuristic, and a perfect-perception
oracle. Perception is a simulated lidar occupancy grid with ray-cast
visibility.
"""

from .dynamics import (
    VehicleState,
    allocate_longitudinal,
    brush_tire_lateral,
    step_dynamics,
)
from .executor import (
    SensorReading,
    ZeroBeliefError,
    belief_update,
    init_belief,
    pomdp_step,
)
from .files import (
    ScenarioConfig,
    Trace,
    export_plot_data,
    export_trace,
    load_scenario,
    load_scene,
)
from .harness import run_batch, run_scenario
from .path import Path, PathProjection
from .pomdp import (
    ACTION_SCALES,
    NUM_ACTIONS,
    NUM_OBS,
    NUM_STATES,
    ModelConfig,
    PomdpModel,
    build_crosswalk_model,
    obs_index,
    state_index,
    state_tuple,
)
from .qmdp import (
    AlphaVectorPolicy,
    ValueIterationError,
    best_action,
    extract_alphas,
    load_policy,
    save_policy,
    value_iteration,
)
from .world import (
    FREE,
    OCCUPIED,
    UNOBSERVABLE,
    RectObstacle,
    Scene,
    bin_observation,
    build_grid,
    count_unobservable,
    grid_to_text,
    pedestrian_visible,
)

__version__ = "0.1.0"
