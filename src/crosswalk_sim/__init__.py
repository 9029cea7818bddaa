"""Closed-loop simulation of speed scaling for an occluded crosswalk.

A nonlinear single-track vehicle tracks a fixed avoidance path while one
of three policies scales its speed: a QMDP policy over a discrete
crosswalk POMDP, an occlusion-count heuristic, and a perfect-perception
oracle. Perception is a simulated lidar occupancy grid with ray-cast
visibility. The package root re-exports nothing: import the submodules.
"""

# harness imports every runtime submodule, so `import crosswalk_sim` loads
# what a run needs; perfbench/run.py times that import as the set-up cost.
from . import harness  # noqa: F401

__version__ = "0.1.0"
