"""Span tracing around the layers of crosswalk_sim, from outside the package.

Each layer is wrapped at the binding its caller uses: `harness` imports
`step_dynamics`, the controllers, `pomdp_step` and the exporters by name,
calls `world.build_grid` through the module, and `Path.project` lives on
the class. A span's self time is its duration minus the time covered by
the spans it caused.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from crosswalk_sim import executor, harness, path, pomdp, qmdp, world

# (layer name, object holding the binding, attribute)
LAYERS = (
    ("harness.run_scenario", harness, "run_scenario"),
    ("harness.export_trace", harness, "export_trace"),
    ("harness.export_plot_data", harness, "export_plot_data"),
    ("world.build_grid", world, "build_grid"),
    ("world.count_unobservable", world, "count_unobservable"),
    ("world.pedestrian_visible", world, "pedestrian_visible"),
    ("dynamics.step_dynamics", harness, "step_dynamics"),
    ("path.Path.project", path.Path, "project"),
    ("control.steer_control", harness, "steer_control"),
    ("control.speed_control", harness, "speed_control"),
    ("executor.pomdp_step", harness, "pomdp_step"),
    ("executor.belief_update", executor, "belief_update"),
    ("pomdp.build_crosswalk_model", pomdp, "build_crosswalk_model"),
    ("qmdp.value_iteration", qmdp, "value_iteration"),
    ("qmdp.extract_alphas", qmdp, "extract_alphas"),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)


class Tracer:
    """Per-layer call counts and self time, aggregated in memory."""

    def __init__(self):
        self.calls = {name: 0 for name in LAYER_NAMES}
        self.self_s = {name: 0.0 for name in LAYER_NAMES}
        self._open: list[list[float]] = []  # child time of each open span

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                self._open.pop()
                self.calls[name] += 1
                self.self_s[name] += span - children[0]
                if self._open:
                    self._open[-1][0] += span

        traced.__wrapped__ = fn
        return traced


@contextmanager
def tracing(tracer: Tracer):
    """Route every layer in LAYERS through the tracer; restore on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for _, obj, attr in LAYERS]
    try:
        for (name, obj, attr), (_, _, fn) in zip(LAYERS, saved):
            setattr(obj, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


class _CountingMatrix:
    def __init__(self, matrix, counter):
        self._matrix = matrix
        self._counter = counter

    def __matmul__(self, other):
        self._counter[0] += 1
        return self._matrix @ other


class CountingTransitions:
    """Stand-in for `PomdpModel.transitions` that counts matrix-vector
    products. Value iteration does one product per action per sweep, so
    sweeps = products / actions."""

    def __init__(self, transitions):
        self._mats = tuple(transitions)
        self._counter = [0]

    def __len__(self):
        return len(self._mats)

    def __getitem__(self, action):
        return _CountingMatrix(self._mats[action], self._counter)

    @property
    def products(self) -> int:
        return self._counter[0]

    def sweeps(self) -> int:
        products, actions = self._counter[0], len(self._mats)
        if products % actions:
            raise ValueError(f"{products} products is not a whole number of sweeps")
        return products // actions
