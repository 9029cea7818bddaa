"""Output checks. Each returns None when the output is correct, or a short
reason when it is not."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from crosswalk_sim.world import (
    CELLS_PER_M,
    FORWARD_RANGE,
    FREE,
    GRID_LENGTH,
    GRID_WIDTH,
    OCCUPIED,
    UNOBSERVABLE,
)

# Distances within this many metres of a boundary are left undecided by the
# reference grid: float64 rounding in two different formulations can put a
# tangent ray on either side.
TANGENCY_EPS = 1e-9


def read_golden(run_dir: Path) -> dict[str, bytes]:
    """Every file of one committed run directory, by file name."""
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()}


def compare_golden(out_dir: Path, golden: dict[str, bytes]) -> str | None:
    """Byte-for-byte comparison of a run's exported files with the golden set."""
    written = read_golden(out_dir)
    if sorted(written) != sorted(golden):
        return f"files {sorted(written)} != golden {sorted(golden)}"
    for name, data in golden.items():
        if written[name] != data:
            return f"{name} differs from the committed copy"
    return None


def bellman_residual(model, q: np.ndarray) -> float:
    """Sup-norm Bellman residual of a Q table, recomputed from the
    transition triplets with a bincount rather than the solver's matvec."""
    v = q.max(axis=1)
    backup = np.empty_like(q)
    for a, mat in enumerate(model.transitions):
        coo = mat.tocoo()
        expected = np.bincount(coo.row, weights=coo.data * v[coo.col], minlength=q.shape[0])
        backup[:, a] = model.rewards[:, a] + model.discount * expected
    return float(np.max(np.abs(backup - q)))


def check_solve(model, q: np.ndarray, policy, tol: float) -> str | None:
    if q.shape != (model.num_states, model.num_actions) or not np.isfinite(q).all():
        return "Q table has the wrong shape or non-finite entries"
    for a, mat in enumerate(model.transitions):
        if np.max(np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0)) > 1e-12:
            return f"transition rows of action {a} do not sum to 1"
    if not np.array_equal(policy.alphas, q.T):
        return "alpha vectors are not the transposed Q table"
    residual = bellman_residual(model, q)
    if not residual <= tol:
        return f"Bellman residual {residual:.3e} above tol {tol:.1e}"
    return None


def _separation(ob, ax, ay, bx, by):
    """Signed separating distance between each segment a-b and a rectangle,
    by the separating-axis test: positive means disjoint, <= 0 touching or
    crossing. The candidate axes are the rectangle's two sides and the
    segment's normal."""
    c, s = math.cos(ob.yaw), math.sin(ob.yaw)
    hx, hy = ob.size[0] / 2, ob.size[1] / 2
    seps = []
    for ux, uy, h in ((c, s, hx), (-s, c, hy)):
        pa = (ax - ob.center[0]) * ux + (ay - ob.center[1]) * uy
        pb = (bx - ob.center[0]) * ux + (by - ob.center[1]) * uy
        seps.append(np.maximum(np.minimum(pa, pb) - h, -h - np.maximum(pa, pb)))
    dx, dy = bx - ax, by - ay
    norm = np.hypot(dx, dy)
    corners = [
        (ob.center[0] + c * sx * hx - s * sy * hy, ob.center[1] + s * sx * hx + c * sy * hy)
        for sx, sy in ((1, 1), (1, -1), (-1, -1), (-1, 1))
    ]
    side = [((qx - ax) * dy - (qy - ay) * dx) / norm for qx, qy in corners]
    lo = np.minimum.reduce(side)
    hi = np.maximum.reduce(side)
    seps.append(np.maximum(lo, -hi))
    return np.maximum.reduce(seps)


def _inside(ob, x, y):
    """Signed distance-like margin of points to a rectangle: <= 0 inside."""
    c, s = math.cos(ob.yaw), math.sin(ob.yaw)
    dx, dy = x - ob.center[0], y - ob.center[1]
    lx, ly = c * dx + s * dy, -s * dx + c * dy
    return np.maximum(np.abs(lx) - ob.size[0] / 2, np.abs(ly) - ob.size[1] / 2)


def _ego_xy(scene, pose):
    hdg = scene.road.heading
    dn, de = pose[0] - scene.road.origin[0], pose[1] - scene.road.origin[1]
    return dn * math.cos(hdg) + de * math.sin(hdg), dn * math.sin(hdg) - de * math.cos(hdg)


def reference_grid(scene, pose) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell ternary grid and a mask of cells left undecided because a
    boundary passes within TANGENCY_EPS of them."""
    ex, ey = _ego_xy(scene, pose)
    i = np.arange(GRID_LENGTH)[:, None]
    j = np.arange(GRID_WIDTH)[None, :]
    cx = np.broadcast_to(ex + (i + 0.5) / CELLS_PER_M, (GRID_LENGTH, GRID_WIDTH))
    cy = np.broadcast_to(ey + (j - GRID_WIDTH / 2 + 0.5) / CELLS_PER_M, (GRID_LENGTH, GRID_WIDTH))
    occupied = np.zeros(cx.shape, dtype=bool)
    blocked = np.zeros(cx.shape, dtype=bool)
    undecided = np.zeros(cx.shape, dtype=bool)
    for ob in scene.obstacles:
        inside = _inside(ob, cx, cy)
        sep = _separation(ob, ex, ey, cx, cy)
        occupied |= inside <= 0.0
        blocked |= sep <= 0.0
        undecided |= (np.abs(inside) < TANGENCY_EPS) | (np.abs(sep) < TANGENCY_EPS)
    grid = np.full(cx.shape, FREE, dtype=np.uint8)
    grid[blocked] = UNOBSERVABLE
    grid[occupied] = OCCUPIED
    return grid, undecided


def reference_visible(scene, pose) -> bool | None:
    """Pedestrian visibility by the same separating-axis test; None when a
    sight line grazes an obstacle within TANGENCY_EPS."""
    if not scene.pedestrian.present:
        return False
    ex, ey = _ego_xy(scene, pose)
    px, py = scene.pedestrian.position
    if not 0.0 <= px - ex <= FORWARD_RANGE:
        return False
    visible = True
    for ob in scene.obstacles:
        sep = float(_separation(ob, ex, ey, np.float64(px), np.float64(py)))
        if abs(sep) < TANGENCY_EPS:
            return None
        visible &= sep > 0.0
    return visible


def check_grid(scene, pose, grid, count, visible, reference: bool) -> str | None:
    """Cheap consistency checks on every grid; the per-cell reference on
    the sampled ones."""
    if grid.shape != (GRID_LENGTH, GRID_WIDTH) or grid.dtype != np.uint8:
        return f"grid shape {grid.shape} / dtype {grid.dtype}"
    if count != int(np.sum(grid == UNOBSERVABLE)):
        return f"count_unobservable {count} does not match the grid"
    if not reference:
        return None
    expected, undecided = reference_grid(scene, pose)
    wrong = int(np.sum((grid != expected) & ~undecided))
    if wrong:
        return f"{wrong} cells differ from the per-cell reference"
    expected_visible = reference_visible(scene, pose)
    if expected_visible is not None and bool(visible) != expected_visible:
        return f"pedestrian_visible {visible}, reference {expected_visible}"
    return None
