"""Path projection against a dense brute-force search oracle."""

from __future__ import annotations

import numpy as np
import pytest

from crosswalk_sim.path import Path, PathProjection, resample_by_arc


def brute_force_project(path: Path, north: float, east: float, step: float = 1e-3):
    """Independent projection oracle: walk the polyline at `step` arc-length
    increments, take the closest sample, and sign the offset with the cross
    product of the local tangent and the residual vector."""
    svals = np.arange(0.0, path.length + step / 2, step)
    svals[-1] = path.length
    pn = np.interp(svals, path.s, path.north)
    pe = np.interp(svals, path.s, path.east)
    d2 = (pn - north) ** 2 + (pe - east) ** 2
    k = int(np.argmin(d2))
    s = float(svals[k])
    hdg = path.heading_at(min(s, path.length - step))
    tn, te = np.cos(hdg), np.sin(hdg)
    rn, re = north - pn[k], east - pe[k]
    # positive e lies to the left of travel: cross(residual, tangent).
    e = float(rn * te - re * tn)
    return s, e


def curved_path() -> Path:
    north = np.linspace(0.0, 60.0, 600)
    east = 2.0 * np.sin(north / 8.0)
    return Path(*resample_by_arc(north, east, 0.25))


def straight_path(length: float = 60.0) -> Path:
    north = np.arange(0.0, length + 0.125, 0.25)
    return Path(north, np.zeros_like(north))


def test_project_start_is_origin():
    proj = straight_path().project(0.0, 0.0)
    assert proj.s == 0.0
    assert proj.e == 0.0
    assert not proj.clamped


def test_project_left_offset_midway():
    # 1 m to the left of a northbound path (east = -1) at half length.
    path = straight_path(60.0)
    proj = path.project(30.0, -1.0)
    assert proj.s == pytest.approx(30.0, abs=1e-9)
    assert proj.e == pytest.approx(1.0, abs=1e-9)


def test_project_matches_brute_force():
    path = curved_path()
    rng = np.random.default_rng(7)
    for _ in range(200):
        s_ref = rng.uniform(2.0, path.length - 2.0)
        n0, e0 = path.point_at(s_ref)
        north = n0 + rng.uniform(-2.0, 2.0)
        east = e0 + rng.uniform(-2.0, 2.0)
        proj = path.project(north, east)
        s_o, e_o = brute_force_project(path, north, east)
        assert abs(proj.s - s_o) <= 0.25
        assert abs(proj.e - e_o) <= 1e-3 + 0.25  # sign and magnitude agree
        assert np.sign(proj.e) == np.sign(e_o) or abs(e_o) < 1e-3
        assert abs(abs(proj.e) - abs(e_o)) <= 1e-3


def test_point_at_round_trip():
    path = curved_path()
    rng = np.random.default_rng(3)
    for s in rng.uniform(0.0, path.length, 50):
        n, e = path.point_at(float(s))
        proj = path.project(n, e)
        assert proj.s == pytest.approx(float(s), abs=1e-6)
        assert abs(proj.e) <= 1e-9


def test_point_at_matches_np_interp_bitwise():
    north = np.arange(0.0, 10.01, 0.25)
    # -0.0 samples: interpolating onto them must keep the sign of zero
    east = np.where(np.arange(north.size) % 3 == 0, -0.0, np.sin(north))
    path = Path(north, east)
    rng = np.random.default_rng(11)
    queries = np.concatenate(
        [path.s, rng.uniform(-1.0, path.length + 1.0, 500), [-0.0, np.nextafter(path.length, 0.0)]]
    )
    for s in queries:
        clamped = float(np.clip(s, 0.0, path.length))
        want = [np.interp(clamped, path.s, path.north), np.interp(clamped, path.s, path.east)]
        assert np.array(path.point_at(float(s))).tobytes() == np.array(want).tobytes()


def test_heading_directions():
    assert straight_path().heading_at(10.0) == pytest.approx(0.0)
    east_path = Path(np.zeros(5), np.linspace(0.0, 10.0, 5))
    assert east_path.heading_at(5.0) == pytest.approx(np.pi / 2)


def test_clamped_projection_past_ends():
    path = straight_path(10.0)
    before = path.project(-5.0, 0.5)
    assert before.clamped and before.s == 0.0
    after = path.project(15.0, -0.5)
    assert after.clamped and after.s == pytest.approx(path.length)
    inside = path.project(5.0, 0.5)
    assert not inside.clamped


def test_resample_spacing_and_truncation():
    north = np.linspace(0.0, 60.0, 600)
    east = 2.0 * np.sin(north / 8.0)
    n, e = resample_by_arc(north, east, 0.25, total_length=40.0)
    gaps = np.hypot(np.diff(n), np.diff(e))
    assert np.all(gaps <= 0.25 + 1e-9)
    assert np.allclose(gaps[:-1], 0.25, atol=0.02)
    total = float(gaps.sum())
    assert total == pytest.approx(40.0, abs=0.05)


def test_validation_errors():
    with pytest.raises(ValueError):
        Path([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])  # repeated point
    with pytest.raises(ValueError):
        Path([0.0, 1.0], [0.0, 1.0, 2.0])  # shape mismatch
    with pytest.raises(ValueError):
        Path([0.0, np.nan], [0.0, 1.0])
    with pytest.raises(ValueError):
        straight_path().project(np.nan, 0.0)
    with pytest.raises(ValueError):
        resample_by_arc([0.0, 1.0], [0.0, 0.0], 0.25, total_length=5.0)


def test_projection_is_frozen():
    proj = PathProjection(s=1.0, e=0.5, clamped=False)
    with pytest.raises(Exception):
        proj.s = 2.0
