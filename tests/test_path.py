"""Path projection against a dense brute-force search oracle."""

from __future__ import annotations

import numpy as np
import pytest

from crosswalk_sim.control import build_avoidance_path
from crosswalk_sim.files import load_trace_csv
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


def numpy_heading_at(path: Path, s: float) -> float:
    """heading_at as first written: the segment by np.searchsorted, clipped
    to the segment range, and np.arctan2 over np.diff of the samples."""
    dn, de = np.diff(path.north), np.diff(path.east)
    i = int(np.clip(np.searchsorted(path.s, s, side="right") - 1, 0, len(dn) - 1))
    return float(np.arctan2(de[i], dn[i]))


def test_heading_at_matches_numpy_lookup_bitwise():
    # At every sample, between samples, past both ends and at the special
    # values: NaN and +inf land on the last segment, -inf and -0.0 on the
    # first.
    rng = np.random.default_rng(13)
    north = np.cumsum(rng.uniform(0.05, 1.0, 60))
    east = np.where(np.arange(60) % 4 == 0, -0.0, np.cumsum(rng.normal(0.0, 0.5, 60)))
    for path in (curved_path(), hairpin(), Path(north, east)):
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, path.length, np.nextafter(path.length, 0.0)]
        queries = np.concatenate([path.s, rng.uniform(-1.0, path.length + 1.0, 300), special])
        for s in queries.tolist():
            got = np.float64(path.heading_at(s)).tobytes()
            assert got == np.float64(numpy_heading_at(path, s)).tobytes(), s


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


# --- windowed search against the full scan ----------------------------------


def full_scan(path: Path, north: float, east: float) -> PathProjection:
    """The projection as first written: every segment at once in numpy,
    the first of the closest ones winning."""
    qn = north - path.north[:-1]
    qe = east - path.east[:-1]
    dn, de = np.diff(path.north), np.diff(path.east)
    seg_len = np.hypot(dn, de)
    t_raw = (qn * dn + qe * de) / (seg_len**2)
    t = np.clip(t_raw, 0.0, 1.0)
    cn = qn - t * dn
    ce = qe - t * de
    d2 = cn * cn + ce * ce
    k = int(np.argmin(d2))
    s = float(path.s[k] + t[k] * seg_len[k])
    tn = dn[k] / seg_len[k]
    te = de[k] / seg_len[k]
    e = float(cn[k] * te - ce[k] * tn)
    clamped = (k == 0 and t_raw[0] < 0.0) or (k == len(t) - 1 and t_raw[-1] > 1.0)
    return PathProjection(s=s, e=e, clamped=bool(clamped))


def bits(proj: PathProjection):
    return np.float64(proj.s).tobytes(), np.float64(proj.e).tobytes(), proj.clamped


def count_full_scans(monkeypatch) -> list:
    """Count the calls of Path._nearest that span every segment, the
    fallback of project."""
    calls = []
    nearest = Path._nearest

    def counted(self, north, east, a, b):
        if (a, b) == (0, len(self._segments)):
            calls.append((north, east))
        return nearest(self, north, east, a, b)

    monkeypatch.setattr(Path, "_nearest", counted)
    return calls


def hairpin() -> Path:
    """North along east = 0, a half turn of radius 1, and back south along
    east = 2: every point between the legs is about as close to both."""
    up = np.arange(0.0, 20.0, 0.25)
    turn = np.linspace(np.pi, 0.0, 13)[1:-1]
    north = np.concatenate([up, 20.0 + np.sin(turn), up[::-1]])
    east = np.concatenate([np.zeros_like(up), 1.0 + np.cos(turn), np.full_like(up, 2.0)])
    return Path(north, east)


def test_project_equals_full_scan_on_shipped_runs(repo_root, scenario_configs, monkeypatch):
    # Every control-step position of the six committed runs, projected in
    # the order the run projected them; the window must settle almost
    # every step without the full scan.
    scans = count_full_scans(monkeypatch)
    steps = 0
    for name, cfg in scenario_configs.items():
        path = build_avoidance_path(cfg.scene)
        trace = load_trace_csv(repo_root / "results" / name / "trace.csv")
        for north, east in zip(trace.column("north").tolist(), trace.column("east").tolist()):
            assert bits(path.project(north, east)) == bits(full_scan(path, north, east))
            steps += 1
    assert steps == 8434
    assert len(scans) <= 6 * 2


def test_project_hairpin_other_leg():
    # After projecting onto the northbound leg, a point 0.4 m from the
    # southbound leg (and 1.6 m from this one) lies outside any window
    # around the last projection, whose closest segment is 1.6 m away.
    path = hairpin()
    near = path.project(10.1, 0.3)
    assert bits(near) == bits(full_scan(path, 10.1, 0.3))
    other = path.project(10.1, 1.6)
    assert bits(other) == bits(full_scan(path, 10.1, 1.6))
    assert near.s < 20.0 < other.s


def test_project_tie_goes_to_the_lower_segment(monkeypatch):
    # (10.125, 1.0) is exactly 1 m from the middle of a segment of each
    # leg; the full scan takes the first, northbound one, whichever leg
    # the last projection was on.
    path = hairpin()
    for north, east in ((10.125, 0.2), (10.125, 1.8)):
        path.project(north, east)
        proj = path.project(10.125, 1.0)
        assert bits(proj) == bits(full_scan(path, 10.125, 1.0))
        assert proj.s == 10.125 and proj.e == -1.0


def test_project_path_coming_back_near_itself():
    # A loop whose end passes 0.1 m from its start.
    turn = np.linspace(0.0, 1.97 * np.pi, 300)
    path = Path(10.0 * np.sin(turn), 10.0 - 10.0 * np.cos(turn))
    for north, east in [(0.0, 0.0), (-0.5, -0.05), (-1.9, -0.2), (0.5, 0.1), (-1.0, -0.1)]:
        assert bits(path.project(north, east)) == bits(full_scan(path, north, east))


def test_project_past_both_ends():
    path = curved_path()
    end_n, end_e = path.point_at(path.length)
    queries = [(-3.0, 0.5), (-0.5, -2.0), (end_n + 2.0, end_e), (end_n + 0.5, end_e + 3.0)]
    for north, east in queries + queries[::-1]:
        proj = path.project(north, east)
        assert proj.clamped
        assert bits(proj) == bits(full_scan(path, north, east))


def test_project_keeps_the_sign_of_zero():
    # On the first vertex of a north-west segment, from north = -0.0, the
    # segment parameter is -0.0; np.clip keeps that sign, and through it
    # the full scan returns e = -0.0.
    north = np.arange(0.0, 10.0)
    path = Path(north, -north)
    proj = path.project(-0.0, 0.0)
    assert bits(proj) == bits(full_scan(path, -0.0, 0.0))
    assert np.signbit(proj.e)


def test_project_does_not_depend_on_call_history():
    rng = np.random.default_rng(17)
    for path in (curved_path(), hairpin()):
        start, end = path.point_at(0.0), path.point_at(path.length)
        queries = [start, end] + [
            tuple(np.array(path.point_at(s)) + rng.uniform(-1.5, 1.5, 2)) for s in rng.uniform(0.0, path.length, 40)
        ]
        expected = [bits(full_scan(path, *q)) for q in queries]
        for before in queries[:8]:
            for q, want in zip(queries, expected):
                path.project(*before)
                assert bits(path.project(*q)) == want


def test_project_random_polylines_equal_full_scan():
    # Random walks with sharp turns, queried along themselves and off them.
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 80))
        heading = np.cumsum(rng.uniform(-2.5, 2.5, n))
        step = rng.uniform(0.05, 1.0, n)
        path = Path(np.cumsum(step * np.cos(heading)), np.cumsum(step * np.sin(heading)))
        for s in np.sort(rng.uniform(-1.0, path.length + 1.0, 60)):
            north, east = np.array(path.point_at(s)) + rng.normal(0.0, 0.5, 2)
            assert bits(path.project(north, east)) == bits(full_scan(path, north, east))


def test_project_warm_window_cache_equals_fresh_path():
    # _beyond keeps each window's runs on the Path. One Path driven along
    # a random polyline and back again, reusing them, must give the bits
    # of a fresh Path, with nothing cached, for every query.
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 120))
        heading = np.cumsum(rng.uniform(-1.0, 1.0, n))
        step = rng.uniform(0.05, 1.0, n)
        path = Path(np.cumsum(step * np.cos(heading)), np.cumsum(step * np.sin(heading)))
        svals = np.sort(rng.uniform(-1.0, path.length + 1.0, 150))
        queries = [np.array(path.point_at(s)) + rng.normal(0.0, 0.3, 2) for s in svals]
        for north, east in queries + queries[::-1]:
            fresh = Path(path.north, path.east)
            assert bits(path.project(north, east)) == bits(fresh.project(north, east))
        assert len(path._runs) < len(queries)
