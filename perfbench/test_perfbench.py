"""Self-tests of the benchmark's checks, generator and tracing.

    python3 -m pytest -q perfbench

They sit outside the repository's test paths, so the tier-1 suite does not
collect them.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from crosswalk_sim import harness, pomdp, qmdp, world  # noqa: E402


def _export(trace, cfg, dest):
    dest.mkdir()
    harness.export_trace(trace, "csv", dest / "trace.csv")
    harness.export_plot_data(trace, dest, scene=cfg.scene)
    return dest


def test_one_ulp_perturbed_trace_fails_golden(tmp_path):
    cfg = harness.load_scenario(ROOT / "configs" / "scenarios" / "baseline_hidden.yaml")
    golden = checks.read_golden(ROOT / "results" / "baseline_hidden")
    trace = harness.run_scenario(cfg)
    assert checks.compare_golden(_export(trace, cfg, tmp_path / "same"), golden) is None

    # steer is written to trace.csv only, not to any plot panel.
    steer = trace.columns["steer"].copy()
    steer[500] = np.nextafter(steer[500], np.inf)
    bumped = dataclasses.replace(trace, columns={**trace.columns, "steer": steer})
    reason = checks.compare_golden(_export(bumped, cfg, tmp_path / "bumped"), golden)
    assert reason is not None and "trace.csv" in reason


def test_scene_generator_is_deterministic_per_seed():
    first = workloads.generate_scenes(7, 32)
    assert first == workloads.generate_scenes(7, 32)
    assert first != workloads.generate_scenes(8, 32)
    counts = {len(scene.obstacles) for scene, _ in first}
    assert counts == {1, 2, 3}


def test_counting_proxy_leaves_q_table_unchanged():
    model = pomdp.build_crosswalk_model(pomdp.ModelConfig())
    q = qmdp.value_iteration(model)
    counting = tracer.CountingTransitions(model.transitions)
    q_counted = qmdp.value_iteration(dataclasses.replace(model, transitions=counting))
    assert np.array_equal(q, q_counted)
    sweeps = counting.sweeps()
    assert counting.products == sweeps * model.num_actions
    # The count is the least max_iters that converges.
    qmdp.value_iteration(model, max_iters=sweeps)
    with pytest.raises(qmdp.ValueIterationError):
        qmdp.value_iteration(model, max_iters=sweeps - 1)


def test_solve_check_rejects_a_perturbed_q_table():
    model = pomdp.build_crosswalk_model(pomdp.ModelConfig())
    q = qmdp.value_iteration(model)
    policy = qmdp.extract_alphas(q, pomdp.ACTION_SCALES)
    assert checks.check_solve(model, q, policy, 1e-6) is None
    bad = q.copy()
    bad[100, 3] += 1e-4
    bad_policy = qmdp.extract_alphas(bad, pomdp.ACTION_SCALES)
    assert "Bellman residual" in checks.check_solve(model, bad, bad_policy, 1e-6)


def test_reference_grid_agrees_and_catches_a_flipped_cell():
    for scene, pose in workloads.generate_scenes(3, 12):
        grid = world.build_grid(scene, pose)
        count = world.count_unobservable(grid)
        visible = world.pedestrian_visible(scene, pose)
        assert checks.check_grid(scene, pose, grid, count, visible, reference=True) is None
    flipped = grid.copy()
    flipped[100, 10] = world.UNOBSERVABLE if flipped[100, 10] == world.FREE else world.FREE
    count = world.count_unobservable(flipped)
    assert "differ" in checks.check_grid(scene, pose, flipped, count, visible, reference=True)


def test_self_time_excludes_child_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: float(next(ticks)))
    t = tracer.Tracer()
    inner = t.wrap("world.build_grid", lambda: None)
    outer = t.wrap("harness.run_scenario", lambda: inner())
    outer()  # outer 0..3, inner 1..2
    assert t.calls["harness.run_scenario"] == 1 and t.calls["world.build_grid"] == 1
    assert t.self_s["world.build_grid"] == 1.0
    assert t.self_s["harness.run_scenario"] == 2.0


def test_tracing_restores_every_binding():
    before = [getattr(obj, attr) for _, obj, attr in tracer.LAYERS]
    with tracer.tracing(tracer.Tracer()):
        assert world.build_grid is not before[tracer.LAYER_NAMES.index("world.build_grid")]
    assert [getattr(obj, attr) for _, obj, attr in tracer.LAYERS] == before


def test_host_speed_scales_by_the_bracketing_loop_times():
    speed = hostspeed.HostSpeed()
    speed.loop_s[:] = [0.002, 0.004, 0.001]
    assert speed.factor(0) == hostspeed.REFERENCE_S / 0.003
    assert speed.factor(1) == hostspeed.REFERENCE_S / 0.0025
