"""Command line front end: solve, run, batch and grid-dump subcommands."""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time

from . import world
from .control import InfeasiblePathError
from .files import ConfigError, export_run, load_model_config, load_scenario, load_scene
from .harness import run_batch, run_scenario, solve_policy, summarize
from .pomdp import derive_model_config
from .world import build_grid, grid_to_text

log = logging.getLogger("crosswalk_sim")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as err:
        # a config or scene file the run cannot use: one line and
        # exit code 2, as argparse reports a usage error; with --verbose the
        # traceback. Any other error is an internal fault and propagates
        if args.verbose:
            raise
        sys.stderr.write(f"{parser.prog}: error: {err}\n")
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosswalk-sim",
        description="Closed-loop occluded-crosswalk speed-scaling simulation",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging, and a traceback on errors")
    sub = parser.add_subparsers(required=True)

    p_solve = sub.add_parser("solve", help="solve the crosswalk model for a scene and log it; writes nothing")
    p_solve.add_argument("--model", help="model config YAML (defaults built in)")
    p_solve.add_argument("--scene", required=True, help="scene YAML; gives the crosswalk bin and occluded band")
    p_solve.set_defaults(func=_cmd_solve)

    p_run = sub.add_parser("run", help="run one scenario config; a pomdp run solves its own policy")
    p_run.add_argument("--scenario", required=True, help="scenario YAML")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run every scenario YAML in a directory")
    p_batch.add_argument("--dir", required=True, help="directory of scenario YAMLs")
    p_batch.add_argument("--out", required=True, help="output directory")
    p_batch.set_defaults(func=_cmd_batch)

    p_grid = sub.add_parser("grid-dump", help="rasterize the occupancy grid for a pose")
    p_grid.add_argument("--scene", required=True, help="scene YAML")
    p_grid.add_argument(
        "--at",
        type=_finite_float,
        default=0.0,
        help="ego position as along-road distance in meters (default 0)",
    )
    p_grid.add_argument("--offset", type=_finite_float, default=0.0, help="lateral offset, +left")
    p_grid.add_argument("--out", default="-", help="output file, '-' for stdout")
    p_grid.set_defaults(func=_cmd_grid_dump)
    return parser


def _finite_float(text: str) -> float:
    """argparse type for a pose coordinate: a finite float. NaN or inf
    would place the ego nowhere, and every comparison with it is False."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _cmd_solve(args) -> int:
    base = load_model_config(args.model) if args.model else None
    scene = load_scene(args.scene)
    try:
        cfg = derive_model_config(scene, base)
    except InfeasiblePathError as err:
        raise ConfigError(f"{args.scene}: {err}") from None
    log.info(
        "scene geometry: crosswalk bin %d, occluded bins %s",
        cfg.crosswalk_bin,
        cfg.occluded_bins,
    )
    started = time.perf_counter()
    model, _ = solve_policy(cfg)
    elapsed = time.perf_counter() - started
    log.info("solved %r", cfg)
    log.info("%d states x %d actions in %.2f s", model.num_states, model.num_actions, elapsed)
    return 0


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    trace = run_scenario(config)
    dest = export_run(trace, config.scene, args.out)
    log.info("%s -> %s", summarize(trace, config.scene.pedestrian.present), dest)
    return 0


def _cmd_batch(args) -> int:
    written = run_batch(args.dir, args.out)
    log.info("wrote %d traces under %s", len(written), args.out)
    return 0


def _cmd_grid_dump(args) -> int:
    scene = load_scene(args.scene)
    north, east = scene.road.to_inertial(args.at, args.offset)
    pose = (float(north), float(east), scene.road.heading)
    grid = build_grid(scene, pose)
    text = grid_to_text(grid)
    count = world.count_unobservable(grid)
    if args.out == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    log.info("unobservable cells: %d (bin %d)", count, world.bin_observation(count))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
