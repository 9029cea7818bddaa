"""Benchmark of crosswalk-sim, timed from outside the package.

    python3 perfbench/run.py --workload scenario_matrix --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the package is imported from
src/, the scenarios from configs/ and the reference outputs from
results/. Load comes from this one process, closed loop: each operation
starts when the previous one has finished and its output has been
checked. Checks are not timed. The measured window runs whole passes
(one operation per input of the workload) until --seconds have elapsed.

The host's speed drifts while it runs, so end-to-end timings are
reported in seconds at a reference host speed (see hostspeed.py); the
table also prints them as wall-clock seconds.

With --trace 0 the end-to-end metrics are reported; with --trace 1 a
separate run times every operation untraced and then traced, and reports
per-layer calls, self time, exact counters and the tracing overhead. A human-readable table and an
environment line go first; the last line of standard output is the
result as JSON.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REQUIRED = (
    SRC / "crosswalk_sim" / "__init__.py",
    ROOT / "configs" / "pomdp.yaml",
    ROOT / "configs" / "scenarios",
    ROOT / "results",
)
WORKLOAD_NAMES = ("scenario_matrix", "policy_solve", "cluttered_grids")
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Times the import, then the reference loop in the same interpreter, which
# may run on another core than this process.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import crosswalk_sim; "
    "t = time.perf_counter() - t; import hostspeed; "
    "h = hostspeed.HostSpeed(); h.sample(); print(t, t * h.factor(0))"
)


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the cores this process may use. Must run
    before numpy is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)
    return min(int(os.environ[var]) for var in THREAD_VARS)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def import_seconds() -> tuple[float, float]:
    """Time `import crosswalk_sim` in a fresh interpreter, so work moved to
    import time shows in set-up. Returns (wall, reference) seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))
    out = subprocess.run(
        [sys.executable, "-B", "-c", IMPORT_PROBE],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT, check=True,
    )
    wall, ref = out.stdout.split()
    return float(wall), float(ref)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def tail_percentile(values):
    """Highest of p50/p90/p99/p999 with at least ten samples beyond it."""
    best = 0.5
    for q in (0.9, 0.99, 0.999):
        if len(values) * (1.0 - q) >= 10:
            best = q
    return best, percentile(values, best)


class Runner:
    def __init__(self, workload, tracer_mod, speed):
        self.w = workload
        self.tracer_mod = tracer_mod
        self.speed = speed
        self.attempted = 0
        self.failed = 0

    def fail(self, reason):
        self.failed += 1
        print(f"FAILED: {reason}", file=sys.stderr)

    def setups(self, traced):
        """Set up SETUP_REPEATS times; each sample is a fresh-interpreter
        import plus one in-process set-up. Returns ([(wall seconds,
        reference seconds of the import, in-process seconds, mark)],
        tracers)."""
        samples, tracers = [], []
        for _ in range(SETUP_REPEATS):
            import_wall, import_ref = import_seconds()
            self.speed.sample()
            mark = self.speed.mark()
            tracer = self.tracer_mod.Tracer() if traced else None
            start = time.perf_counter()
            if traced:
                with self.tracer_mod.tracing(tracer):
                    self.w.setup(tracer)
                tracers.append((tracer, dict(self.w.setup_counters)))
            else:
                self.w.setup()
            in_process = time.perf_counter() - start
            samples.append((import_wall + in_process, import_ref, in_process, mark))
        self.speed.sample()
        return samples, tracers

    def op(self, key, pass_index, tracer=None):
        """One timed operation and its untimed check. Returns (output,
        seconds, host-speed mark), output None on failure."""
        self.attempted += 1
        mark = self.speed.mark()
        start = time.perf_counter()
        try:
            if tracer is None:
                output = self.w.run(key)
            else:
                with self.tracer_mod.tracing(tracer):
                    output = self.w.run(key, tracer)
        except Exception:  # a failing operation is counted; the run goes on
            self.fail(f"{key}: raised\n{traceback.format_exc()}")
            output = None
        seconds = time.perf_counter() - start
        if output is not None:
            reason = self.w.check(key, output, pass_index)
            if reason is not None:
                self.fail(f"{key}: {reason}")
        self.speed.refresh()
        return output, seconds, mark

    def one_pass(self, pass_index, tracer=None):
        return [(key, *self.op(key, pass_index, tracer)) for key in self.w.keys]


def add_stats(total, workload, key, output):
    if output is None:
        return
    for name, value in workload.stats(key, output).items():
        total[name] = total.get(name, 0) + value


def measure(runner, seconds):
    """--trace 0: end-to-end metrics, in seconds at the reference host
    speed (hostspeed.py). Latency is the mean over the workload's inputs of
    each input's median, so a burst of load moves it less than a mean
    would."""
    w = runner.w
    speed = runner.speed
    setup_samples, _ = runner.setups(traced=False)
    runner.op(w.keys[0], -1)  # warm-up, untimed
    done = {key: [] for key in w.keys}
    deadline = time.perf_counter() + seconds
    pass_index = 0
    while True:
        for key, output, op_s, mark in runner.one_pass(pass_index):
            if output is not None:
                done[key].append((op_s, mark, w.stats(key, output)))
        pass_index += 1
        if time.perf_counter() >= deadline:
            break
    speed.sample()  # closes the last bracket
    if any(not ops for ops in done.values()):
        raise RuntimeError("an input never completed an operation")

    def p50(values):
        return statistics.fmean(statistics.median(v) for v in values)

    ref = {key: [s * speed.factor(m) for s, m, _ in ops] for key, ops in done.items()}
    raw = {key: [s for s, _, _ in ops] for key, ops in done.items()}
    n = sum(len(ops) for ops in done.values())
    op_p50 = p50(ref.values())
    metrics = {
        "setup_s": (
            statistics.median(ref + s * speed.factor(m) for _, ref, s, m in setup_samples),
            "s",
            len(setup_samples),
        ),
        "op_s.p50": (op_p50, "s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    # Printed, not in the JSON: wall-clock figures, the host's speed, and
    # the workload's own names for the figures above.
    extra = {
        "setup_s.wall": (statistics.median(s[0] for s in setup_samples), "s", len(setup_samples)),
        "op_s.p50.wall": (p50(raw.values()), "s", n),
        "host.reference_loop_ms": (1000 * statistics.median(speed.loop_s), "ms", len(speed.loop_s)),
    }
    q, tail = tail_percentile([t for v in ref.values() for t in v])
    if q > 0.5:
        extra[f"op_s.p{q * 100:g}"] = (tail, "s", n)
    if w.name == "scenario_matrix":
        sim_s = sum(ops[0][2]["sim_s"] for ops in done.values())
        run_s = sum(
            statistics.median(st["run_s"] * speed.factor(m) for _, m, st in ops) for ops in done.values()
        )
        extra["sim_rate"] = (sim_s / run_s, "sim_s/s", n)
        extra["run_s.p50"] = (op_p50, "s", n)
        for key, v in ref.items():
            extra[f"run_s.p50.{key}"] = (statistics.median(v), "s", len(v))
    if w.name == "policy_solve":
        extra["solve_s.p50"] = (op_p50, "s", n)
        for key, v in ref.items():
            extra[f"solve_s.p50.{key}"] = (statistics.median(v), "s", len(v))
    if w.name == "cluttered_grids":
        extra["grids_per_s"] = (1.0 / op_p50, "1/s", n)
    extra["error_rate"] = (runner.failed / runner.attempted, "1", runner.attempted)
    return metrics, extra


def measure_traced(runner, seconds, grid_cells):
    """--trace 1: per-layer metrics. Every operation runs untraced and then
    traced. Calls and self time are per set-up plus one traced pass; self
    time is in seconds at the reference host speed, each pass scaled by the
    median factor of its operations."""
    w = runner.w
    speed = runner.speed
    names = runner.tracer_mod.LAYER_NAMES
    setup_samples, setup_tracers = runner.setups(traced=True)
    runner.op(w.keys[0], -1)  # warm-up, untimed
    pairs, passes = [], []
    deadline = time.perf_counter() + seconds
    pass_index = 0
    while True:
        # Each traced operation runs right after its untraced twin, so host
        # drift mostly cancels within a pair.
        tracer = runner.tracer_mod.Tracer()
        results = []
        for key in w.keys:
            plain = (key, *runner.op(key, pass_index))
            results.append((key, *runner.op(key, pass_index, tracer)))
            pairs.append((plain, results[-1]))
        passes.append((tracer, results))
        pass_index += 1
        if time.perf_counter() >= deadline:
            break
    speed.sample()  # closes the last bracket

    def core_seconds(result):
        # run_scenario alone for the scenarios (the sim_rate time base),
        # the whole operation otherwise.
        key, out, s, mark = result
        return w.stats(key, out).get("run_s", s) * speed.factor(mark)

    summaries = []
    for tracer, results in passes:
        totals = {}
        for key, output, _, _ in results:
            add_stats(totals, w, key, output)
        totals.pop("run_s", None)  # a timing, not a counter
        factor = statistics.median(speed.factor(m) for _, _, _, m in results)
        summaries.append((tracer, totals, factor))
    setups = [(t, c, speed.factor(s[-1])) for (t, c), s in zip(setup_tracers, setup_samples)]

    def exact(samples, label):
        if any(s != samples[0] for s in samples[1:]):
            runner.fail(f"{label} differ between repeats: {samples}")
        return samples[0]

    setup_calls = exact([t.calls for t, _, _ in setups], "set-up call counts")
    setup_counters = exact([c for _, c, _ in setups], "set-up counters")
    pass_calls = exact([t.calls for t, _, _ in summaries], "pass call counts")
    counters = {**exact([c for _, c, _ in summaries], "pass counters"), **setup_counters}
    steps = counters.get("control_steps", 0)
    if w.name == "scenario_matrix" and pass_calls["world.build_grid"] != steps:
        runner.fail(f"build_grid calls {pass_calls['world.build_grid']} != control steps {steps}")

    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = (setup_calls[name] + pass_calls[name], "count")
        self_s = statistics.median(t.self_s[name] * f for t, _, f in setups)
        self_s += statistics.median(t.self_s[name] * f for t, _, f in summaries)
        metrics[f"{name}.self_s"] = (self_s, "s")
    obstacle_grids = counters.get("obstacle_grids", 0)
    metrics["world.build_grid.shadow_ratio"] = (
        counters["unobservable_cells"] / (grid_cells * obstacle_grids) if obstacle_grids else 0.0,
        "ratio",
    )
    metrics["harness.control_steps"] = (steps, "count")
    metrics["harness.belief_resets"] = (counters.get("belief_resets", 0), "count")
    for label in ("shipped", "default"):
        metrics[f"qmdp.value_iteration.sweeps.{label}"] = (counters.get(f"sweeps.{label}", 0), "count")
    metrics["trace.rate_ratio"] = (
        statistics.median(
            core_seconds(plain) / core_seconds(traced)
            for plain, traced in pairs
            if plain[1] is not None and traced[1] is not None
        ),
        "ratio",
    )
    return {k: (v, u, len(passes)) for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"perfbench: not a crosswalk-sim checkout, missing {missing}", file=sys.stderr)
        return 2

    # Turn a termination request into an exit, so the temporary output
    # directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    threads = cap_threads()
    # Keep the checkout clean: no __pycache__ in src/ or in this directory.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import tracer as tracer_mod
    import workloads
    from hostspeed import HostSpeed
    from crosswalk_sim.world import GRID_LENGTH, GRID_WIDTH

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print("env " + json.dumps(env, sort_keys=True))

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH_DIR) as tmp:
        workload = workloads.WORKLOADS[args.workload](ROOT, Path(tmp), args.seed)
        runner = Runner(workload, tracer_mod, HostSpeed())
        if args.trace:
            metrics = measure_traced(runner, args.seconds, GRID_LENGTH * GRID_WIDTH)
            extra = {}
        else:
            metrics, extra = measure(runner, args.seconds)

    print(f"{'metric':<44} {'value':>14} {'unit':<8} {'n':>6}")
    for name, (value, unit, n) in {**metrics, **extra}.items():
        print(f"{name:<44} {value:>14.6g} {unit:<8} {n:>6}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
