"""Run the benchmark once per seed on each workload and summarise the spread.

    python3 perfbench/repeat.py --seeds 1-10 --seconds 30
    python3 perfbench/repeat.py --workload policy_solve --seeds 1 --seconds 10

Prints each run's table, then for each metric the median, the quartiles
from statistics.quantiles(values, n=4) and the spread (Q3 - Q1) / median.
--out writes the runs and the summaries as JSON. Runs go one after
another, so each has the machine to itself.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("scenario_matrix", "policy_solve", "cluttered_grids")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}
        print(f"  {name:<40} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="one seed or an inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write runs and summaries here as JSON")
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [
                sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                print(out.stdout, out.stderr, file=sys.stderr)
                return out.returncode
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            env = json.loads(lines[0].removeprefix("env "))
            table = {}
            for row in lines[2:-1]:  # name, value, unit, sample count
                name, value, unit, n = row.split()
                table[name] = {"value": float(value), "unit": unit, "n": int(n)}
            runs.append({"seed": seed, "env": env, "table": table, **result})
        print(f"{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed ops: {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        report[workload] = {"runs": runs, "summary": summarise(runs)}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
