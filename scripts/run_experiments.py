#!/usr/bin/env python3
"""Run the full policy-comparison matrix and summarize the outcomes.

Executes every scenario under configs/scenarios/ (oracle, baseline, and
pomdp policies, each against the hidden and the exposed pedestrian), writes
trace CSVs plus plot-ready data under results/, and prints a one-line
summary per run: termination reason, minimum/maximum speed, whether and
when the vehicle crossed the crosswalk line, and where it came to rest.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from crosswalk_sim.files import load_trace_csv
from crosswalk_sim.harness import run_batch


def summarize(trace_path: Path) -> str:
    trace = load_trace_csv(trace_path)
    cols = trace.columns
    time, s, ux = cols["time"], cols["s"], cols["ux"]
    crosswalk_s = float(trace.metadata["crosswalk_s"])
    parts = [
        f"{trace.metadata['name']:<17}",
        f"end={trace.termination:<8}",
        f"max_ux={ux.max():5.2f}",
    ]
    crossed = s >= crosswalk_s
    if crossed.any():
        i = int(np.argmax(crossed))
        parts.append(f"crossed line at t={time[i]:5.2f} s, ux={ux[i]:.2f} m/s")
    else:
        at_rest = np.abs(ux[-1]) < 0.05
        state = "at rest" if at_rest else f"moving {ux[-1]:.2f} m/s"
        parts.append(f"never crossed; final s={s[-1]:6.2f} m ({state})")
    return "  ".join(parts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--configs", default=REPO / "configs" / "scenarios", type=Path,
        help="directory of scenario YAMLs (default: configs/scenarios)",
    )
    parser.add_argument(
        "--out", default=REPO / "results", type=Path,
        help="output directory (default: results/)",
    )
    args = parser.parse_args()

    written = run_batch(args.configs, args.out)
    print(f"\n{len(written)} runs written under {args.out}\n")
    for dest in written:
        print(summarize(Path(dest)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
