#!/usr/bin/env python3
"""Run-to-run spread of the campaign benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload paired_detailed --seeds 1-10

Runs perfbench/run.py once per seed (timed, --trace 0) and prints, for
every end-to-end metric, its median over the runs and the distance
between the first and third quartile as a share of that median, next to
the metric's bound from BENCHMARK.json. A benchmark is steady when every
spread except setup_s's stays below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", help="append each run's JSON line here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    **result}) + "\n")
        if not result["correct"]:
            print("seed %d: correctness FAILED" % seed)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)

    print("%-18s %12s %9s %7s %s" % ("metric", "median", "spread", "bound",
                                     "verdict"))
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
        print("%-18s %12.6g %9.4f %7.3f %s" % (name, median, spread,
                                               bounds[name], verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
