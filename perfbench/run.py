#!/usr/bin/env python3
"""Campaign benchmark: builds the library and campaign_bench from source,
runs one workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload paired_detailed --seed 1 \
        --seconds 35 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. --trace 0 runs timed repetitions of the
workload's campaign, each in a fresh process, after discarded warm-up
repetitions, and reports the median of every end-to-end metric. --trace 1
runs the separate traced run and reports per-layer metrics. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

WORKLOADS = ("paired_detailed", "sampled_long", "isolated_short")
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009

# Rank-table digest (one per screen leg) and measured-cycle total of each
# workload at DEFAULT_SEED. A change that moves either changed what the
# simulator computes, not only how fast.
PINNED = {
    "paired_detailed": ("1db891c7ba9de076+623f788cd3db0192", 146075191),
    "sampled_long": ("6d1d05c9e520965f", 476197740),
    "isolated_short": ("b2dc6612e9e3c9cf", 64992032),
}

# End-to-end metrics: name -> unit. Medians over the timed repetitions.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "cells/s",
    "host_minst_per_s": "Minst/s",
    "cell_ms_p50": "ms",
    "cell_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

# The first run after the machine idles runs every cell several times
# slower for about a second of all-core load; later fresh processes do
# not (README.md, "First-run outlier"). Discarded repetitions absorb it.
WARMUP_SECONDS = 2.0
MIN_REPETITIONS = 3


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(targets):
    """Configure and build the benchmark; exit 3 when that fails."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            sys.exit(3)


def campaign_bench(*args):
    """Run one campaign_bench process and return its JSON line."""
    cmd = [str(BUILD / "campaign_bench"), *map(str, args)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        log("perfbench: campaign_bench exited with %d" % done.returncode)
        sys.exit(4)
    return json.loads(done.stdout.strip().splitlines()[-1])


def rep_metrics(rep):
    """End-to-end metrics of one timed repetition."""
    busy = rep["wall_s"] - rep["setup_s"]
    return {
        "setup_s": rep["setup_s"],
        "wall_s": rep["wall_s"],
        "cells_per_s": rep["cells"] / busy,
        "host_minst_per_s": rep["streamed_instructions"] / rep["wall_s"] / 1e6,
        "cell_ms_p50": rep["cell_ms_p50"],
        "cell_ms_p99": rep["cell_ms_p99"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def identity_problems(workload, seed, results):
    """Digest/cycle agreement across repetitions, and the pins."""
    problems = []
    identities = {(r["digest"], r["measured_cycles_total"]) for r in results}
    if len(identities) != 1:
        problems.append("repetitions disagree on digest/cycles: %s"
                        % sorted(identities))
    if seed == DEFAULT_SEED:
        for ident in identities:
            if ident != PINNED[workload]:
                problems.append("digest/cycles %s differ from pinned %s"
                                % (ident, PINNED[workload]))
    for r in results:
        failed = [name for name, ok in r["checks"].items() if not ok]
        if failed:
            problems.append("failed checks: " + ", ".join(failed))
    return problems


def run_timed(workload, seed, seconds):
    workdir = BUILD / "runs" / workload
    start = time.monotonic()
    warmups = []
    while not warmups or time.monotonic() - start < WARMUP_SECONDS:
        warmups.append(
            campaign_bench("timed", workload, seed, workdir, "verify"))

    reps = []
    measure_start = time.monotonic()
    last = 0.0
    while (len(reps) < MIN_REPETITIONS
           or time.monotonic() - measure_start + last <= seconds):
        t = time.monotonic()
        reps.append(campaign_bench("timed", workload, seed, workdir))
        last = time.monotonic() - t

    per_rep = [rep_metrics(r) for r in reps]
    metrics = {name: statistics.median(m[name] for m in per_rep)
               for name in END_TO_END}
    problems = identity_problems(workload, seed, warmups + reps)

    first = reps[0]
    print("workload %s, seed %d: %d timed repetitions after %d discarded "
          "warm-up, %d cells each" % (workload, seed, len(reps),
                                      len(warmups), first["cells"]))
    for name, unit in END_TO_END.items():
        values = [m[name] for m in per_rep]
        note = "median of %d, range %.6g..%.6g" % (
            len(values), min(values), max(values))
        if name.startswith("cell_ms_"):
            beyond = first["p50_beyond" if name.endswith("p50")
                           else "p99_beyond"]
            note += "; nearest rank over %d cells, %d beyond" % (
                first["percentile_samples"], beyond)
        print("  %-18s %14.6g %-8s %s" % (name, metrics[name], unit, note))
    print("  %-18s %14.6g %-8s Spearman of the base screen's sums of ranks "
          "vs published Table 9" % ("table9_spearman",
                                    first["table9_spearman"], "rho"))
    if "sample_rel_ci" in first:
        print("  %-18s %14.6g %-8s campaign mean relative CPI CI half-width"
              % ("sample_rel_ci", first["sample_rel_ci"], "ratio"))
    attempted = sum(r["cells"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return problems, attempted, failed, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in END_TO_END.items()}


def run_traced(workload, seed, seconds):
    workdir = BUILD / "runs" / (workload + "_traced")
    out = campaign_bench("traced", workload, seed, workdir, seconds)
    problems = identity_problems(workload, seed, [out])
    print("workload %s, seed %d: traced run, %d probe cells x %d passes"
          % (workload, seed, out["probe_cells"], out["passes"]))
    for name, m in out["metrics"].items():
        print("  %-30s %14.6g %s" % (name, m["value"], m["unit"]))
    return problems, out["cells"], out["failed"], out["metrics"]


def selftest():
    build(["perfbench_selftest"])
    code = subprocess.run([str(BUILD / "perfbench_selftest")]).returncode
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if declared != END_TO_END:
            log("perfbench: BENCHMARK.json end_to_end differs from run.py")
            code = code or 1
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            log("perfbench: BENCHMARK.json workloads differ from run.py")
            code = code or 1
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %d, pinned; %d is held "
                        "out for confirming claims)" % (DEFAULT_SEED,
                                                       HELD_OUT_SEED))
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build(["campaign_bench"])
    runner = run_traced if args.trace else run_timed
    problems, attempted, failed, metrics = runner(
        args.workload, args.seed, args.seconds)
    for problem in problems:
        print("  CHECK FAILED: " + problem)
    correct = not problems and failed == 0
    print("  correctness: %s" % ("PASS" if correct else "FAIL"))
    if not correct:
        failed = attempted  # a failed check voids every cell of the run
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
