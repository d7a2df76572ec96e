"""Repeat run.py over several seeds and summarize the spread of its metrics.

Usage (from the root of a tractdim checkout):

    python3 perfbench/baseline.py [--workloads A,B] [--runs 10]
        [--first-seed 1] [--seconds 30] [--traced-runs 1]
        [--write perfbench/baseline.json]

For every workload it makes --runs untraced runs with consecutive seeds
from --first-seed and reports, per end-to-end metric and per operation
time, the median, the quartiles (statistics.quantiles, n=4) and the spread:
the distance between the quartiles as a share of the median.  It then
makes --traced-runs traced runs and reports the per-layer metrics and the
tracing overhead (traced wall_s minus the median untraced wall_s).  With
--write the summary is saved as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ops as catalogue  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s exited %d:\n%s" % (" ".join(cmd),
                                                proc.returncode, proc.stdout))
    report = os.path.join(".bench_out", workload,
                          "seed%d-trace%d" % (seed, trace), "report.json")
    with open(report) as fh:
        return json.load(fh)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def summarize(workload, seeds, seconds, traced_runs):
    untraced = [run_once(workload, seed, seconds, 0) for seed in seeds]
    metrics = {key: spread([r["metrics"][key] for r in untraced])
               for key in untraced[0]["metrics"]}
    ops = {}
    for name in untraced[0]["order"]:
        times = [statistics.median(p["ops"][name] for p in r["passes"])
                 for r in untraced]
        ops[name] = spread(times)
    out = {"end_to_end": metrics, "ops": ops,
           "passes_per_run": [len(r["passes"]) for r in untraced],
           "known_defects": untraced[0]["known_defects"],
           "machine": untraced[0]["machine"]}
    if traced_runs:
        traced = [run_once(workload, seed, seconds, 1)
                  for seed in seeds[:traced_runs]]
        layers = {key: statistics.median(r["metrics"][key] for r in traced)
                  for key in traced[0]["metrics"]}
        out["per_layer"] = layers
        out["trace_overhead_s"] = (layers["trace.wall_s"]
                                   - metrics["wall_s"]["median"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(catalogue.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--traced-runs", type=int, default=1)
    ap.add_argument("--write")
    args = ap.parse_args()
    summary = {}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        summary[workload] = s = summarize(workload, seeds, args.seconds,
                                          args.traced_runs)
        for group in ("end_to_end", "ops"):
            for key, v in s[group].items():
                print("%-16s %-24s median %10.4f  q1 %10.4f  q3 %10.4f  "
                      "spread %.3f" % (workload, key, v["median"], v["q1"],
                                       v["q3"], v["spread"]), flush=True)
        if args.traced_runs:
            print("%-16s tracing overhead %.3f s" % (
                workload, s["trace_overhead_s"]), flush=True)
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
