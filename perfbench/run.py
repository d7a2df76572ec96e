"""tractdim benchmark: run one workload and print its metrics.

Usage (from the root of a tractdim checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference OP [OP ...]

A run is a closed loop with one client: passes over the workload's
operations, in sequence, each pass in fresh worker processes (one for the
whole pass, or one per command for closed_form_cli).  A run makes as many
passes as fit in --seconds at the workload's nominal pass time, and at
least one, so the amount of work does not depend on the program's speed.
--seed fixes the order of the operations (seed 0 is the listed order) and
the Aberth targets of poly_side; every other input is fixed, because each
result is checked against the reference recorded at the seed commit
(perfbench/reference.json).

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics of a run
with every traced function wrapped (see tracer.py).  The exit code is 1 if
any operation raised or left its reference tolerance, 2 if the checkout
has no tractdim sources.  Outputs, spans and a detailed report go under
.bench_out/ in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ops as catalogue  # noqa: E402
import tracer  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
OUT = ".bench_out"
#: A run must end within 180 s; workers get what is left of this.
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
OP_METRICS = [op.metric for op in catalogue.OPS.values() if op.metric]
PER_LAYER = (list(tracer.LAYER_METRICS) + OP_METRICS
             + ["process.import_s", "process.cpu_s", "trace.wall_s",
                "trace.setup_s", "trace.unwrapped_s"])


def unit(metric):
    return END_TO_END.get(metric) or ("s" if metric.endswith("_s")
                                      else "count")


class WorkerFailed(Exception):
    pass


def spawn_worker(names, seed, trace, out, deadline):
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--ops", ",".join(names), "--seed", str(seed),
           "--trace", str(trace), "--out", out]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker for %s ran past the %g s limit"
                           % (",".join(names), RUN_LIMIT_S))
    if proc.returncode != 0:
        raise WorkerFailed("worker for %s exited %d"
                           % (",".join(names), proc.returncode))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["import_s"] = record["ready"] - start
    return record


def run_pass(workload, order, seed, trace, out, deadline):
    """One pass over the workload's operations; returns per-worker records."""
    if workload.process_per_op:
        groups = [[name] for name in order]
    else:
        groups = [order]
    return [spawn_worker(names, seed, trace, os.path.join(out, "w%d" % i),
                         deadline)
            for i, names in enumerate(groups)]


def summarize_pass(records):
    ops = [r for rec in records for r in rec["ops"]]
    summary = {
        "wall_s": sum(r["seconds"] for r in ops),
        "setup_s": sum(rec["import_s"] + rec["setup_s"]
                       + sum(r["config_s"] for r in rec["ops"])
                       for rec in records),
        "peak_rss_mb": max(rec["maxrss_mb"] for rec in records),
        "process.import_s": sum(rec["import_s"] for rec in records),
        "process.cpu_s": sum(rec["cpu_s"] for rec in records),
        "ops": {r["name"]: r["seconds"] for r in ops},
        "results": {r["name"]: r["result"] for r in ops},
    }
    if "layers" in records[0]:
        for key in tracer.LAYER_METRICS:
            summary[key] = sum(rec["layers"][key] for rec in records)
        for key in ("wall_s", "setup_s", "unwrapped_s"):
            summary["trace." + key] = sum(rec["trace"][key]
                                          for rec in records)
    return summary


def judge(records, reference):
    """(failures, known defects reproduced) of one pass, as message lists."""
    failures, defects = [], []
    for rec in records:
        for r in rec["ops"]:
            op = catalogue.OPS[r["name"]]
            if r["error"]:
                failures.append("%s raised %s" % (op.name, r["error"]))
                continue
            bad = catalogue.check(op, r["result"], reference.get(op.name))
            if bad:
                failures.append("%s: %s outside reference tolerance"
                                % (op.name, ", ".join(bad)))
            elif op.known_defect:
                defects.append("%s: %s (%s)" % (
                    op.name, r["result"]["error"], op.known_defect))
    return failures, defects


def execute(name, seed, seconds, trace, order=None):
    """Run the workload, or only the operations in ``order``; returns
    (passes, operation order, output dir)."""
    workload = catalogue.WORKLOADS[name]
    if order is None:
        order = catalogue.op_order(name, seed)
    run_dir = os.path.join(OUT, name, "seed%d-trace%d" % (seed, trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    count = max(1, round(seconds / workload.pass_s))
    passes = [run_pass(workload, order, seed, trace,
                       os.path.join(run_dir, "pass%d" % k), deadline)
              for k in range(count)]
    return passes, order, run_dir


def median_metrics(summaries, keys):
    out = {}
    for key in keys:
        if key == "peak_rss_mb":
            out[key] = max(s[key] for s in summaries)
        elif key.startswith("op."):
            times = [t for s in summaries for n, t in s["ops"].items()
                     if catalogue.OPS[n].metric == key]
            out[key] = statistics.median(times) if times else 0.0
        else:
            out[key] = statistics.median(s[key] for s in summaries)
    return out


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)["ops"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(catalogue.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", nargs="+", metavar="OP",
                    choices=sorted(catalogue.OPS),
                    help="run the named operations once at seed 0 and "
                         "rewrite only their entries in reference.json")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "tractdim", "__init__.py")):
        print("no tractdim sources under %s; run from the root of a "
              "checkout" % os.path.abspath("src"), file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args.record_reference)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        reference = load_reference()
        passes, order, run_dir = execute(args.workload, args.seed,
                                         args.seconds, args.trace)
    except (OSError, WorkerFailed) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    summaries = [summarize_pass(p) for p in passes]
    failures, defects = [], []
    for records in passes:
        f, d = judge(records, reference)
        failures += f
        defects += d
    attempted = sum(len(s["ops"]) for s in summaries)
    keys = PER_LAYER if args.trace else list(END_TO_END)
    metrics = median_metrics(summaries, keys)

    machine = passes[0][0]["machine"]
    print("machine: " + " ".join("%s=%s" % kv for kv in machine.items()))
    print("workload %s, seed %d, trace %d: %d pass(es); order %s"
          % (args.workload, args.seed, args.trace, len(passes),
             ", ".join(order)))
    for name in order:
        times = [s["ops"][name] for s in summaries]
        print("  op %-22s %9.3f s (median of %d)"
              % (name, statistics.median(times), len(times)))
    for line in failures:
        print("FAILED " + line)
    for line in sorted(set(defects)):
        print("known defect reproduced: " + line)
    print("ops: %d attempted, %d failed, %d known-defect results"
          % (attempted, len(failures), len(defects)))
    if args.trace:
        layers = sum(metrics[m] for m, (kind, _) in
                     tracer.LAYER_METRICS.items() if kind == "self")
        print("trace: layer self %.3f s + unwrapped %.3f s = %.3f s; "
              "traced wall %.3f s + in-process set-up %.3f s = %.3f s"
              % (layers, metrics["trace.unwrapped_s"],
                 layers + metrics["trace.unwrapped_s"],
                 metrics["trace.wall_s"], metrics["trace.setup_s"],
                 metrics["trace.wall_s"] + metrics["trace.setup_s"]))
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine, "order": order,
              "passes": summaries, "metrics": metrics,
              "failures": failures, "known_defects": sorted(set(defects))}
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()}}))
    return 1 if failures else 0


def record_reference(names):
    """Rewrite the reference entries of the named operations from one
    untraced seed-0 run of each; every other entry is kept as recorded."""
    with open(REFERENCE) as fh:
        doc = json.load(fh)
    for workload, spec in catalogue.WORKLOADS.items():
        order = [op.name for op in spec.ops if op.name in names]
        if not order:
            continue
        passes, _, _ = execute(workload, 0, 0.0, 0, order)
        for rec in passes[0]:
            for r in rec["ops"]:
                if r["error"]:
                    print("not recorded: %s raised %s" % (r["name"],
                                                          r["error"]),
                          file=sys.stderr)
                    return 1
                doc["ops"][r["name"]] = r["result"]
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("rewrote %d of %d entries in %s: %s"
          % (len(set(names)), len(doc["ops"]), REFERENCE,
             ", ".join(sorted(set(names)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
