"""Run benchmark operations in a fresh interpreter and print one JSON record.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  It
imports tractdim, sets up every listed operation once (timing that build),
runs the operations in the listed order, and prints a JSON record with their times and results as the last
line of its standard output.

Usage: python3 perfbench/worker.py --ops NAME[,NAME...] --seed N
           --trace 0|1 --out DIR
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ops as catalogue  # noqa: E402


def machine_facts():
    import numpy
    import scipy
    from tractdim import _kernels

    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba_enabled": bool(_kernels.NUMBA_ENABLED)}


class _Timed:
    """Accumulates the time spent in one wrapped function."""

    def __init__(self, fn):
        self.fn = fn
        self.total = 0.0

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.total += time.perf_counter() - start


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import tractdim.cli as cli

    ready = time.monotonic()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("tractdim imported from %s, not from %s"
                         % (cli.__file__, src))
    rec = None
    if args.trace:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    # handle construction inside commands is set-up, not time to solution
    load_config = cli.load_config = _Timed(cli.load_config)

    names = args.ops.split(",")
    start = time.perf_counter()
    inputs = []
    for name in names:
        if rec is None:
            inputs.append(catalogue.OPS[name].setup(args.seed))
        else:
            with rec.root("setup:" + name):
                inputs.append(catalogue.OPS[name].setup(args.seed))
    setup_s = time.perf_counter() - start

    records = []
    for name, op_inputs in zip(names, inputs):
        out = os.path.join(args.out, name)
        os.makedirs(out, exist_ok=True)
        config_before = load_config.total
        result, error = None, None
        start = time.perf_counter()
        try:
            if rec is None:
                result = catalogue.OPS[name].run(op_inputs, out)
            else:
                with rec.root("op:" + name):
                    result = catalogue.OPS[name].run(op_inputs, out)
        except Exception as exc:  # reported as a failed operation
            traceback.print_exc()
            error = "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - start
        config_s = load_config.total - config_before
        records.append({"name": name, "seconds": seconds - config_s,
                        "config_s": config_s, "result": result,
                        "error": error})

    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "ready": ready,
        "machine": machine_facts(),
        "setup_s": setup_s,
        "ops": records,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }
    if rec is not None:
        wall = sum(r["seconds"] for r in records)
        setup = setup_s + sum(r["config_s"] for r in records)
        record["layers"] = rec.layer_metrics()
        record["trace"] = {"wall_s": wall, "setup_s": setup,
                           "unwrapped_s": rec.self_s[tracer.ROOT]}
        spans = os.path.join(args.out, "spans.json")
        with open(spans, "w") as fh:
            json.dump(rec.spans(), fh)
        record["spans_file"] = spans
    print(json.dumps(record))


if __name__ == "__main__":
    main()
