"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The last two tests run every workload once untraced and once traced (one
pass each, about three minutes on two cores).
"""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ops  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_every_wrapped_name_exists():
    # a rename in src/ must fail here, not report zeros
    for module, attr, *_ in tracer.WRAPPED + (("cli", "load_config"),):
        assert hasattr(importlib.import_module("tractdim." + module),
                       attr), (module, attr)
    from tractdim import checks

    assert set(tracer.CHECK_IDS) <= {cid for cid, _, _ in checks.CHECKS}


def test_install_refuses_a_missing_name(monkeypatch):
    from tractdim import spectrum

    monkeypatch.delattr(spectrum, "theta_f")
    with pytest.raises(AttributeError):
        tracer.install(tracer.Recorder())


def test_every_self_time_group_is_reported():
    groups = {group for *_, group, _ in tracer.WRAPPED} | {"checks"}
    reported = {key for kind, key in tracer.LAYER_METRICS.values()
                if kind == "self"}
    assert groups == reported


def test_self_times_partition_the_root():
    rec = tracer.Recorder()
    with rec.root("op"):
        rec.enter("a")
        rec.enter("b")
        rec.exit("b", "g2")
        rec.exit("a", "g1")
    total = rec.end[0] - rec.start[0]
    assert math.isclose(sum(rec.self_s.values()), total, rel_tol=1e-9)
    assert list(rec.parent) == [-1, 0, 1]


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.unit(m["name"]) for m in spec["per_layer"])


def test_reference_tolerances():
    op = ops.OPS["spectrum_exp"]
    ref = {"rc": 0, "theta_hat": float("nan"), "b_inf": [1.0, 0.5]}
    assert ops.check(op, dict(ref), ref) == []
    assert ops.check(op, dict(ref, b_inf=[1.0, 0.53]), ref) == ["b_inf"]
    assert ops.check(op, dict(ref, theta_hat=1.0), ref) == ["theta_hat"]
    bowen = ops.OPS["bowen_tree"]
    ref = {"bowen_zero": 1.0, "width": 1e-3}
    assert ops.check(bowen, {"bowen_zero": 1.0009}, ref) == []
    assert ops.check(bowen, {"bowen_zero": 1.0011}, ref) == ["bowen_zero"]
    defect = ops.OPS["hypdim_composite"]
    ref = {"rc": 3, "error": "NoSignChange", "detail": "no sign change"}
    assert ops.check(defect, dict(ref), ref) == []
    assert ops.check(defect, {"rc": 0, "theta_hat": 1.0}, ref) != []


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)


def test_refuses_a_checkout_without_sources():
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, "poly_side", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


#: Counters that must be non-zero in each workload's traced run.  A wrapper
#: that stops seeing calls (say, src/ binds a wrapped function by name at
#: import) reports zeros, which would read as a gain.
MAIN_COUNTERS = {
    "sampled_tracts": ["linearizer.log_eval.calls", "tract.phi_eval.calls",
                       "tract.phi_path.calls", "spectrum.beta_infinity.calls"],
    "poly_side": ["poly.bottcher.orbit_calls", "kernels.aberth.calls",
                  "poly.tree.builds"],
    "closed_form_cli": ["transfer.iterate.calls",
                        "spectrum.beta_infinity.calls"],
}


@pytest.mark.parametrize("workload", list(ops.WORKLOADS))
def test_workload_completes_with_identical_traced_results(workload):
    reports = {}
    for trace in (0, 1):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stdout
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        want = run.PER_LAYER if trace else list(run.END_TO_END)
        assert list(last["metrics"]) == want
        path = os.path.join(ROOT, ".bench_out", workload,
                            "seed0-trace%d" % trace, "report.json")
        with open(path) as fh:
            reports[trace] = json.load(fh)
    results = [json.dumps(reports[t]["passes"][0]["results"],
                          sort_keys=True) for t in (0, 1)]
    assert results[0] == results[1]
    m = reports[1]["metrics"]
    assert [k for k in MAIN_COUNTERS[workload] if not m[k] > 0] == []
    layers = sum(m[k] for k, (kind, _) in tracer.LAYER_METRICS.items()
                 if kind == "self")
    assert math.isclose(layers + m["trace.unwrapped_s"],
                        m["trace.wall_s"] + m["trace.setup_s"], rel_tol=0.01)
