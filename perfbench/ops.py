"""Operations and workloads of the tractdim benchmark.

An operation has a set-up step that builds its inputs (function handles,
tract atlases, polynomials, argument lists) and a run step that is timed.
Every set-up call builds fresh objects, so no operation reads another's
``_anchors``, ``_scales`` or node-table caches.  No operation goes through
``checks.test_handle``/``test_atlas`` either, so the ``checks._atlases``
module cache is never shared.

The run step returns a JSON-able result.  ``check`` compares it with the
result recorded at the seed commit (``reference.json``) under the op's
tolerance rules.  Command-line operations call ``tractdim.cli.main``; the
time spent in ``cli.load_config``, which builds the command's function
handle, is counted as set-up by the worker, not as time to solution.

This module imports tractdim only inside functions, so the orchestrator can
read the workload tables without importing numpy.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

#: Samples for ``tract.el_violations`` on the check-8 handle.  Check 8 uses
#: 10^4; 4096 keeps one pass of ``sampled_tracts`` inside the run time and
#: still fills the branch's anchor list to its 4096 cap.
EL_SAMPLES = 4096

#: Aberth kernel timing folded in from benchmarks/bench_kernels.py.
ABERTH_TARGETS = 4096
ABERTH_REPEATS = 10


@dataclass(frozen=True)
class Op:
    name: str
    setup: object  # seed -> inputs
    run: object  # (inputs, out_dir) -> result dict
    rules: dict = field(default_factory=dict)  # result field -> tolerance
    # per-op time metric, for ops of >= 2 s at seed; tract_plot_koenigs
    # (1.7-1.9 s, spread 0.107-0.134 over ten runs) has none
    metric: str = None
    known_defect: str = None  # why the recorded result is an error


@dataclass(frozen=True)
class Workload:
    ops: tuple
    process_per_op: bool
    pass_s: float  # one pass at the seed commit, 2 cores, numpy kernels


# ---------------------------------------------------------------------------
# Command-line operations


def _call_cli(argv, out):
    from tractdim import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--out", out])
    text = buf.getvalue()
    if rc == 0:
        return rc, text
    # exit codes 2 and 3 come with an error JSON on stdout
    err = json.loads(text)
    return rc, {"error": err["error"], "detail": err["detail"].split(";")[0]}


def _read(out, name):
    with open(os.path.join(out, name)) as fh:
        return fh.read()


def _csv_rows(text):
    return [line.split(",") for line in text.strip().splitlines()[1:]]


def _cli_op(name, argv, extract, rules, metric=None, known_defect=None):
    def run(inputs, out):
        rc, payload = _call_cli(inputs, out)
        if rc != 0:
            return {"rc": rc, **payload}
        return {"rc": rc, **extract(payload, out)}

    rules = dict(rules, rc="exact")
    if known_defect:
        rules.update(error="exact", detail="exact")
    return Op(name, lambda seed: list(argv), run, rules, metric,
              known_defect)


def _spectrum(text, out):
    doc = json.loads(_read(out, "spectrum.json"))
    return {"theta_hat": doc["summary"]["theta_hat"],
            "b_inf": doc["curve"]["b_inf"]}


#: Every this many-th boundary point of tract-plot is compared.
_PLOT_STRIDE = 32


def _tract_plot(text, out):
    written = json.loads(text)["written"]
    rows, points = 0, []
    for path in written:
        if path.endswith(".csv"):
            lines = _csv_rows(_read(out, os.path.basename(path)))
            rows += len(lines)
            points += [float(v) for line in lines[::_PLOT_STRIDE]
                       for v in line[2:]]
    return {"rows": rows, "points": points}


def _second_column(out, name):
    return [float(row[1]) for row in _csv_rows(_read(out, name))]


def _transfer_csv(text, out):
    return {"values": _second_column(out, "transfer.csv")}


def _pressure_csv(text, out):
    return {"pressure": _second_column(out, "pressure.csv")}


def _hypdim(text, out):
    result = json.loads(text)["result"]
    return {"theta_hat": result["theta_hat"],
            "bowen_zero": result["bowen_zero"]}


def _hypdim_poly(text, out):
    result = json.loads(text)["result"]
    return {"bowen_zero": result["bowen_zero"], "width": result["width"]}


def _verify(text, out):
    return {"checks": [line.split()[0] + " " + line.split()[1]
                       for line in text.splitlines()
                       if line.startswith(("PASS", "FAIL"))]}


# Tolerances: theta_hat to the bisection width, Bowen zeros
# to their bracket width, b_inf to the negative-spectrum tolerance, transfer
# sums to a relative 1e-6.  Pressure values are logs of transfer sums, so a
# relative 1e-6 on the sums is an absolute 1e-6 on them.
_THETA = ("abs", 1e-3)
_B_INF = ("abs", 0.02)
_SPECTRUM_RULES = {"theta_hat": _THETA, "b_inf": _B_INF}
_HYPDIM_RULES = {"theta_hat": _THETA, "bowen_zero": ("abs", 0.02)}


# ---------------------------------------------------------------------------
# Library operations


def _koenigs_check8(seed):
    from tractdim import checks, linearizer as lz, tract as tr

    handle = lz.koenigs_handle(checks.Z2, 1.0, kappa=0.25)
    return tr.find_tracts(handle, math.e)


def _el_violations(atlas, out):
    from tractdim import tract as tr

    return {"violations": sum(tr.el_violations(b, samples=EL_SAMPLES)
                              for b in atlas.tracts)}


def _basilica_atlas(seed):
    from tractdim import cli, tract as tr

    return tr.find_tracts(cli.function_from_spec("koenigs:z^2-1"), math.e)


def _transfer_point(atlas, out):
    from tractdim import transfer as tf

    return {"value": tf.transfer_apply_point(atlas, 2.0,
                                             complex(math.e ** 2)).value}


def _check(ident):
    def run(inputs, out):
        from tractdim import checks

        return {"passed": checks.run_check(ident).passed}

    return run


def _bowen_setup(seed):
    from tractdim.poly import Polynomial

    return Polynomial.from_string("z^3-0.5z")


def _bowen_tree(p, out):
    from tractdim import poly

    bz = poly.bowen_zero_poly(p, 12)
    return {"bowen_zero": bz.value, "width": bz.width}


def _aberth_setup(seed):
    import numpy as np
    from tractdim.poly import Polynomial

    p = Polynomial.from_string("z^2-1")
    rng = np.random.default_rng(seed)
    targets = rng.standard_normal(ABERTH_TARGETS) \
        + 1j * rng.standard_normal(ABERTH_TARGETS)
    return (np.array(p.coefficients, dtype=complex),
            np.array(p.derivative_coefficients(), dtype=complex), targets)


def _aberth(inputs, out):
    """Batched kernel on seeded targets; checked by its own residuals."""
    import numpy as np
    from tractdim import _kernels

    coeffs, dcoeffs, targets = inputs
    converged = 0
    for _ in range(ABERTH_REPEATS):
        roots, ok = _kernels.aberth_batch(coeffs, dcoeffs, targets)
        resid = np.abs(np.polyval(coeffs[::-1], roots) - targets[:, None])
        converged += int(np.sum(ok & (resid.max(axis=1)
                                      <= 1e-10 * (1 + np.abs(targets)))))
    return {"converged": converged}


def _no_setup(seed):
    return None


# ---------------------------------------------------------------------------
# Workloads

_SAMPLED = (
    Op("el_violations", _koenigs_check8, _el_violations,
       {"violations": "exact"}, "op.el_violations_s"),
    _cli_op("spectrum_koenigs", ["spectrum", "--function", "koenigs:z^2-1"],
            _spectrum, _SPECTRUM_RULES, "op.spectrum_koenigs_s"),
    _cli_op("tract_plot_koenigs",
            ["tract-plot", "--function", "koenigs:z^2-1"], _tract_plot,
            {"rows": "exact", "points": ("abs", 1e-6)}),
    Op("transfer_koenigs", _basilica_atlas, _transfer_point,
       {"value": ("rel", 1e-6)}, "op.transfer_koenigs_s"),
    _cli_op("hypdim_koenigs_z2m2", ["hypdim", "--function", "koenigs:z^2-2"],
            _hypdim, {}, known_defect="b has no zero on the capped T grid "
            "(ROADMAP item 5)"),
)

_POLY = (
    Op("arc_pressure", _no_setup, _check(5), {"passed": "exact"},
       "op.arc_pressure_s"),
    Op("bowen_tree", _bowen_setup, _bowen_tree,
       {"bowen_zero": ("abs", "width")}, "op.bowen_tree_s"),
    Op("tree_pressure", _no_setup, _check(4), {"passed": "exact"}),
    Op("bottcher_golden", _no_setup, _check(7), {"passed": "exact"}),
    # every seed's targets all converge, so the seed-0 count is the reference
    Op("aberth_batch", _aberth_setup, _aberth, {"converged": "exact"}),
)

_CLOSED = (
    _cli_op("spectrum_exp", ["spectrum", "--function", "exp"], _spectrum,
            _SPECTRUM_RULES),
    _cli_op("spectrum_square", ["spectrum", "--function", "square"],
            _spectrum, _SPECTRUM_RULES),
    _cli_op("spectrum_composite", ["spectrum", "--function", "composite"],
            _spectrum, _SPECTRUM_RULES),
    # The default t grid starts at t = 0, where `transfer` and `pressure`
    # exit 1 with a ValueError traceback; the README's --tmin is used.
    _cli_op("transfer_exp",
            ["transfer", "--function", "exp", "--tmin", "1.2"],
            _transfer_csv, {"values": ("rel", 1e-6)}),
    _cli_op("transfer_quarter",
            ["transfer", "--function", "quarter", "--tmin", "1.2"],
            _transfer_csv, {"values": ("rel", 1e-6)}),
    _cli_op("pressure_quarter",
            ["pressure", "--function", "quarter", "--tmin", "1.5"],
            _pressure_csv, {"pressure": ("abs", 1e-6)}),
    _cli_op("hypdim_quarter", ["hypdim", "--function", "quarter"], _hypdim,
            _HYPDIM_RULES),
    _cli_op("hypdim_square", ["hypdim", "--function", "square"], _hypdim,
            _HYPDIM_RULES, "op.hypdim_square_s"),
    _cli_op("hypdim_composite", ["hypdim", "--function", "composite"],
            _hypdim, {}, known_defect="pressure has no sign change above "
            "theta_hat + 0.05, even after the lowered-bracket retry"),
    _cli_op("hypdim_poly",
            ["hypdim", "--poly", "z^2-1", "--function", "exp"], _hypdim_poly,
            {"bowen_zero": ("abs", "width")}),
    _cli_op("verify", ["verify", "--only", "1,2,3,4,6,11"], _verify,
            {"checks": "exact"}),
)

# Why each workload exists is recorded in BENCHMARK.json.  Left out on
# purpose: `pressure --function koenigs:z^2-1`, which ran more than 8 minutes
# at the seed commit without finishing; the change that fixes it adds it to
# sampled_tracts.
WORKLOADS = {
    "sampled_tracts": Workload(_SAMPLED, False, 38.0),
    "poly_side": Workload(_POLY, False, 39.0),
    "closed_form_cli": Workload(_CLOSED, True, 13.0),
}

OPS = {op.name: op for w in WORKLOADS.values() for op in w.ops}


def op_order(workload, seed):
    """Operation names in run order: as listed for seed 0, else shuffled."""
    import random

    names = [op.name for op in WORKLOADS[workload].ops]
    if seed:
        random.Random(seed).shuffle(names)
    return names


# ---------------------------------------------------------------------------
# Reference comparison


def _close(got, want, rule, ref):
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, rule, ref) for g, w in zip(got, want)))
    if rule == "exact":
        return got == want or (_is_nan(got) and _is_nan(want))
    kind, tol = rule
    if isinstance(tol, str):
        tol = ref[tol]
    if _is_nan(got) or _is_nan(want):
        return _is_nan(got) and _is_nan(want)
    if kind == "rel":
        tol = tol * abs(want)
    return abs(got - want) <= tol


def _is_nan(x):
    return isinstance(x, float) and math.isnan(x)


def check(op, result, ref):
    """Names of the result fields that leave their reference tolerance."""
    bad = []
    for key, rule in op.rules.items():
        if ref is None or key not in ref:
            bad.append(key + " (no reference)")
        elif key not in result or not _close(result[key], ref[key], rule,
                                             ref):
            bad.append(key)
    return bad
