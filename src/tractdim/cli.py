"""Command-line front end: configuration, pipeline commands, exporters.

Deterministic by construction: outputs carry no timestamps and sampling
uses fixed low-discrepancy sequences, so identical configurations yield
byte-identical files.  Every RunConfig field but ``function`` has a flag
of the same name (``node_budget`` is ``--node-budget``).
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

from . import linearizer as lz
from . import poly
from . import spectrum as sp
from . import tract as tr
from . import transfer as tf
from .errors import InvalidGrid, NoSignChange, TractdimError
from .poly import Polynomial

DEFAULT_T_LIST = (1.0, 5.0, 20.0)


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class RunConfig:
    function: dict
    radius: float = float(math.e)
    Tjmin: int = 3
    Tjmax: int = 14
    tmin: float = 0.0
    tmax: float = 2.0
    tstep: float = 0.5
    node_budget: int = poly.DEFAULT_NODE_BUDGET
    k_budget: int = 0  # 0 = per-handle default
    branch_budget: int = 128
    out: str = "out"
    seed: int = 0  # echoed into the output files

    def validate(self):
        for f in _FLAG_FIELDS:
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError("%s must be finite" % f.name)
        for name in ("node_budget", "branch_budget"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be positive" % name)
        if self.k_budget < 0:
            raise ConfigError("k_budget must be >= 0 (0 = per-handle default)")
        if self.radius < 1:
            raise ConfigError("radius must be >= 1")
        if self.Tjmin > self.Tjmax:
            raise InvalidGrid("empty T grid: Tjmin > Tjmax")
        if self.tstep <= 0 or self.tmin > self.tmax:
            raise InvalidGrid("empty or unordered t grid")
        return self

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc)
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object, not %s"
                              % type(data).__name__)
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ConfigError("unknown config keys: %s" % sorted(extra))
        if "function" not in data:
            raise ConfigError("config requires a function descriptor")
        for f in _FLAG_FIELDS:
            if f.name in data and not _is_json_type(data[f.name], f.type):
                raise ConfigError("config key %s must be %s, got %s"
                                  % (f.name, f.type.__name__,
                                     json.dumps(data[f.name])))
        return cls(**data)

    def t_grid(self):
        grid, k = [], 0
        while self.tmin + k * self.tstep <= self.tmax + 1e-12:
            grid.append(round(self.tmin + k * self.tstep, 12))
            k += 1
        return grid

    def T_grid(self, sampled=False):
        hi = min(self.Tjmax, sp.SAMPLED_TJ_CAP) if sampled else self.Tjmax
        if self.Tjmin > hi:
            raise InvalidGrid("empty T grid after sampled-handle cap")
        return [float(2 ** j) for j in range(self.Tjmin, hi + 1)]


#: The RunConfig fields set by a flag; ``function`` takes a spec string.
_FLAG_FIELDS = tuple(f for f in dataclasses.fields(RunConfig)
                     if f.name != "function")


def _is_json_type(value, kind):
    """Whether a parsed JSON value fits a field type (an int fits float)."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _largest_repelling_fixed_point(p):
    recs = [r for r in poly.find_repelling_fixed_points(p) if r.is_repelling]
    if not recs:
        raise ConfigError("polynomial has no repelling fixed point")
    return max(recs, key=lambda r: (abs(r.location), r.location.real)).location


def function_from_spec(text):
    """Build a function handle from a JSON descriptor or a shorthand name.

    Shorthands: ``exp``, ``quarter`` (e^z/4), ``square`` (e^{z^2}),
    ``composite`` (e^{z-6} then exp), and ``koenigs:<poly>`` which
    linearizes the polynomial at its largest repelling fixed point with a
    contraction factor small enough that the image misses the inner disk.
    """
    text = text.strip()
    if text.startswith("{"):
        try:
            return lz.handle_from_json(json.loads(text))
        except (ValueError, KeyError) as exc:
            raise ConfigError("bad function descriptor: %s" % exc)
    if text in lz.SHORTHANDS:
        return lz.SHORTHANDS[text]()
    if text.startswith("koenigs:"):
        p = Polynomial.from_string(text[len("koenigs:"):])
        z0 = _largest_repelling_fixed_point(p)
        return lz.make_disjoint_type(lz.make_koenigs(p, z0), math.e)
    raise ConfigError("unknown function shorthand %r" % text)


def load_config(args):
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("cannot read config %s: %s" % (args.config, exc))
        cfg = RunConfig.from_json(text)
    else:
        if not args.function:
            raise ConfigError("need --config or --function")
        cfg = RunConfig(function=function_from_spec(args.function).to_json())
    if args.config and args.function:
        cfg.function = function_from_spec(args.function).to_json()
    for f in _FLAG_FIELDS:
        val = getattr(args, f.name)
        if val is not None:
            setattr(cfg, f.name, val)
    cfg.out = os.environ.get("TRACTDIM_OUT", cfg.out)
    cfg.validate()
    try:
        handle = lz.handle_from_json(cfg.function)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("bad function descriptor: %s" % exc)
    return cfg, handle


def _write(cfg, name, text):
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# SVG export


def _fmt(x):
    s = "%.6f" % x
    return "0.000000" if s == "-0.000000" else s


def _svg_document(polylines, marker):
    xs = [z.real for pts in polylines for z in pts] + [-1.0, 1.0]
    ys = [-z.imag for pts in polylines for z in pts] + [-1.0, 1.0]
    pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys))
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="512" height="512" '
        'viewBox="%s %s %s %s">' % (_fmt(x0), _fmt(y0), _fmt(w), _fmt(h))
    ]
    unit = max(w, h) / 3.2
    lines.append(
        '<circle cx="0.000000" cy="0.000000" r="1.000000" fill="none" '
        'stroke="#999999" stroke-width="%s"/>' % _fmt(0.004 * unit))
    for pts in polylines:
        coords = " L ".join(
            "%s %s" % (_fmt(z.real), _fmt(-z.imag)) for z in pts[:-1])
        lines.append(
            '<path d="M %s Z" fill="none" stroke="#000000" '
            'stroke-width="%s"/>' % (coords, _fmt(0.008 * unit)))
    lines.append(
        '<circle cx="%s" cy="%s" r="%s" fill="none" stroke="#cc0000" '
        'stroke-width="%s"/>' % (_fmt(marker.real), _fmt(-marker.imag),
                                 _fmt(0.03 * unit), _fmt(0.008 * unit)))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_boundary_svg(branch, T, n_points=512):
    """Stroke-only SVG of one rescaled tract boundary with a unit marker."""
    rb = tr.trace_boundary(branch, T, n_points)
    marker = tr.phi_eval(branch, complex(T)) / rb.scale
    return _svg_document([rb.polyline], marker)


def _boundary_csv(boundaries):
    lines = ["T,tract,x,y"]
    for T, idx, polyline in boundaries:
        for z in polyline:
            lines.append("%.6g,%d,%.9g,%.9g" % (T, idx, z.real, z.imag))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _find_tracts(handle, cfg):
    """find_tracts at --radius; a radius or handle it refuses is a ConfigError."""
    try:
        return tr.find_tracts(handle, cfg.radius)
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_tract_plot(cfg, handle, T_list):
    atlas = _find_tracts(handle, cfg)
    written = []
    for T in T_list:
        if T <= 0:
            raise InvalidGrid("T must be positive")
        rows, polylines = [], []
        for idx, branch in enumerate(atlas.tracts):
            rb = tr.trace_boundary(branch, T)
            polylines.append(rb.polyline)
            rows.append((T, idx, rb.polyline))
        marker = tr.phi_eval(atlas.tracts[0], complex(T)) / tr.tract_scale(
            atlas.tracts[0], T)
        stem = "tract_T%g" % T
        written.append(_write(cfg, stem + ".svg",
                              _svg_document(polylines, marker)))
        written.append(_write(cfg, stem + ".csv", _boundary_csv(rows)))
    return {"written": written}


def cmd_spectrum(cfg, handle):
    atlas = _find_tracts(handle, cfg)
    branch = atlas.tracts[0]
    T_grid = cfg.T_grid(sampled=branch.sampled)
    curve = sp.spectrum_curve(branch, cfg.t_grid(), T_grid)
    ok, report = sp.negative_spectrum_check(branch, curve)
    summary = {
        "theta_hat": curve.theta_hat,
        "negative_spectrum": ok,
        "violations": report["violations"],
        "seed": cfg.seed,
    }
    if "reason" in report:
        summary["reason"] = report["reason"]
    written = [
        _write(cfg, "spectrum.csv", curve.to_csv()),
        _write(cfg, "spectrum.json", json.dumps(
            {"curve": json.loads(curve.to_json()), "summary": summary},
            indent=2, sort_keys=True) + "\n"),
    ]
    return {"written": written, "summary": summary}


def _positive_t_grid(cfg):
    """The t grid of a transfer-sum command, which needs every t > 0."""
    grid = cfg.t_grid()
    if grid[0] <= 0:
        raise InvalidGrid("t grid starts at t = %g, but transfer sums need "
                          "t > 0; pass --tmin above 0" % grid[0])
    return grid


def cmd_transfer(cfg, handle):
    t_grid = _positive_t_grid(cfg)
    atlas = _find_tracts(handle, cfg)
    k_budget = cfg.k_budget or None
    w = complex(math.e ** 2)
    rows = []
    for t in t_grid:
        s = tf.transfer_apply_point(atlas, t, w, k_budget)
        rows.append((t, s.value, s.terms_used, s.tail_estimate))
    csv = "t,value,terms,tail\n" + "".join(
        "%.9g,%.17g,%d,%.3g\n" % r for r in rows)
    profile = tf.transfer_dyadic_profile(atlas, t_grid[-1], w, k_budget)
    written = [
        _write(cfg, "transfer.csv", csv),
        _write(cfg, "transfer.json", json.dumps(
            {"w": [w.real, w.imag], "profile_exponents": profile,
             "seed": cfg.seed}, indent=2, sort_keys=True) + "\n"),
    ]
    return {"written": written}


def cmd_pressure(cfg, handle):
    t_grid = _positive_t_grid(cfg)
    atlas = _find_tracts(handle, cfg)
    curve = tf.pressure_curve_entire(atlas, t_grid,
                                     branch_budget=cfg.branch_budget)
    csv = "t,pressure,residual\n" + "".join(
        "%.9g,%.17g,%.3g\n" % (t, p, r)
        for t, p, r in zip(curve.t_grid, curve.values, curve.residuals))
    written = [_write(cfg, "pressure.csv", csv)]
    return {"written": written}


def cmd_hypdim(cfg, handle, poly_text=None):
    if poly_text is not None:
        p = Polynomial.from_string(poly_text)
        bz = poly.bowen_zero_poly(p, 12, node_budget=cfg.node_budget)
        return {"result": {"bowen_zero": bz.value, "width": bz.width,
                           "bracket": list(bz.bracket)}}
    atlas = _find_tracts(handle, cfg)
    branch = atlas.tracts[0]
    sampled = branch.sampled
    T_grid = cfg.T_grid(sampled=sampled)
    theta = sp.theta_f(branch, T_grid)
    # Without a closed-form contour map every tree node walks the
    # quadrature path, so deep iteration is priced out; two levels and a
    # small frontier already pin the zero to the reported bracket width.
    n_max = 2 if sampled else 3
    branch_budget = min(cfg.branch_budget, 32) if sampled \
        else cfg.branch_budget
    lowered = False
    try:
        bowen = tf.bowen_zero_entire(atlas, theta, n_max=n_max,
                                     branch_budget=branch_budget)
    except NoSignChange:
        # The zero can sit inside the threshold estimate's own error bar;
        # retry once with the bracket floor dropped by that margin.
        lowered = True
        bowen = tf.bowen_zero_entire(atlas, theta - 0.1, n_max=n_max,
                                     branch_budget=branch_budget)
    diagnostics = {"tracts": len(atlas.tracts), "T_grid": T_grid,
                   "bracket_lowered": lowered, "seed": cfg.seed}
    if isinstance(handle, lz.KoenigsLinearizer):
        cross = poly.bowen_zero_poly(handle.p, 12,
                                     node_budget=cfg.node_budget)
        diagnostics["poly_bowen_zero"] = cross.value
    result = {"theta_hat": theta, "bowen_zero": float(bowen),
              "diagnostics": diagnostics}
    _write(cfg, "hypdim.json",
           json.dumps(result, indent=2, sort_keys=True) + "\n")
    return {"result": result}


def cmd_verify(cfg, idents=None):
    from . import checks

    unknown = sorted(set(idents or ()) - {cid for cid, _, _ in checks.CHECKS})
    if unknown:
        raise ConfigError("unknown check ids: %s" % unknown)
    results = checks.run_all(node_budget=cfg.node_budget, idents=idents)
    header = "tractdim verify  seed=%d\n" % cfg.seed
    report = header + checks.format_report(results)
    _write(cfg, "verify.txt", report)
    # durations vary run to run, so they stay out of verify.txt
    seconds = {r.ident: r.seconds for r in results}
    _write(cfg, "verify_seconds.json",
           json.dumps(seconds, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(report)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Entry point


def _add_common(p):
    p.add_argument("--config")
    p.add_argument("--function")
    for f in _FLAG_FIELDS:
        p.add_argument("--" + f.name.replace("_", "-"), type=f.type)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tractdim",
        description="Contour geometry, limit spectra, and dimension "
                    "estimates for entire functions with logarithmic "
                    "coordinates.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("tract-plot", help="rescaled boundary SVG/CSV export")
    _add_common(p)
    p.add_argument("--Tlist", default=None,
                   help="comma-separated rescaling heights (default 1,5,20)")
    for name, help_text in (
            ("spectrum", "limit spectrum curve and threshold"),
            ("transfer", "transfer-operator sums along the t grid"),
            ("pressure", "iterated-pressure curve"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    p = sub.add_parser("hypdim", help="dimension estimate pipeline")
    _add_common(p)
    p.add_argument("--poly", default=None,
                   help="polynomial-side estimate for the given polynomial")
    p = sub.add_parser("verify", help="run the built-in check suite")
    _add_common(p)
    p.add_argument("--only", default=None,
                   help="comma-separated check ids to run")
    return parser


def _number_list(text, kind, flag):
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        raise ConfigError("%s takes comma-separated %s values, got %r"
                          % (flag, kind.__name__, text))


def _emit_error(exc):
    sys.stdout.write(json.dumps(
        {"error": type(exc).__name__, "detail": str(exc)},
        sort_keys=True) + "\n")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify" and not (args.config or args.function):
            args.function = "exp"  # the suite fixes its own handles
        cfg, handle = load_config(args)
        if args.command == "tract-plot":
            T_list = (_number_list(args.Tlist, float, "--Tlist")
                      if args.Tlist else DEFAULT_T_LIST)
            out = cmd_tract_plot(cfg, handle, T_list)
        elif args.command == "spectrum":
            out = cmd_spectrum(cfg, handle)
        elif args.command == "transfer":
            out = cmd_transfer(cfg, handle)
        elif args.command == "pressure":
            out = cmd_pressure(cfg, handle)
        elif args.command == "hypdim":
            out = cmd_hypdim(cfg, handle, args.poly)
        elif args.command == "verify":
            idents = (_number_list(args.only, int, "--only")
                      if args.only else None)
            return cmd_verify(cfg, idents)
        sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
        return 0
    except (ConfigError, InvalidGrid) as exc:
        _emit_error(exc)
        return 2
    except TractdimError as exc:
        _emit_error(exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
