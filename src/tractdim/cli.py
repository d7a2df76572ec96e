"""Command-line front end: configuration, pipeline commands, exporters.

Deterministic by construction: outputs carry no timestamps and sampling
uses fixed low-discrepancy sequences, so identical configurations yield
byte-identical files.  A command takes a flag for each RunConfig field it
reads (``COMMANDS``, ``--node-budget`` for ``node_budget``) and no other.
RunConfig holds settings only: a command that reads a function takes it
from ``--function``, else from the config file's descriptor
(``load_config``).

``_refused`` is the one translator of a refused argument or unreadable
input into a ConfigError, so exit 2: an argument the library refuses
with ValueError (a radius below the singular radius, a base point inside
the reference circle, a polynomial without a repelling fixed point) keeps
its text, and polynomial text, a function descriptor or a config file
that cannot be read gets a prefix naming it.  Every JSON file and a
command's stdout are written by ``_json``.  Each ``cmd_<name>(cfg,
handle, args)`` is looked up on this module when ``main`` runs, so a
wrapper set on it after import (the benchmark's tracer) sees every call.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import linearizer as lz
from . import poly
from . import spectrum as sp
from . import tract as tr
from . import transfer as tf
from .errors import InvalidGrid, NoSignChange, TractdimError
from .poly import Polynomial


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Configuration


#: Most points a t grid or a T grid may hold.
MAX_GRID_POINTS = 10_000


@dataclass
class RunConfig:
    radius: float = float(math.e)
    Tjmin: int = int(math.log2(sp.DEFAULT_T_GRID[0]))
    Tjmax: int = int(math.log2(sp.DEFAULT_T_GRID[-1]))
    tmin: float = 0.0
    tmax: float = 2.0
    tstep: float = 0.5
    node_budget: int = poly.DEFAULT_NODE_BUDGET
    k_budget: int = 0  # 0 = per-handle default
    branch_budget: int = 128
    out: str = "out"

    def validate(self):
        for f in dataclasses.fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError("%s must be finite" % f.name)
        for name in ("node_budget", "branch_budget"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be positive" % name)
        if self.k_budget < 0:
            raise ConfigError("k_budget must be >= 0 (0 = per-handle default)")
        if self.radius < 1:
            raise ConfigError("radius must be >= 1")
        if os.path.exists(self.out) and not os.path.isdir(self.out):
            raise ConfigError("out %s is not a directory" % self.out)
        if self.Tjmin > self.Tjmax:
            raise InvalidGrid("empty T grid: Tjmin > Tjmax")
        if self.Tjmax >= sys.float_info.max_exp:
            raise InvalidGrid("T = 2^%d overflows a float" % self.Tjmax)
        if self.tstep <= 0 or self.tmin > self.tmax:
            raise InvalidGrid("empty or unordered t grid")
        # each grid is refused before it is built: the T grid holds
        # Tjmax - Tjmin + 1 points, the t grid about (tmax - tmin) / tstep + 1
        for name, span in (("T", self.Tjmax - self.Tjmin),
                           ("t", (self.tmax - self.tmin) / self.tstep)):
            if span >= MAX_GRID_POINTS:
                raise InvalidGrid("%s grid above %d points"
                                  % (name, MAX_GRID_POINTS))
        return self

    @classmethod
    def from_json(cls, text):
        """(settings, function descriptor or None) of a config file's text."""
        data = _refused(json.loads, text, what="config is not valid JSON: ")
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object, not %s"
                              % type(data).__name__)
        desc = data.pop("function", None)
        extra = set(data) - {f.name for f in dataclasses.fields(cls)}
        if extra:
            raise ConfigError("unknown config keys: %s" % sorted(extra))
        for f in dataclasses.fields(cls):
            if f.name in data and not _is_json_type(data[f.name], f.type):
                raise ConfigError("config key %s must be %s, got %s"
                                  % (f.name, f.type.__name__,
                                     json.dumps(data[f.name])))
        return cls(**data), desc

    def t_grid(self):
        grid, k = [], 0
        while self.tmin + k * self.tstep <= self.tmax + 1e-12:
            t = round(self.tmin + k * self.tstep, 12)
            # a step below the float spacing at t, or below the 1e-12
            # rounding, would repeat t, and at a large t never end
            if grid and t <= grid[-1]:
                raise InvalidGrid("t step %g does not advance t past %g"
                                  % (self.tstep, t))
            grid.append(t)
            k += 1
        return grid

    def T_grid(self):
        return [float(2 ** j) for j in range(self.Tjmin, self.Tjmax + 1)]


def _is_json_type(value, kind):
    """Whether a parsed JSON value fits a field type (an int fits float)."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _refused(call, *args, what="", errors=ValueError):
    """call(*args), with an exception of the errors classes (an argument
    the library refuses, input that cannot be read) as a ConfigError whose
    detail is what followed by the exception's text."""
    try:
        return call(*args)
    except errors as exc:
        raise ConfigError(what + str(exc))


#: How a descriptor that cannot be read (nor its JSON text) is refused.
_BAD_DESCRIPTOR = {"what": "bad function descriptor: ",
                   "errors": (ValueError, KeyError, TypeError)}


def _parse_poly(text):
    """Polynomial.from_string, with text it cannot parse as a ConfigError."""
    return _refused(Polynomial.from_string, text,
                    what="bad polynomial %r: " % text)


def _descriptor_handle(desc):
    """The handle of a decoded JSON descriptor.

    A Koenigs descriptor's kappa is taken as given, so it must pass the
    shorthand's disjoint-type test at R = e; halving it is left to the
    writer of the descriptor.
    """
    handle = _refused(lz.handle_from_json, desc, **_BAD_DESCRIPTOR)
    if (isinstance(handle, lz.KoenigsLinearizer)
            and not lz.is_disjoint_type(handle, math.e)):
        raise ConfigError("Koenigs kappa %s is not disjoint type: the "
                          "sampled disk |z| <= e is not mapped into itself"
                          % handle.kappa)
    return handle


def function_from_spec(text):
    """Build a function handle from a JSON descriptor or a shorthand name.

    Shorthands: ``exp``, ``quarter`` (e^z/4), ``square`` (e^{z^2}),
    ``composite`` (e^{z-6} then exp), and ``koenigs:<poly>`` which
    linearizes the polynomial at its largest repelling fixed point with a
    contraction factor small enough that the image misses the inner disk.
    """
    text = text.strip()
    if text.startswith("{"):
        return _descriptor_handle(_refused(json.loads, text,
                                           **_BAD_DESCRIPTOR))
    if text in lz.SHORTHANDS:
        return lz.SHORTHANDS[text]()
    if text.startswith("koenigs:"):
        p = _parse_poly(text[len("koenigs:"):])
        z0 = _refused(poly.repelling_fixed_point, p)
        return lz.make_disjoint_type(lz.make_koenigs(p, z0), math.e)
    raise ConfigError("unknown function shorthand %r" % text)


def load_config(args):
    """(settings, handle) of a command; the handle is None when the
    command reads no function.

    verify (whose checks build their own handles) and hypdim --poly read
    none, and build no handle from a --function or config descriptor they
    are given.  Any other command builds --function, else the config
    file's descriptor, else exits 2 naming both.  hypdim --poly reads only
    node_budget, so it refuses the flags of the entire-side estimate.
    """
    if args.poly is not None:
        unread = ["--" + name.replace("_", "-")
                  for name in COMMANDS["hypdim"][1].split()
                  if name != "node_budget" and getattr(args, name) is not None]
        if unread:
            raise ConfigError("hypdim --poly reads only --node-budget; "
                              "it does not take %s" % ", ".join(unread))
    cfg, desc = RunConfig(), None
    if args.config:
        cfg, desc = RunConfig.from_json(_refused(
            Path(args.config).read_text,
            what="cannot read config %s: " % args.config,
            errors=(OSError, UnicodeDecodeError)))
    spec = args.function
    if args.command == "verify" or args.poly is not None:
        spec = desc = None
    elif not spec and desc is None:
        raise ConfigError("%s needs --function or a config file with a "
                          "function descriptor" % args.command)
    # --function is built before the flags are checked, a descriptor after
    handle = function_from_spec(spec) if spec else None
    for f in dataclasses.fields(cfg):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    cfg.validate()
    if handle is None and desc is not None:
        handle = _descriptor_handle(desc)
    return cfg, handle


def _json(obj):
    """The JSON text of every output file and of a command's stdout."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(cfg, name, text):
    """Write one output file under cfg.out; an OSError is a ConfigError."""
    path = os.path.join(cfg.out, name)
    try:
        os.makedirs(cfg.out, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc))
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


def boundary_figure(atlas, T):
    """(SVG, CSV) of every tract's rescaled boundary at T.

    The SVG strokes each boundary and marks phi_T(1) of the first tract.
    """
    polylines = [tr.trace_boundary(branch, T) for branch in atlas.tracts]
    marker = tr.rescaled_map(atlas.tracts[0], T, 1.0)
    lines = ["T,tract,x,y"]
    for idx, polyline in enumerate(polylines):
        for z in polyline:
            lines.append("%.6g,%d,%.9g,%.9g" % (T, idx, z.real, z.imag))
    return _svg_document(polylines, marker), "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


def cmd_tract_plot(cfg, handle, args):
    # refuse a T before any file: 4T is the rectangle path's far corner
    for T in args.Tlist:
        if not (T >= 1 and math.isfinite(4 * T)):
            raise InvalidGrid("T must be finite and >= 1, got %g" % T)
    atlas = _refused(tr.find_tracts, handle, cfg.radius)
    written = []
    for T in args.Tlist:
        svg, csv = boundary_figure(atlas, T)
        stem = "tract_T%g" % T
        written.append(_write(cfg, stem + ".svg", svg))
        written.append(_write(cfg, stem + ".csv", csv))
    return {"written": written}


def cmd_spectrum(cfg, handle, args):
    t_grid = cfg.t_grid()
    atlas = _refused(tr.find_tracts, handle, cfg.radius)
    tables = sp.means_tables(atlas.tracts[0], cfg.T_grid())
    curve = sp.spectrum_curve(tables, t_grid)
    summary = sp.negative_spectrum_check(curve)
    written = [
        _write(cfg, "spectrum.csv", curve.to_csv()),
        _write(cfg, "spectrum.json",
               _json({"curve": curve.to_json(), "summary": summary})),
    ]
    return {"written": written, "summary": summary}


def _positive_t_grid(cfg):
    """The t grid of a transfer-sum command, which needs every t > 0."""
    grid = cfg.t_grid()
    if grid[0] <= 0:
        raise InvalidGrid("t grid starts at t = %g, but transfer sums need "
                          "t > 0; pass --tmin above 0" % grid[0])
    return grid


def cmd_transfer(cfg, handle, args):
    t_grid = _positive_t_grid(cfg)
    atlas = _refused(tr.find_tracts, handle, cfg.radius)
    w = tf.BASE_POINT
    samples = _refused(tf.transfer_apply_point, atlas, t_grid, w,
                       cfg.k_budget or None)
    csv = "t,value,terms,tail\n" + "".join(
        "%.9g,%.17g,%d,%.3g\n"
        % (s.t, s.value, s.terms_used, s.tail_estimate) for s in samples)
    profile = tf.dyadic_exponents(samples[-1].block_sums)
    written = [
        _write(cfg, "transfer.csv", csv),
        _write(cfg, "transfer.json",
               _json({"w": [w.real, w.imag], "profile_exponents": profile})),
    ]
    return {"written": written}


def cmd_pressure(cfg, handle, args):
    t_grid = _positive_t_grid(cfg)
    atlas = _refused(tr.find_tracts, handle, cfg.radius)
    # one frontier at the base point serves every t
    frontier = _refused(tf.iterate_frontier, atlas, tf.BASE_POINT, 3,
                        cfg.branch_budget)
    fits = [tf.pressure_entire(frontier, t) for t in t_grid]
    csv = "t,pressure,residual\n" + "".join(
        "%.9g,%.17g,%.3g\n" % (t, fit.value, fit.residual)
        for t, fit in zip(t_grid, fits))
    written = [_write(cfg, "pressure.csv", csv)]
    return {"written": written}


def cmd_hypdim(cfg, handle, args):
    if args.poly is not None:
        p = _parse_poly(args.poly)
        bz = poly.bowen_zero_poly(p, 12, node_budget=cfg.node_budget)
        return {"result": {"bowen_zero": bz.value, "width": bz.width,
                           "bracket": list(bz.bracket)}}
    atlas = _refused(tr.find_tracts, handle, cfg.radius)
    branch = atlas.tracts[0]
    sampled = branch.sampled
    tables = sp.means_tables(branch, cfg.T_grid())
    theta = sp.theta_f(tables)
    # Without a closed-form contour map every tree node walks the
    # quadrature path, so deep iteration is priced out: a sampled tract
    # takes two levels and at most 32 branches.  The bisection still
    # stops at width 0.02, but no bracket is reported for this side.
    n_max = 2 if sampled else 3
    branch_budget = min(cfg.branch_budget, 32) if sampled \
        else cfg.branch_budget
    # one frontier serves every t of both bracket attempts
    frontier = _refused(tf.iterate_frontier, atlas, tf.BASE_POINT, n_max,
                        branch_budget)
    lowered = False
    try:
        bowen = tf.bowen_zero_entire(frontier, theta)
    except NoSignChange:
        # The zero can sit inside the threshold estimate's own error bar;
        # retry once with the bracket floor dropped by that margin.
        lowered = True
        bowen = tf.bowen_zero_entire(frontier, theta - 0.1)
    diagnostics = {"tracts": len(atlas.tracts), "bracket_lowered": lowered,
                   "T_grid": [T for T, _ in tables]}
    if isinstance(handle, lz.KoenigsLinearizer):
        cross = poly.bowen_zero_poly(handle.p, 12,
                                     node_budget=cfg.node_budget)
        diagnostics["poly_bowen_zero"] = cross.value
    result = {"theta_hat": theta, "bowen_zero": bowen,
              "diagnostics": diagnostics}
    _write(cfg, "hypdim.json", _json(result))
    return {"result": result}


def cmd_verify(cfg, handle, args):
    from . import checks

    idents = args.only or ()
    unknown = sorted(set(idents) - {cid for cid, _, _ in checks.CHECKS})
    if unknown:
        raise ConfigError("unknown check ids: %s" % unknown)
    repeated = sorted({i for i in idents if idents.count(i) > 1})
    if repeated:
        raise ConfigError("repeated check ids: %s" % repeated)
    results = checks.run_all(args.only)
    report = "tractdim verify\n" + checks.format_report(results)
    _write(cfg, "verify.txt", report)
    # durations vary run to run, so they stay out of verify.txt
    seconds = {r.ident: r.seconds for r in results}
    _write(cfg, "verify_seconds.json", _json(seconds))
    sys.stdout.write(report)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Entry point


#: Each command's help line and the RunConfig fields it reads, one flag each.
COMMANDS = {
    "tract-plot": ("rescaled boundary SVG/CSV export", "radius"),
    "spectrum": ("limit spectrum curve and threshold",
                 "radius Tjmin Tjmax tmin tmax tstep"),
    "transfer": ("transfer-operator sums along the t grid",
                 "radius tmin tmax tstep k_budget"),
    "pressure": ("iterated-pressure curve",
                 "radius tmin tmax tstep branch_budget"),
    "hypdim": ("dimension estimate pipeline",
               "radius Tjmin Tjmax node_budget branch_budget"),
    "verify": ("run the built-in check suite", ""),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are ConfigErrors, so exit 2 with JSON."""

    def error(self, message):
        raise ConfigError(message)


def _comma_list(kind):
    """argparse type of a comma-separated list of kind values."""
    def parse(text):
        return tuple(kind(x) for x in text.split(","))

    parse.__name__ = "comma-separated " + kind.__name__
    return parse


def build_parser():
    parser = _Parser(
        prog="tractdim",
        description="Contour geometry, limit spectra, and dimension "
                    "estimates for entire functions with logarithmic "
                    "coordinates.")
    # --config, --function and --poly read as None where a command lacks them
    parser.set_defaults(config=None, function=None, poly=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fields) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != "verify":  # the checks fix their own handles
            p.add_argument("--config")
            p.add_argument("--function")
        for f in dataclasses.fields(RunConfig):
            if f.name in fields.split() + ["out"]:
                p.add_argument("--" + f.name.replace("_", "-"), type=f.type)
    sub.choices["tract-plot"].add_argument(
        "--Tlist", type=_comma_list(float), default=(1.0, 5.0, 20.0),
        help="comma-separated rescaling heights (default 1,5,20)")
    sub.choices["hypdim"].add_argument(
        "--poly", help="polynomial-side estimate for the given polynomial")
    sub.choices["verify"].add_argument(
        "--only", type=_comma_list(int),
        help="comma-separated check ids to run")
    return parser


def _emit_error(exc):
    sys.stdout.write(json.dumps(
        {"error": type(exc).__name__, "detail": str(exc)},
        sort_keys=True) + "\n")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg, handle = load_config(args)
        # verify writes its report as stdout and returns the exit code
        if args.command == "verify":
            return cmd_verify(cfg, handle, args)
        # looked up per call, so a wrapper set on this module is what runs
        run = {"tract-plot": cmd_tract_plot, "spectrum": cmd_spectrum,
               "transfer": cmd_transfer, "pressure": cmd_pressure,
               "hypdim": cmd_hypdim}[args.command]
        sys.stdout.write(_json(run(cfg, handle, args)))
        return 0
    except (ConfigError, InvalidGrid) as exc:
        _emit_error(exc)
        return 2
    except TractdimError as exc:
        _emit_error(exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
