"""Command-line front end: configuration, pipeline commands, exporters.

Deterministic by construction: outputs carry no timestamps and sampling
uses fixed low-discrepancy sequences, so identical configurations yield
byte-identical files.  A command takes a flag for each RunConfig field it
reads (``COMMANDS``, ``--node-budget`` for ``node_budget``) and no other.
"""

import argparse
import contextlib
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


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Configuration


#: Most points a t grid or a T grid may hold.
MAX_GRID_POINTS = 10_000


@dataclass
class RunConfig:
    function: dict
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

    def T_grid(self):
        return [float(2 ** j) for j in range(self.Tjmin, self.Tjmax + 1)]


#: The RunConfig fields set by a flag; ``function`` takes a spec string.
_FLAG_FIELDS = tuple(f for f in dataclasses.fields(RunConfig)
                     if f.name != "function")


def _is_json_type(value, kind):
    """Whether a parsed JSON value fits a field type (an int fits float)."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _parse_poly(text):
    """Polynomial.from_string, with text it cannot parse as a ConfigError."""
    try:
        return Polynomial.from_string(text)
    except ValueError as exc:
        raise ConfigError("bad polynomial %r: %s" % (text, exc))


@contextlib.contextmanager
def _descriptor_errors():
    """A descriptor that cannot be read (nor its JSON text) as a ConfigError."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("bad function descriptor: %s" % exc)


def _descriptor_handle(desc):
    """The handle of a decoded JSON descriptor.

    A Koenigs descriptor's kappa is taken as given, so it must pass the
    shorthand's disjoint-type test at R = e; halving it is left to the
    writer of the descriptor.
    """
    with _descriptor_errors():
        handle = lz.handle_from_json(desc)
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
        with _descriptor_errors():
            desc = json.loads(text)
        return _descriptor_handle(desc)
    if text in lz.SHORTHANDS:
        return lz.SHORTHANDS[text]()
    if text.startswith("koenigs:"):
        p = _parse_poly(text[len("koenigs:"):])
        try:
            z0 = poly.repelling_fixed_point(p)
        except ValueError as exc:  # no repelling fixed point
            raise ConfigError(str(exc))
        return lz.make_disjoint_type(lz.make_koenigs(p, z0), math.e)
    raise ConfigError("unknown function shorthand %r" % text)


def load_config(args):
    """Settings and handle; verify and hypdim --poly need no function.

    hypdim --poly reads only node_budget, so it refuses the flags of the
    entire-side estimate; it still takes --function, which it ignores.
    """
    if args.poly is not None:
        unread = ["--" + name.replace("_", "-")
                  for name in COMMANDS["hypdim"][1].split()
                  if name != "node_budget" and getattr(args, name) is not None]
        if unread:
            raise ConfigError("hypdim --poly reads only --node-budget; "
                              "it does not take %s" % ", ".join(unread))
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("cannot read config %s: %s" % (args.config, exc))
        cfg = RunConfig.from_json(text)
    elif args.function or args.command == "verify" or args.poly is not None:
        cfg = RunConfig(function={})
    else:
        raise ConfigError("need --config or --function")
    handle = function_from_spec(args.function) if args.function else None
    for f in _FLAG_FIELDS:
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    cfg.validate()
    if args.config and handle is None:
        handle = _descriptor_handle(cfg.function)
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


def _find_tracts(handle, cfg):
    """find_tracts at --radius; a radius or handle it refuses is a ConfigError."""
    try:
        return tr.find_tracts(handle, cfg.radius)
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_tract_plot(cfg, handle, T_list):
    # refuse a T before any file: 4T is the rectangle path's far corner
    for T in T_list:
        if not (T >= 1 and math.isfinite(4 * T)):
            raise InvalidGrid("T must be finite and >= 1, got %g" % T)
    atlas = _find_tracts(handle, cfg)
    written = []
    for T in T_list:
        svg, csv = boundary_figure(atlas, T)
        stem = "tract_T%g" % T
        written.append(_write(cfg, stem + ".svg", svg))
        written.append(_write(cfg, stem + ".csv", csv))
    return {"written": written}


def cmd_spectrum(cfg, handle):
    atlas = _find_tracts(handle, cfg)
    tables = sp.means_tables(atlas.tracts[0], cfg.T_grid())
    curve = sp.spectrum_curve(tables, cfg.t_grid())
    summary = sp.negative_spectrum_check(curve)
    written = [
        _write(cfg, "spectrum.csv", curve.to_csv()),
        _write(cfg, "spectrum.json", json.dumps(
            {"curve": curve.to_json(), "summary": summary},
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
    w = tf.BASE_POINT
    try:
        samples = tf.transfer_apply_point(atlas, t_grid, w, k_budget)
    except ValueError as exc:  # the base point lies inside --radius
        raise ConfigError(str(exc))
    csv = "t,value,terms,tail\n" + "".join(
        "%.9g,%.17g,%d,%.3g\n"
        % (s.t, s.value, s.terms_used, s.tail_estimate) for s in samples)
    profile = tf.dyadic_exponents(samples[-1].block_sums)
    written = [
        _write(cfg, "transfer.csv", csv),
        _write(cfg, "transfer.json", json.dumps(
            {"w": [w.real, w.imag], "profile_exponents": profile},
            indent=2, sort_keys=True) + "\n"),
    ]
    return {"written": written}


def _frontier(atlas, n, branch_budget):
    """The iterate frontier at the base point, which serves every t;
    a base point inside --radius is a ConfigError."""
    try:
        return tf.iterate_frontier(atlas, tf.BASE_POINT, n, branch_budget)
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_pressure(cfg, handle):
    t_grid = _positive_t_grid(cfg)
    frontier = _frontier(_find_tracts(handle, cfg), 3, cfg.branch_budget)
    fits = [tf.pressure_entire(frontier, t) for t in t_grid]
    csv = "t,pressure,residual\n" + "".join(
        "%.9g,%.17g,%.3g\n" % (t, fit.value, fit.residual)
        for t, fit in zip(t_grid, fits))
    written = [_write(cfg, "pressure.csv", csv)]
    return {"written": written}


def cmd_hypdim(cfg, handle, poly_text=None):
    if poly_text is not None:
        p = _parse_poly(poly_text)
        bz = poly.bowen_zero_poly(p, 12, node_budget=cfg.node_budget)
        return {"result": {"bowen_zero": bz.value, "width": bz.width,
                           "bracket": list(bz.bracket)}}
    atlas = _find_tracts(handle, cfg)
    branch = atlas.tracts[0]
    sampled = branch.sampled
    tables = sp.means_tables(branch, cfg.T_grid())
    theta = sp.theta_f(tables)
    # Without a closed-form contour map every tree node walks the
    # quadrature path, so deep iteration is priced out; two levels and a
    # small frontier already pin the zero to the reported bracket width.
    n_max = 2 if sampled else 3
    branch_budget = min(cfg.branch_budget, 32) if sampled \
        else cfg.branch_budget
    # one frontier serves every t of both bracket attempts
    frontier = _frontier(atlas, n_max, branch_budget)
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
    _write(cfg, "hypdim.json",
           json.dumps(result, indent=2, sort_keys=True) + "\n")
    return {"result": result}


def cmd_verify(cfg, idents=None):
    from . import checks

    unknown = sorted(set(idents or ()) - {cid for cid, _, _ in checks.CHECKS})
    if unknown:
        raise ConfigError("unknown check ids: %s" % unknown)
    results = checks.run_all(idents)
    report = "tractdim verify\n" + checks.format_report(results)
    _write(cfg, "verify.txt", report)
    # durations vary run to run, so they stay out of verify.txt
    seconds = {r.ident: r.seconds for r in results}
    _write(cfg, "verify_seconds.json",
           json.dumps(seconds, indent=2, sort_keys=True) + "\n")
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
        for f in _FLAG_FIELDS:
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
        if args.command == "tract-plot":
            out = cmd_tract_plot(cfg, handle, args.Tlist)
        elif args.command == "spectrum":
            out = cmd_spectrum(cfg, handle)
        elif args.command == "transfer":
            out = cmd_transfer(cfg, handle)
        elif args.command == "pressure":
            out = cmd_pressure(cfg, handle)
        elif args.command == "hypdim":
            out = cmd_hypdim(cfg, handle, args.poly)
        elif args.command == "verify":
            return cmd_verify(cfg, args.only)
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
