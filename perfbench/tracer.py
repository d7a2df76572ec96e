"""Outside-in tracing of tractdim's layers.

``install`` replaces public functions of the tractdim modules with wrappers
that record a span per call (name, start, end, parent) and the counters
below.  Nothing in ``src/`` changes: every caller inside the package looks
these functions up as module attributes at call time, so the wrappers see
every call.  ``checks.CHECKS`` holds its functions in a tuple, so that tuple
is replaced by one of wrapped functions.

Self time of a span is its duration minus the time its child spans cover,
and is summed per layer group.  Roots are the benchmark's own set-up and
operation spans; their self time is the time no wrapped function covers.
"""

import contextlib
import functools
import importlib
import time
from array import array
from collections import Counter, defaultdict


def _size(pos, key):
    def size(args, kwargs):
        import numpy as np

        return int(np.size(args[pos] if len(args) > pos else kwargs[key]))

    return size


_targets = _size(2, "targets")


def _aberth(counts, args, kwargs, result):
    counts["kernels.aberth.targets"] += _targets(args, kwargs)
    counts["kernels.aberth.unconverged"] += int((~result[1]).sum())


def _tree(counts, args, kwargs, result):
    counts["poly.tree.nodes"] += sum(len(pts) for pts, _ in result)


def _points(metric, pos, key):
    size = _size(pos, key)

    def count(counts, args, kwargs, result):
        counts[metric] += size(args, kwargs)

    return count


def _terms(counts, args, kwargs, result):
    counts["transfer.apply_point.terms"] += result.terms_used


#: (module, function, span name, self-time group, counter).  The span name
#: keys call counts and inclusive time; the group keys self time.
WRAPPED = (
    ("_kernels", "aberth_batch", "kernels.aberth", "kernels.aberth", _aberth),
    ("poly", "_preimage_levels", "poly.tree.build", "poly.tree", _tree),
    ("poly", "tree_pressure", "poly.tree_pressure", "poly.tree", None),
    ("poly", "bowen_zero_poly", "poly.bowen_zero", "poly.tree", None),
    ("poly", "bottcher_means_spectrum", "poly.bottcher.means",
     "poly.bottcher", None),
    ("poly", "bottcher_circle_means", "poly.bottcher.circle", "poly.bottcher",
     None),
    ("poly", "bottcher_inverse", "poly.bottcher.inverse", "poly.bottcher",
     None),
    ("poly", "_log_phi_and_deriv", "poly.bottcher.orbit", "poly.bottcher",
     _points("poly.bottcher.orbit_points", 1, "z")),
    ("linearizer", "linearizer_log_eval", "linearizer.log_eval",
     "linearizer.log_eval", _points("linearizer.log_eval.points", 1, "z")),
    ("linearizer", "make_disjoint_type", "linearizer.disjoint_type",
     "linearizer.disjoint_type", None),
    ("tract", "find_tracts", "tract.find_tracts", "tract.find_tracts", None),
    ("tract", "phi_eval", "tract.phi_eval", "tract.phi_eval", None),
    ("tract", "phi_path", "tract.phi_path", "tract.phi_path",
     _points("tract.phi_path.points", 1, "xis")),
    ("tract", "phi_refine", "tract.phi_refine", "tract.phi_refine",
     _points("tract.phi_refine.points", 1, "xi")),
    ("spectrum", "beta_infinity", "spectrum.beta_infinity",
     "spectrum.beta_infinity", None),
    ("spectrum", "theta_f", "spectrum.theta_f", "spectrum.theta_f", None),
    ("transfer", "transfer_apply_point", "transfer.apply_point",
     "transfer.apply_point", _terms),
    ("transfer", "transfer_iterate", "transfer.iterate", "transfer.iterate",
     None),
    ("transfer", "pressure_entire", "transfer.pressure", "transfer.pressure",
     None),
    ("cli", "cmd_tract_plot", "cli.tract_plot", "cli", None),
    ("cli", "cmd_spectrum", "cli.spectrum", "cli", None),
    ("cli", "cmd_transfer", "cli.transfer", "cli", None),
    ("cli", "cmd_pressure", "cli.pressure", "cli", None),
    ("cli", "cmd_hypdim", "cli.hypdim", "cli", None),
    ("cli", "cmd_verify", "cli.verify", "cli", None),
)

#: Checks the workloads run, each wrapped through ``checks.CHECKS``.
CHECK_IDS = (1, 2, 3, 4, 5, 6, 7, 11)

ROOT = "root"

#: Per-layer metric -> (kind, key).  "self" is a group's self time,
#: "total" a span name's inclusive time, "calls" its call count, "count" a
#: counter.  Units follow the name: "_s" is seconds, anything else a count.
LAYER_METRICS = {
    "kernels.aberth.calls": ("calls", "kernels.aberth"),
    "kernels.aberth.targets": ("count", "kernels.aberth.targets"),
    "kernels.aberth.unconverged": ("count", "kernels.aberth.unconverged"),
    "kernels.aberth.self_s": ("self", "kernels.aberth"),
    "poly.tree.builds": ("calls", "poly.tree.build"),
    "poly.tree.nodes": ("count", "poly.tree.nodes"),
    "poly.tree.self_s": ("self", "poly.tree"),
    "poly.bottcher.circles": ("calls", "poly.bottcher.circle"),
    "poly.bottcher.orbit_calls": ("calls", "poly.bottcher.orbit"),
    "poly.bottcher.orbit_points": ("count", "poly.bottcher.orbit_points"),
    "poly.bottcher.self_s": ("self", "poly.bottcher"),
    "linearizer.log_eval.calls": ("calls", "linearizer.log_eval"),
    "linearizer.log_eval.points": ("count", "linearizer.log_eval.points"),
    "linearizer.log_eval.self_s": ("self", "linearizer.log_eval"),
    "linearizer.disjoint_type_s": ("self", "linearizer.disjoint_type"),
    "tract.phi_eval.calls": ("calls", "tract.phi_eval"),
    "tract.phi_eval.self_s": ("self", "tract.phi_eval"),
    "tract.phi_path.calls": ("calls", "tract.phi_path"),
    "tract.phi_path.points": ("count", "tract.phi_path.points"),
    "tract.phi_path.self_s": ("self", "tract.phi_path"),
    "tract.phi_refine.calls": ("calls", "tract.phi_refine"),
    "tract.phi_refine.points": ("count", "tract.phi_refine.points"),
    "tract.phi_refine.self_s": ("self", "tract.phi_refine"),
    "tract.find_tracts_s": ("self", "tract.find_tracts"),
    "spectrum.beta_infinity.calls": ("calls", "spectrum.beta_infinity"),
    "spectrum.beta_infinity.self_s": ("self", "spectrum.beta_infinity"),
    "spectrum.theta_f.calls": ("calls", "spectrum.theta_f"),
    "spectrum.theta_f.self_s": ("self", "spectrum.theta_f"),
    "transfer.apply_point.calls": ("calls", "transfer.apply_point"),
    "transfer.apply_point.terms": ("count", "transfer.apply_point.terms"),
    "transfer.apply_point.self_s": ("self", "transfer.apply_point"),
    "transfer.iterate.calls": ("calls", "transfer.iterate"),
    "transfer.iterate.self_s": ("self", "transfer.iterate"),
    "transfer.pressure.evals": ("calls", "transfer.pressure"),
    "transfer.pressure.self_s": ("self", "transfer.pressure"),
    "checks.self_s": ("self", "checks"),
    **{"checks.c%d_s" % i: ("total", "checks.c%d" % i) for i in CHECK_IDS},
    "cli.self_s": ("self", "cli"),
    **{"%s_s" % name: ("total", name)
       for _, _, name, group, _ in WRAPPED if group == "cli"},
}


class Recorder:
    """Spans kept in memory; self time, calls and counters summed online."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []  # [span index, child time so far]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def enter(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.span_name.append(self._ids[name])
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([index, 0.0])
        self.start.append(time.perf_counter())

    def exit(self, name, group):
        end = time.perf_counter()
        index, child = self._stack.pop()
        self.end[index] = end
        duration = end - self.start[index]
        self.self_s[group] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def root(self, name):
        """A benchmark-owned span: one set-up or one operation."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit(name, ROOT)

    def layer_metrics(self):
        table = {"self": self.self_s, "total": self.total_s,
                 "calls": self.calls, "count": self.counts}
        return {metric: table[kind].get(key, 0)
                for metric, (kind, key) in LAYER_METRICS.items()}

    def spans(self):
        return {"names": self.names, "name": list(self.span_name),
                "start": list(self.start), "end": list(self.end),
                "parent": list(self.parent)}


def _wrap(rec, fn, name, group, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(name, group)
        if counter is not None:
            counter(rec.counts, args, kwargs, result)
        return result

    return wrapper


def install(rec):
    """Wrap every traced function; a missing name raises AttributeError
    before anything is wrapped."""
    found = []
    for mod, attr, name, group, counter in WRAPPED:
        module = importlib.import_module("tractdim." + mod)
        found.append((module, attr, getattr(module, attr), name, group,
                      counter))
    checks = importlib.import_module("tractdim.checks")
    missing = set(CHECK_IDS) - {cid for cid, _, _ in checks.CHECKS}
    if missing:
        raise AttributeError("checks.CHECKS lacks ids %s" % sorted(missing))
    for module, attr, fn, name, group, counter in found:
        setattr(module, attr, _wrap(rec, fn, name, group, counter))
    checks.CHECKS = tuple(
        (cid, label, _wrap(rec, fn, "checks.c%d" % cid, "checks", None))
        for cid, label, fn in checks.CHECKS)
