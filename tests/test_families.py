"""Property test of the interface every function family implements."""

import cmath
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractdim import checks, cli
from tractdim import linearizer as lz
from tractdim import tract as tr

#: handle -> largest |z| (Koenigs) or |xi| (closed form) sampled; the
#: exp-family radii keep f in float range
RADII = {"exp": 20.0, "quarter": 20.0, "square": 20.0, "composite": 20.0,
         "check8": 40.0, "koenigs:z^2-1": 40.0}
_handles = {}


def _handle(spec):
    if spec not in _handles:
        _handles[spec] = (lz.make_koenigs(checks.Z2, 1.0, kappa=0.25)
                          if spec == "check8" else cli.function_from_spec(spec))
    return _handles[spec]


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * (1 + abs(b))


def _closed_form(spec, z):
    """(f, f'/f) at z of the exp-family shorthands, written out."""
    if spec == "composite":  # e^{-6} e^{e^z}
        return cmath.exp(-6.0) * cmath.exp(cmath.exp(z)), cmath.exp(z)
    lam, d = {"exp": (1.0, 1), "quarter": (0.25, 1), "square": (1.0, 2)}[spec]
    return lam * cmath.exp(z**d), d * z ** (d - 1)


@pytest.mark.parametrize("spec", list(RADII))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(u=st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                            allow_infinity=False))
def test_family_interface(spec, u):
    h = _handle(spec)
    if isinstance(h, lz.KoenigsLinearizer):
        z = RADII[spec] * u
        logf, q = h.log_f_and_q(z)
        # the value ladder, and f(lam z) = p(f(z)) differentiated
        f = h.eval(z)
        lhs = h.lam * h.log_f_and_q(h.lam * z)[1]
        assert _close(lhs, q * f * h.p.derivative(f) / h.p(f))
        assert _close(cmath.exp(logf), f)
        return
    # a closed family is read through its tract builder: on every branch,
    # the written-out f maps phi(xi) to e^xi and phi' (f'/f)(phi) = 1
    xi = 1.0 + RADII[spec] * complex(abs(u.real), u.imag)
    for branch in tr.find_tracts(h, math.e).tracts:
        z, dphi = tr.phi_eval(branch, xi)
        f, q = _closed_form(spec, complex(z))
        res = cmath.log(f) - xi
        res = complex(res.real, math.remainder(res.imag, 2 * math.pi))
        assert abs(res) <= 1e-9 * (1 + abs(xi))
        assert _close(complex(dphi) * q, 1.0)


@pytest.mark.parametrize("cls, extra", [
    (lz.ExpPower, set()), (lz.CompositeExpModel, set()),
    # the sampled branch's log f and the value ladder that check 6 holds
    # it to
    (lz.KoenigsLinearizer, {"log_f_and_q", "eval"})])
def test_handle_members(cls, extra):
    # the pipeline reads a closed family only through its tract builder
    # and a Koenigs handle also through log_f_and_q, so a test-only member
    # cannot return unnoticed
    fields = {f.name for f in dataclasses.fields(cls)}
    members = {name for name in dir(cls) if not name.startswith("_")}
    assert members - fields == {"singular_radius"} | extra
