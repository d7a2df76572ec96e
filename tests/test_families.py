"""Property test of the interface every function family implements."""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractdim import checks, cli
from tractdim import linearizer as lz

#: handle -> largest |z| sampled; the exp-family radii keep f in float range
RADII = {"exp": 20.0, "quarter": 20.0, "square": 4.0, "composite": 4.0,
         "check8": 40.0, "koenigs:z^2-1": 40.0}
_handles = {}


def _handle(spec):
    if spec not in _handles:
        _handles[spec] = (lz.koenigs_handle(checks.Z2, 1.0, kappa=0.25)
                          if spec == "check8" else cli.function_from_spec(spec))
    return _handles[spec]


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * (1 + abs(b))


@pytest.mark.parametrize("spec", list(RADII))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(u=st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                            allow_infinity=False))
def test_family_interface(spec, u):
    h = _handle(spec)
    z = RADII[spec] * u
    logf, q = h.log_f_and_q(z)
    f = h.eval(z)
    assert _close(cmath.exp(logf), f)
    assert _close(q, h.derivative(z) / f)
    desc = h.to_json()
    assert lz.handle_from_json(desc).to_json() == desc
