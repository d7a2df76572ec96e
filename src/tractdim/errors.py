"""Exception types shared across the package.

Every failure mode that carries numerical meaning gets its own class so
callers (and the CLI) can map it to a structured diagnostic instead of
pattern-matching message strings.
"""


class TractdimError(Exception):
    """Base class for all package errors."""


class NonConvergence(TractdimError):
    """Root finder failed to reach its residual tolerance."""


class BudgetExceeded(TractdimError):
    """A tree or term budget would be exceeded."""


class BranchLoss(TractdimError):
    """Boettcher continuation lost its branch near the unit circle."""


class NotRepelling(TractdimError):
    """Linearization requested at a non-repelling fixed point."""


class Overflow(TractdimError):
    """A function value left floating range; never returned as silent inf."""


class Underflow(TractdimError):
    """A positive sum rounded to 0, so its log is undefined."""


class ScaleFloor(TractdimError):
    """Disjoint-type rescaling hit the minimum |kappa| without separating."""


class ZeroDenominator(TractdimError):
    """Cylindrical derivative undefined (|f(z)| or |f'| below floor)."""


class NoTractFound(TractdimError):
    """Tract search found no escaping point in the search annulus."""


class ContinuationStall(TractdimError):
    """Inverse-map continuation step size underflowed."""


class DegenerateDerivative(TractdimError):
    """A preimage-tree node hit the critical tree (derivative underflow)."""


class NoSignChange(TractdimError):
    """Bisection bracket shows no sign change."""


class DivergenceDetected(TractdimError):
    """Transfer-operator series diverges (dyadic blocks not decreasing)."""


class InvalidGrid(TractdimError):
    """Configuration grid empty, unsorted or otherwise unusable."""
