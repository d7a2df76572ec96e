"""Numerics for thermodynamic formalism of entire functions of bounded type.

Tract geometry and rescaled boundary maps, integral-means spectra,
transfer-operator evaluation, polynomial tree pressure, Koenigs/Poincare
linearizers, and Bowen-zero estimates of hyperbolic dimension.
"""

from .errors import (
    TractdimError,
    NonConvergence,
    BudgetExceeded,
    BranchLoss,
    NotRepelling,
    Overflow,
    Underflow,
    ScaleFloor,
    ZeroDenominator,
    NoTractFound,
    ContinuationStall,
    DegenerateDerivative,
    NoSignChange,
    DivergenceDetected,
    InvalidGrid,
)

__version__ = "0.1.0"
