"""Exact and analytic tools for the genus-3 family
y^2 = (x^4 + a x^2 + 1)(x^4 + b x^2 + 1): quotient curves, marked-tuple
normalisation, the deck involution on parameters, finite symplectic torsion
calculus, Velu isogenies, and Prym period matrices.
"""

from .errors import KleinPrymError
from .algebra import Polynomial
from .projline import MarkedTuple, MobiusMap, ProjectivePoint
from .family import CurveLabel, FamilyParams, InvolutionLabel, check_domain
from .moduli import phi_params, prym_fiber_invariants
from .torsion import TorsionPoint, duality_chain, example_surj_report
from .isogeny import KernelPoint, WeierstrassCurve, velu_quotient

__version__ = "0.1.0"

__all__ = [
    "KleinPrymError",
    "ComplexApprox", "Polynomial",
    "MarkedTuple", "MobiusMap", "ProjectivePoint",
    "CurveLabel", "FamilyParams", "InvolutionLabel", "check_domain",
    "phi_params", "prym_fiber_invariants",
    "TorsionPoint", "duality_chain", "example_surj_report",
    "KernelPoint", "WeierstrassCurve", "velu_quotient",
    "PeriodPair", "PrymPeriodMatrix", "elliptic_periods_agm",
    "__version__",
]

# The analytic layer imports mpmath, so its names load on first use.
_PERIODS_NAMES = ("ComplexApprox", "PeriodPair", "PrymPeriodMatrix", "elliptic_periods_agm")


def __getattr__(name):
    if name in _PERIODS_NAMES:
        from . import periods

        return getattr(periods, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
