"""Exception hierarchy shared by every module."""


class KleinPrymError(Exception):
    """Base class for all reported errors (never raised directly)."""


class DegreeError(KleinPrymError):
    """Zero/constant polynomial where positive degree is required."""


class DomainError(KleinPrymError):
    """Parameters outside the smooth family domain, or a bad numeric domain."""


class DegenerateConfiguration(KleinPrymError):
    """Repeated points where pairwise-distinct points are required."""


class ArgumentError(KleinPrymError):
    """Structurally invalid argument (wrong label, wrong frame, out of range)."""


class PhiUndefined(KleinPrymError):
    """The deck involution is undefined: a + b = 0."""


class LevelError(KleinPrymError):
    """Torsion points of mismatched level combined."""


class NotIsotropic(KleinPrymError):
    """Kernel subgroup is not isotropic for the symplectic pairing."""


class PointError(KleinPrymError):
    """Point does not lie on the claimed curve."""


class OrderError(KleinPrymError):
    """Claimed point order is wrong or out of the supported range."""


class SingularError(KleinPrymError):
    """Singular Weierstrass equation."""


class PrecisionError(KleinPrymError):
    """An iteration failed to converge within the precision budget."""


class InternalInvariantError(KleinPrymError):
    """A structural invariant that the library itself guarantees was violated."""
