"""Shared exception types.

``PreconditionError`` subclasses signal contract violations on the way
in and map to CLI exit code 2; a false verification verdict (not an
exception) maps to exit code 3.
"""


class PencilError(Exception):
    """Base class for package errors."""


class PreconditionError(PencilError):
    """An operation was called with inputs that violate its contract."""


class IdenticalPoints(PreconditionError):
    """Two supposedly distinct projective points coincide."""


class SingularMatrix(PreconditionError):
    """A projective transformation matrix has determinant zero."""


class ZeroDenominator(PreconditionError):
    """A shifted ratio set hit b + y = 0 on an edge."""

    def __init__(self, value):
        super().__init__(f"shift makes denominator vanish at b = {value}")
        self.value = value


class DomainTooSmall(PreconditionError):
    """Argument below the smallest value the formula is defined for."""


class CentreOnPointSet(PreconditionError):
    """A pencil centre coincides with a point it is supposed to cover."""

    def __init__(self, centre):
        super().__init__(f"centre {centre} lies on the covered point set")
        self.centre = centre


class PointIsCentre(PreconditionError):
    """Membership query for the pencil's own centre."""


class TooFewPencils(PreconditionError):
    """Rich-point counting needs at least two pencils."""


class CoincidentCentres(PreconditionError):
    """The two centres of an incidence instance coincide."""


class ShiftHitsB(PreconditionError):
    """A centre ordinate lies in B, so some ratio denominator vanishes."""


class TooFewPoints(PreconditionError):
    """An exponent fit needs at least three rows."""


class NonpositiveValue(PreconditionError):
    """Log-log fitting requires strictly positive values."""
