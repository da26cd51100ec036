"""Shared exception types.

``PreconditionError`` signals a contract violation on the way in and maps
to CLI exit code 2; its message says which precondition failed.  The two
subclasses carry the offending value for callers that read it.  A false
verification verdict (not an exception) maps to exit code 3.
"""


class PreconditionError(Exception):
    """An operation was called with inputs that violate its contract."""


class ZeroDenominator(PreconditionError):
    """A shifted ratio set hit b + y = 0 on an edge."""

    def __init__(self, value):
        super().__init__(f"shift makes denominator vanish at b = {value}")
        self.value = value


class CentreOnPointSet(PreconditionError):
    """A pencil centre coincides with a point it is supposed to cover."""

    def __init__(self, centre):
        super().__init__(f"centre {centre} lies on the covered point set")
        self.centre = centre
