"""Float summaries of sweep rows for the constant-tracking tests.

An asymptotic claim value <= C * n^exponent cannot be asserted at finite
n; these track the constant value / n^exponent over the rows of a sweep
instead (criterion 9 and test_sweeps).
"""

from fractions import Fraction

from pencils.projective import _exact

_CEILING_TOLERANCE = 0.05  # fitted_ceiling_violations' 5 %


def fitted_ceiling_violations(rows, field: str, exponent):
    """Consecutive-n crossings of the running constant ceiling.

    value/n^exponent estimates the constant in front of a claimed power
    law; the ceiling at each n is the largest ratio fitted so far, and a
    violation is a step that crosses it by more than 5 %.  An empty list
    means the tracked constant stayed monotone-bounded."""
    violations = []
    ceiling = None
    for n, ratio in tracking_ratios(rows, field, exponent):
        if ceiling is not None and ratio > (1.0 + _CEILING_TOLERANCE) * ceiling:
            violations.append((n, ratio, ceiling))
        ceiling = ratio if ceiling is None else max(ceiling, ratio)
    return violations


def tracking_ratios(rows, field: str, exponent) -> list[tuple[int, float]]:
    """value / n^exponent per row; the constant-tracking companion to an
    asymptotic claim that cannot be asserted at finite n.  The exponent is
    an int, a Fraction or a 'p/q' string; a float or a bool raises
    TypeError."""
    e = float(_exact(exponent, Fraction))
    return [(row.n, getattr(row, field) / row.n ** e) for row in rows]
