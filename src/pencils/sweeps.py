"""Scaling sweeps over the construction families and log-log exponent fits.

Each row is computed exactly (only wall_time_ms varies between runs); the
fits are the one place floats are expected, since they summarize growth
rates rather than counts.  SweepRow's fields are the sweep schema: the CSV
and JSON codecs and the fittable int columns all derive from them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .constructions import build, standard_shift_centres
from .errors import PreconditionError, ZeroDenominator
from .graphs import _ratio_arrays
from .projective import _exact
from .richpoints import rich_points

__all__ = [
    "SweepRow",
    "ExponentFit",
    "sweep",
    "fit_exponent",
]


@dataclass(frozen=True)
class SweepRow:
    n: int
    d: Fraction
    construction: str
    edge_count: int
    ratio_set_sizes: tuple
    rich_count: int
    pencil_sizes: tuple
    wall_time_ms: int


def _compute_row(construction, n, d, centres, m) -> SweepRow:
    """Build the family at n, count its rich points when it has a pencil
    config, and size one ratio set per affine centre of the config, read
    off its pencil by _affine_ratio_size, or the one at (0, 0) when the row
    has no config."""
    start = time.perf_counter()
    if construction == "farey-shift" and centres is None:
        centres = standard_shift_centres()
    built, config = build(construction, n, d, m, centres)
    report = None if config is None else rich_points(config)
    # the grid's centres all lie at infinity, so it sizes no ratio set
    ratio_sizes = (len(_ratio_arrays(built.graph)[0]),) if config is None else tuple(
        _affine_ratio_size(pc) for pc in config.pencils if not pc.centre.is_infinite)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return SweepRow(
        n=n,
        d=Fraction(d),
        construction=construction,
        # the covered grid plays the edge-point role for grid-footnote
        edge_count=n * n if built is None else built.edge_count,
        ratio_set_sizes=ratio_sizes,
        rich_count=0 if report is None else report.count,
        pencil_sizes=() if report is None else report.pencil_sizes,
        wall_time_ms=elapsed_ms,
    )


def _affine_ratio_size(pc) -> int:
    """|{(a - x)/(b - y)}| over the edge points (a, b) of a pencils_from_graph
    pencil centred at the affine (x, y): its size, as the line through (x, y)
    and (a, b) has direction (a - x : b - y).  An edge point with b = y puts
    the horizontal line (0 : 1 : -y) in the pencil and raises ZeroDenominator."""
    _, y = pc.centre.to_affine()
    if (pc.rows == (0, y.denominator, -y.numerator)).all(axis=1).any():
        raise ZeroDenominator(y)
    return pc.size


def sweep(construction: str, n_values, d=0, centres=None, m=None) -> list[SweepRow]:
    """One exactly-computed row per n, in ascending n order; every column
    except wall_time_ms is deterministic."""
    n_values = [_exact(n) for n in n_values]
    if n_values != sorted(n_values):
        raise ValueError("n_values must be sorted ascending")
    return [_compute_row(construction, n, d, centres, m) for n in n_values]


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r_squared: float
    n_range: tuple


def fit_exponent(rows, field: str = "edge_count") -> ExponentFit:
    """Least-squares slope of ln(value) against ln(n)."""
    points = []
    for row in rows:
        value = getattr(row, field)
        if value <= 0:
            raise PreconditionError(f"{field} = {value} at n = {row.n}")
        points.append((math.log(row.n), math.log(value)))
    if len({x for x, _ in points}) < 3:
        raise PreconditionError("need at least 3 distinct n values")
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    syy = sum((y - mean_y) ** 2 for _, y in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    r_squared = 1.0 if syy == 0 else min(1.0, sxy * sxy / (sxx * syy))
    return ExponentFit(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        n_range=(min(row.n for row in rows), max(row.n for row in rows)),
    )
