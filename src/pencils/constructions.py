"""Generators for the divisibility-graph and coprime-fraction constructions
and their realizations as pencil configurations.

A pencil's lines are one sorted (k, 3) array of distinct canonical integer
rows; pencils_from_graph hands each centre's join array straight to the
Pencil constructor, which builds no object per line.

Real-valued range bounds of the form n^e / (ln n)^d are evaluated as exact
integer floors (interval arithmetic decides the floor when d > 0); every
coordinate downstream is an integer or Fraction, never a float.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import CentreOnPointSet, PreconditionError
from .graphs import BipartiteGraph, GroundSet, _sorted_ground
from .projective import (
    ProjPoint,
    _distinct_rows,
    _exact,
    canonical_rows,
    cross_rows,
    exact_dtype,
    int_rows,
)

__all__ = [
    "CONSTRUCTION_TAGS",
    "build",
    "Pencil",
    "PencilConfig",
    "GraphConstruction",
    "floored_log_quotient",
    "build_farey_shift_construction",
    "build_symmetric_farey_construction",
    "general_position_centers",
    "pencils_from_graph",
    "standard_shift_centres",
    "build_m_pencil_config",
    "build_grid_footnote_config",
]


class Pencil:
    """A centre plus the distinct lines through it, held as ``rows``: one
    sorted (k, 3) integer array of canonical line triples."""

    __slots__ = ("centre", "rows")

    def __init__(self, centre: ProjPoint, lines):
        """``lines`` are integer triples, as a (k, 3) array or an iterable;
        a float raises TypeError.  Scaled and repeated triples give one row;
        a zero triple or a line missing the centre raises ValueError.  The
        incidence test's entries are at most 3*C*H (C, H the largest
        |centre coordinate| and |entry|)."""
        rows = lines if isinstance(lines, np.ndarray) else int_rows(lines, object)
        if rows.dtype.kind not in "iu" and not {int}.issuperset(map(type, rows.flat)):
            raise TypeError("line coefficients must be integers")
        c = max(abs(v) for v in centre.coords)
        h = max(-int(rows.min()), int(rows.max())) if len(rows) else 0
        rows = rows.astype(exact_dtype(3 * c * h), copy=False)
        if not (rows != 0).any(axis=1).all():
            raise ValueError("(0, 0, 0) does not represent a line")
        missed = rows[rows @ np.array(centre.coords, dtype=rows.dtype) != 0]
        if len(missed):
            raise ValueError(f"line {tuple(missed[0].tolist())} does not pass "
                             f"through the centre {centre}")
        self.centre = centre
        self.rows = _distinct_rows(canonical_rows(rows))

    @property
    def size(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Pencil) and self.centre == other.centre
                and np.array_equal(self.rows, other.rows))

    def __repr__(self):
        return f"Pencil(centre={self.centre}, {self.size} lines)"


class PencilConfig:
    """An ordered collection of pencils with pairwise distinct centres."""

    __slots__ = ("pencils", "label")

    def __init__(self, pencils, label: str = ""):
        pencils = tuple(pencils)
        if len({pc.centre for pc in pencils}) != len(pencils):
            raise PreconditionError("pencil centres must be pairwise distinct")
        self.pencils = pencils
        self.label = label

    @property
    def m(self) -> int:
        return len(self.pencils)

    def sizes(self) -> tuple[int, ...]:
        return tuple(pc.size for pc in self.pencils)

    def __repr__(self):
        return f"PencilConfig({self.label!r}, sizes={self.sizes()})"


class GraphConstruction:
    """A bipartite graph over rational ground sets plus its parameters."""

    __slots__ = ("graph", "n", "d", "label")

    def __init__(self, graph: BipartiteGraph, n: int, d, label: str):
        self.graph = graph
        self.n = _exact(n)
        self.d = _exact(d, Fraction)
        self.label = label

    @property
    def A(self) -> GroundSet:
        return self.graph.left

    @property
    def B(self) -> GroundSet:
        return self.graph.right

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    def __repr__(self):
        return (f"GraphConstruction({self.label!r}, |A|={len(self.A)}, "
                f"|B|={len(self.B)}, |E|={self.edge_count})")


# ---------------------------------------------------------------------------
# exact floors of transcendental bounds


def floored_log_quotient(n: int, d, sqrt_numerator: bool = False) -> int:
    """Exact floor of n/(ln n)^d, or of sqrt(n)/(ln n)^d.

    d = 0 short-circuits to integer arithmetic.  Otherwise the quotient is
    evaluated in interval arithmetic at increasing precision until both
    interval endpoints share a floor, which is then the true floor.
    """
    n, d = _exact(n), _exact(d, Fraction)
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        return math.isqrt(n) if sqrt_numerator else n
    if n < 3:
        raise PreconditionError("need ln n > 1 when d > 0")
    import mpmath

    iv = mpmath.iv
    saved = iv.prec
    try:
        prec = 80
        while prec <= 20_000:
            iv.prec = prec
            x = iv.mpf(n)
            num = iv.sqrt(x) if sqrt_numerator else x
            expo = iv.mpf(d.numerator) / iv.mpf(d.denominator)
            val = num / iv.exp(expo * iv.log(iv.log(x)))
            lo = int(mpmath.floor(val.a))
            hi = int(mpmath.floor(val.b))
            if lo == hi:
                return lo
            prec *= 2
    finally:
        iv.prec = saved
    raise ArithmeticError(f"floor of n/(ln n)^d undecided at n={n}, d={d}")


# ---------------------------------------------------------------------------
# graph constructions


def _block_graph(left: GroundSet, right: GroundSet, blocks) -> BipartiteGraph:
    """The graph that joins, within each (left positions, right positions)
    block, every left position to every right position."""
    return BipartiteGraph(left, right, np.concatenate(
        [np.stack(np.meshgrid(li, ri, indexing="ij"), axis=-1).reshape(-1, 2)
         for li, ri in blocks]))


def _coprime_blocks(upper: int, dens: range):
    """The reduced i/j, 1 <= i <= upper and j in dens, as (num, den) arrays
    in j-major order, and the np.split offsets of the blocks j > dens[0]."""
    i, j = np.meshgrid(np.arange(1, upper + 1), np.array(dens))
    keep = np.gcd(i, j) == 1
    return i[keep], j[keep], np.cumsum(keep.sum(axis=1))[:-1]


def build_farey_shift_construction(n: int, d=0) -> GraphConstruction:
    """Divisibility graph between reduced fractions and unit fractions.

    A = { i/j in lowest terms : 1 <= i <= U, U//2 <= j <= U } with
    U = floor(sqrt(n)/(ln n)^d), B = { 1/l : 1 <= l <= floor(n/(ln n)^d) },
    and (i/j, 1/l) is an edge exactly when j divides l.
    """
    n, d = _exact(n), _exact(d, Fraction)
    if (n < 4 and d == 0) or (n < 16 and d > 0):
        raise PreconditionError(f"n = {n} too small for d = {d}")
    upper = floored_log_quotient(n, d, sqrt_numerator=True)
    lower = max(1, upper // 2)
    l_max = floored_log_quotient(n, d)
    if upper < 2 or l_max < upper:
        raise PreconditionError(f"degenerate ranges at n = {n}, d = {d}")

    num, den, cuts = _coprime_blocks(upper, range(lower, upper + 1))
    left, lpos = _sorted_ground(num, den)
    right, rpos = _sorted_ground(np.ones(l_max, dtype=np.int64), np.arange(1, l_max + 1))
    # block j holds 1/l for l = j, 2j, ..., at rpos[l - 1]
    graph = _block_graph(left, right, zip(np.split(lpos, cuts),
                                          (rpos[j - 1::j] for j in range(lower, upper + 1))))
    return GraphConstruction(graph, n, d, f"farey-shift(n={n},d={d})")


def build_symmetric_farey_construction(n: int) -> GraphConstruction:
    """Same-denominator graph on reduced fractions with parts up to isqrt(n).

    A = { i/j in lowest terms : 1 <= i, j <= isqrt(n) }, and (i/j, k/j) is an
    edge for every pair sharing the denominator j; both ground sets are A.
    """
    n = _exact(n)
    if n < 1:
        raise PreconditionError("need n >= 1")
    s = math.isqrt(n)
    num, den, cuts = _coprime_blocks(s, range(1, s + 1))
    ground, pos = _sorted_ground(num, den)
    graph = _block_graph(ground, ground, ((p, p) for p in np.split(pos, cuts)))
    return GraphConstruction(graph, n, 0, f"symmetric(n={n})")


# ---------------------------------------------------------------------------
# centre sets


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    for q in range(2, math.isqrt(k) + 1):
        if k % q == 0:
            return False
    return True


def _least_prime_at_least(m: int) -> int:
    p = max(2, m)
    while not _is_prime(p):
        p += 1
    return p


def general_position_centers(m: int) -> list[ProjPoint]:
    """m lattice points with no three collinear, coordinates in [0, 2m].

    The parabola {(t, t^2 mod p) : 0 <= t < m} for the least prime p >= m
    (at most 2m by Bertrand's postulate).  Three of its points have
    determinant congruent mod p to the Vandermonde product of their
    pairwise differences in t; each difference is nonzero and below p in
    absolute value, so the product, and hence the determinant, is nonzero.
    """
    m = _exact(m)
    if m < 1:
        raise PreconditionError("need m >= 1")
    p = _least_prime_at_least(m)
    return [ProjPoint.from_affine(t, t * t % p) for t in range(m)]


def standard_shift_centres() -> list[ProjPoint]:
    """The canonical four-pencil centre set: (0,0), (-1,0), (-2,0), and the
    vertical direction at infinity (0 : 1 : 0)."""
    return [
        ProjPoint.from_affine(0, 0),
        ProjPoint.from_affine(-1, 0),
        ProjPoint.from_affine(-2, 0),
        ProjPoint(0, 1, 0),
    ]


# ---------------------------------------------------------------------------
# pencil realizations


def pencils_from_graph(construction: GraphConstruction, centres,
                       label: str | None = None) -> PencilConfig:
    """One pencil per centre: the lines joining the centre to every edge
    point (a, b) of the construction, deduplicated.

    Every pencil covers the whole edge-point set by definition, so each
    edge point is rich for the resulting configuration.  The edge points
    (an*bd : bn*ad : ad*bd) and their joins with a centre are integer
    arrays; with C the largest |centre coordinate| and H_A, H_B the largest
    |numerator| or denominator of each ground set, a point entry is at most
    H_A*H_B and a join entry at most 2*C*H_A*H_B, so the arrays are int64
    when 4*C*H_A*H_B < 2^62 and Python ints otherwise.
    """
    graph = construction.graph
    centres = list(centres)
    c = max((abs(v) for centre in centres for v in centre.coords), default=0)
    dtype = exact_dtype(4 * c * graph.left.height * graph.right.height)
    an, ad, bn, bd = (v.astype(dtype, copy=False) for g in (graph.left, graph.right)
                      for v in (g.numerators, g.denominators))
    i, j = graph.edge_array[:, 0], graph.edge_array[:, 1]
    points = np.stack((an[i] * bd[j], bn[j] * ad[i], ad[i] * bd[j]), axis=1)
    pencils = []
    for centre in centres:
        joins = cross_rows(int_rows([centre.coords], dtype), points)
        # the join vanishes exactly when the edge point is the centre
        if (joins == 0).all(axis=1).any():
            raise CentreOnPointSet(centre)
        pencils.append(Pencil(centre, joins))
    if label is None:
        label = f"pencils[{construction.label}]"
    return PencilConfig(pencils, label=label)


def build_m_pencil_config(m: int, n: int) -> PencilConfig:
    """m pencils over the symmetric construction, centred at the negated
    general-position lattice points, every pencil covering all edge points.

    Slopes from centre (-x, -y) to edge points are (k + yj)/(i + xj) with
    i, j, k <= isqrt(n), so each pencil has at most (1+x)(1+y)n lines.
    """
    return build("m-pencil", n, m=m)[1]


def build_grid_footnote_config(n: int) -> PencilConfig:
    """Four pencils of axis-parallel and diagonal lines covering the n x n
    integer grid: n horizontals, n verticals, 2n-1 of slope 1, 2n-1 of
    slope -1, all centres on the line at infinity.
    """
    n = _exact(n)
    if n < 1:
        raise PreconditionError("need n >= 1")
    horizontals = Pencil(ProjPoint(1, 0, 0), [(0, 1, -a) for a in range(1, n + 1)])
    verticals = Pencil(ProjPoint(0, 1, 0), [(1, 0, -a) for a in range(1, n + 1)])
    # y = x + c meets the grid for c in [-(n-1), n-1]; y = -x + c for c in [2, 2n]
    diag_up = Pencil(ProjPoint(1, 1, 0), [(1, -1, c) for c in range(-(n - 1), n)])
    diag_down = Pencil(ProjPoint(1, -1, 0), [(1, 1, -c) for c in range(2, 2 * n + 1)])
    return PencilConfig([horizontals, verticals, diag_up, diag_down],
                        label=f"grid-footnote(n={n})")


# ---------------------------------------------------------------------------
# family dispatch

CONSTRUCTION_TAGS = ("farey-shift", "symmetric", "grid-footnote", "m-pencil")


def build(construction: str, n: int, d=0, m=None, centres=None):
    """(GraphConstruction or None, PencilConfig or None) for a family tag.

    farey-shift (exponent d) and symmetric give their graph, realized as
    pencils when centres are given; grid-footnote gives only its config;
    m-pencil gives the symmetric graph and build_m_pencil_config's pencils.
    d is for farey-shift alone, m for m-pencil alone; the last two take no centres.
    """
    if construction not in CONSTRUCTION_TAGS:
        raise ValueError(f"unknown construction tag {construction!r}")
    if _exact(d, Fraction) != 0 and construction != "farey-shift":
        raise ValueError(f"d applies only to farey-shift, not {construction}")
    if (m is None) == (construction == "m-pencil"):
        raise ValueError("m-pencil needs m" if m is None
                         else f"m applies only to m-pencil, not {construction}")
    if centres is not None and construction in ("grid-footnote", "m-pencil"):
        raise ValueError(f"{construction} places its own centres")
    if construction == "grid-footnote":
        return None, build_grid_footnote_config(n)
    built = (build_farey_shift_construction(n, d) if construction == "farey-shift"
             else build_symmetric_farey_construction(n))
    if construction == "m-pencil":
        centres = [ProjPoint.from_affine(-x, -y)
                   for x, y in map(ProjPoint.to_affine, general_position_centers(m))]
        return built, pencils_from_graph(built, centres, f"m-pencil(m={m},n={n})")
    return built, None if centres is None else pencils_from_graph(built, centres)
