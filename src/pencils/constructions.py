"""Generators for the divisibility-graph and coprime-fraction constructions
and their realizations as pencil configurations.

Real-valued range bounds of the form n^e / (ln n)^d are evaluated as exact
integer floors (interval arithmetic decides the floor when d > 0); every
coordinate downstream is an integer or Fraction, never a float.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

from .errors import CentreOnPointSet, CoincidentCentres, DomainTooSmall
from .graphs import BipartiteGraph, GroundSet, _fraction_arrays, _height
from .projective import (
    ProjLine,
    ProjPoint,
    canonical_rows,
    cross_rows,
    exact_dtype,
    int_rows,
    row_triples,
)

__all__ = [
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
    """A centre plus a set of distinct lines all incident to it."""

    __slots__ = ("centre", "lines")

    def __init__(self, centre: ProjPoint, lines):
        lines = frozenset(lines)
        for line in lines:
            if not line.contains(centre):
                raise ValueError(f"{line} does not pass through the centre {centre}")
        self.centre = centre
        self.lines = lines

    @property
    def size(self) -> int:
        return len(self.lines)

    def sorted_lines(self) -> list[ProjLine]:
        """Deterministic line order for serialization and reports."""
        return sorted(self.lines)

    def __eq__(self, other):
        return (isinstance(other, Pencil)
                and self.centre == other.centre and self.lines == other.lines)

    def __repr__(self):
        return f"Pencil(centre={self.centre}, {len(self.lines)} lines)"


class PencilConfig:
    """An ordered collection of pencils with pairwise distinct centres."""

    __slots__ = ("pencils", "label")

    def __init__(self, pencils, label: str = ""):
        pencils = tuple(pencils)
        if len({pc.centre for pc in pencils}) != len(pencils):
            raise CoincidentCentres("pencil centres must be pairwise distinct")
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
        self.n = int(n)
        self.d = Fraction(d)
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
    d = Fraction(d)
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        return math.isqrt(n) if sqrt_numerator else n
    if n < 3:
        raise DomainTooSmall("need ln n > 1 when d > 0")
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


def build_farey_shift_construction(n: int, d=0) -> GraphConstruction:
    """Divisibility graph between reduced fractions and unit fractions.

    A = { i/j in lowest terms : 1 <= i <= U, U//2 <= j <= U } with
    U = floor(sqrt(n)/(ln n)^d), B = { 1/l : 1 <= l <= floor(n/(ln n)^d) },
    and (i/j, 1/l) is an edge exactly when j divides l.
    """
    d = Fraction(d)
    if (n < 4 and d == 0) or (n < 16 and d > 0):
        raise DomainTooSmall(f"n = {n} too small for d = {d}")
    upper = floored_log_quotient(n, d, sqrt_numerator=True)
    lower = max(1, upper // 2)
    l_max = floored_log_quotient(n, d)
    if upper < 2 or l_max < upper:
        raise DomainTooSmall(f"degenerate ranges at n = {n}, d = {d}")

    left = GroundSet.from_values(
        Fraction(i, j)
        for j in range(lower, upper + 1)
        for i in range(1, upper + 1)
        if math.gcd(i, j) == 1
    )
    right = GroundSet.from_values(Fraction(1, l) for l in range(1, l_max + 1))

    chunks = []
    for j in range(lower, upper + 1):
        left_idx = np.array(
            [left.index_of(Fraction(i, j))
             for i in range(1, upper + 1) if math.gcd(i, j) == 1],
            dtype=np.uint32,
        )
        right_idx = np.array(
            [right.index_of(Fraction(1, l)) for l in range(j, l_max + 1, j)],
            dtype=np.uint32,
        )
        if left_idx.size == 0 or right_idx.size == 0:
            continue
        pairs = np.empty((left_idx.size * right_idx.size, 2), dtype=np.uint32)
        pairs[:, 0] = np.repeat(left_idx, right_idx.size)
        pairs[:, 1] = np.tile(right_idx, left_idx.size)
        chunks.append(pairs)
    edges = np.vstack(chunks) if chunks else np.empty((0, 2), dtype=np.uint32)
    graph = BipartiteGraph(left, right, edges)
    return GraphConstruction(graph, n, d, f"farey-shift(n={n},d={d})")


def build_symmetric_farey_construction(n: int) -> GraphConstruction:
    """Same-denominator graph on reduced fractions with parts up to isqrt(n).

    A = { i/j in lowest terms : 1 <= i, j <= isqrt(n) }, and (i/j, k/j) is an
    edge for every pair sharing the denominator j; both ground sets are A.
    """
    if n < 1:
        raise DomainTooSmall("need n >= 1")
    s = math.isqrt(n)
    ground = GroundSet.from_values(
        Fraction(i, j)
        for j in range(1, s + 1)
        for i in range(1, s + 1)
        if math.gcd(i, j) == 1
    )
    chunks = []
    for j in range(1, s + 1):
        idx = np.array(
            [ground.index_of(Fraction(i, j))
             for i in range(1, s + 1) if math.gcd(i, j) == 1],
            dtype=np.uint32,
        )
        if idx.size == 0:
            continue
        pairs = np.empty((idx.size * idx.size, 2), dtype=np.uint32)
        pairs[:, 0] = np.repeat(idx, idx.size)
        pairs[:, 1] = np.tile(idx, idx.size)
        chunks.append(pairs)
    edges = np.vstack(chunks) if chunks else np.empty((0, 2), dtype=np.uint32)
    graph = BipartiteGraph(ground, ground, edges)
    return GraphConstruction(graph, n, Fraction(0), f"symmetric(n={n})")


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


def _no_three_collinear(coords: list[tuple[int, int]]) -> bool:
    """Slope-hash sweep: equivalent to testing all triples, but O(m^2)."""
    pts = sorted(coords)
    for k, (x0, y0) in enumerate(pts):
        seen = set()
        for x1, y1 in pts[k + 1:]:
            dx, dy = x1 - x0, y1 - y0
            g = math.gcd(dx, dy)
            key = (dx // g, dy // g)
            if key in seen:
                return False
            seen.add(key)
    return True


# Exhaustive verification is skipped above this size; for larger m the
# parabola argument below guarantees the property outright.
_GENERAL_POSITION_CHECK_LIMIT = 1000


def general_position_centers(m: int) -> list[ProjPoint]:
    """m lattice points with no three collinear, coordinates in [0, 2m].

    Uses the parabola {(t, t^2 mod p) : 0 <= t < m} for the least prime
    p >= m: any three points have determinant congruent to a product of
    nonzero differences mod p, hence nonzero.  The explicit check is kept
    as a guard (advancing p on failure) rather than trusted blindly.
    """
    if m < 1:
        raise DomainTooSmall("need m >= 1")
    p = _least_prime_at_least(m)
    while True:
        coords = [(t, (t * t) % p) for t in range(m)]
        if m > _GENERAL_POSITION_CHECK_LIMIT or _no_three_collinear(coords):
            return [ProjPoint.from_affine(x, y) for x, y in coords]
        p = _least_prime_at_least(p + 1)


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
    dtype = exact_dtype(4 * c * _height(graph.left) * _height(graph.right))
    an, ad = _fraction_arrays(graph.left, dtype)
    bn, bd = _fraction_arrays(graph.right, dtype)
    i, j = graph.edge_array[:, 0], graph.edge_array[:, 1]
    points = np.stack((an[i] * bd[j], bn[j] * ad[i], ad[i] * bd[j]), axis=1)
    pencils = []
    for centre in centres:
        joins = cross_rows(int_rows([centre.coords], dtype), points)
        # the join vanishes exactly when the edge point is the centre
        if (joins == 0).all(axis=1).any():
            raise CentreOnPointSet(centre)
        lines = set(row_triples(canonical_rows(joins)))
        pencils.append(Pencil(centre, (ProjLine(*t) for t in lines)))
    if label is None:
        label = f"pencils[{construction.label}]"
    return PencilConfig(pencils, label=label)


def build_m_pencil_config(m: int, n: int) -> PencilConfig:
    """m pencils over the symmetric construction, centred at the negated
    general-position lattice points, every pencil covering all edge points.

    Slopes from centre (-x, -y) to edge points are (k + yj)/(i + xj) with
    i, j, k <= isqrt(n), so each pencil has at most (1+x)(1+y)n lines.
    """
    construction = build_symmetric_farey_construction(n)
    base = general_position_centers(m)
    centres = []
    shifts = []
    for pt in base:
        x, y = pt.to_affine()
        shifts.append((x, y))
        centres.append(ProjPoint.from_affine(-x, -y))
    config = pencils_from_graph(construction, centres,
                                label=f"m-pencil(m={m},n={n})")
    for pencil, (x, y) in zip(config.pencils, shifts):
        assert pencil.size <= (1 + x) * (1 + y) * n
    return config


def build_grid_footnote_config(n: int) -> PencilConfig:
    """Four pencils of axis-parallel and diagonal lines covering the n x n
    integer grid: n horizontals, n verticals, 2n-1 of slope 1, 2n-1 of
    slope -1, all centres on the line at infinity.
    """
    if n < 1:
        raise DomainTooSmall("need n >= 1")
    horizontals = Pencil(
        ProjPoint(1, 0, 0),
        (ProjLine(0, 1, -a) for a in range(1, n + 1)),
    )
    verticals = Pencil(
        ProjPoint(0, 1, 0),
        (ProjLine(1, 0, -a) for a in range(1, n + 1)),
    )
    # y = x + c meets the grid for c in [-(n-1), n-1]; y = -x + c for c in [2, 2n]
    diag_up = Pencil(
        ProjPoint(1, 1, 0),
        (ProjLine(1, -1, c) for c in range(-(n - 1), n)),
    )
    diag_down = Pencil(
        ProjPoint(1, -1, 0),
        (ProjLine(1, 1, -c) for c in range(2, 2 * n + 1)),
    )
    return PencilConfig([horizontals, verticals, diag_up, diag_down],
                        label=f"grid-footnote(n={n})")
