"""Ground sets, bipartite edge sets, graph-restricted ratio sets and
multiplication-table sizes.

Edges are stored as index pairs into the two ground sets (a sorted,
deduplicated uint32 array), which keeps ten-million-edge sweeps compact
while every derived quantity stays exact; projective's tuple kernels key
the edges as (i, j) pairs, sort and dedup them.  Ratio sets are integer
arrays: the shifted ground sets' numerators and denominators are gathered
along the edges and multiplied, then reduced and deduplicated as (num,
den) tuples, in the dtype exact_dtype picks from a Python-int bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ZeroDenominator
from .projective import _affine_image, _distinct, _exact, _keys, _normalise, exact_dtype

__all__ = [
    "GroundSet",
    "BipartiteGraph",
    "shifted_restricted_ratio_set",
    "neighbourhood_square_sum",
    "multiplication_table_size",
]


class GroundSet:
    """Distinct rationals (a float or bool raises TypeError) in a fixed order,
    held as integer arrays: the reduced numerators and positive denominators,
    int64 when the height (the largest |numerator| or denominator, 0 when
    empty) is below 2^62, else Python ints.  ``elements`` builds Fractions."""

    __slots__ = ("numerators", "denominators", "height")

    def __init__(self, elements):
        pairs = [_exact(e, Fraction).as_integer_ratio() for e in elements]
        self.height = max((max(abs(p), q) for p, q in pairs), default=0)
        rows = np.array(pairs, dtype=exact_dtype(self.height)).reshape(-1, 2)
        self.numerators, self.denominators = rows.T.copy()
        if len(_distinct(_keys(rows.T), rows.dtype)[0]) != len(pairs):
            raise ValueError("ground set elements must be pairwise distinct")

    @property
    def elements(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.numerators.tolist(), self.denominators.tolist()))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.numerators)

    def __eq__(self, other):
        return (isinstance(other, GroundSet) and np.array_equal(self.numerators, other.numerators)
                and np.array_equal(self.denominators, other.denominators))

    def __repr__(self):
        shown = [str(e) for e in self.elements] if len(self) <= 6 else f"<{len(self)} elements>"
        return f"GroundSet({shown})"


def _sorted_ground(num, den):
    """The GroundSet of the distinct values among reduced (num, den) integer
    arrays, den > 0, in increasing order, and the uint32 position of every
    input pair in it.  The key floor(num * D^2 / den), D the largest den, is
    exact: distinct values differ by at least 1/D^2, so their keys differ."""
    height = max(int(np.abs(num).max(initial=0)), int(den.max(initial=0)))
    scale = int(den.max(initial=1)) ** 2
    dtype = exact_dtype(height * scale)
    _, first, pos = np.unique(num.astype(dtype) * scale // den.astype(dtype),
                              return_index=True, return_inverse=True)
    ground = GroundSet.__new__(GroundSet)
    ground.numerators, ground.denominators = (v[first].astype(exact_dtype(height))
                                              for v in (num, den))
    ground.height = height
    return ground, pos.astype(np.uint32)


class BipartiteGraph:
    """Explicit edge set E(G) over two indexed ground sets.

    The edge array is sorted lexicographically and deduplicated, so two
    graphs with the same edges compare and serialize identically.  Indices
    must be exact ints (or an integer dtype) inside the ground sets, checked
    before the uint32 cast, which would truncate 0.5 and read True as 1.
    """

    __slots__ = ("left", "right", "edge_array")

    def __init__(self, left: GroundSet, right: GroundSet, edges):
        self.left = left
        self.right = right
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        arr = np.asarray(edges)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (i, j) index pairs")
        # numpy reads a bool among ints as an int, so a list is checked per entry
        exact = arr.dtype.kind in "iu" and (isinstance(edges, np.ndarray) or all(
            type(v) is int for pair in edges for v in pair))
        if arr.size and not (exact and arr.min() >= 0 and arr[:, 0].max() < len(left)
                             and arr[:, 1].max() < len(right)):
            raise ValueError("edge index out of range or not an integer")
        arr = arr.astype(np.uint32, copy=False)
        box = ((0, len(left) - 1), (0, len(right) - 1))
        self.edge_array = np.stack(_distinct(_keys(arr.T, box), np.uint32), axis=1)

    @property
    def edge_count(self) -> int:
        return int(self.edge_array.shape[0])

    def transpose(self) -> "BipartiteGraph":
        return BipartiteGraph(self.right, self.left, self.edge_array[:, ::-1])

    def __eq__(self, other):
        return (
            isinstance(other, BipartiteGraph)
            and self.left == other.left
            and self.right == other.right
            and np.array_equal(self.edge_array, other.edge_array)
        )

    def __repr__(self):
        return (f"BipartiteGraph(|left|={len(self.left)}, "
                f"|right|={len(self.right)}, |E|={self.edge_count})")


def _shifted(ground: GroundSet, x: Fraction):
    """The reduced numerator and denominator arrays of ground + x (the affine
    image u*r + x with u = 1), and their height.  Before reduction every
    entry, and x's own numerator and denominator, is at most
    max(H, 1) * (|x.num| + x.den), with H the height of the ground set."""
    dtype = exact_dtype(max(ground.height, 1) * (abs(x.numerator) + x.denominator))
    num, den = _affine_image(1, 1, ground.numerators, ground.denominators, x, dtype)
    return num, den, int(max(np.abs(num).max(initial=0), den.max(initial=0)))


def _edge_ratios(graph: BipartiteGraph, p, q):
    """Reduced (num, den) arrays of p_a / q_b = (pn*qd) / (pd*qn) per edge
    (a, b), den > 0, bounded by H_P*H_Q, for p and q the _shifted left and
    right ground sets.  Raises ZeroDenominator if q_b = 0 on an edge:
    skipping the edge would corrupt every downstream count."""
    (pn, pd, hp), (qn, qd, hq) = p, q
    dtype = exact_dtype(hp * hq)
    pn, pd, qn, qd = (v.astype(dtype, copy=False) for v in (pn, pd, qn, qd))
    i, j = graph.edge_array[:, 0], graph.edge_array[:, 1]
    den = pd[i]
    den *= qn[j]
    zero = den == 0
    if zero.any():
        b, ground = j[zero.argmax()], graph.right
        raise ZeroDenominator(Fraction(int(ground.numerators[b]), int(ground.denominators[b])))
    num = pn[i]
    num *= qd[j]
    return _normalise(den, num)[::-1]


def _ratio_arrays(graph: BipartiteGraph, x=0, y=0):
    """The distinct (a + x) / (b + y) over the edges as reduced (num, den)
    arrays, sorted by (num, den), in the edge ratios' dtype."""
    num, den = _edge_ratios(graph, _shifted(graph.left, _exact(x, Fraction)),
                            _shifted(graph.right, _exact(y, Fraction)))
    keyed, dtype = _keys((num, den)), num.dtype
    del num, den  # the sort needs only the keys, so the edge ratios go first
    return _distinct(keyed, dtype)


def shifted_restricted_ratio_set(graph: BipartiteGraph, x=0, y=0) -> frozenset[Fraction]:
    """{ (a + x) / (b + y) : (a, b) an edge }, deduplicated as integer arrays;
    Fractions only for the distinct values.  ZeroDenominator if b + y = 0."""
    return frozenset(map(Fraction, *(v.tolist() for v in _ratio_arrays(graph, x, y))))


def neighbourhood_square_sum(graph: BipartiteGraph) -> int:
    """Sum of |N(a)|^2 over the left ground set; degrees by bincount, squares in Python ints."""
    degrees = np.bincount(graph.edge_array[:, 0], minlength=len(graph.left))
    return sum(d * d for d in degrees.tolist())


# Time guard for the product sieve, which marks about n^2/2 products.
_TABLE_SIEVE_LIMIT = 20_000

# The sieve walks [1, n^2] in windows of this many cells, so its mask
# stays small (2 MB) whatever n is.
_SIEVE_SEGMENT = 1 << 21


def multiplication_table_size(n: int) -> int:
    """Exact |{ a*b : 1 <= a, b <= n }| via a segmented sieve over [1, n^2].

    For each a the products a*b with b >= a form the arithmetic
    progression a^2, a^2 + a, ..., a*n.  Each window [lo, hi) of the
    range marks the part of that progression inside it, for the a with
    a^2 < hi and a*n >= lo, and counts its marked cells.
    """
    n = _exact(n)
    if n < 1:
        raise PreconditionError("multiplication table needs n >= 1")
    if n > _TABLE_SIEVE_LIMIT:
        raise ValueError(
            f"n = {n} exceeds the sieve guard ({_TABLE_SIEVE_LIMIT}); "
            f"the sieve would mark about {n * n // 2:,} products"
        )
    top = n * n + 1
    mask = np.empty(min(_SIEVE_SEGMENT, top - 1), dtype=bool)
    size = 0
    for lo in range(1, top, _SIEVE_SEGMENT):
        hi = min(lo + _SIEVE_SEGMENT, top)
        window = mask[: hi - lo]
        window[:] = False
        for a in range(max(1, -(-lo // n)), math.isqrt(hi - 1) + 1):
            first = max(a * a, -(-lo // a) * a)
            window[first - lo : min(a * n, hi - 1) - lo + 1 : a] = True
        size += int(np.count_nonzero(window))
    return size
