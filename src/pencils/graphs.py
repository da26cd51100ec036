"""Ground sets, bipartite edge sets, and graph-restricted operation sets.

Edges are stored as index pairs into the two ground sets (a sorted,
deduplicated uint32 array), which keeps ten-million-edge sweeps compact
while every derived quantity stays exact.  The shifted ratio set runs on
integer arrays: the numerators and denominators of the shifted ground
sets are gathered along the edges, multiplied, gcd-reduced and
deduplicated, in the dtype that projective.exact_dtype picks from a
bound computed in Python ints.  The sum and difference sets use Fraction
arithmetic.  No float feeds any of them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainTooSmall, ZeroDenominator
from .projective import exact_dtype

__all__ = [
    "GroundSet",
    "BipartiteGraph",
    "restricted_sum_set",
    "restricted_difference_set",
    "shifted_restricted_ratio_set",
    "neighbourhood_square_sum",
    "multiplication_table_size",
    "ford_estimate",
    "FORD_DELTA",
]


def _fraction_arrays(values, dtype):
    """Numerator and denominator arrays of a sequence of Fractions, in its
    order."""
    return (np.array([v.numerator for v in values], dtype=dtype),
            np.array([v.denominator for v in values], dtype=dtype))


def _height(values) -> int:
    """The largest |numerator| or denominator in a sequence of Fractions."""
    return max((max(abs(v.numerator), v.denominator) for v in values), default=0)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, sorted: np.sort and an
    adjacent-difference mask, which on numpy 2.4 is many times faster
    than np.unique."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class GroundSet:
    """Ordered collection of distinct rationals with positional indexing."""

    __slots__ = ("elements", "_index")

    def __init__(self, elements):
        elems = tuple(Fraction(e) for e in elements)
        index = {e: i for i, e in enumerate(elems)}
        if len(index) != len(elems):
            raise ValueError("ground set elements must be pairwise distinct")
        self.elements = elems
        self._index = index

    @classmethod
    def from_values(cls, values) -> "GroundSet":
        """Deduplicate and sort, the deterministic order used everywhere."""
        return cls(sorted({Fraction(v) for v in values}))

    def index_of(self, value) -> int:
        return self._index[Fraction(value)]

    def __contains__(self, value):
        return Fraction(value) in self._index

    def __getitem__(self, i) -> Fraction:
        return self.elements[i]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, GroundSet) and self.elements == other.elements

    def __repr__(self):
        if len(self.elements) <= 6:
            return f"GroundSet({[str(e) for e in self.elements]})"
        return f"GroundSet(<{len(self.elements)} elements>)"


class BipartiteGraph:
    """Explicit edge set E(G) over two indexed ground sets.

    The edge array is sorted lexicographically and deduplicated, so two
    graphs with the same edges compare and serialize identically.
    """

    __slots__ = ("left", "right", "edge_array")

    def __init__(self, left: GroundSet, right: GroundSet, edges):
        self.left = left
        self.right = right
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.uint32)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (i, j) index pairs")
        if arr.size:
            if int(arr[:, 0].max()) >= len(left) or int(arr[:, 1].max()) >= len(right):
                raise ValueError("edge index out of range")
        packed = arr[:, 0].astype(np.uint64) << np.uint64(32) | arr[:, 1].astype(np.uint64)
        packed = _distinct(packed)
        out = np.empty((packed.size, 2), dtype=np.uint32)
        out[:, 0] = (packed >> np.uint64(32)).astype(np.uint32)
        out[:, 1] = (packed & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        self.edge_array = out

    @property
    def edge_count(self) -> int:
        return int(self.edge_array.shape[0])

    def left_degrees(self) -> list[int]:
        """|N(a)| for every left element, in ground-set order."""
        if self.edge_count == 0:
            return [0] * len(self.left)
        counts = np.bincount(self.edge_array[:, 0], minlength=len(self.left))
        return [int(c) for c in counts]

    def neighbourhoods(self) -> dict[int, list[int]]:
        """Left index -> sorted list of right indices."""
        out: dict[int, list[int]] = {}
        for i, j in self.edge_array.tolist():
            out.setdefault(i, []).append(j)
        return out

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


def restricted_sum_set(graph: BipartiteGraph) -> frozenset[Fraction]:
    """{ a + b : (a, b) an edge }, deduplicated."""
    lv, rv = graph.left.elements, graph.right.elements
    return frozenset(lv[i] + rv[j] for i, j in graph.edge_array.tolist())


def restricted_difference_set(graph: BipartiteGraph) -> frozenset[Fraction]:
    """{ a - b : (a, b) an edge }, deduplicated."""
    lv, rv = graph.left.elements, graph.right.elements
    return frozenset(lv[i] - rv[j] for i, j in graph.edge_array.tolist())


def shifted_restricted_ratio_set(graph: BipartiteGraph, x=0, y=0) -> frozenset[Fraction]:
    """{ (a + x) / (b + y) : (a, b) an edge }, deduplicated.

    Raises ZeroDenominator if b + y = 0 for some b appearing on an edge;
    silently skipping edges would corrupt every downstream count.

    With p = a + x and q = b + y in lowest terms, the ratio is
    (pn*qd*sign(qn)) / (pd*|qn|), formed over all edges as integer arrays
    with a positive denominator.  Every entry is at most H_P*H_Q, the
    product of the largest |numerator| or denominator on each side, so
    the arrays are int64 when that bound is below 2^62 and Python ints
    otherwise.  The pairs are gcd-reduced and deduplicated by sorting one
    integer key per pair; Fractions are built only for the distinct
    values.
    """
    x, y = Fraction(x), Fraction(y)
    p = [a + x for a in graph.left]
    q = [b + y for b in graph.right]
    dtype = exact_dtype(_height(p) * _height(q))
    pn, pd = _fraction_arrays(p, dtype)
    qn, qd = _fraction_arrays(q, dtype)
    i, j = graph.edge_array[:, 0], graph.edge_array[:, 1]
    den = pd[i]
    den *= np.abs(qn)[j]
    zero = den == 0
    if zero.any():
        raise ZeroDenominator(graph.right[int(j[zero.argmax()])])
    num = pn[i]
    num *= (qd * np.sign(qn))[j]
    g = np.gcd(num, den)
    num //= g
    den //= g
    del g
    # one int64 key per pair from the ranks of its numerator and
    # denominator among their distinct values; both ranks are below |E|,
    # so the key is below |E|^2 < 2^63 for any edge array that fits in
    # memory
    nums, dens = _distinct(num), _distinct(den)
    width = len(dens)
    assert len(nums) * width < 1 << 63
    key = np.searchsorted(nums, num)
    key *= width
    key += np.searchsorted(dens, den)
    key = _distinct(key)
    return frozenset(map(Fraction, nums[key // width].tolist(),
                         dens[key % width].tolist()))


def neighbourhood_square_sum(graph: BipartiteGraph) -> int:
    """Sum of |N(a)|^2 over the left ground set, exactly."""
    return sum(d * d for d in graph.left_degrees())


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
    if n < 1:
        raise DomainTooSmall("multiplication table needs n >= 1")
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


FORD_DELTA = 1.0 - (1.0 + math.log(math.log(2.0))) / math.log(2.0)  # 0.0860713...


def ford_estimate(n: int) -> float:
    """Asymptotic model n / ((ln n)^delta (ln ln n)^(3/2)) for the table size.

    Advisory only: the asymptotic hides unknown constants, so this value
    is reported but never asserted against exact counts.  The only float
    in the system.
    """
    if n < 16:
        raise DomainTooSmall("ford_estimate needs n >= 16 so ln ln n > 0")
    ln = math.log(n)
    return n / (ln ** FORD_DELTA * math.log(ln) ** 1.5)
