"""Exact projective-plane primitives over arbitrary-precision integers.

Points and lines are canonical homogeneous integer triples: the gcd of
the absolute values is 1 and the first nonzero entry is positive.  Each
projective class therefore has exactly one representative, so equality,
hashing and set membership are bit-exact.  Elements at infinity (third
coordinate zero) are ordinary values.  No floating point anywhere.

Sets of lines and of rich points live as sorted, distinct (k, 3) arrays
of canonical rows; ProjPoint is the object form of one point, for centres
and for callers at the API edge.  _normalise is _canonical's array form,
for rows and, den first, for reduced (num, den) pairs.  The row kernels
(cross_rows, canonical_rows) apply the cross product and that form to (k, 3)
integer arrays, in the dtype exact_dtype picks from a caller's bound;
_affine_image forms u*r + s over reduced (num, den) arrays.  Rows, pairs
and graph edges are all integer tuples held as columns, with one key: _keys
gives each tuple an exact mixed-radix key that sorts as the tuples do,
_distinct sorts, deduplicates and decodes by it, and _member looks tuples up.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index

import numpy as np

__all__ = [
    "ProjPoint",
    "exact_dtype",
    "int_rows",
    "cross_rows",
    "canonical_rows",
    "row_triples",
]


def _exact(v, kind=index):
    """v as an exact int (kind=index) or Fraction (kind=Fraction); a bool or
    a float (0.1 would be 3602879701896397/2^55) raises TypeError."""
    if isinstance(v, (bool, float)):
        raise TypeError(f"{v!r} is a {type(v).__name__}, not an exact number")
    return kind(v)


def _canonical(x, y, z):
    x, y, z = _exact(x), _exact(y), _exact(z)
    if not (x or y or z):
        raise ValueError("(0, 0, 0) does not represent a projective element")
    g = gcd(gcd(abs(x), abs(y)), abs(z))
    x, y, z = x // g, y // g, z // g
    if x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))):
        x, y, z = -x, -y, -z
    return x, y, z


# Every entry and every product formed from it stays below this, so int64
# arithmetic (limit 2^63) can neither overflow nor wrap.
_INT64_BOUND = 1 << 62


def exact_dtype(bound: int):
    """Array dtype for integer kernels whose entries and products are all at
    most ``bound`` in absolute value: np.int64 when the bound (computed by
    the caller in Python ints) is below 2^62, otherwise object arrays of
    Python ints.  Both run the same code and give the same exact result."""
    return np.int64 if bound < _INT64_BOUND else object


def int_rows(triples, dtype) -> np.ndarray:
    """A (k, 3) array of integer triples in the given dtype; a row of
    another length raises ValueError, a non-integer entry TypeError."""
    return np.array([(_exact(x), _exact(y), _exact(z)) for x, y, z in triples],
                    dtype=dtype).reshape(-1, 3)


def row_triples(rows: np.ndarray):
    """The rows of a (k, 3) array as tuples of Python ints."""
    return zip(*rows.T.tolist()) if len(rows) else iter(())


def cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two (..., 3) arrays; shapes broadcast."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0),
                    axis=-1)


def _normalise(*cols):
    """Integer tuples as two or more equal-length column arrays (int64 or
    object), divided in place by their gcd and negated where the first
    nonzero entry is negative; a zero tuple stays zero.  Returns the columns."""
    g, neg = cols[-1], cols[-1] < 0
    for col in cols[-2::-1]:
        g = np.gcd(col, g)
        neg = (col < 0) | ((col == 0) & neg)
    g[g == 0] = 1
    g[neg] *= -1
    for col in cols:
        col //= g
    return cols


def canonical_rows(rows: np.ndarray) -> np.ndarray:
    """_canonical applied to every row of a (k, 3) array, in a copy; a zero
    row stays zero."""
    rows = rows.copy()
    _normalise(*rows.T)
    return rows


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a (k, 3) array in lexicographic order, in its dtype."""
    return np.stack(_distinct(_keys(rows.T), rows.dtype), axis=1)


def _affine_image(un, ud, rn, rd, s: Fraction, dtype):
    """Reduced (num, den) arrays of u*r + s over all pairs (u, r), u-major,
    den > 0, for u and r given as (num, den) arrays (or a scalar u)."""
    un, ud, rn, rd = (np.asarray(a, dtype=dtype) for a in (un, ud, rn, rd))
    den = np.multiply.outer(ud, rd).ravel()
    num = np.multiply.outer(un, rn).ravel() * s.denominator + den * s.numerator
    den *= s.denominator
    return _normalise(den, num)[::-1]


def _keys(cols, box=None):
    """The mixed-radix keys of integer tuples given as equal-length columns
    (int64, uint32 or object), first column most significant, so keys sort
    as the tuples do, and their box: one (lo, hi) per column, by default the
    columns' ranges ((0, -1) for no tuples).  The exact_dtype of the product
    of the widths plus the largest |bound| holds every step."""
    if box is None:
        box = [(int(c.min()), int(c.max())) if len(c) else (0, -1) for c in cols]
    size, top = 1, 0
    for lo, hi in box:
        size, top = size * (hi - lo + 1), max(top, abs(lo), abs(hi))
    key = cols[0].astype(exact_dtype(size + top))
    key -= box[0][0]
    for col, (lo, hi) in zip(cols[1:], box[1:]):
        key *= hi - lo + 1
        key += col.astype(key.dtype, copy=False)
        key -= lo
    return key, box


def _distinct(keyed, dtype):
    """The distinct tuples behind a _keys (key, box), sorted, as columns in
    dtype, the tuples' own, not the key's.  Pass it straight from _keys: the
    key is sorted in place and deduplicated by a mask (faster than
    np.unique); both are freed before the columns are decoded, last first."""
    key, box = keyed
    del keyed
    key.sort()
    keep = np.empty(len(key), dtype=bool)
    keep[:1] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    key = key[keep]
    del keep
    cols = []
    for lo, hi in box[:0:-1]:
        col = key % (hi - lo + 1)
        col += lo
        cols.append(col.astype(dtype, copy=False))
        key //= hi - lo + 1
    key += box[0][0]
    return (key.astype(dtype, copy=False), *cols[::-1])


def _member(query, keyed) -> np.ndarray:
    """Whether each query tuple, given as columns of any one shape, is one of
    a set of distinct tuples, given as its _keys (key, box) with key sorted:
    a tuple outside the box misses, and one inside is looked up by its key;
    int64 or object arrays."""
    key, box = keyed
    hit = (query[0] >= box[0][0]) & (query[0] <= box[0][1])
    for q, (lo, hi) in zip(query[1:], box[1:]):
        hit &= (q >= lo) & (q <= hi)
    qkey = _keys([q[hit] for q in query], box)[0]
    hit[hit] = key.take(key.searchsorted(qkey), mode="clip") == qkey
    return hit


class ProjPoint:
    """Point (X : Y : Z) of the rational projective plane; Z = 0 is at infinity."""

    __slots__ = ("coords", "_hash")

    def __init__(self, x, y, z):
        self.coords = _canonical(x, y, z)
        self._hash = hash(self.coords)

    @classmethod
    def from_affine(cls, x, y) -> "ProjPoint":
        """Embed the affine point (x, y): ints, Fractions or 'p/q' strings; a float raises."""
        x, y = _exact(x, Fraction), _exact(y, Fraction)
        return cls(
            x.numerator * y.denominator,
            y.numerator * x.denominator,
            x.denominator * y.denominator,
        )

    def to_affine(self) -> tuple[Fraction, Fraction]:
        x, y, z = self.coords
        if z == 0:
            raise ValueError(f"{self} is at infinity")
        return Fraction(x, z), Fraction(y, z)

    @property
    def is_infinite(self) -> bool:
        return self.coords[2] == 0

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.coords < other.coords

    def __reduce__(self):
        return (ProjPoint, self.coords)

    def __repr__(self):
        return "ProjPoint(%d : %d : %d)" % self.coords
