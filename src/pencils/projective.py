"""Exact projective-plane primitives over arbitrary-precision integers.

Points and lines are canonical homogeneous integer triples: the gcd of
the absolute values is 1 and the first nonzero entry is positive.  Each
projective class therefore has exactly one representative, so equality,
hashing and set membership are bit-exact.  Elements at infinity (third
coordinate zero) are ordinary values.  No floating point anywhere.

The row kernels (cross_rows, canonical_rows) apply the same cross product
and canonical form to whole (k, 3) integer arrays, in the dtype that
exact_dtype picks from a caller's magnitude bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index as _as_int

import numpy as np

from .errors import IdenticalPoints, SingularMatrix

__all__ = [
    "ProjPoint",
    "ProjLine",
    "ProjTransform",
    "line_through",
    "collinear",
    "incident",
    "apply_transform",
    "exact_dtype",
    "int_rows",
    "cross_rows",
    "canonical_rows",
    "row_triples",
]


def _canonical(x, y, z):
    x, y, z = _as_int(x), _as_int(y), _as_int(z)
    if not (x or y or z):
        raise ValueError("(0, 0, 0) does not represent a projective element")
    g = gcd(gcd(abs(x), abs(y)), abs(z))
    x, y, z = x // g, y // g, z // g
    if x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))):
        x, y, z = -x, -y, -z
    return x, y, z


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


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
    """A (k, 3) array of integer triples in the given dtype."""
    return np.array(list(triples), dtype=dtype).reshape(-1, 3)


def row_triples(rows: np.ndarray):
    """The rows of a (k, 3) array as tuples of Python ints."""
    return zip(*rows.T.tolist()) if len(rows) else iter(())


def cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise _cross of two (..., 3) arrays; shapes broadcast."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0),
                    axis=-1)


def canonical_rows(rows: np.ndarray) -> np.ndarray:
    """_canonical applied to every row of a (k, 3) array with no zero row:
    divide by the row gcd, then make the first nonzero entry positive."""
    g = np.gcd(np.gcd(rows[:, 0], rows[:, 1]), rows[:, 2])
    rows = rows // g[:, None]
    x, y, z = rows[:, 0], rows[:, 1], rows[:, 2]
    neg = (x < 0) | ((x == 0) & ((y < 0) | ((y == 0) & (z < 0))))
    rows[neg] = -rows[neg]
    return rows


class ProjPoint:
    """Point (X : Y : Z) of the rational projective plane; Z = 0 is at infinity."""

    __slots__ = ("coords", "_hash")

    def __init__(self, x, y, z):
        self.coords = _canonical(x, y, z)
        self._hash = hash(self.coords)

    @classmethod
    def from_affine(cls, x, y) -> "ProjPoint":
        """Embed the affine point (x, y); accepts ints, Fractions, or 'p/q' strings."""
        x, y = Fraction(x), Fraction(y)
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


class ProjLine:
    """Line [a : b : c], the solution set of a*X + b*Y + c*Z = 0."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, a, b, c):
        self.coeffs = _canonical(a, b, c)
        self._hash = hash(("line", self.coeffs))

    @property
    def is_infinite(self) -> bool:
        """True for the line at infinity [0 : 0 : 1]."""
        return self.coeffs[0] == 0 and self.coeffs[1] == 0

    def contains(self, p: ProjPoint) -> bool:
        a, b, c = self.coeffs
        x, y, z = p.coords
        return a * x + b * y + c * z == 0

    def __eq__(self, other):
        return isinstance(other, ProjLine) and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.coeffs < other.coeffs

    def __reduce__(self):
        return (ProjLine, self.coeffs)

    def __repr__(self):
        return "ProjLine[%d : %d : %d]" % self.coeffs


def incident(p: ProjPoint, l: ProjLine) -> bool:
    """Exact incidence test a*X + b*Y + c*Z = 0."""
    return l.contains(p)


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The unique line joining two distinct points."""
    if p == q:
        raise IdenticalPoints(f"no unique line through {p} twice")
    return ProjLine(*_cross(p.coords, q.coords))


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    """True iff the 3x3 determinant of the homogeneous triples vanishes."""
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = p.coords, q.coords, r.coords
    det = (
        x1 * (y2 * z3 - z2 * y3)
        - y1 * (x2 * z3 - z2 * x3)
        + z1 * (x2 * y3 - y2 * x3)
    )
    return det == 0


class ProjTransform:
    """Invertible projective transformation given by a 3x3 integer matrix.

    Points map by M; lines map by the cofactor matrix of M, which is the
    inverse-transpose action up to the (projectively irrelevant) factor
    det(M), so incidence is preserved exactly.
    """

    __slots__ = ("matrix", "det")

    def __init__(self, rows):
        m = tuple(tuple(_as_int(e) for e in row) for row in rows)
        if len(m) != 3 or any(len(r) != 3 for r in m):
            raise ValueError("matrix must be 3x3")
        self.matrix = m
        self.det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if self.det == 0:
            raise SingularMatrix(f"determinant is zero for {m}")

    @classmethod
    def identity(cls) -> "ProjTransform":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def _cofactor(self):
        m = self.matrix
        return tuple(
            tuple(
                (m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
                 - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3])
                for j in range(3)
            )
            for i in range(3)
        )

    def apply_point(self, p: ProjPoint) -> ProjPoint:
        v = p.coords
        return ProjPoint(*(sum(row[k] * v[k] for k in range(3)) for row in self.matrix))

    def apply_line(self, l: ProjLine) -> ProjLine:
        v = l.coeffs
        cof = self._cofactor()
        return ProjLine(*(sum(row[k] * v[k] for k in range(3)) for row in cof))

    def inverse(self) -> "ProjTransform":
        # adjugate = cofactor transpose; det scales out projectively
        cof = self._cofactor()
        return ProjTransform(tuple(tuple(cof[j][i] for j in range(3)) for i in range(3)))

    def __repr__(self):
        return f"ProjTransform({self.matrix})"


def apply_transform(t: ProjTransform, obj):
    """Apply a transformation to a ProjPoint or (contragrediently) a ProjLine."""
    if isinstance(obj, ProjPoint):
        return t.apply_point(obj)
    if isinstance(obj, ProjLine):
        return t.apply_line(obj)
    raise TypeError(f"expected ProjPoint or ProjLine, got {type(obj).__name__}")
