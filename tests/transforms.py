"""Projective transformations for invariance tests.

Points map by a 3x3 integer matrix M; lines map by the cofactor matrix
of M, which is the inverse-transpose action up to the (projectively
irrelevant) factor det(M), so incidence is preserved exactly.
"""

from pencils.projective import ProjPoint

from oracles import _canon


class SingularMatrix(ValueError):
    """The matrix has determinant zero, so it is not a projective map."""


class ProjTransform:
    """Invertible projective transformation given by a 3x3 integer matrix."""

    __slots__ = ("matrix", "cofactor")

    def __init__(self, rows):
        m = tuple(tuple(int(e) for e in row) for row in rows)
        if len(m) != 3 or any(len(r) != 3 for r in m):
            raise ValueError("matrix must be 3x3")
        self.cofactor = tuple(
            tuple(m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
                  - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
                  for j in range(3))
            for i in range(3)
        )
        # expansion along the first row
        if sum(m[0][j] * self.cofactor[0][j] for j in range(3)) == 0:
            raise SingularMatrix(f"determinant is zero for {m}")
        self.matrix = m

    def apply_point(self, p: ProjPoint) -> ProjPoint:
        v = p.coords
        return ProjPoint(*(sum(row[k] * v[k] for k in range(3)) for row in self.matrix))

    def apply_line(self, v: tuple) -> tuple:
        """The canonical triple of the image of the line triple v."""
        return _canon(tuple(sum(row[k] * v[k] for k in range(3)) for row in self.cofactor))
