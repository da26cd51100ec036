import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from pencils.errors import IdenticalPoints, SingularMatrix
from pencils.projective import (
    ProjLine,
    ProjPoint,
    ProjTransform,
    apply_transform,
    canonical_rows,
    collinear,
    cross_rows,
    exact_dtype,
    incident,
    int_rows,
    line_through,
    row_triples,
)

from oracles import _canon, _cross


def test_canonical_form_scaling():
    assert ProjPoint(2, 4, 6) == ProjPoint(1, 2, 3)
    assert ProjPoint(-1, 2, -3) == ProjPoint(1, -2, 3)
    assert ProjPoint(0, -5, 0).coords == (0, 1, 0)
    assert ProjLine(10, 0, -20) == ProjLine(1, 0, -2)


def test_canonical_form_random_scalars():
    rng = random.Random(42)
    for _ in range(200):
        x, y, z = (rng.randint(-9, 9) for _ in range(3))
        if (x, y, z) == (0, 0, 0):
            continue
        s = rng.choice([-7, -2, -1, 1, 2, 5, 12])
        assert ProjPoint(s * x, s * y, s * z) == ProjPoint(x, y, z)
        g = ProjPoint(x, y, z).coords
        from math import gcd
        assert gcd(gcd(abs(g[0]), abs(g[1])), abs(g[2])) == 1
        assert next(c for c in g if c != 0) > 0


def test_zero_triple_rejected():
    with pytest.raises(ValueError):
        ProjPoint(0, 0, 0)
    with pytest.raises(ValueError):
        ProjLine(0, 0, 0)


def test_affine_bridge():
    p = ProjPoint.from_affine(Fraction(1, 2), Fraction(-3, 4))
    assert p.coords == (2, -3, 4)
    assert p.to_affine() == (Fraction(1, 2), Fraction(-3, 4))
    assert ProjPoint.from_affine("1/2", "-3/4") == p
    assert not p.is_infinite
    assert ProjPoint(1, 1, 0).is_infinite
    with pytest.raises(ValueError):
        ProjPoint(1, 1, 0).to_affine()


def test_line_through_examples():
    assert line_through(ProjPoint(0, 0, 1), ProjPoint(1, 0, 1)) == ProjLine(0, 1, 0)
    assert line_through(ProjPoint(1, 0, 0), ProjPoint(0, 0, 1)) == ProjLine(0, 1, 0)
    # y = x - 1 through (2,1) and (0,-1)
    assert line_through(ProjPoint(2, 1, 1), ProjPoint(0, -1, 1)) == ProjLine(1, -1, -1)
    with pytest.raises(IdenticalPoints):
        line_through(ProjPoint(1, 2, 1), ProjPoint(2, 4, 2))


def test_collinear_examples():
    assert collinear(ProjPoint(0, 0, 1), ProjPoint(1, 0, 1), ProjPoint(2, 0, 1))
    assert not collinear(ProjPoint(0, 0, 1), ProjPoint(1, 1, 1), ProjPoint(2, 4, 1))
    assert collinear(ProjPoint.from_affine(0, 0), ProjPoint.from_affine(-1, 0),
                     ProjPoint.from_affine(-2, 0))


def test_incidence_and_contains():
    l = ProjLine(1, -1, -1)  # y = x - 1
    assert incident(ProjPoint(2, 1, 1), l)
    assert l.contains(ProjPoint(2, 1, 1))
    assert not incident(ProjPoint(0, 0, 1), l)
    assert ProjLine(0, 0, 1).is_infinite
    assert not l.is_infinite


def test_duality_property():
    rng = random.Random(7)
    for _ in range(100):
        p = ProjPoint(rng.randint(-8, 8), rng.randint(-8, 8), 1)
        q = ProjPoint(rng.randint(-8, 8), rng.randint(-8, 8), 1)
        r = ProjPoint(rng.randint(-8, 8), rng.randint(-8, 8), 1)
        if p == q or p == r or collinear(p, q, r):
            continue
        assert ProjPoint(*_cross(line_through(p, q).coeffs,
                                 line_through(p, r).coeffs)) == p


def test_collinear_matches_incidence():
    rng = random.Random(11)
    for _ in range(200):
        p = ProjPoint(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(0, 2) or 1)
        q = ProjPoint(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(0, 2) or 1)
        r = ProjPoint(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(0, 2) or 1)
        if p == q:
            continue
        assert collinear(p, q, r) == incident(r, line_through(p, q))


def test_transform_identity_and_swap():
    t = ProjTransform.identity()
    p = ProjPoint(3, 5, 1)
    assert t.apply_point(p) == p
    swap = ProjTransform([(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    assert swap.apply_point(ProjPoint(1, 0, 0)) == ProjPoint(0, 0, 1)
    with pytest.raises(SingularMatrix):
        ProjTransform([(1, 2, 3), (2, 4, 6), (0, 0, 1)])


def test_transform_preserves_incidence():
    rng = random.Random(13)
    done = 0
    while done < 100:
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        try:
            t = ProjTransform(rows)
        except SingularMatrix:
            continue
        # incident pair: a point on a random line
        p = ProjPoint(rng.randint(-9, 9), rng.randint(-9, 9), 1)
        q = ProjPoint(rng.randint(-9, 9), rng.randint(-9, 9), 1)
        if p == q:
            continue
        l = line_through(p, q)
        assert incident(apply_transform(t, p), apply_transform(t, l))
        assert incident(apply_transform(t, q), apply_transform(t, l))
        done += 1


def test_transform_inverse_roundtrip():
    rng = random.Random(17)
    done = 0
    while done < 50:
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        try:
            t = ProjTransform(rows)
        except SingularMatrix:
            continue
        inv = t.inverse()
        p = ProjPoint(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(0, 1) or 1)
        l = ProjLine(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9))
        assert inv.apply_point(t.apply_point(p)) == p
        assert inv.apply_line(t.apply_line(l)) == l
        done += 1


def test_points_and_lines_hash_and_pickle():
    p = ProjPoint(2, -4, 6)
    l = ProjLine(2, -4, 6)
    assert hash(p) != hash(l)  # salted: a point never collides with its dual line
    assert pickle.loads(pickle.dumps(p)) == p
    assert pickle.loads(pickle.dumps(l)) == l
    assert len({ProjPoint(1, 2, 3), ProjPoint(2, 4, 6)}) == 1


def test_ordering_is_total_on_canonical_triples():
    pts = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1),
           ProjPoint(1, 1, 1), ProjPoint(1, -1, 2)]
    assert sorted(pts) == sorted(pts, key=lambda p: p.coords)


def test_array_kernel_matches_oracle_in_both_dtypes():
    rng = random.Random(19)
    # a cross entry is at most 2 * top^2
    for top, expected in ((9, np.int64), (2**30, np.int64), (2**70, object)):
        dtype = exact_dtype(2 * top * top)
        assert dtype is expected
        us = [tuple(rng.randint(-top, top) for _ in range(3)) for _ in range(200)]
        vs = [tuple(rng.randint(-top, top) for _ in range(3)) for _ in range(200)]
        pairs = [(u, v) for u, v in zip(us, vs) if any(_cross(u, v))]
        rows = cross_rows(int_rows((u for u, _ in pairs), dtype),
                          int_rows((v for _, v in pairs), dtype))
        assert list(row_triples(canonical_rows(rows))) == [
            _canon(_cross(u, v)) for u, v in pairs]


def test_exact_dtype_bound():
    assert exact_dtype(2**62 - 1) is np.int64
    assert exact_dtype(2**62) is object
