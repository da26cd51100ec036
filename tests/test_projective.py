import pickle
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pencils import (build_m_pencil_config, build_symmetric_farey_construction, rich_points,
                     sweep, verify_lemma_chain)
from pencils.projective import (
    ProjPoint,
    _affine_image,
    _canonical,
    _distinct_pairs,
    _distinct_rows,
    _member,
    _normalise,
    _pair_keys,
    canonical_rows,
    cross_rows,
    exact_dtype,
    int_rows,
    row_triples,
)

from oracles import _canon, _cross, _on_line, collinear_bruteforce, join
from transforms import ProjTransform, SingularMatrix


def test_canonical_form_scaling():
    assert ProjPoint(2, 4, 6) == ProjPoint(1, 2, 3)
    assert ProjPoint(-1, 2, -3) == ProjPoint(1, -2, 3)
    assert ProjPoint(0, -5, 0).coords == (0, 1, 0)


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


def test_affine_bridge():
    p = ProjPoint.from_affine(Fraction(1, 2), Fraction(-3, 4))
    assert p.coords == (2, -3, 4)
    assert p.to_affine() == (Fraction(1, 2), Fraction(-3, 4))
    assert ProjPoint.from_affine("1/2", "-3/4") == p
    assert not p.is_infinite
    assert ProjPoint(1, 1, 0).is_infinite
    with pytest.raises(ValueError):
        ProjPoint(1, 1, 0).to_affine()


def test_projpoint_rejects_bools_and_floats():
    # True would read as 1; int_rows, which builds centre rows, refuses it too
    for coords in ((True, 0, 0), (1, False, 1), (np.True_, 0, 0), (1.0, 0, 1)):
        with pytest.raises(TypeError):
            ProjPoint(*coords)
    with pytest.raises(TypeError):
        int_rows([(1, 2, True)], np.int64)
    assert ProjPoint(np.int64(2), 0, 4).coords == (1, 0, 2)


def test_from_affine_rejects_floats_and_bools():
    # 0.1 would read as 3602879701896397/2^55
    for x, y in ((0.1, 0), (0, np.float64(0.5)), (True, 0), (0, False)):
        with pytest.raises(TypeError):
            ProjPoint.from_affine(x, y)
    assert ProjPoint.from_affine("1/10", 0) == ProjPoint(1, 0, 10)


def test_duality_property():
    rng = random.Random(7)
    for _ in range(100):
        p = ProjPoint(rng.randint(-8, 8), rng.randint(-8, 8), 1)
        q = ProjPoint(rng.randint(-8, 8), rng.randint(-8, 8), 1)
        r = ProjPoint(rng.randint(-8, 8), rng.randint(-8, 8), 1)
        if p == q or p == r or collinear_bruteforce([p.coords, q.coords, r.coords]):
            continue
        assert ProjPoint(*_cross(join(p.coords, q.coords),
                                 join(p.coords, r.coords))) == p


def test_collinear_matches_incidence():
    rng = random.Random(11)
    for _ in range(200):
        p = ProjPoint(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(0, 2) or 1)
        q = ProjPoint(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(0, 2) or 1)
        r = ProjPoint(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(0, 2) or 1)
        if p == q:
            continue
        assert (collinear_bruteforce([p.coords, q.coords, r.coords])
                == _on_line(r.coords, join(p.coords, q.coords)))


def test_transform_preserves_incidence():
    swap = ProjTransform([(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    assert swap.apply_point(ProjPoint(1, 0, 0)) == ProjPoint(0, 0, 1)
    with pytest.raises(SingularMatrix):
        ProjTransform([(1, 2, 3), (2, 4, 6), (0, 0, 1)])
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
        l = t.apply_line(join(p.coords, q.coords))
        assert _on_line(t.apply_point(p).coords, l)
        assert _on_line(t.apply_point(q).coords, l)
        done += 1


def test_points_hash_and_pickle():
    p = ProjPoint(2, -4, 6)
    assert pickle.loads(pickle.dumps(p)) == p
    assert len({ProjPoint(1, 2, 3), ProjPoint(2, 4, 6)}) == 1


def test_ordering_is_total_on_canonical_triples():
    pts = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1),
           ProjPoint(1, 1, 1), ProjPoint(1, -1, 2)]
    assert sorted(pts) == sorted(pts, key=lambda p: p.coords)


def _sign_branch(t):
    """The branch of the normal form's sign rule that a tuple takes, with the
    position of its first nonzero entry."""
    at = next((i for i, v in enumerate(t) if v), None)
    return "zero" if at is None else ("negated" if t[at] < 0 else "kept", at)


def test_array_kernel_matches_oracle_in_both_dtypes():
    """canonical_rows against the oracle, zero rows included, and _normalise
    on 2-column tuples against _canonical's sign rule, in int64 and object
    arrays; a counter shows every branch of the sign rule reached."""
    rng = random.Random(19)
    reached = Counter()
    # a cross entry is at most 2 * top^2
    for top, expected in ((9, np.int64), (2**30, np.int64), (2**70, object)):
        dtype = exact_dtype(2 * top * top)
        assert dtype is expected
        us = [tuple(rng.randint(-top, top) for _ in range(3)) for _ in range(200)]
        vs = [tuple(rng.randint(-top, top) for _ in range(3)) for _ in range(200)]
        # u x u is a zero row, which stays zero
        pairs = list(zip(us, vs)) + [(u, u) for u in us[:5]]
        crosses = [_cross(u, v) for u, v in pairs]
        rows = cross_rows(int_rows((u for u, _ in pairs), dtype),
                          int_rows((v for _, v in pairs), dtype))
        assert list(row_triples(canonical_rows(rows))) == [
            _canon(t) if any(t) else (0, 0, 0) for t in crosses]
        # scaled 2-column tuples, so zero entries, both signs and gcds above 1 occur
        ab = [(s * x, s * y) for x, y, s in ((rng.randint(-2, 2), rng.randint(-2, 2),
                                              rng.randint(1, top)) for _ in range(200))]
        cols = [np.array(col, dtype=dtype) for col in zip(*ab)]
        assert list(zip(*(col.tolist() for col in _normalise(*cols)))) == [
            _canonical(a, b, 0)[:2] if a or b else (0, 0) for a, b in ab]
        name = np.dtype(dtype).name
        reached.update((name, "row", _sign_branch(t)) for t in crosses)
        reached.update((name, "pair", _sign_branch(t)) for t in ab)
        reached.update((name, "pair", "gcd > 1") for a, b in ab if gcd(a, b) > 1)
    assert {(name, kind, branch) for name in ("int64", "object")
            for kind, branches in (("row", ("zero", ("negated", 0), ("kept", 0))),
                                   ("pair", ("zero", "gcd > 1", ("negated", 0), ("kept", 0),
                                             ("negated", 1), ("kept", 1))))
            for branch in branches} <= set(reached), reached


def test_only_projective_calls_gcd():
    """One normal form: every np.gcd call that rich_points, the lemma chain
    and a farey-shift sweep row make comes from pencils.projective, apart
    from the coprimality mask of constructions._coprime_blocks."""
    np_gcd, callers = np.gcd, Counter()

    def recording(*args, **kwargs):
        frame = sys._getframe(1)
        callers[frame.f_globals["__name__"], frame.f_code.co_name] += 1
        return np_gcd(*args, **kwargs)

    with mock.patch.object(np, "gcd", recording):
        rich_points(build_m_pencil_config(4, 16))
        verify_lemma_chain(build_symmetric_farey_construction(64).graph, (0, -1), (1, -1))
        sweep("farey-shift", [256])
    assert {module for module, _ in callers} == {"pencils.projective",
                                                 "pencils.constructions"}, callers
    assert {(module, name) for module, name in callers
            if module != "pencils.projective"} == {("pencils.constructions",
                                                    "_coprime_blocks")}, callers


def test_exact_dtype_bound():
    assert exact_dtype(2**62 - 1) is np.int64
    assert exact_dtype(2**62) is object


# A drawn list holds only small entries (int64 arrays) or entries that
# straddle 2^62 (object arrays), so both dtypes get drawn.
_small = st.integers(-40, 40)
_ints = st.one_of(_small, st.integers(2**62 - 40, 2**62 + 40),
                  st.integers(-2**62 - 40, -2**62 + 40))


def _lists(elements, max_size):
    return st.one_of(*(st.lists(elements(ints), max_size=max_size) for ints in (_small, _ints)))


def _rationals(ints=_ints):
    return st.builds(Fraction, ints, ints.filter(bool))


def _raw_pairs(ints):
    return st.tuples(ints, ints.filter(bool))


def _columns(nums, dens):
    """(num, den) arrays, int64 when every entry is below 2^62, else object."""
    ints = [*nums, *dens]
    return tuple(np.array(ints, dtype=exact_dtype(max(map(abs, ints), default=0)))
                 .reshape(2, -1))


def _pair_arrays(values):
    return _columns([v.numerator for v in values], [v.denominator for v in values])


def _pairs(num, den):
    return list(zip(num.tolist(), den.tolist()))


@st.composite
def _row_lists(draw):
    """Lists of triples whose entries come from a few drawn values, so rows
    repeat and tie in their leading columns."""
    pool = draw(st.lists(draw(st.sampled_from([_small, _ints])), min_size=1, max_size=4))
    value = st.sampled_from(pool)
    return draw(st.lists(st.tuples(value, value, value), max_size=12))


@given(_row_lists())
def test_distinct_rows_matches_sorted_set(triples):
    top = max((abs(v) for t in triples for v in t), default=0)
    rows = int_rows(triples, exact_dtype(top))
    got = _distinct_rows(rows)
    assert got.dtype == rows.dtype
    assert list(row_triples(got)) == sorted(set(triples))


def test_reduce_and_affine_image_match_fractions():
    """_normalise(den, num) on raw pairs whose dens take either sign, and
    _affine_image, against Fraction; a counter shows both den signs and a
    gcd above 1 reached in both dtypes."""
    reached = Counter()

    @given(_lists(_raw_pairs, 8), _lists(_rationals, 6), _lists(_rationals, 6),
           st.one_of(_rationals(_small), _rationals()))
    def check(raw, us, rs, s):
        num, den = _columns([n for n, _ in raw], [d for _, d in raw])
        reached.update((num.dtype.name, "den < 0" if d < 0 else "den > 0") for _, d in raw)
        reached.update((num.dtype.name, "gcd > 1") for n, d in raw if gcd(n, d) > 1)
        _normalise(den, num)
        assert _pairs(num, den) == [
            (f.numerator, f.denominator) for f in (Fraction(n, d) for n, d in raw)]
        # every entry is at most 2 H_u H_r H_s before reduction
        height = lambda vs: max((max(abs(v.numerator), v.denominator) for v in vs), default=1)
        dtype = exact_dtype(2 * height(us) * height(rs) * height([s]))
        got = _affine_image(*_pair_arrays(us), *_pair_arrays(rs), s, dtype)
        assert _pairs(*got) == [((u * r + s).numerator, (u * r + s).denominator)
                                for u in us for r in rs]

    check()
    assert {(name, branch) for name in ("int64", "object")
            for branch in ("den < 0", "den > 0", "gcd > 1")} <= set(reached), reached


# uint32 index columns, as graph edges are keyed: entries near 0 and near
# 2^32 - 1, and sometimes the box of every uint32 pair, whose keys pass 2^62
_index = st.one_of(st.integers(0, 5), st.integers(2**32 - 6, 2**32 - 1))
_key_columns = [
    *(st.lists(_rationals(ints), max_size=12).map(_pair_arrays) for ints in (_small, _ints)),
    st.lists(st.tuples(_index, _index), max_size=12).map(
        lambda pairs: tuple(np.array([p[i] for p in pairs], dtype=np.uint32).reshape(-1)
                            for i in (0, 1))),
]


def test_pair_keys_decode_order_and_dedup():
    """_pair_keys and _distinct_pairs on reduced fractions (int64 or object)
    and on uint32 index columns; a counter shows every (pair, key) dtype
    combination drawn."""
    dtypes = Counter()

    @given(st.integers(0, len(_key_columns) - 1).flatmap(_key_columns.__getitem__),
           st.booleans())
    def check(columns, full_box):
        num, den = columns
        box = (0, 2**32 - 1, 0, 2**32 - 1) if full_box and num.dtype == np.uint32 else None
        key, (n0, n1, d0, d1) = _pair_keys(num, den, box)
        dtypes[num.dtype.name, key.dtype.name] += 1
        w = d1 - d0 + 1
        # the key decodes to its pair, sorts as the pairs do, and equal keys
        # are equal pairs
        assert _pairs(key // w + n0, key % w + d0) == _pairs(num, den)
        order = np.argsort(key, kind="stable")
        assert _pairs(num[order], den[order]) == sorted(_pairs(num, den))
        got = _distinct_pairs(_pair_keys(num, den, box), num.dtype)
        assert got[0].dtype == got[1].dtype == num.dtype
        assert _pairs(*got) == sorted(set(_pairs(num, den)))

    check()
    assert {("int64", "int64"), ("object", "object"), ("uint32", "int64"),
            ("uint32", "object")} <= set(dtypes), dtypes


def _box_faces(members):
    """The pairs just outside each face of the members' (num, den) box."""
    if not members:
        return []
    nums = [v.numerator for v in members]
    dens = [v.denominator for v in members]
    n, d = nums[0], dens[0]
    return [(min(nums) - 1, d), (max(nums) + 1, d), (n, min(dens) - 1), (n, max(dens) + 1)]


@given(_lists(_rationals, 10), _lists(_rationals, 10))
def test_member_matches_fraction_set(members, others):
    # the set is keyed in drawn order and only its keys are sorted, as a
    # pencil's line test does (see test_line_test_property_matches_tuple_sets)
    keyed = _pair_keys(*_pair_arrays(list(dict.fromkeys(members))))
    keyed[0].sort()
    empty = _pair_keys(*_pair_arrays([]))
    pairs = {(v.numerator, v.denominator) for v in members}
    queries = [(v.numerator, v.denominator) for v in members + others] + _box_faces(members)
    # queries past 2^62 come only as object arrays, also against an int64 set
    huge = [(n + 2**64, d) for n, d in queries[:3]] + [(n, d + 2**64) for n, d in queries[:3]]
    for qs in (queries, queries + huge):
        for dtype in {exact_dtype(max((abs(v) for q in qs for v in q), default=0)), object}:
            qnum, qden = (np.array([q[i] for q in qs], dtype=dtype) for i in (0, 1))
            got = _member(qnum, qden, keyed)
            assert got.dtype == bool
            assert got.tolist() == [q in pairs for q in qs]
            assert _member(qnum, qden, empty).tolist() == [False] * len(qs)
