import pickle
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pencils import (build_farey_shift_construction, build_m_pencil_config,
                     build_symmetric_farey_construction, pencils_from_graph, rich_points,
                     standard_shift_centres, sweep, verify_lemma_chain)
from pencils.projective import (
    ProjPoint,
    _affine_image,
    _canonical,
    _distinct,
    _distinct_rows,
    _keys,
    _member,
    _normalise,
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


def test_no_lexsort_in_the_pipelines():
    """One tuple key: rows and pairs are sorted and deduplicated through
    _keys and _distinct, so the pipelines never call np.lexsort."""
    np_lexsort, calls = np.lexsort, []

    def recording(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return np_lexsort(*args, **kwargs)

    with mock.patch.object(np, "lexsort", recording):
        rich_points(build_m_pencil_config(4, 16))
        pencils_from_graph(build_farey_shift_construction(256), standard_shift_centres())
        verify_lemma_chain(build_symmetric_farey_construction(64).graph, (0, -1), (1, -1))
        sweep("farey-shift", [256])
    assert calls == []


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


def _columns(*cols):
    """Equal-length integer columns as arrays, int64 when every entry is below
    2^62, else object."""
    ints = [v for col in cols for v in col]
    return tuple(np.array(ints, dtype=exact_dtype(max(map(abs, ints), default=0)))
                 .reshape(len(cols), -1))


def _tuple_arrays(tuples, width):
    return _columns(*([t[i] for t in tuples] for i in range(width)))


def _pair_arrays(values):
    return _columns([v.numerator for v in values], [v.denominator for v in values])


def _tuples(*cols):
    return list(zip(*(col.tolist() for col in cols)))


@st.composite
def _row_lists(draw):
    """Lists of triples whose entries come from a few drawn values, so rows
    repeat and tie in their leading columns."""
    pool = draw(st.lists(draw(st.sampled_from([_small, _ints])), min_size=1, max_size=4))
    value = st.sampled_from(pool)
    return draw(st.lists(st.tuples(value, value, value), max_size=12))


def test_distinct_rows_matches_sorted_set():
    """_distinct_rows against the sorted set of the triples, in the rows'
    dtype; a counter shows int64 and object rows drawn."""
    dtypes = Counter()

    @given(_row_lists())
    def check(triples):
        top = max((abs(v) for t in triples for v in t), default=0)
        rows = int_rows(triples, exact_dtype(top))
        dtypes[rows.dtype.name] += 1
        got = _distinct_rows(rows)
        assert got.dtype == rows.dtype
        assert list(row_triples(got)) == sorted(set(triples))

    check()
    assert dtypes["int64"] and dtypes["object"], dtypes


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
        assert _tuples(num, den) == [
            (f.numerator, f.denominator) for f in (Fraction(n, d) for n, d in raw)]
        # every entry is at most 2 H_u H_r H_s before reduction
        height = lambda vs: max((max(abs(v.numerator), v.denominator) for v in vs), default=1)
        dtype = exact_dtype(2 * height(us) * height(rs) * height([s]))
        got = _affine_image(*_pair_arrays(us), *_pair_arrays(rs), s, dtype)
        assert _tuples(*got) == [((u * r + s).numerator, (u * r + s).denominator)
                                for u in us for r in rs]

    check()
    assert {(name, branch) for name in ("int64", "object")
            for branch in ("den < 0", "den > 0", "gcd > 1")} <= set(reached), reached


# Key columns: 1- and 3-column tuples of small, mid-sized (int64 entries
# whose 3-column keys pass 2^62) and huge entries, of either sign; reduced
# fractions (int64 or object); and uint32 index columns, as graph edges are
# keyed, with entries near 0 and near 2^32 - 1, sometimes in the box of
# every uint32 pair, whose keys pass 2^62.
_mid = st.integers(-2**30, 2**30)
_index = st.one_of(st.integers(0, 5), st.integers(2**32 - 6, 2**32 - 1))
_key_columns = [
    *(st.lists(st.tuples(*[ints] * width), max_size=12).map(
        lambda tuples, width=width: _tuple_arrays(tuples, width))
      for width in (1, 3) for ints in (_small, _mid, _ints)),
    *(st.lists(_rationals(ints), max_size=12).map(_pair_arrays) for ints in (_small, _ints)),
    st.lists(st.tuples(_index, _index), max_size=12).map(
        lambda pairs: tuple(np.array([p[i] for p in pairs], dtype=np.uint32).reshape(-1)
                            for i in (0, 1))),
]


def _decode(key, box):
    """The tuples behind keys, decoded digit by digit in Python ints."""
    tuples = []
    for k in key.tolist():
        digits = []
        for lo, hi in box[::-1]:
            k, digit = divmod(k, hi - lo + 1)
            digits.append(digit + lo)
        assert k == 0
        tuples.append(tuple(digits[::-1]))
    return tuples


def test_pair_keys_decode_order_and_dedup():
    """_keys and _distinct on 1-, 2- and 3-column tuples: reduced fractions
    and tuples with negative entries (int64 or object) and uint32 index
    columns; a counter shows every (width, tuple, key) dtype combination
    drawn and negative entries in each width."""
    reached = Counter()

    @settings(max_examples=10)
    def check(columns, full_box):
        full = full_box and columns[0].dtype == np.uint32
        key, box = _keys(columns, ((0, 2**32 - 1),) * 2 if full else None)
        width, name = len(columns), columns[0].dtype.name
        reached[width, name, key.dtype.name] += 1
        reached[width, "negative"] += any(v < 0 for col in columns for v in col.tolist())
        tuples = _tuples(*columns)
        # the key decodes to its tuple, sorts as the tuples do, and equal
        # keys are equal tuples
        assert _decode(key, box) == tuples
        order = np.argsort(key, kind="stable")
        assert _tuples(*(col[order] for col in columns)) == sorted(tuples)
        got = _distinct(_keys(columns, box), columns[0].dtype)
        assert len(got) == width and all(col.dtype == columns[0].dtype for col in got)
        assert _tuples(*got) == sorted(set(tuples))

    # each kind of columns gets its own examples, so the derandomized draws reach all
    for columns in _key_columns:
        given(columns, st.booleans())(check)()
    assert {(2, "int64", "int64"), (2, "object", "object"), (2, "uint32", "int64"),
            (2, "uint32", "object"), (1, "int64", "int64"), (1, "object", "object"),
            (3, "int64", "int64"), (3, "int64", "object"), (3, "object", "object"),
            (1, "negative"), (2, "negative"), (3, "negative")} <= set(reached), reached


def _box_faces(rows):
    """The tuples just outside each face of the rows' box: the first row with
    one entry moved just below or above its column's range."""
    return [rows[0][:i] + (v,) + rows[0][i + 1:] for i, col in enumerate(zip(*rows))
            for v in (min(col) - 1, max(col) + 1)]


def test_member_matches_fraction_set():
    """_member on pairs (num, den) and rows (num, den, num - den) against
    tuple-set membership, queried with the members, other draws, the tuples
    just outside each face of the box, the box's two corners (the top one
    keys past every member unless it is one) and tuples past 2^64, against
    the set and an empty one.  The set is keyed in drawn order and only its
    keys are sorted, as a pencil's line test does (see
    test_line_test_property_matches_tuple_sets).  A counter shows, per
    width, both key and query dtypes, hits, and misses inside the box,
    past the last key and outside the box."""
    reached = Counter()

    @given(_lists(_rationals, 10), _lists(_rationals, 10))
    def check(members, others):
        for width in (2, 3):
            row = lambda v: (v.numerator, v.denominator, v.numerator - v.denominator)[:width]
            rows = [row(v) for v in dict.fromkeys(members)]
            keyed = _keys(_tuple_arrays(rows, width))
            keyed[0].sort()
            empty = _keys(_tuple_arrays([], width))
            corners = [tuple(map(f, zip(*rows))) for f in (min, max)] if rows else []
            queries = [row(v) for v in members + others] + _box_faces(rows) + corners
            # queries past 2^62 come only as object arrays, also against an int64 set
            huge = [q[:i] + (q[i] + 2**64,) + q[i + 1:]
                    for i in range(width) for q in queries[:3]]
            inside = lambda q: bool(rows) and all(lo <= v <= hi for v, lo, hi in zip(q, *corners))
            reached.update((width, "hit" if q in rows else "miss, past the last key"
                            if inside(q) and q > max(rows) else "miss, in box" if inside(q)
                            else "miss, out of box") for q in queries + huge)
            for qs in (queries, queries + huge):
                top = max((abs(v) for q in qs for v in q), default=0)
                for dtype in {exact_dtype(top), object}:
                    query = [np.array([q[i] for q in qs], dtype=dtype) for i in range(width)]
                    reached[width, "key", keyed[0].dtype.name, "query", query[0].dtype.name] += 1
                    got = _member(query, keyed)
                    assert got.dtype == bool
                    assert got.tolist() == [q in rows for q in qs]
                    assert _member(query, empty).tolist() == [False] * len(qs)

    check()
    assert {(width, *branch) for width in (2, 3) for branch in (
        ("hit",), ("miss, in box",), ("miss, past the last key",), ("miss, out of box",),
        ("key", "int64", "query", "int64"), ("key", "int64", "query", "object"),
        ("key", "object", "query", "object"))} <= set(reached), reached
