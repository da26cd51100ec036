import ast
import inspect
import pickle
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import pencils
from pencils import (BipartiteGraph, GroundSet, Pencil, build_farey_shift_construction,
                     build_m_pencil_config,
                     build_symmetric_farey_construction, pencils_from_graph, rich_points,
                     standard_shift_centres, sweep, verify_lemma_chain)
from pencils.projective import (
    ProjPoint,
    _affine_image,
    _canonical,
    _distinct,
    _height,
    _keys,
    _member,
    _normalise,
    _row_set,
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
    # True would read as 1; int_rows, the intake for integer tables, refuses it too
    for coords in ((True, 0, 0), (1, False, 1), (np.True_, 0, 0), (1.0, 0, 1)):
        with pytest.raises(TypeError):
            ProjPoint(*coords)
    with pytest.raises(TypeError):
        int_rows([(1, 2, True)])
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
    """_normalise on the columns of cross rows against the oracle, zero rows
    included, and on 2-column tuples against _canonical's sign rule, in int64
    and object arrays; a counter shows every branch of the sign rule reached."""
    rng = random.Random(19)
    reached = Counter()
    # a cross entry is at most 2 * top^2
    for top, expected in ((9, np.int64), (2**30, np.int64), (2**70, object)):
        dtype = exact_dtype(2 * top * top)
        assert dtype is expected
        us = [tuple(rng.randint(-top, top) for _ in range(3)) for _ in range(200)]
        vs = [tuple(rng.randint(-top, top) for _ in range(3)) for _ in range(200)]
        # u x u is a zero row, which stays zero; (1, 0, 0) x (1, y, z) is
        # (0, -z, y), so these rows have one and two leading zeros, each sign
        pairs = list(zip(us, vs)) + [(u, u) for u in us[:5]] + [
            ((1, 0, 0), (1, y, z)) for y, z in ((2, top), (2, -top), (top, 0), (-top, 0))]
        crosses = [_cross(u, v) for u, v in pairs]
        rows = cross_rows(int_rows(u for u, _ in pairs).astype(dtype),
                          int_rows(v for _, v in pairs).astype(dtype))
        _normalise(*rows.T)
        assert list(row_triples(rows)) == [_canon(t) if any(t) else (0, 0, 0) for t in crosses]
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
            for kind, branches in (("row", ("zero", ("negated", 0), ("kept", 0), ("negated", 1),
                                            ("kept", 1), ("negated", 2), ("kept", 2))),
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


def test_no_np_abs_in_the_package():
    """One height: no module under src/pencils names np.abs (or
    np.absolute), which wraps int64 -2^63 to itself; the largest |entry|
    of an array is read by projective._height."""
    package = Path(pencils.__file__).parent
    uses = [(path.name, node.lineno) for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in ("abs", "absolute")
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert uses == []


def test_only_projective_and_serialize_test_entry_types():
    """One intake: whether a table entry is an exact int is decided by
    projective (int_rows, _exact) and, for JSON cells, by serialize; no other
    module under src/pencils calls map(type, ...) or compares a type(x)."""
    def calls(node, name):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)

    def tests_type(node):
        if calls(node, "map") and node.args:
            return isinstance(node.args[0], ast.Name) and node.args[0].id == "type"
        return isinstance(node, ast.Compare) and any(
            calls(side, "type") for side in [node.left, *node.comparators])

    package = Path(pencils.__file__).parent
    uses = [(path.name, node.lineno) for path in sorted(package.glob("*.py"))
            if path.stem not in ("projective", "serialize")
            for node in ast.walk(ast.parse(path.read_text())) if tests_type(node)]
    assert uses == []
    # the scan does find the entry-type tests that projective and serialize make
    assert any(tests_type(node) for name in ("projective", "serialize")
               for node in ast.walk(ast.parse((package / f"{name}.py").read_text())))


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


def test_pencils_from_graph_takes_one_gcd_per_edge_point():
    """A pencil is its kept pairs: pencils_from_graph forms no cross_rows,
    and it normalises each centre's joins once, on their two kept columns
    over the |E| edge points, and no other time: it builds each Pencil from
    canonical rows, without the constructor's _row_set."""
    normalise, calls = pencils.projective._normalise, []

    def recording(*cols):
        calls.append((sys._getframe(1).f_code.co_name, [len(col) for col in cols]))
        return normalise(*cols)

    source = ast.parse(inspect.getsource(pencils_from_graph))
    assert not [node for node in ast.walk(source) if "cross_rows" in (
        getattr(node, "id", None), getattr(node, "attr", None))]
    cases = [(build_farey_shift_construction(256), standard_shift_centres()),
             (build_symmetric_farey_construction(64),
              [ProjPoint(2, 1, -3), ProjPoint(1, 7, 0), ProjPoint(0, 1, 0)])]
    for built, centres in cases:
        calls.clear()
        with mock.patch.object(pencils.projective, "_normalise", recording), \
                mock.patch.object(pencils.constructions, "_normalise", recording):
            config = pencils_from_graph(built, centres)
        edges = built.edge_count
        assert calls == [("pencils_from_graph", [edges] * 2)] * config.m
        assert max(config.sizes()) < edges


def test_exact_dtype_bound():
    assert exact_dtype(2**62 - 1) is np.int64
    assert exact_dtype(2**62) is object


def test_height_matches_python_ints():
    """_height against max(|v|) in Python ints: int64 holding -2^63 (its own
    np.abs), uint64 holding 2^64 - 1, object entries past 2^62 of either
    sign, empty arrays (0 when no array holds an entry), all-negative and
    all-positive arrays, and several arrays of mixed dtypes at once."""
    int64 = lambda *vs: np.array(vs, dtype=np.int64)
    cases = [
        [int64(-2**63, 5)],
        [int64(2**63 - 1, -2**63 + 1)],
        [np.array([3, 2**64 - 1], dtype=np.uint64)],
        [np.array([-2**62 - 7, 2**62 + 3], dtype=object)],
        [np.array([2**70, -2**80], dtype=object)],
        [int64(-7, -9)],
        [int64(7, 9)],
        [int64()],
        [np.empty((0, 3), dtype=object)],
        [],
        [int64(-3, 2, 1, 0).reshape(2, 2), int64(), np.array([2**64 - 1], dtype=np.uint64),
         int64(-2**63)],
        [int64(-4, 1), np.array([3], dtype=object), int64()],
    ]
    for arrays in cases:
        got = _height(*arrays)
        assert type(got) is int
        assert got == max((abs(v) for a in arrays for v in a.ravel().tolist()), default=0)


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
def _row_lists(draw, ints):
    """Lists of triples, each a drawn nonzero multiple of one whose entries
    come from a few drawn values, so rows repeat, tie in their leading
    columns and scale to one line; a zero row ends some lists."""
    pool = draw(st.lists(ints, min_size=1, max_size=4))
    value = st.sampled_from(pool)
    scaled = st.builds(lambda t, f: tuple(f * v for v in t), st.tuples(value, value, value),
                       st.integers(-3, 3).filter(bool))
    return draw(st.lists(scaled, max_size=12)) + [(0, 0, 0)] * draw(st.booleans())


def test_row_set_matches_sorted_canonical_set():
    """_row_set against the sorted set of the _canonical triples (a zero row
    stays zero), in the rows' dtype, with its input left as it is.  Each
    kind of entries gets its own examples; a counter shows int64 and object
    rows, zero rows and two triples of one line drawn."""
    reached = Counter()

    @settings(max_examples=20)
    def check(triples):
        top = max((abs(v) for t in triples for v in t), default=0)
        rows = int_rows(triples).astype(exact_dtype(top))
        before = rows.copy()
        canonical = [_canonical(*t) if any(t) else (0, 0, 0) for t in triples]
        reached[rows.dtype.name] += 1
        reached["zero row"] += (0, 0, 0) in triples
        reached["one line, two triples"] += len(set(canonical)) < len(set(triples))
        got = _row_set(rows)
        assert got.dtype == rows.dtype and got.shape == (len(set(canonical)), 3)
        assert list(row_triples(got)) == sorted(set(canonical))
        assert np.array_equal(rows, before)

    for ints in (_small, _ints):
        given(_row_lists(ints))(check)()
    assert all(reached[k] for k in ("int64", "object", "zero row", "one line, two triples")), (
        reached)


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
# every uint32 pair, whose keys pass 2^62.  An int64 column whose range
# passes 2^62, so that its keys are object arrays, comes from _ints draws
# only by chance; so a known one, alone or as the numerators of fractions,
# is one branch of the _ints strategies of widths 1 and 2.
_mid = st.integers(-2**30, 2**30)
_index = st.one_of(st.integers(0, 5), st.integers(2**32 - 6, 2**32 - 1))
_wide = [2**62 - 1, -2**62 + 1, 7]
_key_columns = [
    *(st.lists(st.tuples(*[ints] * width), max_size=12).map(
        lambda tuples, width=width: _tuple_arrays(tuples, width))
      for width, ints in ((1, _small), (1, _mid), (3, _small), (3, _mid), (3, _ints))),
    st.one_of(st.just(_columns(_wide)),
              st.lists(st.tuples(_ints), max_size=12).map(lambda t: _tuple_arrays(t, 1))),
    st.lists(_rationals(_small), max_size=12).map(_pair_arrays),
    st.one_of(st.just(_pair_arrays([Fraction(v, 2) for v in _wide])),
              st.lists(_rationals(_ints), max_size=12).map(_pair_arrays)),
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
    assert {(2, "int64", "int64"), (2, "int64", "object"), (2, "object", "object"),
            (2, "uint32", "int64"), (2, "uint32", "object"), (1, "int64", "int64"),
            (1, "int64", "object"), (1, "object", "object"), (3, "int64", "int64"),
            (3, "int64", "object"), (3, "object", "object"),
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


def _pencil_rows(lines):
    return Pencil(ProjPoint(0, 0, 1), lines).rows.tolist()


def _graph_edges(edges, ground=GroundSet(range(3))):
    return BipartiteGraph(ground, ground, edges).edge_array.tolist()


# (intake, good rows of it, the error that an entry which is not an exact int raises)
_INTAKES = [
    (_pencil_rows, [(1, 0, 0), (2, 2, 0), (0, 1, 0)], TypeError, None),
    (_graph_edges, [(2, 0), (0, 1), (2, 0)], ValueError,
     "edge index out of range or not an integer"),
]


@pytest.mark.parametrize("intake, rows, entry_error, message", _INTAKES,
                         ids=["Pencil", "BipartiteGraph"])
def test_pencil_and_graph_take_tables_alike(intake, rows, entry_error, message):
    """Pencil and BipartiteGraph take their integer tables through int_rows,
    so both accept the same forms and refuse the same entries and shapes."""
    width, expected = len(rows[0]), intake(rows)
    numpy_ints = [tuple(kind(v) for kind, v in zip((np.int64, np.uint8, np.int32), row))
                  for row in rows]
    for good in ([list(row) for row in rows], numpy_ints, np.array(rows, dtype=np.int64),
                 np.array(rows, dtype=np.uint32), np.array(rows, dtype=object)):
        assert intake(good) == expected
    assert intake([]) == []
    for entry in (True, np.True_, 1.0, "1", None):
        with pytest.raises(entry_error, match=message):
            intake(rows + [(entry, *rows[0][1:])])
    for row in (rows[0][:-1], rows[0] + (0,), 5):
        with pytest.raises(ValueError, match=f"every row must hold {width} entries"):
            intake(rows + [row])
    for array in (np.array([]), np.array([1, 0, 0]), np.zeros((1, 2, 3), dtype=np.int64)):
        with pytest.raises(ValueError, match=re.escape(f"shape {array.shape}")):
            intake(array)
    with pytest.raises(ValueError, match=f"every row must hold {width} entries"):
        intake([5])


def _int_rows_oracle(rows, width):
    """int_rows in plain Python: "ValueError" for an array of another shape
    or a row that is not a sequence of width entries, "TypeError" for an
    entry that is not an int or a numpy integer, else the rows as tuples."""
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != width:
            return "ValueError"
        rows = rows.tolist()
    if any(not isinstance(row, (list, tuple, np.ndarray)) or len(row) != width
           for row in rows):
        return "ValueError"
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
           for row in rows for v in row):
        return "TypeError"
    return [tuple(int(v) for v in row) for row in rows]


_NOT_INTS = st.sampled_from([True, False, np.True_, 1.5, np.float64(2.0), "7", None])
_NUMPY_INTS = st.one_of(st.builds(np.int64, st.integers(-2**40, 2**40)),
                        st.builds(np.uint16, st.integers(0, 2**16 - 1)))


@st.composite
def _tables(draw, ints):
    """A width and a list of rows of that many drawn ints, tuples or lists,
    then at most one change to one row: a numpy integer entry, an entry that
    is not an int, one entry more or less, or an int in place of the row."""
    width = draw(st.sampled_from([2, 3]))
    row = st.lists(ints, min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(row, row.map(tuple)), max_size=6))
    change = draw(st.sampled_from(range(6)))
    if rows and change:
        i = draw(st.integers(0, len(rows) - 1))
        new, j = list(rows[i]), draw(st.integers(0, width - 1))
        if change == 1:
            new[j] = draw(_NUMPY_INTS)
        elif change == 2:
            new[j] = draw(_NOT_INTS)
        rows[i] = {3: new + [0], 4: new[:-1], 5: new[0]}.get(change, new)
    return width, rows


def test_int_rows_matches_python_oracle():
    """int_rows against _int_rows_oracle, one @given run per regime: lists of
    small ints, integer (and float and bool) arrays of drawn shapes, and
    values past 2^63 as lists and as object arrays.  Kept arrays come back
    as they are, built ones as int64 (object past it); a counter shows the
    fast path, the _exact fallback, the object fallback and each refusal."""
    reached, exact, used = Counter(), pencils.projective._exact, []

    def counting(v):
        used.append(v)
        return exact(v)

    def check(rows, width):
        expected = _int_rows_oracle(rows, width)
        used.clear()
        if isinstance(expected, str):
            with pytest.raises((ValueError, TypeError)) as raised:
                int_rows(rows, width)
            assert raised.type.__name__ == expected
            kind = "shape" if "shape" in str(raised.value) else "row" if "hold" in str(
                raised.value) else "entry"
            reached[regime, expected, kind] += 1
            return
        got = int_rows(rows, width)
        assert got.dtype.kind in "iuO" and got.shape == (len(expected), width)
        assert list(map(tuple, got.tolist())) == expected
        if got is rows:
            reached[regime, "kept"] += 1
        else:
            fits = all(-2**63 <= v < 2**63 for row in expected for v in row)
            assert got.dtype == (np.int64 if fits else object)
            reached[regime, "built", got.dtype.name, "_exact" if used else "scan"] += 1

    @settings(max_examples=40)
    @given(_tables(st.integers(-2**40, 2**40)))
    def lists(drawn):
        width, rows = drawn
        check(rows, width)

    dtypes = st.one_of(st.sampled_from([np.int8, np.int64, np.uint32, np.uint64]),
                       st.sampled_from([np.float64, np.bool_]))

    @settings(max_examples=40)
    @given(st.sampled_from([2, 3]), st.data())
    def arrays(width, data):
        rows = data.draw(hnp.arrays(dtypes, st.tuples(st.integers(0, 5), st.just(width))))
        # as drawn, emptied, flattened, nested once more, or one column wider
        check(data.draw(st.sampled_from([rows, rows[:0], rows.ravel(), rows[None],
                                         np.concatenate([rows, rows[:, :1]], axis=1)])), width)

    huge = st.one_of(st.integers(-9, 9), st.integers(2**63 - 2, 2**63 + 2),
                     st.integers(-2**70, 2**70))

    @settings(max_examples=40)
    @given(_tables(huge))
    def past_int64(drawn):
        width, rows = drawn
        check(rows, width)
        if all(isinstance(row, (list, tuple)) and len(row) == width for row in rows):
            check(np.array(rows, dtype=object).reshape(-1, width), width)

    with mock.patch.object(pencils.projective, "_exact", counting):
        for regime, run in (("lists", lists), ("arrays", arrays), ("past int64", past_int64)):
            run()
    assert {("lists", "built", "int64", "scan"), ("lists", "built", "int64", "_exact"),
            ("lists", "TypeError", "entry"), ("lists", "ValueError", "row"),
            ("arrays", "kept"), ("arrays", "built", "int64", "scan"),
            ("arrays", "TypeError", "entry"), ("arrays", "ValueError", "shape"),
            ("past int64", "kept"), ("past int64", "built", "object", "scan"),
            ("past int64", "built", "object", "_exact"), ("past int64", "TypeError", "entry"),
            ("past int64", "ValueError", "row")} <= set(reached), reached
