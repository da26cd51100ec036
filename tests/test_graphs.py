import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pencils.graphs
from pencils.errors import PreconditionError, ZeroDenominator
from pencils.graphs import (
    BipartiteGraph,
    GroundSet,
    _edge_ratios,
    _ratio_arrays,
    _shifted,
    _sorted_ground,
    multiplication_table_size,
    neighbourhood_square_sum,
    shifted_restricted_ratio_set,
)
from pencils.projective import _keys, _member, exact_dtype

from oracles import _as_set, multiplication_table_bruteforce


def _random_graph(rng, max_side=8):
    na = rng.randint(1, max_side)
    nb = rng.randint(1, max_side)
    a_vals = rng.sample(range(-20, 21), na)
    b_vals = rng.sample(range(-20, 21), nb)
    A = GroundSet(sorted({Fraction(v) for v in a_vals}))
    B = GroundSet(sorted({Fraction(v, rng.choice([1, 1, 2])) for v in b_vals}))
    edges = [(i, j) for i in range(len(A)) for j in range(len(B))
             if rng.random() < 0.4]
    return BipartiteGraph(A, B, edges)


def _left_degrees(g):
    """|N(a)| for every left index, counted from the edge list."""
    counts = Counter(i for i, _ in g.edge_array.tolist())
    return [counts[a] for a in range(len(g.left))]


def test_ground_set_rejects_duplicates():
    for values in ([Fraction(1), Fraction(2), Fraction(1)], ["1", "2/2"],
                   [2**70, Fraction(-1, 3), Fraction(2**71, 2)]):
        with pytest.raises(ValueError, match="pairwise distinct"):
            GroundSet(values)


def test_ground_set_rejects_floats_and_bools():
    # 0.1 would be stored as 3602879701896397/2^55 and True as 1
    for values in ([0.1], [Fraction(1), 0.5], [np.float64(2)], [True], [0, False]):
        with pytest.raises(TypeError):
            GroundSet(values)
    assert GroundSet([1, "1/2", Fraction(1, 3)]).elements == (1, Fraction(1, 2), Fraction(1, 3))


def test_ground_set_arrays_and_lookups():
    g = GroundSet([Fraction(3), Fraction(1), Fraction(2)])
    assert list(g) == list(g.elements) == [Fraction(3), Fraction(1), Fraction(2)]
    assert Fraction(3) in g and Fraction(5) not in g and 2**64 + 3 not in g
    assert len(g) == 3
    assert g == GroundSet(["3", "1", "2"]) != GroundSet([1, 2, 3])
    # negative values, shared denominators and heights past 2^62, in drawn
    # order; the stored integer form matches the Fractions
    rng = random.Random(5)
    for _ in range(60):
        scale = rng.choice([1, 1, 2**70])
        values = [Fraction(rng.randint(-40, 40) * scale,
                           rng.choice([1, 2, 3, 4, 6, 7, 2**63 + 1]))
                  for _ in range(rng.randint(1, 40))]
        g = GroundSet(dict.fromkeys(values))
        assert list(g) == list(dict.fromkeys(values))
        assert g.numerators.tolist() == [v.numerator for v in g]
        assert g.denominators.tolist() == [v.denominator for v in g]
        assert g.height == _height(g)
        assert (g.numerators.dtype == object) == (g.height >= 2**62)
    empty = GroundSet([])
    assert len(empty) == empty.height == 0
    assert empty.numerators.size == empty.denominators.size == 0


# A drawn list has coordinates up to 40 (int64 key and arrays), near 2^21
# (object key, int64 arrays) or straddling 2^62 (object key and arrays).
_coords = [st.integers(0, 40), st.integers(2**21 - 40, 2**21 + 40),
           st.integers(2**62 - 40, 2**62 + 40)]


@st.composite
def _value_lists(draw, ints):
    """Rationals built from a few drawn numerators of either sign and
    positive denominators, so values repeat and share denominators."""
    nums = draw(st.lists(st.one_of(ints, ints.map(lambda v: -v)), min_size=1, max_size=4))
    dens = draw(st.lists(ints.filter(bool), min_size=1, max_size=3))
    return draw(st.lists(st.builds(Fraction, st.sampled_from(nums), st.sampled_from(dens)),
                         min_size=1, max_size=12))


def test_sorted_ground_matches_sorted_set():
    """Each size of coordinates gets its own examples; a counter shows the
    three regimes reached: int64 sort keys, object keys over an int64
    ground set (the keys' factor D^2 takes them past 2^62), and an object
    ground set."""
    regimes = Counter()

    @settings(max_examples=20)
    def check(values):
        top = max((max(abs(v.numerator), v.denominator) for v in values), default=0)
        num, den = (np.array(col, dtype=exact_dtype(top))
                    for col in ([v.numerator for v in values], [v.denominator for v in values]))
        ground, pos = _sorted_ground(num, den)
        elements = ground.elements
        assert list(elements) == sorted(set(values))
        assert ground == GroundSet(sorted(set(values)))
        assert ground.height == top
        assert ground.numerators.dtype == ground.denominators.dtype == exact_dtype(top)
        assert pos.dtype == np.uint32
        assert [elements[p] for p in pos.tolist()] == values
        # queries past 2^62 against int64 arrays compare exactly, with no wraparound
        queries = values + [v + 2**64 for v in values] + [v / 2**64 for v in values]
        assert [q in ground for q in queries] == [q in set(values) for q in queries]
        key = exact_dtype(top * max(v.denominator for v in values) ** 2)
        regimes[np.dtype(key).name, ground.numerators.dtype.name] += 1

    for ints in _coords:
        given(_value_lists(ints))(check)()
    assert regimes.keys() == {("int64", "int64"), ("object", "int64"), ("object", "object")}, regimes


def test_graph_edges_deduped_and_sorted():
    A = GroundSet([Fraction(0), Fraction(1)])
    B = GroundSet([Fraction(0), Fraction(1)])
    g = BipartiteGraph(A, B, [(1, 0), (0, 0), (1, 0), (0, 1)])
    assert g.edge_count == 3
    assert g.edge_array.tolist() == [[0, 0], [0, 1], [1, 0]]


def test_graph_rejects_out_of_range_edges():
    """Also indices that are not exact ints: the uint32 cast would read
    (0.5, 1.9) as (0, 1) and True as 1, and overflow on -1 and 2^32."""
    A = GroundSet([Fraction(0), Fraction(1)])
    B = GroundSet([Fraction(0), Fraction(1)])
    bad = ([(0, 2)], [(0.5, 1.9)], [(0, True)], [(0, -1)], [(2**32, 0)],
           np.array([[0.5, 1.9]]), np.array([[False, True]]),
           np.array([[0, -1]]), np.array([[2**32, 0]]))
    for edges in bad:
        with pytest.raises(ValueError, match="edge index out of range or not an integer"):
            BipartiteGraph(A, B, edges)
    for edges in ([(1, 1), (0, 1)], np.array([[1, 1], [0, 1]], dtype=np.int64)):
        assert BipartiteGraph(A, B, edges).edge_array.tolist() == [[0, 1], [1, 1]]


def test_graph_dedup_matches_sort_dedup_oracle():
    rng = random.Random(42)
    for _ in range(50):
        na, nb = rng.randint(1, 6), rng.randint(1, 6)
        A = GroundSet(range(na))
        B = GroundSet(range(nb))
        raw = [(rng.randrange(na), rng.randrange(nb)) for _ in range(rng.randint(0, 30))]
        g = BipartiteGraph(A, B, raw)
        assert [tuple(e) for e in g.edge_array.tolist()] == sorted(set(raw))


def test_degrees_and_transpose():
    A = GroundSet([Fraction(0), Fraction(1), Fraction(2)])
    B = GroundSet([Fraction(5), Fraction(7)])
    g = BipartiteGraph(A, B, [(0, 0), (0, 1), (2, 1)])
    assert _left_degrees(g) == [2, 0, 1]
    assert neighbourhood_square_sum(g) == 5
    t = g.transpose()
    assert t.left is g.right and t.right is g.left
    assert t.edge_array.tolist() == [[0, 0], [1, 0], [1, 2]]


def test_restricted_ops_empty_graph():
    A = GroundSet([Fraction(1), Fraction(2)])
    B = GroundSet([Fraction(3)])
    g = BipartiteGraph(A, B, [])
    assert shifted_restricted_ratio_set(g, Fraction(0), Fraction(0)) == frozenset()
    assert neighbourhood_square_sum(g) == 0
    empty = GroundSet([])
    g = BipartiteGraph(empty, empty, [])
    assert shifted_restricted_ratio_set(g, 2**70, Fraction(1, 2**70)) == frozenset()


def test_restricted_ops_complete_graph_example():
    A = GroundSet([Fraction(0), Fraction(1)])
    B = GroundSet([Fraction(0), Fraction(1)])
    g = BipartiteGraph(A, B, [(i, j) for i in range(2) for j in range(2)])
    assert shifted_restricted_ratio_set(g, 0, 1) == {Fraction(0), Fraction(1, 2), Fraction(1)}
    assert neighbourhood_square_sum(g) == 8


def _value_pairs(g):
    left, right = g.left.elements, g.right.elements
    return [(left[i], right[j]) for i, j in g.edge_array.tolist()]


def _height(values):
    return max(max(abs(v.numerator), v.denominator) for v in values)


def _check_ratio_set_matches_bruteforce():
    rng = random.Random(42)
    for _ in range(60):
        g = _random_graph(rng)
        pairs = _value_pairs(g)
        x = Fraction(rng.randint(0, 3))
        y = Fraction(rng.randint(22, 25))  # keeps every denominator nonzero
        got = shifted_restricted_ratio_set(g, x, y)
        assert got == {(a + x) / (b + y) for a, b in pairs}
        assert neighbourhood_square_sum(g) == sum(d * d for d in _left_degrees(g))
    # negative and non-integer shifts; a shift that zeroes b + y on an
    # edge must raise and name that b
    hits = 0
    for _ in range(60):
        g = _random_graph(rng)
        pairs = _value_pairs(g)
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        y = rng.choice([-rng.choice(g.right.elements),
                        Fraction(rng.randint(-30, 30), rng.randint(1, 6))])
        zeros = {b for _, b in pairs if b + y == 0}
        if zeros:
            hits += 1
            with pytest.raises(ZeroDenominator) as err:
                shifted_restricted_ratio_set(g, x, y)
            assert {err.value.value} == zeros
        else:
            got = shifted_restricted_ratio_set(g, x, y)
            assert got == {(a + x) / (b + y) for a, b in pairs}
    assert hits
    # entries past 2^62: the kernel runs on Python ints
    for _ in range(10):
        g = _random_graph(rng)
        big = BipartiteGraph(
            GroundSet(a * 2**40 + Fraction(1, 3) for a in g.left),
            GroundSet(b / (2**30 + 1) for b in g.right),
            g.edge_array,
        )
        x, y = Fraction(-5, 7), Fraction(2**31 + 1, 3)
        assert (_height([a + x for a in big.left])
                * _height([b + y for b in big.right]) > 2**62)
        got = shifted_restricted_ratio_set(big, x, y)
        assert got == {(a + x) / (b + y) for a, b in _value_pairs(big)}


def test_restricted_ops_match_bruteforce():
    _check_ratio_set_matches_bruteforce()


def test_restricted_ops_match_bruteforce_object_dtype(object_dtype):
    _check_ratio_set_matches_bruteforce()


def _check_ratio_arrays_and_member():
    """_ratio_arrays gives each distinct ratio once, reduced, sorted by
    (numerator, denominator); _member agrees with Fraction-set membership,
    for query and set arrays of either dtype and for an empty set."""
    rng = random.Random(3)
    for _ in range(40):
        g = _random_graph(rng)
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        y = Fraction(rng.randint(22, 25))
        num, den = _ratio_arrays(g, x, y)
        pairs = list(zip(num.tolist(), den.tolist()))
        assert pairs == sorted(set(pairs))
        assert all(math.gcd(p, q) == 1 and q > 0 for p, q in pairs)
        assert _as_set((num, den)) == {(a + x) / (b + y) for a, b in _value_pairs(g)}
        queries = [(a + x) / (b + y) for a, b in _value_pairs(g)]
        queries += [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(30)]
        # queries past 2^62 come only as object arrays
        huge = [Fraction(p, q) + Fraction(1, 2**70) for p, q in pairs[:3]]
        for qs, qdtype in ((queries, np.int64), (queries + huge, object)):
            qn = np.array([q.numerator for q in qs], dtype=qdtype)
            qd = np.array([q.denominator for q in qs], dtype=qdtype)
            got = _member((qn, qd), _keys((num, den)))
            assert got.dtype == bool
            assert got.tolist() == [q in _as_set((num, den)) for q in qs]
        # a row dropped from the set is a miss, the rest still hit
        if len(num):
            got = _member((num, den), _keys((num[1:], den[1:])))
            assert got.tolist() == [False] + [True] * (len(num) - 1)
    empty = np.array([], dtype=np.int64)
    none = _keys((empty, empty))
    assert _member((np.array([1, 2]), np.array([1, 3])), none).tolist() == [False, False]
    assert _member((empty, empty), none).tolist() == []


def test_ratio_arrays_and_member():
    _check_ratio_arrays_and_member()


def test_ratio_arrays_and_member_object_dtype(object_dtype):
    _check_ratio_arrays_and_member()


def _values(element):
    return st.lists(element, min_size=1, max_size=5)


def _both_kinds(ijs):
    return [v for i, j in ijs for v in (Fraction(2**40 + j, i), Fraction(i, 2**40 + j))]


# Ground values and shifts per regime, each aiming at one (pair, key) dtype
# combination: positive integers over B values (2^40 + j)/i and
# i/(2^40 + j), whose ratios spread both columns, so that span * w passes
# 2^62 while every entry stays below it (int64 pairs, object key); small
# rationals (int64 pairs and key); left values past 2^64 (object pairs and
# key); and multiples of 2^64 whose ratios reduce to small values (object
# pairs, int64 key).
_tiny, _positive, _natural = st.integers(-20, 20), st.integers(1, 20), st.integers(0, 20)
_regimes = [
    (_values(_positive.map(Fraction)), _values(st.tuples(_positive, _tiny)).map(_both_kinds),
     _natural.map(Fraction), st.just(Fraction(0))),
    (_values(st.builds(Fraction, _tiny, _positive)), _values(st.builds(Fraction, _tiny, _positive)),
     st.builds(Fraction, _tiny, _positive), st.builds(Fraction, _tiny, _positive)),
    (_values(st.builds(lambda k, r: Fraction(k * 2**64 + r), _positive, _tiny)),
     _values(st.builds(Fraction, _positive, _positive)), _tiny.map(Fraction),
     _natural.map(Fraction)),
    (_values(_tiny.map(lambda k: Fraction(k * 2**64))),
     _values(_positive.map(lambda k: Fraction(k * 2**64))),
     _tiny.map(lambda k: Fraction(k * 2**64)), _natural.map(lambda k: Fraction(k * 2**64))),
]


@st.composite
def _ratio_cases(draw, regime):
    """A graph over ground sets drawn from one regime, the complete graph
    with a drawn subset of its edges dropped, and shifts x, y."""
    a, b, x, y = regime
    left, right = GroundSet(sorted(set(draw(a)))), GroundSet(sorted(set(draw(b))))
    pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
    dropped = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return (BipartiteGraph(left, right, [e for e, drop in zip(pairs, dropped) if not drop]),
            draw(x), draw(y))


def test_ratio_arrays_property_matches_fraction_set():
    """_ratio_arrays against the Fraction set of (a + x) / (b + y) over the
    edges, as (numerator, denominator) pairs in sorted order and in the edge
    ratios' dtype; a counting wrapper around its _keys calls shows every
    (pair, key) dtype combination drawn."""
    keys, dtypes = pencils.graphs._keys, Counter()

    def counting(cols, box=None):
        key, box = keys(cols, box)
        dtypes[cols[0].dtype.name, key.dtype.name] += 1
        return key, box

    @settings(max_examples=10)
    def check(case):
        g, x, y = case
        values = _value_pairs(g)
        if any(b + y == 0 for _, b in values):
            with pytest.raises(ZeroDenominator):
                _ratio_arrays(g, x, y)
            return
        with mock.patch.object(pencils.graphs, "_keys", counting):
            num, den = _ratio_arrays(g, x, y)
        edges = _edge_ratios(g, _shifted(g.left, Fraction(x)), _shifted(g.right, Fraction(y)))
        assert num.dtype == den.dtype == edges[0].dtype
        assert list(zip(num.tolist(), den.tolist())) == sorted(
            (r.numerator, r.denominator) for r in {(a + x) / (b + y) for a, b in values})

    # each regime gets its own examples, so the derandomized draws reach all four
    for regime in _regimes:
        given(_ratio_cases(regime))(check)()
    assert {(p, k) for p in ("int64", "object") for k in ("int64", "object")} <= set(dtypes), dtypes


def test_ratio_set_zero_denominator():
    A = GroundSet([Fraction(1)])
    B = GroundSet([Fraction(-2), Fraction(3)])
    g = BipartiteGraph(A, B, [(0, 0), (0, 1)])
    with pytest.raises(ZeroDenominator):
        shifted_restricted_ratio_set(g, Fraction(0), Fraction(2))
    # same shift is fine once the offending b has no incident edges
    g2 = BipartiteGraph(A, B, [(0, 1)])
    assert shifted_restricted_ratio_set(g2, Fraction(0), Fraction(2)) == {Fraction(1, 5)}


def test_ratio_set_rejects_float_and_bool_shifts():
    # a shift of 0.1 gave ratios with denominator 2^56, and True read as 1
    g = BipartiteGraph(GroundSet([1, 2]), GroundSet([1, 2]), [(0, 0), (1, 1)])
    for x, y in ((0.1, 0), (0, 0.5), (True, 0), (0, False)):
        with pytest.raises(TypeError):
            shifted_restricted_ratio_set(g, x, y)
    assert shifted_restricted_ratio_set(g, "1/2", 0) == {Fraction(3, 2), Fraction(5, 4)}


def test_cauchy_schwarz_inequality_holds():
    rng = random.Random(7)
    for _ in range(60):
        g = _random_graph(rng)
        e = g.edge_count
        assert len(g.left) * neighbourhood_square_sum(g) >= e * e


def test_op_set_sizes_bounded_by_edges():
    rng = random.Random(9)
    for _ in range(40):
        g = _random_graph(rng)
        e = g.edge_count
        got = shifted_restricted_ratio_set(g, Fraction(1), Fraction(30))
        assert len(got) <= e
        if e:
            assert len(got) >= max(_left_degrees(g))


def test_multiplication_table_small_values():
    with pytest.raises(PreconditionError, match="needs n >= 1"):
        multiplication_table_size(0)
    assert multiplication_table_size(1) == 1
    assert multiplication_table_size(3) == 6
    assert multiplication_table_size(4) == 9


def test_multiplication_table_matches_bruteforce():
    rng = random.Random(42)
    # 1500^2 spans two sieve windows
    for n in [2, 5, 8, 13, 1500] + [rng.randint(20, 120) for _ in range(8)]:
        assert multiplication_table_size(n) == multiplication_table_bruteforce(n)


@given(st.integers(1, 60), st.integers(1, 80))
def test_multiplication_table_property_matches_bruteforce(n, segment):
    # windows of a few cells put window edges inside every small table
    with mock.patch.object(pencils.graphs, "_SIEVE_SEGMENT", segment):
        assert multiplication_table_size(n) == multiplication_table_bruteforce(n)


def test_multiplication_table_monotone_and_bounded():
    prev = 0
    for n in range(1, 200):
        cur = multiplication_table_size(n)
        assert prev <= cur <= n * n
        prev = cur


def test_multiplication_table_guard():
    with pytest.raises(ValueError):
        multiplication_table_size(20_001)

