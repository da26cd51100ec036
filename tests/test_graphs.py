import random
from fractions import Fraction

import pytest

from pencils.errors import DomainTooSmall, ZeroDenominator
from pencils.graphs import (
    FORD_DELTA,
    BipartiteGraph,
    GroundSet,
    ford_estimate,
    multiplication_table_size,
    neighbourhood_square_sum,
    restricted_difference_set,
    restricted_sum_set,
    shifted_restricted_ratio_set,
)

from oracles import multiplication_table_bruteforce


def _random_graph(rng, max_side=8):
    na = rng.randint(1, max_side)
    nb = rng.randint(1, max_side)
    a_vals = rng.sample(range(-20, 21), na)
    b_vals = rng.sample(range(-20, 21), nb)
    A = GroundSet.from_values(Fraction(v) for v in a_vals)
    B = GroundSet.from_values(Fraction(v, rng.choice([1, 1, 2])) for v in b_vals)
    edges = [(i, j) for i in range(len(A)) for j in range(len(B))
             if rng.random() < 0.4]
    return BipartiteGraph(A, B, edges)


def test_ground_set_rejects_duplicates():
    with pytest.raises(ValueError):
        GroundSet([Fraction(1), Fraction(2), Fraction(1)])


def test_ground_set_from_values_sorts_and_dedups():
    g = GroundSet.from_values([Fraction(3), Fraction(1), Fraction(3), Fraction(2)])
    assert list(g) == [Fraction(1), Fraction(2), Fraction(3)]
    assert g.index_of(Fraction(2)) == 1
    assert g[0] == Fraction(1)
    assert Fraction(3) in g and Fraction(5) not in g
    assert len(g) == 3


def test_graph_edges_deduped_and_sorted():
    A = GroundSet.from_values([Fraction(0), Fraction(1)])
    B = GroundSet.from_values([Fraction(0), Fraction(1)])
    g = BipartiteGraph(A, B, [(1, 0), (0, 0), (1, 0), (0, 1)])
    assert g.edge_count == 3
    assert g.edge_array.tolist() == [[0, 0], [0, 1], [1, 0]]


def test_graph_rejects_out_of_range_edges():
    A = GroundSet.from_values([Fraction(0)])
    B = GroundSet.from_values([Fraction(0)])
    with pytest.raises(ValueError):
        BipartiteGraph(A, B, [(0, 1)])


def test_graph_dedup_matches_sort_dedup_oracle():
    rng = random.Random(42)
    for _ in range(50):
        na, nb = rng.randint(1, 6), rng.randint(1, 6)
        A = GroundSet.from_values([Fraction(v) for v in range(na)])
        B = GroundSet.from_values([Fraction(v) for v in range(nb)])
        raw = [(rng.randrange(na), rng.randrange(nb)) for _ in range(rng.randint(0, 30))]
        g = BipartiteGraph(A, B, raw)
        assert [tuple(e) for e in g.edge_array.tolist()] == sorted(set(raw))


def test_degrees_and_transpose():
    A = GroundSet.from_values([Fraction(0), Fraction(1), Fraction(2)])
    B = GroundSet.from_values([Fraction(5), Fraction(7)])
    g = BipartiteGraph(A, B, [(0, 0), (0, 1), (2, 1)])
    assert list(g.left_degrees()) == [2, 0, 1]
    t = g.transpose()
    assert t.left is g.right and t.right is g.left
    assert t.edge_array.tolist() == [[0, 0], [1, 0], [1, 2]]
    assert g.neighbourhoods() == {0: [0, 1], 2: [1]}


def test_restricted_ops_empty_graph():
    A = GroundSet.from_values([Fraction(1), Fraction(2)])
    B = GroundSet.from_values([Fraction(3)])
    g = BipartiteGraph(A, B, [])
    assert restricted_sum_set(g) == frozenset()
    assert restricted_difference_set(g) == frozenset()
    assert shifted_restricted_ratio_set(g, Fraction(0), Fraction(0)) == frozenset()
    assert neighbourhood_square_sum(g) == 0


def test_restricted_ops_complete_graph_example():
    A = GroundSet.from_values([Fraction(0), Fraction(1)])
    B = GroundSet.from_values([Fraction(0), Fraction(1)])
    g = BipartiteGraph(A, B, [(i, j) for i in range(2) for j in range(2)])
    assert restricted_sum_set(g) == {Fraction(0), Fraction(1), Fraction(2)}
    assert restricted_difference_set(g) == {Fraction(-1), Fraction(0), Fraction(1)}
    assert neighbourhood_square_sum(g) == 8


def _value_pairs(g):
    return [(g.left[i], g.right[j]) for i, j in g.edge_array.tolist()]


def _height(values):
    return max(max(abs(v.numerator), v.denominator) for v in values)


def test_restricted_ops_match_bruteforce():
    rng = random.Random(42)
    for _ in range(60):
        g = _random_graph(rng)
        pairs = _value_pairs(g)
        assert restricted_sum_set(g) == {a + b for a, b in pairs}
        assert restricted_difference_set(g) == {a - b for a, b in pairs}
        x = Fraction(rng.randint(0, 3))
        y = Fraction(rng.randint(22, 25))  # keeps every denominator nonzero
        got = shifted_restricted_ratio_set(g, x, y)
        assert got == {(a + x) / (b + y) for a, b in pairs}
        assert neighbourhood_square_sum(g) == sum(
            d * d for d in g.left_degrees())
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


def test_ratio_set_zero_denominator():
    A = GroundSet.from_values([Fraction(1)])
    B = GroundSet.from_values([Fraction(-2), Fraction(3)])
    g = BipartiteGraph(A, B, [(0, 0), (0, 1)])
    with pytest.raises(ZeroDenominator):
        shifted_restricted_ratio_set(g, Fraction(0), Fraction(2))
    # same shift is fine once the offending b has no incident edges
    g2 = BipartiteGraph(A, B, [(0, 1)])
    assert shifted_restricted_ratio_set(g2, Fraction(0), Fraction(2)) == {Fraction(1, 5)}


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
        assert len(restricted_sum_set(g)) <= e
        assert len(restricted_difference_set(g)) <= e
        got = shifted_restricted_ratio_set(g, Fraction(1), Fraction(30))
        assert len(got) <= e
        if e:
            assert len(got) >= max(g.left_degrees())


def test_multiplication_table_small_values():
    with pytest.raises(DomainTooSmall):
        multiplication_table_size(0)
    assert multiplication_table_size(1) == 1
    assert multiplication_table_size(3) == 6
    assert multiplication_table_size(4) == 9


def test_multiplication_table_matches_bruteforce():
    rng = random.Random(42)
    # 1500^2 spans two sieve windows
    for n in [2, 5, 8, 13, 1500] + [rng.randint(20, 120) for _ in range(8)]:
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


def test_ford_constant_value():
    assert abs(FORD_DELTA - 0.086071) < 5e-7


def test_ford_estimate_shape():
    with pytest.raises(DomainTooSmall):
        ford_estimate(15)
    assert abs(ford_estimate(16) - 14.2311) < 1e-3
    # the modelled density decays in n, matching the exact-count trend
    assert ford_estimate(10**6) / 10**6 < ford_estimate(10**3) / 10**3
    for n in (100, 10_000):
        est = ford_estimate(n)
        assert 0 < est < n
