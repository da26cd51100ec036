import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pencils import graphs, incidence
from pencils.constructions import build_symmetric_farey_construction
from pencils.errors import PreconditionError
from pencils.graphs import (
    BipartiteGraph,
    GroundSet,
    neighbourhood_square_sum,
    shifted_restricted_ratio_set,
)
from pencils.incidence import (
    _witness_identity_holds,
    build_lemma_instance,
    count_incidences,
    szemeredi_trotter_ok,
    verify_lemma_chain,
)
from pencils.projective import exact_dtype

from oracles import (
    _as_set,
    incidence_count_bruteforce,
    incidence_count_hashjoin,
    witness_identity_pairwise,
)


def _graph(a_vals, b_vals, pairs):
    A = GroundSet(sorted(set(map(Fraction, a_vals))))
    B = GroundSet(sorted(set(map(Fraction, b_vals))))
    ai = {v: k for k, v in enumerate(A)}
    bi = {v: k for k, v in enumerate(B)}
    return BipartiteGraph(A, B, [(ai[Fraction(a)], bi[Fraction(b)]) for a, b in pairs])


def _hashjoin(inst):
    return incidence_count_hashjoin(inst.graph.right.elements, inst.centre1, inst.centre2,
                                    _as_set(inst.ratio1), _as_set(inst.ratio2))


def _lines(inst):
    """The |B|^2 lines l_{b1,b2}: (b1 - y1) x - (b2 - y2) y + (x1 - x2) = 0,
    as coefficient triples divided by x1 - x2, so that every constant term
    is 1 and two triples are equal iff their lines are."""
    (x1, y1), (x2, y2) = inst.centre1, inst.centre2
    s = x1 - x2
    right = inst.graph.right
    return [((b1 - y1) / s, -(b2 - y2) / s, Fraction(1))
            for b1 in right for b2 in right]


def _random_instance(rng, max_side=8):
    while True:
        na, nb = rng.randint(1, max_side), rng.randint(1, max_side)
        a_vals = rng.sample(range(0, 25), na)
        b_vals = rng.sample(range(0, 25), nb)
        pairs = [(a, b) for a in a_vals for b in b_vals if rng.random() < 0.5]
        if not pairs:
            continue
        g = _graph(a_vals, b_vals, pairs)
        while True:
            x1, x2 = rng.randint(-5, 5), rng.randint(-5, 5)
            y1, y2 = rng.randint(-5, -1), rng.randint(-5, -1)
            if (x1, y1) == (x2, y2):
                continue
            if x1 == x2 and (x1 in g.left or x2 in g.left):
                continue
            return g, (Fraction(x1), Fraction(y1)), (Fraction(x2), Fraction(y2))


def test_tiny_instance_exact_counts():
    g = _graph([1, 2], [1, 2], [(1, 1), (2, 2)])
    inst = build_lemma_instance(g, (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(-2)))
    assert not inst.swapped
    # R1 = A/(B+1) = {1/2, 2/3}, R2 = (A-1)/(B+2) = {0, 1/4}
    assert _as_set(inst.ratio1) == {Fraction(1, 2), Fraction(2, 3)}
    assert _as_set(inst.ratio2) == {Fraction(0), Fraction(1, 4)}
    # (1/2, 0) lies on l_{1,1} and l_{1,2}; (2/3, 1/4) on l_{2,2}
    assert count_incidences(inst) == 3


def test_line_tags_are_b_pairs():
    g = _graph([1, 2, 3], [1, 2], [(1, 1), (2, 1), (3, 2)])
    c1, c2 = (Fraction(0), Fraction(-1)), (Fraction(2), Fraction(-3))
    inst = build_lemma_instance(g, c1, c2)
    rep = verify_lemma_chain(g, c1, c2)
    assert rep.line_count == len(g.right) ** 2
    # one line per (b1, b2) in B x B, pairwise distinct because x1 != x2
    assert len(set(_lines(inst))) == rep.line_count


def test_line_count_on_random_instances():
    rng = random.Random(42)
    for _ in range(20):
        g, c1, c2 = _random_instance(rng)
        inst, rep = build_lemma_instance(g, c1, c2), verify_lemma_chain(g, c1, c2)
        assert rep.swapped == inst.swapped
        if inst.swapped:
            assert rep.line_count == len(g.left) ** 2
        else:
            assert rep.line_count == len(g.right) ** 2
        assert rep.point_count == len(_as_set(inst.ratio1)) * len(_as_set(inst.ratio2))


def test_coincident_centres_rejected():
    g = _graph([1], [1], [(1, 1)])
    with pytest.raises(PreconditionError, match="centres coincide"):
        build_lemma_instance(g, (Fraction(0), Fraction(-1)), (Fraction(0), Fraction(-1)))


def test_float_and_bool_centres_rejected():
    # (0.1, -1) was read as x = 3602879701896397/2^55, and (True, -1) as x = 1,
    # with all_ok true
    g = _graph([1, 2], [1, 2], [(1, 1), (2, 2)])
    for centre in ((0.1, -1), (0, -1.0), (True, -1), (0, False)):
        with pytest.raises(TypeError):
            build_lemma_instance(g, centre, (Fraction(3), Fraction(-1)))
        with pytest.raises(TypeError):
            verify_lemma_chain(g, (Fraction(3), Fraction(-1)), centre)


def test_shift_into_denominators_rejected():
    g = _graph([1, 2], [1, 2], [(1, 1), (2, 2)])
    with pytest.raises(PreconditionError, match="lies in the denominator ground set"):
        build_lemma_instance(g, (Fraction(0), Fraction(1)), (Fraction(1), Fraction(-2)))


def test_swapped_instance():
    # equal x-shifts force the coordinate swap, valid because no y hits A
    g = _graph([1, 2], [1, 2], [(1, 1), (1, 2), (2, 2)])
    inst = build_lemma_instance(g, (Fraction(3), Fraction(-1)), (Fraction(3), Fraction(-2)))
    assert inst.swapped
    assert len(inst.graph.right) == len(g.left)
    rep = verify_lemma_chain(g, (Fraction(3), Fraction(-1)), (Fraction(3), Fraction(-2)))
    assert rep.swapped and rep.all_ok
    assert rep.line_count == len(g.left) ** 2


def test_swapped_instance_rejects_shift_into_left():
    g = _graph([1, 2], [1, 2], [(1, 1), (2, 2)])
    with pytest.raises(PreconditionError, match="lies in the denominator ground set"):
        build_lemma_instance(g, (Fraction(2), Fraction(-1)), (Fraction(2), Fraction(-2)))


@st.composite
def _shift_cases(draw):
    """Drawn ground values, a graph over them and two distinct centres whose
    coordinates are, for some draws, ground values, so a y in the
    denominator ground set is drawn with and without the swap.  Every value
    is a multiple of a drawn unit, 1 or 2^64, so both dtypes are drawn."""
    unit = 2 ** (64 * draw(st.integers(0, 1)))
    values = st.builds(lambda p, q: Fraction(p * unit, q), st.integers(-4, 4), st.integers(1, 2))
    left = sorted(set(draw(st.lists(values, min_size=1, max_size=4))))
    right = sorted(set(draw(st.lists(values, min_size=1, max_size=4))))
    coord = st.one_of(values, st.sampled_from(left), st.sampled_from(right))
    c1 = (draw(coord), draw(coord))
    c2 = (draw(st.one_of(st.just(c1[0]), coord)), draw(coord))
    assume(c1 != c2)
    edges = draw(st.lists(st.tuples(st.integers(0, len(left) - 1),
                                    st.integers(0, len(right) - 1)), max_size=8))
    return left, right, BipartiteGraph(GroundSet(left), GroundSet(right), edges), c1, c2


def test_shift_check_property_matches_fraction_oracle():
    """build_lemma_instance refuses a centre exactly when its y, after any
    swap, is an element of the denominator ground set, as Fractions; a spy
    on _shifted records which dtypes the shifted ground sets took."""
    shifted, seen = incidence._shifted, Counter()

    def spy(ground, x):
        out = shifted(ground, x)
        seen[out[0].dtype.name] += 1
        return out

    @given(_shift_cases())
    def check(case):
        left, right, g, (x1, y1), (x2, y2) = case
        swapped = x1 == x2
        denominators, ys = (left, (x1, x2)) if swapped else (right, (y1, y2))
        refused = any(y in denominators for y in ys)
        with mock.patch.object(incidence, "_shifted", spy):
            if refused:
                with pytest.raises(PreconditionError, match="lies in the denominator ground set"):
                    build_lemma_instance(g, (x1, y1), (x2, y2))
            else:
                assert build_lemma_instance(g, (x1, y1), (x2, y2)).swapped == swapped
        seen["swapped" if swapped else "unswapped"] += 1
        seen["refused" if refused else "built"] += 1

    check()
    branches = ("int64", "object", "swapped", "unswapped", "refused", "built")
    assert all(seen[k] for k in branches), seen


def _line_scan_count(inst):
    """I by scanning each line l_{b1,b2}: for every r1 in R1, the one y with
    (b1 - y1) r1 + (x1 - x2) = (b2 - y2) y is looked up in R2."""
    (x1, y1), (x2, y2) = inst.centre1, inst.centre2
    right = inst.graph.right
    ratio1, ratio2 = _as_set(inst.ratio1), _as_set(inst.ratio2)
    return sum(((b1 - y1) * r1 + (x1 - x2)) / (b2 - y2) in ratio2
               for b1 in right for b2 in right for r1 in ratio1)


def _check_counting_methods_agree():
    rng = random.Random(7)
    for _ in range(25):
        g, c1, c2 = _random_instance(rng, max_side=5)
        inst = build_lemma_instance(g, c1, c2)
        assert count_incidences(inst) == _line_scan_count(inst) == _hashjoin(inst)
    return inst


def test_counting_methods_agree():
    inst = _check_counting_methods_agree()
    # the count has one exact algorithm; there is no method selector left
    with pytest.raises(TypeError):
        count_incidences(inst, "guess")


def test_counting_methods_agree_object_dtype(object_dtype):
    _check_counting_methods_agree()


def _check_count_matches_oracles():
    rng = random.Random(11)
    swapped = 0
    for _ in range(40):
        g, c1, c2 = _random_instance(rng, max_side=5)
        if rng.random() < 0.25 and c1[0] not in g.left:
            # equal x-shifts force the coordinate swap
            c2 = (c1[0], c1[1] - 1)
        inst = build_lemma_instance(g, c1, c2)
        swapped += inst.swapped
        pts = [(r1, r2) for r1 in _as_set(inst.ratio1) for r2 in _as_set(inst.ratio2)]
        assert (count_incidences(inst) == incidence_count_bruteforce(pts, _lines(inst))
                == _hashjoin(inst))
    assert swapped
    empty = BipartiteGraph(GroundSet([1]), GroundSet([2]), [])
    inst = build_lemma_instance(empty, (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(-1)))
    assert count_incidences(inst) == incidence_count_bruteforce([], _lines(inst)) == 0
    assert _hashjoin(inst) == 0


def test_count_matches_bruteforce_oracle():
    _check_count_matches_oracles()


def test_count_matches_bruteforce_oracle_object_dtype(object_dtype):
    _check_count_matches_oracles()


def test_count_past_the_int64_bound_matches_hashjoin(monkeypatch):
    # a centre whose y has denominator near 2^40 puts the count's bound
    # 2 H_u H_r H_s past 2^62 at the real int64 bound, so the count takes
    # the object path (a spy records exact_dtype's pick) while the ratio
    # sets stay int64; int64 products would wrap here and miss incidences
    picked = []
    monkeypatch.setattr(incidence, "exact_dtype",
                        lambda bound: picked.append(exact_dtype(bound)) or picked[-1])
    rng = random.Random(13)
    for _ in range(10):
        g, c1, c2 = _random_instance(rng, max_side=6)
        c1 = (c1[0], c1[1] + Fraction(1, 2**40 + 15))
        inst = build_lemma_instance(g, c1, c2)
        assert inst.ratio1[0].dtype == np.int64
        assert count_incidences(inst) == _hashjoin(inst)
        assert picked[-1] is object
        assert verify_lemma_chain(g, c1, c2).all_ok


@st.composite
def _lemma_cases(draw):
    """A graph over positive values, edgeless for some draws, and two
    distinct centres with negative coordinates, which share their first
    coordinate (a swapped instance) for some draws.  Every value is a
    multiple of a drawn unit, 1 or 2^64, so both dtypes are drawn."""
    unit = 2 ** (64 * draw(st.integers(0, 1)))
    values = st.builds(lambda p, q: Fraction(p * unit, q), st.integers(1, 12), st.integers(1, 3))
    left = GroundSet(sorted(set(draw(st.lists(values, min_size=1, max_size=5)))))
    right = GroundSet(sorted(set(draw(st.lists(values, min_size=1, max_size=5)))))
    pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    coord = st.builds(lambda p, q: Fraction(-p * unit, q), st.integers(1, 6), st.integers(1, 3))
    c1 = (draw(coord), draw(coord))
    c2 = (draw(st.one_of(st.just(c1[0]), coord)), draw(coord))
    assume(c1 != c2)
    edges = [e for e, keep in zip(pairs, kept) if keep]
    return BipartiteGraph(left, right, edges), c1, c2


def test_count_property_matches_hashjoin():
    """count_incidences against the hash-join oracle on ratio sets computed
    with Fractions; counters show edgeless, swapped and both key dtypes drawn."""
    keys, seen = incidence._keys, Counter()

    def counting(cols, box=None):
        key, box = keys(cols, box)
        seen[key.dtype.name] += 1
        return key, box

    @given(_lemma_cases())
    def check(case):
        g, c1, c2 = case
        (x1, y1), (x2, y2) = c1, c2
        left, right, edges = g.left.elements, g.right.elements, g.edge_array.tolist()
        if x1 == x2:  # the lemma swaps the plane's coordinates
            left, right, edges = right, left, [(j, i) for i, j in edges]
            (y1, x1), (y2, x2) = c1, c2
        ratio1 = {(left[i] - x1) / (right[j] - y1) for i, j in edges}
        ratio2 = {(left[i] - x2) / (right[j] - y2) for i, j in edges}
        inst = build_lemma_instance(g, c1, c2)
        assert inst.swapped == (c1[0] == c2[0])
        assert (_as_set(inst.ratio1), _as_set(inst.ratio2)) == (ratio1, ratio2)
        with mock.patch.object(incidence, "_keys", counting):
            got = count_incidences(inst)
        assert got == incidence_count_hashjoin(right, (x1, y1), (x2, y2), ratio1, ratio2)
        seen["edgeless" if not edges else "swapped" if inst.swapped else "plain"] += 1

    check()
    assert all(seen[k] for k in ("int64", "object", "edgeless", "swapped", "plain")), seen


def test_ratio_sets_are_the_shifted_ones():
    g = _graph([1, 2, 4], [1, 3], [(1, 1), (2, 1), (4, 3)])
    c1, c2 = (Fraction(0), Fraction(-1)), (Fraction(-2), Fraction(-5))
    inst = build_lemma_instance(g, c1, c2)
    assert _as_set(inst.ratio1) == shifted_restricted_ratio_set(g, Fraction(0), Fraction(1))
    assert _as_set(inst.ratio2) == shifted_restricted_ratio_set(g, Fraction(2), Fraction(5))


def test_verify_chain_small_instance():
    g = _graph([1, 2], [1, 2], [(1, 1), (2, 2)])
    rep = verify_lemma_chain(g, (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(-2)))
    assert rep.all_ok
    assert rep.edge_count == 2
    assert rep.neighbourhood_square_sum == neighbourhood_square_sum(g)
    assert rep.incidence_count >= rep.neighbourhood_square_sum
    assert rep.ratio_sizes == (2, 2)
    assert rep.point_count == 4 and rep.line_count == 4
    assert rep.constant_ratio is not None and rep.constant_ratio > 0


def _check_verify_chain_random_instances():
    rng = random.Random(42)
    for _ in range(30):
        g, c1, c2 = _random_instance(rng, max_side=6)
        rep = verify_lemma_chain(g, c1, c2)
        assert rep.witness_ok
        assert rep.incidence_lower_ok
        assert rep.cauchy_schwarz_ok
        assert rep.szemeredi_trotter_sane
        assert rep.all_ok
        e = rep.edge_count
        assert rep.left_size * rep.neighbourhood_square_sum >= e * e


def test_verify_chain_random_instances():
    _check_verify_chain_random_instances()


def test_verify_chain_random_instances_object_dtype(object_dtype):
    _check_verify_chain_random_instances()


def test_witness_check_matches_pairwise_oracle_object_dtype(object_dtype):
    """On object arrays too, the witness check agrees with the pairwise
    oracle, and both reject a ratio set missing its last row and a moved
    first centre, built as a real instance and given the unmoved ratio sets
    (the int64 case runs on the criterion-5 instances)."""
    rng = random.Random(23)
    for _ in range(20):
        g, c1, c2 = _random_instance(rng, max_side=6)
        inst = build_lemma_instance(g, c1, c2)
        (x1, y1), c2 = inst.centre1, inst.centre2
        num, den = inst.ratio1
        missing = inst._replace(ratio1=(num[:-1], den[:-1]))
        moved = build_lemma_instance(inst.graph, (x1 + Fraction(1, 997), y1), c2)._replace(
            ratio1=inst.ratio1, ratio2=inst.ratio2)
        h = inst.graph
        for case, want in ((inst, True), (missing, False), (moved, False)):
            pairwise = witness_identity_pairwise(
                h.left.elements, h.right.elements, h.edge_array.tolist(),
                case.centre1, case.centre2, _as_set(case.ratio1), _as_set(case.ratio2))
            assert _witness_identity_holds(case) == pairwise == want


def test_lemma_chain_shifts_each_ground_set_once():
    """verify_lemma_chain shifts A and B once per centre, 4 _shifted calls
    on a plain and on a swapped instance; the counter wraps _shifted under
    each module's name for it."""
    shifted, calls = graphs._shifted, []

    def counting(ground, x):
        calls.append(x)
        return shifted(ground, x)

    g = _graph([1, 2], [1, 2], [(1, 1), (1, 2), (2, 2)])
    for x2, swapped in ((1, False), (3, True)):
        calls.clear()
        with mock.patch.object(graphs, "_shifted", counting), \
                mock.patch.object(incidence, "_shifted", counting):
            rep = verify_lemma_chain(g, (Fraction(3), Fraction(-1)), (Fraction(x2), Fraction(-2)))
        assert rep.swapped == swapped and rep.all_ok
        assert len(calls) == 4


def test_verify_chain_empty_graph():
    A = GroundSet([Fraction(1)])
    B = GroundSet([Fraction(2)])
    g = BipartiteGraph(A, B, [])
    rep = verify_lemma_chain(g, (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(-1)))
    assert rep.all_ok
    assert rep.incidence_count == 0
    assert rep.constant_ratio is None


def test_verify_chain_symmetric_construction():
    built = build_symmetric_farey_construction(16)
    rep = verify_lemma_chain(built.graph, (Fraction(0), Fraction(-1)),
                             (Fraction(1), Fraction(-1)))
    assert rep.all_ok
    assert rep.edge_count == built.graph.edge_count
    assert rep.line_count == len(built.B) ** 2


def test_verify_chain_symmetric_n256():
    built = build_symmetric_farey_construction(256)
    rep = verify_lemma_chain(built.graph, (Fraction(0), Fraction(-1)),
                             (Fraction(1), Fraction(-1)))
    assert rep.all_ok
    assert rep.ratio_sizes == (298, 421)
    assert (rep.point_count, rep.line_count) == (125_458, 25_281)
    assert rep.neighbourhood_square_sum == 22_035
    assert rep.incidence_count == 392_538


def test_verify_chain_symmetric_n1024():
    built = build_symmetric_farey_construction(1024)
    rep = verify_lemma_chain(built.graph, (Fraction(0), Fraction(-1)),
                             (Fraction(1), Fraction(-1)))
    assert rep.all_ok
    assert rep.incidence_count == 10_446_079


def test_szemeredi_trotter_exact_boundary():
    # P = 2, L = 4: the cube-compare bound 4*((PL)^(2/3) + P + L) is exactly 40
    assert szemeredi_trotter_ok(40, 2, 4)
    assert not szemeredi_trotter_ok(41, 2, 4)
    assert szemeredi_trotter_ok(0, 0, 0)
    assert szemeredi_trotter_ok(5, 5, 0) and not szemeredi_trotter_ok(21, 5, 0)
