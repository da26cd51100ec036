import math
import operator
import random
import re
from collections import Counter
from fractions import Fraction
from math import isqrt
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pencils.constructions import (
    GraphConstruction,
    Pencil,
    PencilConfig,
    build,
    build_farey_shift_construction,
    build_grid_footnote_config,
    build_m_pencil_config,
    build_symmetric_farey_construction,
    floored_log_quotient,
    general_position_centers,
    pencils_from_graph,
    standard_shift_centres,
)
from pencils.errors import CentreOnPointSet, PreconditionError
from pencils.graphs import (BipartiteGraph, GroundSet, multiplication_table_size,
                            shifted_restricted_ratio_set)
from pencils.incidence import szemeredi_trotter_ok
from pencils.projective import ProjPoint, exact_dtype, row_triples

from oracles import (
    _canon,
    _cross,
    _on_line,
    collinear_bruteforce,
    farey_shift_enumeration,
    join,
    log_quotient_floor,
    symmetric_enumeration,
)


def _value_pairs(graph):
    left, right = graph.left.elements, graph.right.elements
    return [(left[i], right[j]) for i, j in graph.edge_array.tolist()]


def test_floored_log_quotient_d_zero():
    for n in (4, 16, 100, 12345):
        assert floored_log_quotient(n, 0) == n
        assert floored_log_quotient(n, 0, sqrt_numerator=True) == isqrt(n)


def test_floored_log_quotient_is_exact_floor():
    mpmath.mp.dps = 80
    for n, d in [(16, Fraction(43, 1000)), (1024, Fraction(43, 1000)),
                 (10**6, Fraction(1, 2)), (97, Fraction(9, 10))]:
        r = floored_log_quotient(n, d)
        exp = mpmath.mpf(d.numerator) / d.denominator
        val = mpmath.mpf(n) / mpmath.log(n) ** exp
        assert r <= val < r + 1
        rs = floored_log_quotient(n, d, sqrt_numerator=True)
        vals = mpmath.sqrt(n) / mpmath.log(n) ** exp
        assert rs <= vals < rs + 1


def test_floored_log_quotient_doubles_precision_until_the_floors_agree():
    """mpmath.floor wrapped so that the upper endpoint's floor is one more
    than the lower's forces the precision loop.  Split in the first round
    only, floored_log_quotient doubles the precision once and returns the
    floor that an integer oracle finds; split in every round, it reaches
    10240 bits and raises ArithmeticError.  Both times mpmath.iv.prec is
    restored."""
    floor, precs = mpmath.floor, []

    def split(rounds):
        def wrapped(x):
            precs.append(mpmath.iv.prec)
            # calls alternate: the lower endpoint's floor, then the upper's
            return floor(x) + (len(precs) % 2 == 0 and len(precs) <= 2 * rounds)
        return wrapped

    n, d = 1024, Fraction(43, 1000)
    saved = mpmath.iv.prec
    mpmath.iv.prec = 99
    try:
        for sqrt_numerator in (False, True):
            precs.clear()
            with mock.patch.object(mpmath, "floor", split(1)):
                got = floored_log_quotient(n, d, sqrt_numerator)
            assert got == log_quotient_floor(n, d, sqrt_numerator)
            assert precs == [80, 80, 160, 160] and mpmath.iv.prec == 99
        precs.clear()
        with (mock.patch.object(mpmath, "floor", split(math.inf)),
              pytest.raises(ArithmeticError, match="undecided at n=1024, d=43/1000")):
            floored_log_quotient(n, d)
        assert precs == [80 << k for k in range(8) for _ in "ab"] and mpmath.iv.prec == 99
    finally:
        mpmath.iv.prec = saved


def test_pencil_and_config_reprs():
    centre = ProjPoint.from_affine(0, 0)
    config = PencilConfig([Pencil(centre, [(1, 0, 0), (0, 1, 0)]),
                           Pencil(ProjPoint(0, 1, 0), [(1, 0, 0)])], label="axes")
    assert repr(config.pencils[0]) == "Pencil(centre=ProjPoint(0 : 0 : 1), 2 lines)"
    assert repr(config) == "PencilConfig('axes', sizes=(2, 1))"


def test_farey_shift_small_case_matches_enumeration():
    built = build_farey_shift_construction(16)
    a_set, b_set, edges = farey_shift_enumeration(16)
    assert set(built.A) == a_set
    assert set(built.B) == b_set
    assert len(built.A) == 7 and len(built.B) == 16
    assert built.graph.edge_count == 39
    assert set(_value_pairs(built.graph)) == set(edges)
    assert built.label == "farey-shift(n=16,d=0)"
    assert built.n == 16 and built.d == 0


def test_farey_shift_edge_rule():
    # an edge joins i/j to 1/l exactly when j divides l
    built = build_farey_shift_construction(64)
    for a, b in _value_pairs(built.graph):
        j = a.denominator
        l = b.denominator
        assert b.numerator == 1 and l % j == 0


def test_farey_shift_edge_lower_bound():
    for n in (16, 64, 256):
        built = build_farey_shift_construction(n)
        assert 2 * built.graph.edge_count >= len(built.A) * isqrt(n)


def test_farey_shift_domain_guards():
    with pytest.raises(PreconditionError, match="n = 3 too small"):
        build_farey_shift_construction(3)
    with pytest.raises(PreconditionError, match="n = 15 too small"):
        build_farey_shift_construction(15, Fraction(43, 1000))
    # n = 15 is fine when d = 0
    build_farey_shift_construction(15)


def test_farey_shift_with_positive_d_shrinks():
    plain = build_farey_shift_construction(1024)
    damped = build_farey_shift_construction(1024, Fraction(43, 1000))
    assert damped.graph.edge_count < plain.graph.edge_count
    assert len(damped.A) <= len(plain.A)
    assert damped.label == "farey-shift(n=1024,d=43/1000)"


def test_parameters_out_of_range_are_refused():
    """The refusals of a negative d, of ln n <= 1 with d > 0, of ranges
    that d leaves empty, and of n < 1 or m < 1."""
    with pytest.raises(ValueError, match="d must be nonnegative"):
        floored_log_quotient(64, -1)
    with pytest.raises(PreconditionError, match="need ln n > 1"):
        floored_log_quotient(2, 1)
    with pytest.raises(PreconditionError, match="degenerate ranges at n = 16, d = 1"):
        build_farey_shift_construction(16, 1)
    with pytest.raises(PreconditionError, match="need n >= 1"):
        build_symmetric_farey_construction(0)
    with pytest.raises(PreconditionError, match="need m >= 1"):
        general_position_centers(0)


def test_d_rejects_floats_and_bools():
    # 0.043 would be read as 3098476543630901/2^56, and True as 1; a float
    # size such as 16.5 would be truncated to 16
    graph = build_symmetric_farey_construction(4).graph
    for d in (0.043, True):
        for call in (lambda: floored_log_quotient(64, d),
                     lambda: build_farey_shift_construction(64, d),
                     lambda: GraphConstruction(graph, 4, d, "symmetric(n=4)"),
                     lambda: build("symmetric", 16, d)):
            with pytest.raises(TypeError):
                call()
    for n in (16.5, True):
        for call in (lambda: floored_log_quotient(n, 0),
                     lambda: build_farey_shift_construction(n),
                     lambda: build_symmetric_farey_construction(n),
                     lambda: build_grid_footnote_config(n),
                     lambda: build_m_pencil_config(n, 16),
                     lambda: build_m_pencil_config(4, n),
                     lambda: general_position_centers(n),
                     lambda: GraphConstruction(graph, n, 0, "symmetric(n=4)"),
                     lambda: multiplication_table_size(n),
                     lambda: szemeredi_trotter_ok(n, 1, 1),
                     lambda: szemeredi_trotter_ok(1, n, 1),
                     lambda: szemeredi_trotter_ok(1, 1, n)):
            with pytest.raises(TypeError):
                call()
    assert build_farey_shift_construction(64, "43/1000").d == Fraction(43, 1000)
    assert GraphConstruction(graph, np.int64(4), 0, "symmetric(n=4)").n == 4


def test_symmetric_matches_enumeration():
    for n in (4, 16, 36):
        built = build_symmetric_farey_construction(n)
        a_set, edges = symmetric_enumeration(n)
        assert set(built.A) == a_set
        assert built.A is built.B  # same ground set on both sides
        assert set(_value_pairs(built.graph)) == set(edges)


def test_symmetric_edge_count_is_sum_of_squares():
    for n in (16, 64, 256):
        built = build_symmetric_farey_construction(n)
        s = isqrt(n)
        per_denominator = {}
        for a in built.A:
            per_denominator[a.denominator] = per_denominator.get(a.denominator, 0) + 1
        assert built.graph.edge_count == sum(c * c for c in per_denominator.values())
        assert all(1 <= a.denominator <= s for a in built.A)


def test_pencil_requires_incident_lines():
    centre = ProjPoint.from_affine(0, 0)
    good = (1, -1, 0)
    bad = (1, -1, -1)
    Pencil(centre, [good])
    with pytest.raises(ValueError, match="does not pass through"):
        Pencil(centre, [good, bad])
    with pytest.raises(ValueError, match=r"\(0, 0, 0\)"):
        Pencil(centre, [good, (0, 0, 0)])
    # a float is never truncated, and pairs are never regrouped into triples
    for floats in ([(1.5, -1.5, 0)], np.array([(1.5, -1.5, 0)]),
                   np.array([(1.5, -1.5, 0)], dtype=object)):
        with pytest.raises(TypeError):
            Pencil(centre, floats)
    with pytest.raises(ValueError):
        Pencil(centre, [(1, -1), (2, -2), (3, -3)])


def test_pencil_rejects_bool_coefficients():
    # (True, -1, 0) would read as the line (1, -1, 0) through the centre
    centre = ProjPoint.from_affine(0, 0)
    for lines in ([(True, -1, 0)], [(1, -1, False)], np.array([(True, False, False)])):
        with pytest.raises(TypeError):
            Pencil(centre, lines)


def test_pencil_rejects_arrays_of_another_shape():
    # the error names the shape: two valid lines in a (1, 2, 3) array are not
    # read as a (2, 3) one, and a (3,) or (1, 2) array is not a set of lines
    centre = ProjPoint(0, 0, 1)
    for lines in (np.array([[(1, -1, 0), (0, 1, 0)]]), np.array([1, -1, 0]),
                  np.array([[1, -1]])):
        with pytest.raises(ValueError, match=re.escape(f"shape {lines.shape}")):
            Pencil(centre, lines)


def test_pencil_rows_are_sorted_distinct_canonical():
    # scaled and repeated triples of one line collapse to its canonical row,
    # from an iterable, an int64 array or an object array of Python ints
    triples = [(0, 3, 0), (2, -2, 0), (-1, 1, 0), (1, -1, 0), (0, -1, 0)]
    centre = ProjPoint.from_affine(0, 0)
    for lines in (triples, np.array(triples), np.array(triples, dtype=object)):
        pencil = Pencil(centre, lines)
        assert pencil.rows.tolist() == [[0, 1, 0], [1, -1, 0]]
        assert pencil.size == 2
        assert pencil == Pencil(centre, [(1, -1, 0), (0, 1, 0)])
    assert Pencil(centre, []).size == 0
    # -2^63 is its own np.abs in int64, so the height is read in Python ints;
    # the int64 array and the Python ints give the one object row (2^63, -1, 0)
    lowest = np.array([[-2**63, 1, 0]])
    assert lowest.dtype == np.int64
    pencil = Pencil(centre, lowest)
    assert pencil.rows.dtype == object and pencil.rows.tolist() == [[2**63, -1, 0]]
    assert pencil == Pencil(centre, [(-2**63, 1, 0)])


# centre kinds by k, the last nonzero coordinate of the canonical centre:
# k = 0 is (1, 0, 0) alone; "|c_k| > 1" and "c_k < 0" have k = 1 or 2
_digits, _nonzero = st.integers(-9, 9), st.integers(-9, 9).filter(bool)
_CENTRES = {
    "k = 0": st.tuples(_nonzero, st.just(0), st.just(0)),
    "k = 1": st.tuples(_digits, _nonzero, st.just(0)),
    "k = 2": st.tuples(_digits, _digits, _nonzero),
    "|c_k| > 1": st.one_of(st.tuples(_digits, _nonzero, st.integers(2, 9)),
                           st.tuples(_digits, st.integers(2, 9), st.just(0))),
    "c_k < 0": st.one_of(st.tuples(st.integers(1, 9), _digits, st.integers(-9, -1)),
                         st.tuples(st.just(0), st.integers(1, 9), st.integers(-9, -1)),
                         st.tuples(st.integers(1, 9), st.integers(-9, -1), st.just(0))),
}
# the other points and the factors of each magnitude: small lines and
# factors give int64 rows, points past 2^62 give object rows, and factors
# past int64 give inputs past it whose canonical rows fit int64
_big = st.one_of(st.integers(2**62, 2**70), st.integers(-2**70, -2**62))
_MAGNITUDES = {
    "int64 rows": (_digits, st.sampled_from([1, -1, 2, -3, 4, -6, 9, -12])),
    "object rows": (st.one_of(_digits, _big), st.sampled_from([1, -1, 4, -6])),
    "scaled past int64": (_digits, st.one_of(_big, st.sampled_from([1, -4]))),
}


@st.composite
def _pencil_inputs(draw, centres, ints, factors):
    """A centre, and lines through it: canonical joins with 1-4 other drawn
    points, each given 1-8 times in a drawn order, each time times a drawn
    factor; as a list of tuples, an int64 array (where the entries fit) or an
    object array."""
    c = ProjPoint(*draw(centres)).coords
    other = st.tuples(ints, ints, ints).filter(lambda q: any(_cross(c, q)))
    joins = draw(st.lists(other.map(lambda q: join(c, q)), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.integers(0, len(joins) - 1), factors),
                          min_size=1, max_size=8))
    lines = [tuple(f * v for v in joins[i]) for i, f in picks]
    form = draw(st.sampled_from(["list", "int64", "object"]))
    if form == "int64" and max(abs(v) for line in lines for v in line) >= 2**63:
        form = "object"
    return c, lines, form, [f for _, f in picks]


def test_pencil_matches_the_sorted_canonical_set():
    """Pencil(centre, lines) against the sorted distinct oracles._canon rows
    of its lines, with the dtype rule: int64 when 3*C*H of the canonical rows
    is below 2^62 (C the largest |centre coordinate|, H the rows' largest
    |entry|), object otherwise; the caller's lines are left as they are.
    Each centre kind and magnitude is its own @given run with its own
    counter, which shows repeated, shuffled, negatively and compositely
    scaled lines, the input forms, and the magnitude's rows reached."""
    def check(drawn, reached):
        c, lines, form, factors = drawn
        arg = lines if form == "list" else np.array(lines, {"int64": np.int64}.get(form, object))
        kept = arg.copy()
        pencil = Pencil(ProjPoint(*c), arg)
        canon = sorted({_canon(line) for line in lines})
        assert list(row_triples(pencil.rows)) == canon
        height = max(abs(v) for row in canon for v in row)
        assert pencil.rows.dtype == exact_dtype(3 * max(map(abs, c)) * height)
        assert np.array_equal(np.array(arg, dtype=object), np.array(kept, dtype=object))
        composite = [f for f in factors if any(abs(f) > q and f % q == 0 for q in (2, 3, 5, 7))]
        reached.update(kind for kind, hit in (
            ("repeated", len(canon) < len(lines)),
            ("shuffled", [_canon(line) for line in lines] != sorted(map(_canon, lines))),
            ("negative factor", min(factors) < 0), ("composite factor", composite != []),
            ("input past int64", max(abs(v) for line in lines for v in line) >= 2**63),
            (f"{form} input", True), (f"{pencil.rows.dtype.name} rows", True)) if hit)

    for centre, centres in _CENTRES.items():
        for magnitude, (ints, factors) in _MAGNITUDES.items():
            reached = Counter()
            settings(max_examples=15)(given(_pencil_inputs(centres, ints, factors))(
                lambda drawn: check(drawn, reached)))()
            wanted = {"repeated", "shuffled", "negative factor", "composite factor",
                      "list input", "object input"}
            wanted |= {"int64 rows": {"int64 input", "int64 rows"},
                       "object rows": {"object rows"},
                       "scaled past int64": {"input past int64", "int64 rows"}}[magnitude]
            assert wanted <= set(reached), (centre, magnitude, reached)


def test_pencil_config_rejects_coincident_centres():
    p = Pencil(ProjPoint.from_affine(0, 0), [(1, -1, 0)])
    q = Pencil(ProjPoint(0, 0, 2), [(1, 0, 0)])
    with pytest.raises(PreconditionError, match="pairwise distinct"):
        PencilConfig([p, q])
    cfg = PencilConfig([p, Pencil(ProjPoint.from_affine(1, 0), [(0, 1, 0)])])
    assert cfg.m == 2
    assert cfg.sizes() == (1, 1)


def test_pencils_from_graph_symmetric_slopes():
    built = build_symmetric_farey_construction(4)
    cfg = pencils_from_graph(built, [ProjPoint.from_affine(0, 0)])
    assert cfg.m == 1
    pencil = cfg.pencils[0]
    # edge points (a, b) give lines through the origin of slope b/a
    slopes = set()
    for a, b, c in pencil.rows.tolist():
        assert c == 0
        slopes.add(Fraction(-a, b))
    assert slopes == {Fraction(1), Fraction(1, 2), Fraction(2)}


def test_pencils_from_graph_rejects_centre_on_point_set():
    built = build_symmetric_farey_construction(4)
    with pytest.raises(CentreOnPointSet):
        pencils_from_graph(built, [ProjPoint.from_affine(1, 1)])


def test_pencil_size_equals_shifted_ratio_size():
    built = build_symmetric_farey_construction(16)
    for x, y in [(Fraction(0), Fraction(-1)), (Fraction(-2), Fraction(-1)),
                 (Fraction(1), Fraction(-5)), (Fraction(1, 3), Fraction(7))]:
        cfg = pencils_from_graph(built, [ProjPoint.from_affine(x, y)])
        ratio = shifted_restricted_ratio_set(built.graph, -x, -y)
        assert cfg.sizes() == (len(ratio),)


def test_pencils_from_graph_matches_per_edge_joins():
    # values near 10^12 put 4*C*H_A*H_B past 2^62 (object arrays) when both
    # sides are large, and keep it below (int64) when one side is small
    rng = random.Random(5)
    for trial in range(12):
        def values(big):
            top = 10**12 if big else 10
            return GroundSet(sorted({
                Fraction(rng.randint(-top, top), rng.randint(1, 50))
                for _ in range(rng.randint(1, 8))}))
        left, right = values(True), values(trial % 2 == 0)
        edges = {(rng.randrange(len(left)), rng.randrange(len(right)))
                 for _ in range(rng.randint(1, 20))}
        built = GraphConstruction(BipartiteGraph(left, right, sorted(edges)),
                                  16, 0, "near-1e12")
        points = {ProjPoint.from_affine(a, b)
                  for a, b in _value_pairs(built.graph)}
        centres = standard_shift_centres() + [ProjPoint(1, 7, 0)]
        centres = [c for c in centres if c not in points]
        cfg = pencils_from_graph(built, centres)
        for centre, pencil in zip(centres, cfg.pencils):
            assert pencil.centre == centre
            assert (list(row_triples(pencil.rows))
                    == sorted({join(centre.coords, p.coords) for p in points}))
        on_set = next(iter(points))
        with pytest.raises(CentreOnPointSet):
            pencils_from_graph(built, [ProjPoint(1, 3, 0), on_set])


def test_pencils_from_graph_infinite_centres():
    built = build_symmetric_farey_construction(4)
    cfg = pencils_from_graph(built, [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0)])
    horizontals, verticals = cfg.pencils
    # one horizontal per distinct b, one vertical per distinct a
    assert horizontals.size == len({b for _, b in _value_pairs(built.graph)})
    assert verticals.size == len({a for a, _ in _value_pairs(built.graph)})
    for line in horizontals.rows.tolist():
        assert _on_line((1, 0, 0), line)


def _edge_point(a, b):
    return (a.numerator * b.denominator, b.numerator * a.denominator,
            a.denominator * b.denominator)


@st.composite
def _graph_and_centres(draw, ints, dens):
    """Two ground sets of drawn rationals, at least one edge, and one to four
    distinct centres: drawn triples, triples at infinity, or edge points."""
    values = st.lists(st.builds(Fraction, ints, dens), min_size=1, max_size=6)
    left, right = (sorted(set(draw(values))) for _ in range(2))
    edges = draw(st.lists(st.tuples(st.integers(0, len(left) - 1), st.integers(0, len(right) - 1)),
                          min_size=1, max_size=12, unique=True))
    digits = st.integers(-9, 9)
    centre = st.one_of(st.tuples(digits, digits, digits).filter(any),
                       st.tuples(digits, digits, st.just(0)).filter(any),
                       st.sampled_from([_edge_point(left[i], right[j]) for i, j in edges]))
    centres = list(dict.fromkeys(ProjPoint(*t) for t in draw(st.lists(centre, min_size=1,
                                                                       max_size=4))))
    return left, right, edges, centres


def test_pencils_from_graph_matches_the_join_oracle():
    """Every pencil against oracles.join of its centre with the Fraction edge
    points, one @given run for small ground values and one for values near
    and past the int64 bound, whose 4*C^2*H_A*H_B lands on either side of
    2^62, also where the joins' bound 4*C*H_A*H_B is below it.  Each pencil
    is built without the constructor, so its rows are checked to be the
    canonical joins, sorted, in the dtype Pencil(centre, joins) picks.
    Centres come with |c_k| > 1, with c_k < 0 (c_k the last nonzero
    coordinate) and at infinity, and a centre that is an edge point raises
    CentreOnPointSet for the first such centre; a counter shows each kind
    reached in each dtype the bound picks."""
    reached = Counter()

    def check(drawn):
        left, right, edges, centres = drawn
        built = GraphConstruction(BipartiteGraph(GroundSet(left), GroundSet(right), edges),
                                  16, 0, "drawn")
        top = max(abs(v) for centre in centres for v in centre.coords)
        heights = built.A.height * built.B.height
        regime = exact_dtype(4 * top * top * heights).__name__
        # the rebuilt entries, not the joins (4*C*H_A*H_B), pick object here
        reached[regime, "join bound below 2^62"] += 4 * top * heights < 2**62
        points = {_edge_point(left[i], right[j]) for i, j in edges}
        on_set = [centre for centre in centres if centre in {ProjPoint(*p) for p in points}]
        if on_set:
            with pytest.raises(CentreOnPointSet) as raised:
                pencils_from_graph(built, centres)
            assert raised.value.centre == on_set[0]
            reached[regime, "on the point set"] += 1
            return
        for centre, pencil in zip(centres, pencils_from_graph(built, centres).pencils):
            assert pencil.centre == centre
            joins = sorted({join(centre.coords, p) for p in points})
            assert list(row_triples(pencil.rows)) == joins
            # the rows and dtype that the constructor makes of the joins
            assert pencil.rows.dtype == Pencil(centre, joins).rows.dtype
            c = centre.coords
            k = max(t for t in range(3) if c[t])
            reached.update((regime, kind) for kind, hit in (
                ("at infinity", c[2] == 0), ("|c_k| > 1", abs(c[k]) > 1), ("c_k < 0", c[k] < 0))
                if hit)

    @given(_graph_and_centres(st.integers(-60, 60), st.integers(1, 12)))
    def small(drawn):
        check(drawn)

    # numerators and denominators of each example in one band: H_A*H_B in
    # [2^54, 2^58] puts 4*C^2*H_A*H_B on either side of 2^62 as C varies, and
    # the other band puts it past 2^62
    bands = [st.integers(lo, hi) for lo, hi in ((2**27, 2**29), (2**40, 2**70))]

    @given(st.one_of(*(_graph_and_centres(st.one_of(band, band.map(operator.neg)), band)
                       for band in bands)))
    def large(drawn):
        check(drawn)

    small()
    large()
    assert {(regime, kind) for regime in ("int64", "object") for kind in (
        "at infinity", "|c_k| > 1", "c_k < 0", "on the point set")} <= set(+reached), reached
    assert reached["object", "join bound below 2^62"], reached


def test_pencils_from_graph_dtype_covers_rebuilt_lines():
    """A rebuilt line entry reaches 4*C^2*H_A*H_B, past the joins' 4*C*H_A*H_B:
    here the joins' bound is below 2^62, but a kept entry near 17*2^56 times
    c_k = 8 is past 2^63, so int64 arrays would wrap."""
    a, b = Fraction(2**28 - 1, 2**28 - 3), Fraction(-(2**28 - 5), 2**28 - 7)
    built = GraphConstruction(BipartiteGraph(GroundSet([a]), GroundSet([b]), [(0, 0)]),
                              16, 0, "near 2^63")
    centre = ProjPoint(1, 9, 8)
    assert 4 * 9 * built.A.height * built.B.height < 2**62
    (pencil,) = pencils_from_graph(built, [centre]).pencils
    assert list(row_triples(pencil.rows)) == [join(centre.coords, _edge_point(a, b))]


def test_standard_shift_centres():
    centres = standard_shift_centres()
    assert centres[:3] == [ProjPoint.from_affine(0, 0), ProjPoint.from_affine(-1, 0),
                           ProjPoint.from_affine(-2, 0)]
    assert centres[3] == ProjPoint(0, 1, 0)
    assert len(set(centres)) == 4


def _three_collinear_by_slopes(coords) -> bool:
    """O(m^2): some three points are collinear iff, from some point, two
    later points (in sorted order) lie in the same reduced direction."""
    pts = sorted(coords)
    for k, (x0, y0) in enumerate(pts):
        seen = set()
        for x1, y1 in pts[k + 1:]:
            dx, dy = x1 - x0, y1 - y0
            g = math.gcd(dx, dy)
            if (dx // g, dy // g) in seen:
                return True
            seen.add((dx // g, dy // g))
    return False


def test_general_position_centers_postconditions():
    # 1001 lies above the size up to which the package once re-checked
    # the property itself
    for m in (*range(1, 13), 1001):
        pts = general_position_centers(m)
        assert len(set(pts)) == m
        coords = []
        for p in pts:
            x, y = p.to_affine()
            assert x.denominator == 1 and y.denominator == 1
            assert 0 <= x <= 2 * m and 0 <= y <= 2 * m
            coords.append((int(x), int(y)))
        assert not _three_collinear_by_slopes(coords)
        if 3 <= m <= 12:
            assert not collinear_bruteforce([(x, y, 1) for x, y in coords])


def test_general_position_centers_large():
    pts = general_position_centers(50)
    assert len(set(pts)) == 50


def test_m_pencil_config_shape():
    cfg = build_m_pencil_config(4, 64)
    assert cfg.m == 4
    built = build_symmetric_farey_construction(64)
    points = {ProjPoint.from_affine(a, b) for a, b in _value_pairs(built.graph)}
    for pencil in cfg.pencils:
        x, y = pencil.centre.to_affine()
        assert x <= 0 and y <= 0  # negated lattice centres dodge the point set
        assert pencil.centre not in points
        # the slope bound of the docstring, for the centre (x, y) = (-x', -y')
        assert pencil.size <= (1 - x) * (1 - y) * 64
        # every edge point is covered by some line of this pencil
        lines = set(row_triples(pencil.rows))
        for p in points:
            assert join(pencil.centre.coords, p.coords) in lines


def test_build_dispatches_every_family():
    centres = standard_shift_centres()
    for tag in ("farey-shift", "symmetric"):
        built, config = build(tag, 64)
        assert isinstance(built, GraphConstruction) and config is None
        built, config = build(tag, 64, centres=centres)
        assert config.sizes() == pencils_from_graph(built, centres).sizes()
    built, config = build("grid-footnote", 5)
    assert built is None and config.sizes() == build_grid_footnote_config(5).sizes()
    built, config = build("m-pencil", 64, m=4)
    assert built.edge_count == build_symmetric_farey_construction(64).edge_count
    negated = [ProjPoint.from_affine(-x, -y)
               for x, y in (p.to_affine() for p in general_position_centers(4))]
    assert [pc.centre for pc in config.pencils] == negated
    assert config.sizes() == pencils_from_graph(built, negated).sizes()
    assert config.label == "m-pencil(m=4,n=64)"


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown construction tag"):
        build("no-such-construction", 16)
    with pytest.raises(ValueError, match="m-pencil needs m"):
        build("m-pencil", 16)
    for tag in ("farey-shift", "symmetric", "grid-footnote"):
        with pytest.raises(ValueError, match="m applies only to m-pencil"):
            build(tag, 16, m=4)
    centres = [ProjPoint.from_affine(0, -1)]
    with pytest.raises(ValueError, match="places its own centres"):
        build("grid-footnote", 16, centres=centres)
    with pytest.raises(ValueError, match="places its own centres"):
        build("m-pencil", 16, m=4, centres=centres)
    for tag, m in (("symmetric", None), ("grid-footnote", None), ("m-pencil", 4)):
        with pytest.raises(ValueError, match="d applies only to farey-shift"):
            build(tag, 16, Fraction(1, 2), m=m)
        for zero in (0, "0"):
            assert build(tag, 16, zero, m=m) != (None, None)


def test_grid_footnote_shape():
    for n in (2, 3, 5):
        cfg = build_grid_footnote_config(n)
        assert cfg.m == 4
        assert cfg.sizes() == (n, n, 2 * n - 1, 2 * n - 1)
        for pencil in cfg.pencils:
            assert pencil.centre.is_infinite
    with pytest.raises(PreconditionError, match="need n >= 1"):
        build_grid_footnote_config(0)


def test_grid_footnote_covers_grid():
    n = 4
    cfg = build_grid_footnote_config(n)
    for gx in range(1, n + 1):
        for gy in range(1, n + 1):
            p = ProjPoint.from_affine(gx, gy)
            for pencil in cfg.pencils:
                assert any(_on_line(p.coords, l) for l in pencil.rows.tolist())


def test_construction_roundtrip_values_are_reduced():
    built = build_farey_shift_construction(100)
    for a in built.A:
        assert math.gcd(a.numerator, a.denominator) == 1
    for b in built.B:
        assert b.numerator == 1
