import math
import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest

from pencils.constructions import (
    GraphConstruction,
    Pencil,
    PencilConfig,
    build_farey_shift_construction,
    build_grid_footnote_config,
    build_m_pencil_config,
    build_symmetric_farey_construction,
    floored_log_quotient,
    general_position_centers,
    pencils_from_graph,
    standard_shift_centres,
)
from pencils.errors import (
    CentreOnPointSet,
    CoincidentCentres,
    DomainTooSmall,
)
from pencils.graphs import BipartiteGraph, GroundSet, shifted_restricted_ratio_set
from pencils.projective import ProjLine, ProjPoint, incident, line_through

from oracles import collinear_bruteforce, farey_shift_enumeration, symmetric_enumeration


def _value_pairs(graph):
    return [(graph.left[i], graph.right[j]) for i, j in graph.edge_array.tolist()]


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
    with pytest.raises(DomainTooSmall):
        build_farey_shift_construction(3)
    with pytest.raises(DomainTooSmall):
        build_farey_shift_construction(15, Fraction(43, 1000))
    # n = 15 is fine when d = 0
    build_farey_shift_construction(15)


def test_farey_shift_with_positive_d_shrinks():
    plain = build_farey_shift_construction(1024)
    damped = build_farey_shift_construction(1024, Fraction(43, 1000))
    assert damped.graph.edge_count < plain.graph.edge_count
    assert len(damped.A) <= len(plain.A)
    assert damped.label == "farey-shift(n=1024,d=43/1000)"


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
    good = ProjLine(1, -1, 0)
    bad = ProjLine(1, -1, -1)
    Pencil(centre, [good])
    with pytest.raises(ValueError):
        Pencil(centre, [good, bad])


def test_pencil_config_rejects_coincident_centres():
    p = Pencil(ProjPoint.from_affine(0, 0), [ProjLine(1, -1, 0)])
    q = Pencil(ProjPoint(0, 0, 2), [ProjLine(1, 0, 0)])
    with pytest.raises(CoincidentCentres):
        PencilConfig([p, q])
    cfg = PencilConfig([p, Pencil(ProjPoint.from_affine(1, 0), [ProjLine(0, 1, 0)])])
    assert cfg.m == 2
    assert cfg.sizes() == (1, 1)


def test_pencils_from_graph_symmetric_slopes():
    built = build_symmetric_farey_construction(4)
    cfg = pencils_from_graph(built, [ProjPoint.from_affine(0, 0)])
    assert cfg.m == 1
    pencil = cfg.pencils[0]
    # edge points (a, b) give lines through the origin of slope b/a
    slopes = set()
    for line in pencil.lines:
        a, b, c = line.coeffs
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
            return GroundSet.from_values(
                Fraction(rng.randint(-top, top), rng.randint(1, 50))
                for _ in range(rng.randint(1, 8)))
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
            assert pencil.lines == {line_through(centre, p) for p in points}
        on_set = next(iter(points))
        with pytest.raises(CentreOnPointSet):
            pencils_from_graph(built, [ProjPoint(1, 3, 0), on_set])


def test_pencils_from_graph_infinite_centres():
    built = build_symmetric_farey_construction(4)
    cfg = pencils_from_graph(built, [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0)])
    horizontals, verticals = cfg.pencils
    # one horizontal per distinct b, one vertical per distinct a
    assert len(horizontals.lines) == len({b for _, b in _value_pairs(built.graph)})
    assert len(verticals.lines) == len({a for a, _ in _value_pairs(built.graph)})
    for line in horizontals.lines:
        assert incident(ProjPoint(1, 0, 0), line)


def test_standard_shift_centres():
    centres = standard_shift_centres()
    assert centres[:3] == [ProjPoint.from_affine(0, 0), ProjPoint.from_affine(-1, 0),
                           ProjPoint.from_affine(-2, 0)]
    assert centres[3] == ProjPoint(0, 1, 0)
    assert len(set(centres)) == 4


def test_general_position_centers_postconditions():
    for m in range(1, 13):
        pts = general_position_centers(m)
        assert len(set(pts)) == m
        coords = []
        for p in pts:
            x, y = p.to_affine()
            assert x.denominator == 1 and y.denominator == 1
            assert 0 <= x <= 2 * m and 0 <= y <= 2 * m
            coords.append((int(x), int(y), 1))
        if m >= 3:
            assert not collinear_bruteforce(coords)


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
        # every edge point is covered by some line of this pencil
        for p in points:
            assert any(incident(p, l) for l in pencil.lines)


def test_grid_footnote_shape():
    for n in (2, 3, 5):
        cfg = build_grid_footnote_config(n)
        assert cfg.m == 4
        assert cfg.sizes() == (n, n, 2 * n - 1, 2 * n - 1)
        for pencil in cfg.pencils:
            assert pencil.centre.is_infinite
    with pytest.raises(DomainTooSmall):
        build_grid_footnote_config(0)


def test_grid_footnote_covers_grid():
    n = 4
    cfg = build_grid_footnote_config(n)
    for gx in range(1, n + 1):
        for gy in range(1, n + 1):
            p = ProjPoint.from_affine(gx, gy)
            for pencil in cfg.pencils:
                assert any(incident(p, l) for l in pencil.lines)


def test_construction_roundtrip_values_are_reduced():
    built = build_farey_shift_construction(100)
    for a in built.A:
        assert math.gcd(a.numerator, a.denominator) == 1
    for b in built.B:
        assert b.numerator == 1
