import ast
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
from hypothesis import assume, given, settings, strategies as st

import pencils.richpoints
from pencils.constructions import (
    Pencil,
    PencilConfig,
    build_farey_shift_construction,
    build_grid_footnote_config,
    build_m_pencil_config,
    build_symmetric_farey_construction,
    pencils_from_graph,
    standard_shift_centres,
)
from pencils.errors import PreconditionError
from pencils.projective import ProjPoint, exact_dtype, int_rows, row_triples
from pencils.richpoints import (_LADDER, _SLACK, _inverses, _kernel_dtype, _line_test, _slots,
                                rich_points)

from oracles import (_canon, _cross, _on_line, join, pencil_lines_bruteforce,
                     rich_points_bruteforce)
from transforms import ProjTransform, SingularMatrix


def _pencil(cx, cy, through):
    centre = ProjPoint.from_affine(cx, cy)
    return Pencil(centre, [join(centre.coords, ProjPoint.from_affine(x, y).coords)
                           for x, y in through])


def _lines(pc):
    return set(row_triples(pc.rows))


def _random_config(rng, max_pencils=4, max_lines=5, scale=1, offset=0):
    """Small random configs; regenerated if any line sits in every pencil.
    Affine coordinates v are placed at scale * v + offset."""
    def at(x, y):
        return ProjPoint.from_affine(scale * x + offset, scale * y + offset)

    while True:
        m = rng.randint(2, max_pencils)
        centres = []
        while len(centres) < m:
            if rng.random() < 0.15:
                c = ProjPoint(1, rng.randint(-2, 2), 0)
            else:
                c = at(rng.randint(-5, 5), rng.randint(-5, 5))
            if c not in centres:
                centres.append(c)
        line_sets = []
        for c in centres:
            lines = set()
            while len(lines) < rng.randint(1, max_lines):
                q = at(rng.randint(-6, 6), rng.randint(-6, 6))
                if q == c:
                    continue
                lines.add(join(c.coords, q.coords))
            line_sets.append(lines)
        if set.intersection(*line_sets):
            continue
        return PencilConfig(Pencil(c, lines) for c, lines in zip(centres, line_sets))


def test_too_few_pencils():
    with pytest.raises(PreconditionError, match="at least 2 pencils"):
        rich_points(PencilConfig([_pencil(0, 0, [(1, 1)])]))


def test_grid_two_pencils():
    # horizontals x verticals: every grid node is rich
    h = Pencil(ProjPoint(1, 0, 0), [(0, 1, -k) for k in (1, 2, 3)])
    v = Pencil(ProjPoint(0, 1, 0), [(1, 0, -k) for k in (1, 2, 3)])
    rep = rich_points(PencilConfig([h, v]))
    assert rep.count == 9
    assert rep.infinite_count == 0
    assert {p.to_affine() for p in rep.points} == {
        (Fraction(gx), Fraction(gy)) for gx in (1, 2, 3) for gy in (1, 2, 3)}


def test_grid_footnote_counts():
    for n in (2, 3, 5):
        rep = rich_points(build_grid_footnote_config(n))
        assert rep.count == n * n
        assert not rep.excluded_centres


def test_rich_points_permutation_invariant():
    rng = random.Random(7)
    for _ in range(20):
        cfg = _random_config(rng)
        rep = rich_points(cfg)
        pencils = list(cfg.pencils)
        rng.shuffle(pencils)
        rep2 = rich_points(PencilConfig(pencils))
        assert rep.points == rep2.points
        assert set(rep.excluded_centres) == set(rep2.excluded_centres)


def test_rich_points_monotone_under_added_pencil():
    rng = random.Random(11)
    for _ in range(20):
        cfg = _random_config(rng, max_pencils=3)
        extra = _pencil(9, 9, [(1, 0), (0, 1), (2, 5)])
        if any(pc.centre == extra.centre for pc in cfg.pencils):
            continue
        bigger = PencilConfig(list(cfg.pencils) + [extra])
        if set.intersection(*map(_lines, bigger.pencils)):
            continue
        assert rich_points(bigger).points <= rich_points(cfg).points


def _oracle_check(cfg):
    """The oracle's rich set is the points plus the excluded centres, and
    the excluded centres are exactly its centres."""
    rep = rich_points(cfg)
    want = rich_points_bruteforce([pc.rows.tolist() for pc in cfg.pencils])
    excluded = {c.coords for c in rep.excluded_centres}
    assert {p.coords for p in rep.points} | excluded == want
    assert excluded == want & {pc.centre.coords for pc in cfg.pencils}
    return rep


def test_rich_points_matches_bruteforce():
    rng = random.Random(42)
    for _ in range(25):
        _oracle_check(_random_config(rng))
    # (2, 2) is an excluded centre: of a rest pencil, then of the smallest,
    # seed, pencil
    rest = PencilConfig([_pencil(0, 0, [(1, 1), (1, 2)]),
                         _pencil(4, 0, [(2, 2), (4, 1)]),
                         _pencil(2, 2, [(3, 3), (2, 0)])])
    seed = PencilConfig([_pencil(0, 0, [(1, 1), (1, 2)]),
                         _pencil(4, 0, [(2, 2), (4, 1)]),
                         _pencil(2, 2, [(2, 0)])])
    for cfg in (rest, seed):
        assert _oracle_check(cfg).excluded_centres == (ProjPoint.from_affine(2, 2),)


def test_rich_points_big_coefficients_match_bruteforce():
    # coefficients above 2^31 push 4*C*M^2 past 2^62, so the kernel runs on
    # Python-int object arrays
    scale, offset = 2**33 + 1, 2**35 + 3

    def at(x, y):
        return scale * x + offset, scale * y + offset

    def pencil(c, through):
        return _pencil(*at(*c), [at(*q) for q in through])

    # the two seed pencils share the image of y = 0; (5, 0) is rich only
    # through it
    shared = PencilConfig([pencil((0, 0), [(1, 0), (1, 1)]),
                           pencil((1, 0), [(5, 0), (2, 2)]),
                           pencil((0, 5), [(5, 0), (7, 7), (-3, 1)])])
    # the image of (2, 2) is a centre lying on a line of both other pencils
    centre = PencilConfig([pencil((0, 0), [(1, 1), (1, 2)]),
                           pencil((4, 0), [(2, 2), (4, 1)]),
                           pencil((2, 2), [(3, 3), (2, 0)])])
    rng = random.Random(31)
    configs = [shared, centre] + [
        _random_config(rng, scale=scale, offset=offset) for _ in range(15)]
    assert max(abs(v) for v in shared.pencils[0].rows.ravel().tolist()) > 2**31
    reports = []
    for cfg in configs:
        assert _kernel_dtype(cfg.pencils) is object
        reports.append(_oracle_check(cfg))
    assert ProjPoint.from_affine(*at(5, 0)) in reports[0].points
    assert reports[1].excluded_centres == (ProjPoint.from_affine(*at(2, 2)),)


def test_kernel_dtype_covers_the_exact_stage_products():
    """Four centres with coordinates 0 and 1 joined to six points with
    coordinates near 2^25: the lines' entries M are below 2^27, so the
    bound 2C*max(2M^2, C) on the joins is below 2^62, but a join's kept
    entry times a line's passes 2^63.  _kernel_dtype's bound 2C*max(2M^3, C)
    covers those products, so the kernel runs on object arrays, and
    rich_points matches the brute-force rich set, the six points among
    them."""
    rng = random.Random(33)
    points = [_canon(tuple(rng.randint(2**24, 2**25) for _ in range(3))) for _ in range(6)]
    centres = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    config = PencilConfig(Pencil(ProjPoint(*c), [join(c, p) for p in points]) for c in centres)
    m = max(abs(x) for pc in config.pencils for x in pc.rows.ravel().tolist())
    assert m < 2**27 and 2 * max(2 * m * m, 1) < 2**62 <= 2 * max(2 * m**3, 1)
    # the kept columns 0 and 1 of the joins of seed meets with the third
    # centre, times the third pencil's lines
    (first, second, probe, _), c = (pc.rows.tolist() for pc in config.pencils), centres[2]
    joins = [_dot(c, v) * u[i] - _dot(c, u) * v[i] for u in first for v in second for i in (0, 1)]
    assert max(map(abs, joins)) * max(abs(x) for line in probe for x in line) >= 2**63
    assert _kernel_dtype(config.pencils) is object
    rep = _oracle_check(config)
    assert set(points) <= set(row_triples(rep.rows))


def _transformed(t, cfg):
    return PencilConfig([Pencil(t.apply_point(pc.centre),
                                [t.apply_line(l) for l in row_triples(pc.rows)])
                         for pc in cfg.pencils])


def test_rich_points_projective_invariance():
    rng = random.Random(23)
    centre = PencilConfig([_pencil(0, 0, [(1, 1), (1, 2)]),
                           _pencil(4, 0, [(2, 2), (4, 1)]),
                           _pencil(2, 2, [(3, 3), (2, 0)])])
    configs = [centre] + [_random_config(rng) for _ in range(20)]
    done = 0
    while done < len(configs):
        # the first matrix has entries near 2^40, so T(config) crosses the
        # int64 bound
        k = 3 if done else 2**40
        try:
            t = ProjTransform([[rng.randint(-k, k) for _ in range(3)]
                               for _ in range(3)])
        except SingularMatrix:
            continue
        cfg = configs[done]
        image = _transformed(t, cfg)
        if done == 0:
            assert _kernel_dtype(image.pencils) is object
        rep, rep_t = rich_points(cfg), rich_points(image)
        assert rep_t.points == {t.apply_point(p) for p in rep.points}
        assert set(rep_t.excluded_centres) == {
            t.apply_point(c) for c in rep.excluded_centres}
        done += 1
    assert rich_points(centre).excluded_centres


def test_centre_exclusion():
    # (2, 2) is the third pencil's centre but lies on a line of the others
    p1 = _pencil(0, 0, [(1, 1), (1, 2)])          # contains y = x
    p2 = _pencil(4, 0, [(2, 2), (4, 1)])          # contains the line to (2, 2)
    p3 = _pencil(2, 2, [(3, 3), (2, 0)])
    rep = rich_points(PencilConfig([p1, p2, p3]))
    assert ProjPoint.from_affine(2, 2) in rep.excluded_centres
    assert ProjPoint.from_affine(2, 2) not in rep.points
    for p in rep.points:
        assert all(join(pc.centre.coords, p.coords) in _lines(pc)
                   for pc in (p1, p2, p3))


def test_shared_line_candidates_are_found():
    # (5, 0) only meets the two smallest pencils on their shared line y = 0,
    # so the pairwise-meet pass alone would miss it
    y0 = (0, 1, 0)
    p1 = Pencil(ProjPoint.from_affine(0, 0), [y0, (1, -1, 0)])
    p2 = Pencil(ProjPoint.from_affine(1, 0), [y0, (2, -1, -2)])
    p3 = Pencil(ProjPoint.from_affine(0, 5), [join((0, 5, 1), (5, 0, 1))])
    rep = rich_points(PencilConfig([p1, p2, p3]))
    assert ProjPoint.from_affine(5, 0) in rep.points
    lines = [pc.rows.tolist() for pc in (p1, p2, p3)]
    got = {p.coords for p in rep.points} | {c.coords for c in rep.excluded_centres}
    assert got == rich_points_bruteforce(lines)


def test_line_in_every_pencil_is_an_error():
    y0 = (0, 1, 0)
    p1 = Pencil(ProjPoint.from_affine(0, 0), [y0, (1, -1, 0)])
    p2 = Pencil(ProjPoint.from_affine(1, 0), [y0, (1, 1, -1)])
    with pytest.raises(ValueError):
        rich_points(PencilConfig([p1, p2]))


def test_infinite_rich_points_flagged():
    p1 = _pencil(0, 0, [(1, 1), (1, 2)])
    p2 = _pencil(1, 0, [(2, 1), (2, 3)])   # slope 1 and slope 3 through (1, 0)
    rep = rich_points(PencilConfig([p1, p2]))
    assert ProjPoint(1, 1, 0) in rep.points  # parallel slope-1 lines
    assert rep.infinite_count == 1
    assert {p for p in rep.points if p.is_infinite} == {ProjPoint(1, 1, 0)}
    assert rep.count == len(rep.points)


def test_four_pencil_rich_count_dominates_edges():
    built = build_symmetric_farey_construction(16)
    cfg = pencils_from_graph(built, standard_shift_centres())
    rep = rich_points(cfg)
    assert rep.count >= built.graph.edge_count
    # every edge point of the construction is rich by design
    A, B = built.A.elements, built.B.elements
    for i, j in built.graph.edge_array.tolist():
        assert ProjPoint.from_affine(A[i], B[j]) in rep.points


def test_probed_pencils_centred_at_infinity():
    """The two diagonal pencils, centred at infinity and the largest, are
    probed rather than seeds, so a wrong dropped column in their line test
    changes the count."""
    built = build_farey_shift_construction(16)
    centres = [ProjPoint.from_affine(0, 0), ProjPoint(0, 1, 0),
               ProjPoint(1, 1, 0), ProjPoint(1, -1, 0)]
    cfg = pencils_from_graph(built, centres)
    assert cfg.sizes() == (17, 7, 31, 32)
    lines = [pc.rows.tolist() for pc in cfg.pencils]
    assert rich_points(cfg).count == 41 == len(rich_points_bruteforce(lines))


def test_m_pencil_rich_count_dominates_edges():
    cfg = build_m_pencil_config(4, 16)
    built = build_symmetric_farey_construction(16)
    rep = rich_points(cfg)
    assert rep.count >= built.graph.edge_count
    assert rep.pencil_sizes == cfg.sizes()
    assert rep.config_label == cfg.label


def test_report_sorted_points_deterministic():
    cfg = build_grid_footnote_config(3)
    rep = rich_points(cfg)
    pts = list(row_triples(rep.rows))
    assert pts == sorted(set(pts))
    assert pts == [p.coords for p in sorted(rep.points)]
    assert len(pts) == rep.count


# Coordinates are all small (int64 kernel) or straddle 2^62 (object kernel),
# so both dtypes get drawn.
_small = st.integers(-6, 6)
_ints = st.one_of(_small, st.integers(2**62 - 6, 2**62 + 6),
                  st.integers(-2**62 - 6, -2**62 + 6))


def _points(ints):
    return st.tuples(ints, ints, ints).filter(any).map(_canon)


@st.composite
def _line_sets(draw, ints):
    """2-4 distinct centres, each with 1-5 lines joining it to drawn points.
    Sometimes the centres are collinear.  Sometimes the join of the two
    centres with the fewest lines is added to both of their pencils, so
    they are likely the seed pencils, and, when the centres are collinear,
    to some of the other pencils or to all of them."""
    point = _points(ints)
    shared = ["none", "pair", "all"][draw(st.integers(0, 2))]
    collinear = shared == "all" or draw(st.booleans())
    # a line held by only two pencils needs a third pencil to host it
    centres = draw(st.lists(point, min_size=2 + (shared == "pair"), max_size=4, unique=True))
    if collinear:
        # the other centres move onto the line through the first two
        a, b = centres[:2]
        weights = draw(st.lists(st.tuples(_small, _small).filter(any), max_size=2))
        centres = list(dict.fromkeys(
            [a, b, *(_canon(tuple(u * x + v * y for x, y in zip(a, b))) for u, v in weights)]))
    line_sets = [{_canon(_cross(c, q)) for q in draw(st.lists(point, min_size=1, max_size=5))
                  if any(_cross(c, q))} for c in centres]
    if shared != "none":
        i, j = sorted(range(len(centres)), key=lambda k: len(line_sets[k]))[:2]
        for k in range(len(centres)):
            if k in (i, j) or shared == "all" or (collinear and draw(st.booleans())):
                line_sets[k].add(join(centres[i], centres[j]))
    assume(all(line_sets))
    return centres, line_sets


def _centre_on_join(scale, offset):
    """Three collinear centres at the images of (0, 0), (1, 0) and (2, 0)
    under v -> scale * v + offset.  The seeds, the two pencils with the
    fewest lines, hold the join of their centres; the third pencil's centre
    is on it, but it does not hold it."""
    def at(x, y):
        return _canon((scale * x + offset, scale * y + offset, 1))

    centres = [at(0, 0), at(1, 0), at(2, 0)]
    through = [[at(1, 0), at(1, 1)], [at(0, 0), at(0, 1)], [at(2, 1), at(3, 1), at(1, 1)]]
    return centres, [{join(c, q) for q in points} for c, points in zip(centres, through)]


def test_rich_points_property_matches_bruteforce():
    """rich_points against the brute-force rich set; a counter shows each
    branch on the join of the seed centres reached: the seeds do not share
    it, a pencil not holding it hosts it, or every pencil holds it.  It also
    shows a pencil whose centre is on the join but which does not hold it,
    so it hosts the join only as a pencil not holding it.  Each kind of
    coordinates gets its own examples, and the counter shows both dtypes
    of the pencils' rows reached."""
    branches = Counter()

    @settings(max_examples=20)
    def check(drawn):
        centres, line_sets = drawn
        config = PencilConfig(Pencil(ProjPoint(*c), lines)
                              for c, lines in zip(centres, line_sets))
        branches["rows", config.pencils[-1].rows.dtype.name] += 1
        if set.intersection(*line_sets):
            branches["every pencil"] += 1
            with pytest.raises(ValueError, match="belongs to every pencil"):
                rich_points(config)
            return
        # the seeds are the two pencils with the fewest lines, the first in
        # config order on a tie
        i, j = sorted(range(len(centres)), key=lambda k: len(line_sets[k]))[:2]
        line = join(centres[i], centres[j])
        shared = line in line_sets[i] & line_sets[j]
        branches["host" if shared else "not shared"] += 1
        # the seeds hold it here, so such a pencil is a probed one
        branches["centre on it, not held"] += shared and any(
            _on_line(c, line) and line not in lines for c, lines in zip(centres, line_sets))
        rep = rich_points(config)
        want = rich_points_bruteforce([sorted(lines) for lines in line_sets])
        rows = list(row_triples(rep.rows))
        assert rows == sorted(set(rows))
        assert set(rows) == want - set(centres)
        assert rep.count == len(want - set(centres))
        assert rep.infinite_count == sum(p[2] == 0 for p in want - set(centres))
        assert [c.coords for c in rep.excluded_centres] == sorted(want & set(centres))

    # the branch with a centre on the seeds' join is drawn as a known
    # configuration, with coordinates past 2^62 in the second run
    for ints, known in ((_small, _centre_on_join(1, 0)),
                        (_ints, _centre_on_join(2**62 + 1, 2**62))):
        given(st.one_of(st.just(known), _line_sets(ints)))(check)()
    assert branches.keys() == {"not shared", "host", "every pencil", "centre on it, not held",
                               ("rows", "int64"), ("rows", "object")}
    assert all(branches.values()), branches


def test_report_repr():
    """The axes and x = y through the origin, the horizontal line and x = 1
    through (1, 0), and x = 0, x = 1 and the line at infinity through the
    vertical direction: (1 : 0 : 0) and (1, 1) are rich, and all three
    centres are excluded."""
    config = PencilConfig([
        Pencil(ProjPoint(0, 0, 1), [(1, 0, 0), (0, 1, 0), (1, -1, 0)]),
        Pencil(ProjPoint(1, 0, 1), [(1, 0, -1), (0, 1, 0)]),
        Pencil(ProjPoint(0, 1, 0), [(1, 0, 0), (1, 0, -1), (0, 0, 1)])], label="three")
    rep = rich_points(config)
    assert rep.rows.tolist() == [[1, 0, 0], [1, 1, 1]]
    assert repr(rep) == "RichPointReport('three', count=2, infinite=1, excluded=3)"


def _star(size, b):
    """A pencil of size lines through (0, b), y = kx + b for k < size."""
    return Pencil(ProjPoint(0, b, 1), [(k, -1, b) for k in range(size)])


def _primes_used(config):
    """The rich rows of a config and the primes its line tests were built
    with."""
    line_test, primes = pencils.richpoints._line_test, []

    def recording(pc, prime):
        primes.append(prime)
        return line_test(pc, prime)

    with mock.patch.object(pencils.richpoints, "_line_test", recording):
        return rich_points(config), primes


def test_rich_points_keys_only_probed_pencils():
    """Only the m - 2 probed pencils get a line test; the seeds answer their
    one question by a row lookup."""
    config = build_m_pencil_config(4, 16)
    _, primes = _primes_used(config)
    assert len(primes) == config.m - 2 == 2


def test_prime_is_the_least_ladder_prime_past_the_slack():
    """Every probe of a rich_points call gets one prime: the least ladder
    prime at least _SLACK times the largest probed pencil, or the last one
    past that, which a patched ladder of small primes reaches; the rows
    match the brute-force rich set at those small primes too.  Probes of
    4095, 4096 and 16381 lines sit on either side of 16381 / 4 and
    65521 / 4, and one of 262144 lines is past 1048573 / 4, the last
    rung."""
    assert _SLACK == 4 and _LADDER[-1][0] == 1048573
    seeds = [_pencil(1, 0, [(0, 0), (0, 1)]), _pencil(0, 1, [(0, 0), (1, 1)])]
    for sizes, prime in (((4095,), 16381), ((4096,), 65521), ((100, 4096), 65521),
                         ((16381,), 262139), ((2, 3), 16381), ((262144,), 1048573)):
        _, primes = _primes_used(PencilConfig(seeds + [_star(s, -b) for b, s in enumerate(sizes)]))
        assert primes == [prime] * len(sizes), (sizes, primes)
    small = ((5, 2), (7, 3), (11, 2))
    for size, prime in ((1, 5), (2, 11), (3, 11), (5, 11)):
        config = PencilConfig([_pencil(1, 0, [(0, 0)]), _pencil(0, 1, [(0, 0)]),
                               _pencil(2, 0, [(0, 0)] + [(k, -1) for k in range(1, size)])])
        with mock.patch.object(pencils.richpoints, "_LADDER", small):
            rep, primes = _primes_used(config)
        assert primes == [prime], (size, primes)
        want = rich_points_bruteforce([pc.rows.tolist() for pc in config.pencils])
        assert set(row_triples(rep.rows)) | {c.coords for c in rep.excluded_centres} == want


def _prime_factors(n):
    """The prime factors of n > 1, by trial division."""
    factors, f = set(), 2
    while f * f <= n:
        while n % f == 0:
            factors.add(f)
            n //= f
        f += 1
    return factors | {n} - {1}


def test_ladder_roots_are_primitive_roots():
    """Every ladder entry is a prime Q, in increasing order, with a
    primitive root g of it: g^((Q-1)/f) != 1 mod Q for each prime f that
    divides Q - 1, in Python ints."""
    assert [q for q, _ in _LADDER] == sorted({q for q, _ in _LADDER})
    for q, g in _LADDER:
        assert _prime_factors(q) == {q}
        assert all(pow(g, (q - 1) // f, q) != 1 for f in _prime_factors(q - 1)), (q, g)


def _rows_at_each_prime():
    """The rich rows of farey-shift n=256 and m-pencil m=4 n=64, with the
    ladder left as it is and cut to each of two of its primes: the same
    rows, excluded centres and dtype every time."""
    farey = pencils_from_graph(build_farey_shift_construction(256, Fraction(43, 1000)),
                               standard_shift_centres())
    dtypes = set()
    for config in (farey, build_m_pencil_config(4, 64)):
        want = rich_points(config)
        for rung in _LADDER[:2]:
            with mock.patch.object(pencils.richpoints, "_LADDER", (rung,)):
                got, primes = _primes_used(config)
            assert set(primes) == {rung[0]}
            assert got.rows.dtype == want.rows.dtype and got.rows.tolist() == want.rows.tolist()
            assert got.excluded_centres == want.excluded_centres
        assert want.count > 0
        dtypes.add(want.rows.dtype.name)
    return dtypes


def test_rows_do_not_depend_on_the_prime():
    assert _rows_at_each_prime() == {"int64"}


def test_rows_do_not_depend_on_the_prime_object_dtype(object_dtype):
    assert _rows_at_each_prime() == {"object"}


def test_one_ladder_of_residue_primes():
    """The residue primes are read off the source: no module under
    src/pencils assigns a Q- or root-style constant, and the only prime
    literals from 1000 to 2^32 are the entries of richpoints._LADDER."""
    package = Path(pencils.__file__).parent
    primes, names = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        ladder = set()
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in (n for n in ast.walk(target) if isinstance(n, ast.Name)):
                    names.append((path.stem, name.id))
                    if name.id == "_LADDER":
                        ladder |= set(map(id, ast.walk(node.value)))
        primes += [(path.stem, node.value, id(node) in ladder) for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and type(node.value) is int
                   and 1000 <= node.value < 2**32 and _prime_factors(node.value) == {node.value}]
    assert sorted(value for _, value, _ in primes) == [q for q, _ in _LADDER]
    assert all(module == "richpoints" and in_ladder for module, _, in_ladder in primes), primes
    assert not [(module, name) for module, name in names
                if re.fullmatch(r"_*(Q|ROOT|PRIMES?)(_\w*)?", name)], names


def test_rich_points_forms_meets_only_for_survivors():
    """Meets are formed only for the seed pairs that pass every probe, so
    the rows cross_rows returns total far fewer than s1 * s2.  When both
    seeds hold the join S of their centres, the pair (S, S) passes every
    probe with a zero meet, which is dropped: a zero row is not a
    projective point, and none is reported."""
    cross, formed = pencils.richpoints.cross_rows, []

    def counting(u, v):
        rows = cross(u, v)
        formed.append(rows.reshape(-1, 3))
        return rows

    y0 = (0, 1, 0)
    shared = PencilConfig([Pencil(ProjPoint.from_affine(0, 0), [y0, (1, -1, 0)]),
                           Pencil(ProjPoint.from_affine(1, 0), [y0, (2, -1, -2)]),
                           Pencil(ProjPoint.from_affine(0, 5), [(1, 1, -5), (1, 0, 0)])])
    config = build_m_pencil_config(4, 16)
    with mock.patch.object(pencils.richpoints, "cross_rows", counting):
        rep = rich_points(config)
        s1, s2 = sorted(config.sizes())[:2]
        # every seed pair used to get a meet: s1 * s2 = 187 rows; now 60
        assert rep.count > 0 and 2 * sum(map(len, formed)) < s1 * s2
        formed.clear()
        got = rich_points(shared)
    assert any((rows == 0).all(axis=1).any() for rows in formed)
    assert (got.rows != 0).any(axis=1).all()
    assert {p.coords for p in got.points} | {c.coords for c in got.excluded_centres} == (
        rich_points_bruteforce([pc.rows.tolist() for pc in shared.pencils]))
    assert ProjPoint.from_affine(5, 0) in got.points


def test_probes_call_no_gcd_and_only_the_final_row_set_normalises():
    """A probe decides by slots and cross-multiplication alone: no np.gcd,
    projective._normalise, _keys or _member call runs inside _line_test,
    its set-up or its stages.  A rich_points call runs _normalise once, in
    the _row_set of the meets it found, which are fewer than the s1 * s2
    seed pairs.  Checked on m-pencil configs with eight probes and with
    two."""
    probe = {"_line_test", "stages", "residue", "exact"}
    calls = []

    def recording(name, original):
        def call(*args, **kwargs):
            frame, stack = sys._getframe(1), []
            while frame is not None:
                if frame.f_globals.get("__name__") == "pencils.richpoints":
                    stack.append(frame.f_code.co_name)
                frame = frame.f_back
            calls.append((name, stack, np.size(args[0])))
            return original(*args, **kwargs)
        return call

    names = ("_normalise", "_keys", "_member")
    for config in (build_m_pencil_config(10, 64), build_m_pencil_config(4, 16)):
        calls.clear()
        with (mock.patch.object(np, "gcd", recording("gcd", np.gcd)),
              mock.patch.multiple(pencils.projective, **{
                  name: recording(name, getattr(pencils.projective, name)) for name in names}),
              mock.patch.object(pencils.richpoints, "_line_test",
                                recording("_line_test", pencils.richpoints._line_test))):
            rep = rich_points(config)
        assert [call for call in calls if probe & set(call[1])] == []
        assert [name for name, *_ in calls].count("_line_test") == config.m - 2
        s1, s2 = sorted(config.sizes())[:2]
        (normalised,) = [(stack, size) for name, stack, size in calls if name == "_normalise"]
        assert normalised[0] == ["rich_points"] and rep.count <= normalised[1] < s1 * s2


def _sparse_grid():
    """The 4 x 4 grid footnote config with every other diagonal line
    dropped: the rich points are the 8 grid nodes with x = y mod 2, so the
    seed lines have 2 or 4 rich points each, and with _MEET_BLOCK at 1 a
    flush holds the survivors of two blocks."""
    config = build_grid_footnote_config(4)
    return ([pc.centre.coords for pc in config.pencils],
            [{line for line in row_triples(pc.rows)
              if 0 in pc.centre.coords[:2] or line[2] % 2 == 0} for pc in config.pencils])


def test_flushes_property_matches_bruteforce():
    """rich_points with _MEET_BLOCK at 1, at 3 and above s1 against the
    brute-force rich set.  The survivors of the first stage are held and
    flushed through the other stages in batches of one block's pairs, and
    counting wrappers show each kind of flush reached: one before u ends
    (a block's first stage runs after a flush, in one sift), a final one of
    fewer than one block's pairs, one that holds the survivors of two or
    more blocks, and a sift of the seeds' shared line.  A sparse grid
    config and the centre-on-join config, whose seeds share their join,
    are drawn as known examples."""
    line_test, split = pencils.richpoints._line_test, pencils.richpoints._pairs
    reached, log = Counter(), []

    def testing(pc, prime):
        stages = line_test(pc, prime)

        def sifting(u, v):
            if not log or log[-1][0] != "sift":
                log.append(("sift", len(v)))
            return stages(u, v)

        return sifting

    def splitting(keep, ii, jj):
        # a block's first stage keeps a 2-D mask; the held pairs are flat
        log.append(("block" if keep.ndim == 2 else "held", np.count_nonzero(keep)))
        return split(keep, ii, jj)

    @settings(max_examples=15)
    def check(drawn):
        centres, line_sets = drawn
        if set.intersection(*line_sets):
            return
        config = PencilConfig(Pencil(ProjPoint(*c), lines)
                              for c, lines in zip(centres, line_sets))
        want = rich_points_bruteforce([sorted(lines) for lines in line_sets])
        s1 = min(config.sizes())
        for block in (1, 3, s1 + 1):
            log.clear()
            with (mock.patch.object(pencils.richpoints, "_MEET_BLOCK", block),
                  mock.patch.object(pencils.richpoints, "_line_test", testing),
                  mock.patch.object(pencils.richpoints, "_pairs", splitting)):
                rep = rich_points(config)
            assert set(row_triples(rep.rows)) == want - set(centres)
            assert [c.coords for c in rep.excluded_centres] == sorted(want & set(centres))
            sifts = [i for i, (kind, _) in enumerate(log) if kind == "sift"]
            reached["shared-line sift"] += len(sifts) == 2
            for lo, hi in zip(sifts, sifts[1:] + [len(log)]):
                kinds = [kind for kind, _ in log[lo + 1:hi]]
                flushes = [i for i, kind in enumerate(kinds, lo + 1)
                           if kind == "held" and log[i - 1][0] == "block"]
                reached["flush before u ends"] += "block" in kinds[kinds.index("held"):]
                # the held pairs of a flush are the survivors of the blocks
                # since the one before
                held = [sum(n for kind, n in log[start:end] if kind == "block")
                        for start, end in zip([lo] + flushes, flushes)]
                reached["final partial flush"] += held[-1] < block * log[lo][1]
                reached["flush of two blocks"] += any(
                    sum(n > 0 for kind, n in log[start:end] if kind == "block") > 1
                    for start, end in zip([lo] + flushes, flushes))

    for ints, known in ((_small, _sparse_grid()), (_ints, _centre_on_join(2**62 + 1, 2**62))):
        given(st.one_of(st.just(known), st.just(_centre_on_join(1, 0)), _line_sets(ints)))(check)()
    assert len(reached) == 4 and all(reached.values()), reached


def test_two_pencils_form_meets_by_broadcast():
    """With no probed pencil there is no stage, and no line test or inverse
    table is built; each block's meets are formed as one broadcast of a
    column of first-pencil lines against every second-pencil line:
    cross_rows sees 3-D input.  The rows equal the brute-force rich set."""
    config = PencilConfig(list(pencils_from_graph(build_farey_shift_construction(64),
                                                  standard_shift_centres()).pencils)[:2])
    cross, shapes = pencils.richpoints.cross_rows, []

    def counting(u, v):
        shapes.append((u.ndim, v.ndim))
        return cross(u, v)

    with (mock.patch.object(pencils.richpoints, "cross_rows", counting),
          mock.patch.object(pencils.richpoints, "_inverses") as inverses):
        rep, primes = _primes_used(config)
    assert primes == [] and not inverses.called
    blocks = -(-min(config.sizes()) // pencils.richpoints._MEET_BLOCK)
    # the first call joins the seed centres
    assert blocks > 1 and shapes[1:] == [(3, 2)] * blocks
    want = rich_points_bruteforce([pc.rows.tolist() for pc in config.pencils])
    assert set(row_triples(rep.rows)) | {c.coords for c in rep.excluded_centres} == want


def _through(centre, pair):
    """The line through a centre c whose kept columns are c_k * pair, its
    dropped column k filled in from l.c = 0."""
    k = max(i for i, v in enumerate(centre) if v)
    i, j = (x for x in range(3) if x != k)
    line = [0, 0, 0]
    line[i], line[j] = centre[k] * pair[0], centre[k] * pair[1]
    line[k] = -(pair[0] * centre[i] + pair[1] * centre[j])
    return tuple(line)


def _dot(p, q):
    return sum(x * y for x, y in zip(p, q))


_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _q_multiple(w, j, prime):
    """A vector s with s.w a nonzero multiple of the prime Q: w x e_j, plus Q
    at the first nonzero entry of w."""
    s = list(_cross(w, _UNIT[j]))
    s[next(i for i, x in enumerate(w) if x)] += prime
    return tuple(s)


@st.composite
def _seed_pairs(draw, ints, prime, multiples=True):
    """A centre c, at infinity for some draws, its lines, at least one, and
    pairs (u, v) of seed lines as sift queries them.  The lines join c to
    drawn points.  With ``multiples`` they include, in some draws, a line
    whose second kept column is a nonzero multiple of Q, so its slot is 0,
    and in some draws the lines congruent to them mod Q (below), so that a
    slot holds two or more lines.  Each pair is two lines through a point p
    other than c: a point on a line through c (one of the lines; with
    ``multiples``, the line congruent to it mod Q whose kept pair is the
    line's plus Q times a drawn pair, and the line whose kept pair is that
    slot 0 line's swapped, slot 0 too) or a drawn point.  u = p x s is
    through c for s = c, and with ``multiples`` c.u is a nonzero multiple
    of Q when s.(c x p) is; v = p x t is u for some pairs, and with
    ``multiples`` it is u plus Q times a line through p for some, so that
    the join (c.v)u - (c.u)v is 0 mod Q.  Without ``multiples`` small
    coordinates keep every product of the exact stage within int64."""
    centre = draw(st.one_of(_points(ints), st.just((0, 1, 0)),
                            ints.map(lambda k: (1, k, 0))))
    k = max(i for i, v in enumerate(centre) if v)
    kept = [i for i in range(3) if i != k]
    nonzero = _small.filter(bool)
    unit = st.integers(0, 2)
    lines = [join(centre, q) for q in draw(st.lists(_points(ints), min_size=1, max_size=4))
             if q != centre]
    assume(lines)
    wide = [_through(centre, (line[kept[0]] + prime * draw(nonzero),
                              line[kept[1]] + prime * draw(_small))) for line in lines
            ] if multiples else []
    if multiples and draw(st.booleans()):
        p, y = draw(nonzero), draw(nonzero)
        wide += [_canon(_through(centre, (p, prime * y))), _through(centre, (prime * y, p))]
        lines.append(wide[-2])
    on = lambda line: _cross(line, _UNIT[draw(unit)])
    pairs = []
    # points on the lines with a kept entry of Q or more get only small s
    # and t, and no v = u
    for p, narrow in ([(on(line), True) for line in lines if line not in wide]
                      + [(p, True) for p in draw(st.lists(_points(ints), max_size=3))]
                      + [(on(line), False) for line in wide if any(line)]):
        if not any(_cross(centre, p)):
            continue
        s = draw(st.one_of(_points(_small), st.just(centre), *(narrow and multiples) * [
            unit.map(lambda j: _q_multiple(_cross(centre, p), j, prime))]))
        u = _cross(p, s)
        if not any(u):
            continue
        v = draw(st.one_of(_points(_small).map(lambda t: _cross(p, t)), *narrow * [
            st.just(u)], *(narrow and multiples) * [
            _points(_small).map(lambda t: tuple(x + prime * y for x, y in zip(u, _cross(p, t))))]))
        if any(v):
            pairs.append((u, v))
    if draw(st.booleans()):
        lines += [line for line in wide if any(line)]
    return centre, lines, pairs


def _seed_arrays(centre, lines, pairs):
    """The seed pairs as the two arrays u and v of sift, in the dtype that
    _kernel_dtype's bound picks for them and the pencil's lines."""
    c = max(map(abs, centre))
    m = max((abs(x) for line in [*lines, *(w for pair in pairs for w in pair)] for x in line),
            default=0)
    dtype = exact_dtype(2 * c * max(2 * m**3, c))
    return [np.array([pair[i] for pair in pairs], dtype).reshape(-1, 3) for i in (0, 1)]


def _slot(a, b, prime):
    """A pair's slot in Python ints: a * b^-1 mod Q, 0 where b is 0 mod Q,
    after dividing a nonzero pair by Q while Q divides both entries."""
    while (a or b) and a % prime == b % prime == 0:
        a, b = a // prime, b // prime
    return a * pow(b, -1, prime) % prime if b % prime else 0


def _two_stages(pencil, u, v, prime):
    """The line test's two stages on the seed pairs (u[k], v[k]), run as
    sift runs them after its first stage, on flat indices: the pairs the
    residue stage passes, and those of them the exact stage passes."""
    residue, exact = _line_test(pencil, prime)(u, v)
    k = np.arange(len(u))
    passed = residue(k, k)
    hit = passed.copy()
    hit[hit] = exact(k[hit], k[hit])
    return passed, hit


def _members(centre, lines, pairs):
    """Whether each seed pair's join (c.v)u - (c.u)v is one of the lines, or
    zero, which is on every line."""
    joins = [tuple(_dot(centre, v) * x - _dot(centre, u) * y for x, y in zip(u, v))
             for u, v in pairs]
    hits = iter(pencil_lines_bruteforce(lines, [j for j in joins if any(j)]))
    return [not any(j) or next(hits) for j in joins]


def _later_in_slot(centre, pencil, join, prime):
    """Whether the line a join is on comes after another line of its slot
    in the order the line test holds them, so that the exact stage reaches
    it past the line its slot names."""
    k = max(i for i, v in enumerate(centre) if v)
    i, j = (x for x in range(3) if x != k)
    line, table = _canon(join), _closure(_line_test(pencil, prime))
    at = next(e for e in range(1, len(table["p"]))
              if (table["p"][e], table["q"][e]) == (line[i], line[j]))
    return at > table["first"][_slot(line[i], line[j], prime)]


def _known_pairs(t, prime):
    """The axes, y = 2x and y = (Q + 2)x through the origin, so slot 0 and
    slot -2 mod Q hold two lines each, and seed pairs through (t, 2t),
    (t, (Q + 2)t), (Qt, 2Qt) and (Qt, 3Qt), whose joins are on y = 2x, on
    y = (Q + 2)x, Q times on y = 2x and Q times on y = 3x, a zero pair,
    and a pair whose join is Q times on y = 0."""
    x_t, qt = (1, 0, -t), prime * t
    return (0, 0, 1), [(1, 0, 0), (0, 1, 0), (2, -1, 0), (prime + 2, -1, 0)], [
        (x_t, (0, 1, -2 * t)), (x_t, (0, 1, -(prime + 2) * t)), ((1, 0, -qt), (0, 1, -2 * qt)),
        ((1, 0, -qt), (0, 1, -3 * qt)), (x_t, x_t), (x_t, (1, prime, -t))]


# The ladder primes the probe properties run at, each in its own @given
# runs: 16381, where the benchmark's and the tests' configs land, and
# 65521 above it.
_PRIMES = (16381, 65521)


def test_line_test_property_matches_tuple_sets():
    """rich_points' pencil line test, on seed pairs as sift queries it,
    against pencil_lines_bruteforce on their joins.  The seeds are in the
    dtype _kernel_dtype's bound picks in one @given run and object arrays
    in another, at each of two ladder primes, each run with its own
    counter, which shows in its dtype and prime: a member found past the
    first line of its slot, a member whose join's kept pair Q divides
    (drawn as a known example), the zero pair, a centre at infinity and a
    centre whose last nonzero coordinate c_k has |c_k| > 1.  The int64 runs
    draw no multiples of Q, so that their seeds fit int64, and the object
    runs draw them."""
    for prime in _PRIMES:
        for regime, ints, t in ((np.int64, _small, 1), (object, _ints, 2**62 + 1)):
            reached = Counter()

            @settings(max_examples=25)
            def check(drawn):
                centre, lines, pairs = drawn
                pencil = Pencil(ProjPoint(*centre), lines)
                u, v = _seed_arrays(centre, lines, pairs)
                if regime is object:
                    u, v = u.astype(object), v.astype(object)
                _, hit = _two_stages(pencil, u, v, prime)
                members = _members(centre, lines, pairs)
                assert hit.tolist() == members
                k = max(i for i, x in enumerate(centre) if x)
                kept = [i for i in range(3) if i != k]
                name = u.dtype.name, prime
                reached[name, "at infinity"] += centre[2] == 0
                reached[name, "|c_k| > 1"] += abs(centre[k]) > 1
                for (a, b), member in zip(pairs, members):
                    join = tuple(_dot(centre, b) * x - _dot(centre, a) * y for x, y in zip(a, b))
                    reached[name, "zero pair"] += not any(join)
                    if any(join) and member:
                        reached[name, "Q divides the kept pair"] += all(
                            join[i] % prime == 0 for i in kept)
                        reached[name, "past the first line of its slot"] += _later_in_slot(
                            centre, pencil, join, prime)

            given(st.one_of(st.just(_known_pairs(t, prime)),
                            _seed_pairs(ints, prime, regime is object)))(check)()
            name = np.dtype(regime).name, prime
            branches = ("at infinity", "|c_k| > 1", "zero pair", "Q divides the kept pair",
                        "past the first line of its slot")
            assert all(reached[name, b] for b in branches), (name, reached)


def _closure(stages):
    """The tables a _line_test(pc, prime) result holds, read off its closure."""
    return {name: cell.cell_contents
            for name, cell in zip(stages.__code__.co_freevars, stages.__closure__)}


def test_inverse_table_and_slots_match_python_ints():
    """At each of two ladder primes Q: the inverse table, int32, holds
    (x mod Q)^-1 mod Q at every x in 0..2Q-1 that Q does not divide, and 0
    at 0, at Q and at 2Q..5Q-1, and it is built once per prime.  A probed
    pencil's first-line table has Q entries of the least unsigned dtype
    that holds its size; it names slot 0 and the slot of each of its kept
    pairs (Python ints, _slot), and from each of them the lines it names
    while ``more`` holds are the pencil's lines of that slot (any one line
    for slot 0 with none), after a copy of one of its lines.  _slots
    matches _slot on drawn pairs, int64 and object each in its own @given
    run, with pairs Q divides once and twice and zero pairs as their own
    branches.  Pencils through the origin with kept pairs (1, 0),
    (t + 1, Q * t) and (t, 3t + 1), int64 and object, are drawn as known
    examples; counters, one per prime, show q a unit and q 0 mod Q in
    pencils with int64 and object rows, a slot with two lines, and each
    branch of _slots in both dtypes.  Only the last prime's table is
    kept."""
    for prime in _PRIMES:
        inv = _inverses(prime)
        assert _inverses(prime) is inv
        assert inv.dtype == np.int32 and inv.shape == (5 * prime,)
        assert inv[0] == inv[prime] == 0 and not inv[2 * prime:].any()
        x = np.delete(np.arange(1, 2 * prime), prime - 1)
        assert (x * inv[x].astype(np.int64) % prime == 1).all()
        reached = Counter()

        @settings(max_examples=30)
        def tables(drawn):
            centre, lines, _ = drawn
            k = max(i for i, v in enumerate(centre) if v)
            i, j = (x for x in range(3) if x != k)
            pencil = Pencil(ProjPoint(*centre), lines)
            runs = {0: []}
            for line in row_triples(pencil.rows):
                runs.setdefault(_slot(line[i], line[j], prime), []).append((line[i], line[j]))
                reached["q a unit" if line[j] % prime else "q 0 mod Q",
                        pencil.rows.dtype.name] += 1
            reached["two lines in a slot"] += max(map(len, runs.values())) > 1
            table = _closure(_line_test(pencil, prime))
            first, more, p, q = (table[name] for name in ("first", "more", "p", "q"))
            assert first.dtype == np.min_scalar_type(pencil.size) and first.shape == (prime,)
            assert set(np.flatnonzero(first).tolist()) == set(runs)
            for slot, run in runs.items():
                at = int(first[slot])
                got = [(p[at], q[at])]
                while more[at]:
                    at += 1
                    got.append((p[at], q[at]))
                assert sorted(got) == run or not run, (slot, got, run)
            assert (p[0], q[0]) == (p[1], q[1])

        # through the origin: kept pairs (0, 1), (1, 0), (t + 1, Q * t) and
        # (t, 3t + 1), with object rows for t = 2^64
        for ints, t in ((_small, 1), (_ints, 2**64)):
            known = (0, 0, 1), [(0, 1, 0), (1, 0, 0), (t + 1, prime * t, 0), (t, 3 * t + 1, 0)], []
            given(st.one_of(st.just(known), _seed_pairs(ints, prime)))(tables)()

        small = st.tuples(st.integers(-999, 999), st.integers(-999, 999)).filter(any)

        @settings(max_examples=30)
        def slots(drawn):
            dtype, pairs = drawn
            a, b = np.array(pairs, dtype).reshape(-1, 2).T
            got = _slots(a, b, prime)
            assert got.dtype == np.int64 and got.tolist() == [_slot(x, y, prime) for x, y in pairs]
            for x, y in pairs:
                times = 0
                while (x or y) and x % prime == y % prime == 0:
                    x, y, times = x // prime, y // prime, times + 1
                reached[np.dtype(dtype).name, "zero pair" if not (x or y) else
                        f"Q divides it {min(times, 2)} times"] += 1

        for dtype, top in ((np.int64, 2**62), (object, 2**80)):
            pair = st.one_of(st.tuples(st.integers(-top, top), st.integers(-top, top)),
                             small.map(lambda ab: (ab[0] * prime, ab[1] * prime)),
                             small.map(lambda ab: (ab[0] * prime**2, ab[1] * prime**2)),
                             st.just((0, 0)))
            given(st.tuples(st.just(dtype), st.lists(pair, min_size=1, max_size=20)))(slots)()
        assert len(reached) == 2 * 2 + 1 + 2 * 4, (prime, reached)
    assert _inverses.cache_info().currsize == 1 and _inverses(_PRIMES[-1]) is inv


def test_residue_stage_property_matches_tuple_sets():
    """The line test's residue stage passes exactly these seed pairs (u, v):
    those in which c.u or c.v is 0 mod Q (a line with no chart), and, where
    both have charts, those whose chart difference (da, db) has da or db 0
    mod Q (slot 0) or the slot da * db^-1 mod Q of one of the pencil's kept
    pairs, each divided by its gcd.  So it passes every member of the
    pencil, and with the exact stage after it gives tuple-set membership.
    It is run on every pair of a u and a v as a block (a column of u
    indices and a row of v indices), as sift's first stage runs it, and on
    the drawn pairs as flat indices, as the stages after it run.  At each
    of two ladder primes Q it runs on int64 seeds in one @given run and on
    object seeds in another, each with its own counters, and both stages
    together on the dtype _kernel_dtype's bound picks.  The counters show: a
    centre at infinity; a seed line through the centre (c.w = 0); c.w a
    nonzero multiple of Q; with both charts, da and db both 0, da 0 only,
    db 0 only, a marked nonzero slot and a refused pair; and a non-member
    that passes the residue stage and that the exact stage refuses."""
    @settings(max_examples=25)
    def check(drawn):
        centre, lines, pairs = drawn
        k = max(i for i, v in enumerate(centre) if v)
        i, j = (x for x in range(3) if x != k)
        marked = set()
        for line in lines:
            p, q = line[i] // gcd(line[i], line[j]), line[j] // gcd(line[i], line[j])
            if q % prime:
                marked.add(p * pow(q, -1, prime) % prime)

        def branch(u, v):
            cu, cv = _dot(centre, u), _dot(centre, v)
            if not (cu % prime and cv % prime):
                return "no chart"
            da, db = ((u[x] * pow(cu, -1, prime) - v[x] * pow(cv, -1, prime)) % prime
                      for x in (i, j))
            if not (da and db):
                return "da 0 only" if db else "db 0 only" if da else "da and db 0"
            return "marked slot" if da * pow(db, -1, prime) % prime in marked else "refused"

        pencil = Pencil(ProjPoint(*centre), lines)
        u, v = _seed_arrays(centre, lines, pairs)
        # the residue stage's entries are at most 3CM, so the small draws fit
        # it in int64 also where the exact stage's products need objects
        residue, _ = _line_test(pencil, prime)(u.astype(dtype), v.astype(dtype))
        block = residue(np.arange(len(u))[:, None], np.arange(len(v)))
        assert block.tolist() == [[branch(a, b) != "refused" for _, b in pairs] for a, _ in pairs]
        members = np.array(_members(centre, lines, pairs), dtype=bool)
        passed, hit = _two_stages(pencil, u, v, prime)
        assert passed.tolist() == [branch(a, b) != "refused" for a, b in pairs]
        assert passed[members].all()
        assert hit.tolist() == members.tolist()
        reached["at infinity"] += centre[2] == 0
        for (a, b), member, ok in zip(pairs, members.tolist(), passed.tolist()):
            cu, cv = _dot(centre, a), _dot(centre, b)
            reached[branch(a, b)] += 1
            reached["through the centre"] += cu == 0 or cv == 0
            reached["c.w a nonzero multiple of Q"] += any(w and w % prime == 0 for w in (cu, cv))
            reached["passes, not a member"] += ok and not member

    # a known example: the axes and the line 2x = y through the origin, and
    # pairs whose join is on the axes (da 0 only, db 0 only), whose join is
    # Q times a member (da and db 0), whose join is 2x = y (a marked slot)
    # and 3x = y (refused), through the centre (a non-member that passes),
    # and with c.w = -Q
    for prime in _PRIMES:
        for dtype, ints, t in ((np.int64, _small, 1), (object, _ints, 2**62)):
            reached = Counter()
            x_t, y_t, sum_t = (1, 0, -t), (0, 1, -t), (1, 1, -t)
            known = (0, 0, 1), [(0, 1, 0), (1, 0, 0), (2, -1, 0)], [
                (x_t, sum_t), (x_t, (1, prime, -t)), (y_t, sum_t), ((1, -1, 0), (1, 1, -2 * t)),
                (x_t, (0, 1, -2 * t)), (x_t, (0, 1, -3 * t)), ((1, 0, -prime), (0, 1, -prime))]
            given(st.one_of(st.just(known), _seed_pairs(ints, prime)))(check)()
            branches = ("at infinity", "through the centre", "c.w a nonzero multiple of Q",
                        "no chart", "da and db 0", "da 0 only", "db 0 only", "marked slot",
                        "refused", "passes, not a member")
            assert all(reached[b] for b in branches), (np.dtype(dtype).name, prime, reached)
