import random
from collections import Counter
from fractions import Fraction
from unittest import mock

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
from pencils.richpoints import _kernel_dtype, _line_test, rich_points

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

    for ints in (_small, _ints):
        given(_line_sets(ints))(check)()
    assert branches.keys() == {"not shared", "host", "every pencil", "centre on it, not held",
                               ("rows", "int64"), ("rows", "object")}
    assert all(branches.values()), branches


def test_rich_points_keys_only_probed_pencils():
    """Only the m - 2 probed pencils get a line test; the seeds answer their
    one question by a row lookup."""
    config = build_m_pencil_config(4, 16)
    calls = []

    def counting(pc):
        calls.append(pc)
        return line_test(pc)

    line_test = pencils.richpoints._line_test
    with mock.patch.object(pencils.richpoints, "_line_test", counting):
        rich_points(config)
    assert len(calls) == config.m - 2 == 2



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


@st.composite
def _pencil_probes(draw, ints):
    """A centre, at infinity for some draws, the lines joining it to drawn
    points, and queries: joins of the centre with those points and with
    other drawn points, each scaled by a drawn nonzero factor, since the
    kernel queries raw joins."""
    centre = draw(st.one_of(_points(ints), st.just((0, 1, 0)),
                            ints.map(lambda k: (1, k, 0))))
    joins = lambda points: [join(centre, q) for q in points if q != centre]
    lines = joins(draw(st.lists(_points(ints), max_size=5)))
    queries = lines + joins(draw(st.lists(_points(ints), max_size=5)))
    scales = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(queries),
                           max_size=len(queries)))
    return centre, lines, [tuple(f * v for v in q) for f, q in zip(scales, queries)]


def test_line_test_property_matches_tuple_sets():
    """rich_points' pencil line test, queried on the two kept columns of
    scaled joins, against tuple-set membership, and the keys _member
    receives strictly increase, since it needs them sorted.  Counting
    wrappers around the test's _keys and _member calls show both
    dtypes of keys and queries drawn, centres at infinity, and a pencil
    whose normalised pairs leave row order (this needs |c_k| > 1), so the
    sort of the keys is needed.  Each kind of coordinates gets its own
    examples."""
    keys, member, dtypes = pencils.richpoints._keys, pencils.richpoints._member, Counter()

    def keying(cols):
        key, box = keys(cols)
        dtypes["key", key.dtype.name] += 1
        dtypes["leaves row order"] += not (key[1:] > key[:-1]).all()
        return key, box

    def counting(query, keyed):
        dtypes["query", query[0].dtype.name] += 1
        assert (keyed[0][1:] > keyed[0][:-1]).all()
        return member(query, keyed)

    @settings(max_examples=20)
    def check(drawn):
        centre, lines, queries = drawn
        dtypes["at infinity"] += centre[2] == 0
        dtype = exact_dtype(max(abs(v) for t in [centre, *queries] for v in t))
        kept, on_pencil = _line_test(Pencil(ProjPoint(*centre), lines))
        assert on_pencil(*int_rows(queries, dtype)[:, kept].T).tolist() == (
            pencil_lines_bruteforce(lines, queries))

    with (mock.patch.object(pencils.richpoints, "_keys", keying),
          mock.patch.object(pencils.richpoints, "_member", counting)):
        for ints in (_small, _ints):
            given(_pencil_probes(ints))(check)()
    assert all(dtypes[kind, name] for kind in ("key", "query") for name in ("int64", "object"))
    assert dtypes["at infinity"] and dtypes["leaves row order"], dtypes
