import random
from fractions import Fraction

import pytest

from pencils.constructions import (
    Pencil,
    PencilConfig,
    build_grid_footnote_config,
    build_m_pencil_config,
    build_symmetric_farey_construction,
    pencils_from_graph,
    standard_shift_centres,
)
from pencils.errors import PointIsCentre, SingularMatrix, TooFewPencils
from pencils.projective import ProjLine, ProjPoint, ProjTransform, line_through
from pencils.richpoints import _kernel_dtype, point_on_pencil, rich_points

from oracles import rich_points_bruteforce


def _pencil(cx, cy, through):
    centre = ProjPoint.from_affine(cx, cy)
    return Pencil(centre, [line_through(centre, ProjPoint.from_affine(x, y))
                           for x, y in through])


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
        pencils = []
        for c in centres:
            lines = set()
            while len(lines) < rng.randint(1, max_lines):
                q = at(rng.randint(-6, 6), rng.randint(-6, 6))
                if q == c:
                    continue
                lines.add(line_through(c, q))
            pencils.append(Pencil(c, lines))
        shared = set(pencils[0].lines)
        for pc in pencils[1:]:
            shared &= pc.lines
        if shared:
            continue
        return PencilConfig(pencils)


def test_point_on_pencil():
    pencil = _pencil(0, 0, [(1, 1), (1, 2)])
    assert point_on_pencil(ProjPoint.from_affine(3, 3), pencil)
    assert point_on_pencil(ProjPoint.from_affine(2, 4), pencil)
    assert not point_on_pencil(ProjPoint.from_affine(1, 3), pencil)
    # the slope-1 line hits the infinite point (1 : 1 : 0)
    assert point_on_pencil(ProjPoint(1, 1, 0), pencil)
    with pytest.raises(PointIsCentre):
        point_on_pencil(ProjPoint.from_affine(0, 0), pencil)


def test_point_on_pencil_matches_scan():
    rng = random.Random(42)
    pencil = _pencil(0, 0, [(1, 1), (1, 2), (2, 1), (1, -3)])
    for _ in range(100):
        p = ProjPoint.from_affine(rng.randint(-8, 8), rng.randint(-8, 8))
        if p == pencil.centre:
            continue
        direct = any(l.contains(p) for l in pencil.lines)
        assert point_on_pencil(p, pencil) == direct


def test_too_few_pencils():
    with pytest.raises(TooFewPencils):
        rich_points(PencilConfig([_pencil(0, 0, [(1, 1)])]))


def test_grid_two_pencils():
    # horizontals x verticals: every grid node is rich
    h = Pencil(ProjPoint(1, 0, 0), [ProjLine(0, 1, -k) for k in (1, 2, 3)])
    v = Pencil(ProjPoint(0, 1, 0), [ProjLine(1, 0, -k) for k in (1, 2, 3)])
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
        shared = set(bigger.pencils[0].lines)
        for pc in bigger.pencils[1:]:
            shared &= pc.lines
        if shared:
            continue
        assert rich_points(bigger).points <= rich_points(cfg).points


def test_rich_points_matches_bruteforce():
    rng = random.Random(42)
    for _ in range(25):
        cfg = _random_config(rng)
        rep = rich_points(cfg)
        got = {p.coords for p in rep.points}
        got |= {c.coords for c in rep.excluded_centres}
        lines = [[l.coeffs for l in pc.lines] for pc in cfg.pencils]
        assert got == rich_points_bruteforce(lines)


def _oracle_check(cfg):
    rep = rich_points(cfg)
    got = {p.coords for p in rep.points} | {c.coords for c in rep.excluded_centres}
    assert got == rich_points_bruteforce([[l.coeffs for l in pc.lines]
                                          for pc in cfg.pencils])
    return rep


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
    assert max(abs(v) for l in shared.pencils[0].lines for v in l.coeffs) > 2**31
    reports = []
    for cfg in configs:
        assert _kernel_dtype(cfg.pencils) is object
        reports.append(_oracle_check(cfg))
    assert ProjPoint.from_affine(*at(5, 0)) in reports[0].points
    assert reports[1].excluded_centres == (ProjPoint.from_affine(*at(2, 2)),)


def _transformed(t, cfg):
    return PencilConfig([Pencil(t.apply_point(pc.centre),
                                [t.apply_line(l) for l in pc.lines])
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
        assert all(point_on_pencil(p, pc) for pc in (p1, p2, p3))


def test_shared_line_candidates_are_found():
    # (5, 0) only meets the two smallest pencils on their shared line y = 0,
    # so the pairwise-meet pass alone would miss it
    y0 = ProjLine(0, 1, 0)
    p1 = Pencil(ProjPoint.from_affine(0, 0), [y0, ProjLine(1, -1, 0)])
    p2 = Pencil(ProjPoint.from_affine(1, 0), [y0, ProjLine(2, -1, -2)])
    p3 = Pencil(ProjPoint.from_affine(0, 5),
                [line_through(ProjPoint.from_affine(0, 5), ProjPoint.from_affine(5, 0))])
    rep = rich_points(PencilConfig([p1, p2, p3]))
    assert ProjPoint.from_affine(5, 0) in rep.points
    lines = [[l.coeffs for l in pc.lines] for pc in (p1, p2, p3)]
    got = {p.coords for p in rep.points} | {c.coords for c in rep.excluded_centres}
    assert got == rich_points_bruteforce(lines)


def test_line_in_every_pencil_is_an_error():
    y0 = ProjLine(0, 1, 0)
    p1 = Pencil(ProjPoint.from_affine(0, 0), [y0, ProjLine(1, -1, 0)])
    p2 = Pencil(ProjPoint.from_affine(1, 0), [y0, ProjLine(1, 1, -1)])
    with pytest.raises(ValueError):
        rich_points(PencilConfig([p1, p2]))


def test_infinite_rich_points_flagged():
    p1 = _pencil(0, 0, [(1, 1), (1, 2)])
    p2 = _pencil(1, 0, [(2, 1), (2, 3)])   # slope 1 and slope 3 through (1, 0)
    rep = rich_points(PencilConfig([p1, p2]))
    assert ProjPoint(1, 1, 0) in rep.points  # parallel slope-1 lines
    assert rep.infinite_count == 1
    assert rep.infinite_points == {ProjPoint(1, 1, 0)}
    assert rep.count == len(rep.points)


def test_four_pencil_rich_count_dominates_edges():
    built = build_symmetric_farey_construction(16)
    cfg = pencils_from_graph(built, standard_shift_centres())
    rep = rich_points(cfg)
    assert rep.count >= built.graph.edge_count
    # every edge point of the construction is rich by design
    for i, j in built.graph.edge_array.tolist():
        assert ProjPoint.from_affine(built.A[i], built.B[j]) in rep.points


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
    pts = rep.sorted_points()
    assert pts == sorted(pts)
    assert len(pts) == rep.count
