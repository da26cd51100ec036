"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Criterion 2(b) is asserted exactly as stated and fails at the +2 shift:
elements of (A+2)/_G B have numerators i + 2j up to 3*isqrt(n), so the
set is contained in the 3*isqrt(n) multiplication table (checked) but
provably exceeds the required 2*isqrt(n) table for n >= 64. The verdict
line carries the counterexample; nothing is weakened to force a pass.
"""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from pencils.constructions import (
    build_farey_shift_construction,
    build_grid_footnote_config,
    build_m_pencil_config,
    build_symmetric_farey_construction,
    general_position_centers,
    standard_shift_centres,
)
from pencils.graphs import (
    BipartiteGraph,
    GroundSet,
    multiplication_table_size,
    shifted_restricted_ratio_set,
)
from pencils.incidence import verify_lemma_chain
from pencils.projective import ProjPoint, collinear
from pencils.richpoints import point_on_pencil, rich_points
from pencils.sweeps import (
    fit_exponent,
    fitted_ceiling_violations,
    sweep,
    tracking_ratios,
)

from oracles import farey_shift_enumeration, rich_points_bruteforce

D_DAMP = Fraction(43, 1000)


def _verdict(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- shared expensive artefacts ---------------------------------------------

@pytest.fixture(scope="module")
def farey_rows():
    return sweep("farey-shift", [64, 256, 1024], d=D_DAMP)


@pytest.fixture(scope="module")
def symmetric_rows():
    return sweep("symmetric", [4 ** k for k in range(2, 9)])


def _random_lemma_case(rng):
    while True:
        na, nb = rng.randint(1, 30), rng.randint(1, 30)
        a_vals = rng.sample(range(0, 60), na)
        b_vals = rng.sample(range(0, 60), nb)
        A = GroundSet.from_values(Fraction(v) for v in a_vals)
        B = GroundSet.from_values(Fraction(v) for v in b_vals)
        edges = [(i, j) for i in range(na) for j in range(nb)
                 if rng.random() < 0.3]
        if not edges:
            continue
        g = BipartiteGraph(A, B, edges)
        while True:
            c1 = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, -1)))
            c2 = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, -1)))
            if c1 == c2:
                continue
            if c1[0] == c2[0] and (c1[0] in A or c2[0] in A):
                continue
            return g, c1, c2


@pytest.fixture(scope="module")
def lemma_reports():
    rng = random.Random(42)
    reports = []
    for _ in range(50):
        g, c1, c2 = _random_lemma_case(rng)
        reports.append(verify_lemma_chain(g, c1, c2))
    for n in (4, 16, 64):
        built = build_symmetric_farey_construction(n)
        reports.append(verify_lemma_chain(
            built.graph, (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(-1))))
    return reports


# -- criteria ----------------------------------------------------------------

def test_criterion_01_grid_rich_counts():
    start = time.perf_counter()
    details = []
    ok = True
    for n in (2, 3, 5, 10, 50):
        cfg = build_grid_footnote_config(n)
        rep = rich_points(cfg)
        ok &= rep.count == n * n
        ok &= cfg.sizes() == (n, n, 2 * n - 1, 2 * n - 1)
        details.append(f"n={n}:{rep.count}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert _verdict(1, ok, f"rich=n^2 at {' '.join(details)}; {elapsed:.2f}s")


def test_criterion_02_farey_edge_bound_and_table_containment():
    start = time.perf_counter()
    edge_ok = True
    containment_failures = []
    for n in (16, 64, 256, 1024, 4096):
        built = build_farey_shift_construction(n, 0)
        g = built.graph
        edge_ok &= 2 * g.edge_count >= len(built.A) * isqrt(n)
        table = multiplication_table_size(2 * isqrt(n))
        for shift in (0, 1, 2):
            size = len(shifted_restricted_ratio_set(g, Fraction(shift), Fraction(0)))
            if size > table:
                containment_failures.append((n, shift, size, table))
    elapsed = time.perf_counter() - start
    ok = edge_ok and not containment_failures and elapsed < 60.0
    detail = (f"edge bound {'holds' if edge_ok else 'fails'}; "
              f"containment in table(2*isqrt(n)) has "
              f"{len(containment_failures)} failures"
              + (f", first {containment_failures[0]}" if containment_failures else "")
              + f"; {elapsed:.1f}s")
    _verdict(2, ok, detail)
    assert edge_ok
    # the +2 shifted ratio set provably exceeds the 2*isqrt(n) table for
    # n >= 64 (it fits in the 3*isqrt(n) table); asserted as stated anyway
    assert not containment_failures, containment_failures
    assert elapsed < 60.0


def test_criterion_03_farey_small_case():
    built = build_farey_shift_construction(16, 0)
    a_set, b_set, edges = farey_shift_enumeration(16)
    got = (len(built.A), len(built.B), built.graph.edge_count)
    ok = got == (7, 16, 39)
    ok &= set(built.A) == a_set and set(built.B) == b_set
    pairs = {(built.A[i], built.B[j]) for i, j in built.graph.edge_array.tolist()}
    ok &= pairs == set(edges)
    assert _verdict(3, ok, f"(|A|,|B|,|E|)={got} matches enumeration (7,16,39)")


def test_criterion_04_four_pencil_rich_domination(farey_rows):
    start = time.perf_counter()
    ok = True
    details = []
    for row in farey_rows:
        ok &= row.rich_count >= row.edge_count
        details.append(f"n={row.n}:{row.rich_count}>={row.edge_count}")
    centres = standard_shift_centres()
    not_all_collinear = not all(
        collinear(centres[0], centres[1], c) for c in centres[2:])
    ok &= not_all_collinear
    elapsed = time.perf_counter() - start + sum(r.wall_time_ms for r in farey_rows) / 1000
    ok &= elapsed < 120.0
    assert _verdict(4, ok, f"{' '.join(details)}; centres not all collinear: "
                           f"{not_all_collinear}; {elapsed:.1f}s")


def test_criterion_05_lemma_chain_verdicts(lemma_reports):
    failures = [i for i, rep in enumerate(lemma_reports)
                if not (rep.witness_ok and rep.incidence_lower_ok
                        and rep.cauchy_schwarz_ok)]
    ok = not failures and len(lemma_reports) == 53
    assert _verdict(5, ok, f"{len(lemma_reports)} instances "
                           f"(50 random + symmetric n=4,16,64), "
                           f"{len(failures)} chain failures")


def test_criterion_06_st_sanity_everywhere(lemma_reports):
    failures = [i for i, rep in enumerate(lemma_reports)
                if not rep.szemeredi_trotter_sane]
    assert _verdict(6, not failures,
                    f"exact Szemeredi-Trotter sanity on all "
                    f"{len(lemma_reports)} instances, {len(failures)} failures")


def test_criterion_07_symmetric_slope_and_table_density(symmetric_rows):
    start = time.perf_counter()
    fit = fit_exponent(symmetric_rows, "edge_count")
    slope_ok = 1.45 <= fit.slope <= 1.55
    densities = [multiplication_table_size(2 ** k) / 4 ** k for k in range(6, 14)]
    decreasing = all(a > b for a, b in zip(densities, densities[1:]))
    elapsed = time.perf_counter() - start + sum(r.wall_time_ms for r in symmetric_rows) / 1000
    ok = slope_ok and decreasing and elapsed < 300.0
    assert _verdict(7, ok, f"|E| slope {fit.slope:.4f} in [1.45,1.55] over "
                           f"n=4^2..4^8 (r2={fit.r_squared:.5f}); table density "
                           f"strictly decreasing over 2^6..2^13: {decreasing}; "
                           f"{elapsed:.0f}s")


def test_criterion_08_m_pencil_general_position():
    ok = True
    details = []
    for m in (4, 6, 10):
        centres = general_position_centers(m)
        no_three = True
        for i in range(m):
            for j in range(i + 1, m):
                for k in range(j + 1, m):
                    if collinear(centres[i], centres[j], centres[k]):
                        no_three = False
        ok &= no_three
        for n in (64, 256):
            cfg = build_m_pencil_config(m, n)
            built = build_symmetric_farey_construction(n)
            points = [ProjPoint.from_affine(built.A[i], built.B[j])
                      for i, j in built.graph.edge_array.tolist()]
            covered = all(point_on_pencil(p, pencil)
                          for pencil in cfg.pencils for p in points)
            rep = rich_points(cfg)
            ok &= covered and rep.count >= built.graph.edge_count
            details.append(f"m={m},n={n}:{rep.count}>={built.graph.edge_count}")
    assert _verdict(8, ok, f"no 3 centres collinear, full coverage, "
                           f"{' '.join(details)}")


def test_criterion_09_constant_tracking_and_ceiling(farey_rows, symmetric_rows):
    # asymptotics are not confirmable here; record the tracked constants and
    # require no >5% ceiling crossing between consecutive n
    rich_up = fitted_ceiling_violations(farey_rows, "rich_count", Fraction(11, 6))
    rich_low = fitted_ceiling_violations(farey_rows, "rich_count", Fraction(3, 2))
    edge_32 = fitted_ceiling_violations(symmetric_rows, "edge_count", Fraction(3, 2))
    ratios_116 = tracking_ratios(farey_rows, "rich_count", Fraction(11, 6))
    ratios_32 = tracking_ratios(farey_rows, "rich_count", Fraction(3, 2))
    ok = not rich_up and not rich_low and not edge_32
    ok &= all(r > 0 for _, r in ratios_116 + ratios_32)
    assert _verdict(
        9, ok,
        "no >5% ceiling crossing between consecutive n (rich_count/n^(11/6) "
        "and /n^(3/2) over farey-shift n=64..1024, edge_count/n^(3/2) over "
        f"symmetric n=16..65536); tracked rich/n^(11/6): "
        f"{[f'{r:.3f}' for _, r in ratios_116]}, rich/n^(3/2): "
        f"{[f'{r:.3f}' for _, r in ratios_32]}")


def test_criterion_10_rich_points_vs_bruteforce():
    from pencils.constructions import Pencil, PencilConfig
    from pencils.projective import line_through

    rng = random.Random(42)
    start = time.perf_counter()
    checked = 0
    mismatches = 0
    while checked < 100:
        m = rng.randint(2, 4)
        centres = []
        while len(centres) < m:
            if rng.random() < 0.1:
                c = ProjPoint(1, rng.randint(-3, 3), 0)
            else:
                c = ProjPoint.from_affine(rng.randint(-7, 7), rng.randint(-7, 7))
            if c not in centres:
                centres.append(c)
        budget = 40
        pencils = []
        for idx, c in enumerate(centres):
            remaining = m - idx - 1
            top = max(1, min(6, budget - remaining))
            lines = set()
            want = rng.randint(1, top)
            while len(lines) < want:
                q = ProjPoint.from_affine(rng.randint(-8, 8), rng.randint(-8, 8))
                if q != c:
                    lines.add(line_through(c, q))
            budget -= len(lines)
            pencils.append(Pencil(c, lines))
        shared = set(pencils[0].lines)
        for pc in pencils[1:]:
            shared &= pc.lines
        if shared:
            continue
        cfg = PencilConfig(pencils)
        rep = rich_points(cfg)
        got = {p.coords for p in rep.points}
        got |= {c.coords for c in rep.excluded_centres}
        want = rich_points_bruteforce([[l.coeffs for l in pc.lines]
                                       for pc in cfg.pencils])
        if got != want:
            mismatches += 1
        checked += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    assert _verdict(10, ok, f"{checked} random configs (<=40 lines) vs "
                            f"brute force, {mismatches} mismatches; "
                            f"{elapsed:.1f}s")
