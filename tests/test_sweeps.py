import dataclasses
import math
from fractions import Fraction
from unittest import mock

import pytest

import pencils.sweeps
from pencils.cli import main
from pencils.constructions import CONSTRUCTION_TAGS, build, standard_shift_centres
from pencils.errors import PreconditionError, ZeroDenominator
from pencils.graphs import shifted_restricted_ratio_set
from pencils.projective import ProjPoint
from pencils.sweeps import SweepRow, fit_exponent, sweep

from tracking import fitted_ceiling_violations, tracking_ratios


def _rows(values, ns=None):
    ns = ns or [4 ** (k + 1) for k in range(len(values))]
    return [SweepRow(n=n, d=Fraction(0), construction="synthetic",
                     edge_count=v, ratio_set_sizes=(), rich_count=v,
                     pencil_sizes=(), wall_time_ms=0)
            for n, v in zip(ns, values)]


def test_fit_exact_power_laws():
    rows = _rows([n * n for n in (4, 16, 64, 256)])
    fit = fit_exponent(rows)
    assert abs(fit.slope - 2.0) < 1e-9
    assert fit.r_squared > 1 - 1e-12
    assert fit.n_range == (4, 256)
    rows = _rows([7 * round(n ** 1.5) for n in (4, 16, 64, 256, 1024)])
    fit = fit_exponent(rows)
    assert abs(fit.slope - 1.5) < 1e-3
    fitted = math.exp(fit.intercept) * 64 ** fit.slope
    assert abs(fitted - 7 * 64 ** 1.5) / (7 * 64 ** 1.5) < 1e-2


def test_fit_guards():
    with pytest.raises(PreconditionError, match="at least 3 distinct n"):
        fit_exponent(_rows([4, 16]))
    with pytest.raises(PreconditionError, match="edge_count = 0 at n = 16"):
        fit_exponent(_rows([1, 0, 9]))
    with pytest.raises(AttributeError):
        fit_exponent(_rows([1, 2, 4]), field="no_such_field")


def test_fit_constant_series():
    fit = fit_exponent(_rows([5, 5, 5, 5]))
    assert abs(fit.slope) < 1e-12
    assert fit.r_squared == 1.0


def test_fitted_ceiling_violations():
    rows = _rows([n * n for n in (4, 16, 64, 256)])
    assert fitted_ceiling_violations(rows, "edge_count", 2) == []
    # a decaying constant never crosses its running ceiling
    decaying = _rows([n * n // k for k, n in enumerate((4, 16, 64, 256), start=1)])
    assert fitted_ceiling_violations(decaying, "edge_count", 2) == []
    # 4% wobble sits inside the 5% tolerance, 30% does not
    wobble = _rows([16, 263, 4096, 68157], ns=[4, 16, 64, 256])
    assert fitted_ceiling_violations(wobble, "edge_count", 2) == []
    bumped = _rows([16, 256, 4096 * 13 // 10, 65536], ns=[4, 16, 64, 256])
    bad = fitted_ceiling_violations(bumped, "edge_count", 2)
    assert [n for n, _, _ in bad] == [64]


def test_tracking_ratios():
    rows = _rows([n ** 2 for n in (4, 16, 64)])
    ratios = tracking_ratios(rows, "edge_count", 2)
    assert all(abs(r - 1.0) < 1e-12 for _, r in ratios)
    ratios = tracking_ratios(rows, "edge_count", Fraction(3, 2))
    assert [n for n, _ in ratios] == [4, 16, 64]
    assert ratios[0][1] == pytest.approx(2.0)


def test_sweep_validates_inputs():
    with pytest.raises(ValueError):
        sweep("no-such-construction", [4, 16, 64])
    with pytest.raises(ValueError):
        sweep("symmetric", [16, 4, 64])  # not ascending
    assert sweep("symmetric", []) == []
    assert "farey-shift" in CONSTRUCTION_TAGS


def test_sweep_rejects_float_and_bool_d():
    with pytest.raises(TypeError):
        sweep("farey-shift", [64], d=0.043)
    with pytest.raises(TypeError):
        sweep("symmetric", [16], d=False)
    # the sizes too (16.5 was truncated to 16), and the tracked exponents
    for n in (16.5, True):
        with pytest.raises(TypeError):
            sweep("symmetric", [n])
    for e in (1.5, True):
        with pytest.raises(TypeError):
            tracking_ratios(_rows([1, 2]), "edge_count", e)
        with pytest.raises(TypeError):
            fitted_ceiling_violations(_rows([1, 2]), "edge_count", e)
    assert tracking_ratios(_rows([16]), "edge_count", "3/2") == [(4, 2.0)]


def _ratio_sizes(construction, n, d=0, m=None, centres=None):
    """One shifted_restricted_ratio_set size per affine centre (x, y) of the
    family's pencils at n, built apart from the sweep: |{(a - x)/(b - y)}|."""
    built, config = build(construction, n, d, m, centres)
    return tuple(len(shifted_restricted_ratio_set(built.graph, -x, -y))
                 for x, y in (pc.centre.to_affine() for pc in config.pencils
                              if not pc.centre.is_infinite))


def test_sweep_symmetric_rows():
    rows = sweep("symmetric", [4, 16, 64])
    assert [r.edge_count for r in rows] == [5, 33, 255]
    assert [r.n for r in rows] == [4, 16, 64]
    for r in rows:
        assert r.construction == "symmetric"
        assert r.rich_count == 0 and r.pencil_sizes == ()
        assert r.ratio_set_sizes and all(s > 0 for s in r.ratio_set_sizes)
        assert r.wall_time_ms >= 0
    # with centres, one ratio set per affine centre, as for farey-shift
    for r in sweep("symmetric", [16, 64], centres=standard_shift_centres()):
        assert r.ratio_set_sizes == r.pencil_sizes[:3]
        assert r.ratio_set_sizes == _ratio_sizes("symmetric", r.n,
                                                 centres=standard_shift_centres())


def test_sweep_grid_rows():
    rows = sweep("grid-footnote", [2, 3, 5])
    assert [r.rich_count for r in rows] == [4, 9, 25]
    # the covered grid plays the edge-point role for this family
    assert [r.edge_count for r in rows] == [4, 9, 25]
    assert [r.pencil_sizes for r in rows] == [
        (2, 2, 3, 3), (3, 3, 5, 5), (5, 5, 9, 9)]


def test_sweep_farey_rows():
    rows = sweep("farey-shift", [16, 64], d=Fraction(43, 1000))
    for r in rows:
        assert r.d == Fraction(43, 1000)
        assert r.rich_count >= r.edge_count
        assert len(r.pencil_sizes) == 4
        # three affine centres produce the recorded ratio sizes, and the
        # pencil at infinity adds no ratio set
        assert r.ratio_set_sizes == r.pencil_sizes[:3]
        assert r.ratio_set_sizes == _ratio_sizes("farey-shift", r.n, r.d,
                                                 centres=standard_shift_centres())


def test_sweep_m_pencil_rows():
    rows = sweep("m-pencil", [16, 64], m=4)
    for r in rows:
        assert r.rich_count >= r.edge_count
        assert len(r.pencil_sizes) == 4
        assert r.ratio_set_sizes == r.pencil_sizes
        assert r.ratio_set_sizes == _ratio_sizes("m-pencil", r.n, m=4)
    with pytest.raises(ValueError):
        sweep("m-pencil", [16])  # m is required


def test_sweep_refuses_a_centre_level_with_an_edge_point(capsys):
    """An affine centre (x, y) with y = b for an edge point (a, b) makes a
    zero denominator in its ratio set (a - x)/(b - y): the sweep raises
    ZeroDenominator(y) with the message that the ratio set itself raises,
    and the CLI sweep exits 2.  At n = 16 the farey-shift edge points
    include b = 1/2, and no a is -1."""
    level = [ProjPoint.from_affine(0, 0), ProjPoint.from_affine(-1, "1/2")]
    built, _ = build("farey-shift", 16)
    with pytest.raises(ZeroDenominator) as direct:
        shifted_restricted_ratio_set(built.graph, 1, Fraction(-1, 2))
    with pytest.raises(ZeroDenominator) as raised:
        sweep("farey-shift", [16], centres=level)
    assert raised.value.value == Fraction(1, 2) == direct.value.value
    assert str(raised.value) == str(direct.value) == "shift makes denominator vanish at b = 1/2"
    # the centre one above it is on no horizontal line through an edge point
    assert sweep("farey-shift", [16], centres=[level[0], ProjPoint.from_affine(-1, 2)])
    capsys.readouterr()
    assert main(["sweep", "--construction", "farey-shift", "--n", "16",
                 "--centres", '[["0","0"],["-1","1/2"]]']) == 2
    assert "shift makes denominator vanish at b = 1/2" in capsys.readouterr().err


def test_sweep_sizes_ratio_sets_by_edge_ratios_only_without_a_config():
    """A row with a pencil config reads its ratio-set sizes off the pencils;
    only a graph row with no config computes one, at (0, 0)."""
    with mock.patch.object(pencils.sweeps, "_ratio_arrays",
                           wraps=pencils.sweeps._ratio_arrays) as ratio_arrays:
        sweep("farey-shift", [16, 64], d=Fraction(43, 1000))
        sweep("symmetric", [16], centres=standard_shift_centres())
        sweep("m-pencil", [16], m=4)
        sweep("grid-footnote", [3])
        assert ratio_arrays.call_count == 0
        rows = sweep("symmetric", [16, 64])
    assert ratio_arrays.call_count == 2
    assert all(call.args[1:] == () and call.kwargs == {} for call in ratio_arrays.call_args_list)
    assert [r.ratio_set_sizes for r in rows] == [
        (len(shifted_restricted_ratio_set(build("symmetric", n)[0].graph)),) for n in (16, 64)]


def test_sweep_deterministic_modulo_wall_time():
    a = sweep("symmetric", [4, 16, 64])
    b = sweep("symmetric", [4, 16, 64])
    strip = lambda r: dataclasses.replace(r, wall_time_ms=0)
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_symmetric_edge_exponent_window():
    rows = sweep("symmetric", [4 ** k for k in range(2, 6)])
    fit = fit_exponent(rows, "edge_count")
    assert 1.4 < fit.slope < 1.6
    assert fit.r_squared > 0.99
