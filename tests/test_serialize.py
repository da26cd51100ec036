import json
from fractions import Fraction

import pytest

from pencils.constructions import (
    Pencil,
    PencilConfig,
    build_farey_shift_construction,
    build_grid_footnote_config,
    build_symmetric_farey_construction,
    standard_shift_centres,
)
from pencils.incidence import verify_lemma_chain
from pencils.projective import ProjPoint
from pencils.richpoints import rich_points
from pencils.serialize import (
    SWEEP_CSV_HEADER,
    dumps,
    fit_to_json,
    graph_construction_from_json,
    graph_construction_to_json,
    lemma_report_to_json,
    pencil_config_from_json,
    pencil_config_to_json,
    point_from_json,
    point_to_json,
    rich_report_summary_csv,
    rich_report_to_json,
    sweep_rows_from_csv,
    sweep_rows_to_csv,
    sweep_rows_to_json,
)
from pencils.sweeps import fit_exponent, sweep


def test_point_line_json_roundtrip():
    p = ProjPoint.from_affine(Fraction(1, 2), Fraction(-3))
    assert point_from_json(point_to_json(p)) == p
    assert point_to_json(ProjPoint(1, 0, 0)) == ["1", "0", "0"]
    # a line triple is written in canonical form and reads back as its row
    cfg = PencilConfig([Pencil(ProjPoint(1, 0, 0), [(0, -2, 4), (0, 1, -2)])])
    obj = pencil_config_to_json(cfg)
    assert obj["pencils"][0]["lines"] == [["0", "1", "-2"]]
    assert pencil_config_from_json(obj).pencils == cfg.pencils


def test_pencil_config_json_roundtrip():
    cfg = build_grid_footnote_config(3)
    blob = dumps(pencil_config_to_json(cfg))
    back = pencil_config_from_json(json.loads(blob))
    assert back.label == cfg.label
    assert back.sizes() == cfg.sizes()
    assert [pc.centre for pc in back.pencils] == [pc.centre for pc in cfg.pencils]
    assert back.pencils == cfg.pencils
    assert rich_points(back).points == rich_points(cfg).points


def test_graph_construction_json_roundtrip():
    built = build_farey_shift_construction(64, Fraction(43, 1000))
    back = graph_construction_from_json(graph_construction_to_json(built))
    assert back.label == built.label
    assert back.n == built.n and back.d == built.d
    assert list(back.A) == list(built.A)
    assert list(back.B) == list(built.B)
    assert back.graph.edge_array.tolist() == built.graph.edge_array.tolist()


def test_rich_report_json_and_csv():
    cfg = build_grid_footnote_config(2)
    rep = rich_points(cfg)
    obj = rich_report_to_json(rep)
    assert obj["count"] == 4
    assert obj["infinite_count"] == 0
    assert len(obj["points"]) == 4
    line = rich_report_summary_csv(rep)
    assert line.startswith(rep.config_label)
    assert ",4," in line


def test_lemma_report_json():
    built = build_symmetric_farey_construction(16)
    rep = verify_lemma_chain(built.graph, (Fraction(0), Fraction(-1)),
                             (Fraction(1), Fraction(-1)))
    obj = lemma_report_to_json(rep)
    assert obj["all_ok"] is True
    assert all(obj["verdicts"].values())
    assert obj["incidence_count"] == rep.incidence_count
    json.dumps(obj)  # stays serialisable


def test_sweep_rows_csv_roundtrip():
    families = [
        sweep("farey-shift", [16, 64], d=Fraction(43, 1000)),
        sweep("symmetric", [4, 16]),
        sweep("symmetric", [16, 64], centres=standard_shift_centres()),
        sweep("grid-footnote", [2, 3]),
        sweep("m-pencil", [16, 64], m=4),
    ]
    for rows in families:
        text = sweep_rows_to_csv(rows)
        assert text.splitlines()[0] == SWEEP_CSV_HEADER
        # exact, wall_time_ms included
        assert sweep_rows_from_csv(text) == rows
    # empty tuple cells: no pencils without centres, no affine centre on the grid
    assert families[1][0].pencil_sizes == families[3][0].ratio_set_sizes == ()
    with pytest.raises(ValueError):
        sweep_rows_from_csv("bogus,header\n1,2\n")
    for row in ("4,0,symmetric,5,5,0,", "4,0,symmetric,5,5,0,,0,9"):
        with pytest.raises(ValueError, match="expected 8"):
            sweep_rows_from_csv(f"{SWEEP_CSV_HEADER}\n{row}\n")


def test_sweep_rows_json_shape():
    rows = sweep("symmetric", [4, 16])
    objs = sweep_rows_to_json(rows)
    assert [o["n"] for o in objs] == [4, 16]
    assert all(o["construction"] == "symmetric" for o in objs)
    assert objs[0]["d"] == "0"
    assert all(list(o) == SWEEP_CSV_HEADER.split(",") for o in objs)


def test_fit_json_shape():
    rows = sweep("symmetric", [4, 16, 64, 256])
    fit = fit_exponent(rows, "edge_count")
    obj = fit_to_json(fit, "edge_count")
    assert list(obj) == ["field", "slope", "intercept", "r_squared", "n_range"]
    assert obj["field"] == "edge_count"
    assert obj["n_range"] == [4, 256]
    assert 1.3 < obj["slope"] < 1.7
