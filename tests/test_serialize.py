import json
from fractions import Fraction

import pytest

from pencils.constructions import (
    build_farey_shift_construction,
    build_grid_footnote_config,
    build_symmetric_farey_construction,
)
from pencils.incidence import verify_lemma_chain
from pencils.projective import ProjLine, ProjPoint
from pencils.richpoints import rich_points
from pencils.serialize import (
    SWEEP_CSV_HEADER,
    dumps,
    fit_to_json,
    graph_construction_from_json,
    graph_construction_to_json,
    lemma_report_to_json,
    line_from_json,
    line_to_json,
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
    l = ProjLine(2, -4, 6)
    assert line_from_json(line_to_json(l)) == l
    assert point_to_json(ProjPoint(1, 0, 0)) == ["1", "0", "0"]


def test_pencil_config_json_roundtrip():
    cfg = build_grid_footnote_config(3)
    blob = dumps(pencil_config_to_json(cfg))
    back = pencil_config_from_json(json.loads(blob))
    assert back.label == cfg.label
    assert back.sizes() == cfg.sizes()
    assert [pc.centre for pc in back.pencils] == [pc.centre for pc in cfg.pencils]
    assert [pc.lines for pc in back.pencils] == [pc.lines for pc in cfg.pencils]
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
    rows = sweep("farey-shift", [16, 64])
    text = sweep_rows_to_csv(rows)
    assert text.splitlines()[0] == SWEEP_CSV_HEADER
    back = sweep_rows_from_csv(text)
    assert back == rows or [
        (r.n, r.edge_count, r.rich_count) for r in back
    ] == [(r.n, r.edge_count, r.rich_count) for r in rows]
    with pytest.raises(ValueError):
        sweep_rows_from_csv("bogus,header\n1,2\n")


def test_sweep_rows_json_shape():
    rows = sweep("symmetric", [4, 16])
    objs = sweep_rows_to_json(rows)
    assert [o["n"] for o in objs] == [4, 16]
    assert all(o["construction"] == "symmetric" for o in objs)
    assert objs[0]["d"] == "0"


def test_fit_json_shape():
    rows = sweep("symmetric", [4, 16, 64, 256])
    fit = fit_exponent(rows, "edge_count")
    obj = fit_to_json(fit, "edge_count")
    assert obj["field"] == "edge_count"
    assert obj["n_range"] == [4, 256]
    assert 1.3 < obj["slope"] < 1.7
