import json
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pencils.serialize

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

from oracles import _canon, join


def test_point_line_json_roundtrip():
    p = ProjPoint.from_affine(Fraction(1, 2), Fraction(-3))
    assert point_from_json(point_to_json(p)) == p
    assert point_to_json(ProjPoint(1, 0, 0)) == ["1", "0", "0"]
    # a line triple is written in canonical form and reads back as its row
    cfg = PencilConfig([Pencil(ProjPoint(1, 0, 0), [(0, -2, 4), (0, 1, -2)])])
    obj = json.loads(dumps(pencil_config_to_json(cfg)))
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
    back = graph_construction_from_json(json.loads(dumps(graph_construction_to_json(built))))
    assert back.label == built.label
    assert back.n == built.n and back.d == built.d
    assert list(back.A) == list(built.A)
    assert list(back.B) == list(built.B)
    assert back.graph.edge_array.tolist() == built.graph.edge_array.tolist()


def test_rich_report_json_and_csv():
    cfg = build_grid_footnote_config(2)
    rep = rich_points(cfg)
    obj = json.loads(dumps(rich_report_to_json(rep)))
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


@st.composite
def _leaf_docs(draw, dtype, cell):
    """(chunk, document, its json.dumps tree): an int64 or object array of
    0, 1 or up to 12 rows (width 2 for bare cells, 3 for quoted), held as
    an array leaf at two depths of a document, and a chunk size of 1, of a
    drawn non-divisor of the row count, or the module's."""
    lo, hi = (-2**70, 2**70) if dtype is object else (-2**63, 2**63 - 1)
    k = draw(st.sampled_from([0, 1]) | st.integers(2, 12))
    width = 3 if cell == '"%d"' else 2
    values = draw(st.lists(st.integers(lo, hi) | st.integers(-3, 3),
                           min_size=k * width, max_size=k * width))
    rows = np.array(values, dtype=dtype).reshape(k, width)
    chunk = draw(st.sampled_from([1, pencils.serialize._CHUNK]
                                 + [c for c in range(2, k) if k % c]))
    leaf, listed = pencils.serialize._Rows(rows, cell), rows.tolist()
    if width == 3:
        listed = [[str(v) for v in row] for row in listed]
    doc = lambda rows: {"label": "l\u00e9", "rows": rows,
                        "nested": [{"rows": rows, "e": []}, 1.5], "n": None}
    return chunk, doc(leaf), doc(listed)


def test_dumps_matches_json_dumps_on_array_leaves():
    """dumps writes an array leaf as json.dumps(indent=2) writes its listed
    rows, byte for byte.  Each dtype and kind of cell gets its own
    examples; a counter shows no, one and many rows, entries past 2^63,
    and chunks of one row, of a non-divisor of the rows and of the
    module's size reached."""
    reached = Counter()

    @settings(max_examples=20)
    def check(drawn):
        chunk, doc, tree = drawn
        rows = doc["rows"].array
        reached[rows.dtype.name, doc["rows"].cell] += 1
        reached["rows", min(len(rows), 2)] += 1
        reached["past 2^63"] += any(abs(v) >= 2**63 for v in rows.flat)
        reached["chunk", "one" if chunk == 1 else "module" if chunk >= len(rows)
                else "non-divisor"] += 1
        with mock.patch.object(pencils.serialize, "_CHUNK", chunk):
            assert dumps(doc) == json.dumps(tree, indent=2) + "\n"
            assert dumps(doc["rows"]) == json.dumps(tree["rows"], indent=2) + "\n"

    for dtype in (np.int64, object):
        for cell in ('"%d"', "%d"):
            given(_leaf_docs(dtype, cell))(check)()
    assert all(reached[name, cell] for name in ("int64", "object") for cell in ('"%d"', "%d"))
    assert all(reached["rows", k] for k in (0, 1, 2)), reached
    assert all(reached["chunk", c] for c in ("one", "module", "non-divisor")), reached
    assert reached["past 2^63"], reached


def test_dumps_converts_keys_as_json_dumps():
    """A non-str key is written as json.dumps writes it, and a key that
    json.dumps refuses raises the same TypeError."""
    doc = {1: [1, {None: "x", True: [], 1.5: {}}], "k\u00e9y": ("a", 2)}
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"
    with pytest.raises(TypeError):
        dumps({(1, 2): 0})


# small coordinates give int64 rows; coordinates past 2^62 give object rows
# and, as joins, JSON entries past int64
_small = st.integers(-5, 5)
_big = st.one_of(_small, st.integers(2**62, 2**66), st.integers(-2**66, -2**62))


@st.composite
def _configs(draw, ints):
    """1-3 pencils with distinct centres, each holding the joins of its
    centre with 1-4 other drawn points."""
    point = st.tuples(ints, ints, ints).filter(any).map(_canon)
    pencils_ = []
    for c in draw(st.lists(point, min_size=1, max_size=3, unique=True)):
        others = draw(st.lists(point.filter(lambda q, c=c: q != c), min_size=1, max_size=4))
        pencils_.append(Pencil(ProjPoint(*c), [join(c, q) for q in others]))
    return PencilConfig(pencils_, label="drawn")


def test_pencil_config_reader_roundtrips_both_dtypes():
    """A config read back from its written text has the same pencils, rows
    and row dtypes.  Each size of coordinates gets its own examples; a
    counter shows int64 and object rows, and the reader's int64 array and
    its object array for entries past int64, reached."""
    reached, read = Counter(), pencils.serialize._rows_from_json

    def counting(rows):
        array = read(rows)
        reached["read", array.dtype.name] += 1
        return array

    @settings(max_examples=20)
    def check(cfg):
        back = pencil_config_from_json(json.loads(dumps(pencil_config_to_json(cfg))))
        assert back.label == cfg.label and back.pencils == cfg.pencils
        for pc, pb in zip(cfg.pencils, back.pencils):
            assert pb.rows.dtype == pc.rows.dtype
            reached["rows", pc.rows.dtype.name] += 1

    with mock.patch.object(pencils.serialize, "_rows_from_json", counting):
        for ints in (_small, _big):
            given(_configs(ints))(check)()
    assert all(reached[kind, name] for kind in ("read", "rows")
               for name in ("int64", "object")), reached


@pytest.mark.parametrize("bad, offender", [
    (["0", "1"], "['0', '1']"),
    (["0", "1", "-2", "3"], "['0', '1', '-2', '3']"),
    (None, "None"),
    (["0", True, "-2"], "True"),
    (["0", 1.0, "-2"], "1.0"),
    (["0", None, "-2"], "None"),
    (["0", ["1"], "-2"], "['1']"),
    (["0", "1/2", "-2"], "'1/2'"),
    (["0", "x", "-2"], "'x'"),
])
def test_pencil_config_reader_names_the_first_bad_row(bad, offender):
    """A malformed row or entry raises ValueError naming it, alone among
    well-formed rows and when a later row is malformed too."""
    good = json.loads(dumps(pencil_config_to_json(build_grid_footnote_config(2))))
    for later in ([], [["9"]]):
        obj = json.loads(json.dumps(good))
        lines = obj["pencils"][0]["lines"]
        lines[1:1] = [bad]
        lines += later
        with pytest.raises(ValueError) as err:
            pencil_config_from_json(obj)
        assert offender in str(err.value) and "['9']" not in str(err.value)
