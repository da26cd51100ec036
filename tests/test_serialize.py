import io
import json
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pencils.serialize
from pencils.serialize import _Rows

from pencils.constructions import (
    Pencil,
    PencilConfig,
    build_farey_shift_construction,
    build_grid_footnote_config,
    build_symmetric_farey_construction,
    standard_shift_centres,
)
from pencils.cli import main
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
    assert back.graph == built.graph and back.graph != built.graph.transpose()


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
    drawn non-divisor of the row count, or the module's.  The ends of the
    entries' range are a branch of their own, so entries past 2^63 do not
    hang on how the integer strategy is seeded."""
    lo, hi = (-2**70, 2**70) if dtype is object else (-2**63, 2**63 - 1)
    k = draw(st.sampled_from([0, 1]) | st.integers(2, 12))
    width = 3 if cell == '"%d"' else 2
    values = draw(st.lists(st.integers(lo, hi) | st.integers(-3, 3) | st.sampled_from([lo, hi]),
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
        reached["past 2^63"] += any(not -2**63 <= int(v) < 2**63 for v in rows.flat)
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
    """A config read back from its written text, through json.loads and
    through loads, has the same pencils, rows and row dtypes.  Each size of
    coordinates gets its own examples; a counter shows int64 and object rows,
    and the lines that the reader hands to Pencil's int_rows come out as
    int64 and, for entries past int64, as object."""
    reached, intake = Counter(), pencils.constructions.int_rows

    def counting(rows):
        array = intake(rows)
        reached["read", array.dtype.name] += 1
        return array

    @settings(max_examples=20)
    def check(cfg):
        text = dumps(pencil_config_to_json(cfg))
        with mock.patch.object(pencils.constructions, "int_rows", counting):
            backs = [pencil_config_from_json(read(text))
                     for read in (json.loads, pencils.serialize.loads)]
        for back in backs:
            assert back.label == cfg.label and back.pencils == cfg.pencils
            assert [pb.rows.dtype for pb in back.pencils] == [pc.rows.dtype for pc in cfg.pencils]
        reached.update(("rows", pc.rows.dtype.name) for pc in cfg.pencils)

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


def _outcome(read, tree_of, data):
    """read(tree_of(data)) with its rows as (dtype, lists), or the message of
    the ValueError it raises."""
    try:
        obj = read(tree_of(data))
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(obj, PencilConfig):
        return obj.label, [(pc.centre, pc.rows.dtype, pc.rows.tolist()) for pc in obj.pencils]
    return obj.label, obj.n, obj.d, obj.graph.edge_array.dtype, obj.graph.edge_array.tolist()


def _today(data: bytes):
    """The tree the readers took before loads: json.loads of the file's text."""
    return json.loads(data.decode())


def _as_today(read, data: bytes, reads) -> bool:
    """Whether loads read data in bulk, as the bulk_reads Counter reads
    shows; read(loads(data)) must give the rows, or the message, that read
    gives on the tree of today's path."""
    bulk = reads["bulk"]
    assert _outcome(read, pencils.serialize.loads, data) == _outcome(read, _today, data)
    return reads["bulk"] > bulk


def _config_text(rows, label="x") -> str:
    """dumps of a config of two pencils, centred at (0 : 0 : 1), whose first
    holds rows, and at (1 : 0 : 0)."""
    return dumps({"label": label, "pencils": [
        {"centre": ["0", "0", "1"], "lines": _Rows(np.array(rows, dtype=object), '"%d"')},
        {"centre": ["1", "0", "0"], "lines": _Rows(np.array([[0, 1, 2]]), '"%d"')}]})


def _graph_text(edges) -> str:
    return dumps({"label": "g", "n": 4, "d": "0", "A": ["1", "2"], "B": ["1", "2"],
                  "edges": _Rows(np.array(edges, dtype=np.int64).reshape(-1, 2), "%d")})


def test_loads_reads_quoted_cells_as_int_does(bulk_reads):
    """A quoted cell with leading zeros or a minus zero is read in bulk as
    int() reads it: "007" as 7 and "-0" as 0."""
    data = _config_text([[1, 7, 0], [1, 5, 0]]).replace('"7"', '"007"').replace('"5"', '"-0"')
    assert _as_today(pencil_config_from_json, data.encode(), bulk_reads)
    lines = pencils.serialize.loads(data.encode())["pencils"][0]["lines"]
    assert lines.dtype == np.int64 and lines.tolist() == [[1, 7, 0], [1, 0, 0]]


def test_loads_reads_bare_cells_as_json_does(capsys, tmp_path, bulk_reads):
    """A bare edge cell is a JSON int: 007 is malformed, and the CLI exits 2
    with json.loads' message; -0 reads as 0."""
    text = _graph_text([[1, 1], [0, 0]])
    zeros = text.replace("      1,", "      007,", 1)
    assert not _as_today(graph_construction_from_json, zeros.encode(), bulk_reads)
    path = tmp_path / "g.json"
    path.write_text(zeros)
    assert main(["verify-lemma", "--graph", str(path), "--centres", '[["0","-1"],["1","-1"]]']) == 2
    assert "invalid input: Expecting ',' delimiter" in capsys.readouterr().err
    minus = text.replace("      1,", "      -0,", 1)
    assert _as_today(graph_construction_from_json, minus.encode(), bulk_reads)
    edges = pencils.serialize.loads(minus.encode())["edges"]
    assert edges.dtype == np.int64 and edges.tolist() == [[0, 1], [0, 0]]


@pytest.mark.parametrize("cell", [10**18, -10**18, 2**63, -2**63, 2**63 - 1])
def test_loads_sends_cells_past_18_digits_to_json_loads(cell, bulk_reads):
    """A cell of 19 digits falls back to today's path and its rows: int64 for
    +-10^18, object for +-2^63 and 2^63 - 1, whose incidence test is past 2^62."""
    data = _config_text([[1, cell, 0]]).encode()
    assert not _as_today(pencil_config_from_json, data, bulk_reads)
    rows = pencil_config_from_json(pencils.serialize.loads(data)).pencils[0].rows
    assert rows.dtype == (np.int64 if abs(cell) == 10**18 else object)


def test_loads_reads_empty_leaves_and_leaves_escaped_keys_alone(bulk_reads):
    """An empty leaf [] is left to json.loads, next to a leaf read in bulk or
    alone; a label whose text holds the escaped key \\"lines\\": [ is no
    leaf; a re-indented file falls back."""
    empty = _config_text(np.empty((0, 3), int)).encode()
    assert b'"lines": []' in empty and _as_today(pencil_config_from_json, empty, bulk_reads)
    assert pencils.serialize.loads(empty)["pencils"][0]["lines"] == []
    assert not _as_today(graph_construction_from_json, _graph_text([]).encode(), bulk_reads)
    label = '\n      "lines": ['  # written as the escaped text \\n      \\"lines\\": [
    data = _config_text([[1, 7, 0]], label=label).encode()
    assert b'\\"lines\\": [' in data and _as_today(pencil_config_from_json, data, bulk_reads)
    assert pencil_config_from_json(pencils.serialize.loads(data)).label == label
    indented = json.dumps(json.loads(_config_text([[1, 7, 0]])), indent=4).encode()
    assert not _as_today(pencil_config_from_json, indented, bulk_reads)


def test_rich_points_reads_a_config_from_stdin_text(capsys, monkeypatch, tmp_path, bulk_reads):
    """--config - reads stdin's text (a StringIO here, with no byte buffer) in
    bulk, with the output of the same config read from a file."""
    text = dumps(pencil_config_to_json(build_grid_footnote_config(3)))
    (tmp_path / "cfg.json").write_text(text)
    assert main(["rich-points", "--config", str(tmp_path / "cfg.json")]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["rich-points", "--config", "-"]) == 0
    assert capsys.readouterr().out == from_file and bulk_reads == {"bulk": 2}


@st.composite
def _leaf_trees(draw, key):
    """A config (key "lines") or graph (key "edges") tree as dumps writes it,
    whose one leaf holds up to 12 rows of int64 or Python ints, and the chunk
    size to read it with: 1, a non-divisor of the row count, or the module's."""
    k = draw(st.sampled_from([0, 1]) | st.integers(2, 12))
    width = 3 if key == "lines" else 2
    cells = st.integers(-3, 3) | st.integers(-10**18 + 1, 10**18 - 1) | st.integers(-2**70, 2**70)
    rows = np.array(draw(st.lists(cells, min_size=k * width, max_size=k * width)),
                    dtype=object).reshape(k, width)
    try:
        rows = rows.astype(np.int64)
    except OverflowError:
        pass
    chunk = draw(st.sampled_from([1, pencils.serialize._CHUNK] + [c for c in range(2, k) if k % c]))
    if key == "lines":
        return chunk, {"label": "l", "pencils": [{"centre": ["0", "0", "1"], "lines": _Rows(
            rows, '"%d"')}, {"centre": ["1", "0", "0"], "lines": _Rows(rows[:1], '"%d"')}]}
    return chunk, {"label": "g", "n": 4, "d": "0", "A": ["1"], "B": ["1"],
                   "edges": _Rows(rows, "%d")}


def test_loads_reads_array_leaves_as_json_loads_does(bulk_reads):
    """loads of dumps' text gives json.loads' tree, with each config's lines
    and graph's edges leaf whose cells fit 18 digits read in bulk as the
    int64 array that int() of its cells gives.  Each key gets its own
    examples; a counter shows the bulk path and the fallback (a cell past
    18 digits) taken, and slices of one row, of a non-divisor of the rows
    and of the module's size."""
    reached = Counter()

    @settings(max_examples=30)
    def check(drawn):
        chunk, doc = drawn
        data = dumps(doc).encode()
        plain = json.loads(data)
        with mock.patch.object(pencils.serialize, "_CHUNK", chunk):
            tree = pencils.serialize.loads(data)
        leaves = [(tree, "edges")] if "edges" in tree else [(e, "lines") for e in tree["pencils"]]
        for obj, key in leaves:  # an array leaf is written back as json.loads reads it
            if isinstance(obj[key], np.ndarray):
                rows = obj[key]
                assert rows.dtype == np.int64 and rows.shape[1] == (3 if key == "lines" else 2)
                obj[key] = [[str(v) if key == "lines" else v for v in row] for row in rows.tolist()]
        assert tree == plain
        k = len(plain["pencils"][0]["lines"] if "pencils" in plain else plain["edges"])
        reached["chunk", "one" if chunk == 1 else "module" if chunk >= k else "non-divisor"] += 1

    for key in ("lines", "edges"):
        given(_leaf_trees(key))(check)()
        assert bulk_reads.pop("bulk", 0) and bulk_reads.pop("fallback", 0), (key, bulk_reads)
    assert all(reached["chunk", c] for c in ("one", "module", "non-divisor")), reached
