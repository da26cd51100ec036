import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pencils.cli as cli
from pencils import serialize
from pencils.cli import main


def test_construct_farey_shift(capsys, tmp_path):
    out = tmp_path / "g.json"
    assert main(["construct", "--construction", "farey-shift", "--n", "16",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["label"] == "farey-shift(n=16,d=0)"
    assert len(obj["A"]) == 7
    assert len(obj["B"]) == 16
    assert len(obj["edges"]) == 39


def test_construct_to_stdout(capsys):
    assert main(["construct", "--construction", "symmetric", "--n", "4"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n"] == 4
    assert len(obj["edges"]) == 5


def test_construct_with_centres_yields_config(capsys):
    assert main(["construct", "--construction", "symmetric", "--n", "4",
                 "--centres", '[["0","-1"],["1","-1"]]']) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["pencils"]) == 2
    from pencils.projective import ProjPoint
    from pencils.serialize import point_from_json
    assert point_from_json(obj["pencils"][0]["centre"]) == ProjPoint.from_affine(0, -1)


def test_construct_m_pencil_requires_m(capsys):
    assert main(["construct", "--construction", "m-pencil", "--n", "16"]) == 2
    assert main(["construct", "--construction", "m-pencil", "--n", "16",
                 "--m", "4"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["pencils"]) == 4


def test_centres_rejected_for_families_that_place_their_own(capsys):
    centres = '[["0","-1"],["1","-1"]]'
    for command in ("construct", "sweep"):
        for family in (["grid-footnote"], ["m-pencil", "--m", "4"]):
            capsys.readouterr()
            assert main([command, "--construction", *family, "--n", "16",
                         "--centres", centres]) == 2
            assert "places its own centres" in capsys.readouterr().err


def test_d_rejected_for_families_other_than_farey_shift(capsys):
    for command in ("construct", "sweep"):
        for family in (["symmetric"], ["grid-footnote"], ["m-pencil", "--m", "4"]):
            capsys.readouterr()
            assert main([command, "--construction", *family, "--n", "16",
                         "--d", "1/2"]) == 2
            assert "d applies only to farey-shift" in capsys.readouterr().err
    assert main(["verify-lemma", "--construction", "symmetric", "--n", "16",
                 "--d", "1/2", "--centres", '[["0","-1"],["1","-1"]]']) == 2
    assert "d applies only to farey-shift" in capsys.readouterr().err


def test_construct_domain_guard_exit_code(capsys):
    assert main(["construct", "--construction", "farey-shift", "--n", "3"]) == 2
    capsys.readouterr()
    assert main(["construct", "--construction", "farey-shift", "--n", "64",
                 "--d", "1/0"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_rich_points_pipeline(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    rep = tmp_path / "rep.json"
    assert main(["construct", "--construction", "grid-footnote", "--n", "5",
                 "--out", str(cfg)]) == 0
    assert main(["rich-points", "--config", str(cfg), "--out", str(rep)]) == 0
    captured = capsys.readouterr()
    obj = json.loads(rep.read_text())
    assert obj["count"] == 25
    # with --out taken, the one-line summary owns stdout
    assert captured.out.strip().startswith("grid-footnote(n=5)")


def test_rich_points_stdout_json(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    main(["construct", "--construction", "grid-footnote", "--n", "2",
          "--out", str(cfg)])
    capsys.readouterr()
    assert main(["rich-points", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["count"] == 4


def test_rich_points_bad_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["rich-points", "--config", str(bad)]) == 2
    capsys.readouterr()
    assert main(["rich-points", "--config", str(tmp_path / "missing.json")]) == 2
    assert "No such file" in capsys.readouterr().err


def test_rich_points_rejects_config_without_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    main(["construct", "--construction", "grid-footnote", "--n", "2",
          "--out", str(cfg)])
    good = json.loads(cfg.read_text())
    for key in ("lines", "centre", "pencils"):
        obj = json.loads(json.dumps(good))
        del (obj if key == "pencils" else obj["pencils"][0])[key]
        cfg.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["rich-points", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err
        assert "Traceback" not in err
    # a coefficient that is not an exact integer is rejected, not coerced
    for bad in (None, 1.5, True):
        obj = json.loads(json.dumps(good))
        obj["pencils"][0]["lines"][0][1] = bad
        cfg.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["rich-points", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert repr(bad) in err
        assert "Traceback" not in err


_GRAPH = {"label": "g", "n": 4, "d": "0", "A": ["1"], "B": ["1"], "edges": [[0, 0]]}


@pytest.mark.parametrize("command, obj", [
    ("rich-points", {"pencils": 5}),
    ("rich-points", {"pencils": [{"centre": ["0", "1", "0"], "lines": 7}]}),
    ("rich-points", {"pencils": [{"centre": 3, "lines": []}]}),
    ("rich-points", {"label": ["x"], "pencils": []}),
    ("verify-lemma", {}),
    ("verify-lemma", []),
    ("verify-lemma", {**_GRAPH, "A": 5}),
    ("verify-lemma", {**_GRAPH, "edges": 5}),
    ("verify-lemma", {**_GRAPH, "label": ["x"]}),
    ("verify-lemma", {k: v for k, v in _GRAPH.items() if k != "n"}),
    ("rich-points", {"pencils": [{"centre": ["0", "1", "0"], "lines": [["0", "0", "0"]]}]}),
    ("rich-points", {"pencils": [{"centre": ["0", "1", "0"], "lines": [["0", "1", "0"]]}]}),
    ("rich-points", {"pencils": [{"centre": ["0", "1", "0"], "lines": [5]}]}),
    ("rich-points", {"pencils": [{"centre": ["0", "1", "0"], "lines": [["1", "0"]]}]}),
    ("verify-lemma", {**_GRAPH, "A": ["1", "2/2"]}),
])
def test_malformed_json_shapes_exit_2(capsys, tmp_path, command, obj):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    argv = (["rich-points", "--config", str(path)] if command == "rich-points"
            else ["verify-lemma", "--graph", str(path),
                  "--centres", '[["0","-1"],["1","-1"]]'])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("reader", ["rich-points", "verify-lemma", "sweep"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, reader):
    """JSON nested deeper than json.loads can recurse is malformed input:
    each reader of a JSON file exits 2 with a message, not with a
    RecursionError."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    argv = {"rich-points": ["rich-points", "--config", str(path)],
            "verify-lemma": ["verify-lemma", "--graph", str(path),
                             "--centres", '[["0","-1"],["1","-1"]]'],
            "sweep": ["sweep", "--construction", "farey-shift", "--n", "16",
                      "--centres", f"@{path}"]}[reader]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid input: JSON nested too deeply" in err
    assert "Traceback" not in err


def test_verify_lemma_ok(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["verify-lemma", "--construction", "symmetric", "--n", "16",
                 "--centres", '[["0","-1"],["1","-1"]]', "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["all_ok"] is True
    assert obj["incidence_count"] >= obj["neighbourhood_square_sum"]


def test_verify_lemma_from_graph_file(capsys, tmp_path):
    g = tmp_path / "g.json"
    main(["construct", "--construction", "farey-shift", "--n", "16",
          "--out", str(g)])
    capsys.readouterr()
    assert main(["verify-lemma", "--graph", str(g),
                 "--centres", '[["0","-1"],["-1","-1"]]']) == 0
    assert json.loads(capsys.readouterr().out)["all_ok"] is True
    # an edgeless graph whose B is past 2^64 has no incidences
    g.write_text(json.dumps({**_GRAPH, "B": [str(2**64)], "edges": []}))
    assert main(["verify-lemma", "--graph", str(g),
                 "--centres", '[["0","-1"],["-1","-1"]]']) == 0
    assert json.loads(capsys.readouterr().out)["incidence_count"] == 0


def test_verify_lemma_rejects_bad_centres(capsys, tmp_path):
    # y = -1 sits in B for the symmetric construction? no; y = 1 does
    assert main(["verify-lemma", "--construction", "symmetric", "--n", "4",
                 "--centres", '[["0","1"],["1","-1"]]']) == 2
    assert main(["verify-lemma", "--construction", "symmetric", "--n", "4",
                 "--centres", '[["0","-1"]]']) == 2
    assert main(["verify-lemma", "--construction", "symmetric", "--n", "4",
                 "--centres", '[["0","-1","0"],["1","-1","1"]]']) == 2
    assert main(["verify-lemma", "--construction", "symmetric", "--n", "16",
                 "--centres", '[["1/0","1"],["0","-1"]]']) == 2
    for centres in ('[1,2]', '{"a":1}', '[[null,"1"],["0","-1"]]',
                    '[["0","-1","1"],[1.5,"-1","1"]]'):
        capsys.readouterr()
        assert main(["verify-lemma", "--construction", "symmetric", "--n", "16",
                     "--centres", centres]) == 2
        assert "Traceback" not in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    for argv in (["--centres", f"@{missing}"],
                 ["--graph", str(missing), "--centres", '[["0","-1"],["1","-1"]]']):
        capsys.readouterr()
        assert main(["verify-lemma", *argv]) == 2
        assert "No such file" in capsys.readouterr().err


def test_verify_lemma_rejects_negative_edge_index(capsys, tmp_path):
    g = tmp_path / "g.json"
    main(["construct", "--construction", "farey-shift", "--n", "16",
          "--out", str(g)])
    good = json.loads(g.read_text())
    for bad in (-1, 2**32, len(good["B"]), 0.5, True):
        obj = json.loads(json.dumps(good))
        obj["edges"][0][1] = bad
        g.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify-lemma", "--graph", str(g),
                     "--centres", '[["0","-1"],["-1","-1"]]']) == 2
        err = capsys.readouterr().err
        assert "edge index out of range" in err
        assert "Traceback" not in err


def test_verify_lemma_reports_false_verdict(capsys, monkeypatch, tmp_path):
    import pencils.incidence as incidence

    real = incidence.verify_lemma_chain

    def doctored(graph, c1, c2):
        rep = real(graph, c1, c2)
        object.__setattr__(rep, "witness_ok", False)
        return rep

    monkeypatch.setattr(cli, "verify_lemma_chain", doctored)
    code = main(["verify-lemma", "--construction", "symmetric", "--n", "4",
                 "--centres", '[["0","-1"],["1","-1"]]',
                 "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_sweep_csv_fit_pipeline(capsys, tmp_path):
    rows = tmp_path / "rows.csv"
    assert main(["sweep", "--construction", "symmetric",
                 "--n", "4,16,64,256", "--format", "csv",
                 "--out", str(rows)]) == 0
    assert main(["fit", "--rows", str(rows), "--field", "edge_count"]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert 1.3 < fit["slope"] < 1.7
    assert fit["n_range"] == [4, 256]


def test_sweep_json_stdout(capsys):
    assert main(["sweep", "--construction", "grid-footnote", "--n", "2,3"]) == 0
    objs = json.loads(capsys.readouterr().out)
    assert [o["rich_count"] for o in objs] == [4, 9]


def test_sweep_rejects_unsorted(capsys):
    assert main(["sweep", "--construction", "symmetric", "--n", "16,4"]) == 2


def test_fit_rejects_too_few_rows(capsys, tmp_path):
    rows = tmp_path / "rows.csv"
    main(["sweep", "--construction", "symmetric", "--n", "4,16",
          "--format", "csv", "--out", str(rows)])
    capsys.readouterr()
    assert main(["fit", "--rows", str(rows)]) == 2
    assert main(["fit", "--rows", str(tmp_path / "missing.csv")]) == 2
    # only the integer columns can be fitted; argparse rejects the rest
    for field in ("nonexistent", "construction", "ratio_set_sizes"):
        with pytest.raises(SystemExit) as exit_:
            main(["fit", "--rows", str(rows), "--field", field])
        assert exit_.value.code == 2


def test_fit_reads_stdin(capsys, monkeypatch, tmp_path):
    rows = tmp_path / "rows.csv"
    main(["sweep", "--construction", "symmetric", "--n", "4,16,64",
          "--format", "csv", "--out", str(rows)])
    capsys.readouterr()
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(rows.read_text()))
    assert main(["fit", "--rows", "-"]) == 0
    assert "slope" in capsys.readouterr().out


def test_fit_rejects_rows_with_wrong_cell_count(capsys, monkeypatch):
    import io
    header = ("n,d,construction,edge_count,ratio_set_sizes,rich_count,"
              "pencil_sizes,wall_time_ms")
    for row in ("4,0,symmetric,5,5,0,", "4,0,symmetric,5,5,0,,0,9"):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{header}\n{row}\n"))
        assert main(["fit", "--rows", "-"]) == 2
        err = capsys.readouterr().err
        assert "expected 8" in err and "Traceback" not in err


# Leaves mix the schemas' own keys and rational strings with arbitrary
# values, so that drawn inputs get past the first shape checks.
_KEYS = ["pencils", "centre", "lines", "label", "A", "B", "edges", "n", "d"]
_STRINGS = ["0", "1", "-1", "1/2", "-3/4", "2/2", "1/0", "0/0", "1e3", " 2", "1.5", "x",
            str(2**64), f"1/{2**64}", str(2**32)]
_leaves = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
           | st.sampled_from(_STRINGS) | st.text(max_size=4))
_json = st.recursive(_leaves, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
    st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=4), max_leaves=12)


@st.composite
def _mutated(draw, golden):
    """``golden`` with one or two nodes deleted, repeated in their list or
    replaced by drawn JSON, or, for a CSV string, with cells replaced and
    rows dropped or repeated."""
    if isinstance(golden, str):
        rows = [line.split(",") for line in golden.splitlines()]
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(rows) - 1))
            kind = draw(st.integers(0, 2))
            if kind == 0:
                cell = draw(st.integers(0, len(rows[i]) - 1))
                rows[i][cell] = draw(st.sampled_from(_STRINGS + ["", "1;x", "-5", "1;;2"])
                                     | st.text(max_size=3))
            elif kind == 1:
                del rows[i]
            else:
                rows.insert(i, list(rows[i]))
            if not rows:
                return ""
        return "".join(",".join(cells) + "\n" for cells in rows)
    obj = copy.deepcopy(golden)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            obj = draw(_json)
            continue
        parent, key = functools.reduce(operator.getitem, path[:-1], obj), path[-1]
        kind = draw(st.integers(0, 2))
        if kind == 0:
            del parent[key]
        elif kind == 1 and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = draw(_leaves | _json)
    return obj


def _paths(node, path=()):
    """The key path of every node of a JSON value, children before their
    parent, so the root's comes last."""
    keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield from _paths(node[key], (*path, key))
    yield path


@functools.cache
def _goldens():
    """Small valid CLI inputs, made once by the CLI itself."""
    def stdout_of(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(list(argv)) == 0
        return out.getvalue()
    return {
        "config": json.loads(stdout_of("construct", "--construction", "symmetric", "--n", "16",
                                       "--centres", '[["0","0"],["-1","0"],["0","1","0"]]')),
        "graph": json.loads(stdout_of("construct", "--construction", "symmetric", "--n", "16")),
        "centres": [["0", "-1"], ["1", "-1"]],
        "rows": stdout_of("sweep", "--construction", "symmetric", "--n", "4,16,64,256",
                          "--format", "csv"),
    }


_INPUT = object()  # stands for the path of the file that holds the drawn input


@st.composite
def _edited(draw, text):
    """text with one digit, space, quote, minus or newline deleted or inserted."""
    char = draw(st.sampled_from([*"0123456789", " ", '"', "-", "\n"]))
    places = [i for i, c in enumerate(text) if c == char]
    if places and draw(st.booleans()):
        i = draw(st.sampled_from(places))
        return text[:i] + text[i + 1:]
    i = draw(st.integers(0, len(text)))
    return text[:i] + char + text[i:]


@st.composite
def _cli_runs(draw):
    """(reader, argv, text) for one reader, its input text drawn from a
    recursive JSON (or CSV-like) strategy, mutated from a golden input or the
    golden input itself; centres are also drawn as lists of coordinate pairs
    and triples.  A config or graph is written compact, in the writer's
    layout (serialize.dumps), or in that layout with one byte edited."""
    reader = draw(st.sampled_from(["config", "graph", "centres", "rows"]))
    golden = _goldens()[reader]
    if reader == "rows":
        cells = st.sampled_from(_STRINGS + ["", "1;2", "symmetric"]) | st.text(max_size=3)
        free = st.lists(st.lists(cells, min_size=1, max_size=9), max_size=4).map(
            lambda rows: "".join(",".join(r) + "\n" for r in rows))
        header = st.just(golden.splitlines()[0] + "\n")
        return reader, ["fit", "--rows", _INPUT], draw(
            st.one_of(st.just(golden), _mutated(golden), free,
                      st.builds(str.__add__, header, free)))
    if reader == "centres":
        coords = st.sampled_from(_STRINGS)
        pairs = st.lists(st.tuples(coords, coords) | st.tuples(coords, coords, coords),
                         min_size=1, max_size=3)
        centres = json.dumps(draw(st.one_of(st.just(golden), pairs, _mutated(golden), _json)))
        return reader, ["verify-lemma", "--n", "16", "--centres", centres], None
    obj = draw(st.one_of(st.just(golden), _mutated(golden), _json))
    layout = draw(st.sampled_from(["compact", "writer", "edited"]))
    text = json.dumps(obj) if layout == "compact" else serialize.dumps(obj)
    if layout == "edited":
        text = draw(_edited(text))
    if reader == "config":
        return reader, ["rich-points", "--config", _INPUT], text
    return reader, ["verify-lemma", "--graph", _INPUT, "--centres",
                    json.dumps(_goldens()["centres"])], text


def test_cli_readers_fuzz(bulk_reads):
    """Every drawn input to the four readers exits 0, 2 or 3, never with a
    traceback; counters show each reader drawn and both exit kinds seen,
    and the config and graph readers both reading in bulk and falling back."""
    seen = Counter()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"

        # a fuzz needs more examples than the profile's 40 to reach exit 0
        # on every reader
        @settings(max_examples=200)
        @given(_cli_runs())
        def check(run):
            reader, argv, text = run
            if text is not None:
                path.write_text(text)
            err, reads = io.StringIO(), bulk_reads.copy()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main([str(path) if a is _INPUT else a for a in argv])
                except SystemExit as exc:  # argparse rejects an option value
                    code = exc.code
            assert code in (0, 2, 3), err.getvalue()
            assert "Traceback" not in err.getvalue()
            seen[reader, code] += 1
            seen.update({(reader, way): n for way, n in (bulk_reads - reads).items()})

        check()
    assert all(seen[reader, code] for reader in ("config", "graph", "centres", "rows")
               for code in (0, 2)), seen
    assert all(seen[reader, way] for reader in ("config", "graph")
               for way in ("bulk", "fallback")), seen


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def test_golden_outputs(capsys, monkeypatch, tmp_path, bulk_reads):
    _check_golden_outputs(capsys, monkeypatch, tmp_path, bulk_reads)


def test_golden_outputs_object_dtype(capsys, monkeypatch, tmp_path, object_dtype, bulk_reads):
    _check_golden_outputs(capsys, monkeypatch, tmp_path, bulk_reads)


def _check_golden_outputs(capsys, monkeypatch, tmp_path, bulk_reads):
    """SHA-256 pins of fixed CLI outputs: exact fields stay byte-identical,
    in int64 and in Python-int object arrays alike, with the config that
    construct wrote read back in bulk."""
    monkeypatch.chdir(tmp_path)

    def stdout_of(argv):
        capsys.readouterr()
        assert main(argv) == 0
        return capsys.readouterr().out

    stdout_of(["construct", "--construction", "farey-shift", "--n", "256",
               "--d", "43/1000", "--centres",
               '[["0","0"],["-1","0"],["-2","0"],["0","1","0"]]',
               "--out", "cfg.json"])
    assert _sha((tmp_path / "cfg.json").read_bytes()) == (
        "f3282b37b8f3071d953a4cb5ef2867a262eca4367212e64a838c7ff24689041f")
    summary = stdout_of(["rich-points", "--config", "cfg.json", "--out", "rep.json"])
    assert bulk_reads["bulk"] == 1  # the --centres text above has no leaf: a fallback
    assert _sha((tmp_path / "rep.json").read_bytes()) == (
        "2f30b43e8f83f4af6603a5e7b1913eba42c2c9df732a66c6efcc2b167ed67861")
    assert summary == "pencils[farey-shift(n=256,d=43/1000)],4,209;278;380;72,2125,0,0\n"

    assert _sha(stdout_of(["construct", "--construction", "symmetric",
                           "--n", "64"])) == (
        "17e89ef461c14e4bfe3852b7496ee783f7d1a0519d7764614f5099e76d127b53")
    assert _sha(stdout_of(["construct", "--construction", "farey-shift",
                           "--n", "1024", "--d", "43/1000"])) == (
        "1195de4960e0c91b8c529fc46d152f752922728fd17aa25e9c09bb159f7a850c")
    assert _sha(stdout_of(["construct", "--construction", "farey-shift",
                           "--n", "1024", "--d", "0"])) == (
        "73628a3e7fe9b3ac73f8d552b2bde8237d73cdd5f10ebefc31abc19c3407b80d")
    assert _sha(stdout_of(["verify-lemma", "--construction", "symmetric",
                           "--n", "64", "--centres", '[["0","-1"],["1","-1"]]'])) == (
        "e85c5cdc2330d4859dd14f640152372f28d9d110298858a7e0edc185e2384b19")

    def sweep_sha(*argv):
        lines = [line.split(",") for line in
                 stdout_of(["sweep", *argv, "--format", "csv"]).splitlines()]
        # wall_time_ms is the one column that varies by run
        wall = lines[0].index("wall_time_ms")
        return _sha("".join(",".join(cells[:wall] + cells[wall + 1:]) + "\n"
                            for cells in lines))

    assert sweep_sha("--construction", "symmetric", "--n", "16,64,256") == (
        "7b60290f74ac76f01c95cfd0939a68cfa1175c1bcc703ba2d9e32eee3a5e53d1")
    # farey-shift without --centres uses the four standard centres
    assert sweep_sha("--construction", "farey-shift", "--n", "256,1024",
                     "--d", "43/1000") == (
        "13164012475d9438d06552ec5c946e83965c5e83a5cb0a8d16f52b279ab12f96")
    assert sweep_sha("--construction", "grid-footnote", "--n", "2,3,5,10") == (
        "0a0ef822131c36b5ab504550ecf78cd9bf1ae336ea1b6fe5f7606b0885ab6aae")
    assert sweep_sha("--construction", "m-pencil", "--m", "4", "--n", "16,64") == (
        "e6750efb3d8476a5b52fd0e77115f9a3655fb39190c0ad63150ea68d53eaf403")
    assert sweep_sha("--construction", "symmetric", "--n", "16,64", "--centres",
                     '[["0","0"],["-1","0"],["-2","0"],["0","1","0"]]') == (
        "5fe97477d61197768e663ae2a1853cf383b16ff73248a1595539ef0da3268bb8")
    assert _sha(stdout_of(["construct", "--construction", "m-pencil", "--m", "4",
                           "--n", "64"])) == (
        "85fe5321850fceddfdeff803cee0d64e604fd5327ba3ec18c3dbfbf88cf26b5c")


def test_import_defers_mpmath_and_multiprocessing():
    """mpmath loads only on the path that uses it (d > 0); nothing in the
    package imports multiprocessing."""
    code = ("import sys, pencils; "
            "print(sorted({'mpmath', 'multiprocessing'} & set(sys.modules)))")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


def test_public_names_resolve():
    """Every name in each module's __all__ exists, so `from pencils.<module>
    import *` works; importing each module also resolves every name the
    package root imports."""
    import importlib

    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        name = "pencils" if path.stem == "__init__" else f"pencils.{path.stem}"
        module = importlib.import_module(name)
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"{name}.__all__ names missing {public}"
