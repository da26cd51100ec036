import json

import pencils.cli as cli
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


def test_construct_domain_guard_exit_code(capsys):
    assert main(["construct", "--construction", "farey-shift", "--n", "3"]) == 2


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


def test_verify_lemma_rejects_bad_centres(capsys):
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


def test_fit_reads_stdin(capsys, monkeypatch, tmp_path):
    rows = tmp_path / "rows.csv"
    main(["sweep", "--construction", "symmetric", "--n", "4,16,64",
          "--format", "csv", "--out", str(rows)])
    capsys.readouterr()
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(rows.read_text()))
    assert main(["fit", "--rows", "-"]) == 0
    assert "slope" in capsys.readouterr().out
