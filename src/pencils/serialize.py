"""Fixed JSON/CSV schemas for constructions, configs, and reports.

Rationals travel as decimal or "p/q" strings, so nothing is rounded;
only the approximate exponent fit carries floats.  Sweep-row and fit
columns are the SweepRow and ExponentFit fields, written by value type
and read by the types SweepRow declares.  Layouts are deterministic, so
identical inputs give byte-identical reports, wall_time_ms aside.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from typing import get_type_hints

from .constructions import GraphConstruction, Pencil, PencilConfig
from .graphs import BipartiteGraph, GroundSet
from .incidence import LemmaChainReport
from .projective import ProjPoint
from .richpoints import RichPointReport
from .sweeps import ExponentFit, SweepRow

__all__ = [
    "SWEEP_CSV_HEADER",
    "exact_from_json",
    "point_to_json", "point_from_json",
    "pencil_config_to_json", "pencil_config_from_json",
    "graph_construction_to_json", "graph_construction_from_json",
    "rich_report_to_json", "rich_report_summary_csv",
    "lemma_report_to_json",
    "sweep_rows_to_json", "sweep_rows_to_csv", "sweep_rows_from_csv",
    "fit_to_json",
    "dumps",
]

_ROW_TYPES = get_type_hints(SweepRow)
SWEEP_CSV_HEADER = ",".join(_ROW_TYPES)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def exact_from_json(value, kind=int):
    """An exact int (kind=int) or Fraction (kind=Fraction) read from a JSON
    int or string.  A float, bool, null or any other value raises
    ValueError rather than being rounded or coerced, as does a string
    that does not parse or a zero denominator."""
    # an exact type test: bool is a subclass of int
    if type(value) not in (int, str):
        raise ValueError(f"{value!r} is not an integer or a string")
    try:
        return kind(value)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None


def point_to_json(p: ProjPoint) -> list[str]:
    return [str(c) for c in p.coords]


def _triple_from_json(triple) -> tuple:
    if not isinstance(triple, list) or len(triple) != 3:
        raise ValueError(f"{triple!r} is not a list of three coordinates")
    return tuple(map(exact_from_json, triple))


def point_from_json(triple) -> ProjPoint:
    return ProjPoint(*_triple_from_json(triple))


def _rows_to_json(rows) -> list[list[str]]:
    return [[str(c) for c in row] for row in rows.tolist()]


def pencil_config_to_json(config: PencilConfig) -> dict:
    return {
        "label": config.label,
        "pencils": [
            {
                "centre": point_to_json(pc.centre),
                "lines": _rows_to_json(pc.rows),
            }
            for pc in config.pencils
        ],
    }


def _required(obj, key) -> list:
    try:
        value = obj[key]
    except (KeyError, TypeError):
        raise ValueError(f"JSON object has no {key!r}") from None
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list, not {type(value).__name__}")
    return value


def _label(obj) -> str:
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"label {label!r} is not a string")
    return label


def pencil_config_from_json(obj) -> PencilConfig:
    pencils = [
        Pencil(point_from_json(_required(entry, "centre")),
               [_triple_from_json(l) for l in _required(entry, "lines")])
        for entry in _required(obj, "pencils")
    ]
    return PencilConfig(pencils, label=_label(obj))


def graph_construction_to_json(c: GraphConstruction) -> dict:
    return {
        "label": c.label,
        "n": c.n,
        "d": str(c.d),
        "A": [str(a) for a in c.A],
        "B": [str(b) for b in c.B],
        "edges": c.graph.edge_array.tolist(),
    }


def graph_construction_from_json(obj) -> GraphConstruction:
    # element order must be preserved exactly: edges index into it
    left = GroundSet(exact_from_json(a, Fraction) for a in _required(obj, "A"))
    right = GroundSet(exact_from_json(b, Fraction) for b in _required(obj, "B"))
    graph = BipartiteGraph(left, right, _required(obj, "edges"))
    # a missing n or d reads as None, which exact_from_json rejects
    return GraphConstruction(graph, exact_from_json(obj.get("n")),
                             exact_from_json(obj.get("d"), Fraction), _label(obj))


def rich_report_to_json(report: RichPointReport) -> dict:
    return {
        "label": report.config_label,
        "m": len(report.pencil_sizes),
        "pencil_sizes": list(report.pencil_sizes),
        "count": report.count,
        "infinite_count": report.infinite_count,
        "excluded_centres": [point_to_json(p) for p in report.excluded_centres],
        "points": _rows_to_json(report.rows),
    }


def rich_report_summary_csv(report: RichPointReport) -> str:
    """One line: label, m, sizes, count, infinite_count, excluded_centres."""
    sizes = ";".join(str(s) for s in report.pencil_sizes)
    return (f"{report.config_label},{len(report.pencil_sizes)},{sizes},"
            f"{report.count},{report.infinite_count},"
            f"{len(report.excluded_centres)}")


def lemma_report_to_json(report: LemmaChainReport) -> dict:
    return {
        "swapped": report.swapped,
        "edge_count": report.edge_count,
        "left_size": report.left_size,
        "right_size": report.right_size,
        "ratio_set_sizes": list(report.ratio_sizes),
        "point_count": report.point_count,
        "line_count": report.line_count,
        "neighbourhood_square_sum": report.neighbourhood_square_sum,
        "incidence_count": report.incidence_count,
        "verdicts": {
            "witness": report.witness_ok,
            "incidence_lower_bound": report.incidence_lower_ok,
            "cauchy_schwarz": report.cauchy_schwarz_ok,
            "szemeredi_trotter_sane": report.szemeredi_trotter_sane,
        },
        "all_ok": report.all_ok,
        "constant_ratio": report.constant_ratio,
    }


def _json_value(value):
    if isinstance(value, tuple):
        return list(value)
    return str(value) if isinstance(value, Fraction) else value


def _fields_to_json(obj) -> dict:
    return {f.name: _json_value(getattr(obj, f.name)) for f in fields(obj)}


def _csv_cell(value) -> str:
    return ";".join(map(str, value)) if isinstance(value, list) else str(value)


def sweep_rows_to_csv(rows) -> str:
    lines = [",".join(map(_csv_cell, _fields_to_json(row).values())) for row in rows]
    return "\n".join([SWEEP_CSV_HEADER, *lines]) + "\n"


def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(";")) if text else ()


# one cell parser per SweepRow column, picked by its declared type
_CELL_PARSERS = {int: int, Fraction: Fraction, str: str, tuple: _int_list}
_ROW_PARSERS = [_CELL_PARSERS[kind] for kind in _ROW_TYPES.values()]


def sweep_rows_from_csv(text: str) -> list[SweepRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise ValueError("missing or unexpected sweep CSV header")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(_ROW_PARSERS):
            raise ValueError(f"sweep CSV row {ln!r} has {len(cells)} cells, "
                             f"expected {len(_ROW_PARSERS)}")
        rows.append(SweepRow(*(parse(c) for parse, c in zip(_ROW_PARSERS, cells))))
    return rows


def sweep_rows_to_json(rows) -> list[dict]:
    return [_fields_to_json(row) for row in rows]


def fit_to_json(fit: ExponentFit, field: str) -> dict:
    return {"field": field, **_fields_to_json(fit)}
