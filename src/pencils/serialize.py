"""Fixed JSON/CSV schemas for constructions, configs, and reports.

All rationals travel as decimal or "p/q" strings and homogeneous triples
as string triples, so nothing is ever rounded; floats appear only in the
exponent-fit payload, which is approximate by definition.  Layouts are
deterministic (sorted points and lines) so identical inputs produce
byte-identical reports, wall_time_ms aside.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction

from .constructions import GraphConstruction, Pencil, PencilConfig
from .graphs import BipartiteGraph, GroundSet
from .incidence import LemmaChainReport
from .projective import ProjLine, ProjPoint
from .richpoints import RichPointReport
from .sweeps import ExponentFit, SweepRow

__all__ = [
    "SWEEP_CSV_HEADER",
    "exact_from_json",
    "point_to_json", "point_from_json",
    "line_to_json", "line_from_json",
    "pencil_config_to_json", "pencil_config_from_json",
    "graph_construction_to_json", "graph_construction_from_json",
    "rich_report_to_json", "rich_report_summary_csv",
    "lemma_report_to_json",
    "sweep_rows_to_json", "sweep_rows_to_csv", "sweep_rows_from_csv",
    "fit_to_json",
    "dumps",
]

SWEEP_CSV_HEADER = ("n,d,construction,edge_count,ratio_set_sizes,"
                    "rich_count,pencil_sizes,wall_time_ms")


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


def point_from_json(triple) -> ProjPoint:
    x, y, z = map(exact_from_json, triple)
    return ProjPoint(x, y, z)


def line_to_json(l: ProjLine) -> list[str]:
    return [str(c) for c in l.coeffs]


def line_from_json(triple) -> ProjLine:
    a, b, c = map(exact_from_json, triple)
    return ProjLine(a, b, c)


def pencil_config_to_json(config: PencilConfig) -> dict:
    return {
        "label": config.label,
        "pencils": [
            {
                "centre": point_to_json(pc.centre),
                "lines": [line_to_json(l) for l in pc.sorted_lines()],
            }
            for pc in config.pencils
        ],
    }


def _required(obj, key):
    try:
        return obj[key]
    except (KeyError, TypeError):
        raise ValueError(f"pencil config entry has no {key!r}") from None


def pencil_config_from_json(obj) -> PencilConfig:
    pencils = [
        Pencil(point_from_json(_required(entry, "centre")),
               (line_from_json(l) for l in _required(entry, "lines")))
        for entry in _required(obj, "pencils")
    ]
    return PencilConfig(pencils, label=obj.get("label", ""))


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
    left = GroundSet(exact_from_json(a, Fraction) for a in obj["A"])
    right = GroundSet(exact_from_json(b, Fraction) for b in obj["B"])
    edges = obj["edges"]
    # the uint32 cast in BipartiteGraph would truncate a fractional index,
    # read true as 1, and wrap or overflow on one outside [0, 2^32)
    if not all(type(i) is int and type(j) is int
               and 0 <= i < len(left) and 0 <= j < len(right) for i, j in edges):
        raise ValueError("edge index out of range or not an integer")
    graph = BipartiteGraph(left, right, edges)
    return GraphConstruction(graph, exact_from_json(obj["n"]),
                             exact_from_json(obj["d"], Fraction),
                             obj.get("label", ""))


def rich_report_to_json(report: RichPointReport) -> dict:
    return {
        "label": report.config_label,
        "m": len(report.pencil_sizes),
        "pencil_sizes": list(report.pencil_sizes),
        "count": report.count,
        "infinite_count": report.infinite_count,
        "excluded_centres": [point_to_json(p) for p in report.excluded_centres],
        "points": [point_to_json(p) for p in report.sorted_points()],
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


def _row_to_fields(row: SweepRow) -> list[str]:
    return [
        str(row.n),
        str(row.d),
        row.construction,
        str(row.edge_count),
        ";".join(str(s) for s in row.ratio_set_sizes),
        str(row.rich_count),
        ";".join(str(s) for s in row.pencil_sizes),
        str(row.wall_time_ms),
    ]


def sweep_rows_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write(SWEEP_CSV_HEADER + "\n")
    for row in rows:
        buf.write(",".join(_row_to_fields(row)) + "\n")
    return buf.getvalue()


def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(";")) if text else ()


def sweep_rows_from_csv(text: str) -> list[SweepRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise ValueError("missing or unexpected sweep CSV header")
    rows = []
    for ln in lines[1:]:
        n, d, tag, edges, ratios, rich, sizes, wall = ln.split(",")
        rows.append(SweepRow(
            n=int(n),
            d=Fraction(d),
            construction=tag,
            edge_count=int(edges),
            ratio_set_sizes=_int_list(ratios),
            rich_count=int(rich),
            pencil_sizes=_int_list(sizes),
            wall_time_ms=int(wall),
        ))
    return rows


def sweep_rows_to_json(rows) -> list[dict]:
    return [
        {
            "n": row.n,
            "d": str(row.d),
            "construction": row.construction,
            "edge_count": row.edge_count,
            "ratio_set_sizes": list(row.ratio_set_sizes),
            "rich_count": row.rich_count,
            "pencil_sizes": list(row.pencil_sizes),
            "wall_time_ms": row.wall_time_ms,
        }
        for row in rows
    ]


def fit_to_json(fit: ExponentFit, field: str) -> dict:
    return {
        "field": field,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_range": list(fit.n_range),
    }

