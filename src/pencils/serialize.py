"""Fixed JSON/CSV schemas for constructions, configs, and reports.

Rationals travel as decimal or "p/q" strings, so nothing is rounded;
only the approximate exponent fit carries floats.  Sweep-row and fit
columns are the SweepRow and ExponentFit fields, written by value type
and read by the types SweepRow declares.  Layouts are deterministic, so
identical inputs give byte-identical reports, wall_time_ms aside.
"""

from __future__ import annotations

import io
import json
from collections import namedtuple
from dataclasses import fields
from fractions import Fraction
from itertools import chain
from typing import get_type_hints

import numpy as np

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
    "dumps", "iterdumps", "loads",
]

_ROW_TYPES = get_type_hints(SweepRow)
SWEEP_CSV_HEADER = ",".join(_ROW_TYPES)


# an integer array leaf of dumps, its cells '"%d"' (coordinates) or '%d' (indices)
_Rows = namedtuple("_Rows", "array cell")
_CHUNK = 4096  # rows per %-format or per slice read, which bounds the text held at once
_LEAVES = {"lines": ("\n      ", '"%d"', 3), "edges": ("\n  ", "%d", 2)}  # loads' nl, cell, width


def _row(nl: str, cell: str, width: int) -> str:  # a leaf's row as dumps writes it at nl
    return f"{nl}[{nl}  " + f",{nl}  ".join([cell] * width) + f"{nl}]"


def _pieces(obj, nl: str):
    """json.dumps(obj, indent=2) in pieces; nl is "\\n" plus the indent obj starts at."""
    inner = nl + "  "
    if isinstance(obj, _Rows):  # a tuple, so tested before the tuple branch
        rows, cell = obj
        row = _row(inner, cell, rows.shape[1])
        for start in range(0, len(rows), _CHUNK):
            chunk = rows[start:start + _CHUNK]
            yield ("," if start else "[") + ",".join([row] * len(chunk)) % tuple(
                chunk.ravel().tolist())
        yield nl + "]" if len(rows) else "[]"
    elif isinstance(obj, (dict, list, tuple)) and obj:
        keyed = isinstance(obj, dict)
        for i, (key, value) in enumerate(obj.items() if keyed else enumerate(obj)):
            head = json.dumps({key: 0})[1:-2] if keyed else ""  # the key as json.dumps writes it
            yield ("," if i else "{" if keyed else "[") + inner + head
            yield from _pieces(value, inner)
        yield nl + ("}" if keyed else "]")
    else:
        yield json.dumps(obj)


def iterdumps(obj):
    """The text of dumps(obj) in pieces, for a caller to write as they come."""
    return chain(_pieces(obj, "\n"), ["\n"])


def dumps(obj) -> str:
    return "".join(iterdumps(obj))


def _cells(text: bytes, row: str):
    """text's int64 rows if it is _row rows joined by ",", each cell -?[0-9]{1,18}
    and, bare, a JSON int: cells that json.loads then int() read alike; else None."""
    parts = row.split("%d")
    template, stripped = "".join(parts).encode(), text.translate(None, b"-0123456789")
    k, extra = divmod(len(stripped) + 1, len(template) + 1)
    if extra or stripped != ((b"," + template) * k)[1:] or text[:1] + text[-1:] != b"\n]":
        return None
    a = np.frombuffer(text, np.uint8)
    digit = a - 45 < 13  # the bytes in 45..57: '-' and digits, neither at either end
    starts, ends = (np.flatnonzero(digit[1:] != digit[:-1]) + 1).reshape(-1, 2).T  # their runs
    neg = a[starts] == 45
    lens, digits = ends - starts, ends - starts - neg
    cells = np.cumsum([len(p) for p in parts[:-1]]) + np.arange(k)[:, None] * (len(template) + 1)
    # one run to each cell of the template and none elsewhere; no leading 0 in a JSON int
    if not (np.array_equal(starts - np.cumsum(lens) + lens, cells.ravel()) and digits.min() > 0
            and digits.max() <= 18 and np.count_nonzero(a == 45) == neg.sum()) or (
            '"' not in row and ((a[starts + neg] == 48) & (digits > 1)).any()):
        return None
    values = sum(np.where(digits > p, a.take(ends - 1 - p) - 48, 0) * np.int64(10) ** p
                 for p in range(digits.max()))
    return np.where(neg, -values, values).reshape(k, -1)


def _bulk(data: bytes):
    """json.loads(data), each nonempty _LEAVES leaf read by _cells in slices cut at row
    ends and put in as "\\u0000i" for leaf i, if all read so and land in place; else None."""
    pieces, leaves, pos, at = [], [], 0, data.find(b":")
    while at >= 0:  # a leaf's key ends at a colon, and a leaf holds none
        for key, (nl, cell, width) in _LEAVES.items():
            if data.startswith(f'{nl}"{key}": [\n'.encode(), at - len(nl) - len(key) - 2):
                row, cuts = _row(nl + "  ", cell, width), [at + 2]
                end = data.rfind(f"{nl}]".encode(), at, data.find(b"}", at))
                while end > cuts[-1]:
                    stop = data.find(f"{nl}  ],".encode(), cuts[-1] + _CHUNK * len(row), end)
                    cuts.append(end if stop < 0 else stop + len(nl) + 3)  # the comma after a row
                rows = [_cells(data[i + 1:j], row) for i, j in zip(cuts, cuts[1:])]
                if not rows or any(r is None for r in rows):
                    return None
                pieces += [data[pos:at + 2], b'"\\u0000%d"' % len(leaves)]
                pos = end + len(nl) + 1
                leaves.append(np.concatenate(rows))
        at = data.find(b":", max(at + 1, pos))
    rest = b"".join(pieces) + data[pos:]
    if not leaves or rest.count(b"\\u0000") != len(leaves):
        return None
    try:
        tree = json.loads(rest.decode("ascii"))
    except ValueError:
        return None
    top = tree if type(tree) is dict else {}
    entries = top["pencils"] if type(top.get("pencils")) is list else []
    spots = [(obj, key) for obj, key in [(top, "edges")] + [(e, "lines") for e in entries
             if type(e) is dict] if type(obj.get(key)) is str and obj[key][:1] == "\0"]
    for obj, key in spots:
        obj[key] = leaves[int(obj[key][1:])]
    return tree if len(spots) == len(leaves) else None


def loads(data):
    """json.loads of a str or of a text file's bytes, decoded as open() would, with
    the leaves _bulk reads as int64 arrays; input nested too deep is a ValueError."""
    try:
        if isinstance(data, str):
            return _bulk(data.encode("utf-8", "surrogatepass")) or json.loads(data)
        return _bulk(data) or json.loads(io.TextIOWrapper(io.BytesIO(data)).read())
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


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
    if type(triple) is not list or len(triple) != 3:
        raise ValueError(f"{triple!r} is not a list of three coordinates")
    return tuple(map(exact_from_json, triple))


def point_from_json(triple) -> ProjPoint:
    return ProjPoint(*_triple_from_json(triple))


def pencil_config_to_json(config: PencilConfig) -> dict:
    return {
        "label": config.label,
        "pencils": [
            {
                "centre": point_to_json(pc.centre),
                "lines": _Rows(pc.rows, '"%d"'),
            }
            for pc in config.pencils
        ],
    }


def _required(obj, key) -> list:
    try:
        value = obj[key]
    except (KeyError, TypeError):
        raise ValueError(f"JSON object has no {key!r}") from None
    if not isinstance(value, (list, np.ndarray)):  # an array: a leaf that loads read
        raise ValueError(f"{key!r} must be a list, not {type(value).__name__}")
    return value


def _label(obj) -> str:
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"label {label!r} is not a string")
    return label


def _rows_from_json(rows: list) -> np.ndarray:
    """JSON triples as a (k, 3) int64 (past it, object) array; a bad row raises ValueError."""
    if isinstance(rows, np.ndarray):
        return rows
    shaped = {list}.issuperset(map(type, rows)) and {3}.issuperset(map(len, rows))
    if not (shaped and {int, str}.issuperset(map(type, chain.from_iterable(rows)))):
        for row in rows:  # only a malformed list gets here: name its first bad row
            _triple_from_json(row)
    values = list(map(int, chain.from_iterable(rows)))  # int() names a string it cannot parse
    try:
        return np.array(values, np.int64).reshape(-1, 3)
    except OverflowError:
        return np.array(values, object).reshape(-1, 3)


def pencil_config_from_json(obj) -> PencilConfig:
    pencils = [
        Pencil(point_from_json(_required(entry, "centre")),
               _rows_from_json(_required(entry, "lines")))
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
        "edges": _Rows(c.graph.edge_array, "%d"),
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
        "points": _Rows(report.rows, '"%d"'),
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
