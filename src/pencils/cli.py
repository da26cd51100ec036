"""Command-line front end.

Subcommands: construct, rich-points, verify-lemma, sweep, fit.  Data goes
to stdout or --out; progress and timing go to stderr.  Exit codes: 0 on
success, 2 on a precondition violation or malformed input, 3 when a
verification verdict is false.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import get_type_hints

from . import serialize
from .constructions import CONSTRUCTION_TAGS, build
from .errors import PreconditionError
from .incidence import verify_lemma_chain
from .projective import ProjPoint
from .richpoints import rich_points
from .sweeps import SweepRow, fit_exponent, sweep

__all__ = ["main"]

# the integer SweepRow columns, the ones a log-log fit is defined on
_FIT_FIELDS = tuple(k for k, t in get_type_hints(SweepRow).items() if t is int)


def _read(path: str, read=Path.read_bytes):
    return sys.stdin.read() if path == "-" else read(Path(path))


def _write_output(pieces, out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w") as fh:
            fh.writelines(pieces)
        print(f"wrote {out}", file=sys.stderr)


def _load_centres(raw: str) -> list[ProjPoint]:
    """Inline JSON or @file: a list of ["x","y"] affine pairs or
    ["X","Y","Z"] homogeneous triples, rationals as "p/q" strings."""
    text = Path(raw[1:]).read_text() if raw.startswith("@") else raw
    entries = serialize.loads(text)
    if not isinstance(entries, list):
        raise ValueError(f"centres {entries!r} are not a list")
    centres = []
    for entry in entries:
        if not isinstance(entry, list):
            raise ValueError(f"centre entry {entry!r} is not a list")
        if len(entry) == 2:
            x, y = (serialize.exact_from_json(v, Fraction) for v in entry)
            centres.append(ProjPoint.from_affine(x, y))
        elif len(entry) == 3:
            centres.append(serialize.point_from_json(entry))
        else:
            raise ValueError(f"centre entry {entry!r} is neither a pair nor a triple")
    return centres


def _cmd_construct(args) -> int:
    centres = _load_centres(args.centres) if args.centres else None
    built, config = build(args.construction, int(args.n), Fraction(args.d),
                          args.m, centres)
    if built is not None:
        print(f"{built!r}", file=sys.stderr)
    payload = (serialize.graph_construction_to_json(built) if config is None
               else serialize.pencil_config_to_json(config))
    _write_output(serialize.iterdumps(payload), args.out)
    return 0


def _cmd_rich_points(args) -> int:
    config = serialize.pencil_config_from_json(serialize.loads(_read(args.config)))
    start = time.perf_counter()
    report = rich_points(config)
    elapsed = time.perf_counter() - start
    print(f"rich points: {report.count} in {elapsed:.2f}s", file=sys.stderr)
    _write_output(serialize.iterdumps(serialize.rich_report_to_json(report)), args.out)
    # the one-line summary stays off stdout when stdout carries the JSON
    print(serialize.rich_report_summary_csv(report),
          file=sys.stderr if args.out is None else sys.stdout)
    return 0


def _cmd_verify_lemma(args) -> int:
    if args.graph:
        construction = serialize.graph_construction_from_json(serialize.loads(_read(args.graph)))
    else:
        construction = build(args.construction, int(args.n), Fraction(args.d))[0]
    centres = _load_centres(args.centres)
    if len(centres) != 2:
        raise PreconditionError("verify-lemma needs exactly 2 centres")
    if any(c.is_infinite for c in centres):
        raise PreconditionError("verify-lemma centres must be affine")
    pairs = [c.to_affine() for c in centres]
    report = verify_lemma_chain(construction.graph, pairs[0], pairs[1])
    _write_output(serialize.iterdumps(serialize.lemma_report_to_json(report)), args.out)
    if not report.all_ok:
        print("verification FAILED", file=sys.stderr)
        return 3
    print("verification ok", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    n_values = [int(v) for v in args.n.split(",") if v]
    centres = _load_centres(args.centres) if args.centres else None
    start = time.perf_counter()
    rows = sweep(args.construction, n_values, d=Fraction(args.d),
                 centres=centres, m=args.m)
    print(f"swept {len(rows)} rows in {time.perf_counter() - start:.2f}s",
          file=sys.stderr)
    _write_output([serialize.sweep_rows_to_csv(rows)] if args.format == "csv"
                  else serialize.iterdumps(serialize.sweep_rows_to_json(rows)), args.out)
    return 0


def _cmd_fit(args) -> int:
    rows = serialize.sweep_rows_from_csv(_read(args.rows, Path.read_text))
    fit = fit_exponent(rows, args.field)
    _write_output(serialize.iterdumps(serialize.fit_to_json(fit, args.field)), args.out)
    return 0


@functools.cache  # built once: each handler reads its module's names when it runs
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencils",
        description=("Exact pencil configurations, graph-restricted operation "
                     "sets, rich-point counts, incidence verification, and "
                     "scaling sweeps."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="emit a construction as JSON")
    con.add_argument("--construction", required=True, choices=CONSTRUCTION_TAGS)
    con.add_argument("--n", required=True)
    con.add_argument("--d", default="0", help='rational exponent, e.g. "43/1000"')
    con.add_argument("--m", type=int, help="pencil count for m-pencil")
    con.add_argument("--centres",
                     help="inline JSON or @file; turns a graph construction "
                          "(farey-shift, symmetric) into a pencil config")
    con.add_argument("--out")
    con.set_defaults(func=_cmd_construct)

    rich = sub.add_parser("rich-points",
                          help="count rich points of a pencil config JSON")
    rich.add_argument("--config", required=True, help='path or "-" for stdin')
    rich.add_argument("--out")
    rich.set_defaults(func=_cmd_rich_points)

    ver = sub.add_parser("verify-lemma",
                         help="verify the incidence counting chain")
    ver.add_argument("--construction", choices=("farey-shift", "symmetric"),
                     default="symmetric")
    ver.add_argument("--n", default="4")
    ver.add_argument("--d", default="0")
    ver.add_argument("--graph", help="GraphConstruction JSON path instead of "
                                     "--construction/--n/--d")
    ver.add_argument("--centres", required=True,
                     help='two affine pairs, e.g. \'[["0","-1"],["1","-1"]]\'')
    ver.add_argument("--out")
    ver.set_defaults(func=_cmd_verify_lemma)

    sw = sub.add_parser("sweep", help="scaling sweep over n values")
    sw.add_argument("--construction", required=True, choices=CONSTRUCTION_TAGS)
    sw.add_argument("--n", required=True, help="comma list, e.g. 4,16,64")
    sw.add_argument("--d", default="0")
    sw.add_argument("--m", type=int)
    sw.add_argument("--centres")
    sw.add_argument("--format", choices=("json", "csv"), default="json")
    sw.add_argument("--out")
    sw.set_defaults(func=_cmd_sweep)

    fit = sub.add_parser("fit", help="log-log exponent fit over sweep rows")
    fit.add_argument("--rows", required=True,
                     help='sweep CSV path or "-" for stdin')
    fit.add_argument("--field", default="edge_count", choices=_FIT_FIELDS)
    fit.add_argument("--out")
    fit.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    # a "p/0" rational in an option raises ZeroDivisionError; a missing
    # input file raises an OSError
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
