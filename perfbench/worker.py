"""One run of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N [--size full|tiny]
                                [--trace 0|1] [--probe] [--corrupt]

Prints one JSON line to stdout.  `setup_end` is CLOCK_MONOTONIC (shared by
every process on the machine) when the inputs were ready, so the parent
can time set-up from before it started this process.  With --probe the
process only sets up and then times the reference computation.  Without
it the line holds the wall time of the calls into `pencils`, the
operations with their exact outputs, the check result and, with
--trace 1, the per-layer metrics.  --corrupt alters one expected value,
to show that the checks catch a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy

from tracer import Tracer, peak_rss_mb
from workloads import WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"


def reference_seconds() -> float:
    """Time of a fixed computation that uses nothing from `pencils`:
    Fraction arithmetic and hashing over a working set of tens of MB, the
    mix the workloads spend their time in.  Other tenants of a shared
    machine slow it much as they slow the workloads, so it gauges the
    machine's speed at the moment of a pass."""
    rng = random.Random(1)
    start = time.perf_counter()
    fractions = {Fraction(i, j) for j in range(1, 120) for i in range(1, 800)}
    table = {(i * 31 % 997, i % 1013, i): i for i in range(200_000)}
    keys = list(table)
    rng.shuffle(keys)
    total = sum(table[key] for key in keys[:100_000])
    assert fractions and total
    return time.perf_counter() - start


def _corrupt(expected: dict) -> None:
    """Add one to the first integer of the first expected value."""
    first = expected[next(iter(expected))]
    for key, want in first.items():
        if isinstance(want, list):
            first[key] = [want[0] + 1] + want[1:]
            return
        if isinstance(want, int):
            first[key] = want + 1
            return


def check(ops: list, expected: dict) -> list[str]:
    """Names of the operations whose output differs from the expected one
    or that raised; an expected operation that never ran counts too."""
    bad = []
    for op in ops:
        want = expected.get(op["name"])
        got = op["value"]
        if want is None or "error" in got or any(
                got[key] != want.get(key) for key in got) or any(
                key not in got for key in want):
            bad.append(op["name"])
    ran = {op["name"] for op in ops}
    return bad + [name for name in expected if name not in ran]


def _total(spans, name, key=None) -> float:
    """Summed seconds, or summed count `key`, of the spans named `name`
    (or, when `name` is a layer, of every span of that layer)."""
    total = 0.0
    for sp in spans:
        if sp.name == name or sp.layer == name:
            total += sp.seconds if key is None else sp.counts.get(key, 0)
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_layers(tracer: Tracer, dominant, wall_s: float) -> dict:
    """Per-layer metrics of a traced run, from the spans inside the timed
    part, plus the build and count probes of lemma-chain."""
    spans = tracer.spans
    inside = tracer.under("bench.workload")
    self_s, self_rss = tracer.self_times()
    layer_self, layer_rss = {}, {}
    for i in inside:
        layer = spans[i].layer
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s[i]
        layer_rss[layer] = layer_rss.get(layer, 0.0) + self_rss[i]
    work = [spans[i] for i in inside]
    m = {f"{layer}.self_s": s for layer, s in layer_self.items()}
    m.update({f"{layer}.rss_growth_mb": r for layer, r in layer_rss.items()})
    m.update({
        "constructions.build_s": _total(work, "constructions.build"),
        "constructions.pencils_s": _total(work, "constructions.pencils"),
        "constructions.edges": _total(work, "constructions", "edges"),
        "constructions.pencil_lines": _total(work, "constructions", "lines"),
        "constructions.joins": _total(work, "constructions", "joins"),
        "graphs.ratio_set_s": _total(work, "graphs.ratio_set"),
        "graphs.table_sieve_s": _total(work, "graphs.table_sieve"),
        "graphs.table_cells": _total(work, "graphs", "cells"),
        "graphs.ratio_edges": _total(work, "graphs.ratio_set", "edges"),
        "graphs.ratio_distinct": _total(work, "graphs.ratio_set", "distinct"),
        "richpoints.rich_points_s": _total(work, "richpoints.rich_points"),
        "richpoints.seed_pairs": _total(work, "richpoints", "seed_pairs"),
        "richpoints.rich_count": _total(work, "richpoints", "rich"),
        "incidence.verify_s": _total(work, "incidence.verify"),
        "incidence.build_s": _total(spans, "incidence.build"),
        "incidence.count_s": _total(spans, "incidence.count"),
        "incidence.instances": sum(1 for sp in work if sp.name == "incidence.verify"),
        "incidence.pl_pairs": _total(work, "incidence", "pl_pairs"),
        "incidence.incidences": _total(work, "incidence", "incidences"),
        "sweeps.sweep_s": _total(work, "sweeps.sweep"),
        "sweeps.fit_s": _total(work, "sweeps.fit"),
        "serialize.config_write_s": _total(work, "serialize.config_write"),
        "serialize.config_read_s": _total(work, "serialize.config_read"),
        "serialize.report_write_s": _total(work, "serialize.report_write"),
        "serialize.config_bytes": _total(work, "serialize.config_write", "bytes"),
        "serialize.report_bytes": _total(work, "serialize.report_write", "bytes"),
        "trace.wall_s": wall_s,
        "trace.spans": len(spans),
        "trace.dominant_self_share": _ratio(
            sum(layer_self.get(layer, 0.0) for layer in dominant), wall_s),
    })
    m["graphs.ratio_yield"] = _ratio(m["graphs.ratio_distinct"], m["graphs.ratio_edges"])
    m["richpoints.yield"] = _ratio(m["richpoints.rich_count"], m["richpoints.seed_pairs"])
    m["incidence.hit_rate"] = _ratio(m["incidence.incidences"], m["incidence.pl_pairs"])
    if m["incidence.instances"]:
        m["incidence.rest_s"] = (m["incidence.verify_s"] - m["incidence.build_s"]
                                 - m["incidence.count_s"])
    return m


# Untraced operations whose own timer gives a per-layer metric.
OP_LAYER_METRICS = {"construct": "cli.construct_s", "rich-points": "cli.rich_points_s"}


def untraced_layers(ops: list) -> dict:
    m = {}
    for op in ops:
        if op["name"].startswith("row.n"):
            m["sweeps.row_s." + op["name"][4:]] = op["seconds"]
        elif op["name"] in OP_LAYER_METRICS:
            m[OP_LAYER_METRICS[op["name"]]] = op["seconds"]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        inp = wl.setup(args.size, args.seed, scratch)
        setup_end = time.monotonic()
        if args.probe:
            print(json.dumps({"setup_end": setup_end, "ref_s": reference_seconds()}))
            return 0

        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") \
            if args.trace else None
        start = time.perf_counter()
        if tracer is None:
            ops = wl.run(inp, None)
        else:
            with tracer.span("bench.workload"):
                ops = wl.run(inp, tracer)
        wall_s = time.perf_counter() - start
        peak = peak_rss_mb()
        if tracer is not None and hasattr(wl, "probe"):
            with tracer.span("bench.probes"):
                wl.probe(inp, tracer)
        if hasattr(wl, "finish"):
            wl.finish(inp, ops)

        expected = wl.expected(inp, tracer is not None)
        if args.corrupt:
            _corrupt(expected)
        failed = check(ops, expected)
        if tracer is not None:
            layers = traced_layers(tracer, wl.dominant, wall_s)
            tracer.write(OUT_DIR / f"spans-{tracer.run_id}.json")
        else:
            layers = untraced_layers(ops)
        print(json.dumps({
            "setup_end": setup_end,
            "wall_s": wall_s,
            "slowest_op_s": max(op["seconds"] for op in ops),
            "slowest_op": max(ops, key=lambda op: op["seconds"])["name"],
            "peak_rss_mb": peak,
            "attempted": len({op["name"] for op in ops} | set(expected)),
            "failed": failed,
            "ops": ops,
            "layers": layers,
            "versions": {"python": sys.version.split()[0],
                         "numpy": numpy.__version__, "mpmath": mpmath.__version__},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
