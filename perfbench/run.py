"""Benchmark of the `pencils` package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the root of a source checkout (the directory that holds `src/`
and `BENCHMARK.json`).  The workload runs again and again, each pass in a
fresh single-threaded process (perfbench/worker.py), for at least S
seconds and three passes; every pass's exact outputs are checked.  After
each pass a probe process sets up and then times a fixed reference
computation (`worker.reference_seconds`, no `pencils` code), which
gauges how fast the shared machine is at that moment.

The last line of stdout is one JSON object:
  {"correct", "attempted", "failed", "metrics"}
With --trace 0 the metrics are the `end_to_end` ones of BENCHMARK.json,
each a median over the passes: wall_ref and slowest_op_ref are a pass's
wall_s and slowest_op_s divided by the reference time of the probe after
it; setup_s is the median of at least seven set-up samples.  The raw
wall_s, slowest_op_s and ref_s go to stderr and the record.  With
--trace 1 each round is one untraced and one traced pass, and the metrics
are the `per_layer` ones, medians too; a layer the workload does not use
reads 0.  A human summary, with sample counts and run metadata, goes to
stderr.  --record appends the full record (every pass, the metadata and
the result) to FILE as one JSON line, which perfbench/compare.py reads.

Measurement limits: own-process timers (perf_counter, CLOCK_MONOTONIC)
and ru_maxrss only; no cache dropping and no machine-wide tracing; the
machine may be a small shared sandbox, so other tenants add noise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the names of workloads.WORKLOADS; this process never imports `pencils`
WORKLOADS = ("symmetric-sweep", "farey-rich", "lemma-chain", "mpencil-io")
# Other tenants of a shared machine slow it by up to 2x, for seconds to
# tens of minutes at a time (CPU time rises with wall time, so this is not
# descheduling).  Dividing each pass's times by the reference time taken
# right after it cut the spread of wall times across ten runs (IQR /
# median) from up to 0.4 to at most 0.13, and the shift between two such
# sets from up to 26 % to at most 5 %.
MIN_ROUNDS = 3
MIN_SETUP_SAMPLES = 7
# The whole run, set-up probes included, must end well inside 180 s.
HARD_LIMIT_S = 150.0
LIMITS = ("own-process timers (perf_counter, CLOCK_MONOTONIC) and ru_maxrss "
          "only; no cache dropping; no machine-wide tracing; shared sandbox, "
          "other tenants add noise")
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # no .pyc written into the checkout; every process compiles alike
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.env = child_env(root)
        self.cwd = root
        self.base = [sys.executable, str(HERE / "worker.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.start = time.monotonic()

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def spawn(self, *extra: str) -> dict:
        """One worker process.  Returns its JSON line plus `setup_s`, or
        {"crash": reason} when it failed, timed out or printed no result."""
        t0 = time.monotonic()
        proc = subprocess.Popen(self.base + list(extra), cwd=self.cwd, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"crash": "timed out"}
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            return {"crash": f"exit {proc.returncode}: {err.strip()[-500:]}"}
        result["setup_s"] = result["setup_end"] - t0
        return result


def median_of(runs: list, key: str) -> float:
    return statistics.median(r[key] for r in runs)


def git_state(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()
    return {"sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain"))}


def layer_metrics(names: list, untraced: list, traced: list) -> dict:
    """Median of each per-layer metric over the passes that report it; the
    overhead of tracing is the difference of the median wall times."""
    values = {}
    for run in untraced + traced:
        for name, value in run["layers"].items():
            values.setdefault(name, []).append(value)
    out = {name: statistics.median(v) for name, v in values.items()}
    plain, with_trace = median_of(untraced, "wall_s"), median_of(traced, "wall_s")
    out.update({"trace.untraced_wall_s": plain, "trace.overhead_s": with_trace - plain})
    return {name: out.get(name, 0.0) for name in names}


def summary(record: dict, spec: dict) -> str:
    res = record["result"]
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
             f"{len(record['passes'])} passes, {len(record['setup_s'])} set-up samples, "
             f"attempted={res['attempted']} failed={res['failed']}"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(wall_s="s", slowest_op_s="s", ref_s="s")
    for name, value in record["values"].items():
        note = RATIO_BASES.get(name)
        lines.append(f"  {name} = {value:.6g} {units[name]}"
                     + (f"  ({note})" if note else ""))
    lines.append("  meta: " + json.dumps(record["meta"]))
    return "\n".join(lines)


# The base of every ratio metric; "computed" marks counts derived from the
# sizes the calls returned rather than counted inside `pencils`.
RATIO_BASES = {
    "graphs.ratio_yield": "graphs.ratio_distinct / graphs.ratio_edges",
    "richpoints.yield": "richpoints.rich_count / richpoints.seed_pairs",
    "incidence.hit_rate": "incidence.incidences / incidence.pl_pairs",
    "trace.dominant_self_share": "self time of the dominant layers / trace.wall_s",
    "wall_ref": "median over passes of wall_s / ref_s of the probe after the pass",
    "slowest_op_ref": "median over passes of slowest_op_s / ref_s of the probe after it",
    "constructions.joins": "computed: edges x centres",
    "richpoints.seed_pairs": "computed: product of the two smallest pencil sizes",
    "graphs.table_cells": "computed: sum of n^2 + 1 mask bytes",
    "incidence.pl_pairs": "computed: sum of |P| x |L|",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "pencils" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from a source checkout: src/pencils/ or BENCHMARK.json missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    runner = Runner(root, args.workload, args.seed)
    runs, traced, probes, crashes = [], [], [], []
    min_rounds = 1 if args.trace else MIN_ROUNDS
    rounds = 0
    while True:
        rounds += 1
        for trace in ("0", "1")[:1 + args.trace]:
            run = runner.spawn("--trace", trace)
            (crashes if "crash" in run else traced if trace == "1" else runs).append(run)
        # one probe per round: a set-up sample, and the machine's speed
        # right after the pass
        probe = runner.spawn("--probe")
        if "crash" in probe:
            crashes.append(probe)
        else:
            probes.append(probe)
            if not crashes:
                runs[-1]["ref_s"] = probe["ref_s"]
        elapsed = time.monotonic() - runner.start
        if crashes or elapsed * (1 + 1 / rounds) > HARD_LIMIT_S or (
                elapsed >= args.seconds and rounds >= min_rounds):
            break
    while (len(runs + traced + probes) < MIN_SETUP_SAMPLES
           and runner.remaining() > 10 and not crashes):
        probe = runner.spawn("--probe")
        (crashes if "crash" in probe else probes).append(probe)
    setup_s = [r["setup_s"] for r in runs + traced + probes]
    paired = [r for r in runs if "ref_s" in r]
    if not paired or (args.trace and not traced):
        print(f"no run completed: {crashes}", file=sys.stderr)
        return 1

    done = runs + traced
    attempted = sum(r["attempted"] for r in done) + len(crashes)
    failed = sum(len(r["failed"]) for r in done) + len(crashes)
    if args.trace:
        values = layer_metrics([m["name"] for m in spec["per_layer"]], runs, traced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {"wall_ref": statistics.median(r["wall_s"] / r["ref_s"] for r in paired),
                  "slowest_op_ref": statistics.median(
                      r["slowest_op_s"] / r["ref_s"] for r in paired),
                  "wall_s": median_of(runs, "wall_s"),
                  "slowest_op_s": median_of(runs, "slowest_op_s"),
                  "peak_rss_mb": median_of(runs, "peak_rss_mb"),
                  "setup_s": statistics.median(setup_s),
                  "ref_s": statistics.median(r["ref_s"] for r in probes)}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_s": setup_s, "crashes": crashes, "values": values,
        "passes": [{**{key: r.get(key) for key in ("wall_s", "slowest_op_s", "slowest_op",
                                                 "peak_rss_mb", "setup_s", "ref_s",
                                                 "attempted", "failed")},
                  "traced": r in traced,
                  "op_s": {op["name"]: op["seconds"] for op in r["ops"]}}
                 for r in done],
        "meta": {**git_state(root), "seed": args.seed, **done[0]["versions"],
                 "nproc": os.cpu_count(), "threads": THREAD_ENV,
                 "fail_rate": failed / attempted, "limits": LIMITS},
        "result": result,
    }
    print(summary(record, spec), file=sys.stderr)
    if args.record:
        with args.record.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
