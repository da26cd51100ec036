"""The four benchmark workloads.

Each workload has
  * setup(size, seed, scratch): the inputs, made from the seed;
  * run(inputs, tracer): the timed calls into `pencils`.  With a tracer it
    replays, span by span, the public calls those entry points make, and
    must give the same outputs;
  * probe(inputs, tracer): optional traced calls made after the timed part;
  * finish(inputs, ops): optional reading back of outputs, after timing;
  * expected(inputs, traced): the exact value every operation must return.

An operation is a dict {"name", "seconds", "value"}; `value` holds exact
outputs only (never a wall time), or {"error": ...} when the call raised.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from pencils import cli, serialize
from pencils.constructions import (
    build_farey_shift_construction,
    build_m_pencil_config,
    build_symmetric_farey_construction,
    pencils_from_graph,
    standard_shift_centres,
)
from pencils.graphs import (
    BipartiteGraph,
    GroundSet,
    multiplication_table_size,
    shifted_restricted_ratio_set,
)
from pencils.incidence import build_lemma_instance, count_incidences, verify_lemma_chain
from pencils.richpoints import rich_points
from pencils.sweeps import SweepRow, fit_exponent, sweep

D_DAMP = Fraction(43, 1000)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def points_digest(points) -> str:
    return digest([[str(c) for c in p.coords] for p in sorted(points)])


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _op(name: str, seconds: float, value: dict) -> dict:
    return {"name": name, "seconds": seconds, "value": value}


@contextlib.contextmanager
def _maybe_span(tracer, name):
    if tracer is None:
        yield None
    else:
        with tracer.span(name) as sp:
            yield sp


# ---------------------------------------------------------------------------
# sweeps: symmetric-sweep and farey-rich

SYMMETRIC_EDGES = {16: 33, 64: 255, 256: 1785, 1024: 14927, 4096: 114039,
                   16384: 909075}
SYMMETRIC_RATIO = {16: 11, 64: 43, 256: 159, 1024: 647, 4096: 2519,
                   16384: 10043}
TABLE_SIZES = {6: 1263, 7: 4695, 8: 17668, 9: 67765, 10: 260095,
               11: 1004977, 12: 3903563, 13: 15204380}

FAREY_ROWS = {
    256: {"edges": 1695, "ratio_sizes": [209, 278, 380], "rich": 2125,
          "pencil_sizes": [209, 278, 380, 72],
          "points_sha": "1fe709a5d8c85510"},
    1024: {"edges": 12972, "ratio_sizes": [766, 1038, 1489], "rich": 16921,
           "pencil_sizes": [766, 1038, 1489, 290],
           "points_sha": "8085ca1496915dbe"},
    2048: {"edges": 35136, "ratio_sizes": [1457, 2022, 2874], "rich": 46278,
           "pencil_sizes": [1457, 2022, 2874, 556],
           "points_sha": "8852b34611eb8529"},
}


def _row_value(edges, ratio_sizes, rich, pencil_sizes) -> dict:
    return {"edges": edges, "ratio_sizes": list(ratio_sizes), "rich": rich,
            "pencil_sizes": list(pencil_sizes)}


def _replay_row(tracer, construction, n, d, centres):
    """The public calls of `sweeps._compute_row`, in its order, each in a
    span.  Returns the SweepRow (without a wall time) and the rich points."""
    with tracer.span("sweeps.row") as row:
        row.count(n=n)
        if construction == "farey-shift":
            with tracer.span("constructions.build") as sp:
                built = build_farey_shift_construction(n, d)
            sp.count(edges=built.edge_count)
            with tracer.span("constructions.pencils") as sp:
                config = pencils_from_graph(built, centres)
            sp.count(joins=built.edge_count * len(centres),
                     lines=sum(config.sizes()))
            with tracer.span("richpoints.rich_points") as sp:
                report = rich_points(config)
            small = sorted(config.sizes())
            sp.count(seed_pairs=small[0] * small[1], rich=report.count)
            shifts = [c.to_affine() for c in centres if not c.is_infinite]
            points, rich, sizes = report.points, report.count, report.pencil_sizes
        else:
            with tracer.span("constructions.build") as sp:
                built = build_symmetric_farey_construction(n)
            sp.count(edges=built.edge_count)
            shifts = [(0, 0)]
            points, rich, sizes = None, 0, ()
        ratio_sizes = []
        for x, y in shifts:
            with tracer.span("graphs.ratio_set") as sp:
                size = len(shifted_restricted_ratio_set(built.graph, -x, -y))
            sp.count(edges=built.edge_count, distinct=size)
            ratio_sizes.append(size)
    return SweepRow(n, Fraction(d), construction, built.edge_count,
                    tuple(ratio_sizes), rich, tuple(sizes), 0), points


def _sweep_ops(tracer, construction, ns, d, centres) -> tuple[list, list]:
    """One op per row, timed by SweepRow.wall_time_ms (by its span when
    traced), and the rows themselves."""
    try:
        if tracer is None:
            rows = sweep(construction, ns, d=d, centres=centres)
            return [_op(f"row.n{r.n}", r.wall_time_ms / 1000.0,
                        _row_value(r.edge_count, r.ratio_set_sizes,
                                   r.rich_count, r.pencil_sizes))
                    for r in rows], rows
        ops, rows = [], []
        with tracer.span("sweeps.sweep"):
            for n in ns:
                start = time.perf_counter()
                row, points = _replay_row(tracer, construction, n, d, centres)
                ops.append(_op(f"row.n{n}", time.perf_counter() - start,
                               _row_value(row.edge_count, row.ratio_set_sizes,
                                          row.rich_count, row.pencil_sizes)))
                if points is not None:
                    ops[-1]["points"] = points  # digested after the timed part
                rows.append(row)
        return ops, rows
    except Exception as exc:  # every row of a failed sweep fails
        return [_op(f"row.n{n}", 0.0, _error(exc)) for n in ns], []


class SymmetricSweep:
    name = "symmetric-sweep"
    dominant = ("graphs", "constructions")
    SIZES = {"full": ([4 ** k for k in range(2, 7)], range(6, 14)),
             "tiny": ([16, 64, 256], range(6, 9))}

    def setup(self, size, seed, scratch):
        ns, ks = self.SIZES[size]
        return {"ns": ns, "ks": list(ks), "size": size}

    def run(self, inp, tracer):
        ops, rows = _sweep_ops(tracer, "symmetric", inp["ns"], 0, None)
        start = time.perf_counter()
        try:
            with _maybe_span(tracer, "sweeps.fit"):
                fit = fit_exponent(rows, "edge_count")
            value = {"n_range": list(fit.n_range),
                     "slope_in_criterion_window": 1.45 <= fit.slope <= 1.55}
        except Exception as exc:
            value = _error(exc)
        ops.append(_op("fit", time.perf_counter() - start, value))
        for k in inp["ks"]:
            start = time.perf_counter()
            try:
                with _maybe_span(tracer, "graphs.table_sieve") as sp:
                    value = {"size": multiplication_table_size(2 ** k)}
                if sp is not None:
                    sp.count(cells=4 ** k + 1)
            except Exception as exc:
                value = _error(exc)
            ops.append(_op(f"table.k{k}", time.perf_counter() - start, value))
        return ops

    def expected(self, inp, traced):
        want = {f"row.n{n}": _row_value(SYMMETRIC_EDGES[n], [SYMMETRIC_RATIO[n]], 0, ())
                for n in inp["ns"]}
        # criterion 7's slope window holds over the full n range only
        want["fit"] = {"n_range": [inp["ns"][0], inp["ns"][-1]],
                       "slope_in_criterion_window": inp["size"] == "full"}
        want.update({f"table.k{k}": {"size": TABLE_SIZES[k]} for k in inp["ks"]})
        return want


class FareyRich:
    name = "farey-rich"
    dominant = ("richpoints",)
    SIZES = {"full": [256, 1024], "tiny": [256]}

    def setup(self, size, seed, scratch):
        return {"ns": self.SIZES[size], "centres": standard_shift_centres()}

    def run(self, inp, tracer):
        return _sweep_ops(tracer, "farey-shift", inp["ns"], D_DAMP,
                          inp["centres"])[0]

    def finish(self, inp, ops):
        for op in ops:
            points = op.pop("points", None)
            if points is not None:
                op["value"]["points_sha"] = points_digest(points)

    def expected(self, inp, traced):
        # only the traced replay sees the rich points themselves
        return {f"row.n{n}": {key: want for key, want in FAREY_ROWS[n].items()
                              if traced or key != "points_sha"}
                for n in inp["ns"]}


# ---------------------------------------------------------------------------
# lemma-chain

# Switch point between the all-pairs and line-scan counts in
# `pencils.incidence` at the commit that defined this benchmark.
_ALL_PAIRS_LIMIT = 250_000


def random_lemma_case(rng):
    """Criterion 5's instance generator (tests/test_acceptance.py), kept
    here so the benchmark depends on nothing outside `pencils`.  Returns
    the sorted ground-set values, the edge index pairs and two centres."""
    while True:
        na, nb = rng.randint(1, 30), rng.randint(1, 30)
        a_vals = rng.sample(range(0, 60), na)
        b_vals = rng.sample(range(0, 60), nb)
        A = sorted(Fraction(v) for v in a_vals)
        B = sorted(Fraction(v) for v in b_vals)
        edges = [(i, j) for i in range(na) for j in range(nb)
                 if rng.random() < 0.3]
        if not edges:
            continue
        while True:
            c1 = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, -1)))
            c2 = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, -1)))
            if c1 == c2:
                continue
            if c1[0] == c2[0] and (c1[0] in A or c2[0] in A):
                continue
            return A, B, edges, c1, c2


def _symmetric_case(n):
    s = math.isqrt(n)
    ground = sorted({Fraction(i, j) for j in range(1, s + 1) for i in range(1, s + 1)})
    pos = {v: k for k, v in enumerate(ground)}
    edges = [(pos[a], pos[b]) for a in ground for b in ground
             if a.denominator == b.denominator]
    return ground, ground, edges, (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(-1))


def _lemma_frame(A, B, edges, c1, c2):
    """Edge values, ground sets and centres after the swap
    `build_lemma_instance` makes when the centres share x, and the two
    shifted ratio sets."""
    pairs = [(A[i], B[j]) for i, j in edges]
    if c1[0] == c2[0]:
        A, B = B, A
        pairs = [(b, a) for a, b in pairs]
        c1, c2 = (c1[1], c1[0]), (c2[1], c2[0])
    (x1, y1), (x2, y2) = c1, c2
    r1 = {(a - x1) / (b - y1) for a, b in pairs}
    r2 = {(a - x2) / (b - y2) for a, b in pairs}
    return A, B, pairs, c1, c2, r1, r2


def lemma_oracle(A, B, edges, c1, c2) -> dict:
    """The exact LemmaChainReport fields, computed without `pencils`.

    With x1 != x2, the point (r1, r2) lies on line l_{b1,b2} iff
    (b1 - y1) r1 + (x1 - x2) = (b2 - y2) r2, so the incidence count is
    sum over t of N1(t) N2(t), one hash join instead of |P| |L| tests."""
    A, B, pairs, (x1, y1), (x2, y2), r1, r2 = _lemma_frame(A, B, edges, c1, c2)
    n1 = Counter((b - y1) * r + (x1 - x2) for b in B for r in r1)
    n2 = Counter((b - y2) * r for b in B for r in r2)
    return {"edges": len(pairs), "left": len(A), "right": len(B),
            "ratio_sizes": [len(r1), len(r2)],
            "points": len(r1) * len(r2), "lines": len(B) ** 2,
            "nss": sum(d * d for d in Counter(a for a, _ in pairs).values()),
            "incidences": sum(c * n2[t] for t, c in n1.items()),
            "all_ok": True}


def _seed_commit_cost(case) -> float:
    """Seconds `verify_lemma_chain` took on the instance at the commit
    that defined this benchmark (least-squares fit over 100 instances on a
    2-core sandbox).  Used only to pick a seed-independent amount of
    work, never to check a result."""
    _, B, pairs, _, _, r1, r2 = _lemma_frame(*case)
    lines = len(B) ** 2
    pl = len(r1) * len(r2) * lines
    count = 7.2e-6 * pl if pl <= _ALL_PAIRS_LIMIT else 4.1e-6 * lines * len(r1)
    nss = sum(d * d for d in Counter(a for a, _ in pairs).values())
    return count + 2.9e-4 * nss


class LemmaChain:
    name = "lemma-chain"
    dominant = ("incidence",)
    # Random instances are drawn in generator order until their estimated
    # cost reaches the budget, so every seed gives about the same work;
    # draws estimated above the cap are skipped, so the symmetric n = 64
    # instance (line scan, ~1 s) stays the slowest on every seed and
    # slowest_op_s does not hinge on the largest random draw.  Most random
    # instances are counted by all pairs.
    SIZES = {"full": (2.5, (4, 16, 64)), "tiny": (0.3, (4, 16, 64))}
    CAP_S = 0.5
    DIGEST_SEED = 42
    SEED42_DIGEST = "59083523047ace58"

    def setup(self, size, seed, scratch):
        budget, symmetric_ns = self.SIZES[size]
        rng = random.Random(seed)
        cases, spent = [], 0.0
        for draw in itertools.count():
            if spent >= budget:
                break
            case = random_lemma_case(rng)
            cost = _seed_commit_cost(case)
            if cost <= self.CAP_S:
                spent += cost
                cases.append((f"random.{draw}", case))
        cases += [(f"symmetric.n{n}", _symmetric_case(n)) for n in symmetric_ns]
        instances = [
            {"label": label, "c1": c1, "c2": c2, "case": (A, B, edges, c1, c2),
             "graph": BipartiteGraph(GroundSet(A), GroundSet(B), edges)}
            for label, (A, B, edges, c1, c2) in cases
        ]
        return {"instances": instances, "size": size, "seed": seed}

    def run(self, inp, tracer):
        ops = []
        for inst in inp["instances"]:
            start = time.perf_counter()
            try:
                with _maybe_span(tracer, "incidence.verify") as sp:
                    rep = verify_lemma_chain(inst["graph"], inst["c1"], inst["c2"])
                value = {"edges": rep.edge_count, "left": rep.left_size,
                         "right": rep.right_size,
                         "ratio_sizes": list(rep.ratio_sizes),
                         "points": rep.point_count, "lines": rep.line_count,
                         "nss": rep.neighbourhood_square_sum,
                         "incidences": rep.incidence_count, "all_ok": rep.all_ok}
                if sp is not None:
                    sp.count(pl_pairs=rep.point_count * rep.line_count,
                             incidences=rep.incidence_count)
            except Exception as exc:
                value = _error(exc)
            ops.append(_op(inst["label"], time.perf_counter() - start, value))
        return ops

    def probe(self, inp, tracer):
        """Build and count again, apart, so the trace can split verify
        time into build, count and the rest (witness check, verdicts)."""
        for inst in inp["instances"]:
            with tracer.span("incidence.build"):
                built = build_lemma_instance(inst["graph"], inst["c1"], inst["c2"])
            with tracer.span("incidence.count"):
                count_incidences(built)

    def _has_digest(self, inp) -> bool:
        return inp["seed"] == self.DIGEST_SEED and inp["size"] == "full"

    def finish(self, inp, ops):
        """On the seed with a recorded digest, one more op: the digest of
        every instance's exact outputs."""
        if self._has_digest(inp):
            ops.append(_op("digest.seed42", 0.0,
                           {"sha": digest([[op["name"], op["value"]] for op in ops])}))

    def expected(self, inp, traced):
        want = {inst["label"]: lemma_oracle(*inst["case"]) for inst in inp["instances"]}
        if self._has_digest(inp):
            want["digest.seed42"] = {"sha": self.SEED42_DIGEST}
        return want


# ---------------------------------------------------------------------------
# mpencil-io


MPENCIL = {
    "full": {"m": 10, "n": 512,
             "summary": "m-pencil(m=10,n=512),10,299;795;1628;2568;2073;1943;"
                        "2101;2432;2862;2602,6882,148,2",
             "config_sha": "7503d58d467a3866", "report_sha": "aa7d06a0cfee6333",
             "points_sha": "59e587de0e0d61a4"},
    "tiny": {"m": 4, "n": 64,
             "summary": "m-pencil(m=4,n=64),4,43;87;159;169,630,24,2",
             "config_sha": "85fe5321850fcedd", "report_sha": "278eea7196113d68",
             "points_sha": "21427fd8ea44b580"},
}


def _symmetric_edge_count(n: int) -> int:
    """|E| of the symmetric construction: for each denominator j, the
    numerators coprime to j, squared."""
    s = math.isqrt(n)
    return sum(sum(1 for i in range(1, s + 1) if math.gcd(i, j) == 1) ** 2
               for j in range(1, s + 1))


class MPencilIO:
    name = "mpencil-io"
    dominant = ("richpoints",)

    def setup(self, size, seed, scratch):
        params = MPENCIL[size]
        return {"m": params["m"], "n": params["n"], "size": size,
                "cfg": scratch / "cfg.json", "rep": scratch / "rep.json"}

    def run(self, inp, tracer):
        cfg, rep = inp["cfg"], inp["rep"]
        m, n = inp["m"], inp["n"]
        ops = []
        start = time.perf_counter()
        try:
            if tracer is None:
                code = _quiet(cli.main, ["construct", "--construction", "m-pencil",
                                         "--m", str(m), "--n", str(n),
                                         "--out", str(cfg)])[0]
            else:
                code = self._replay_construct(tracer, m, n, cfg)
            value = {"exit": code}
        except Exception as exc:
            value = _error(exc)
        ops.append(_op("construct", time.perf_counter() - start, value))
        start = time.perf_counter()
        try:
            if tracer is None:
                code, summary = _quiet(cli.main, ["rich-points", "--config", str(cfg),
                                                  "--out", str(rep)])
            else:
                code, summary = self._replay_rich_points(tracer, cfg, rep)
            value = {"exit": code, "summary": summary.strip()}
        except Exception as exc:
            value = _error(exc)
        ops.append(_op("rich-points", time.perf_counter() - start, value))
        return ops

    @staticmethod
    def _replay_construct(tracer, m, n, cfg) -> int:
        with tracer.span("cli.construct"):
            with tracer.span("constructions.pencils") as sp:
                config = build_m_pencil_config(m, n)
            edges = _symmetric_edge_count(n)
            sp.count(edges=edges, joins=edges * m, lines=sum(config.sizes()))
            with tracer.span("serialize.config_write") as sp:
                text = serialize.dumps(serialize.pencil_config_to_json(config))
                cfg.write_text(text)
            sp.count(bytes=cfg.stat().st_size)
        return 0

    @staticmethod
    def _replay_rich_points(tracer, cfg, rep) -> tuple[int, str]:
        with tracer.span("cli.rich_points"):
            with tracer.span("serialize.config_read"):
                config = serialize.pencil_config_from_json(json.loads(cfg.read_text()))
            with tracer.span("richpoints.rich_points") as sp:
                report = rich_points(config)
            small = sorted(config.sizes())
            sp.count(seed_pairs=small[0] * small[1], rich=report.count)
            with tracer.span("serialize.report_write") as sp:
                rep.write_text(serialize.dumps(serialize.rich_report_to_json(report)))
                summary = serialize.rich_report_summary_csv(report)
            sp.count(bytes=rep.stat().st_size)
        return 0, summary

    def finish(self, inp, ops):
        """Read back what the commands wrote, after the timed part."""
        construct, rich = ops
        try:
            if "error" not in construct["value"]:
                construct["value"]["config_sha"] = _file_sha(inp["cfg"])
            if "error" not in rich["value"]:
                rich["value"].update(
                    report_sha=_file_sha(inp["rep"]),
                    points_sha=digest(json.loads(inp["rep"].read_text())["points"]))
        except (OSError, ValueError, KeyError) as exc:
            rich["value"] = _error(exc)

    def expected(self, inp, traced):
        params = MPENCIL[inp["size"]]
        return {
            "construct": {"exit": 0, "config_sha": params["config_sha"]},
            "rich-points": {"exit": 0, "summary": params["summary"],
                            "report_sha": params["report_sha"],
                            "points_sha": params["points_sha"]},
        }


def _quiet(fn, argv) -> tuple[int, str]:
    """Call a CLI entry point with its stdout captured and stderr dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    return code, out.getvalue()


def _file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


WORKLOADS = {w.name: w for w in (SymmetricSweep(), FareyRich(), LemmaChain(), MPencilIO())}
