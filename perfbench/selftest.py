"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  At tiny sizes it checks that
  * every workload, untraced and traced, runs with no failed operation;
  * a deliberately wrong expected value (--corrupt) makes operations fail;
  * run.py exits with an error, printing no result, in a directory that
    holds only BENCHMARK.json and perfbench/.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def worker(workload: str, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "42", "--size", "tiny", *extra],
        cwd=ROOT, env=child_env(ROOT), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return {"attempted": 0, "failed": [f"exit {proc.returncode}: {proc.stderr[-300:]}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def bare_checkout_refused() -> bool:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return proc.returncode != 0 and not proc.stdout.strip()


def main() -> int:
    problems = []
    for wl in WORKLOADS:
        for trace in ("0", "1"):
            res = worker(wl, "--trace", trace)
            if res["failed"] or res["attempted"] == 0:
                problems.append(f"{wl} trace={trace}: failed {res['failed']}")
        res = worker(wl, "--corrupt")
        if not res["failed"]:
            problems.append(f"{wl}: a corrupted expected value went unnoticed")
        print(f"{wl}: ok" if not problems else f"{wl}: {problems}", file=sys.stderr)
    if not bare_checkout_refused():
        problems.append("run.py did not refuse a checkout without src/")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
