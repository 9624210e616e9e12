"""Benchmark launcher: one workload, fresh worker processes, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload poisson-1m --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` starts one untraced worker and reports every end-to-end
metric of ``BENCHMARK.json``.  ``--trace 1`` starts an untraced and a
traced worker, half the seconds each, and reports every per-layer
metric.  ``unaccounted_s`` is the traced ``total_s`` the spans do not
cover and ``trace_overhead_s`` the traced minus the untraced
``total_s``, so the untraced ``total_s`` equals the sum of the spans
plus ``unaccounted_s`` minus ``trace_overhead_s``; a per-layer run
fails its ``spans/unaccounted`` check when ``|unaccounted_s|`` is more
than 5 % of the traced ``total_s``.
Each worker is a fresh ``python3`` process with single-threaded
numpy/BLAS pools, ``PYTHONPATH=src`` and no ``REPRO_*`` settings.

A value is the median over the worker's rounds (see ``worker.py``);
``peak_rss_mb`` is the worker's peak resident set.  The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the host (CPU count, load average, steal ticks over the run).
The launcher exits non-zero, printing no result, when a worker fails or
the checkout holds no ``src/repro`` to measure.
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
ROOT = HERE.parent
#: a run must end within this many seconds, whatever the workers do
DEADLINE_S = 170.0
#: checks that fail on every run because of a known program fault
#: (README "Known faults"); they count in ``failed`` but leave
#: ``correct`` true
KNOWN_FAULTS = {"lossy/residual"}
#: the spans must cover the traced ``total_s`` but this share of it
UNACCOUNTED_TOL = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(workload: str, seed: int, seconds: float, traced: bool,
               min_rounds: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--min-rounds", str(min_rounds)]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def median_of(rows: list[dict], name: str) -> float:
    return statistics.median(row.get(name, 0) for row in rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace == 0:
            plain = run_worker(args.workload, args.seed, args.seconds,
                               False, 2, deadline)
            reports = [plain]
        else:
            half = args.seconds / 2.0
            plain = run_worker(args.workload, args.seed, half, False, 2,
                               deadline)
            traced = run_worker(args.workload, args.seed, half, True, 1,
                                deadline)
            reports = [plain, traced]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    failures = {f for r in reports for f in r["failures"]}
    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            value = (plain["peak_rss_mb"] if m["name"] == "peak_rss_mb"
                     else median_of(plain["rounds"], m["name"]))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        rows = [{**lay, **spans} for lay, spans
                in zip(traced["layers"], traced["spans"])]
        total_traced = median_of(traced["rounds"], "total_s")
        derived = {
            "unaccounted_s": total_traced - statistics.median(
                sum(spans.values()) for spans in traced["spans"]),
            "trace_overhead_s": (total_traced
                                 - median_of(plain["rounds"], "total_s")),
        }
        unaccounted = derived["unaccounted_s"]
        if abs(unaccounted) > UNACCOUNTED_TOL * total_traced:
            print(f"check failed: spans/unaccounted: {unaccounted:.4f} s "
                  f"of {total_traced:.4f} s", file=sys.stderr)
            failures.add("spans/unaccounted")
        for m in spec["per_layer"]:
            value = derived.get(m["name"])
            if value is None:
                value = median_of(rows, m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    before = reports[0]["host"]["before"]
    after = reports[-1]["host"]["after"]
    steal = (after["steal_ticks"] - before["steal_ticks"]
             if before["steal_ticks"] is not None else None)
    print("host: " + json.dumps({
        "cpus": before["cpus"], "load1_before": before["load1"],
        "load1_after": after["load1"], "steal_ticks": steal,
        "rounds": [len(r["rounds"]) for r in reports],
        "failed_checks": sorted(failures)}))
    print(json.dumps({
        "correct": failures <= KNOWN_FAULTS,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
