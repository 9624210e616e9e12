"""Steadiness check: two independent sets of runs of every workload.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --out steady.json

Set 1 runs every workload ``RUNS`` times, then set 2 runs them all
again, each run a fresh ``perfbench/run.py`` process with its own seed,
drawn at random from [0, 2³¹) and printed with the run, so the checks
see new inputs every time (a check that fails on a few seeds only shows
over many seeds, not over the same few).  For every end-to-end metric
the table shows each set's median, the spread of each set (quartile
distance over median, as ``statistics.quantiles(values, n=4)`` gives
the quartiles) and the drift of set 2's median against set 1's, signed
in the metric's worse direction, next to the metric's bound from
``BENCHMARK.json``.  Every spread and the drift, in either direction,
must stay within the bound, the failed share of each set must match
exactly, and every run must report ``correct``; exit code 1 when one
does not.  ``--out`` writes every run's result, its seed and the
launcher's host line (load average, steal ticks) under ``"host"``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: runs per workload per set
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    # the launcher's host line (load, steal ticks), kept to tell host
    # drift apart from a regression
    if len(lines) > 1 and lines[-2].startswith("host: "):
        res["host"] = json.loads(lines[-2][len("host: "):])
    return res


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="write every result here")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results: dict[str, list[list[dict]]] = {w: [[], []] for w in names}
    draw = random.SystemRandom()
    for s in (0, 1):
        for w in names:
            for _ in range(RUNS):
                seed = draw.randrange(2 ** 31)
                res = one_run(w, seed, seconds)
                res["seed"] = seed
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed}: total_s "
                      f"{res['metrics']['total_s']['value']:.3f}"
                      f"{'' if res['correct'] else '  INCORRECT'}",
                      file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")

    ok = True
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':<18} {'median 1':>12} {'median 2':>12} "
              f"{'spread 1':>9} {'spread 2':>9} {'drift':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in results[w][s]]
                    for s in (0, 1)]
            med = [statistics.median(v) for v in sets]
            spr = [spread(v) for v in sets]
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (med[1] - med[0]) / med[0]
            bad = abs(drift) > bound or max(spr) > bound
            ok &= not bad
            print(f"  {name:<18} {med[0]:>12.6g} {med[1]:>12.6g} "
                  f"{spr[0]:>9.4f} {spr[1]:>9.4f} {drift:>+8.4f} "
                  f"{bound:>6.3f}{'  FAIL' if bad else ''}")
        shares = [sum(r["failed"] for r in results[w][s])
                  / sum(r["attempted"] for r in results[w][s])
                  for s in (0, 1)]
        same = shares[0] == shares[1]
        ok &= same
        print(f"  failed share: {shares[0]:.6f} / {shares[1]:.6f}"
              f"{'' if same else '  FAIL'}")
        wrong = [r["seed"] for r in results[w][0] + results[w][1]
                 if not r["correct"]]
        ok &= not wrong
        print(f"  incorrect runs: {len(wrong)}"
              f"{f'  FAIL (seeds {wrong})' if wrong else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
