#!/usr/bin/env python
"""Event-driven async runtime benchmark — engine speed, determinism, fig8.

Three gates and one timing for the ``runtime="async"`` plane (DESIGN.md
§5.14/§5.15), written to ``BENCH_async.json`` at the repository root:

1. **Determinism** — the pinned straggler+drop DS scenario runs twice
   and must produce bit-identical solutions (sha256 of ``res.x``); a
   fast-but-nondeterministic event engine is a bug, not a speedup.
2. **Engine speed** (recorded, not gated) — Distributed Southwell at
   P=256 on the 96×96 Poisson problem, simulated to a residual target
   by :class:`~repro.core.async_exec.AsyncExecutor`, timed steady-state
   (setup front-loaded via ``prepare()``).  Files committed while the
   seed object-plane engine existed also record its time and the ratio
   between the two.
3. **Fig8 analog** — ``run_fig8_async`` (drops × stragglers, simulated
   time to target): DS must reach the target under the max drop rate
   and beat PS's time (PS deadlocking / never reaching counts as DS
   winning — that contrast is the paper's point).
4. **Scheduler sweep** (schema v2) — scalar heap oracle vs the batched
   event-horizon scheduler (DESIGN.md §5.15) on a latency-dominated
   Distributed Southwell config at P=256 and P=1024.  Solution digest,
   turn count and history identity between the two schedulers are hard
   gates: a fast-but-divergent batched engine fails the bench.  The
   ISSUE-9 acceptance bar is batched ≥3× scalar at P=1024.

Usage::

    PYTHONPATH=src python scripts/bench_async.py            # full run
    PYTHONPATH=src python scripts/bench_async.py --smoke    # CI-sized

Schema (``BENCH_async.json``)::

    {
      "schema": "repro.bench_async/v2",
      "smoke": false,
      "environment": {"python": ..., "numpy": ..., "scipy": ...,
                      "numba": null | version, "platform": ...},
      "config": {"side": ..., "n_parts": ..., "target_norm": ...,
                 "repeats": ..., "fig8": {...},
                 "scheduler_sweep": [ {...case...}, ... ]},
      "engine": {"flat_best_s": ..., "flat_times": [...],
                 "virtual_time_to_target": ..., "turns": ...},
      "determinism": {"digest": "...", "identical": true},
      "fig8_async": [ {...row...}, ... ],
      "scheduler_sweep": [
        {"n_parts": ..., "side": ..., "scheduler": "scalar"|"batched",
         "latency": ..., "poll_interval": ..., "record_every": ...,
         "max_steps": ..., "target_norm": ..., "best_s": ...,
         "times": [...], "turns": ..., "virtual_time": ...,
         "final_norm": ..., "digest": "...",
         "sched_stats": null | {"macro_turns": ..., "ladder_turns": ...,
                                "ladder_committed": ..., "turns": ...}},
        ...
      ],
      "summary": {"deterministic": true,
                  "ds_beats_ps_at_max_drop": true,
                  "scheduler_identical": true,
                  "batched_speedup": {"256": ..., "1024": ...},
                  "batched_speedup_max_p": ...}
    }
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import AsyncConfig, RunConfig, solve  # noqa: E402
from repro.core.async_exec import AsyncExecutor  # noqa: E402
from repro.core.blockdata import build_block_system  # noqa: E402
from repro.core.distributed_southwell_block import (  # noqa: E402
    DistributedSouthwell,
)
from repro.experiments.fig8_async import run_fig8_async  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.matrices.fem import fem_poisson_2d  # noqa: E402
from repro.matrices.poisson import poisson_2d  # noqa: E402
from repro.partition import partition  # noqa: E402
from repro.sparsela import symmetric_unit_diagonal_scale  # noqa: E402

SCHEMA = "repro.bench_async/v2"


def build_case(side: int, n_parts: int):
    A = symmetric_unit_diagonal_scale(poisson_2d(side)).matrix
    part = partition(A, n_parts, method="grid", grid_shape=(side, side))
    system = build_block_system(A, part)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(A.n_rows)
    x0 /= np.linalg.norm(A.matvec(x0))
    return system, x0, np.zeros(A.n_rows)


def bench_engines(side: int, n_parts: int, target: float,
                  repeats: int, log) -> dict:
    """Best-of-N steady-state time-to-target of the event engine."""
    system, x0, b = build_case(side, n_parts)
    flat_times = []
    virtual_time = turns = None
    for _ in range(repeats):
        runner = DistributedSouthwell(system, seed=0)
        ex = AsyncExecutor(runner)
        ex.prepare(x0.copy(), b)        # steady-state: setup untimed
        t0 = time.perf_counter()
        hist = ex.run(max_steps=10 ** 9, target_norm=target,
                      stop_at_target=True)
        flat_times.append(time.perf_counter() - t0)
        virtual_time = hist.times[-1]
        turns = ex.turns
    rec = {
        "flat_best_s": min(flat_times),
        "flat_times": flat_times,
        "virtual_time_to_target": virtual_time,
        "turns": turns,
    }
    log(f"engines (P={n_parts}, side={side}, target={target}): "
        f"flat {rec['flat_best_s']:.3f}s  turns={rec['turns']}")
    return rec


def bench_schedulers(cases: list[dict], repeats: int, log) -> tuple[
        list[dict], dict, bool]:
    """Scalar-vs-batched P-sweep on a latency-dominated DS config.

    Each case runs both schedulers on the *same* prebuilt system with a
    fresh runner per repeat; the solution digest, turn count and
    time-indexed history must be bit-identical between schedulers —
    that identity is the returned hard gate.
    """
    from repro.setupcache import get_setup

    rows: list[dict] = []
    speedups: dict = {}
    identical = True
    for case in cases:
        side, P = case["side"], case["n_parts"]
        A = symmetric_unit_diagonal_scale(poisson_2d(side)).matrix
        _, system = get_setup(A, P, seed=0)
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-1.0, 1.0, A.n_rows)
        b = np.zeros(A.n_rows)
        x0 = x0 / np.linalg.norm(b - A.matvec(x0))
        per = {}
        for sched in ("scalar", "batched"):
            times, rec = [], None
            for _ in range(repeats):
                runner = DistributedSouthwell(system, seed=0)
                ex = AsyncExecutor(runner, latency=case["latency"],
                                   poll_interval=case["poll_interval"],
                                   record_every=case["record_every"],
                                   scheduler=sched)
                ex.prepare(x0.copy(), b)    # setup untimed
                t0 = time.perf_counter()
                hist = ex.run(max_steps=case["max_steps"],
                              target_norm=case["target_norm"],
                              stop_at_target=case["target_norm"]
                              is not None)
                times.append(time.perf_counter() - t0)
                digest = hashlib.sha256(
                    np.ascontiguousarray(runner.solution())
                    .tobytes()).hexdigest()
                rec = {
                    "turns": ex.turns,
                    "virtual_time": hist.times[-1],
                    "final_norm": hist.residual_norms[-1],
                    "digest": digest,
                    "history_norms": list(hist.residual_norms),
                    "history_times": list(hist.times),
                    "sched_stats": getattr(ex, "sched_stats", None),
                }
            rec.update({"kind": "scheduler", "scheduler": sched,
                        "best_s": min(times), "times": times, **case})
            per[sched] = rec
        s, bt = per["scalar"], per["batched"]
        same = (s["digest"] == bt["digest"] and s["turns"] == bt["turns"]
                and s["history_norms"] == bt["history_norms"]
                and s["history_times"] == bt["history_times"])
        identical = identical and same
        speedup = s["best_s"] / bt["best_s"]
        speedups[str(P)] = speedup
        log(f"schedulers (P={P}, side={side}, "
            f"lat={case['latency'] * 1e6:.0f}us, "
            f"poll={case['poll_interval'] * 1e6:.2f}us): "
            f"scalar {s['best_s']:.3f}s  batched {bt['best_s']:.3f}s  "
            f"speedup {speedup:.2f}x  turns={s['turns']}  "
            f"identical={same}")
        for rec in (s, bt):
            # the full history rides in the doc only through the digest
            # comparison above; keep the artifact bounded
            rec.pop("history_norms")
            rec.pop("history_times")
            rows.append(rec)
    return rows, speedups, identical


def pinned_digest(smoke: bool) -> str:
    """The test suite's pinned straggler+drop DS scenario."""
    A = fem_poisson_2d(target_rows=900, seed=0).matrix
    plan = FaultPlan.uniform(drop=0.2, seed=7)
    acfg = AsyncConfig(speed_factors=((0, 0.5), (3, 0.5)))
    res = solve(A, method="distributed-southwell",
                config=RunConfig(n_parts=16, max_steps=30 if smoke else 60,
                                 seed=0, faults=plan, runtime="async",
                                 async_config=acfg))
    return hashlib.sha256(np.ascontiguousarray(res.x).tobytes()).hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run (smaller problems, fewer repeats)")
    ap.add_argument("--output", type=Path,
                    default=REPO_ROOT / "BENCH_async.json",
                    help="output JSON path (default: repo root)")
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)
    log = (lambda s: None) if args.quiet else print

    t0 = time.perf_counter()
    if args.smoke:
        side, n_parts, target = 48, 64, 0.05
        repeats = args.repeats or 2
        fig8_cfg = dict(grid_dim=32, n_procs=16,
                        drop_sweep=(0.0, 0.2), max_steps=60)
        sweep_repeats = 1
        sweep_cases = [
            dict(side=48, n_parts=64, latency=400e-6,
                 poll_interval=0.25e-6, record_every=1024,
                 max_steps=200, target_norm=None),
            dict(side=96, n_parts=256, latency=400e-6,
                 poll_interval=0.25e-6, record_every=4096,
                 max_steps=200, target_norm=None),
        ]
    else:
        side, n_parts, target = 96, 256, 0.01
        repeats = args.repeats or 5
        fig8_cfg = dict(grid_dim=64, n_procs=64,
                        drop_sweep=(0.0, 0.1, 0.2), max_steps=100)
        sweep_repeats = 2
        # latency-dominated regime (DESIGN.md §5.15): 400 µs links,
        # 0.25 µs polls — the target norms are the measured reachable
        # values for these turn budgets, so "time to target" really
        # ends at the target instead of the step cap
        sweep_cases = [
            dict(side=96, n_parts=256, latency=400e-6,
                 poll_interval=0.25e-6, record_every=4096,
                 max_steps=500, target_norm=None),
            dict(side=192, n_parts=1024, latency=400e-6,
                 poll_interval=0.25e-6, record_every=4096,
                 max_steps=1500, target_norm=0.31),
        ]

    engine = bench_engines(side, n_parts, target, repeats, log)
    sweep_rows, speedups, sched_identical = bench_schedulers(
        sweep_cases, sweep_repeats, log)

    d1 = pinned_digest(args.smoke)
    d2 = pinned_digest(args.smoke)
    deterministic = d1 == d2
    log(f"determinism: {d1[:16]}… twice → "
        f"{'identical' if deterministic else 'DIFFER'}")

    rows = run_fig8_async(**fig8_cfg)
    max_drop = max(fig8_cfg["drop_sweep"])
    by = {(r["drop"], r["method"]): r for r in rows}
    ds = by[(max_drop, "DS")]["time_to_target"]
    ps = by[(max_drop, "PS")]["time_to_target"]
    ds_wins = ds is not None and (ps is None or ds < ps)
    log(f"fig8 analog @ drop={max_drop}: DS time={ds}  PS time={ps}  "
        f"DS wins: {ds_wins}")

    doc = {
        "schema": SCHEMA,
        "smoke": bool(args.smoke),
        "environment": environment(),
        "config": {"side": side, "n_parts": n_parts,
                   "target_norm": target, "repeats": repeats,
                   "fig8": {k: list(v) if isinstance(v, tuple) else v
                            for k, v in fig8_cfg.items()},
                   "scheduler_sweep": sweep_cases,
                   "scheduler_repeats": sweep_repeats},
        "engine": engine,
        "determinism": {"digest": d1, "identical": deterministic},
        "fig8_async": rows,
        "scheduler_sweep": sweep_rows,
        "summary": {
            "deterministic": deterministic,
            "ds_beats_ps_at_max_drop": ds_wins,
            "scheduler_identical": sched_identical,
            "batched_speedup": speedups,
            "batched_speedup_max_p": speedups[
                str(max(c["n_parts"] for c in sweep_cases))],
        },
    }
    args.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    log(f"wrote {args.output} ({time.perf_counter() - t0:.1f} s)")
    if not deterministic:
        print("ERROR: async runs are nondeterministic", file=sys.stderr)
        return 1
    if not ds_wins:
        print("ERROR: DS does not beat PS under max drop", file=sys.stderr)
        return 1
    if not sched_identical:
        print("ERROR: batched scheduler diverged from the scalar oracle",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
