"""One benchmark run of one workload, in this (fresh) process.

Started by ``perfbench/run.py``, never imported by it: the launcher sets
single-threaded BLAS pools and ``PYTHONPATH`` before this process starts.
The worker builds the workload's inputs from ``--seed``, then repeats
whole *rounds* of the workload's solves until ``--seconds`` have passed
and at least ``--min-rounds`` rounds ran.  Every round checks its
outputs with code that does not go through the program (a scipy
residual, accounting identities, the paper's DS-vs-PS property,
determinism across rounds) and records one value per metric.  The last
stdout line is a JSON report with the per-round values; the launcher
turns it into the benchmark's result line.

With ``--traced`` a round also records per-layer numbers: *spans*,
wall-clock intervals taken by this file around the calls into each
layer (disjoint, so their sum is the time they cover), and *layer*
values — counts, and the phase totals the program's own ``RunTracer``
keeps where one exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from repro.api import MultigridConfig, RunConfig, solve
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import build_block_system
from repro.core.distributed_southwell_block import DistributedSouthwell
from repro.core.parallel_southwell_block import ParallelSouthwell
from repro.faults import FaultPlan
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.runtime import CATEGORY_RESIDUAL
from repro.sparsela import symmetric_unit_diagonal_scale
from repro.trace import RunTracer, Tracer

perf = time.perf_counter


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class Spans:
    """Wall-clock spans around layer calls, summed per name.

    Disabled (the untraced run) it records nothing, but the workloads
    execute the same statements either way.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.totals: dict[str, float] = {}

    def add(self, name: str, seconds: float) -> None:
        if self.enabled:
            self.totals[name] = self.totals.get(name, 0.0) + seconds

    @contextmanager
    def span(self, name: str):
        t0 = perf()
        try:
            yield
        finally:
            self.add(name, perf() - t0)


class Lifecycle:
    """Stamps the first ``begin_run`` and the last ``end_run``.  The
    multigrid executor calls both unconditionally: right after every
    level's set-up, and right after the last V-cycle."""

    begun = ended = None

    def begin_run(self, method, n_procs):
        if self.begun is None:
            self.begun = perf()
        super().begin_run(method, n_procs)

    def end_run(self, stats, faults=None):
        self.ended = perf()
        super().end_run(stats, faults)


class LifecycleClock(Lifecycle, Tracer):
    """Lifecycle stamps on a disabled tracer: every fast path of the run
    stays as it is."""


class LifecycleRunTracer(Lifecycle, RunTracer):
    """Lifecycle stamps plus the phase totals of a :class:`RunTracer`."""


def phase_totals(tracer: RunTracer) -> tuple[dict[str, float],
                                             dict[str, int]]:
    """Seconds and occurrences per phase name recorded by a RunTracer."""
    secs: dict[str, float] = {}
    count: dict[str, int] = {}
    for ev in tracer._events:
        if ev[0] == "phase":
            secs[ev[2]] = secs.get(ev[2], 0.0) + (ev[4] - ev[3])
            count[ev[2]] = count.get(ev[2], 0) + 1
    return secs, count


def wrap_method(spans: Spans, runner, prefix: str, step_times: list):
    """Time ``runner.setup`` and every ``runner.step`` call the program
    makes, by shadowing the two bound methods on this one instance."""
    if not spans.enabled:
        return
    setup, step = runner.setup, runner.step

    def timed_setup(*a, **k):
        with spans.span(f"{prefix}.setup_s"):
            return setup(*a, **k)

    def timed_step():
        t0 = perf()
        out = step()
        step_times.append(perf() - t0)
        return out

    runner.setup = timed_setup
    runner.step = timed_step


def add(d: dict, key: str, value) -> None:
    d[key] = d.get(key, 0) + value


# ----------------------------------------------------------------------
# independent checks
# ----------------------------------------------------------------------
def scipy_csr(A) -> sp.csr_matrix:
    """The matrix rebuilt from its raw CSR arrays (no program code)."""
    return sp.csr_matrix((np.array(A.data), np.array(A.indices),
                          np.array(A.indptr)), shape=A.shape)


def true_norm(S: sp.csr_matrix, b: np.ndarray, x: np.ndarray) -> float:
    return float(np.linalg.norm(b - S @ x))


def norms_agree(true: float, reported: float, r0: float) -> bool:
    """The program's reported residual norm against the true one."""
    return abs(true - reported) <= 1e-8 * r0 + 1e-6 * true


def edge_cut(A, parts: np.ndarray) -> int:
    """Matrix edges whose endpoints lie in different parts."""
    rows = np.repeat(np.arange(A.n_rows), np.diff(A.indptr))
    return int(np.count_nonzero(parts[rows] != parts[A.indices]) // 2)


def digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Inputs built once per run; :meth:`round` runs every solve once.

    ``round`` returns ``(values, solves)``: one value per end-to-end
    metric and how many solves it attempted.  Failed checks collect in
    ``failures`` as ``(solve, check, message)``; traced rounds also
    fill ``spans`` and ``layer``.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans = Spans(traced)
        self.layer: dict[str, float] = {}
        self.generate_s = 0.0
        self.failures: list[tuple[str, str, str]] = []
        self._digests: dict[str, str] = {}

    def run_round(self):
        self.spans.totals = {}
        self.layer = {"matrices.generate_s": self.generate_s}
        self.failures = []
        return self.round()

    def expect(self, ok: bool, solve: str, check: str, message: str):
        if not ok:
            self.failures.append((solve, check, message))

    def same_as_first(self, key: str, x: np.ndarray) -> bool:
        """Bit-identical to the first round's output for ``key``?"""
        d = digest(x)
        return self._digests.setdefault(key, d) == d


class Poisson1M(Workload):
    """2D Poisson, n = 1024², P = 4096 grid blocks; DS then PS from one
    block system to a common residual target, lockstep flat plane."""

    SIDE = 1024
    P = 4096
    TARGET = 5e-3          # ‖r‖ from ‖r⁰‖ = 1, both under 50 steps
    MAX_STEPS = 50
    METHODS = (("ds", DistributedSouthwell), ("ps", ParallelSouthwell))

    def __init__(self, seed, traced):
        super().__init__(traced)
        t0 = perf()
        self.A = symmetric_unit_diagonal_scale(poisson_2d(self.SIDE)).matrix
        self.generate_s = perf() - t0
        self.S = scipy_csr(self.A)
        n = self.A.n_rows
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        self.b = np.zeros(n)
        self.x0 = x0 / true_norm(self.S, self.b, x0)       # ‖r⁰‖ = 1
        self.r0 = true_norm(self.S, self.b, self.x0)

    def round(self):
        sp_, lay = self.spans, self.layer
        t0 = perf()
        with sp_.span("partition.partition_s"):
            part = partition(self.A, self.P, method="grid",
                             grid_shape=(self.SIDE, self.SIDE))
        with sp_.span("blockdata.build_s"):
            system = build_block_system(self.A, part)
        t_setup = perf() - t0
        cfg = RunConfig(max_steps=self.MAX_STEPS, target_norm=self.TARGET,
                        stop_at_target=True, runtime="flat")
        out = {}
        for key, cls in self.METHODS:
            steps: list[float] = []
            tracer = RunTracer() if self.traced else None
            with sp_.span(f"core.{key}.setup_s"):
                runner = cls(system, seed=0, tracer=tracer)
            wrap_method(sp_, runner, f"core.{key}", steps)
            res = solve(self.A, method=runner, x0=self.x0, b=self.b,
                        config=cfg)
            out[key] = (res, runner.engine.stats)
            if self.traced:
                sp_.add(f"core.{key}.step_s", sum(steps))
                lay[f"core.{key}.step_ms"] = 1e3 * sum(steps) / len(steps)
                lay[f"core.{key}.steps"] = res.parallel_steps
                secs, _ = phase_totals(tracer)
                for phase in ("relax", "apply", "finalize"):
                    add(lay, f"core.{phase}_s", secs.get(phase, 0.0))
            del runner
        t_total = perf() - t0

        true_rel = 0.0
        for key, (res, st) in out.items():
            tn = true_norm(self.S, self.b, res.x)
            true_rel = max(true_rel, tn / self.r0)
            self.expect(norms_agree(tn, res.final_norm, self.r0),
                        key, "residual", f"true residual {tn:.6e} vs "
                        f"reported {res.final_norm:.6e}")
            self.expect(tn <= self.TARGET, key, "target",
                        f"true residual {tn:.3e} above {self.TARGET}")
            self.expect(st.total_receives == st.total_messages,
                        key, "receives", f"receives {st.total_receives} "
                        f"!= messages {st.total_messages}")
            self.expect(self.same_as_first(key, res.x), key,
                        "determinism", "solution differs from round 1")
        ds, ps = out["ds"][0], out["ps"][0]
        self.expect(ds.comm_cost < ps.comm_cost, "ds", "ds-vs-ps",
                    f"msgs/proc {ds.comm_cost:.2f} not below PS "
                    f"{ps.comm_cost:.2f} at the common target")
        n = self.A.n_rows
        values = {
            "total_s": t_total,
            "setup_s": t_setup,
            "solve_s": t_total - t_setup,
            "msgs_per_proc": ds.comm_cost + ps.comm_cost,
            "relax_per_n": (ds.relaxations + ps.relaxations) / n,
            "steps": ds.parallel_steps + ps.parallel_steps,
            "sim_time_s": ds.simulated_time + ps.simulated_time,
            "true_rel_residual": true_rel,
        }
        if self.traced:
            lay["partition.edge_cut"] = edge_cut(self.A, part.parts)
            for key, (res, st) in out.items():
                lay[f"runtime.{key}.msgs_per_proc"] = res.comm_cost
                add(lay, "runtime.residual_msgs_per_proc",
                    st.category_msgs.get(CATEGORY_RESIDUAL, 0) / st.n_procs)
                add(lay, "runtime.bytes_per_proc",
                    st.total_bytes / st.n_procs)
            lay["runtime.ps_over_ds_msgs"] = ps.comm_cost / ds.comm_cost
        return values, len(out)


class AsyncStragglers(Workload):
    """Event-driven block methods, batched scheduler, every 8th rank at
    half speed: a clean 96² / P = 256 PS solve and a lossy (20 % drop)
    64² / P = 64 DS solve, each stopped at ‖r‖ ≤ 1e-2.

    The clean solve's initial guess comes from ``--seed``.  It runs PS,
    not DS: fault-free event-driven DS parks every rank above the
    target on about one seed in ten (see the README), and PS, which
    sends its norm on every change, cannot park with a stale estimate.
    The lossy solve always runs the same inputs (``LOSSY_SEED``): its
    reported final norm misses the deltas of solve messages dropped at
    the end of the run, so its residual check fails on every input, and
    only a seed-independent failure keeps the failed share of a run the
    same on every seed.
    """

    TARGET = 1e-2
    LOSSY_SEED = 7
    CASES = (("clean", 96, 256, 0.0, "ps", ParallelSouthwell),
             ("lossy", 64, 64, 0.2, "ds", DistributedSouthwell))

    def __init__(self, seed, traced):
        super().__init__(traced)
        t0 = perf()
        mats = [symmetric_unit_diagonal_scale(poisson_2d(side)).matrix
                for _, side, *_ in self.CASES]
        self.generate_s = perf() - t0
        self.cases = []
        for (name, side, P, drop, key, cls), A in zip(self.CASES, mats):
            s = self.LOSSY_SEED if drop else seed
            S = scipy_csr(A)
            b = np.zeros(A.n_rows)
            x0 = np.random.default_rng(s).uniform(-1.0, 1.0, A.n_rows)
            x0 = x0 / true_norm(S, b, x0)
            plan = FaultPlan.uniform(drop=drop, seed=s) if drop else None
            speeds = tuple((r, 0.5) for r in range(0, P, 8))
            self.cases.append((name, key, cls, A, S, P, x0, b, plan,
                               speeds))

    def round(self):
        sp_, lay = self.spans, self.layer
        vals = dict.fromkeys(("total_s", "setup_s", "solve_s",
                              "msgs_per_proc", "relax_per_n", "steps",
                              "sim_time_s", "true_rel_residual"), 0.0)
        clocks = idle = 0.0
        for name, key, cls, A, S, P, x0, b, plan, speeds in self.cases:
            t0 = perf()
            with sp_.span("partition.partition_s"):
                part = partition(A, P, method="multilevel", seed=0)
            with sp_.span("blockdata.build_s"):
                system = build_block_system(A, part)
            t1 = perf()
            with sp_.span(f"core.{key}.setup_s"):
                runner = cls(system, seed=0, faults=plan)
                ex = AsyncExecutor(runner, speed_factors=speeds,
                                   scheduler="batched")
            with sp_.span("async.prepare_s"):
                ex.prepare(x0, b)
            with sp_.span(f"async.{name}.run_s"):
                hist = ex.run(max_steps=10 ** 6, target_norm=self.TARGET,
                              stop_at_target=True)
            with sp_.span(f"core.{key}.solution_s"):
                x = runner.solution()
            t2 = perf()

            st = runner.engine.stats
            injected = (runner._faults.summary()
                        if runner._faults is not None else {})
            drops = sum(v for k, v in injected.items()
                        if k.startswith("drop:"))
            r0 = true_norm(S, b, x0)
            tn = true_norm(S, b, x)
            self.expect(not runner.degraded, name, "degraded",
                        str(runner.degraded_reason))
            self.expect(norms_agree(tn, hist.final_norm, r0),
                        name, "residual", f"true residual {tn:.6e} vs "
                        f"reported {hist.final_norm:.6e}")
            self.expect(min(hist.residual_norms) <= self.TARGET,
                        name, "target", "stopped before the target")
            # a put that supersedes a still-in-flight one (RMA overwrite)
            # is sent but never read, so receives can only fall short
            self.expect(st.total_receives <= st.total_messages - drops,
                        name, "receives", f"receives {st.total_receives} "
                        f"> messages {st.total_messages} - drops {drops}")
            self.expect((plan is not None) == (drops > 0), name, "drops",
                        f"{drops} drops under plan {plan}")
            self.expect(self.same_as_first(name, x), name,
                        "determinism", "solution differs from round 1")

            vals["total_s"] += t2 - t0
            vals["setup_s"] += t1 - t0
            vals["solve_s"] += t2 - t1
            vals["msgs_per_proc"] += st.communication_cost()
            vals["relax_per_n"] += runner.total_relaxations / A.n_rows
            vals["steps"] += ex.turns
            vals["sim_time_s"] += ex.aplane.elapsed
            vals["true_rel_residual"] = max(vals["true_rel_residual"],
                                            tn / r0)
            clocks += float(np.sum(ex.aplane.clocks))
            idle += float(np.sum(ex.aplane.idle))
            if self.traced:
                lay[f"async.{name}.turns"] = ex.turns
                lay[f"async.{name}.turns_per_macro"] = (
                    ex.turns / ex.sched_stats["macro_turns"])
                add(lay, "partition.edge_cut", edge_cut(A, part.parts))
                lay[f"runtime.{key}.msgs_per_proc"] = st.communication_cost()
                add(lay, "runtime.residual_msgs_per_proc",
                    st.category_msgs.get(CATEGORY_RESIDUAL, 0) / P)
                add(lay, "runtime.bytes_per_proc", st.total_bytes / P)
                if plan is not None:
                    lay["faults.drops"] = drops
                    lay["faults.repairs"] = runner.repairs_sent
            del runner, ex, system
        if self.traced:
            lay["async.idle_share"] = idle / clocks
        return vals, len(self.cases)


class MgVcycle(Workload):
    """``solve(A, method="mg")`` on the 1/h²-scaled 5-point Laplacian,
    d = 255, geometric hierarchy, block-DS smoother at P = 64 per level,
    1-sweep budget, 9 V-cycles, seeded RHS, zero initial guess."""

    D = 255
    P = 64
    CYCLES = 9
    REDUCTION = 1e-6          # Figure 6's rate over 9 cycles

    def __init__(self, seed, traced):
        super().__init__(traced)
        t0 = perf()
        h = 1.0 / (self.D + 1)
        self.A = poisson_2d(self.D).scale(1.0 / h ** 2)
        self.generate_s = perf() - t0
        self.S = scipy_csr(self.A)
        self.b = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                                     self.A.n_rows)

    def round(self):
        clock = LifecycleRunTracer() if self.traced else LifecycleClock()
        cfg = RunConfig(n_parts=self.P, seed=0, trace=clock,
                        mg=MultigridConfig(smoother="ds", budget=1.0,
                                           cycles=self.CYCLES,
                                           hierarchy="geometric"))
        t0 = perf()
        res = solve(self.A, b=self.b, method="mg", config=cfg)
        t2 = perf()
        t1 = clock.begun

        r0 = true_norm(self.S, self.b, np.zeros(self.A.n_rows))
        tn = true_norm(self.S, self.b, res.x)
        self.expect(norms_agree(tn, res.final_norm, r0), "mg", "residual",
                    f"true residual {tn:.6e} vs reported "
                    f"{res.final_norm:.6e}")
        self.expect(tn <= self.REDUCTION * r0, "mg", "reduction",
                    f"residual reduced {r0 / tn:.3g}x in {self.CYCLES} "
                    f"cycles")
        rows = res.levels
        n_procs = max(row.n_parts for row in rows)
        msgs = sum(row.msgs for row in rows)
        self.expect(sum(row.relaxations for row in rows) == res.relaxations
                    and msgs / n_procs == res.comm_cost, "mg", "levels",
                    "LevelStats rows do not sum to the run totals")
        self.expect(self.same_as_first("mg", res.x), "mg", "determinism",
                    "solution differs from round 1")
        values = {
            "total_s": t2 - t0,
            "setup_s": t1 - t0,
            "solve_s": t2 - t1,
            "msgs_per_proc": res.comm_cost,
            "relax_per_n": res.relaxations / self.A.n_rows,
            "steps": res.cycles,
            "sim_time_s": res.simulated_time,
            "true_rel_residual": tn / r0,
        }
        if self.traced:
            sp_, lay = self.spans, self.layer
            sp_.add("mg.level_setup_s", t1 - t0)
            sp_.add("mg.cycle_s", clock.ended - t1)
            sp_.add("mg.result_s", t2 - clock.ended)
            secs, count = phase_totals(clock)
            lay["partition.partition_s"] = secs.get("setup:partition", 0.0)
            lay["blockdata.build_s"] = secs.get("setup:block_build", 0.0)
            for phase in ("relax", "apply", "finalize"):
                lay[f"core.{phase}_s"] = secs.get(phase, 0.0)
            # every block step of a level runner opens one relax phase
            lay["core.ds.steps"] = count.get("relax", 0)
            lay["mg.smooth_s"] = sum(v for k, v in secs.items()
                                     if k.endswith((":pre", ":post")))
            lay["mg.transfer_s"] = (secs.get("mg:restrict", 0.0)
                                    + secs.get("mg:prolong", 0.0))
            lay["mg.fine_msgs_share"] = rows[0].msgs / msgs
            lay["runtime.ds.msgs_per_proc"] = res.comm_cost
            lay["runtime.residual_msgs_per_proc"] = res.residual_comm
            lay["runtime.bytes_per_proc"] = (
                sum(row.bytes for row in rows) / n_procs)
        return values, 1


WORKLOADS = {
    "poisson-1m": Poisson1M,
    "async-stragglers": AsyncStragglers,
    "mg-vcycle": MgVcycle,
}


# ----------------------------------------------------------------------
def host_sample() -> dict:
    """CPU count, 1-minute load average and /proc/stat steal ticks."""
    steal = None
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        if len(fields) > 8:
            steal = int(fields[8])
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "load1": os.getloadavg()[0],
            "steal_ticks": steal}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-rounds", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    host_before = host_sample()
    wl = WORKLOADS[args.workload](args.seed, args.traced)
    rounds, spans, layers, failures = [], [], [], []
    attempted = failed = 0
    t_start = perf()
    while (len(rounds) < args.min_rounds
           or perf() - t_start < args.seconds):
        values, solves = wl.run_round()
        rounds.append(values)
        spans.append(wl.spans.totals)
        layers.append(wl.layer)
        attempted += solves
        failed += len({solve_name for solve_name, _, _ in wl.failures})
        failures.extend(wl.failures)
    for solve_name, check, msg in dict.fromkeys(failures):
        print(f"check failed: {solve_name}/{check}: {msg}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "rounds": rounds,
        "spans": spans,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f"{k}/{c}" for k, c, _ in failures}),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": {"before": host_before, "after": host_sample()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
