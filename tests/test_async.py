"""Tests for the event-driven async plane and async Distributed Southwell.

The plane tests drive :class:`~repro.runtime.asyncplane.AsyncFlatPlane`
directly on a hand-built edge topology; the method tests drive
:class:`~repro.core.DistributedSouthwell` through
:class:`~repro.core.async_exec.AsyncExecutor` (``solve(runtime="async")``'s
engine).
"""

import numpy as np
import pytest

from repro.core import DistributedSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import build_block_system
from repro.partition import partition
from repro.runtime import (
    CATEGORY_SOLVE,
    AsyncFlatPlane,
    CostModel,
    FlatEdgePlane,
    MessageStats,
)


def make_plane(n_procs, edges, cost_model, latency=0.0, speed=None):
    """An async plane over directed ``edges`` (one value per message)."""
    stats = MessageStats(n_procs)
    flat = FlatEdgePlane(n_procs, stats, [(s, d, 1, 0) for s, d in edges])
    return AsyncFlatPlane(flat, stats, cost_model=cost_model,
                          latency=latency, speed_factors=speed)


def send(aplane, src, dst, kind=0, norm=0.0):
    """Send one message on edge ``(src, dst)``'s ``kind`` slot."""
    sid = 2 * aplane.plane.edge_index[(src, dst)] + kind
    return aplane.send(src, np.array([sid]), norm, 0.0, 8, CATEGORY_SOLVE)


# ------------------------------------------------------------- plane
def test_clocks_advance_with_compute_and_sends():
    cm = CostModel(alpha=1.0, alpha_recv=0.5, beta=0.0, gamma=2.0)
    ap = make_plane(2, [(0, 1)], cm, latency=10.0)
    ap.advance_compute(0, 3.0)
    assert ap.clocks[0] == 6.0
    send(ap, 0, 1)
    assert ap.clocks[0] == 7.0
    # not delivered yet: receiver clock is 0 < 7 + 10
    assert ap.deliver(1) == []
    ap.advance_idle(1, 17.0)
    assert len(ap.deliver(1)) == 1
    assert ap.clocks[1] == 17.5          # + alpha_recv
    assert ap.stats.total_messages == ap.stats.total_receives == 1


def test_message_visibility_respects_latency():
    ap = make_plane(2, [(0, 1)],
                    CostModel(alpha=0.0, alpha_recv=0.0, beta=0.0,
                              gamma=0.0), latency=100.0)
    send(ap, 0, 1)
    ap.advance_idle(1, 99.9)
    assert ap.deliver(1) == []
    ap.advance_idle(1, 0.2)
    assert len(ap.deliver(1)) == 1
    assert ap.in_flight == 0


def test_scheduler_picks_smallest_clock():
    ap = make_plane(3, [(0, 1)], CostModel())
    p0 = ap.next_process()
    ap.advance_idle(p0, 1.0)
    ap.reschedule(p0)
    p1 = ap.next_process()
    assert p1 != p0
    ap.advance_idle(p1, 2.0)
    ap.reschedule(p1)
    p2 = ap.next_process()
    assert p2 not in (p0, p1)
    ap.advance_idle(p2, 3.0)
    ap.reschedule(p2)
    assert ap.next_process() == p0       # smallest clock again


def test_speed_factors_scale_compute_only():
    cm = CostModel(alpha=1.0, alpha_recv=0.0, beta=0.0, gamma=1.0)
    ap = make_plane(2, [(1, 0)], cm, speed=np.array([1.0, 0.5]))
    ap.advance_compute(0, 4.0)
    ap.advance_compute(1, 4.0)
    assert ap.clocks[0] == 4.0
    assert ap.clocks[1] == 8.0           # half speed
    send(ap, 1, 0)
    assert ap.clocks[1] == 9.0           # wire time not scaled


def test_engine_validation():
    cm = CostModel()
    with pytest.raises(ValueError):
        make_plane(0, [], cm)
    with pytest.raises(ValueError):
        make_plane(2, [(0, 1)], cm, latency=-1.0)
    with pytest.raises(ValueError):
        make_plane(2, [(0, 1)], cm, speed=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        make_plane(2, [(0, 1)], cm, speed=np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        make_plane(2, [(0, 0)], cm)       # a process does not message itself
    ap = make_plane(2, [(0, 1)], cm)
    ap.advance_idle(0, -1.0)              # an idle wait never runs backwards
    assert ap.clocks[0] == 0.0 and ap.idle[0] == 0.0


def test_fifo_per_sender_preserved():
    """One sender's surviving messages arrive in the order they were
    sent; a newer put to a still-in-flight slot supersedes the older
    one (RMA overwrite), so the receiver never reads a stale payload
    after a fresh one."""
    ap = make_plane(2, [(0, 1)], CostModel(alpha=1.0, alpha_recv=0.0,
                                           beta=0.0, gamma=0.0))
    send(ap, 0, 1, kind=0, norm=1.0)      # stamped 1
    send(ap, 0, 1, kind=1, norm=2.0)      # stamped 2
    send(ap, 0, 1, kind=0, norm=3.0)      # stamped 3, overwrites the first
    assert ap.in_flight == 2
    ap.advance_idle(1, 100.0)
    sids = ap.deliver(1)
    assert [s & 1 for s in sids] == [1, 0]        # stamp order
    assert [ap.wire_norm[s] for s in sids] == [2.0, 3.0]
    assert ap.deliver(1) == []


# ------------------------------------------------------------ async DS
@pytest.fixture(scope="module")
def async_setup(fem_300):
    part = partition(fem_300, 8, seed=0)
    system = build_block_system(fem_300, part)
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-1, 1, fem_300.n_rows)
    b = np.zeros(fem_300.n_rows)
    x0 /= np.linalg.norm(fem_300.matvec(x0))
    return system, x0, b


def run_async(system, x0, b, *, speed_factors=None, **run_kw):
    """Event-driven DS; returns (runner, executor, history)."""
    ds = DistributedSouthwell(system)
    ex = AsyncExecutor(ds, speed_factors=speed_factors, record_every=64)
    hist = ex.run(x0, b, **run_kw)
    return ds, ex, hist


def test_async_ds_converges(async_setup):
    system, x0, b = async_setup
    _, _, hist = run_async(system, x0, b, max_turns=10_000,
                           target_norm=0.02, stop_at_target=True)
    assert hist.final_norm <= 0.02


def test_async_ds_residual_exact_after_drain(async_setup, fem_300):
    """The run ends by draining every in-flight message, after which
    the incrementally maintained residual is the true ``b − Ax``."""
    system, x0, b = async_setup
    ds, ex, _ = run_async(system, x0, b, max_turns=3_000)
    assert ex.aplane.in_flight == 0
    r_true = b - fem_300.matvec(ds.solution())
    assert np.allclose(ds.residual_vector(), r_true, atol=1e-11)


def test_async_ds_time_comparable_to_lockstep(async_setup):
    """Same algorithm, two execution models: time-to-target should land
    in the same ballpark (within 3x either way)."""
    system, x0, b = async_setup
    _, ex, ha = run_async(system, x0, b, max_turns=50_000,
                          target_norm=0.05, stop_at_target=True)
    t_async = ex.aplane.elapsed
    ds = DistributedSouthwell(system)
    ds.run(x0, b, max_steps=200, target_norm=0.05, stop_at_target=True)
    t_sync = ds.engine.stats.elapsed_time()
    assert ha.final_norm <= 0.05
    assert t_async < 3.0 * t_sync
    assert t_sync < 3.0 * t_async


def test_async_absorbs_straggler(async_setup):
    """A 4x-slower process barely affects async time-to-target, while it
    stretches every lockstep step."""
    system, x0, b = async_setup
    P = system.n_parts
    slow = np.ones(P)
    slow[2] = 0.25
    _, uniform, _ = run_async(system, x0, b, max_turns=50_000,
                              target_norm=0.05, stop_at_target=True)
    _, straggled, h = run_async(system, x0, b, speed_factors=slow,
                                max_turns=50_000, target_norm=0.05,
                                stop_at_target=True)
    assert h.final_norm <= 0.05
    assert straggled.aplane.elapsed < 2.0 * uniform.aplane.elapsed


def test_async_ds_validation(async_setup):
    system, x0, b = async_setup
    with pytest.raises(ValueError):
        AsyncExecutor(DistributedSouthwell(system), poll_interval=0.0)
    with pytest.raises(ValueError):
        AsyncExecutor(DistributedSouthwell(system), record_every=0)
    ex = AsyncExecutor(DistributedSouthwell(system))
    with pytest.raises(ValueError):
        ex.run()                          # no x0/b and no prepare()
    with pytest.raises(ValueError):
        AsyncExecutor(DistributedSouthwell(system),
                      speed_factors=np.ones(system.n_parts + 1)).run(x0, b)


def test_lockstep_straggler_support(async_setup):
    """The lockstep engine's speed_factors stretch priced steps."""
    system, x0, b = async_setup
    P = system.n_parts
    slow = np.ones(P)
    slow[0] = 0.1
    fast = DistributedSouthwell(system)
    fast.run(x0, b, max_steps=10)
    slowed = DistributedSouthwell(system, speed_factors=slow)
    slowed.run(x0, b, max_steps=10)
    # identical mathematics, strictly more simulated time
    assert (slowed.history.residual_norms == fast.history.residual_norms)
    assert (slowed.engine.stats.elapsed_time()
            > fast.engine.stats.elapsed_time())
