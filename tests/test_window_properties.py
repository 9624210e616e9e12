"""Property-based tests for the window system and async engine delivery.

Delivery guarantees the solvers rely on, checked over random traffic:

- lockstep: every put is delivered exactly once, after exactly one epoch
  close (no delays), in per-sender FIFO order;
- with delays: still exactly once, still per-sender FIFO, eventually;
- async slab plane: every slot's latest put is delivered exactly once,
  never before its stamp, in stamp order per receiver; the scheduler
  hands out clocks in non-decreasing order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    CATEGORY_SOLVE,
    AsyncFlatPlane,
    CostModel,
    FlatEdgePlane,
    MessageStats,
    WindowSystem,
)


def async_plane(n_procs, latency=0.0, cost_model=None):
    """An async plane over the complete directed graph on ``n_procs``."""
    stats = MessageStats(n_procs)
    edges = [(s, d, 1, 0) for s in range(n_procs) for d in range(n_procs)
             if s != d]
    return AsyncFlatPlane(FlatEdgePlane(n_procs, stats, edges), stats,
                          cost_model=cost_model or CostModel(),
                          latency=latency)


def traffic(n_procs=4, max_msgs=40):
    """Strategy: a list of (src, dst) pairs with src != dst."""
    pair = st.tuples(st.integers(0, n_procs - 1),
                     st.integers(0, n_procs - 1)).filter(
        lambda t: t[0] != t[1])
    return st.lists(pair, min_size=0, max_size=max_msgs)


@given(traffic())
@settings(max_examples=50, deadline=None)
def test_lockstep_exactly_once_and_fifo(pairs):
    ws = WindowSystem(4)
    for k, (src, dst) in enumerate(pairs):
        ws.put(src, dst, CATEGORY_SOLVE, {"k": float(k)})
    ws.close_epoch()
    seen = []
    for p in range(4):
        last_per_sender: dict[int, float] = {}
        for msg in ws.drain(p):
            assert msg.dst == p
            k = msg.payload["k"]
            seen.append(k)
            if msg.src in last_per_sender:
                assert k > last_per_sender[msg.src], "FIFO violated"
            last_per_sender[msg.src] = k
    assert sorted(seen) == [float(k) for k in range(len(pairs))]
    # nothing left anywhere
    assert ws.in_flight == 0
    assert all(not ws.drain(p) for p in range(4))


@given(traffic(), st.floats(0.1, 0.8), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_delayed_delivery_exactly_once(pairs, prob, seed):
    ws = WindowSystem(4, delay_probability=prob, seed=seed)
    for k, (src, dst) in enumerate(pairs):
        ws.put(src, dst, CATEGORY_SOLVE, {"k": float(k)})
    seen = []
    for _ in range(200):
        ws.close_epoch()
        for p in range(4):
            seen.extend(m.payload["k"] for m in ws.drain(p))
        if len(seen) == len(pairs):
            break
    else:
        ws.flush_all()
        for p in range(4):
            seen.extend(m.payload["k"] for m in ws.drain(p))
    assert sorted(seen) == [float(k) for k in range(len(pairs))]


@given(traffic(), st.floats(0.0, 50.0))
@settings(max_examples=30, deadline=None)
def test_async_delivery_respects_stamps(pairs, latency):
    cm = CostModel(alpha=1.0, alpha_recv=0.0, beta=0.0, gamma=0.0)
    ap = async_plane(4, latency=latency, cost_model=cm)
    stamps = {}
    for k, (src, dst) in enumerate(pairs):
        # alternate slot kinds so both mailboxes of an edge see traffic
        sid = 2 * ap.plane.edge_index[(src, dst)] + k % 2
        ap.send(src, np.array([sid]), float(k), 0.0, 8, CATEGORY_SOLVE)
        stamps[sid] = float(ap.deliver_at[sid])   # latest put wins
    seen = []
    for p in range(4):
        # before advancing: nothing later than the clock is readable
        for sid in ap.deliver(p):
            assert stamps[sid] <= ap.clocks[p]
            seen.append(sid)
    # advance everyone far enough and read the rest, in stamp order
    for p in range(4):
        ap.advance_idle(p, 1e6)
        got = ap.deliver(p)
        assert [stamps[s] for s in got] == sorted(stamps[s] for s in got)
        seen.extend(got)
    assert sorted(seen) == sorted(stamps)          # each slot exactly once
    assert ap.in_flight == 0
    assert ap.stats.total_receives == len(stamps)


@given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=6))
@settings(max_examples=30, deadline=None)
def test_async_scheduler_is_min_clock(advances):
    n = len(advances)
    ap = async_plane(n)
    order = []
    for adv in sorted(advances):
        p = ap.next_process()
        order.append(float(ap.clocks[p]))
        ap.advance_idle(p, adv)
        ap.reschedule(p)
    # the clock values handed out are non-decreasing
    assert order == sorted(order)
