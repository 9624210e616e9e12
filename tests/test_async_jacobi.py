"""Tests for asynchronous (chaotic) Block Jacobi: the lockstep
:class:`~repro.solvers.block_jacobi.BlockJacobi` driven event by event by
:class:`~repro.core.async_exec.AsyncExecutor`."""

import numpy as np
import pytest

from repro.core import DistributedSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import build_block_system
from repro.matrices import fem_poisson_2d
from repro.matrices.suite import load_problem
from repro.partition import partition
from repro.solvers.block_jacobi import BlockJacobi


@pytest.fixture(scope="module")
def m_matrix_setup():
    prob = fem_poisson_2d(target_rows=800, seed=0)
    part = partition(prob.matrix, 10, seed=0)
    system = build_block_system(prob.matrix, part)
    x0, b = prob.initial_state(seed=0)
    return prob.matrix, system, x0, b


def run_async_bj(system, x0, b, *, speed_factors=None, record_every=50,
                 **run_kw):
    """Event-driven BJ; returns (runner, executor, history)."""
    bj = BlockJacobi(system)
    ex = AsyncExecutor(bj, speed_factors=speed_factors,
                       record_every=record_every)
    hist = ex.run(x0, b, **run_kw)
    return bj, ex, hist


def test_async_bj_converges_on_m_matrix(m_matrix_setup):
    A, system, x0, b = m_matrix_setup
    bj, _, hist = run_async_bj(system, x0, b, max_turns=30_000)
    # the run ends drained, so the final norm is the true residual's
    assert hist.final_norm <= 0.01
    assert np.isclose(hist.final_norm,
                      np.linalg.norm(b - A.matvec(bj.solution())))


def test_async_bj_straggler_tolerance(m_matrix_setup):
    A, system, x0, b = m_matrix_setup
    slow = np.ones(system.n_parts)
    slow[1] = 0.25
    _, _, hu = run_async_bj(system, x0, b, max_turns=30_000)
    _, _, hs = run_async_bj(system, x0, b, speed_factors=slow,
                            max_turns=30_000)
    # simulated time at which the sampled residual first reaches 0.05
    t_uniform = hu.cost_to_reach(0.05, axis="times")
    t_straggled = hs.cost_to_reach(0.05, axis="times")
    assert t_uniform is not None and t_straggled is not None
    # asynchronous Jacobi shrugs the straggler off (< 2.5x penalty versus
    # the near-4x a lockstep all-active method would pay compute-bound)
    assert t_straggled < 2.5 * t_uniform


def test_async_bj_stagnates_on_small_hard_blocks():
    """On a calibrated hard suite member with small blocks, synchronous
    Block Jacobi diverges.  Chaotic relaxation over latest-wins slots
    does not blow up, but it stagnates: with the same turn budget on the
    same plane, Distributed Southwell ends an order of magnitude lower."""
    prob = load_problem("bone010", size_scale=0.5)
    part = partition(prob.matrix, 128, seed=0)
    system = build_block_system(prob.matrix, part)
    x0, b = prob.initial_state(seed=0)
    lockstep = BlockJacobi(system).run(x0, b, max_steps=100)
    assert lockstep.final_norm > 1.0 or lockstep.diverged()
    _, _, hist = run_async_bj(system, x0, b, max_turns=60_000,
                              record_every=256)
    ds = DistributedSouthwell(system)
    AsyncExecutor(ds, record_every=256).run(x0, b, max_turns=60_000)
    assert hist.final_norm > 1e-2
    assert ds.global_norm() < 0.25 * hist.final_norm


def test_async_bj_validation(m_matrix_setup):
    _, system, x0, b = m_matrix_setup
    with pytest.raises(ValueError):
        AsyncExecutor(BlockJacobi(system), poll_interval=0.0)
    ex = AsyncExecutor(BlockJacobi(system))
    with pytest.raises(ValueError):
        ex.run()                          # no x0/b and no prepare()


def test_async_bj_solution_assembly(m_matrix_setup):
    A, system, x0, b = m_matrix_setup
    bj, _, _ = run_async_bj(system, x0, b, max_turns=500)
    x = bj.solution()
    assert x.shape == (A.n_rows,)
    assert np.all(np.isfinite(x))
    # the drained residual is the true one
    assert np.allclose(bj.residual_vector(), b - A.matvec(x), atol=1e-10)
