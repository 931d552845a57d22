"""Memory-shape guards: who holds noise blocks and ladder levels, and for how long.

numpy reports its data buffers to ``tracemalloc``, so peaks are measured on
this process's own allocations without OS counters.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import mfsde.dynamics as dynamics
import mfsde.feynman_kac as feynman_kac
from mfsde import (
    ContractError,
    EmpiricalMeasure,
    StreamedFlow,
    build_pair_from_V,
    dirac,
    ito_residual_ensemble,
    make_coefficients,
    make_cylindrical,
    pde_residual_mc,
    simulate_mckean_vlasov,
    verify_path_independence,
)
from mfsde.dynamics import DOMAIN_DECOUPLED, DOMAIN_INTERACTING, stream_mckean_vlasov
from mfsde.feynman_kac import McValueFunction
from mfsde.measure import _cost_matrix

BROWNIAN = make_coefficients("brownian", s=1.0)
LADDER = (0.02, 0.01, 0.005)


def _ladder_pair():
    V = make_cylindrical("x_norm_sq")
    f, g = build_pair_from_V(BROWNIAN, V)
    return V, f, g


def _level(dt, n, seed):
    return simulate_mckean_vlasov(BROWNIAN, dirac([0.0]), n, 1.0, dt, seed)


def test_generator_ladder_peaks_near_one_level():
    n = 2000
    V, f, g = _ladder_pair()

    def level_bytes(dt):
        steps = round(1.0 / dt)
        return 8 * n * ((steps + 1) * BROWNIAN.d + steps * BROWNIAN.m)

    largest = level_bytes(LADDER[-1])
    # holding every level at once would cross the bound
    assert sum(level_bytes(dt) for dt in LADDER) > 1.5 * largest
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verify_path_independence(
            V, f, g, (_level(dt, n, 8 + k) for k, dt in enumerate(LADDER)), 0.0, 1.0
        )
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * largest


def test_previous_level_freed_before_next_is_simulated():
    V, f, g = _ladder_pair()
    refs = []
    freed = []

    def tracked(flow):
        refs.extend((weakref.ref(flow), weakref.ref(flow.states), weakref.ref(flow.noise)))
        return flow

    def levels():
        for k, dt in enumerate(LADDER):
            freed.append(all(ref() is None for ref in refs))
            yield tracked(_level(dt, 50, 8 + k))

    verify_path_independence(V, f, g, levels(), 0.0, 1.0)
    assert freed == [True] * len(LADDER)


def _counted_draws(monkeypatch):
    """(domain, first, n_particles, n_steps) of every noise draw the sampler makes."""
    draws = []
    draw = dynamics._raw_normals

    def counted(seed, n_particles, n_steps, m, domain, first=0):
        draws.append((domain, first, n_particles, n_steps))
        return draw(seed, n_particles, n_steps, m, domain, first)

    monkeypatch.setattr(dynamics, "_raw_normals", counted)
    return draws


def _assert_each_stream_drawn_once(draws, n_flow, M, n_steps):
    """One flow block, and decoupled chunks that cover [0, M) exactly once."""
    assert [d for d in draws if d[0] == DOMAIN_INTERACTING] == [
        (DOMAIN_INTERACTING, 0, n_flow, n_steps)]
    chunks = [d for d in draws if d[0] == DOMAIN_DECOUPLED]
    assert len(chunks) > 1
    assert all(n == n_steps for _, _, _, n in chunks)
    particles = [i for _, first, count, _ in chunks for i in range(first, first + count)]
    assert particles == list(range(M))


def test_pde_residual_draws_one_block_per_domain(monkeypatch):
    # each particle's stream is drawn exactly once per domain per table,
    # counted over the chunks of the decoupled domain
    draws = _counted_draws(monkeypatch)
    monkeypatch.setattr(feynman_kac, "TILE", 100)
    monkeypatch.setattr(feynman_kac, "CHUNK_UNIT", 15)
    coeff = make_coefficients("mean_revert", rate=1.0, s=1.0)
    mu = EmpiricalMeasure(np.linspace(-1.0, 1.0, 20)[:, None])
    vf = McValueFunction(
        coeff=coeff, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=0.5, dt=0.05,
        M=200, seed=3, mu=mu, n_flow=20,
    )
    pde_residual_mc(vf, "linear", [(0.0, [0.3]), (0.2, [-0.4])], n_measure_draws=2)
    _assert_each_stream_drawn_once(draws, 20, 200, 10)


def test_pde_residual_draws_once_whatever_the_probe_order(monkeypatch):
    draws = _counted_draws(monkeypatch)
    monkeypatch.setattr(feynman_kac, "TILE", 40)
    monkeypatch.setattr(feynman_kac, "CHUNK_UNIT", 4)
    vf = McValueFunction(
        coeff=make_coefficients("brownian", s=1.0), Phi=make_cylindrical("x_norm_sq"),
        f_field=None, T=0.5, dt=0.05, M=50, seed=3, mu=dirac([0.0]), n_flow=10,
    )
    # a later probe first, then the earliest, then one with a backward stencil
    probes = [(0.2, [0.3]), (0.0, [0.0]), (0.5, [-0.4])]
    table = pde_residual_mc(vf, "linear", probes)
    assert len(table.rows) == 3
    _assert_each_stream_drawn_once(draws, 10, 50, 10)


def test_pde_residual_peak_stays_below_one_noise_block():
    M, dt = 20_000, 0.01
    block = 8 * round(1.0 / dt) * M  # the (L, M, m) raw block of the decoupled paths
    vf = McValueFunction(
        coeff=BROWNIAN, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=1.0, dt=dt,
        M=M, seed=19, mu=dirac([0.0]),
    )
    probes = [(0.0, [0.0]), (0.5, [1.0])]
    # the two probes' (M, 7) sample tables (2.2 MB), one chunk of noise
    # (2.5 MB) and six frozen flows; holding the whole block would cross the
    # bound by itself
    peak = _peak_of(lambda: pde_residual_mc(vf, "linear", probes))
    assert peak < 0.75 * block


def test_table_flows_share_one_read_only_increment_block(monkeypatch):
    flows = []
    record = feynman_kac._record

    def kept(*args):
        flows.append(record(*args))
        return flows[-1]

    monkeypatch.setattr(feynman_kac, "_record", kept)
    n_flow, dt = 6, 0.05
    vf = McValueFunction(
        coeff=MEAN_REVERT, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=0.5, dt=dt,
        M=40, seed=4, mu=dirac([0.0]), n_flow=n_flow,
    )
    pde_residual_mc(vf, "linear", [(0.0, [0.3]), (0.25, [-0.4])], n_measure_draws=1)
    # per probe: the centre's flow, two time points' and two shifted measures'
    assert len(flows) == 2 * (3 + 2)
    block = flows[0].noise
    assert block.shape == (10, n_flow, 1)
    full = dynamics.brownian_increments(4, n_flow, 10, 1, dt)
    for flow in flows:
        # each flow's noise is a step prefix of the one block, never a copy
        assert np.shares_memory(flow.noise, block) and not flow.noise.flags.writeable
        assert flow.noise.tobytes() == full[: flow.n_steps].tobytes()
    # after every flow and every column has run, the block still holds its draw
    assert block.tobytes() == full.tobytes()


def test_streamed_increments_are_read_only_rows_of_the_run_block():
    coeff = make_coefficients("mean_revert", d=2, rate=1.0, s=0.5)
    init = EmpiricalMeasure(np.random.default_rng(0).standard_normal((6, 2)))
    seen = []

    def hook(t, x, mu, dw):
        if dw is not None:
            assert not dw.flags.writeable
            seen.append(dw)

    law = stream_mckean_vlasov(coeff, init, 6, 1.0, 0.25, seed=4, hook=hook)
    expected = dynamics.brownian_increments(4, 6, 4, 2, 0.25)
    assert len(seen) == 4
    for k, dw in enumerate(seen):
        assert dw.tobytes() == expected[k].tobytes()
    own = simulate_mckean_vlasov(coeff, init, 6, 1.0, 0.25, seed=4)
    assert own.noise.tobytes() == expected.tobytes()
    assert law.points.tobytes() == own.states[-1].tobytes()


def test_ladder_rejects_empty_and_finest_first():
    V, f, g = _ladder_pair()
    with pytest.raises(ContractError, match="at least one flow"):
        verify_path_independence(V, f, g, [], 0.0, 1.0)
    with pytest.raises(ContractError, match="at least one flow"):
        verify_path_independence(V, f, g, iter(()), 0.0, 1.0)
    flows = [_level(dt, 20, 1) for dt in (0.1, 0.05)]
    with pytest.raises(ContractError, match="coarsest first"):
        verify_path_independence(V, f, g, flows[::-1], 0.0, 1.0)


def _peak_of(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


MEAN_REVERT = make_coefficients("mean_revert", rate=1.0, s=1.0)


def _block_bytes(n, dt):
    """Bytes of one (L, N, m) noise block on [0, 1]."""
    return 8 * round(1.0 / dt) * n * MEAN_REVERT.m


def test_streamed_ladder_level_peaks_near_one_noise_block():
    n, dt = 2000, 0.005
    V = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    f, g = build_pair_from_V(MEAN_REVERT, V)
    block = _block_bytes(n, dt)
    args = (MEAN_REVERT, dirac([0.0]), n, 1.0, dt, 8)
    # states + noise of a recorded level would cross the bound
    assert _peak_of(lambda: simulate_mckean_vlasov(*args)) > 1.5 * block
    peak = _peak_of(lambda: verify_path_independence(V, f, g, [StreamedFlow(*args)], 0.0, 1.0))
    assert peak < 1.25 * block


def test_ito_residual_peaks_near_one_noise_block():
    n, dt = 2000, 0.005
    V = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    block = _block_bytes(n, dt)
    streamed = StreamedFlow(MEAN_REVERT, dirac([0.0]), n, 1.0, dt, 8)
    peak = _peak_of(lambda: ito_residual_ensemble(MEAN_REVERT, V, streamed))
    assert peak < 1.25 * block


def test_w2_cost_matrix_peaks_near_one_matrix():
    rng = np.random.default_rng(5)
    mu = EmpiricalMeasure(rng.standard_normal((1024, 3)))
    nu = EmpiricalMeasure(rng.standard_normal((1024, 3)))
    matrix = 8 * 1024 * 1024
    # the cost, one row block of differences and numpy's ufunc buffers; the
    # (N, N, d) differences alone would be three matrices
    assert _peak_of(lambda: _cost_matrix(mu, nu)) <= 1.2 * matrix


@pytest.fixture
def measures_built(monkeypatch):
    """Counts EmpiricalMeasure constructions, checked or snapshot."""
    built = []
    post_init = EmpiricalMeasure.__post_init__
    snapshot = EmpiricalMeasure._snapshot.__func__

    def counted_post_init(self):
        built.append("checked")
        post_init(self)

    def counted_snapshot(cls, points, weights):
        built.append("snapshot")
        return snapshot(cls, points, weights)

    monkeypatch.setattr(EmpiricalMeasure, "__post_init__", counted_post_init)
    monkeypatch.setattr(EmpiricalMeasure, "_snapshot", classmethod(counted_snapshot))
    return built


def test_ladder_level_builds_one_measure_per_grid_point(measures_built):
    V = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    f, g = build_pair_from_V(MEAN_REVERT, V)
    args = (MEAN_REVERT, dirac([0.0]), 50, 1.0, 0.02, 1)
    for level in (lambda: StreamedFlow(*args), lambda: simulate_mckean_vlasov(*args)):
        measures_built.clear()
        verify_path_independence(V, f, g, [level()], 0.0, 1.0)
        # 51 snapshots and the checked initial measure, whether the level is
        # folded live or recorded first and replayed
        assert measures_built.count("snapshot") == 51
        assert measures_built.count("checked") == 1


def test_pde_residual_builds_each_snapshot_once(measures_built, monkeypatch):
    grid_points = []
    record = feynman_kac._record

    def counted(*args):
        flow = record(*args)
        grid_points.append(flow.n_steps + 1)
        return flow

    monkeypatch.setattr(feynman_kac, "_record", counted)
    mu = EmpiricalMeasure(np.linspace(-1.0, 1.0, 20)[:, None])
    vf = McValueFunction(
        coeff=MEAN_REVERT, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=0.5, dt=0.05,
        M=50, seed=3, mu=mu, n_flow=20,
    )
    n_draws = 2
    before = len(measures_built)
    table = pde_residual_mc(vf, "linear", [(0.0, [0.3]), (0.2, [-0.4])], n_measure_draws=n_draws)
    built = len(measures_built) - before
    # the centre and four space columns of a probe share one frozen flow, and
    # every column reads its snapshots; each flow adds its checked initial
    # measure and each probe 2 * n_draws shifted measures
    flows = len(grid_points)
    assert len(table.rows) == 2 and flows == 2 * (3 + 2 * n_draws)
    assert built == sum(grid_points) + flows + 2 * 2 * n_draws
