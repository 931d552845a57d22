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
    semigroup_apply,
    verify_path_independence,
)
from mfsde.dynamics import DOMAIN_DECOUPLED, DOMAIN_INTERACTING
from mfsde.feynman_kac import McValueFunction
from mfsde.measure import _cost_matrix
from replayed import recorded_flows

BROWNIAN = make_coefficients("brownian", s=1.0)
LADDER = (0.02, 0.01, 0.005)


def _ladder_pair():
    V = make_cylindrical("x_norm_sq")
    return V, build_pair_from_V(BROWNIAN, V)


def _level(dt, n, seed):
    return StreamedFlow(BROWNIAN, dirac([0.0]), n, 1.0, dt, seed)


def test_generator_ladder_peaks_near_one_level():
    n = 2000
    V, field = _ladder_pair()

    def level_bytes(dt):
        # a replay holds its (L, N, m) noise block
        return 8 * n * round(1.0 / dt) * BROWNIAN.m

    largest = level_bytes(LADDER[-1])
    # holding every level at once would cross the bound
    assert sum(level_bytes(dt) for dt in LADDER) > 1.5 * largest
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verify_path_independence(
            V, field, (_level(dt, n, 8 + k) for k, dt in enumerate(LADDER)), 0.0, 1.0
        )
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * largest


def test_previous_level_freed_before_next_is_simulated():
    V, field = _ladder_pair()
    refs = []
    freed = []

    def tracked(flow):
        refs.extend((weakref.ref(flow), weakref.ref(flow.times)))
        return flow

    def levels():
        for k, dt in enumerate(LADDER):
            freed.append(all(ref() is None for ref in refs))
            yield tracked(_level(dt, 50, 8 + k))

    verify_path_independence(V, field, levels(), 0.0, 1.0)
    assert freed == [True] * len(LADDER)


def _counted_draws(monkeypatch):
    """(domain, first, n_particles, n_steps) of every noise draw the sampler
    makes: blocks of noise, and the rows of its decoupled chunks."""
    draws = []
    draw, rows = dynamics.brownian_increments, feynman_kac.decoupled_rows

    def counted(seed, n_particles, n_steps, m, dt):
        draws.append((DOMAIN_INTERACTING, 0, n_particles, n_steps))
        return draw(seed, n_particles, n_steps, m, dt)

    def counted_rows(seed, n_particles, n_steps, m, dt, first=0):
        draws.append((DOMAIN_DECOUPLED, first, n_particles, n_steps))
        return rows(seed, n_particles, n_steps, m, dt, first)

    monkeypatch.setattr(dynamics, "brownian_increments", counted)
    monkeypatch.setattr(feynman_kac, "decoupled_rows", counted_rows)
    return draws


def _assert_each_stream_drawn_once(draws, n_flow, flow_steps, M, n_steps):
    """One block of n_flow particles per frozen flow, of that flow's step
    count in ``flow_steps`` (empty when no flow is built), and decoupled
    chunks that cover [0, M) exactly once."""
    flows = [(DOMAIN_INTERACTING, 0, n_flow, steps) for steps in flow_steps]
    assert [d for d in draws if d[0] == DOMAIN_INTERACTING] == flows
    chunks = [d for d in draws if d[0] == DOMAIN_DECOUPLED]
    assert len(chunks) > 1
    assert all(n == n_steps for _, _, _, n in chunks)
    particles = [i for _, first, count, _ in chunks for i in range(first, first + count)]
    assert particles == list(range(M))


def test_pde_residual_draws_one_block_per_domain(monkeypatch):
    # each particle's stream is drawn once per frozen flow, to that flow's
    # own length, and once per table in the chunks of the decoupled domain
    draws = _counted_draws(monkeypatch)
    monkeypatch.setattr(feynman_kac, "CHUNK", 30)
    coeff = make_coefficients("mean_revert", rate=1.0, s=1.0)
    mu = EmpiricalMeasure(np.linspace(-1.0, 1.0, 20)[:, None])
    vf = McValueFunction(
        coeff=coeff, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=0.5, dt=0.05,
        M=200, seed=3, mu=mu, n_flow=20,
    )
    pde_residual_mc(vf, [(0.0, [0.3]), (0.2, [-0.4])], n_measure_draws=2)
    # one flow on the function's own measure from the earliest start, which
    # every probe's centre, time points and space points read; then per probe
    # its four shifted measures' flows from the probe's time, of step dt =
    # h_t = 0.05 up to T = 0.5
    flow_steps = [10, 10, 10, 10, 10, 6, 6, 6, 6]
    _assert_each_stream_drawn_once(draws, 20, flow_steps, 200, 10)


def test_pde_residual_draws_once_whatever_the_probe_order(monkeypatch):
    draws = _counted_draws(monkeypatch)
    monkeypatch.setattr(feynman_kac, "CHUNK", 8)
    vf = McValueFunction(
        coeff=make_coefficients("brownian", s=1.0), Phi=make_cylindrical("x_norm_sq"),
        f_field=None, T=0.5, dt=0.05, M=50, seed=3, mu=dirac([0.0]), n_flow=10,
    )
    # a later probe first, then the earliest, then one with a backward stencil
    probes = [(0.2, [0.3]), (0.0, [0.0]), (0.5, [-0.4])]
    table = pde_residual_mc(vf, probes)
    assert len(table.rows) == 3
    # a brownian field under a datum without inner functions reads no law,
    # so no flow is simulated
    _assert_each_stream_drawn_once(draws, 10, [], 50, 10)


def test_pde_residual_peak_stays_below_one_noise_block():
    M, dt = 20_000, 0.01
    block = 8 * round(1.0 / dt) * M  # the (L, M, m) raw block of the decoupled paths
    vf = McValueFunction(
        coeff=BROWNIAN, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=1.0, dt=dt,
        M=M, seed=19, mu=dirac([0.0]),
    )
    probes = [(0.0, [0.0]), (0.5, [1.0])]
    # one chunk's increment row, states and samples and one fold leaf per
    # column; holding the whole block would cross the bound by itself
    peak = _peak_of(lambda: pde_residual_mc(vf, probes))
    assert peak < 0.75 * block


def test_solve_all_peak_stays_below_its_sample_table():
    M = 200_000
    vf = McValueFunction(
        coeff=BROWNIAN, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=1.0, dt=0.05,
        M=M, seed=19, mu=dirac([0.0]),
    )
    probes = [(t, [x]) for t in (0.0, 0.5) for x in (-1.0, 0.0, 1.0)]
    # the (M, 6) table would be 9.6 MB; the fold holds one 5120-particle
    # chunk's states and samples, and one leaf per column (well under 1 MB
    # in all, whatever M)
    peak = _peak_of(lambda: vf.solve_all(probes))
    assert peak < 0.5 * 8 * M * len(probes)


def test_solve_all_peak_is_flat_in_the_step_count():
    # the chunk's paths step on one increment row at a time, so a tenfold
    # finer grid adds no (L, B, m) noise block; nothing here reads the law,
    # so no flow block is drawn either
    probes = [(t, [x]) for t in (0.0, 0.5) for x in (-1.0, 0.0, 1.0)]
    peaks = {}
    for dt in (1e-2, 1e-3):
        vf = McValueFunction(
            coeff=BROWNIAN, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=1.0, dt=dt,
            M=feynman_kac.CHUNK, seed=19, mu=dirac([0.0]),
        )
        peaks[dt] = _peak_of(lambda: vf.solve_all(probes))
    assert peaks[1e-3] <= 1.5 * peaks[1e-2]


def test_table_flows_draw_step_prefixes_of_one_stream(monkeypatch):
    # each frozen flow of a table, one per distinct law, draws its own
    # read-only block, of its own step count, and every such block is a step
    # prefix of the longest one
    flows = recorded_flows(monkeypatch)
    draws = []
    draw = dynamics.brownian_increments

    def kept(*args):
        draws.append((args, draw(*args)))
        return draws[-1][1]

    monkeypatch.setattr(dynamics, "brownian_increments", kept)
    n_flow, dt, seed = 6, 0.05, 4
    vf = McValueFunction(
        coeff=MEAN_REVERT, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=0.5, dt=dt,
        M=40, seed=seed, mu=dirac([0.0]), n_flow=n_flow,
    )
    pde_residual_mc(vf, [(0.0, [0.3]), (0.25, [-0.4])], n_measure_draws=1)
    # the function's own measure's flow, then two shifted measures' per probe
    assert len(flows) == len(draws) == 1 + 2 * 2
    longest = max((noise for _, noise in draws), key=len)
    assert longest.shape == (10, n_flow, 1)
    # a flow draws its block when its steps are asked for, right after it is built
    for flow, (args, noise) in zip(flows, draws, strict=True):
        assert args == (seed, n_flow, flow.n_steps, MEAN_REVERT.m, dt)
        assert noise.shape == (flow.n_steps, n_flow, 1) and not noise.flags.writeable
        assert noise.tobytes() == longest[: flow.n_steps].tobytes()
    assert [flow.n_steps for flow in flows] == [10, 10, 10, 5, 5]


def test_streamed_increments_are_read_only_rows_of_the_run_block():
    coeff = make_coefficients("mean_revert", d=2, rate=1.0, s=0.5)
    init = EmpiricalMeasure(np.random.default_rng(0).standard_normal((6, 2)))
    seen = []
    for t, x, mu, dw in StreamedFlow(coeff, init, 6, 1.0, 0.25, seed=4).steps(0.0, 1.0):
        if dw is not None:
            assert not dw.flags.writeable
            seen.append(dw)

    law = semigroup_apply(coeff, init, 0.0, 1.0, 6, 0.25, seed=4)
    expected = dynamics.brownian_increments(4, 6, 4, 2, 0.25)
    assert len(seen) == 4
    for k, dw in enumerate(seen):
        assert dw.tobytes() == expected[k].tobytes()
    assert law.points.tobytes() == x.tobytes()


def test_ladder_rejects_empty_and_finest_first():
    V, field = _ladder_pair()
    with pytest.raises(ContractError, match="at least one flow"):
        verify_path_independence(V, field, [], 0.0, 1.0)
    with pytest.raises(ContractError, match="at least one flow"):
        verify_path_independence(V, field, iter(()), 0.0, 1.0)
    flows = [_level(dt, 20, 1) for dt in (0.1, 0.05)]
    with pytest.raises(ContractError, match="coarsest first"):
        verify_path_independence(V, field, flows[::-1], 0.0, 1.0)


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
    field = build_pair_from_V(MEAN_REVERT, V)
    block = _block_bytes(n, dt)
    args = (MEAN_REVERT, dirac([0.0]), n, 1.0, dt, 8)
    # holding the level's 201 states beside its noise would cross the bound
    assert 8 * n * 201 * MEAN_REVERT.d + block > 1.5 * block
    peak = _peak_of(lambda: verify_path_independence(V, field, [StreamedFlow(*args)], 0.0, 1.0))
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
    assert _peak_of(lambda: _cost_matrix(mu.points, nu.points)) <= 1.2 * matrix


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
    field = build_pair_from_V(MEAN_REVERT, V)
    args = (MEAN_REVERT, dirac([0.0]), 50, 1.0, 0.02, 1)
    measures_built.clear()
    verify_path_independence(V, field, [StreamedFlow(*args)], 0.0, 1.0)
    # 51 snapshots and the checked initial measure
    assert measures_built.count("snapshot") == 51
    assert measures_built.count("checked") == 1


def test_pde_residual_builds_each_snapshot_once(measures_built, monkeypatch):
    recorded = recorded_flows(monkeypatch)
    mu = EmpiricalMeasure(np.linspace(-1.0, 1.0, 20)[:, None])
    vf = McValueFunction(
        coeff=MEAN_REVERT, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=0.5, dt=0.05,
        M=50, seed=3, mu=mu, n_flow=20,
    )
    n_draws = 2
    before = len(measures_built)
    table = pde_residual_mc(vf, [(0.0, [0.3]), (0.2, [-0.4])], n_measure_draws=n_draws)
    built = len(measures_built) - before
    # the columns of both probes on the function's own measure share one
    # frozen flow, and every column reads its snapshots; each flow adds its
    # checked initial measure and each probe 2 * n_draws shifted measures
    grid_points = [len(flow.laws) for flow in recorded]
    flows = len(grid_points)
    assert len(table.rows) == 2 and flows == 1 + 2 * 2 * n_draws
    assert built == sum(grid_points) + flows + 2 * 2 * n_draws
