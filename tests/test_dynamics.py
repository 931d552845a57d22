import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfsde import (
    ContractError,
    EmpiricalMeasure,
    SimulationError,
    dirac,
    make_coefficients,
    make_cylindrical,
    semigroup_apply,
    simulate_mckean_vlasov,
    wasserstein2,
)
import mfsde.dynamics as dynamics
from mfsde.dynamics import (
    COEFFICIENT_NAMES,
    COEFFICIENT_PARAMS,
    DOMAIN_DECOUPLED,
    DOMAIN_INIT,
    DOMAIN_INTERACTING,
    brownian_increments,
    particle_stream,
    spot_check_lipschitz,
)
from mfsde.feynman_kac import MEASURE_DS, TILE, McValueFunction, _chunk_size, _measure_shift
from mfsde.generator import generator_parts
from mfsde.measure import write_csv


def line(values):
    pts = np.asarray(values, dtype=float)[:, None]
    return EmpiricalMeasure(pts, np.full(len(pts), 1.0 / len(pts)))


# ---------------------------------------------------------------------------
# noise streams


def test_streams_disjoint_across_particles():
    a = particle_stream(0, 0).standard_normal(4)
    b = particle_stream(0, 1).standard_normal(4)
    assert not np.allclose(a, b)


def test_streams_disjoint_across_domains():
    a = brownian_increments(0, 3, 5, 1, 0.1, domain=0)
    b = brownian_increments(0, 3, 5, 1, 0.1, domain=1)
    assert not np.allclose(a, b)


def test_increment_prefix_consistency():
    short = brownian_increments(42, 10, 6, 2, 0.01)
    long = brownian_increments(42, 10, 20, 2, 0.01)
    assert np.array_equal(short, long[:6])


@pytest.mark.parametrize("seed", [5, 2**63 + 7])
@pytest.mark.parametrize("domain", [DOMAIN_INTERACTING, DOMAIN_DECOUPLED, DOMAIN_INIT])
@pytest.mark.parametrize("m", [1, 2])
def test_increments_match_per_particle_streams(seed, domain, m):
    n_particles, n_steps, dt = 7, 6, 0.04
    dw = brownian_increments(seed, n_particles, n_steps, m, dt, domain)
    ref = np.empty((n_steps, n_particles, m))
    for i in range(n_particles):
        ref[:, i, :] = particle_stream(seed, i, domain).standard_normal((n_steps, m))
    assert np.array_equal(dw, np.sqrt(dt) * ref)


def test_chunked_draws_equal_rows_of_the_whole_block():
    # 150 particles span three draw tiles; chunks cut across tile boundaries
    whole = dynamics._raw_normals(11, 150, 9, 2, DOMAIN_DECOUPLED)
    for i in (0, 63, 64, 149):
        ref = particle_stream(11, i, DOMAIN_DECOUPLED).standard_normal((9, 2))
        assert whole[:, i].tobytes() == ref.tobytes()
    for a, b in ((0, 64), (60, 130), (130, 150), (149, 150)):
        chunk = dynamics._raw_normals(11, b - a, 9, 2, DOMAIN_DECOUPLED, first=a)
        assert chunk.tobytes() == whole[:, a:b].tobytes()


@pytest.mark.parametrize("first, n", [(-1, 1), (2**48 - 1, 2), (2**48, 1)])
def test_chunked_draws_reject_particles_outside_the_key_range(first, n):
    with pytest.raises(ContractError, match="particle"):
        dynamics._raw_normals(0, n, 1, 1, DOMAIN_DECOUPLED, first=first)


@pytest.mark.parametrize(
    "args, digest",
    [
        ((7, 6, 5, 2, 0.01, DOMAIN_INTERACTING),
         "e0fe10e0cbb18a302d4eae96d04513b868a308391f7b754de35da1bd997d0875"),
        ((2**63 + 5, 6, 5, 2, 0.01, DOMAIN_DECOUPLED),
         "dc129269006613754393db6593bb81febf16c4d362f15ff1a298d6ecd6570966"),
        ((3, 4, 3, 1, 0.01, DOMAIN_INIT),
         "ad407e7d75e119fa625aa3f95b6a4a3553e53e4c2194b5eb50a4163bc2854934"),
    ],
)
def test_increments_pinned_digest(args, digest):
    # digests of the realised noise (float64, native byte order); a change
    # here re-realises every stochastic output of the package
    assert hashlib.sha256(brownian_increments(*args).tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "args",
    [(-1, 0), (2**64, 0), (0, -1), (0, 2**48, 0), (0, 0, -1), (0, 0, 2**16), (0.5, 0)],
)
def test_stream_key_out_of_range_rejected(args):
    with pytest.raises(ContractError):
        particle_stream(*args)


def test_stream_key_extremes_accepted():
    particle_stream(2**64 - 1, 2**48 - 1, 2**16 - 1).standard_normal()
    assert particle_stream(np.int64(3), np.uint64(1)).standard_normal() == (
        particle_stream(3, 1).standard_normal()
    )


def test_increments_reject_invalid_seed_even_when_cached():
    with pytest.raises(ContractError):
        brownian_increments(-3, 2, 2, 1, 0.1)
    brownian_increments(1, 2, 2, 1, 0.1)
    with pytest.raises(ContractError):
        brownian_increments(1.5, 2, 2, 1, 0.1)


@pytest.mark.parametrize(
    "args, name",
    [
        ((1, 2, 2, 1, -0.1), "dt"),
        ((1, 2, 2, 1, 0.0), "dt"),
        ((1, -1, 2, 1, 0.1), "n_particles"),
        ((1, 2, -1, 1, 0.1), "n_steps"),
        ((1, 2, 2, 0, 0.1), "m"),
    ],
    ids=["dt_negative", "dt_zero", "particles_negative", "steps_negative", "m_zero"],
)
def test_increments_reject_invalid_arguments(args, name):
    with pytest.raises(ContractError, match=name):
        brownian_increments(*args)


def test_increment_variance_scales_with_dt():
    dw = brownian_increments(1, 2000, 50, 1, 0.25)
    assert dw.var() == pytest.approx(0.25, rel=0.05)


# ---------------------------------------------------------------------------
# interacting simulation


def test_zero_dynamics_freezes_particles():
    coeff = make_coefficients("frozen")
    init = line([0.0, 1.0, -2.0])
    flow = simulate_mckean_vlasov(coeff, init, 3, 1.0, 0.25, seed=0)
    assert np.array_equal(flow.states[0], flow.states[-1])


def test_brownian_terminal_mean_bound():
    coeff = make_coefficients("brownian", s=1.0)
    flow = simulate_mckean_vlasov(coeff, dirac([0.0]), 2000, 1.0, 0.01, seed=5)
    mean = abs(flow.states[-1].mean())
    assert mean <= 3 * np.sqrt(1.0 / 2000)


def test_mean_field_attraction_conserves_mean():
    # b = mu(Id) - x, sigma = 0: Euler preserves the empirical mean exactly
    coeff = make_coefficients("mean_revert", rate=1.0, s=0.0)
    init = line([0.0, 1.0, 5.0, -3.0])
    flow = simulate_mckean_vlasov(coeff, init, 4, 1.0, 0.1, seed=0)
    for k in range(flow.n_steps + 1):
        assert flow.states[k].mean() == pytest.approx(0.75, abs=1e-12)


def test_determinism_bit_identical():
    coeff = make_coefficients("ou")
    a = simulate_mckean_vlasov(coeff, dirac([1.0]), 50, 0.5, 0.05, seed=9)
    b = simulate_mckean_vlasov(coeff, dirac([1.0]), 50, 0.5, 0.05, seed=9)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.noise, b.noise)


def test_init_must_be_a_measure():
    # a callable init(rng, N) was once accepted as a sampler; nothing used it
    coeff = make_coefficients("brownian")
    with pytest.raises(ContractError, match="init must be an EmpiricalMeasure"):
        simulate_mckean_vlasov(coeff, lambda rng, n: np.zeros((n, 1)), 3, 1.0, 0.25, seed=0)


def test_requires_two_particles():
    coeff = make_coefficients("brownian")
    with pytest.raises(ContractError):
        simulate_mckean_vlasov(coeff, dirac([0.0]), 1, 1.0, 0.1, seed=0)


@pytest.mark.parametrize("N", [2.5, "3"])
def test_particle_count_must_be_integer(N):
    coeff = make_coefficients("brownian")
    with pytest.raises(ContractError, match="N must be an integer"):
        simulate_mckean_vlasov(coeff, dirac([0.0]), N, 1.0, 0.25, seed=0)
    with pytest.raises(ContractError, match="N must be an integer"):
        semigroup_apply(coeff, dirac([0.0]), 0.0, 1.0, N, 0.25, seed=0)


def test_grid_must_divide_horizon():
    coeff = make_coefficients("brownian")
    with pytest.raises(ContractError):
        simulate_mckean_vlasov(coeff, dirac([0.0]), 4, 1.0, 0.3, seed=0)


def test_blowup_reports_step_and_particle():
    bad = make_coefficients("brownian", s=1.0)
    import dataclasses

    def exploding(t, x, mu):
        return 1e9 * np.ones_like(x)

    bad = dataclasses.replace(bad, b=exploding)
    with pytest.raises(SimulationError) as exc:
        simulate_mckean_vlasov(bad, dirac([0.0]), 3, 1.0, 0.5, seed=0)
    assert exc.value.step is not None
    assert exc.value.particle is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e8])
@pytest.mark.parametrize("loop", ["interacting", "decoupled"])
def test_blowup_names_exact_step_and_particle(loop, bad):
    # the drift puts particles 2 and 4 of six at `bad` on step 3; the first is
    # named (the decoupled paths' frozen flow has two particles, which stay put)
    dt, k_bad = 0.25, 3

    def b(t, x, mu):
        out = np.zeros(np.shape(x))
        if abs(t - (k_bad - 1) * dt) < 1e-12 and len(out) == 6:
            out[[2, 4], 0] = bad / dt
        return out

    coeff = replace(make_coefficients("frozen"), b=b)
    with pytest.raises(SimulationError) as exc:
        if loop == "interacting":
            simulate_mckean_vlasov(coeff, line([0.0, 1.0]), 6, 1.0, dt, seed=0)
        else:
            _decoupled_samples(coeff, line([0.0, 1.0]), [0.5], 1.0, dt, 6, seed=0, n_flow=2)
    assert (exc.value.step, exc.value.particle) == (k_bad, 2)


def test_second_moment_gronwall_bound():
    coeff = make_coefficients("ou", theta=1.0, kappa=0.5, s=1.0)
    init = line([1.0, -1.0, 0.5, 2.0])
    T = 1.0
    flow = simulate_mckean_vlasov(coeff, init, 4, T, 0.05, seed=3)
    K = coeff.lipschitz_bound(T)
    C = 2 * K + K**2 + 1
    bound = np.exp(C * T) * (1 + init.second_moment())
    worst = max(flow.measure_at(k).second_moment() for k in range(flow.n_steps + 1))
    assert worst <= bound


def test_ou_weak_error_nonincreasing_under_refinement():
    # scalar OU with kappa=0 has closed-form mean exp(-theta T)
    theta, T = 1.0, 1.0
    coeff = make_coefficients("ou", theta=theta, kappa=0.0, s=1.0)
    errs, ses = [], []
    for n, dt, seed in ((500, 0.05, 21), (4000, 0.0125, 22)):
        flow = simulate_mckean_vlasov(coeff, dirac([1.0]), n, T, dt, seed)
        term = flow.states[-1][:, 0]
        errs.append(abs(term.mean() - np.exp(-theta * T)))
        ses.append(term.std(ddof=1) / np.sqrt(n))
    assert errs[1] <= errs[0] + 3 * (ses[0] + ses[1])


# ---------------------------------------------------------------------------
# semigroup


def test_semigroup_zero_time_is_identity():
    coeff = make_coefficients("ou")
    mu = line([0.0, 1.0])
    out = semigroup_apply(coeff, mu, 0.5, 0.5, 2, 0.1, seed=0)
    assert np.array_equal(out.points, mu.points)


def test_semigroup_frozen_dynamics_identity():
    coeff = make_coefficients("frozen")
    mu = line([0.0, 1.0, 2.0])
    out = semigroup_apply(coeff, mu, 0.0, 1.0, 3, 0.1, seed=0)
    assert np.allclose(np.sort(out.points[:, 0]), [0.0, 1.0, 2.0])


def test_flow_property_two_stage_vs_direct():
    coeff = make_coefficients("ou", theta=1.0, kappa=0.5, s=1.0)
    rng = np.random.default_rng(2)
    n = 2000
    mu0 = EmpiricalMeasure(rng.standard_normal((n, 1)), np.full(n, 1.0 / n))
    mid = semigroup_apply(coeff, mu0, 0.0, 0.5, n, 0.01, seed=31)
    two = semigroup_apply(coeff, mid, 0.5, 1.0, n, 0.01, seed=32)
    one = semigroup_apply(coeff, mu0, 0.0, 1.0, n, 0.01, seed=33)
    assert wasserstein2(two, one) <= 5.0 / np.sqrt(n)


# ---------------------------------------------------------------------------
# decoupled simulation: the paths McValueFunction runs against a frozen flow


def _frozen(coeff, init, T, dt, seed=0, n=64):
    return simulate_mckean_vlasov(coeff, init, n, T, dt, seed)


def _decoupled_samples(coeff, mu, x, T, dt, M, seed, t=0.0, n_flow=64):
    """First coordinates, shape (M,), of the states at T of M decoupled paths
    from x at t, each reading the frozen flow of mu (n_flow particles)."""
    Phi = make_cylindrical("coord")
    vf = McValueFunction(coeff, Phi, None, T, dt, M, seed, mu, n_flow=n_flow)
    return vf.samples(t, x)


def test_decoupled_frozen_dynamics():
    coeff = make_coefficients("frozen")
    terminal = _decoupled_samples(coeff, line([0.0, 1.0]), [4.0], 1.0, 0.25, 5, seed=1)
    assert np.all(terminal == 4.0)


def test_decoupled_gaussian_variance():
    coeff = make_coefficients("brownian", s=1.0)
    M = 10_000
    terminal = _decoupled_samples(coeff, dirac([0.0]), [0.5], 1.0, 0.01, M, seed=2, n_flow=2)
    incr = terminal - 0.5
    var = incr.var(ddof=1)
    se = var * np.sqrt(2.0 / (M - 1))  # SE of a normal sample variance
    assert abs(var - 1.0) <= 3 * se


def test_decoupled_contracts_toward_frozen_mean():
    # b = mu(Id) - x against a frozen point mass at c: scalar linear ODE
    c, x0, T, dt = 2.0, -1.0, 1.0, 0.001
    coeff = make_coefficients("mean_revert", rate=1.0, s=0.0)
    terminal = _decoupled_samples(coeff, dirac([c]), [x0], T, dt, 3, seed=3)
    gap = abs(terminal[0] - c)
    assert gap <= np.exp(-T) * abs(x0 - c) + 10 * dt


def test_decoupled_grid_mismatch():
    # a start time off the grid of step dt that ends at T
    coeff = make_coefficients("brownian")
    with pytest.raises(ContractError, match="integer multiple"):
        _decoupled_samples(coeff, dirac([0.0]), [0.0], 1.0, 0.25, 3, seed=0, t=0.1)


def test_decoupled_noise_independent_of_frozen_flow():
    # from 0 under b = 0, sigma = 1 a terminal state is the sum of its path's
    # increments: the decoupled domain's, not those of the frozen flow
    coeff = make_coefficients("brownian", s=1.0)
    terminal = _decoupled_samples(coeff, dirac([0.0]), [0.0], 0.5, 0.25, 3, seed=0, n_flow=3)
    flow = simulate_mckean_vlasov(coeff, dirac([0.0]), 3, 0.5, 0.25, seed=0)
    own = brownian_increments(0, 3, 2, 1, 0.25, DOMAIN_DECOUPLED).sum(axis=0)[:, 0]
    assert terminal.tobytes() == own.tobytes()
    assert not np.allclose(terminal, flow.states[-1][:, 0])


def _reference_decoupled(coeff, x, flow, s, T, dt, M, seed):
    """The path-storing Euler loop: (times, states (L+1, M, d)) from s to T."""
    k0, k1 = flow.index_of(s), flow.index_of(T)
    times = flow.times[k0 : k1 + 1]
    noise = brownian_increments(seed, M, k1 - k0, coeff.m, dt, DOMAIN_DECOUPLED)
    states = np.empty((k1 - k0 + 1, M, coeff.d))
    states[0] = x
    for k in range(k1 - k0):
        mu, xk = flow.measure_at(k0 + k), states[k]
        # sigma taken to one (d, m) matrix per path, so this contraction is
        # the per-path one, independent of the library's broadcasting step
        sigma = np.broadcast_to(coeff.sigma(times[k], xk, mu), (M, coeff.d, coeff.m))
        diff = np.einsum("ndm,nm->nd", sigma, noise[k])
        states[k + 1] = xk + coeff.b(times[k], xk, mu) * dt + diff
    return times, states


def test_sample_table_matches_the_reference_euler_loop_bit_for_bit():
    # measure-dependent drift, m = d = 2; the column started at 0.25 is off the
    # table's first time, so it reads step prefixes of the noise blocks drawn
    # for the column at 0 and its own frozen flow, which starts at 0.25
    coeff = make_coefficients("mean_revert", d=2, rate=1.5, s=0.7)
    rng = np.random.default_rng(4)
    init = EmpiricalMeasure(rng.standard_normal((5, 2)))
    x, M, n_flow, T, dt, seed = np.array([0.3, -0.2]), 64, 16, 1.0, 0.05, 7

    def f(t, X, mu):
        return X[:, 0] * mu.mean()[1] + t

    columns = [(0.0, x, None), (0.25, x, None)]
    vf = McValueFunction(coeff, None, f, T, dt, M, seed, init, n_flow=n_flow)
    [integrals] = vf.sample_table([columns])
    coords = []
    for i in range(2):
        Phi = make_cylindrical("coord", outer_params={"i": i})
        linear = replace(vf, Phi=Phi, f_field=None)
        coords.append(linear.sample_table([columns])[0])
    for j, (t, _, _) in enumerate(columns):
        flow = simulate_mckean_vlasov(coeff, init, n_flow, T, dt, seed, s=t)
        times, states = _reference_decoupled(coeff, x, flow, t, T, dt, M, seed)
        for i in range(2):
            assert coords[i][:, j].tobytes() == states[-1][:, i].tobytes()
        # the running cost's step is the spacing of the frozen flow's grid
        summed = np.zeros(M)
        for k in range(len(times) - 1):
            summed += f(times[k], states[k], flow.measure_at(k)) * flow.dt
        assert integrals[:, j].tobytes() == (-summed).tobytes()


@pytest.mark.parametrize(
    "span, dt, steps",
    [(1.0, 0.1, 10), (0.0, 0.3, 0), (0.5, 1.0, None), (-0.25, 0.25, None),
     (1.0, 1.0 / 3.0, 3), (1.0 + 1e-10, 1.0, 1), (1.0 + 1e-8, 1.0, None)],
)
def test_grid_steps_counts_whole_steps_only(span, dt, steps):
    assert dynamics.grid_steps(span, dt) == steps


def test_one_point_grid_has_no_step():
    # T = s: a flow of a single grid point, from which no step can be read
    coeff = make_coefficients("brownian")
    recorded = simulate_mckean_vlasov(coeff, dirac([0.0]), 2, 0.5, 0.25, seed=0, s=0.5)
    streamed = dynamics.StreamedFlow(coeff, dirac([0.0]), 2, 0.5, 0.25, seed=0, s=0.5)
    for flow in (recorded, streamed):
        assert flow.times.tolist() == [0.5] and flow.span(0.5, 0.5) == (0, 0)
        with pytest.raises(ContractError, match="one-point grid"):
            flow.dt


@pytest.mark.parametrize("k", [-1, 5])
def test_measure_at_rejects_index_outside_grid(k):
    flow = _frozen(make_coefficients("brownian"), dirac([0.0]), 1.0, 0.25, n=2)
    with pytest.raises(ContractError, match=r"\[0, 4\]"):
        flow.measure_at(k)


# ---------------------------------------------------------------------------
# coefficient catalog


#: one value for each catalog parameter; an entry is built with those it reads
CATALOG_VALUES = {"s": 0.7, "c": [0.5, -1.0], "rate": 1.5, "theta": 0.8, "kappa": 0.3}


def _catalog_entry(name, **kwargs):
    """The d = 2 catalog field ``name`` at CATALOG_VALUES."""
    params = {k: v for k, v in CATALOG_VALUES.items() if k in COEFFICIENT_PARAMS[name]}
    return make_coefficients(name, d=2, **kwargs, **params)


def test_catalog_names_resolve():
    # each output broadcasts to (3, d) and (3, d, m) and then equals its
    # documented formula; a coefficient that does not depend on x comes back
    # as one read-only (d,) or (d, m) array, not as a copy per point
    x = np.array([[0.1, -0.4], [1.2, 0.3], [-2.0, 0.5]])
    mu = EmpiricalMeasure(np.array([[1.0, -1.0], [2.0, 0.5]]), np.array([0.25, 0.75]))
    mean = mu.mean()
    for m in (2, 3):
        drifts = {
            "frozen": np.zeros((3, 2)),
            "brownian": np.zeros((3, 2)),
            "constant_drift": np.broadcast_to([0.5, -1.0], (3, 2)),
            "mean_revert": 1.5 * (mean - x),
            "ou": -0.8 * x + 0.3 * mean,
        }
        for name in COEFFICIENT_NAMES:
            coeff = _catalog_entry(name, m=m)
            b, sigma = coeff.b(0.0, x, mu), coeff.sigma(0.0, x, mu)
            s = 0.0 if name == "frozen" else 0.7
            assert np.array_equal(np.broadcast_to(b, (3, 2)), drifts[name])
            assert np.array_equal(np.broadcast_to(sigma, (3, 2, m)),
                                  np.broadcast_to(s * np.eye(2, m), (3, 2, m)))
            assert sigma.shape == (2, m) and not sigma.flags.writeable
            if name in ("frozen", "brownian", "constant_drift"):
                assert b.shape == (2,) and not b.flags.writeable


def _per_path_twin(coeff):
    """``coeff`` with b and sigma copied out to one row per point, the shapes
    of a field whose coefficients depend on x."""

    def b(t, x, mu):
        x = np.asarray(x)
        return np.broadcast_to(coeff.b(t, x, mu), x.shape).copy()

    def sigma(t, x, mu):
        x = np.asarray(x)
        return np.broadcast_to(coeff.sigma(t, x, mu), x.shape[:-1] + (coeff.d, coeff.m)).copy()

    return replace(coeff, b=b, sigma=sigma)


@pytest.mark.parametrize("name", COEFFICIENT_NAMES)
def test_per_path_twin_gives_the_same_bits(name):
    # a field may return its coefficients at the shape they vary on; one that
    # returns a row per point must give the same bits everywhere they are read
    coeff = _catalog_entry(name)
    twin = _per_path_twin(coeff)
    init = EmpiricalMeasure(np.random.default_rng(2).standard_normal((6, 2)))
    runs = [simulate_mckean_vlasov(c, init, 6, 0.5, 0.05, seed=3) for c in (coeff, twin)]
    assert runs[0].states.tobytes() == runs[1].states.tobytes()
    V = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    X = np.random.default_rng(5).standard_normal((4, 2))
    for drift_free in (False, True):
        parts = [generator_parts(c, V, 0.3, X, init, drift_free=drift_free)
                 for c in (coeff, twin)]
        assert parts[0].keys() == parts[1].keys()
        for key, value in parts[0].items():
            assert value.shape == parts[1][key].shape
            assert value.tobytes() == parts[1][key].tobytes()


def test_per_path_twin_gives_the_same_samples():
    # a K = 3 tile of a measure-dependent field, d = m = 2, beside columns on
    # an antithetically shifted measure and a column that starts later
    coeff = make_coefficients("mean_revert", d=2, rate=1.5, s=0.7)
    init = EmpiricalMeasure(np.random.default_rng(4).standard_normal((5, 2)))
    Phi = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    xs = [np.array([0.3, -0.2]), np.array([-1.0, 0.5]), np.array([0.0, 2.0])]
    tables = []
    for c in (coeff, _per_path_twin(coeff)):
        shifted = _measure_shift(c, init, 0.0, MEASURE_DS, 1.0, np.random.default_rng(8))
        columns = [(0.0, x, None) for x in xs] + [(0.0, x, shifted) for x in xs[:2]]
        columns.append((0.25, xs[0], None))
        vf = McValueFunction(c, Phi, None, 1.0, 0.05, 64, 7, init, n_flow=16)
        [table] = vf.sample_table([columns])
        tables.append((shifted.points, table))
    assert _chunk_size(3) * 3 <= TILE  # the three columns on init share one tile
    assert tables[0][0].tobytes() == tables[1][0].tobytes()
    assert tables[0][1].tobytes() == tables[1][1].tobytes()


def test_unknown_coefficient_rejected():
    with pytest.raises(ContractError):
        make_coefficients("nope")


@pytest.mark.parametrize("name, params", [
    ("brownian", {"sigma": 5.0}),
    ("brownian", {"rate": 1.0, "s": 1.0}),
    ("frozen", {"s": 1.0}),
    ("mean_revert", {"theta": 0.5, "kappa": 0.5}),
])
def test_catalog_rejects_a_parameter_the_entry_does_not_read(name, params):
    # each was once accepted and ignored, leaving the entry at its defaults
    unread = sorted(set(params) - set(COEFFICIENT_PARAMS[name]))
    with pytest.raises(ContractError, match=", ".join(map(repr, unread))):
        make_coefficients(name, **params)


@given(name=st.sampled_from(COEFFICIENT_NAMES), seed=st.integers(0, 2000))
@settings(max_examples=40, deadline=None)
def test_lipschitz_spot_check(name, seed):
    rng = np.random.default_rng(seed)
    coeff = make_coefficients(name)
    samples = []
    for _ in range(10):
        mu = line(rng.standard_normal(4))
        nu = line(rng.standard_normal(4))
        samples.append(
            (rng.uniform(0, 1), rng.standard_normal(1), mu, rng.standard_normal(1), nu)
        )
    assert spot_check_lipschitz(coeff, samples) <= 1.05


# ---------------------------------------------------------------------------
# export


def test_flow_csv_pinned_digest(tmp_path):
    # every state at full precision, d = 2, non-dyadic start; recorded with
    # numpy 2.4.6, the flow and the writer must keep these bytes
    coeff = make_coefficients("mean_revert", d=2, rate=0.7, s=1.3)
    flow = simulate_mckean_vlasov(coeff, dirac([0.5, -1.0 / 3.0]), 3, 0.5, 0.25, seed=5)
    path = tmp_path / "flow.csv"
    rows = (
        [k, t, i, *flow.states[k, i]]
        for k, t in enumerate(flow.times)
        for i in range(flow.n_particles)
    )
    write_csv(path, ["step", "time", "particle", "x_1", "x_2"], rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "493611f0e86e0bb8f5272f94654ff6d3f49b702142489de1c4343e57292a4e99"
    )


# ---------------------------------------------------------------------------
# the streaming interacting kernel and its snapshots


def _mean_field_run():
    coeff = make_coefficients("mean_revert", d=2, rate=1.5, s=0.7)
    init = EmpiricalMeasure(np.random.default_rng(4).standard_normal((5, 2)))
    return coeff, (coeff, init, 12, 1.0, 0.125, 6)


def test_stream_kernel_hands_the_recorded_steps_to_its_hook():
    coeff, args = _mean_field_run()
    flow = simulate_mckean_vlasov(*args)
    seen = []

    def hook(t, X, mu, dw):
        assert not X.flags.writeable and mu.points is X
        seen.append((t, X.tobytes(), mu.weights.tobytes(), None if dw is None else dw.tobytes()))

    terminal = dynamics.stream_mckean_vlasov(*args, hook=hook)
    assert len(seen) == flow.n_steps + 1
    for k, (t, X, w, dw) in enumerate(seen):
        assert t == flow.times[k]
        assert X == flow.states[k].tobytes()
        assert w == flow.measure_at(k).weights.tobytes()
        assert dw == (flow.noise[k].tobytes() if k < flow.n_steps else None)
    assert terminal.points.tobytes() == flow.states[-1].tobytes()


def test_measure_at_returns_the_snapshot_the_run_built():
    _, args = _mean_field_run()
    flow = simulate_mckean_vlasov(*args)
    weights = flow.measure_at(0).weights
    for k in range(flow.n_steps + 1):
        mu = flow.measure_at(k)
        assert mu is flow.measure_at(k)
        # a read-only view of the states, sharing one weights array
        assert mu.points.base is flow.states and not mu.points.flags.writeable
        assert mu.weights is weights
        assert mu.points.tobytes() == EmpiricalMeasure(flow.states[k]).points.tobytes()
    assert weights.tobytes() == np.full(12, 1.0 / 12).tobytes()


def test_semigroup_matches_the_recorded_terminal_law():
    coeff, (_, init, n, T, dt, seed) = _mean_field_run()
    flow = simulate_mckean_vlasov(coeff, init, n, T, dt, seed, s=0.25)
    mu = semigroup_apply(coeff, init, 0.25, T, n, dt, seed)
    assert mu.points.tobytes() == flow.states[-1].tobytes()
    assert mu.weights.tobytes() == flow.measure_at(flow.n_steps).weights.tobytes()


def test_stream_kernel_still_checks_the_initial_state():
    coeff = make_coefficients("brownian")
    # an unchecked snapshot is the one measure that can carry a nan
    bad = EmpiricalMeasure._snapshot(np.full((3, 1), np.nan), np.full(3, 1.0 / 3))

    with pytest.raises(ContractError, match="finite"):
        dynamics.stream_mckean_vlasov(coeff, bad, 3, 1.0, 0.25, seed=0)
    with pytest.raises(ContractError, match="finite"):
        simulate_mckean_vlasov(coeff, bad, 3, 1.0, 0.25, seed=0)


@pytest.mark.parametrize("s, t", [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5)])
def test_streamed_flow_replays_the_recorded_grid_points(s, t):
    _, args = _mean_field_run()
    flow = simulate_mckean_vlasov(*args)
    streamed = dynamics.StreamedFlow(*args)
    assert streamed.times.tobytes() == flow.times.tobytes()
    assert (streamed.n_steps, streamed.n_particles, streamed.dt) == (
        flow.n_steps, flow.n_particles, flow.dt)

    def collect(into):
        def hook(t_k, X, mu, dw):
            into.append((t_k, X.tobytes(), mu.points.tobytes(),
                         None if dw is None else dw.tobytes()))
        return hook

    live, recorded = [], []
    streamed.replay(collect(live), s, t)
    flow.replay(collect(recorded), s, t)
    assert live == recorded
    assert len(live) == flow.span(s, t)[1] - flow.span(s, t)[0] + 1
