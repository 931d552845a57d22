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
    wasserstein2,
)
import mfsde.dynamics as dynamics
import mfsde.feynman_kac as feynman_kac
from mfsde.dynamics import (
    COEFFICIENT_NAMES,
    COEFFICIENT_PARAMS,
    DOMAIN_DECOUPLED,
    DOMAIN_INIT,
    DOMAIN_INTERACTING,
    NOISE_BLOCK,
    StreamedFlow,
    brownian_increments,
    particle_stream,
    spot_check_lipschitz,
)
from mfsde.feynman_kac import CHUNK, MEASURE_DS, McValueFunction, _measure_shifts
from mfsde.generator import generator_parts
from csvfile import write_csv_file
from replayed import replayed


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
    a = increments(0, 3, 5, 1, 0.1, DOMAIN_INTERACTING)
    b = increments(0, 3, 5, 1, 0.1, DOMAIN_DECOUPLED)
    assert not np.allclose(a, b)


def test_increment_prefix_consistency():
    short = brownian_increments(42, 10, 6, 2, 0.01)
    long = brownian_increments(42, 10, 20, 2, 0.01)
    assert np.array_equal(short, long[:6])


def block_rows(seed, first, n_particles, n_steps, m):
    """The decoupled normals of particles [first, first + n_particles), built
    with numpy's own constructors: row k of block j is the Philox stream of
    key [seed ^ 0x9E3779B97F4A7C15, (DOMAIN_DECOUPLED << 48) + j] from
    counter [0, k, 0, 0], one m-vector per particle of the block in turn."""
    end = first + n_particles
    out = np.empty((n_steps, n_particles, m))
    for j in range(first // NOISE_BLOCK, (end - 1) // NOISE_BLOCK + 1):
        key = np.array([seed ^ 0x9E3779B97F4A7C15, (DOMAIN_DECOUPLED << 48) + j], dtype=np.uint64)
        lo, hi = max(first, NOISE_BLOCK * j), min(end, NOISE_BLOCK * (j + 1))
        for k in range(n_steps):
            bits = np.random.Philox(key=key, counter=[0, k, 0, 0])
            row = np.random.Generator(bits).standard_normal((NOISE_BLOCK, m))
            out[k, lo - first : hi - first] = row[lo - NOISE_BLOCK * j : hi - NOISE_BLOCK * j]
    return out


def particle_noise(seed, i, domain, n_steps, m):
    """Particle i's (n_steps, m) normals: its own stream, or in the decoupled
    domain its m-vector of each row of its block."""
    if domain == DOMAIN_DECOUPLED:
        return block_rows(seed, i, 1, n_steps, m)[:, 0]
    return particle_stream(seed, i, domain).standard_normal((n_steps, m))


def increments(seed, n_particles, n_steps, m, dt, domain, first=0):
    """(n_steps, n_particles, m) increments of particles [first, first +
    n_particles) of a domain, as the package draws them: an interacting
    block, the decoupled rows, or sqrt(dt) times each particle's own stream
    in another domain."""
    if domain == DOMAIN_INTERACTING:
        assert first == 0
        return brownian_increments(seed, n_particles, n_steps, m, dt)
    if domain == DOMAIN_DECOUPLED:
        return np.stack(list(dynamics.decoupled_rows(seed, n_particles, n_steps, m, dt, first)))
    noise = np.stack([particle_noise(seed, first + i, domain, n_steps, m)
                      for i in range(n_particles)], axis=1)
    noise *= np.sqrt(dt)
    return noise


@pytest.mark.parametrize("seed", [5, 2**63 + 7])
@pytest.mark.parametrize("domain", [DOMAIN_INTERACTING, DOMAIN_DECOUPLED])
@pytest.mark.parametrize("m", [1, 2])
def test_increments_match_per_particle_streams(seed, domain, m):
    n_particles, n_steps, dt = 7, 6, 0.04
    dw = increments(seed, n_particles, n_steps, m, dt, domain)
    ref = np.empty((n_steps, n_particles, m))
    for i in range(n_particles):
        ref[:, i, :] = particle_noise(seed, i, domain, n_steps, m)
    assert np.array_equal(dw, np.sqrt(dt) * ref)


@pytest.mark.parametrize("seed", [5, 2**63 + 7])
@pytest.mark.parametrize("m", [1, 2])
def test_decoupled_rows_are_block_streams(seed, m):
    # three blocks, the first and last partly: every row is the block's
    # stream from its step's counter (at dt = 1, a product with 1.0 that
    # keeps every bit)
    first, n, n_steps = 1000, 1100, 4
    whole = increments(seed, n, n_steps, m, 1.0, DOMAIN_DECOUPLED, first)
    assert whole.tobytes() == block_rows(seed, first, n, n_steps, m).tobytes()
    # a chunk from inside a block is those rows of the whole block, and a
    # shorter horizon is their step prefix
    start = increments(seed, 2 * NOISE_BLOCK, n_steps, m, 1.0, DOMAIN_DECOUPLED)
    assert whole[:, : 2 * NOISE_BLOCK - first].tobytes() == start[:, first:].tobytes()
    short = increments(seed, n, 2, m, 1.0, DOMAIN_DECOUPLED, first)
    assert short.tobytes() == whole[:2].tobytes()
    # drawn a row at a time, each row is a fresh read-only row of the increments
    rows = list(dynamics.decoupled_rows(seed, n, n_steps, m, 0.04, first))
    block = np.sqrt(0.04) * block_rows(seed, first, n, n_steps, m)
    assert b"".join(row.tobytes() for row in rows) == block.tobytes()
    assert not any(row.flags.writeable for row in rows)
    assert not any(np.shares_memory(row, rows[0]) for row in rows[1:])


def test_chunked_draws_equal_rows_of_the_whole_block():
    # 2100 particles span draw tiles of 64 and three noise blocks; decoupled
    # chunks cut across the boundaries of the blocks
    for domain in (DOMAIN_INTERACTING, DOMAIN_DECOUPLED):
        whole = increments(11, 2100, 3, 2, 1.0, domain)
        for i in (0, 63, 64, 1023, 1024, 2099):
            assert whole[:, i].tobytes() == particle_noise(11, i, domain, 3, 2).tobytes()
        if domain == DOMAIN_DECOUPLED:
            for a, b in ((0, 64), (60, 130), (1000, 1100), (1023, 2049), (2099, 2100)):
                chunk = increments(11, b - a, 3, 2, 1.0, domain, first=a)
                assert chunk.tobytes() == whole[:, a:b].tobytes()


@pytest.mark.parametrize("first, n", [(-1, 1), (2**48 - 1, 2), (2**48, 1)])
def test_chunked_draws_reject_particles_outside_the_key_range(first, n):
    with pytest.raises(ContractError, match="particle"):
        increments(0, n, 1, 1, 1.0, DOMAIN_DECOUPLED, first=first)


@pytest.mark.parametrize(
    "args, digest",
    [
        ((7, 6, 5, 2, 0.01, DOMAIN_INTERACTING),
         "e0fe10e0cbb18a302d4eae96d04513b868a308391f7b754de35da1bd997d0875"),
        ((2**63 + 5, 6, 5, 2, 0.01, DOMAIN_DECOUPLED),
         "5ab13b7fd609369f950082f3846dcf6df9e61a7c3500f6a35079e9b6e83785cf"),
        ((3, 4, 3, 1, 0.01, DOMAIN_INIT),
         "ad407e7d75e119fa625aa3f95b6a4a3553e53e4c2194b5eb50a4163bc2854934"),
    ],
)
def test_increments_pinned_digest(args, digest):
    # digests of the realised noise (float64, native byte order); a change
    # here re-realises every stochastic output of the package
    assert hashlib.sha256(increments(*args).tobytes()).hexdigest() == digest


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
    run = replayed(StreamedFlow(coeff, init, 3, 1.0, 0.25, seed=0))
    assert np.array_equal(run.states[0], run.states[-1])


def test_brownian_terminal_mean_bound():
    coeff = make_coefficients("brownian", s=1.0)
    law = semigroup_apply(coeff, dirac([0.0]), 0.0, 1.0, 2000, 0.01, seed=5)
    mean = abs(law.points.mean())
    assert mean <= 3 * np.sqrt(1.0 / 2000)


def test_mean_field_attraction_conserves_mean():
    # b = mu(Id) - x, sigma = 0: Euler preserves the empirical mean exactly
    coeff = make_coefficients("mean_revert", rate=1.0, s=0.0)
    init = line([0.0, 1.0, 5.0, -3.0])
    run = replayed(StreamedFlow(coeff, init, 4, 1.0, 0.1, seed=0))
    assert len(run.states) == 11
    for X in run.states:
        assert X.mean() == pytest.approx(0.75, abs=1e-12)


def test_determinism_bit_identical():
    coeff = make_coefficients("ou")
    a = replayed(StreamedFlow(coeff, dirac([1.0]), 50, 0.5, 0.05, seed=9))
    b = replayed(StreamedFlow(coeff, dirac([1.0]), 50, 0.5, 0.05, seed=9))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.noise, b.noise)


def test_init_must_be_a_measure():
    # a callable init(rng, N) was once accepted as a sampler; nothing used it
    coeff = make_coefficients("brownian")
    with pytest.raises(ContractError, match="init must be an EmpiricalMeasure"):
        semigroup_apply(coeff, lambda rng, n: np.zeros((n, 1)), 0.0, 1.0, 3, 0.25, seed=0)


def test_requires_two_particles():
    coeff = make_coefficients("brownian")
    with pytest.raises(ContractError):
        StreamedFlow(coeff, dirac([0.0]), 1, 1.0, 0.1, seed=0)


@pytest.mark.parametrize("N", [2.5, "3"])
def test_particle_count_must_be_integer(N):
    coeff = make_coefficients("brownian")
    with pytest.raises(ContractError, match="N must be an integer"):
        StreamedFlow(coeff, dirac([0.0]), N, 1.0, 0.25, seed=0)
    with pytest.raises(ContractError, match="N must be an integer"):
        semigroup_apply(coeff, dirac([0.0]), 0.0, 1.0, N, 0.25, seed=0)


def test_grid_must_divide_horizon():
    coeff = make_coefficients("brownian")
    with pytest.raises(ContractError):
        StreamedFlow(coeff, dirac([0.0]), 4, 1.0, 0.3, seed=0)


@pytest.mark.parametrize("s, T", [(0.0, 1e308), (-1e308, 1.0), (-1e308, 1e308)])
def test_a_horizon_of_more_steps_than_a_float_counts_is_a_contract_error(s, T):
    # round(inf) in grid_steps once raised a raw OverflowError
    coeff = make_coefficients("brownian")
    with pytest.raises(ContractError, match="integer multiple"):
        StreamedFlow(coeff, dirac([0.0]), 2, T, 0.01, seed=0, s=s)
    with pytest.raises(ContractError, match="integer multiple"):
        semigroup_apply(coeff, dirac([0.0]), s, T, 2, 0.01, seed=0)


def test_blowup_reports_step_and_particle():
    bad = make_coefficients("brownian", s=1.0)
    import dataclasses

    def exploding(t, x, mu):
        return 1e9 * np.ones_like(x)

    bad = dataclasses.replace(bad, b=exploding)
    with pytest.raises(SimulationError) as exc:
        semigroup_apply(bad, dirac([0.0]), 0.0, 1.0, 3, 0.5, seed=0)
    assert exc.value.step is not None
    assert exc.value.particle is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e8])
@pytest.mark.parametrize("loop", ["interacting", "decoupled"])
def test_blowup_names_exact_step_and_particle(loop, bad):
    # the drift puts particles 2 and 4 of six at `bad` on step 3; the first is
    # named (the decoupled paths read no law, so they simulate no frozen flow)
    dt, k_bad = 0.25, 3

    def b(t, x, mu):
        out = np.zeros(np.shape(x))
        if abs(t - (k_bad - 1) * dt) < 1e-12 and len(out) == 6:
            out[[2, 4], 0] = bad / dt
        return out

    coeff = replace(make_coefficients("frozen"), b=b)
    with pytest.raises(SimulationError) as exc:
        if loop == "interacting":
            semigroup_apply(coeff, line([0.0, 1.0]), 0.0, 1.0, 6, dt, seed=0)
        else:
            _decoupled_samples(coeff, line([0.0, 1.0]), [0.5], 1.0, dt, 6, seed=0, n_flow=2)
    assert (exc.value.step, exc.value.particle) == (k_bad, 2)


@pytest.mark.parametrize("shape", [(6, 2), (3, 6, 2)])
@pytest.mark.parametrize("value, raises", [
    (1.0000001 * dynamics.BLOWUP_GUARD, True), (-1.0000001 * dynamics.BLOWUP_GUARD, True),
    (dynamics.BLOWUP_GUARD, False), (-dynamics.BLOWUP_GUARD, False),
    (1e200, True), (np.nan, True), (np.inf, True), (-np.inf, True),
])
def test_finiteness_check_names_the_particle_past_the_guard(shape, value, raises):
    # one entry among zeros, of particle 4 in the last column: past the guard
    # or non-finite it is named from `first`, at exactly the guard it passes,
    # and a square past the largest float raises no floating-point warning
    x = np.zeros(shape)
    x.reshape(-1, 6, 2)[-1, 4, 1] = value
    if not raises:
        dynamics._check_finite(x, 7, first=10)
        return
    with pytest.raises(SimulationError) as exc:
        dynamics._check_finite(x, 7, first=10)
    assert (exc.value.step, exc.value.particle) == (7, 14)


def test_second_moment_gronwall_bound():
    coeff = make_coefficients("ou", theta=1.0, kappa=0.5, s=1.0)
    init = line([1.0, -1.0, 0.5, 2.0])
    T = 1.0
    run = replayed(StreamedFlow(coeff, init, 4, T, 0.05, seed=3))
    K = coeff.lipschitz_bound(T)
    C = 2 * K + K**2 + 1
    bound = np.exp(C * T) * (1 + init.second_moment())
    worst = max(mu.second_moment() for mu in run.laws)
    assert worst <= bound


def test_ou_weak_error_nonincreasing_under_refinement():
    # scalar OU with kappa=0 has closed-form mean exp(-theta T)
    theta, T = 1.0, 1.0
    coeff = make_coefficients("ou", theta=theta, kappa=0.0, s=1.0)
    errs, ses = [], []
    for n, dt, seed in ((500, 0.05, 21), (4000, 0.0125, 22)):
        term = semigroup_apply(coeff, dirac([1.0]), 0.0, T, n, dt, seed).points[:, 0]
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
    law = semigroup_apply(coeff, dirac([0.0]), 0.0, 0.5, 3, 0.25, seed=0)
    own = increments(0, 3, 2, 1, 0.25, DOMAIN_DECOUPLED).sum(axis=0)[:, 0]
    assert terminal.tobytes() == own.tobytes()
    assert not np.allclose(terminal, law.points[:, 0])


def _reference_decoupled(coeff, x, laws, times, dt, M, seed):
    """The path-storing Euler loop over ``times`` against the snapshots
    ``laws``: the states (L+1, M, d)."""
    noise = increments(seed, M, len(times) - 1, coeff.m, dt, DOMAIN_DECOUPLED)
    states = np.empty((len(times), M, coeff.d))
    states[0] = x
    for k in range(len(times) - 1):
        mu, xk = laws[k], states[k]
        # sigma taken to one (d, m) matrix per path, so this contraction is
        # the per-path one, independent of the library's broadcasting step
        sigma = np.broadcast_to(coeff.sigma(times[k], xk, mu), (M, coeff.d, coeff.m))
        diff = np.einsum("ndm,nm->nd", sigma, noise[k])
        states[k + 1] = xk + coeff.b(times[k], xk, mu) * dt + diff
    return states


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
        flow = StreamedFlow(coeff, init, n_flow, T, dt, seed, s=t)
        times, laws = flow.times, replayed(flow).laws
        states = _reference_decoupled(coeff, x, laws, times, dt, M, seed)
        for i in range(2):
            assert coords[i][:, j].tobytes() == states[-1][:, i].tobytes()
        # the running cost's step is dt, the step the frozen flow was built with
        summed = np.zeros(M)
        for k in range(len(times) - 1):
            summed += f(times[k], states[k], laws[k]) * flow.dt
        assert integrals[:, j].tobytes() == (-summed).tobytes()


@pytest.mark.parametrize(
    "span, dt, steps",
    [(1.0, 0.1, 10), (0.0, 0.3, 0), (0.5, 1.0, None), (-0.25, 0.25, None),
     (1.0, 1.0 / 3.0, 3), (1.0 + 1e-10, 1.0, 1), (1.0 + 1e-8, 1.0, None),
     (1e308, 1e-2, None)],
)
def test_grid_steps_counts_whole_steps_only(span, dt, steps):
    assert dynamics.grid_steps(span, dt) == steps


def test_one_point_grid_has_no_step():
    # T = s: a flow of a single grid point, which keeps the step it was built with
    coeff = make_coefficients("brownian")
    flow = StreamedFlow(coeff, dirac([0.0]), 2, 0.5, 0.25, seed=0, s=0.5)
    assert flow.times.tolist() == [0.5] and flow.span(0.5, 0.5) == (0, 0)
    assert flow.dt == 0.25
    run = replayed(flow)
    assert len(run.laws) == 1 and run.noise.size == 0


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


@pytest.mark.parametrize("s, t, match", [
    (0.1, 0.5, "off the grid"), (0.0, 1.25, "off the grid"), (-0.25, 0.5, "off the grid"),
    (0.5, 0.25, "need t >= s"), (0.0, 1e308, "off the grid"), (-1e308, 0.5, "off the grid"),
])
def test_span_rejects_a_window_off_the_grid_or_reversed(s, t, match):
    flow = StreamedFlow(make_coefficients("brownian"), dirac([0.0]), 2, 1.0, 0.25, seed=0)
    with pytest.raises(ContractError, match=match):
        flow.span(s, t)
    with pytest.raises(ContractError, match=match):
        flow.steps(s, t)


@pytest.mark.parametrize("name", COEFFICIENT_NAMES)
def test_per_path_twin_gives_the_same_bits(name):
    # a field may return its coefficients at the shape they vary on; one that
    # returns a row per point must give the same bits everywhere they are read
    coeff = _catalog_entry(name)
    twin = _per_path_twin(coeff)
    init = EmpiricalMeasure(np.random.default_rng(2).standard_normal((6, 2)))
    runs = [replayed(StreamedFlow(c, init, 6, 0.5, 0.05, seed=3)) for c in (coeff, twin)]
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
    # a K = 3 state of a measure-dependent field, d = m = 2, beside columns on
    # an antithetically shifted measure and a column that starts later
    coeff = make_coefficients("mean_revert", d=2, rate=1.5, s=0.7)
    init = EmpiricalMeasure(np.random.default_rng(4).standard_normal((5, 2)))
    Phi = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    xs = [np.array([0.3, -0.2]), np.array([-1.0, 0.5]), np.array([0.0, 2.0])]
    tables = []
    for c in (coeff, _per_path_twin(coeff)):
        shifted = _measure_shifts(c, init, 0.0, MEASURE_DS, np.random.default_rng(8))[0]
        columns = [(0.0, x, None) for x in xs] + [(0.0, x, shifted) for x in xs[:2]]
        columns.append((0.25, xs[0], None))
        vf = McValueFunction(c, Phi, None, 1.0, 0.05, 64, 7, init, n_flow=16)
        [table] = vf.sample_table([columns])
        tables.append((shifted.points, table))
    assert 64 <= CHUNK  # one chunk: the three columns on init share one (3, 64, 2) state
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
    run = replayed(StreamedFlow(coeff, dirac([0.5, -1.0 / 3.0]), 3, 0.5, 0.25, seed=5))
    path = tmp_path / "flow.csv"
    rows = (
        [k, t, i, *run.states[k, i]]
        for k, t in enumerate(run.times)
        for i in range(3)
    )
    write_csv_file(path, ["step", "time", "particle", "x_1", "x_2"], rows)
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
    # every grid point once: a read-only state, its snapshot (a view of it
    # that shares one weights array with every other snapshot) and the row
    # of the run's increment block, None at T; the returned law is the last
    coeff, args = _mean_field_run()
    _, init, n, T, dt, seed = args
    seen = []
    for t, X, mu, dw in StreamedFlow(*args).steps(0.0, T):
        assert not X.flags.writeable and mu.points is X
        seen.append((t, X, mu, dw))

    terminal = semigroup_apply(coeff, init, 0.0, T, n, dt, seed)
    noise = brownian_increments(seed, n, 8, coeff.m, dt)
    assert len(seen) == 9
    weights = seen[0][2].weights
    assert weights.tobytes() == np.full(n, 1.0 / n).tobytes()
    for k, (t, X, mu, dw) in enumerate(seen):
        assert t == k * dt
        assert mu.weights is weights
        assert mu.points.tobytes() == EmpiricalMeasure(X).points.tobytes()
        if k < 8:
            assert dw.tobytes() == noise[k].tobytes()
        else:
            assert dw is None
    assert terminal.points.tobytes() == seen[-1][1].tobytes()


def test_semigroup_matches_the_recorded_terminal_law():
    coeff, (_, init, n, T, dt, seed) = _mean_field_run()
    run = replayed(StreamedFlow(coeff, init, n, T, dt, seed, s=0.25))
    mu = semigroup_apply(coeff, init, 0.25, T, n, dt, seed)
    assert mu.points.tobytes() == run.states[-1].tobytes()
    assert mu.weights.tobytes() == run.laws[-1].weights.tobytes()


def test_stream_kernel_still_checks_the_initial_state():
    coeff = make_coefficients("brownian")
    # an unchecked snapshot is the one measure that can carry a nan
    bad = EmpiricalMeasure._snapshot(np.full((3, 1), np.nan), np.full(3, 1.0 / 3))

    with pytest.raises(ContractError, match="finite"):
        semigroup_apply(coeff, bad, 0.0, 1.0, 3, 0.25, seed=0)
    with pytest.raises(ContractError, match="finite"):
        StreamedFlow(coeff, bad, 3, 1.0, 0.25, seed=0).steps(0.0, 1.0)


@pytest.mark.parametrize(
    "s, t", [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.0, 0.375), (0.625, 1.0), (1.0, 1.0)])
def test_streamed_flow_replays_the_recorded_grid_points(s, t):
    # a window [s, t] yields the bits of that stretch of one whole pass, with
    # no increment at t
    _, args = _mean_field_run()
    flow = StreamedFlow(*args)
    assert flow.times.tobytes() == (0.125 * np.arange(9)).tobytes()
    assert (flow.n_steps, flow.n_particles, flow.dt) == (8, 12, 0.125)
    whole = replayed(flow)
    window = replayed(flow, s, t)
    k0, k1 = flow.span(s, t)
    assert (k0, k1) == (round(s / 0.125), round(t / 0.125))
    assert window.times.tobytes() == whole.times[k0 : k1 + 1].tobytes()
    assert window.states.tobytes() == whole.states[k0 : k1 + 1].tobytes()
    assert window.noise.tobytes() == whole.noise[k0:k1].tobytes()
    for mu, nu in zip(window.laws, whole.laws[k0 : k1 + 1], strict=True):
        assert mu.points.tobytes() == nu.points.tobytes()
        assert mu.weights.tobytes() == nu.weights.tobytes()


@pytest.mark.parametrize("t", [0.25, 0.5])
def test_sample_table_law_curve_is_the_streamed_run(monkeypatch, t):
    # the frozen flow of a column at t reads a step prefix of the block drawn
    # for the table's first time, 0; a streamed run from t draws its own block
    # of the same stream, so its laws are the table's law curve bit for bit
    coeff = make_coefficients("mean_revert", d=2, rate=1.5, s=0.7)
    init = EmpiricalMeasure(np.random.default_rng(4).standard_normal((5, 2)))
    n_flow, T, dt, seed = 16, 1.0, 0.05, 7
    curves = {}
    law_curve = feynman_kac._law_curve

    def kept(coeff, init, times, *args):
        curves[times[0]] = law_curve(coeff, init, times, *args)
        return curves[times[0]]

    monkeypatch.setattr(feynman_kac, "_law_curve", kept)
    Phi = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    vf = McValueFunction(coeff, Phi, None, T, dt, 8, seed, init, n_flow=n_flow)
    vf.sample_table([[(0.0, [0.3, -0.2], None), (t, [0.3, -0.2], None)]])
    run = replayed(StreamedFlow(coeff, init, n_flow, T, dt, seed, s=t))
    assert len(curves[t]) == len(run.laws) == round((T - t) / dt) + 1
    for mu, nu in zip(curves[t], run.laws):
        assert mu.points.tobytes() == nu.points.tobytes()
        assert mu.weights.tobytes() == nu.weights.tobytes()
