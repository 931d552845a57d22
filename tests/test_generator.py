import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfsde import (
    CapabilityError,
    EmpiricalMeasure,
    StreamedFlow,
    accumulate,
    build_pair_from_V,
    dirac,
    ito_residual_ensemble,
    make_coefficients,
    make_cylindrical,
)
from mfsde.functionals import potential_increment
from mfsde.generator import generator_parts, generator_total
from replayed import replayed


def line(values):
    pts = np.asarray(values, dtype=float)[:, None]
    return EmpiricalMeasure(pts, np.full(len(pts), 1.0 / len(pts)))


def generator_at(coeff, V, t, x, mu, drift_free=False):
    """(total, parts): the generator at one (t, x, mu) and its summed parts by name."""
    parts = generator_parts(coeff, V, t, np.asarray(x)[None], mu, drift_free=drift_free)
    named = {k: float(v[0]) for k, v in parts.items() if k not in ("dt", "sigma_star_dx")}
    return float(generator_total(parts)[0]), named


# ---------------------------------------------------------------------------
# drift-diffusion generator


def test_coordinate_function_annihilated_without_drift():
    coeff = make_coefficients("brownian", s=2.0)
    V = make_cylindrical("coord", outer_params={"i": 0})
    total, _ = generator_at(coeff, V, 0.0, np.array([1.0]), line([0.0, 1.0]))
    assert total == pytest.approx(0.0, abs=1e-14)


def test_second_moment_measure_trace_term():
    # V = mu(|.|^2), sigma = s: only the mixed second-derivative term
    # survives and integrates to s^2
    s = 2.0
    coeff = make_coefficients("brownian", s=s)
    V = make_cylindrical("mean", ["quadratic"])
    total, parts = generator_at(coeff, V, 0.0, np.array([0.0]), line([0.0, 3.0]))
    assert total == pytest.approx(s**2, abs=1e-12)
    assert parts["trace_mu"] == pytest.approx(s**2, abs=1e-12)
    assert parts["drift_mu"] == pytest.approx(0.0, abs=1e-14)


def test_bilinear_potential_term_by_term():
    # V = x * mu(Id), b = -x, mu = {1}: drift_x = -x, drift_mu = -x; at x=1
    # the total is -2
    coeff = make_coefficients("brownian", s=1.0)

    def b(t, x, mu):
        return -np.asarray(x)

    coeff = dataclasses.replace(coeff, b=b)
    V = make_cylindrical("x1_times_r1", [("linear", {"a": [1.0]})])
    total, parts = generator_at(coeff, V, 0.0, np.array([1.0]), dirac([1.0]))
    assert parts["drift_x"] == pytest.approx(-1.0, abs=1e-13)
    assert parts["drift_mu"] == pytest.approx(-1.0, abs=1e-13)
    assert total == pytest.approx(-2.0, abs=1e-13)


def test_classical_reduction_for_measure_free_potential():
    # dmu V = 0: the generator is the classical one, exactly
    coeff = make_coefficients("ou", theta=0.7, kappa=0.3, s=1.3)
    V = make_cylindrical("x_norm_sq")
    x = np.array([1.5])
    mu = line([0.0, 2.0])
    total, parts = generator_at(coeff, V, 0.0, x, mu)
    b_val = float(np.asarray(coeff.b(0.0, x[None], mu))[0, 0])
    classical = 0.5 * 1.3**2 * 2.0 + b_val * 2.0 * 1.5
    assert total == pytest.approx(classical, abs=1e-12)
    assert parts["trace_mu"] == 0.0
    assert parts["drift_mu"] == 0.0


@given(seed=st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_linearity_in_v(seed):
    rng = np.random.default_rng(seed)
    coeff = make_coefficients("ou", s=1.0)
    V1 = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    V2 = make_cylindrical("mean", [("linear", {"a": [1.0]})])
    t = rng.uniform(0, 1)
    x = rng.standard_normal(1)
    mu = line(rng.standard_normal(5))
    a1 = generator_at(coeff, V1, t, x, mu)[0]
    a2 = generator_at(coeff, V2, t, x, mu)[0]
    # sum outer over the concatenated inner list realizes V1 + V2 up to the
    # differing outer forms, so check additivity on the raw parts instead
    p1 = generator_parts(coeff, V1, t, x[None], mu)
    p2 = generator_parts(coeff, V2, t, x[None], mu)
    total = 0.0
    for key in ("trace_x", "drift_x", "trace_mu", "drift_mu"):
        total += float(p1[key][0]) + float(p2[key][0])
    assert total == pytest.approx(a1 + a2, abs=1e-10)


# ---------------------------------------------------------------------------
# drift-free generator


@pytest.mark.parametrize(
    "s, name, params, x, total, half_square",
    [
        (1.0, "const", {"c": 3.0}, 0.0, 0.0, 0.0),
        (1.0, "coord", {"i": 0}, 4.0, 0.5, 0.5),
        # x^2 under brownian s: s^2 from dxx plus |s 2x|^2 / 2, s^2 (1 + 2 x^2)
        (1.0, "x_norm_sq", {}, 0.5, 1.5, 0.5),
        (2.0, "x_norm_sq", {}, -1.0, 12.0, 8.0),
    ],
    ids=["const", "coord", "x_norm_sq_s1", "x_norm_sq_s2"],
)
def test_drift_free_generator_closed_form(s, name, params, x, total, half_square):
    coeff = make_coefficients("brownian", s=s)
    V = make_cylindrical(name, outer_params=params)
    got, parts = generator_at(coeff, V, 0.0, np.array([x]), line([0.0, 1.0]), drift_free=True)
    assert got == pytest.approx(total, abs=1e-14)
    assert parts["nonlinear_sq"] == pytest.approx(half_square, abs=1e-14)


# ---------------------------------------------------------------------------
# Ito residuals


def test_time_function_zero_residual():
    coeff = make_coefficients("brownian", s=1.0)
    flow = StreamedFlow(coeff, dirac([0.0]), 4, 1.0, 0.25, seed=0)
    f = make_cylindrical("time")
    summary = ito_residual_ensemble(coeff, f, flow)
    assert np.allclose(summary.step_mean, 0.0, atol=1e-14)
    # a sum of squares: zero only when every martingale increment is
    assert not summary.qv_sum.any()


def test_frozen_dynamics_zero_residual():
    coeff = make_coefficients("frozen")
    flow = StreamedFlow(coeff, line([0.0, 1.0]), 2, 1.0, 0.25, seed=0)
    f = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    res = ito_residual_ensemble(coeff, f, flow).step_mean
    assert np.allclose(res, 0.0, atol=1e-14)


def test_classical_ito_square_statistics():
    coeff = make_coefficients("brownian", s=1.0)
    flow = StreamedFlow(coeff, dirac([0.0]), 400, 1.0, 1e-3, seed=7)
    f = make_cylindrical("x_norm_sq")
    summary = ito_residual_ensemble(coeff, f, flow)
    step_means = summary.step_mean
    mean = step_means.sum()
    # each particle's residuals summed over the steps: its increment of f
    # minus the additive functional of the generator pair
    residual_sum = (potential_increment(f, flow, 0.0, 1.0)
                    - accumulate(build_pair_from_V(coeff, f), flow, 0.0, 1.0))
    se = np.sqrt((step_means**2).sum()) + residual_sum.std(ddof=1) / np.sqrt(400)
    assert abs(mean) <= 3 * se
    qv = summary.qv_sum.mean()
    states = replayed(flow).states
    predicted = (4 * states[:-1, :, 0] ** 2).mean(axis=1).sum() * flow.dt
    assert qv == pytest.approx(predicted, rel=0.1)


def test_mean_residual_decays_linearly_in_dt():
    # deterministic dynamics isolate the O(dt) Euler bias from martingale
    # noise; halving dt should halve the mean residual
    coeff = make_coefficients("mean_revert", rate=1.0, s=0.0)
    f = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    init = line([0.5, 1.5, -2.0])
    means = []
    for dt in (0.02, 0.01):
        flow = StreamedFlow(coeff, init, 3, 1.0, dt, seed=3)
        means.append(abs(ito_residual_ensemble(coeff, f, flow).step_mean.sum()))
    assert means[0] / means[1] == pytest.approx(2.0, rel=0.25)


def test_qv_density_matches_per_step_generator_loop():
    coeff = make_coefficients("mean_revert", rate=1.0, s=0.5)
    flow = StreamedFlow(coeff, line([0.5, 1.5, -2.0, 0.1, 0.9]), 5, 1.0, 0.05, seed=3)
    f = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    summary = ito_residual_ensemble(coeff, f, flow)
    run = replayed(flow)
    expected = np.empty(flow.n_steps)
    for k in range(flow.n_steps):
        parts = generator_parts(coeff, f, run.times[k], run.states[k], run.laws[k])
        expected[k] = float(np.mean(np.sum(parts["sigma_star_dx"] ** 2, axis=1)))
    assert summary.qv_density.tobytes() == expected.tobytes()
    assert summary.step_mean.shape == summary.step_rms.shape == summary.qv_density.shape == (20,)
    assert summary.qv_sum.shape == (5,)


def test_generator_parts_accepts_precomputed_inner_integrals():
    coeff = make_coefficients("mean_revert", rate=1.0, s=0.5)
    f = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    mu = line([0.5, 1.5, -2.0])
    X = np.array([[0.3], [-1.0]])
    for drift_free in (False, True):
        fresh = generator_parts(coeff, f, 0.2, X, mu, drift_free=drift_free)
        given_r = generator_parts(
            coeff, f, 0.2, X, mu, drift_free=drift_free, r=f.inner_integrals(mu)
        )
        assert fresh.keys() == given_r.keys()
        for key in fresh:
            assert fresh[key].tobytes() == given_r[key].tobytes()


def test_generator_reuses_the_coefficients_at_its_own_snapshot():
    # when mu is the snapshot of the batch itself, b and sigma at its atoms
    # are those at the batch: each is called once per generator, and the
    # parts keep the bits of a measure on a copy of the atoms
    coeff = make_coefficients("mean_revert", rate=1.0, s=0.5)
    calls = []

    def b(t, x, mu):
        calls.append(len(x))
        return coeff.b(t, x, mu)

    counted = dataclasses.replace(coeff, b=b)
    f = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    X = np.array([[0.3], [-1.0], [2.0]])
    own = EmpiricalMeasure._snapshot(X, np.full(3, 1 / 3))
    apart = EmpiricalMeasure(X.copy())
    for drift_free in (False, True):
        parts = {}
        for mu in (own, apart):
            calls.clear()
            parts[mu is own] = generator_parts(counted, f, 0.2, X, mu, drift_free=drift_free)
            assert len(calls) == (0 if drift_free else 1 if mu is own else 2)
        for key in parts[True]:
            assert parts[True][key].tobytes() == parts[False][key].tobytes()
    # a 100-step Ito residual of the same field: one drift call per step
    flow = StreamedFlow(coeff, dirac([0.0]), 20, 1.0, 0.01, seed=3)
    calls.clear()
    ito_residual_ensemble(counted, f, flow)
    assert len(calls) == 100


def test_generator_names_missing_partial():
    coeff = make_coefficients("brownian")
    full = make_cylindrical("x_norm_sq").outer
    V = dataclasses.replace(
        make_cylindrical("x_norm_sq"), outer=dataclasses.replace(full, dxx=None)
    )
    with pytest.raises(CapabilityError, match="'dxx'"):
        generator_parts(coeff, V, 0.0, np.array([[1.0]]), dirac([0.0]))


# ---------------------------------------------------------------------------
# reductions against the step-by-step series


def _particle_series(coeff, f, flow):
    """Every particle's residual and martingale-increment series, shape
    (L, P), step by step."""
    run = replayed(flow)
    res = np.empty((flow.n_steps, flow.n_particles))
    mart = np.empty((flow.n_steps, flow.n_particles))
    for k in range(flow.n_steps):
        mu, X = run.laws[k], run.states[k]
        parts = generator_parts(coeff, f, run.times[k], X, mu)
        mart[k] = np.sum(parts["sigma_star_dx"] * run.noise[k], axis=1)
        here = f.value(run.times[k], X, mu)
        there = f.value(run.times[k + 1], run.states[k + 1], run.laws[k + 1])
        drift = parts["dt"] + generator_total(parts)
        res[k] = there - here - drift * flow.dt - mart[k]
    return res, mart


def test_ito_reductions_match_the_particle_series():
    coeff = make_coefficients("mean_revert", rate=1.0, s=0.5)
    flow = StreamedFlow(coeff, line([0.5, 1.5, -2.0, 0.1]), 4, 1.0, 0.05, seed=3)
    f = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    res, mart = _particle_series(coeff, f, flow)
    summary = ito_residual_ensemble(coeff, f, flow)
    step_mean = np.array([r.mean() for r in res])
    step_rms = np.array([np.sqrt((r**2).mean()) for r in res])
    qv_sum = np.zeros(flow.n_particles)
    for m in mart:
        qv_sum += m**2
    assert summary.step_mean.tobytes() == step_mean.tobytes()
    assert summary.step_rms.tobytes() == step_rms.tobytes()
    assert summary.qv_sum.tobytes() == qv_sum.tobytes()
