import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfsde import (
    ContractError,
    CylindricalFunction,
    EmpiricalMeasure,
    StreamedFlow,
    dirac,
    girsanov_replay,
    make_coefficients,
    make_cylindrical,
    verify_path_independence,
)
import mfsde.functionals as functionals
from mfsde.functionals import (
    _step_terms,
    accumulate,
    build_pair_from_V,
    potential_increment,
)
from mfsde.generator import generator_parts, generator_total
from csvfile import write_csv_file
from replayed import replayed


def brownian_flow(n=200, T=1.0, dt=0.01, seed=0, s_coeff=1.0):
    coeff = make_coefficients("brownian", s=s_coeff)
    return coeff, StreamedFlow(coeff, dirac([0.0]), n, T, dt, seed)


# ---------------------------------------------------------------------------
# accumulation


def test_unit_source_integrates_time():
    _, flow = brownian_flow(n=4, dt=0.25)
    out = accumulate(lambda t, X, mu: (np.ones(X.shape[0]), None), flow, 0.0, 1.0)
    assert np.allclose(out, 1.0, atol=1e-14)


def test_zero_pair_accumulates_zero():
    _, flow = brownian_flow(n=4, dt=0.25)
    out = accumulate(
        lambda t, X, mu: (np.zeros(X.shape[0]), np.zeros((X.shape[0], 1))), flow, 0.0, 1.0
    )
    assert np.all(out == 0.0)


def test_constant_integrand_brownian_statistics():
    c = 1.5
    _, flow = brownian_flow(n=10_000, dt=0.01, seed=4)
    out = accumulate(lambda t, X, mu: (None, np.full((X.shape[0], 1), c)), flow, 0.0, 1.0)
    w_increment = replayed(flow).noise.sum(axis=0)[:, 0]
    assert np.allclose(out, c * w_increment, atol=1e-12)
    se = out.std(ddof=1) / np.sqrt(out.size)
    assert abs(out.mean()) <= 3 * se
    assert out.var(ddof=1) == pytest.approx(c**2 * 1.0, rel=0.05)


def test_misaligned_interval_rejected():
    _, flow = brownian_flow(n=4, dt=0.25)
    with pytest.raises(ContractError):
        accumulate(lambda t, X, mu: (np.ones(X.shape[0]), None), flow, 0.0, 0.3)


@given(split=st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=10, deadline=None)
def test_additivity_across_subintervals(split):
    _, flow = brownian_flow(n=8, dt=0.25 / 2, seed=1)
    field = lambda t, X, mu: (X[:, 0], np.cos(X))
    a = accumulate(field, flow, 0.0, split)
    b = accumulate(field, flow, split, 1.0)
    c = accumulate(field, flow, 0.0, 1.0)
    assert np.allclose(a + b, c, atol=1e-14)


def test_series_starts_at_zero():
    _, flow = brownian_flow(n=4, dt=0.25)
    for s in (0.0, 0.5, 1.0):
        out = accumulate(lambda t, X, mu: (np.ones(X.shape[0]), None), flow, s, s)
        assert out.shape == (4,) and np.all(out == 0.0)


def test_wrong_width_g_rejected():
    _, flow = brownian_flow(n=4, dt=0.25)
    with pytest.raises(ContractError, match=r"field g .*\(4, 2\).*\(4, 1\)"):
        accumulate(lambda t, X, mu: (None, np.ones((X.shape[0], 2))), flow, 0.0, 1.0)


def test_wrong_length_f_rejected():
    _, flow = brownian_flow(n=4, dt=0.25)
    with pytest.raises(ContractError, match=r"field f .*\(5,\).*\(4,\)"):
        accumulate(lambda t, X, mu: (np.ones(X.shape[0] + 1), None), flow, 0.0, 1.0)


def test_flat_g_accepted_for_one_noise_column():
    _, flow = brownian_flow(n=8, dt=0.125, seed=1)
    flat = accumulate(lambda t, X, mu: (X[:, 0], np.cos(X[:, 0])), flow, 0.0, 1.0)
    column = accumulate(lambda t, X, mu: (X[:, 0], np.cos(X)), flow, 0.0, 1.0)
    assert flat.tobytes() == column.tobytes()


def test_valid_fields_sum_left_endpoint_terms_bit_for_bit():
    coeff = make_coefficients("brownian", d=2, m=2, s=1.0)
    flow = StreamedFlow(coeff, dirac([0.0, 0.0]), 6, 1.0, 0.25, seed=5)
    run = replayed(flow)
    field = lambda t, X, mu: (X[:, 0] * X[:, 1], np.sin(X))
    expected = np.zeros(flow.n_particles)
    for k in range(flow.n_steps):
        f, g = field(0.0, run.states[k], None)
        expected = expected + (f * flow.dt + np.einsum("nm,nm->n", g, run.noise[k]))
    assert accumulate(field, flow, 0.0, 1.0).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# pair construction from a potential


def mean_field_setup():
    coeff = make_coefficients("mean_revert", rate=1.0, s=0.5)
    flow = StreamedFlow(
        coeff, EmpiricalMeasure(np.array([[0.5], [1.5], [-2.0], [0.1]])), 4, 1.0, 0.1, seed=3
    )
    return coeff, flow, make_cylindrical("x_sq_plus_r1", ["quadratic"])


@pytest.fixture
def parts_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[4])
        return generator_parts(*args, **kwargs)

    monkeypatch.setattr(functionals, "generator_parts", counted)
    return calls


def test_pair_evaluates_generator_once_per_step(parts_calls):
    coeff, flow, V = mean_field_setup()
    accumulate(build_pair_from_V(coeff, V), flow, 0.0, 1.0)
    assert len(parts_calls) == flow.n_steps
    # the measure reaches the generator unchanged, one snapshot per step
    assert len({id(mu) for mu in parts_calls}) == flow.n_steps


def test_potential_field_evaluates_the_law_once_per_step(parts_calls, monkeypatch):
    # one generator_parts call, and so one set of V's inner integrals, per
    # step; the Girsanov replay's two fields read g once each per step
    coeff, flow, V = mean_field_setup()
    integrals = []
    inner_integrals = CylindricalFunction.inner_integrals

    def counted(self, mu):
        integrals.append(mu)
        return inner_integrals(self, mu)

    monkeypatch.setattr(CylindricalFunction, "inner_integrals", counted)
    accumulate(build_pair_from_V(coeff, V), flow, 0.0, 1.0)
    assert flow.n_steps == 10
    assert len(parts_calls) == len(integrals) == flow.n_steps
    reads = []

    def g(tk, X, mu):
        reads.append(tk)
        return 0.3 * X

    girsanov_replay(g, flow, 2.0, 0.0, 1.0)
    assert len(reads) == 2 * flow.n_steps


def test_pair_matches_fresh_generator_bit_for_bit():
    coeff, flow, V = mean_field_setup()
    field = build_pair_from_V(coeff, V)
    run = replayed(flow)
    for k in (0, 5):
        t, X, mu = run.times[k], run.states[k], run.laws[k]
        fv, gv = field(t, X, mu)
        fresh = generator_parts(coeff, V, t, X, mu)
        assert fv.tobytes() == (fresh["dt"] + generator_total(fresh)).tobytes()
        assert gv.tobytes() == fresh["sigma_star_dx"].tobytes()


@pytest.mark.parametrize("view", [False, True])
def test_pair_recomputes_when_states_can_change(parts_calls, view):
    coeff, flow, V = mean_field_setup()
    field = build_pair_from_V(coeff, V)
    run = replayed(flow)
    t, mu = run.times[1], run.laws[1]
    base = run.states[1].copy()
    X = base
    if view:  # a read-only view of a writeable array can still change
        X = base[:]
        X.flags.writeable = False
    field(t, X, mu)
    base += 1.0
    _, gv = field(t, X, mu)
    assert gv.tobytes() == generator_parts(coeff, V, t, base, mu)["sigma_star_dx"].tobytes()


def test_pair_from_linear_potential():
    coeff, flow = brownian_flow(n=4, dt=0.25)
    V = make_cylindrical("coord", outer_params={"i": 0})
    run = replayed(flow)
    X, mu = run.states[0], run.laws[0]
    f, g = build_pair_from_V(coeff, V)(0.0, X, mu)
    assert np.allclose(f, 0.0, atol=1e-14)
    assert np.allclose(g, 1.0, atol=1e-14)


def test_pair_from_time_potential():
    coeff, flow = brownian_flow(n=4, dt=0.25)
    V = make_cylindrical("time")
    run = replayed(flow)
    X, mu = run.states[0], run.laws[0]
    f, g = build_pair_from_V(coeff, V)(0.0, X, mu)
    assert np.allclose(f, 1.0, atol=1e-14)
    assert np.allclose(g, 0.0, atol=1e-14)


def test_pair_from_square_potential():
    coeff, flow = brownian_flow(n=4, dt=0.25)
    V = make_cylindrical("x_norm_sq")
    run = replayed(flow)
    X, mu = run.states[1], run.laws[1]
    f, g = build_pair_from_V(coeff, V)(0.25, X, mu)
    assert np.allclose(f, 1.0, atol=1e-13)
    assert np.allclose(g, 2.0 * X, atol=1e-13)


# ---------------------------------------------------------------------------
# path-independence verification


def test_linear_potential_zero_defect():
    coeff, flow = brownian_flow(n=50, dt=0.25, seed=2)
    V = make_cylindrical("coord", outer_params={"i": 0})
    field = build_pair_from_V(coeff, V)
    defect = accumulate(field, flow, 0.0, 1.0) - potential_increment(V, flow, 0.0, 1.0)
    assert np.allclose(defect, 0.0, atol=1e-13)
    report = verify_path_independence(V, field, [flow], 0.0, 1.0)
    assert report.verdict == "PASS"


def test_square_potential_defect_halves_when_dt_quartered():
    coeff = make_coefficients("brownian", s=1.0)
    V = make_cylindrical("x_norm_sq")
    flows = [
        StreamedFlow(coeff, dirac([0.0]), 1500, 1.0, dt, seed=8 + i)
        for i, dt in enumerate((1e-2, 2.5e-3))
    ]
    report = verify_path_independence(V, build_pair_from_V(coeff, V), flows, 0.0, 1.0)
    assert report.verdict == "PASS"
    ratio = report.rows[0].rms_defect / report.rows[1].rms_defect
    assert 1.5 <= ratio <= 2.8
    assert report.rows[1].decay_order == pytest.approx(0.5, abs=0.15)


def test_perturbed_pair_fails_with_flat_defect():
    coeff = make_coefficients("brownian", s=1.0)
    V = make_cylindrical("coord", outer_params={"i": 0})
    field = build_pair_from_V(coeff, V)

    def bad(t, X, mu):
        f, g = field(t, X, mu)
        return f, g + 0.1

    flows = [
        StreamedFlow(coeff, dirac([0.0]), 1500, 1.0, dt, seed=8 + i)
        for i, dt in enumerate((1e-2, 2.5e-3))
    ]
    report = verify_path_independence(V, bad, flows, 0.0, 1.0)
    assert report.verdict == "FAIL"
    # the surviving stochastic integral is dt-independent: 0.1 * (W_T - W_0)
    assert report.defect_floor == pytest.approx(0.1, rel=0.1)


def test_a_defect_past_the_largest_float_gives_an_infinite_floor():
    # g offset by 1e200: the squared defect overflows to inf, and its
    # mean-square fit once ended in a raw LinAlgError (SVD did not converge)
    coeff = make_coefficients("brownian", s=1.0)
    V = make_cylindrical("coord", outer_params={"i": 0})
    field = build_pair_from_V(coeff, V)

    def bad(t, X, mu):
        f, g = field(t, X, mu)
        return f, g + 1e200

    flows = [StreamedFlow(coeff, dirac([0.0]), 50, 1.0, dt, seed=8 + i)
             for i, dt in enumerate((1e-1, 5e-2))]
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_path_independence(V, bad, flows, 0.0, 1.0)
    assert report.verdict == "FAIL"
    assert report.defect_floor == np.inf
    assert all(row.verdict == "FAIL" for row in report.rows)


def test_report_csv_schema(tmp_path):
    coeff, flow = brownian_flow(n=20, dt=0.25)
    V = make_cylindrical("coord", outer_params={"i": 0})
    report = verify_path_independence(V, build_pair_from_V(coeff, V), [flow], 0.0, 1.0)
    path = tmp_path / "report.csv"
    write_csv_file(path, *report.to_rows())
    lines = path.read_text().splitlines()
    assert lines[0] == "dt,N,M,rms_defect,max_defect,decay_order,verdict"
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# Girsanov weights


def test_zero_integrand_unit_weight():
    _, flow = brownian_flow(n=10, dt=0.25)
    w, _, _ = girsanov_replay(lambda t, X, mu: np.zeros((X.shape[0], 1)), flow, 1.0, 0.0, 1.0)
    assert np.allclose(w, 1.0)


def test_zero_beta_rejected():
    _, flow = brownian_flow(n=4, dt=0.25)
    with pytest.raises(ContractError, match="beta"):
        girsanov_replay(lambda t, X, mu: np.zeros((X.shape[0], 1)), flow, 0.0, 0.0, 1.0)


def test_constant_integrand_weight_martingale():
    _, flow = brownian_flow(n=100_000, dt=0.01, seed=6)
    g = lambda t, X, mu: np.full((X.shape[0], 1), 0.8)
    w, _, _ = girsanov_replay(g, flow, 1.0, 0.0, 1.0)
    se = w.std(ddof=1) / np.sqrt(w.size)
    assert abs(w.mean() - 1.0) <= 3 * se


def test_reweighting_removes_drift():
    coeff = make_coefficients("constant_drift", c=0.5, s=1.0)
    flow = StreamedFlow(coeff, dirac([0.0]), 50_000, 1.0, 0.01, seed=7)
    g = lambda t, X, mu: np.full((X.shape[0], 1), 0.5)
    w, _, dx = girsanov_replay(g, flow, 1.0, 0.0, 1.0)
    ends = replayed(flow, 1.0, 1.0).states[0] - replayed(flow, 0.0, 0.0).states[0]
    assert dx.tobytes() == ends.tobytes()
    est = w * dx[:, 0]
    se = est.std(ddof=1) / np.sqrt(est.size)
    assert abs(est.mean()) <= 3 * se


@given(split=st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=10, deadline=None)
def test_weight_multiplicative_across_intervals(split):
    _, flow = brownian_flow(n=16, dt=0.125 / 2, seed=3)
    g = lambda t, X, mu: np.sin(X)
    w_left, _, _ = girsanov_replay(g, flow, 1.0, 0.0, split)
    w_right, _, _ = girsanov_replay(g, flow, 1.0, split, 1.0)
    w_full, _, _ = girsanov_replay(g, flow, 1.0, 0.0, 1.0)
    assert np.allclose(w_left * w_right, w_full, rtol=1e-12)


# ---------------------------------------------------------------------------
# Novikov estimate


def test_novikov_zero_integrand():
    _, flow = brownian_flow(n=8, dt=0.25)
    _, out, _ = girsanov_replay(lambda t, X, mu: np.zeros((X.shape[0], 1)), flow, 1.0, 0.0, 1.0)
    assert out.estimate == 1.0
    assert out.tail_flag == "clear"


def test_novikov_constant_closed_form():
    c = 0.5
    _, flow = brownian_flow(n=64, dt=0.01)
    _, out, _ = girsanov_replay(
        lambda t, X, mu: np.full((X.shape[0], 1), c), flow, 1.0, 0.0, 1.0
    )
    assert out.estimate == pytest.approx(np.exp(0.5 * c**2), abs=1e-12)


def test_novikov_heavy_tail_flagged():
    # state-proportional integrand under inflated dynamics concentrates the
    # exponential mass on the largest excursions
    coeff = make_coefficients("brownian", s=3.0)
    flow = StreamedFlow(coeff, dirac([1.0]), 4000, 1.0, 0.01, seed=9)
    _, out, _ = girsanov_replay(lambda t, X, mu: 2.0 * X, flow, 1.0, 0.0, 1.0)
    assert out.tail_flag in ("heavy", "severe")


# ---------------------------------------------------------------------------
# a streamed level is folded in one replay


def _streamed_and_recorded():
    """A mean-field level and its whole replay, collected."""
    coeff = make_coefficients("mean_revert", rate=1.0, s=0.5)
    init = EmpiricalMeasure(np.array([[0.5], [1.5], [-2.0], [0.1], [0.9]]))
    streamed = StreamedFlow(coeff, init, 5, 1.0, 0.05, 3)
    return coeff, streamed, replayed(streamed)


@pytest.mark.parametrize("s, t", [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.0, 0.35)])
def test_streamed_level_folds_the_recorded_bits(s, t):
    # a fold over the window [s, t] sums the step terms of that stretch of one
    # whole replay, from zero in grid order
    coeff, streamed, recorded = _streamed_and_recorded()
    V = make_cylindrical("x_sq_plus_r1", ["quadratic"])
    field = build_pair_from_V(coeff, V)
    k0, k1 = streamed.span(s, t)
    expected = np.zeros(5)
    for k in range(k0, k1):
        X, mu = recorded.states[k], recorded.laws[k]
        expected += _step_terms(field, recorded.times[k], X, mu, recorded.noise[k], streamed.dt)
    assert accumulate(field, streamed, s, t).tobytes() == expected.tobytes()
    ends = [V.outer.value(recorded.times[k], recorded.states[k],
                          V.inner_integrals(recorded.laws[k])) for k in (k0, k1)]
    live = potential_increment(V, streamed, s, t)
    assert live.tobytes() == (ends[1] - ends[0]).tobytes()


def test_streamed_level_evaluates_the_generator_once_per_step(parts_calls):
    coeff, streamed, _ = _streamed_and_recorded()
    accumulate(build_pair_from_V(coeff, make_cylindrical("x_sq_plus_r1", ["quadratic"])),
               streamed, 0.0, 1.0)
    assert len(parts_calls) == streamed.n_steps
    assert len({id(mu) for mu in parts_calls}) == streamed.n_steps


def test_pair_evaluates_generator_once_per_step_when_a_hook_calls_the_field(parts_calls):
    coeff, streamed, _ = _streamed_and_recorded()
    field = build_pair_from_V(coeff, make_cylindrical("x_sq_plus_r1", ["quadratic"]))
    steps = []
    for t, X, mu, dw in streamed.steps(0.0, 1.0):
        if dw is not None:
            steps.append(field(t, X, mu))

    assert len(steps) == streamed.n_steps
    assert len(parts_calls) == streamed.n_steps


@pytest.mark.parametrize("s, t", [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5)])
def test_girsanov_replay_matches_the_separate_functionals(s, t):
    # a measure-dependent g, folded in one replay of a streamed level, gives
    # the weight and Novikov estimate of separate folds and the displacement
    # of the whole replay, bit for bit
    _, streamed, recorded = _streamed_and_recorded()

    def g(tk, X, mu):
        return 0.3 * X - mu.mean() + tk

    weights, nov, dx = girsanov_replay(g, streamed, 2.0, s, t)
    A = accumulate(functionals._girsanov_field(g, 2.0), streamed, s, t)
    assert weights.tobytes() == np.exp(-A).tobytes()
    half_qv = accumulate(functionals._girsanov_field(g, 1.0, with_g=False), streamed, s, t)
    assert nov == functionals._novikov(np.exp(half_qv))
    k0, k1 = streamed.span(s, t)
    assert dx.tobytes() == (recorded.states[k1] - recorded.states[k0]).tobytes()


def test_girsanov_replay_simulates_the_flow_once(monkeypatch):
    runs = []
    steps = StreamedFlow.steps

    def counted(self, s, t):
        runs.append((s, t))
        return steps(self, s, t)

    _, streamed, _ = _streamed_and_recorded()
    monkeypatch.setattr(StreamedFlow, "steps", counted)
    girsanov_replay(lambda tk, X, mu: X, streamed, 1.0, 0.0, 1.0)
    assert runs == [(0.0, 1.0)]
