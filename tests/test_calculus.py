import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfsde import (
    CapabilityError,
    ContractError,
    EmpiricalMeasure,
    dirac,
    l_derivative_fd_oracle,
    l_derivative_pairing,
    make_cylindrical,
)
from mfsde.calculus import INNER_NAMES, OUTER_NAMES, make_inner, make_outer


def line(values):
    pts = np.asarray(values, dtype=float)[:, None]
    return EmpiricalMeasure(pts, np.full(len(pts), 1.0 / len(pts)))


def cloud(rng, n, d):
    return EmpiricalMeasure(rng.standard_normal((n, d)), np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# closed-form measure derivative


def test_linear_inner_gives_constant_gradient():
    a = np.array([2.0, -1.0])
    f = make_cylindrical("mean", [("linear", {"a": a})])
    mu = cloud(np.random.default_rng(0), 5, 2)
    for y in ([0.0, 0.0], [1.0, 3.0]):
        assert np.allclose(f.l_derivative(0.0, np.zeros(2), mu, np.asarray(y)), a)


def test_quadratic_inner_gives_two_y():
    f = make_cylindrical("mean", ["quadratic"])
    mu = line([0.0, 1.0])
    y = np.array([3.0])
    assert np.allclose(f.l_derivative(0.0, np.zeros(1), mu, y), [6.0])


def test_square_of_mean_chain_rule():
    # F(r) = r^2, mu(Id) = 0.5, so the derivative is 2 * 0.5 = 1 at every y
    f = make_cylindrical("square", [("linear", {"a": [1.0]})])
    mu = line([0.0, 1.0])
    for y in (-2.0, 0.0, 7.0):
        assert np.allclose(f.l_derivative(0.0, np.zeros(1), mu, np.array([y])), [1.0])


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_fd_oracle_zero_displacement():
    f = make_cylindrical("mean", ["quadratic"])
    mu = line([0.0, 1.0])
    assert l_derivative_fd_oracle(f, 0.0, np.zeros(1), mu, lambda y: np.zeros_like(y), 1e-3) == 0.0


def test_fd_oracle_exact_for_linear_functional():
    f = make_cylindrical("mean", [("linear", {"a": [1.0]})])
    mu = line([0.3, -0.7, 2.0])
    for eps in (1e-1, 1e-3, 1e-6):
        fd = l_derivative_fd_oracle(f, 0.0, np.zeros(1), mu, lambda y: np.ones_like(y), eps)
        assert fd == pytest.approx(1.0, abs=1e-9)


def test_fd_oracle_quadratic_expansion():
    # ((1+eps)^2 - 1) / eps = 2 + eps, expanded by hand
    f = make_cylindrical("mean", ["quadratic"])
    mu = dirac([1.0])
    fd = l_derivative_fd_oracle(f, 0.0, np.zeros(1), mu, lambda y: y, 1e-4)
    assert fd == pytest.approx(2.0 + 1e-4, rel=1e-10)


def test_fd_oracle_rejects_nonpositive_eps():
    f = make_cylindrical("mean", ["quadratic"])
    with pytest.raises(ContractError):
        l_derivative_fd_oracle(f, 0.0, np.zeros(1), line([0.0]), lambda y: y, 0.0)


CATALOG = [
    ("mean", [("linear", {"a": [1.0, 0.5]})]),
    ("square", [("quadratic", {})]),
    ("sum", [("quadratic", {}), ("bump", {})]),
    ("product", [("linear", {"a": [1.0, 0.5]}), ("bump", {})]),
    ("exp", [("bump", {})]),
    ("log", [("bump", {})]),
]


@pytest.mark.parametrize("outer,inner", CATALOG)
def test_frechet_linear_decay(outer, inner):
    """|FD quotient - pairing| <= C eps mu(|phi|^2)^(1/2), shrinking with eps."""
    rng = np.random.default_rng(5)
    f = make_cylindrical(outer, inner)
    mu = cloud(rng, 60, 2)
    A = 0.4 * rng.standard_normal((2, 2))

    def phi(y):
        return np.asarray(y) @ A.T

    exact = l_derivative_pairing(f, 0.0, np.zeros(2), mu, phi)
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        gaps.append(abs(l_derivative_fd_oracle(f, 0.0, np.zeros(2), mu, phi, eps) - exact))
    assert gaps[-1] <= 1e-3
    if gaps[0] > 1e-12:  # genuinely nonlinear outer
        assert gaps[1] <= 0.2 * gaps[0]
        assert gaps[2] <= 0.2 * gaps[1]


# ---------------------------------------------------------------------------
# every partial of a cylindrical function at one (t, x, mu)


def _partial(f, which, t, x, mu):
    """The closed-form partial ``which`` of f's outer function at (t, x, mu)."""
    return np.asarray(f.outer.partial(which)(t, np.asarray(x, dtype=float), f.inner_integrals(mu)))


def test_bundle_coordinate_function():
    f = make_cylindrical("coord", outer_params={"i": 0})
    mu = cloud(np.random.default_rng(1), 4, 2)
    t, x = 0.7, np.array([1.0, 2.0])
    assert _partial(f, "dt", t, x, mu) == 0.0
    assert np.allclose(_partial(f, "dx", t, x, mu), [1.0, 0.0])
    assert np.allclose(_partial(f, "dxx", t, x, mu), 0.0)
    assert np.allclose(f.l_derivative(t, x, mu, np.array([0.5, 0.5])), [0.0, 0.0])


def test_bundle_product_rule_by_hand():
    # f = t * mu(Id): dt = mu(Id), dmu(y) = t
    f = make_cylindrical("time_times_r1", [("linear", {"a": [1.0]})])
    mu = line([0.0, 1.0])
    assert _partial(f, "dt", 2.0, np.zeros(1), mu) == pytest.approx(0.5, abs=1e-14)
    assert np.allclose(f.l_derivative(2.0, np.zeros(1), mu, np.array([3.0])), [2.0])


def test_bundle_value_reproducible_from_parts():
    rng = np.random.default_rng(3)
    f = make_cylindrical("product", [("linear", {"a": [1.0]}), ("quadratic", {})])
    mu = cloud(rng, 10, 1)
    t, x = 0.4, rng.standard_normal(1)
    r = f.inner_integrals(mu)
    direct = float(f.outer.value(t, x[None], r)[0])
    assert f.value(t, x, mu) == pytest.approx(direct, abs=1e-14)


def test_bundle_dxx_symmetric():
    f = make_cylindrical("gauss_quarter")
    dxx = _partial(f, "dxx", 0.0, np.array([0.3, -1.1]), dirac([0.0, 0.0]))
    assert np.allclose(dxx, dxx.T, atol=1e-12)


def test_missing_partial_names_it():
    incomplete = make_outer("mean")
    incomplete = type(incomplete)(
        name=incomplete.name,
        n_inner=incomplete.n_inner,
        value=incomplete.value,
        dr=incomplete.dr,
    )
    from mfsde.calculus import CylindricalFunction

    f = CylindricalFunction(incomplete, [make_inner("quadratic")])
    with pytest.raises(CapabilityError, match="dt"):
        _partial(f, "dt", 0.0, np.zeros(1), line([0.0, 1.0]))


# ---------------------------------------------------------------------------
# evaluator consistency and permutation invariance


@pytest.mark.parametrize("outer,inner", CATALOG)
def test_partials_match_central_differences(outer, inner):
    rng = np.random.default_rng(11)
    f = make_cylindrical(outer, inner)
    mu = cloud(rng, 8, 2)
    t = 0.3
    x = rng.standard_normal(2)
    r = f.inner_integrals(mu)
    F = f.outer
    h = 1e-5 * (1.0 + np.abs(r))

    dr_exact = np.asarray(F.dr(t, x[None], r)).reshape(-1)
    for i in range(len(r)):
        rp, rm = r.copy(), r.copy()
        rp[i] += h[i]
        rm[i] -= h[i]
        fd = (F.value(t, x[None], rp)[0] - F.value(t, x[None], rm)[0]) / (2 * h[i])
        assert dr_exact[i] == pytest.approx(fd, abs=1e-6 * (1 + abs(fd)))

    hx = 1e-5 * (1.0 + np.abs(x))
    dx_exact = np.asarray(F.dx(t, x[None], r)).reshape(-1)
    for j in range(2):
        xp, xm = x.copy(), x.copy()
        xp[j] += hx[j]
        xm[j] -= hx[j]
        fd = (F.value(t, xp[None], r)[0] - F.value(t, xm[None], r)[0]) / (2 * hx[j])
        assert dx_exact[j] == pytest.approx(fd, abs=1e-6 * (1 + abs(fd)))


@pytest.mark.parametrize("name", OUTER_NAMES)
def test_every_outer_partial_matches_central_differences(name):
    """dt, dx, dxx and dr of each catalog outer at a batch of states (B, 2)."""
    rng = np.random.default_rng(17)
    F = make_outer(name)
    B, t, h = 3, 0.4, 1e-5
    x = rng.standard_normal((B, 2))
    r = np.array([0.7, 1.3])

    def close(exact, fd):
        assert np.allclose(exact, fd, rtol=1e-6, atol=1e-6)

    dt, dx = F.dt(t, x, r), F.dx(t, x, r)
    dxx, dr = F.dxx(t, x, r), F.dr(t, x, r)
    assert np.shape(F.value(t, x, r)) == (B,)
    assert np.shape(dt) == (B,)
    assert np.shape(dx) == (B, 2)
    # a constant dxx is one (2, 2) matrix that broadcasts against the batch
    assert np.broadcast_shapes(np.shape(dxx), (B, 2, 2)) == (B, 2, 2)
    dxx = np.broadcast_to(dxx, (B, 2, 2))
    assert np.shape(dr) == (B, 2)

    close(dt, (F.value(t + h, x, r) - F.value(t - h, x, r)) / (2 * h))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        close(dx[:, j], (F.value(t, x + e, r) - F.value(t, x - e, r)) / (2 * h))
        close(dxx[:, :, j], (F.dx(t, x + e, r) - F.dx(t, x - e, r)) / (2 * h))
        close(dr[:, j], (F.value(t, x, r + e) - F.value(t, x, r - e)) / (2 * h))


#: the parameters each inner catalog entry is checked with at d = 2
INNER_CASES = {
    "linear": ({"a": [0.5, -1.5]},),
    "quadratic": ({},),
    "bump": ({},),
    "coordinate": ({"i": 1}, {"i": 0, "power": 2}),
}


@pytest.mark.parametrize(
    "name, params", [(name, params) for name in INNER_NAMES for params in INNER_CASES[name]])
def test_every_inner_derivative_matches_central_differences(name, params):
    """grad and hess of each catalog inner function at a batch of points (B, 2)."""
    rng = np.random.default_rng(19)
    inner = make_inner(name, **params)
    B, h = 3, 1e-5
    x = rng.standard_normal((B, 2))

    def close(exact, fd):
        assert np.allclose(exact, fd, rtol=1e-6, atol=1e-6)

    grad, hess = inner.grad(x), inner.hess(x)
    assert np.shape(inner.value(x)) == (B,)
    assert np.shape(grad) == (B, 2)
    # a constant hess is one (2, 2) matrix that broadcasts against the batch
    assert np.broadcast_shapes(np.shape(hess), (B, 2, 2)) == (B, 2, 2)
    hess = np.broadcast_to(hess, (B, 2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        close(grad[:, j], (inner.value(x + e) - inner.value(x - e)) / (2 * h))
        close(hess[:, :, j], (inner.grad(x + e) - inner.grad(x - e)) / (2 * h))


@given(seed=st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_bundle_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((7, 2))
    perm = rng.permutation(7)
    mu = EmpiricalMeasure(pts, np.full(7, 1.0 / 7))
    nu = EmpiricalMeasure(pts[perm], np.full(7, 1.0 / 7))
    f = make_cylindrical("product", [("linear", {"a": [1.0, -0.5]}), ("bump", {})])
    y = rng.standard_normal(2)
    x = np.zeros(2)
    assert f.value(0.2, x, mu) == pytest.approx(f.value(0.2, x, nu), abs=1e-12)
    assert np.allclose(f.l_derivative(0.2, x, mu, y), f.l_derivative(0.2, x, nu, y), atol=1e-12)


# ---------------------------------------------------------------------------
# catalogs


def test_catalog_names_resolve():
    for name in INNER_NAMES:
        make_inner(name)
    for name in OUTER_NAMES:
        make_outer(name)


def test_unknown_names_rejected():
    with pytest.raises(ContractError):
        make_inner("nope")
    with pytest.raises(ContractError):
        make_outer("nope")


@pytest.mark.parametrize("name, params", [("linear", {"i": 3}), ("quadratic", {"bogus": 1}),
                                          ("bump", {"a": [1.0]}), ("coordinate", {"a": [1.0]})])
def test_inner_parameter_the_entry_does_not_read_is_rejected(name, params):
    # as in make_outer and make_coefficients, never built with it ignored
    with pytest.raises(ContractError, match=f"inner function '{name}' does not read"):
        make_inner(name, **params)


@pytest.mark.parametrize("name, params, unread", [
    ("x_norm_sq", {"c": 1.0}, "'c'"),
    ("coord", {"i": 0, "c": 2.0, "a": 1.0}, "'a', 'c'"),
    ("const", {"i": 1}, "'i'"),
])
def test_outer_catalog_rejects_a_parameter_the_entry_does_not_read(name, params, unread):
    # each was once accepted and ignored
    with pytest.raises(ContractError, match=f"outer function '{name}' does not read {unread}"):
        make_outer(name, **params)


@pytest.mark.parametrize("outer", ["mean", "x_sq_plus_r1"])
def test_outer_that_reads_an_integral_needs_an_inner_function(outer):
    # these once built without one and died reading r[0] ("index 0 is out
    # of bounds") when first evaluated
    with pytest.raises(ContractError, match="needs 1 inner functions"):
        make_cylindrical(outer)


def test_linear_inner_rejects_points_of_another_dimension():
    h = make_inner("linear", a=[1.0])
    for evaluate in (h.value, h.grad, h.hess):
        with pytest.raises(ContractError, match="linear inner function"):
            evaluate(np.zeros((3, 2)))


def test_pairing_calls_phi_once_on_the_whole_support():
    f = make_cylindrical("x_sq_plus_r1", [("quadratic", {})])
    mu = cloud(np.random.default_rng(3), 40, 2)
    calls = []

    def phi(y):
        calls.append(np.shape(y))
        return 0.5 * np.asarray(y)

    l_derivative_pairing(f, 0.0, np.zeros(2), mu, phi)
    assert calls == [(40, 2)]
    # a phi that does not map the support atom by atom is a contract fault
    with pytest.raises(ContractError, match="expected \\(40, ...\\)"):
        l_derivative_pairing(f, 0.0, np.zeros(2), mu, lambda y: np.zeros(2))
