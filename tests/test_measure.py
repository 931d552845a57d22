import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from mfsde import (
    ContractError,
    EmpiricalMeasure,
    EvaluationError,
    dirac,
    integrate,
    pushforward,
    wasserstein2,
    wasserstein2_bruteforce,
)
import mfsde.measure as measure
from mfsde.measure import _cost_matrix
from csvfile import write_csv_file


def uniform(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1 and pts.shape[1] > 1 and np.ndim(points) == 1:
        pts = pts.T
    n = pts.shape[0]
    return EmpiricalMeasure(pts, np.full(n, 1.0 / n))


def line(values):
    return uniform(np.asarray(values, dtype=float)[:, None])


# ---------------------------------------------------------------------------
# construction


def test_weights_must_normalize():
    with pytest.raises(ContractError):
        EmpiricalMeasure(np.zeros((2, 1)), np.array([0.5, 0.6]))


def test_weights_must_be_nonnegative():
    with pytest.raises(ContractError):
        EmpiricalMeasure(np.zeros((2, 1)), np.array([1.5, -0.5]))


def test_points_must_be_finite():
    with pytest.raises(ContractError):
        EmpiricalMeasure(np.array([[np.inf]]), np.array([1.0]))


@pytest.mark.parametrize("points", [np.array([0.0, 1.0, 2.0]), np.array(1.0)])
def test_points_must_be_an_n_by_d_array(points):
    # a 1-D array was once read as one atom in R^N, whose x-mean is then 0
    with pytest.raises(ContractError, match=r"\(N, d\)"):
        EmpiricalMeasure(points)


def test_single_atom_allowed():
    mu = dirac([3.0])
    assert mu.n_atoms == 1
    assert mu.second_moment() == 9.0


def test_second_moment_weighted_sum():
    mu = EmpiricalMeasure(np.array([[1.0], [2.0]]), np.array([0.25, 0.75]))
    assert mu.second_moment() == pytest.approx(0.25 * 1 + 0.75 * 4, abs=1e-15)


def test_measure_is_immutable():
    mu = line([0.0, 1.0])
    with pytest.raises(ValueError):
        mu.points[0, 0] = 5.0


# ---------------------------------------------------------------------------
# integrate


def test_integrate_mean_of_symmetric_pair():
    assert integrate(line([0.0, 2.0]), lambda x: x[..., 0]) == 1.0


def test_integrate_dirac_identity():
    mu = dirac([1.5, -2.0])
    val = integrate(mu, lambda x: x[..., 0] * x[..., 1])
    assert val == pytest.approx(-3.0, abs=1e-15)


def test_integrate_second_moment_three_atoms():
    # (0 + 1 + 4) / 3 computed by hand
    val = integrate(line([0.0, 1.0, 2.0]), lambda x: x[..., 0] ** 2)
    assert val == pytest.approx(5.0 / 3.0, abs=1e-15)


def test_integrate_reports_bad_point_index():
    def h(x):
        v = x[..., 0].copy()
        v[np.asarray(x)[..., 0] > 0.5] = np.nan
        return v

    with pytest.raises(EvaluationError, match="1"):
        integrate(line([0.0, 1.0]), h)


@pytest.mark.parametrize("apply", [integrate, pushforward], ids=["integrate", "pushforward"])
@pytest.mark.parametrize(
    "h", [lambda x: 1.0, lambda x: np.ones(3), lambda x: x.T],
    ids=["scalar", "wrong_length", "transposed"],
)
def test_functions_of_the_support_must_return_one_row_per_atom(apply, h):
    # h sees all atoms at once; it is never called again atom by atom
    with pytest.raises(ContractError, match=r"returned shape .*expected \(2, \.\.\.\)"):
        apply(line([0.0, 1.0]), h)


def test_integrate_vector_valued():
    mu = line([0.0, 2.0])
    out = integrate(mu, lambda x: np.stack([x[..., 0], x[..., 0] ** 2], axis=-1))
    assert np.allclose(out, [1.0, 2.0])


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_zero_displacement():
    mu = line([0.0, 1.0])
    nu = pushforward(mu, lambda x: np.zeros_like(x))
    assert np.array_equal(nu.points, mu.points)
    assert np.array_equal(nu.weights, mu.weights)


def test_pushforward_translates_atom():
    nu = pushforward(dirac([0.0]), lambda x: np.full_like(x, 3.0))
    assert np.array_equal(nu.points, [[3.0]])


def test_pushforward_pointwise_map():
    nu = pushforward(line([0.0, 1.0]), lambda x: x)
    assert np.array_equal(np.sort(nu.points[:, 0]), [0.0, 2.0])


# ---------------------------------------------------------------------------
# wasserstein2, frozen oracle values first


def test_w2_identity():
    mu = line([0.3, -1.2, 4.0])
    assert wasserstein2(mu, mu) == 0.0


def test_w2_single_atom_translation():
    assert wasserstein2(dirac([0.0]), dirac([2.0])) == pytest.approx(2.0, abs=1e-15)


def test_w2_two_point_assignment():
    # both couplings enumerated by hand: min((1+4)/2, (9+0)/2) = 2.5
    val = wasserstein2(line([0.0, 1.0]), line([1.0, 3.0]))
    assert val == pytest.approx(np.sqrt(2.5), abs=1e-12)


def test_w2_symmetry():
    mu, nu = line([0.0, 1.0, 5.0]), line([-2.0, 2.0, 2.5])
    assert wasserstein2(mu, nu) == pytest.approx(wasserstein2(nu, mu), abs=1e-12)


def test_w2_dimension_mismatch():
    with pytest.raises(ContractError):
        wasserstein2(dirac([0.0]), dirac([0.0, 0.0]))


def test_w2_weighted_transport_branch():
    # unequal weights force the transport solve; hand value: move mass 0.25
    # from 0 to 1 over distance 1
    mu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.75, 0.25]))
    nu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    assert wasserstein2(mu, nu) == pytest.approx(np.sqrt(0.25), abs=1e-9)


def test_w2_of_nearly_uniform_weights_is_exact():
    # weights within 1e-5 (relative) of 1/N once took the uniform assignment
    # path, which reads W2 = 0 here; the exact value moves mass 4e-6 over 1
    pts = np.array([[0.0], [1.0]])
    mu = EmpiricalMeasure(pts, np.array([0.5 + 4e-6, 0.5 - 4e-6]))
    nu = EmpiricalMeasure(pts)
    assert not mu.is_uniform
    assert wasserstein2(mu, nu) == pytest.approx(np.sqrt(4e-6), rel=1e-6)


def test_w2_transport_size_cap():
    pts = np.arange(65, dtype=float)[:, None]
    w = np.full(65, 1.0 / 65)
    w2 = w.copy()
    w2[0] += 0.001
    w2[1] -= 0.001
    mu = EmpiricalMeasure(pts, w)
    nu = EmpiricalMeasure(pts, w2)
    with pytest.raises(ContractError):
        wasserstein2(mu, nu)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cost_matrix_matches_squared_difference_formula(d):
    rng = np.random.default_rng(d)
    mu = uniform(rng.standard_normal((7, d)))
    nu = uniform(rng.standard_normal((5, d)))
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    assert _cost_matrix(mu.points, nu.points).tobytes() == np.sum(diff**2, axis=2).tobytes()


def test_bruteforce_requires_uniform_equal_count():
    mu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.75, 0.25]))
    with pytest.raises(ContractError):
        wasserstein2_bruteforce(mu, line([0.0, 1.0]))


def test_bruteforce_refuses_more_atoms_than_it_can_enumerate():
    n = measure.MAX_BRUTEFORCE_ATOMS
    assert wasserstein2_bruteforce(line(np.arange(n)), line(np.arange(n) + 0.5)) == 0.5
    with pytest.raises(ContractError, match="limited to"):
        wasserstein2_bruteforce(line(np.arange(n + 1)), line(np.arange(n + 1)))


def _w2_pair(kind, rng, n, d):
    """Two uniform clouds of n points in R^d: the second a translate, a
    rotation plus shift, a scaling plus shift of the first, or independent."""
    cloud = rng.standard_normal((n, d))
    shift = rng.standard_normal(d)
    if kind == "translate":
        other = cloud + shift
    elif kind == "rotation":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        other = cloud @ q.T + shift
    elif kind == "scaling":
        other = 1.5 * cloud + shift
    else:
        other = rng.standard_normal((n, d))
    return EmpiricalMeasure(cloud), EmpiricalMeasure(other)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("kind", ["translate", "rotation", "scaling", "independent"])
def test_centred_assignment_returns_the_raw_solve_bit_for_bit(kind, d, n):
    # the raw cost and the cost of the mean-centred clouds share their
    # optimal couplings; at d = 8 numpy's own sum would add by pairs
    mu, nu = _w2_pair(kind, np.random.default_rng(100 * d + n), n, d)
    cost = _cost_matrix(mu.points, nu.points)
    rows, cols = linear_sum_assignment(cost)
    assert wasserstein2(mu, nu) == float(np.sqrt(cost[rows, cols].mean()))


@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("kind", ["translate", "independent"])
def test_centred_assignment_on_repeated_atoms_agrees_to_rounding(kind, d):
    # every atom twice on each side, so the optimal coupling is not unique:
    # the two solves may pick different optima, whose values agree to rounding
    rng = np.random.default_rng(7 * d)
    half = rng.standard_normal((32, d))
    other = half + rng.standard_normal(d) if kind == "translate" else rng.standard_normal((32, d))
    mu = EmpiricalMeasure(np.concatenate([half, half]))
    nu = EmpiricalMeasure(np.concatenate([other, other]))
    cost = _cost_matrix(mu.points, nu.points)
    rows, cols = linear_sum_assignment(cost)
    raw = float(np.sqrt(cost[rows, cols].mean()))
    assert abs(wasserstein2(mu, nu) - raw) <= 1e-15 * raw


def test_w2_of_a_large_translate_is_the_shift_length():
    # the benchmark's translate, n = 1024 in d = 2: the centred problem is
    # the identity assignment, so this costs tens of milliseconds
    rng = np.random.default_rng(41)
    cloud = rng.standard_normal((1024, 2))
    shift = np.array([0.15, -0.2])
    got = wasserstein2(EmpiricalMeasure(cloud), EmpiricalMeasure(cloud + shift))
    assert abs(got - 0.25) <= 1e-12


# ---------------------------------------------------------------------------
# properties

small_clouds = st.integers(min_value=1, max_value=6)
dims = st.integers(min_value=1, max_value=3)


def _cloud(rng, n, d):
    return uniform(rng.standard_normal((n, d)))


@given(seed=st.integers(0, 10_000), n=small_clouds, d=dims)
@settings(max_examples=60, deadline=None)
def test_triangle_inequality(seed, n, d):
    rng = np.random.default_rng(seed)
    mu, nu, rho = (_cloud(rng, n, d) for _ in range(3))
    assert wasserstein2(mu, rho) <= wasserstein2(mu, nu) + wasserstein2(nu, rho) + 1e-9


@given(seed=st.integers(0, 10_000), n=small_clouds, d=dims)
@settings(max_examples=60, deadline=None)
def test_solver_matches_bruteforce(seed, n, d):
    rng = np.random.default_rng(seed)
    mu, nu = _cloud(rng, n, d), _cloud(rng, n, d)
    assert abs(wasserstein2(mu, nu) - wasserstein2_bruteforce(mu, nu)) <= 1e-12


@given(seed=st.integers(0, 10_000), n=st.integers(1, 8), d=dims)
@settings(max_examples=40, deadline=None)
def test_pushforward_preserves_normalization(seed, n, d):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, n)
    mu = EmpiricalMeasure(rng.standard_normal((n, d)), w / w.sum())
    nu = pushforward(mu, lambda x: np.sin(x))
    assert abs(nu.weights.sum() - 1.0) <= 1e-12


@given(seed=st.integers(0, 10_000), n=small_clouds, d=dims)
@settings(max_examples=40, deadline=None)
def test_identity_coupling_bounds_w2(seed, n, d):
    rng = np.random.default_rng(seed)
    mu = _cloud(rng, n, d)

    def phi(x):
        return np.tanh(x) - 0.3 * x

    nu = pushforward(mu, phi)
    cost = integrate(mu, lambda x: np.sum(phi(x) ** 2, axis=-1))
    assert wasserstein2(mu, nu) ** 2 <= cost + 1e-9


# ---------------------------------------------------------------------------
# serialization


def _write_measure(path, mu):
    header = [f"x_{i+1}" for i in range(mu.dim)] + ["weight"]
    write_csv_file(path, header, ([*x, w] for x, w in zip(mu.points, mu.weights)))


def test_csv_round_trip(tmp_path):
    # every float cell reads back to the same double
    mu = EmpiricalMeasure(
        np.array([[0.1, -2.0 / 3.0], [np.pi, 1e-20]]), np.array([0.625, 0.375])
    )
    path = tmp_path / "mu.csv"
    _write_measure(path, mu)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["x_1", "x_2", "weight"]
    back = np.array(rows, dtype=float)
    assert back[:, :-1].tobytes() == mu.points.tobytes()
    assert back[:, -1].tobytes() == mu.weights.tobytes()


def test_csv_pinned_digest(tmp_path):
    # non-dyadic points and weights at full precision, including a tiny and a
    # large coordinate; the writer must keep these bytes
    mu = EmpiricalMeasure(
        np.array([[0.1, -2.0 / 3.0], [np.pi, 1e-20], [-7.25e5, 1.0 / 7.0]]),
        np.array([1.0 / 3.0, 2.0 / 7.0, 8.0 / 21.0]),
    )
    path = tmp_path / "mu.csv"
    _write_measure(path, mu)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "e135a28c1569881472d46bad119e49db24cd4c950a9275835f8b63288b6b4bff"
    )


@pytest.mark.parametrize("block", [None, 13])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_cost_matrix_bits_match_the_summed_difference_array_over_seeds(d, block, monkeypatch):
    if block is not None:  # row blocks of 2, the last one short
        monkeypatch.setattr(measure, "_COST_BLOCK", block)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mu = uniform(rng.standard_normal((9, d)))
        nu = uniform(rng.standard_normal((6, d)))
        diff = mu.points[:, None, :] - nu.points[None, :, :]
        expected = np.sum(np.square(diff, out=diff), axis=2)
        assert _cost_matrix(mu.points, nu.points).tobytes() == expected.tobytes()
