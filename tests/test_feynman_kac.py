import hashlib

import numpy as np
import pytest

import mfsde.dynamics as dynamics
import mfsde.feynman_kac as feynman_kac
from mfsde import (
    CapabilityError,
    ContractError,
    DataError,
    EmpiricalMeasure,
    McSolution,
    McValueFunction,
    dirac,
    make_coefficients,
    make_cylindrical,
    npy_identity_gap,
    pde_residual_exact,
    pde_residual_mc,
)
from mfsde.dynamics import DOMAIN_DECOUPLED
from mfsde.feynman_kac import _diag_diffusion, solve_drift_coupled_fixed_point


BROWNIAN = make_coefficients("brownian", s=1.0)
DIRAC0 = dirac([0.0])


def x_field(t, X, mu):
    return np.asarray(X)[:, 0]


def zero_field(t, X, mu):
    return np.zeros(X.shape[0])


def unit_field(t, X, mu):
    return np.ones(X.shape[0])


# ---------------------------------------------------------------------------
# terminal datum only


def test_linear_terminal_time_exact():
    Phi = make_cylindrical("x_norm_sq")
    sol = McValueFunction(BROWNIAN, Phi, None, 1.0, 0.01, 50, 0, DIRAC0).solve(1.0, np.array([1.5]))
    assert sol.value == pytest.approx(1.5**2, abs=1e-14)
    assert sol.std_error == 0.0


def test_linear_constant_terminal_exact():
    Phi = make_cylindrical("const", outer_params={"c": 4.0})
    sol = McValueFunction(BROWNIAN, Phi, None, 1.0, 0.05, 64, 1, DIRAC0).solve(0.0, np.array([0.7]))
    assert sol.value == pytest.approx(4.0, abs=1e-14)
    assert sol.std_error == 0.0


def test_linear_heat_kernel_closed_form():
    Phi = make_cylindrical("x_norm_sq")
    t, T, x = 0.25, 1.0, 0.5
    sol = McValueFunction(BROWNIAN, Phi, None, T, 0.01, 40_000, 2, DIRAC0).solve(t, np.array([x]))
    expected = x**2 + (T - t)
    assert abs(sol.value - expected) <= 3 * sol.std_error


# ---------------------------------------------------------------------------
# running cost only


def test_source_zero_exact():
    sol = McValueFunction(BROWNIAN, None, zero_field, 1.0, 0.25, 32, 0, DIRAC0).solve(
        0.0, np.array([0.0]))
    assert sol.value == 0.0
    assert sol.std_error == 0.0


def test_source_unit_constant_exact():
    sol = McValueFunction(BROWNIAN, None, unit_field, 1.0, 0.25, 32, 0, DIRAC0).solve(
        0.25, np.array([0.0]))
    assert sol.value == pytest.approx(-(1.0 - 0.25), abs=1e-13)


def test_source_linear_in_state():
    t, T, x = 0.0, 1.0, 0.8
    sol = McValueFunction(BROWNIAN, None, x_field, T, 0.01, 40_000, 3, DIRAC0).solve(
        t, np.array([x]))
    assert abs(sol.value - (-x * (T - t))) <= 3 * sol.std_error


# ---------------------------------------------------------------------------
# terminal datum and running cost on shared paths


def _solve_at_03(Phi, f_field, seed):
    """The value at (0, 0.3) with T = 1, dt = 0.05 and M = 500 from a point mass."""
    vf = McValueFunction(BROWNIAN, Phi, f_field, 1.0, 0.05, 500, seed, DIRAC0)
    return vf.solve(0.0, np.array([0.3]))


def test_combined_reduces_to_linear_with_zero_source():
    Phi = make_cylindrical("x_norm_sq")
    a = _solve_at_03(Phi, zero_field, seed=5)
    b = _solve_at_03(Phi, None, seed=5)
    assert a.value == b.value
    assert a.std_error == b.std_error


def test_combined_zero_terminal_unit_source():
    Phi = make_cylindrical("const", outer_params={"c": 0.0})
    sol = McValueFunction(BROWNIAN, Phi, unit_field, 1.0, 0.25, 16, 0, DIRAC0).solve(
        0.0, np.array([0.0]))
    assert sol.value == pytest.approx(-1.0, abs=1e-13)


def test_combined_additivity_on_shared_seed():
    Phi = make_cylindrical("x_norm_sq")
    c = _solve_at_03(Phi, x_field, seed=7)
    a = _solve_at_03(Phi, None, seed=7)
    b = _solve_at_03(None, x_field, seed=7)
    assert c.value == pytest.approx(a.value + b.value, abs=1e-12)


# ---------------------------------------------------------------------------
# log transform


def _log_solve(Phi, beta, t, x, M, dt, seed):
    """The log-transform value at (t, x) with T = 1 from a point mass."""
    return McValueFunction(BROWNIAN, Phi, None, 1.0, dt, M, seed, DIRAC0, beta).solve(t, x)


def test_log_transform_constant_exact():
    Phi = make_cylindrical("const", outer_params={"c": 2.0})
    sol = _log_solve(Phi, 3.0, 0.0, np.array([0.0]), 64, 0.25, seed=0)
    assert sol.value == pytest.approx(-3.0 * np.log(2.0), abs=1e-13)
    assert sol.std_error == 0.0


def test_log_transform_terminal_time_exact():
    Phi = make_cylindrical("gauss_quarter")
    x = np.array([0.6])
    sol = _log_solve(Phi, 1.0, 1.0, x, 64, 0.25, seed=0)
    assert sol.value == pytest.approx(0.6**2 / 4.0, abs=1e-13)


def test_log_transform_gaussian_closed_form():
    # E exp(-(x+W_tau)^2/4) = (1+tau/2)^(-1/2) exp(-x^2/(4+2 tau))
    Phi = make_cylindrical("gauss_quarter")
    t, T, x = 0.5, 1.0, 1.0
    tau = T - t
    sol = _log_solve(Phi, 1.0, t, np.array([x]), 40_000, 0.01, seed=9)
    closed = -np.log((1 + tau / 2) ** -0.5 * np.exp(-(x**2) / (4 + 2 * tau)))
    assert abs(sol.value - closed) <= 3 * sol.std_error


def test_log_transform_consistency_with_plain_mean():
    Phi = make_cylindrical("gauss_quarter")
    log_sol = McValueFunction(BROWNIAN, Phi, None, 1.0, 0.05, 400, 11, DIRAC0, 2.0).solve(
        0.0, np.array([0.2]))
    lin_sol = McValueFunction(BROWNIAN, Phi, None, 1.0, 0.05, 400, 11, DIRAC0).solve(
        0.0, np.array([0.2]))
    assert np.exp(-log_sol.value / 2.0) == pytest.approx(lin_sol.value, abs=1e-12)


def test_log_transform_rejects_zero_beta():
    Phi = make_cylindrical("gauss_quarter")
    with pytest.raises(ContractError):
        _log_solve(Phi, 0.0, 0.0, np.array([0.0]), 8, 0.25, seed=0)


def test_log_transform_flags_nonpositive_samples():
    Phi = make_cylindrical("const", outer_params={"c": 0.0})
    with pytest.raises(DataError):
        _log_solve(Phi, 1.0, 0.0, np.array([0.0]), 8, 0.25, seed=0)


# ---------------------------------------------------------------------------
# shared solver behaviour


def test_se_halves_when_m_quadruples():
    Phi = make_cylindrical("x_norm_sq")
    sols = [
        McValueFunction(BROWNIAN, Phi, None, 1.0, 0.01, M, 13, DIRAC0).solve(0.0, np.array([0.0]))
        for M in (4000, 16_000)
    ]
    ratio = sols[0].std_error / sols[1].std_error
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_solver_rejects_reversed_interval(monkeypatch):
    def no_draw(*args):
        raise AssertionError("noise drawn for an empty horizon")

    monkeypatch.setattr(dynamics, "_raw_normals", no_draw)
    Phi = make_cylindrical("x_norm_sq")
    with pytest.raises(ContractError, match="need T >= t"):
        McValueFunction(BROWNIAN, Phi, None, 0.5, 0.25, 8, 0, DIRAC0).solve(1.0, np.array([0.0]))


def test_mc_value_function_deterministic():
    Phi = make_cylindrical("gauss_quarter")
    vf = McValueFunction(
        coeff=BROWNIAN, Phi=Phi, f_field=None, T=1.0, dt=0.05, M=200, seed=17,
        mu=DIRAC0, beta=1.0,
    )
    first, again = (vf.samples(0.0, np.array([0.5])) for _ in range(2))
    assert first.tobytes() == again.tobytes()
    assert vf.value_of_mean(first.mean()) == vf.value_of_mean(again.mean())


def _solver_calls():
    Phi = make_cylindrical("gauss_quarter")

    def solve(Phi, f_field, beta=None):
        return lambda x, M: McValueFunction(
            BROWNIAN, Phi, f_field, 1.0, 0.25, M, 0, DIRAC0, beta).solve(0.0, x)

    return {
        "linear": solve(Phi, None),
        "source": solve(None, zero_field),
        "combined": solve(Phi, zero_field),
        "log_transform": solve(Phi, None, beta=1.0),
        "fixed_point": lambda x, M: solve_drift_coupled_fixed_point(
            BROWNIAN, Phi, 0.0, x, DIRAC0, 1.0, M, 0.25, seed=0, n_iter=1),
        "value_function": lambda x, M: McValueFunction(
            coeff=BROWNIAN, Phi=Phi, f_field=None, T=1.0, dt=0.25, M=M, seed=0,
            mu=DIRAC0).samples(0.0, x),
    }


@pytest.mark.parametrize("M", [0, -1, 2.5])
@pytest.mark.parametrize("solver", sorted(_solver_calls()))
def test_solvers_reject_bad_path_count(solver, M):
    with pytest.raises(ContractError, match="M must"):
        _solver_calls()[solver](np.array([0.0]), M)


@pytest.mark.parametrize("solver", sorted(_solver_calls()))
def test_solvers_reject_misshapen_start(solver):
    with pytest.raises(ContractError, match="broadcast"):
        _solver_calls()[solver](np.zeros(2), 8)


@pytest.mark.parametrize(
    "Phi, f_field, beta",
    [
        (None, None, None),
        (make_cylindrical("gauss_quarter"), zero_field, 1.0),
        (None, zero_field, 1.0),
        (make_cylindrical("gauss_quarter"), None, 0.0),
    ],
    ids=["no_terms", "beta_with_f_field", "beta_without_Phi", "beta_zero"],
)
def test_value_function_rejects_contradictory_terms(Phi, f_field, beta):
    # the terms follow from Phi, f_field and beta; a set of them that names no
    # estimator is refused before any path is simulated
    with pytest.raises(ContractError):
        McValueFunction(BROWNIAN, Phi, f_field, 1.0, 0.25, 8, 0, DIRAC0, beta)


@pytest.mark.parametrize("pde, term", [("nonlinear", "beta"), ("source", "f_field")])
def test_mc_residual_needs_the_term_its_pde_reads(pde, term):
    # each once failed with a TypeError on None
    vf = McValueFunction(BROWNIAN, make_cylindrical("gauss_quarter"), None, 1.0, 0.25, 8, 0, DIRAC0)
    with pytest.raises(ContractError, match=f"pde = {pde} needs a value function with {term}"):
        pde_residual_mc(vf, pde, [(0.0, [0.0])])


# ---------------------------------------------------------------------------
# exact PDE residuals


def test_exact_residual_heat_solution():
    # V = x^2 + (1 - t) solves dt V + 1/2 dxx V = 0 under unit diffusion
    V = make_cylindrical("x_sq_plus_c_minus_t", outer_params={"c": 1.0})
    probes = [(t, [x]) for t in (0.0, 0.5) for x in (-1.0, 0.0, 1.0)]
    table = pde_residual_exact(V, BROWNIAN, "linear", probes, dirac([0.0]), budget=1e-12)
    assert table.verdict == "PASS"
    assert all(abs(r.residual) <= 1e-12 for r in table.rows)


def test_exact_residual_constant_nonlinear():
    V = make_cylindrical("const", outer_params={"c": 5.0})
    table = pde_residual_exact(
        V, BROWNIAN, "nonlinear", [(0.2, [0.4])], dirac([0.0]), beta=2.0, budget=1e-14
    )
    assert table.rows[0].residual == 0.0
    assert table.verdict == "PASS"


def test_exact_residual_source_kind():
    # V = x^2 under unit diffusion: dt V + 1/2 dxx V = 1, so f = 1 matches
    V = make_cylindrical("x_norm_sq")
    table = pde_residual_exact(
        V, BROWNIAN, "source", [(0.3, [0.7])], dirac([0.0]),
        f_field=lambda t, X, mu: np.ones(np.atleast_2d(X).shape[0]), budget=1e-12,
    )
    assert table.verdict == "PASS"


def test_exact_residual_rejects_unknown_pde():
    V = make_cylindrical("x_norm_sq")
    with pytest.raises(ContractError):
        pde_residual_exact(V, BROWNIAN, "parabolic", [(0.0, [0.0])], dirac([0.0]))


def test_residual_csv_schema(tmp_path):
    V = make_cylindrical("const", outer_params={"c": 1.0})
    table = pde_residual_exact(V, BROWNIAN, "linear", [(0.0, [0.0])], dirac([0.0]))
    path = tmp_path / "res.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "pde,t,x,probe_id,residual,budget,verdict"
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# MC-backed residuals


def test_mc_residual_heat_linear_pde():
    Phi = make_cylindrical("x_norm_sq")
    vf = McValueFunction(
        coeff=BROWNIAN, Phi=Phi, f_field=None, T=1.0, dt=0.01, M=20_000, seed=19,
        mu=dirac([0.0]),
    )
    table = pde_residual_mc(vf, "linear", [(0.0, [0.0]), (0.5, [1.0])])
    assert table.verdict == "PASS"


def test_mc_residual_rejects_off_diagonal_diffusion():
    import dataclasses

    coeff = make_coefficients("brownian", s=1.0, d=2)

    def sigma(t, x, mu):
        base = np.array([[1.0, 0.5], [0.0, 1.0]])
        return np.broadcast_to(base, (np.atleast_2d(x).shape[0], 2, 2))

    skew = dataclasses.replace(coeff, sigma=sigma)
    with pytest.raises(CapabilityError):
        _diag_diffusion(skew, 0.0, np.zeros(2), dirac([0.0, 0.0]))


# ---------------------------------------------------------------------------
# generator identity


def test_npy_gap_vanishes_for_gradient_drift():
    import dataclasses

    V = make_cylindrical("x_norm_sq")

    def b(t, x, mu):
        # sigma sigma^* dx V with unit sigma: 2x
        return 2.0 * np.atleast_2d(x)

    coeff = dataclasses.replace(BROWNIAN, b=b)
    for t, x in [(0.0, 0.5), (0.3, -1.2), (0.9, 2.0)]:
        assert npy_identity_gap(coeff, V, t, np.array([x]), dirac([0.0])) <= 1e-12


def test_npy_gap_nonzero_for_wrong_drift():
    V = make_cylindrical("x_norm_sq")
    coeff = make_coefficients("constant_drift", c=1.0, s=1.0)
    gap = npy_identity_gap(coeff, V, 0.0, np.array([1.0]), dirac([0.0]))
    assert gap > 0.1


# ---------------------------------------------------------------------------
# drift-coupled fixed point


def test_fixed_point_reports_convergence_flag_honestly():
    Phi = make_cylindrical("gauss_quarter")
    out = solve_drift_coupled_fixed_point(
        BROWNIAN, Phi, 0.0, np.array([0.5]), dirac([0.0]), 0.5, 2000, 0.05,
        seed=23, n_iter=3,
    )
    assert out.iterations >= 1
    assert len(out.drift_changes) == out.iterations
    assert out.converged == (out.drift_changes[-1] < 1e-3)


# ---------------------------------------------------------------------------
# golden hashes under a measure-dependent coefficient
#
# Recorded with numpy 2.4.6 and scipy 1.17.1.  Starting off t = 0 puts the
# paths on a slice of the frozen flow's grid, whose spacing can differ from
# dt in the last bit; the source integral must keep multiplying by that
# spacing.  The residual table also runs the measure-shift columns.

MEAN_REVERT = make_coefficients("mean_revert", rate=1.0, s=0.8)
MU0 = EmpiricalMeasure(np.linspace(-0.5, 1.5, 9)[:, None])


def mean_coupled_source(t, X, mu):
    return np.asarray(X)[:, 0] * mu.mean()[0] + t


def _mean_revert_vf(terms):
    """The value function of the named terms: Phi alone (linear), the running
    cost alone (source) or both (combined)."""
    return McValueFunction(
        coeff=MEAN_REVERT,
        Phi=None if terms == "source" else make_cylindrical("x_sq_plus_r1", [("quadratic", {})]),
        f_field=None if terms == "linear" else mean_coupled_source, T=1.0, dt=0.05, M=200,
        seed=29, mu=MU0, n_flow=50,
    )


SAMPLES_GOLDEN = {
    "combined": "77264f98e19e85759824f98a374eb5e100e01d7ccfcae94d07cfdea0c61eae95",
    "linear": "26d157e9f016ad80e1c2968f9373712ecf74ccd27e6e90c2b7d901984652467d",
    "source": "2d35ae3472ae7597550dbae66158441a71721e2a82a6562bf4a4a13d8b9b94e5",
}
RESIDUAL_TABLE_GOLDEN = "fd74a5d7b9a50fa9e033fdcf8946470e62166a42beaa69e51956a0fc08acdf03"
FIXED_POINT_GOLDEN = (0.05843381749852504, 0.007012058099822943)


@pytest.mark.parametrize("terms", sorted(SAMPLES_GOLDEN))
def test_samples_off_zero_match_golden_hash(terms):
    samples = _mean_revert_vf(terms).samples(0.25, np.array([0.4]))
    assert samples.dtype == np.float64 and samples.shape == (200,)
    assert hashlib.sha256(samples.tobytes()).hexdigest() == SAMPLES_GOLDEN[terms]


def test_mc_residual_table_matches_golden_hash(tmp_path):
    table = pde_residual_mc(_mean_revert_vf("linear"), "linear", [(0.0, [0.3]), (0.25, [-0.5])])
    path = tmp_path / "residual.csv"
    table.to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RESIDUAL_TABLE_GOLDEN


def test_fixed_point_drift_changes_match_golden():
    out = solve_drift_coupled_fixed_point(
        MEAN_REVERT, make_cylindrical("gauss_quarter"), 0.25, np.array([0.4]), MU0,
        1.0, 200, 0.05, seed=31, n_iter=2, n_flow=50,
    )
    assert out.drift_changes == FIXED_POINT_GOLDEN


@pytest.mark.parametrize("terms", ["linear", "source", "combined", "log_transform"])
def test_solvers_are_the_value_function_mean(terms):
    # solve is the mean of the samples with its standard error, or under the
    # log transform -beta log of it with the delta-method error
    Phi = None if terms == "source" else make_cylindrical("gauss_quarter")
    f_field = mean_coupled_source if terms in ("source", "combined") else None
    beta = 0.5 if terms == "log_transform" else None
    vf = McValueFunction(MEAN_REVERT, Phi, f_field, 1.0, 0.05, 200, 29, MU0, beta, n_flow=50)
    solve = lambda: vf.solve(0.25, np.array([0.4]))  # noqa: E731
    samples = vf.samples(0.25, np.array([0.4]))
    mean, se = float(samples.mean()), float(np.std(samples, ddof=1) / np.sqrt(200))
    expected = (McSolution(mean, se, 200) if beta is None else
                McSolution(float(-beta * np.log(mean)), beta * se / mean, 200, beta))
    assert solve() == expected


def test_value_function_shared_flow_gives_same_samples(monkeypatch):
    vf = McValueFunction(
        coeff=MEAN_REVERT, Phi=make_cylindrical("x_norm_sq"), f_field=mean_coupled_source,
        T=1.0, dt=0.05, M=50, seed=3, mu=MU0, n_flow=20,
    )
    alone = [vf.samples(0.25, [x]) for x in (0.0, 0.7)]
    starts = []
    record = feynman_kac._record

    def counted(coeff, init, times, *args):
        starts.append(times[0])
        return record(coeff, init, times, *args)

    monkeypatch.setattr(feynman_kac, "_record", counted)
    [table] = vf.sample_table([[(0.25, [0.0], None), (0.25, [0.7], None)]])
    # the two columns share one frozen flow and read the samples of separate calls
    assert starts == [0.25]
    assert table.shape == (50, 2) and table.flags.c_contiguous
    for j in range(2):
        assert table[:, j].tobytes() == alone[j].tobytes()
    with pytest.raises(ContractError, match="T >= t"):
        vf.sample_table([[(0.25, [0.0], None), (1.5, [0.0], None)]])


# ---------------------------------------------------------------------------
# chunked sampler: chunk and tile sizes never change a result

MEAN_REVERT_2D = make_coefficients("mean_revert", d=2, rate=1.2, s=0.6)
MU0_2D = EmpiricalMeasure(np.random.default_rng(41).standard_normal((7, 2)))
PROBES_2D = [(0.0, [0.3, -0.2]), (0.25, [-0.5, 0.1])]


def mean_coupled_source_2d(t, X, mu):
    return np.asarray(X)[:, 0] * mu.mean()[1] + t


def _mean_revert_2d_vf(terms):
    """As _mean_revert_vf, in d = 2."""
    return McValueFunction(
        coeff=MEAN_REVERT_2D, Phi=None if terms == "source" else make_cylindrical("x_norm_sq"),
        f_field=None if terms == "linear" else mean_coupled_source_2d, T=0.5, dt=0.05, M=200,
        seed=43, mu=MU0_2D, n_flow=30,
    )


def _chunked_outputs(tmp_path):
    """Sample and residual-table bytes of the d = 1 and d = 2 mean-revert tables."""
    out = {p: _mean_revert_vf(p).samples(0.25, np.array([0.4])).tobytes() for p in SAMPLES_GOLDEN}
    for name, vf, pde, probes, n_draws in (
        ("d1_linear", _mean_revert_vf("linear"), "linear", [(0.0, [0.3]), (0.25, [-0.5])], 4),
        ("d2_linear", _mean_revert_2d_vf("linear"), "linear", PROBES_2D, 2),
        ("d2_source", _mean_revert_2d_vf("source"), "source", PROBES_2D, 2),
    ):
        path = tmp_path / f"{name}.csv"
        pde_residual_mc(vf, pde, probes, n_measure_draws=n_draws).to_csv(path)
        out[name] = path.read_bytes()
    columns = [(0.0, [0.3, -0.2], None), (0.1, [0.0, 0.0], None), (0.0, [-0.1, 0.4], MU0_2D)]
    out["d2_table"] = b"".join(
        S.tobytes() for S in _mean_revert_2d_vf("combined").sample_table([columns, columns[:1]]))
    return out


# (TILE, CHUNK_UNIT): one chunk of 200; chunks of 100 or 50 particles that
# divide M = 200; chunks of 48 or 32 (one column per Euler loop) and of 294
# or 56 particles that do not
CHUNKINGS = [(16_384, 1024), (100, 25), (48, 16), (300, 7)]


@pytest.mark.parametrize("tile, unit", CHUNKINGS[1:])
def test_samples_and_tables_identical_across_chunk_sizes(tile, unit, tmp_path, monkeypatch):
    whole = _chunked_outputs(tmp_path)
    chunks = []
    draw = dynamics._raw_normals

    def counted(seed, n_particles, n_steps, m, domain, first=0):
        if domain == DOMAIN_DECOUPLED:
            chunks.append(n_particles)
        return draw(seed, n_particles, n_steps, m, domain, first)

    monkeypatch.setattr(feynman_kac, "TILE", tile)
    monkeypatch.setattr(feynman_kac, "CHUNK_UNIT", unit)
    monkeypatch.setattr(dynamics, "_raw_normals", counted)
    assert _chunked_outputs(tmp_path) == whole
    assert min(chunks) < 200
    for terms, digest in SAMPLES_GOLDEN.items():
        assert hashlib.sha256(whole[terms]).hexdigest() == digest
    assert hashlib.sha256(whole["d1_linear"]).hexdigest() == RESIDUAL_TABLE_GOLDEN


def test_chunk_size_rule():
    assert feynman_kac._chunk_size(1) == feynman_kac.TILE
    assert feynman_kac._chunk_size(4) == 4096
    assert feynman_kac._chunk_size(5) == 3072
    # 15 columns of a 1024-particle chunk would fit one tile, but a chunk
    # is at least two units
    assert feynman_kac._chunk_size(15) == 2048
    assert feynman_kac._chunk_size(100) == 2048


def test_pde_residual_builds_one_flow_per_distinct_start(monkeypatch):
    starts = []
    record = feynman_kac._record

    def counted(coeff, init, times, *args):
        starts.append((times[0], id(init)))
        return record(coeff, init, times, *args)

    monkeypatch.setattr(feynman_kac, "_record", counted)
    vf = McValueFunction(
        coeff=BROWNIAN, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=0.5, dt=0.05,
        M=40, seed=3, mu=dirac([0.0]), n_flow=10,
    )
    # two probes at t = 0 and one at t = 0.25, forward stencils of h_t = 0.05
    pde_residual_mc(vf, "linear", [(0.0, [0.3]), (0.0, [-0.4]), (0.25, [0.1])])
    assert len(starts) == len(set(starts)) == 6
    assert sorted(s for s, _ in starts) == pytest.approx([0.0, 0.05, 0.1, 0.25, 0.3, 0.35])

    # a measure-dependent field adds one flow per shifted measure
    starts.clear()
    n_draws = 2
    pde_residual_mc(_mean_revert_vf("linear"), "linear", [(0.0, [0.3]), (0.0, [-0.5])],
                    n_measure_draws=n_draws)
    assert len(starts) == len(set(starts)) == 3 + 2 * 2 * n_draws


def test_chunked_blowup_names_the_global_particle(monkeypatch):
    import dataclasses

    from mfsde import SimulationError
    from mfsde.dynamics import DOMAIN_DECOUPLED, _raw_normals

    dt, M = 0.25, 100
    # step 1 puts path i at sqrt(dt) z_i; the drift of step 2 throws every
    # path above the largest of the first 40 to infinity
    first_step = _raw_normals(7, M, 4, 1, DOMAIN_DECOUPLED)[0, :, 0] * np.sqrt(dt)
    c = first_step[:40].max()
    expected = int(np.argmax(first_step > c))
    assert expected >= 40

    def b(t, x, mu):
        out = np.zeros(np.shape(x))
        if abs(t - dt) < 1e-12:
            out[x[:, 0] > c, 0] = np.inf
        return out

    coeff = dataclasses.replace(BROWNIAN, b=b)
    monkeypatch.setattr(feynman_kac, "TILE", 64)
    monkeypatch.setattr(feynman_kac, "CHUNK_UNIT", 16)
    vf = McValueFunction(
        coeff=coeff, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=1.0, dt=dt, M=M,
        seed=7, mu=dirac([0.0]), n_flow=4,
    )
    # the column that blows up runs second in its Euler loop, in a later chunk
    with pytest.raises(SimulationError) as exc:
        vf.sample_table([[(0.0, [-100.0], None), (0.0, [0.0], None)]])
    assert (exc.value.step, exc.value.particle) == (2, expected)
