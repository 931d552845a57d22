import dataclasses
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
    SimulationError,
    dirac,
    make_coefficients,
    make_cylindrical,
    npy_identity_gap,
    pde_residual_exact,
    pde_residual_mc,
)
from mfsde.calculus import CylindricalFunction, OuterFunction
from mfsde.cli import PRESETS, _value_function, parse_config, run_scenario
from mfsde.dynamics import ignores
from mfsde.feynman_kac import MEASURE_DS, MomentFold, _diag_diffusion, _measure_shifts
from csvfile import write_csv_file
from replayed import recorded_flows


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

    monkeypatch.setattr(dynamics, "brownian_increments", no_draw)
    monkeypatch.setattr(feynman_kac, "decoupled_rows", no_draw)
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
        "value_function": lambda x, M: McValueFunction(
            coeff=BROWNIAN, Phi=Phi, f_field=None, T=1.0, dt=0.25, M=M, seed=0,
            mu=DIRAC0).samples(0.0, x),
    }


@pytest.mark.parametrize("M", [0, -1, 1, 2.5])
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


# ---------------------------------------------------------------------------
# exact PDE residuals


def test_exact_residual_heat_solution():
    # V = x^2 + (1 - t) solves dt V + 1/2 dxx V = 0 under unit diffusion
    V = make_cylindrical("x_sq_plus_c_minus_t", outer_params={"c": 1.0})
    probes = [(t, [x]) for t in (0.0, 0.5) for x in (-1.0, 0.0, 1.0)]
    table = pde_residual_exact(V, BROWNIAN, probes, dirac([0.0]), budget=1e-12)
    assert table.verdict == "PASS"
    assert all(abs(r.residual) <= 1e-12 for r in table.rows)


def test_exact_residual_constant_nonlinear():
    V = make_cylindrical("const", outer_params={"c": 5.0})
    table = pde_residual_exact(
        V, BROWNIAN, [(0.2, [0.4])], dirac([0.0]), beta=2.0, budget=1e-14
    )
    assert table.rows[0].residual == 0.0
    assert table.verdict == "PASS"


def test_exact_residual_source_kind():
    # V = x^2 under unit diffusion: dt V + 1/2 dxx V = 1, so f = 1 matches
    V = make_cylindrical("x_norm_sq")
    table = pde_residual_exact(
        V, BROWNIAN, [(0.3, [0.7])], dirac([0.0]),
        f_field=lambda t, X, mu: np.ones(np.atleast_2d(X).shape[0]), budget=1e-12,
    )
    assert table.verdict == "PASS"


def test_exact_and_mc_residuals_read_one_pde_off_their_terms():
    # one rule names the PDE of a set of terms for both residuals, and both
    # refuse the same contradictory sets with the same words
    V = make_cylindrical("gauss_quarter")

    def exact(f_field, beta):
        return pde_residual_exact(V, BROWNIAN, [(0.0, [0.0])], DIRAC0, f_field, beta)

    def mc(f_field, beta):
        return McValueFunction(BROWNIAN, V, f_field, 1.0, 0.25, 8, 0, DIRAC0, beta)

    for f_field, beta, pde in [(None, None, "linear"), (unit_field, None, "source"),
                               (None, 2.0, "nonlinear")]:
        assert exact(f_field, beta).rows[0].pde == mc(f_field, beta).pde == pde
    for f_field, beta, match in [(unit_field, 1.0, "takes no running cost f_field"),
                                 (None, 0.0, "beta must be nonzero")]:
        with pytest.raises(ContractError, match=match) as by_exact:
            exact(f_field, beta)
        with pytest.raises(ContractError, match=match) as by_mc:
            mc(f_field, beta)
        assert str(by_exact.value) == str(by_mc.value)


GAUSS = make_cylindrical("gauss_quarter")


@pytest.mark.parametrize(
    "check, match",
    [
        (lambda: pde_residual_exact(GAUSS, BROWNIAN, [(0.0, [0.0])], DIRAC0, beta=0.0),
         "beta must be nonzero"),
        (lambda: pde_residual_exact(GAUSS, BROWNIAN, [(0.0, [0.0, 1.0])], DIRAC0),
         "broadcast"),
        (lambda: npy_identity_gap(BROWNIAN, GAUSS, 0.0, np.array([0.0, 1.0]), DIRAC0),
         "broadcast"),
    ],
    ids=["exact_beta_zero", "exact_misshapen_x", "npy_misshapen_x"],
)
def test_residual_checks_reject_what_they_cannot_evaluate(check, match):
    # each once raised a TypeError or ZeroDivisionError, or read x = [0, 1]
    # in d = 1 as a FAIL row
    with pytest.raises(ContractError, match=match):
        check()


def test_residual_csv_schema(tmp_path):
    V = make_cylindrical("const", outer_params={"c": 1.0})
    table = pde_residual_exact(V, BROWNIAN, [(0.0, [0.0])], dirac([0.0]))
    path = tmp_path / "res.csv"
    write_csv_file(path, *table.to_rows())
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
    # t = 0.99 is T - h_t: its time difference has no Richardson comparison
    table = pde_residual_mc(vf, [(0.0, [0.0]), (0.5, [1.0]), (0.99, [0.5])])
    assert table.verdict == "PASS"


def test_mc_residual_rejects_off_diagonal_diffusion():
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
# golden hashes under a measure-dependent coefficient
#
# Recorded with numpy 2.4.6 and scipy 1.17.1.  Starting off t = 0 puts the
# paths on a slice of the frozen flow's grid, whose spacing can differ from
# dt in the last bit; the source integral multiplies by dt, not by that
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
    "combined": "8d4c14230429ebdab44a506bfd7df10274a9395da64e87efe72b7199d09d6aeb",
    "linear": "2e00fd2fa5e5fad56640c9ab6a242ed8e9e270ebc91bc294174183dd8ffcbdd2",
    "source": "daf03467bfac42b31526372038caddfe2f42d7ac71717dbacaad4d183967e2cd",
}
RESIDUAL_TABLE_GOLDEN = "b0849181a768bb2827c5ba942e2eab4591964dbd2478fefb8e91ea3c43572821"


def test_measure_shift_pairs_are_mirror_images(monkeypatch):
    # both measures of a draw read one xi, Y + b ds + sqrt(ds) sigma xi and
    # Y + b ds - sqrt(ds) sigma xi, so the O(ds^-1/2) term cancels in the pair
    flows = recorded_flows(monkeypatch)
    vf = _mean_revert_vf("linear")
    pde_residual_mc(vf, [(0.25, [0.4])], n_measure_draws=3)
    shifted = [flow.init for flow in flows if flow.init is not MU0]
    assert len(shifted) == 6
    centre = MU0.points + np.asarray(MEAN_REVERT.b(0.25, MU0.points, MU0)) * MEASURE_DS
    for plus, minus in zip(shifted[::2], shifted[1::2]):
        assert np.allclose(plus.points - centre, centre - minus.points, rtol=0, atol=1e-12)
        assert np.abs(plus.points - centre).min() > 1e-3


@pytest.mark.parametrize("terms", sorted(SAMPLES_GOLDEN))
def test_samples_off_zero_match_golden_hash(terms):
    samples = _mean_revert_vf(terms).samples(0.25, np.array([0.4]))
    assert samples.dtype == np.float64 and samples.shape == (200,)
    assert hashlib.sha256(samples.tobytes()).hexdigest() == SAMPLES_GOLDEN[terms]


def test_mc_residual_table_matches_golden_hash(tmp_path):
    table = pde_residual_mc(_mean_revert_vf("linear"), [(0.0, [0.3]), (0.25, [-0.5])])
    path = tmp_path / "residual.csv"
    write_csv_file(path, *table.to_rows())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RESIDUAL_TABLE_GOLDEN


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
    expected = (McSolution(mean, se) if beta is None else
                McSolution(float(-beta * np.log(mean)), beta * se / mean))
    assert solve() == expected


def test_value_function_shared_flow_gives_same_samples(monkeypatch):
    vf = McValueFunction(
        coeff=MEAN_REVERT, Phi=make_cylindrical("x_norm_sq"), f_field=mean_coupled_source,
        T=1.0, dt=0.05, M=50, seed=3, mu=MU0, n_flow=20,
    )
    alone = [vf.samples(0.25, [x]) for x in (0.0, 0.7)]
    flows = recorded_flows(monkeypatch)
    [table] = vf.sample_table([[(0.25, [0.0], None), (0.25, [0.7], None)]])
    # the two columns share one frozen flow and read the samples of separate calls
    assert [flow.start for flow in flows] == [0.25]
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
    for name, vf, probes, n_draws in (
        ("d1_linear", _mean_revert_vf("linear"), [(0.0, [0.3]), (0.25, [-0.5])], 4),
        ("d2_linear", _mean_revert_2d_vf("linear"), PROBES_2D, 2),
        ("d2_source", _mean_revert_2d_vf("source"), PROBES_2D, 2),
    ):
        path = tmp_path / f"{name}.csv"
        write_csv_file(path, *pde_residual_mc(vf, probes, n_measure_draws=n_draws).to_rows())
        out[name] = path.read_bytes()
    columns = [(0.0, [0.3, -0.2], None), (0.1, [0.0, 0.0], None), (0.0, [-0.1, 0.4], MU0_2D)]
    out["d2_table"] = b"".join(
        S.tobytes() for S in _mean_revert_2d_vf("combined").sample_table([columns, columns[:1]]))
    return out


# CHUNK: one chunk of 200; chunks of 100 particles that divide M = 200, and
# of 48 or 7 that do not
CHUNKS = [feynman_kac.CHUNK, 100, 48, 7]


@pytest.mark.parametrize("chunk", CHUNKS[1:])
def test_samples_and_tables_identical_across_chunk_sizes(chunk, tmp_path, monkeypatch):
    whole = _chunked_outputs(tmp_path)
    chunks = []
    rows = feynman_kac.decoupled_rows

    def counted(seed, n_particles, n_steps, m, dt, first=0):
        chunks.append(n_particles)
        return rows(seed, n_particles, n_steps, m, dt, first)

    monkeypatch.setattr(feynman_kac, "CHUNK", chunk)
    monkeypatch.setattr(feynman_kac, "decoupled_rows", counted)
    assert _chunked_outputs(tmp_path) == whole
    assert min(chunks) < 200
    for terms, digest in SAMPLES_GOLDEN.items():
        assert hashlib.sha256(whole[terms]).hexdigest() == digest
    assert hashlib.sha256(whole["d1_linear"]).hexdigest() == RESIDUAL_TABLE_GOLDEN


def test_chunk_size_rule(monkeypatch):
    # a chunk is whole noise blocks and whole fold leaves, whatever the table
    assert feynman_kac.CHUNK == 5 * dynamics.NOISE_BLOCK
    assert feynman_kac.CHUNK % feynman_kac.FOLD_ROWS == 0
    spans = []
    rows = feynman_kac.decoupled_rows

    def counted(seed, n_particles, n_steps, m, dt, first=0):
        spans.append((first, first + n_particles))
        return rows(seed, n_particles, n_steps, m, dt, first)

    monkeypatch.setattr(feynman_kac, "decoupled_rows", counted)
    vf = McValueFunction(BROWNIAN, make_cylindrical("x_norm_sq"), None, 0.2, 0.05,
                         2 * feynman_kac.CHUNK + 7, 3, DIRAC0)
    for width in (1, 15):
        spans.clear()
        list(vf.sample_chunks([[(0.0, [0.1 * j], None) for j in range(width)]]))
        c = feynman_kac.CHUNK
        assert spans == [(0, c), (c, 2 * c), (2 * c, 2 * c + 7)]


def test_each_increment_row_steps_every_flow_group_once(monkeypatch):
    # five columns that read one law under a time-homogeneous field, on grids
    # of 4, 3, 3, 0 and 3 steps, form one run of four distinct start points,
    # the longest first: row k is drawn once per chunk and steps the run once,
    # with the rows whose last stop is past k
    calls = []
    step = feynman_kac._euler_step

    def counted(coeff, t, x, mu, dw, dt, k, first):
        calls.append((first, k, x.shape[0], dw))
        return step(coeff, t, x, mu, dw, dt, k, first)

    monkeypatch.setattr(feynman_kac, "_euler_step", counted)
    monkeypatch.setattr(feynman_kac, "CHUNK", 64)
    vf = McValueFunction(MEAN_REVERT, make_cylindrical("x_norm_sq"), None, 1.0, 0.25, 100, 5,
                         MU0, n_flow=8)
    columns = [[(0.0, [0.2], None), (0.25, [0.0], None)],
               [(0.25, [0.3], None), (1.0, [0.0], None), (0.25, [-0.1], None)]]
    tables = vf.sample_table(columns)
    assert [(first, k, width) for first, k, width, _ in calls] == [
        (first, k, 4 if k < 3 else 1) for first in (0, 64) for k in range(4)]
    for first, k, _, dw in calls:
        row = [dw_j for first_j, k_j, _, dw_j in calls if (first_j, k_j) == (first, k)]
        assert all(dw_j is row[0] for dw_j in row) and not row[0].flags.writeable
    # the column that starts at T is its start point's datum, |0|^2, read
    # before the row it shares with the column at 0.25 takes a step
    assert not tables[1][:, 1].any()
    assert tables[0][:, 1].any()


def test_pde_residual_builds_one_flow_per_distinct_law(monkeypatch):
    flows = recorded_flows(monkeypatch)

    def starts():
        return [(flow.start, id(flow.init)) for flow in flows]

    vf = McValueFunction(
        coeff=BROWNIAN, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=0.5, dt=0.05,
        M=40, seed=3, mu=dirac([0.0]), n_flow=10,
    )
    probes = [(0.0, [0.3]), (0.0, [-0.4]), (0.25, [0.1])]
    # nothing reads the law: a measure-free field and a datum without inner functions
    pde_residual_mc(vf, probes)
    assert starts() == []

    # a datum that reads mu_T: two probes at t = 0 and one at t = 0.25, with
    # forward stencils of h_t = 0.05; every column on the function's own
    # measure reads one flow from the earliest start, and each shifted
    # measure its own flow from its probe's start
    reads_mu = make_cylindrical("x_sq_plus_r1", [("quadratic", {})])
    n_draws = 2
    pde_residual_mc(dataclasses.replace(vf, Phi=reads_mu), probes, n_measure_draws=n_draws)
    assert len(starts()) == len(set(starts())) == len({i for _, i in starts()})
    assert len(starts()) == 1 + 3 * 2 * n_draws
    assert starts()[0] == (0.0, id(vf.mu))
    assert sorted({s for s, _ in starts()}) == [0.0, 0.25]

    # so does a measure-dependent field
    flows.clear()
    pde_residual_mc(_mean_revert_vf("linear"), [(0.0, [0.3]), (0.0, [-0.5])],
                    n_measure_draws=n_draws)
    assert len(starts()) == len({i for _, i in starts()}) == 1 + 2 * 2 * n_draws


def test_a_datum_that_reads_the_law_gets_the_measure_term():
    # Phi = x^2 + mu_T(|.|^2) under a brownian field, s = 1: the value reads
    # the law, so each probe shifts mu, and the measure term
    # int tr(sigma sigma^* dy dmu V) / 2 dmu = 1 enters its residual.  The
    # shifts once ran only under a measure-dependent field, which left this
    # value's residuals short by 1.  (The CLI still refuses Phi.inner on
    # pde_residual: the budget has no term for the frozen flow's sampling
    # error.)
    vf = McValueFunction(BROWNIAN, make_cylindrical("x_sq_plus_r1", [("quadratic", {})]), None,
                         1.0, 0.05, 400, 23, MU0, n_flow=50)
    assert vf.reads_law and not vf.coeff.measure_dependent and vf.pde == "linear"
    probes = [(0.0, [x]) for x in (-1.0, 0.0, 1.0)] + [(0.5, [0.0])]
    shifted = pde_residual_mc(vf, probes, n_measure_draws=2)
    unshifted = pde_residual_mc(vf, probes, n_measure_draws=0)
    for row, without in zip(shifted.rows, unshifted.rows):
        assert row.residual - without.residual == pytest.approx(1.0, abs=1e-9)


def test_measure_free_samples_equal_those_on_a_frozen_flow(monkeypatch):
    # a field that reads no law runs without a frozen flow, and its samples
    # are those of the same field declared measure-dependent, bit for bit
    flows = recorded_flows(monkeypatch)
    coeff = make_coefficients("constant_drift", c=0.3, s=0.7)
    free = McValueFunction(coeff, make_cylindrical("x_norm_sq"), None, 1.0, 0.05, 300, 5, MU0,
                           n_flow=20)
    frozen = dataclasses.replace(free, coeff=dataclasses.replace(coeff, measure_dependent=True))
    columns = [(0.0, [0.3], None), (0.25, [-0.4], None), (0.25, [0.1], DIRAC0)]
    tables = {vf.coeff.measure_dependent: vf.sample_table([columns])[0] for vf in (free, frozen)}
    assert tables[False].tobytes() == tables[True].tobytes()
    # one flow per distinct mu, from its earliest column, for the
    # measure-dependent field only
    assert [(flow.start, id(flow.init)) for flow in flows] == [(0.0, id(MU0)), (0.25, id(DIRAC0))]
    assert [flow.coeff.measure_dependent for flow in flows] == [True] * 2


def test_measure_shifts_draw_from_their_own_domain(monkeypatch):
    # the Rademacher shifts read particle 0 of DOMAIN_MEASURE_SHIFT, not
    # Philox(key=seed): its key [seed, 0] is the interacting stream of
    # particle 0 of the seed seed ^ 0x9E3779B97F4A7C15
    calls = []
    shifts = feynman_kac._measure_shifts

    def recorded(coeff, mu, t, ds, rng):
        calls.append((t, shifts(coeff, mu, t, ds, rng)))
        return calls[-1][1]

    monkeypatch.setattr(feynman_kac, "_measure_shifts", recorded)
    vf = _mean_revert_vf("linear")
    pde_residual_mc(vf, [(0.25, [0.4])], n_measure_draws=2)
    plain = np.random.Generator(np.random.Philox(key=np.uint64(vf.seed)))
    aliased = dynamics.particle_stream(vf.seed ^ 0x9E3779B97F4A7C15, 0)
    assert plain.standard_normal(4).tobytes() == aliased.standard_normal(4).tobytes()
    own = dynamics.particle_stream(vf.seed, 0, dynamics.DOMAIN_MEASURE_SHIFT)
    aliased = dynamics.particle_stream(vf.seed ^ 0x9E3779B97F4A7C15, 0)
    assert len(calls) == 2
    for t, pair in calls:
        mine = _measure_shifts(MEAN_REVERT, MU0, t, MEASURE_DS, own)
        theirs = _measure_shifts(MEAN_REVERT, MU0, t, MEASURE_DS, aliased)
        for got, want, other in zip(pair, mine, theirs):
            assert got.points.tobytes() == want.points.tobytes()
            assert got.points.tobytes() != other.points.tobytes()


def test_chunked_blowup_names_the_global_particle(monkeypatch):
    from mfsde import SimulationError
    from mfsde.dynamics import decoupled_rows

    dt, M = 0.25, 100
    # step 1 puts path i at its first increment; the drift of step 2 throws
    # every path above the largest of the first 40 to infinity
    first_step = next(decoupled_rows(7, M, 4, 1, dt))[:, 0]
    c = first_step[:40].max()
    expected = int(np.argmax(first_step > c))
    assert expected >= 40

    def b(t, x, mu):
        out = np.zeros(np.shape(x))
        if abs(t - dt) < 1e-12:
            out[x[:, 0] > c, 0] = np.inf
        return out

    coeff = dataclasses.replace(BROWNIAN, b=b)
    monkeypatch.setattr(feynman_kac, "CHUNK", 32)
    vf = McValueFunction(
        coeff=coeff, Phi=make_cylindrical("x_norm_sq"), f_field=None, T=1.0, dt=dt, M=M,
        seed=7, mu=dirac([0.0]), n_flow=4,
    )
    # the column that blows up is the second of its (K, B, d) state, in a later chunk
    with pytest.raises(SimulationError) as exc:
        vf.sample_table([[(0.0, [-100.0], None), (0.0, [0.0], None)]])
    assert (exc.value.step, exc.value.particle) == (2, expected)


# ---------------------------------------------------------------------------
# shared runs: columns that differ only in start time are one path


def _recorded_steps(monkeypatch):
    """(first, k, rows) of every Euler step the sampler takes from here on."""
    calls = []
    step = feynman_kac._euler_step

    def counted(coeff, t, x, mu, dw, dt, k, first):
        calls.append((first, k, x.shape[0]))
        return step(coeff, t, x, mu, dw, dt, k, first)

    monkeypatch.setattr(feynman_kac, "_euler_step", counted)
    return calls


@pytest.mark.parametrize("name, d, params, Phi", [
    ("brownian", 1, {"s": 0.8}, ("x_norm_sq", [])),
    ("brownian", 1, {"s": 0.8}, ("x_sq_plus_r1", ["quadratic"])),
    ("ou", 1, {}, ("x_sq_plus_r1", ["quadratic"])),
    ("mean_revert", 2, {"rate": 1.2, "s": 0.6}, ("x_sq_plus_r1", ["quadratic"])),
])
def test_staggered_table_equals_one_table_per_column(monkeypatch, name, d, params, Phi):
    # columns at 0, 0.25, 0.5, 0.95 and T on the function's own measure form
    # one run of three start points, each column read at its own step count
    # (with Phi's inner integrals at that step's law), and a column on another
    # measure its own run; every column's samples are those of a table of
    # that column alone, bit for bit
    coeff = make_coefficients(name, d=d, **params)
    assert coeff.time_homogeneous
    mu = EmpiricalMeasure(np.random.default_rng(5).standard_normal((6, d)))
    other = EmpiricalMeasure(np.random.default_rng(6).standard_normal((4, d)) + 0.5)
    vf = McValueFunction(coeff, make_cylindrical(*Phi), None, 1.0, 0.05, 150, 9, mu, n_flow=12)
    xa, xb, xc = ([0.3, -0.2][:d], [-0.4, 0.1][:d], [0.0, 0.7][:d])
    # the earliest-stopping start point comes first, the latest last
    columns = [(0.5, xc, None), (0.95, xb, None), (0.0, xa, None), (0.25, xb, None),
               (0.5, xa, None), (1.0, xa, None), (0.25, xa, other)]
    monkeypatch.setattr(feynman_kac, "CHUNK", 64)
    alone = [vf.sample_table([[column]])[0][:, 0] for column in columns]
    flows = recorded_flows(monkeypatch)
    calls = _recorded_steps(monkeypatch)
    [table] = vf.sample_table([columns])
    for j, samples in enumerate(alone):
        assert table[:, j].tobytes() == samples.tobytes()
    # rows xa, xb and xc stop after 20, 15 and 10 steps, and the run on the
    # other measure after 15: one Euler step per run and increment row
    assert [(k, rows) for first, k, rows in calls if first == 0] == [
        (k, rows) for k in range(20)
        for rows in ((3 if k < 10 else 2 if k < 15 else 1,) + ((1,) if k < 15 else ()))]
    assert len(calls) == 3 * 35
    starts = [(flow.start, id(flow.init)) for flow in flows]
    assert starts == ([(0.0, id(mu)), (0.25, id(other))] if vf.reads_law else [])


def test_time_dependent_drift_is_not_shared(monkeypatch):
    # a drift that reads t, set through dataclasses.replace, drops the
    # catalog's declaration, and a running cost may read the clock: the
    # columns at 0 and 0.5 then run apart, and the later one's drift or cost
    # integrates t = 0.5 and 0.75 over its two steps, not 0 and 0.25
    still = make_coefficients("brownian", s=0.0)
    coeff = dataclasses.replace(still, b=lambda t, x, mu: np.full(1, t))
    assert still.time_homogeneous and not coeff.time_homogeneous
    assert not dataclasses.replace(still, sigma=lambda t, x, mu: np.zeros((1, 1))).time_homogeneous
    Phi = make_cylindrical("x_norm_sq")

    def clock(t, X, mu):
        return np.full(len(X), t)

    for vf, expected in ((McValueFunction(coeff, Phi, None, 1.0, 0.25, 40, 5, DIRAC0),
                          (0.1 + 0.3125) ** 2),
                         (McValueFunction(still, Phi, clock, 1.0, 0.25, 40, 5, DIRAC0),
                          0.1**2 - 0.3125)):
        alone = vf.samples(0.5, [0.1])
        calls = _recorded_steps(monkeypatch)
        [table] = vf.sample_table([[(0.0, [0.1], None), (0.5, [0.1], None)]])
        monkeypatch.undo()
        assert [(k, rows) for _, k, rows in calls] == [(0, 1), (0, 1), (1, 1), (1, 1),
                                                       (2, 1), (3, 1)]
        assert table[:, 1].tobytes() == alone.tobytes()
        np.testing.assert_allclose(table[:, 1], expected, rtol=1e-12)


def test_a_row_takes_only_its_own_steps(monkeypatch):
    # a drift of 1 below x = 1 and inf from there on, declared not to read t:
    # the column from (0.5, 0.5) reaches 1 in its two steps and is read there,
    # though its run, from the column at 0, takes two more; a third step of
    # its own would blow up
    @ignores("t", "mu")
    def b(t, x, mu):
        return np.where(np.asarray(x) < 1.0, 1.0, np.inf)

    coeff = dataclasses.replace(make_coefficients("brownian", s=0.0), b=b)
    assert coeff.time_homogeneous
    vf = McValueFunction(coeff, make_cylindrical("x_norm_sq"), None, 1.0, 0.25, 8, 2, DIRAC0)
    calls = _recorded_steps(monkeypatch)
    [table] = vf.sample_table([[(0.0, [-10.0], None), (0.5, [0.5], None)]])
    assert [(k, rows) for _, k, rows in calls] == [(0, 2), (1, 2), (2, 1), (3, 1)]
    assert (table[:, 0] == 81.0).all() and (table[:, 1] == 1.0).all()
    with pytest.raises(SimulationError) as exc:
        vf.samples(0.25, [0.5])
    assert exc.value.step == 3


# ---------------------------------------------------------------------------
# streamed moments: the estimates fold each chunk, and hold no (M, n) table


def _folded(x, cuts):
    """The Moments of the (n, M) samples x, added as the blocks between cuts."""
    fold = MomentFold(x.shape[0])
    for block in np.split(x, cuts, axis=1):
        fold.add(block)
    return fold.total()


@pytest.mark.parametrize("M", [1, 2, 1023, 1025, 5000])
def test_moment_fold_matches_two_pass_numpy(M):
    rng = np.random.default_rng(M)
    z = rng.standard_normal((3, M))
    # spreads from 1e-2 to 1e3, a mean 1e4 spreads off zero and one
    # correlated pair
    x = np.stack([1.0 + z[0], 5.0 + 1e3 * z[1], -1e2 + 1e-2 * (z[0] + z[2])])
    cuts = np.sort(rng.integers(0, M + 1, size=7))
    total = _folded(x, cuts)
    assert total.count == M
    np.testing.assert_allclose(total.mean, x.mean(axis=1), rtol=1e-12, atol=0)
    assert total.minimum.tobytes() == x.min(axis=1).tobytes()
    if M > 1:
        std = np.sqrt(np.diag(total.comoment) / (M - 1))
        np.testing.assert_allclose(std, x.std(axis=1, ddof=1), rtol=1e-12, atol=0)
        # each covariance relative to the spreads of its two columns
        assert np.all(np.abs(total.comoment / (M - 1) - np.cov(x)) <= 1e-12 * np.outer(std, std))
    # the fold's bits depend on the count alone, not on the blocks it was given
    whole = _folded(x, [])
    for a, b in zip(total, whole):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_a_probe_solved_alone_is_its_column_of_the_table():
    vf = McValueFunction(BROWNIAN, make_cylindrical("x_norm_sq"), None, 1.0, 0.05, 6000, 23,
                         DIRAC0)
    probes = [(t, np.array([x])) for t in (0.0, 0.5) for x in (-1.0, 0.0, 1.0)]
    # alone and in the table, M spans two chunks, so the moments fold the
    # blocks of both
    assert vf.M > feynman_kac.CHUNK
    assert vf.solve_all(probes) == [vf.solve(t, x) for t, x in probes]


def test_log_transform_names_a_nonpositive_minimum_in_a_later_chunk(monkeypatch):
    monkeypatch.setattr(feynman_kac, "CHUNK", 512)

    def outer(value):
        return CylindricalFunction(OuterFunction("test", None, value))

    vf = McValueFunction(BROWNIAN, outer(lambda t, x, r: x[..., 0]), None, 1.0, 0.25, 3000, 5,
                         DIRAC0)
    ends = vf.samples(0.0, [0.0])
    top = int(np.argmax(ends))
    # past the first 512-particle chunk and the first leaf of the fold
    assert top >= feynman_kac.FOLD_ROWS
    cut = 0.5 * (ends[top] + np.sort(ends)[-2])
    logged = dataclasses.replace(
        vf, Phi=outer(lambda t, x, r: np.where(x[..., 0] > cut, -0.5, 1.0)), beta=1.0)
    with pytest.raises(DataError, match="fell to -0.5,"):
        logged.solve(0.0, [0.0])


def test_feynman_kac_run_samples_its_probes_at_the_config_seed(monkeypatch, tmp_path):
    # the run's table is one group whose column 0 is probe 0 (t = 0, x = -1)
    cfg = parse_config(PRESETS["feynman-kac-heat"].replace("M = 100000", "M = 3000"))
    firsts = []
    chunks = McValueFunction.sample_chunks

    def recorded(self, groups):
        assert len(groups) == 1 and len(groups[0]) == 6 and self.seed == cfg.seed
        for a, b, [block] in chunks(self, groups):
            firsts.append(block[0].copy())
            yield a, b, [block]

    monkeypatch.setattr(McValueFunction, "sample_chunks", recorded)
    run_scenario(cfg, str(tmp_path))
    monkeypatch.undo()
    probe0 = _value_function(cfg).samples(0.0, [-1.0])
    assert np.concatenate(firsts).tobytes() == probe0.tobytes()
