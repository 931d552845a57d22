"""Monte Carlo representations of PDEs on R^d x P_2(R^d).

One estimator, :class:`McValueFunction`, evaluates the value function at
(t, x, mu) by simulating a frozen law curve once, then running decoupled
paths against it.  Its terms follow from its inputs:

* a terminal datum Phi is averaged when given,
* a running cost f_field is integrated along the paths when given, and
  subtracted from Phi on shared paths when both are, and
* with beta, the log transform turns a positive terminal datum into the
  solution of the quadratic-gradient nonlinear PDE.

A residual tester verifies MC-backed solutions against their PDE with
common-random-number finite differences and an explicit error budget.

Every estimate reads one sampler, :meth:`McValueFunction.sample_table`,
which evaluates a table of columns (start time, start point, measure) in
chunks of particles.  Each chunk draws its decoupled noise once and runs
every column against it, so memory grows with M only by the per-path
samples themselves, an (M, n_cols) array.  Columns that share (t, mu)
share one frozen flow and run as one Euler loop over a (K, B, d) state, in
tiles of at most TILE paths: a step costs a fixed 20-25 us plus about
2.9 ns per path at 4K-16K paths, against about 4 ns at 32K-1e5, and the
diffusion increment of an x-independent sigma is formed once for all K
columns of a tile (see ``dynamics._euler_loop``), so a tile is large
enough to amortise the fixed cost and small enough to stay in cache.  A
chunk is the largest multiple of CHUNK_UNIT particles whose widest group of
K columns fits one TILE, but at least 2 * CHUNK_UNIT.  Particle i's stream
is the same whatever chunk draws it, and every sample array is reduced in
full, so chunk and tile sizes never change a result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .calculus import CylindricalFunction
from .dynamics import (
    DOMAIN_DECOUPLED,
    _constant,
    _euler_loop,
    _grid,
    _record,
    brownian_increments,
    check_count,
    coefficients_at,
    start_point,
)
from .errors import CapabilityError, ContractError, DataError
from .generator import generator_parts, generator_total
from .measure import EmpiricalMeasure, write_csv


@dataclass(frozen=True)
class McSolution:
    """One Monte Carlo evaluation of a value function."""

    value: float
    std_error: float
    n_samples: int
    beta: Optional[float] = None


def _n_steps(t, T, dt):
    """Euler steps from t to T; ContractError unless T >= t on a grid of step dt."""
    if T < t:
        raise ContractError("need T >= t")
    return _grid(t, T, dt)[1]


# ---------------------------------------------------------------------------
# PDE residual verification

PDE_KINDS = ("linear", "source", "nonlinear", "drift_coupled")


@dataclass(frozen=True)
class ResidualRow:
    pde: str
    t: float
    x: tuple
    probe_id: int
    residual: float
    budget: float
    verdict: str  # PASS | FAIL | STRUCTURAL


@dataclass(frozen=True)
class ResidualTable:
    rows: tuple
    verdict: str

    @property
    def passed(self):
        return self.verdict == "PASS"

    @property
    def pass_fraction(self):
        ok = sum(1 for r in self.rows if r.verdict == "PASS")
        return ok / len(self.rows) if self.rows else 0.0

    def to_csv(self, path):
        rows = (
            [r.pde, r.t, " ".join(f"{v:.17g}" for v in r.x), r.probe_id, r.residual,
             r.budget, r.verdict]
            for r in self.rows
        )
        write_csv(path, ["pde", "t", "x", "probe_id", "residual", "budget", "verdict"], rows)


#: a residual table passes when at least this share of its probes pass
MIN_PASS_FRACTION = 0.95


def _finalize_table(rows):
    if any(r.verdict == "STRUCTURAL" for r in rows):
        verdict = "FAIL"
    else:
        ok = sum(1 for r in rows if r.verdict == "PASS")
        verdict = "PASS" if rows and ok / len(rows) >= MIN_PASS_FRACTION else "FAIL"
    return ResidualTable(rows=tuple(rows), verdict=verdict)


def _rhs_exact(pde, f_field, beta, t, x, mu, parts):
    if pde in ("linear", "drift_coupled"):
        return 0.0
    if pde == "source":
        return float(np.asarray(f_field(t, np.atleast_2d(x), mu))[0])
    if pde == "nonlinear":
        return float(np.sum(parts["sigma_star_dx"][0] ** 2)) / (2.0 * beta)
    raise ContractError(f"unknown pde kind {pde!r}")


def pde_residual_exact(V, coeff, pde, probes, mu, f_field=None, beta=None, budget=1e-9):
    """Residual of a cylindrical V in its PDE, using exact derivatives.

    ``probes`` is a sequence of (t, x).  For the drift-free kind the
    residual is dt V + (drift-free generator) V, matching the PDE whose
    drift constraint the caller is responsible for.
    """
    if pde not in PDE_KINDS:
        raise ContractError(f"pde must be one of {PDE_KINDS}")
    if not isinstance(V, CylindricalFunction):
        raise ContractError("exact residuals need a cylindrical function")
    rows = []
    for pid, (t, x) in enumerate(probes):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        parts = generator_parts(
            coeff, V, t, x_arr[None], mu, drift_free=pde == "drift_coupled"
        )
        lhs = float((parts["dt"] + generator_total(parts))[0])
        res = lhs - _rhs_exact(pde, f_field, beta, t, x_arr, mu, parts)
        verdict = "PASS" if abs(res) <= budget else "FAIL"
        rows.append(ResidualRow(pde, float(t), tuple(x_arr), pid, res, budget, verdict))
    return _finalize_table(rows)


def npy_identity_gap(coeff, V, t, x, mu):
    """Gap in the drift-free/drift-diffusion generator identity.

    With the coefficient drift set to sigma sigma^* dx V, the drift-free
    generator equals the drift-diffusion generator minus half the squared
    sigma-gradient; returns the absolute discrepancy of the two
    independently computed sides.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    left = generator_parts(coeff, V, t, x_arr[None], mu, drift_free=True)
    lhs = float(generator_total(left)[0])
    right = generator_parts(coeff, V, t, x_arr[None], mu, drift_free=False)
    rhs = float(
        generator_total(right)[0] - 0.5 * np.sum(right["sigma_star_dx"][0] ** 2)
    )
    return abs(lhs - rhs)


#: paths one Euler loop advances at most, over a (K, B, d) state of K
#: columns of a B-particle chunk (see the module docstring)
TILE = 16_384
#: a particle chunk is a whole multiple of this, and at least two of it
CHUNK_UNIT = 1024


def _chunk_size(k_max):
    """Particles per chunk when the widest flow group has ``k_max`` columns."""
    return max(2 * CHUNK_UNIT, TILE // k_max // CHUNK_UNIT * CHUNK_UNIT)


@dataclass(frozen=True)
class McValueFunction:
    """MC-backed value function with a fixed seed, usable for CRN differences.

    Its terms follow from its inputs: the terminal datum Phi when given,
    minus the running cost f_field when given, and with beta the log
    transform -beta log E Phi (Phi only, no running cost).
    ``samples(t, x, mu)`` returns per-path samples of the statistic whose
    mean ``value_of_mean`` turns into the value, and ``solve(t, x)`` is that
    value with its standard error, a one-column :meth:`sample_table`.  The
    object holds no noise: a table draws it chunk by chunk, and a rerun
    draws the same streams again.
    """

    coeff: object
    Phi: Optional[CylindricalFunction]
    f_field: Optional[Callable]
    T: float
    dt: float
    M: int
    seed: int
    mu: EmpiricalMeasure
    beta: Optional[float] = None
    n_flow: int = 200

    def __post_init__(self):
        check_count("M", self.M, 1)
        check_count("n_flow", self.n_flow, 2)
        if self.Phi is None and self.f_field is None:
            raise ContractError("need a terminal datum Phi, a running cost f_field or both")
        if self.beta is not None and (self.Phi is None or self.f_field is not None):
            raise ContractError("the log transform (beta) needs Phi and no running cost f_field")
        if self.beta == 0:
            raise ContractError("beta must be nonzero")

    def samples(self, t, x, mu=None):
        """Per-path samples at (t, x, mu), shape (M,)."""
        return self.sample_table([[(t, x, mu)]])[0][:, 0]

    def solve(self, t, x):
        """The value at (t, x) with its standard error.

        Under the log transform the samples must be strictly positive, and
        the standard error of -beta log of their mean is propagated by the
        delta method.
        """
        samples = self.samples(t, x)
        m = samples.size
        mean = float(samples.mean())
        se = float(np.std(samples, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
        if self.beta is None:
            return McSolution(mean, se, m)
        if np.any(samples <= 0):
            raise DataError(f"terminal datum fell to {samples.min():g}, but the log "
                            "transform needs it strictly positive")
        value = float(self.value_of_mean(mean))
        return McSolution(value, abs(self.beta) * se / mean, m, float(self.beta))

    def sample_table(self, groups):
        """Per-path samples of a table of columns: one (M, n) array per group.

        ``groups`` is a sequence of column lists; a column is (t, x, mu),
        with mu None for the function's own measure, and column j of a
        group's array holds its M samples, exactly those of
        ``samples(t, x, mu)``.  Every column is checked before any path is
        simulated.  Each distinct (t, mu) gets one frozen flow, whose noise
        is a step prefix of one block of flow increments, and all columns run
        on the same decoupled streams (common random numbers), drawn once per
        chunk of particles.
        """
        # flow key (t, mu) -> [t, mu, [(group, column, start point)]]
        flows = {}
        for g, group in enumerate(groups):
            for j, (t, x, mu) in enumerate(group):
                x = start_point(x, self.coeff.d)
                _n_steps(t, self.T, self.dt)
                mu = self.mu if mu is None else mu
                flows.setdefault((t, id(mu)), [t, mu, []])[2].append((g, j, x))
        out = [np.empty((self.M, len(group))) for group in groups]
        if not flows:
            return out
        n_steps = _n_steps(min(t for t, _, _ in flows.values()), self.T, self.dt)
        block = brownian_increments(self.seed, self.n_flow, n_steps, self.coeff.m, self.dt)
        runs = []  # (frozen flow, inner integrals of Phi at its terminal law, columns)
        for t, mu, cols in flows.values():
            times, steps = _grid(t, self.T, self.dt)
            flow = _record(self.coeff, mu, times, self.dt, self.seed, block[:steps])
            r_T = None
            if self.Phi is not None:
                r_T = self.Phi.inner_integrals(flow.measure_at(flow.n_steps))
            runs.append((flow, r_T, cols))
        chunk = _chunk_size(max(len(cols) for _, _, cols in runs))
        tile = max(1, TILE // chunk)
        for a in range(0, self.M, chunk):
            b = min(a + chunk, self.M)
            noise = brownian_increments(
                self.seed, b - a, n_steps, self.coeff.m, self.dt, DOMAIN_DECOUPLED, a)
            for flow, r_T, cols in runs:
                for i in range(0, len(cols), tile):
                    self._run_tile(flow, r_T, cols[i : i + tile], noise[: flow.n_steps], a, out)
        return out

    def _run_tile(self, flow, r_T, cols, increments, first, out):
        """Samples of particles [first, first + B) of K columns on one frozen flow.

        Phi at the terminal state and law (when used) minus the
        left-endpoint integral of f_field along the path (when used), whose
        step is the spacing of the flow's grid; each column's samples go to
        rows first.. of its group's array.
        """
        n = increments.shape[1]
        state = np.empty((len(cols), n, self.coeff.d))
        for c, (_, _, x) in enumerate(cols):
            state[c] = x
        state.flags.writeable = False
        integral = hook = None
        if self.f_field is not None:
            integral = np.zeros((len(cols), n))

            def hook(t_k, x_k, mu_k, dw):
                for c, x_c in enumerate(x_k):
                    integral[c] += np.asarray(self.f_field(t_k, x_c, mu_k), dtype=float) * flow.dt

        terminal = _euler_loop(
            self.coeff, state, flow.times, increments, self.dt,
            lambda k, x: flow.measure_at(k), hook, first=first,
        )
        for c, (g, j, _) in enumerate(cols):
            if self.Phi is not None:
                sample = np.asarray(self.Phi.outer.value(self.T, terminal[c], r_T), dtype=float)
                out[g][first : first + n, j] = sample if integral is None else sample - integral[c]
            else:
                out[g][first : first + n, j] = -integral[c]

    def value_of_mean(self, mean):
        if self.beta is not None:
            if mean <= 0:
                raise DataError("sample mean must be positive for the log transform")
            return -self.beta * np.log(mean)
        return mean


def _diag_diffusion(coeff, t, x, mu):
    """(sigma, diagonal of sigma sigma^*) at the single point (t, x, mu);
    CapabilityError unless sigma sigma^* is diagonal."""
    sig = coefficients_at(coeff, t, x, mu)[1]
    a = sig @ sig.T
    off = a - np.diag(np.diag(a))
    if np.abs(off).max() > 1e-12 * max(1.0, np.abs(a).max()):
        raise CapabilityError(
            "MC residuals support diagonal sigma sigma^* only (axis-aligned stencils)"
        )
    return sig, np.diag(a)


def _measure_shift(coeff, mu, t, ds, sign, rng):
    """One antithetic Euler displacement of the atoms of mu."""
    Y = mu.points
    drift = np.asarray(coeff.b(t, Y, mu))
    sig = np.asarray(coeff.sigma(t, Y, mu))
    xi = rng.choice([-1.0, 1.0], size=(Y.shape[0], coeff.m))
    disp = drift * ds + sign * np.sqrt(ds) * np.einsum("...jk,...k->...j", sig, xi)
    return EmpiricalMeasure(Y + disp, mu.weights)


#: relative space step, time step (snapped to the grid) and measure-shift step
#: of the finite-difference stencils in :func:`pde_residual_mc`
H_X_REL = 1e-2
H_T_REL = 1e-2
MEASURE_DS = 1e-3


def pde_residual_mc(vf, pde, probes, n_measure_draws=4):
    """Residual table for an MC-backed value function via CRN differences.

    All stencil evaluations reuse the same noise streams, so differences
    cancel most Monte Carlo error; the per-probe budget is an FD truncation
    estimate (by Richardson comparison) plus three propagated standard
    errors computed from the joint per-path sample covariance.  Every
    probe's stencil is planned (and its diffusion checked) before any path
    is simulated, then all columns are sampled as one table.
    """
    if pde not in PDE_KINDS:
        raise ContractError(f"pde must be one of {PDE_KINDS}")
    # the right-hand side of the nonlinear PDE reads beta, that of the source PDE f_field
    needs = {"nonlinear": "beta", "source": "f_field"}.get(pde)
    if needs and getattr(vf, needs) is None:
        raise ContractError(f"pde = {pde} needs a value function with {needs}")
    h_t = max(vf.dt, round(H_T_REL * vf.T / vf.dt) * vf.dt)
    probes = [(float(t0), np.atleast_1d(np.asarray(x0, dtype=float))) for t0, x0 in probes]
    plans = [
        _mc_probe(vf, pde, pid, t0, x0, h_t, n_measure_draws)
        for pid, (t0, x0) in enumerate(probes)
    ]
    tables = vf.sample_table([columns for columns, _ in plans])
    return _finalize_table([finish(S) for (_, finish), S in zip(plans, tables)])


def _stencil_times(t0, h_t, T):
    """(forward?, [t1, t2]): the time points of t0's difference, forward unless
    t0 + h_t passes T; near the horizon t2 = t1 (no Richardson comparison)."""
    t_fwd = t0 + h_t <= T + 1e-12
    t_pts = [t0 + h_t, t0 + 2 * h_t] if t_fwd else [t0 - h_t, t0 - 2 * h_t]
    if t0 + 2 * h_t > T + 1e-12 and t_fwd:
        t_pts[1] = t0 + h_t
    return t_fwd, t_pts


def _mc_probe(vf, pde, pid, t0, x0, h_t, n_draws):
    """(columns, finish): the probe's stencil columns (t, x, mu), and the
    function that turns their (M, n_cols) per-path samples into its row."""
    coeff, mu, T = vf.coeff, vf.mu, vf.T
    d = x0.size
    sig, a_diag = _diag_diffusion(coeff, t0, x0, mu)
    b0 = coefficients_at(coeff, t0, x0, mu)[0]
    t_fwd, t_pts = _stencil_times(t0, h_t, T)
    h_x = H_X_REL * (1.0 + np.abs(x0))

    # centre, two time points, four space points per axis and the
    # antithetic measure shifts, all on the same noise streams
    columns = [(t0, x0, None)] + [(min(tp, T), x0, None) for tp in t_pts]
    for j in range(d):
        for mult in (1, -1, 2, -2):
            xs = x0.copy()
            xs[j] += mult * h_x[j]
            columns.append((t0, xs, None))
    mu_cols = 0
    if coeff.measure_dependent:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(vf.seed)))
        for _ in range(n_draws):
            for sign in (+1.0, -1.0):
                columns.append((t0, x0, _measure_shift(coeff, mu, t0, MEASURE_DS, sign, rng)))
                mu_cols += 1

    def finish(S):
        means = S.mean(axis=0)
        cov_means = np.cov(S, rowvar=False) / S.shape[0]
        cov_means = np.atleast_2d(cov_means)

        def residual_of_means(m):
            vals = np.asarray([vf.value_of_mean(v) for v in m])
            v0 = vals[0]
            vt1, vt2 = vals[1], vals[2]
            sgn = 1.0 if t_fwd else -1.0
            dtv = sgn * (vt1 - v0) / h_t
            dtv2 = sgn * (vt2 - v0) / (2 * h_t) if t_pts[1] != t_pts[0] else dtv
            base = 3
            grad = np.empty(d)
            lap_h = np.empty(d)
            lap_2h = np.empty(d)
            for j in range(d):
                vp, vm, vp2, vm2 = vals[base + 4 * j : base + 4 * j + 4]
                grad[j] = (vp - vm) / (2 * h_x[j])
                lap_h[j] = (vp - 2 * v0 + vm) / h_x[j] ** 2
                lap_2h[j] = (vp2 - 2 * v0 + vm2) / (2 * h_x[j]) ** 2
            mu_term = 0.0
            if mu_cols:
                pairs = vals[base + 4 * d :].reshape(-1, 2)
                mu_term = float(np.mean(0.5 * (pairs[:, 0] + pairs[:, 1]) - v0) / MEASURE_DS)
            lhs = dtv + 0.5 * float(a_diag @ lap_h) + float(b0 @ grad) + mu_term
            sig_grad = sig.T @ grad
            if pde == "linear":
                rhs = 0.0
            elif pde == "source":
                rhs = float(np.asarray(vf.f_field(t0, x0[None], mu))[0])
            elif pde == "nonlinear":
                rhs = float(sig_grad @ sig_grad) / (2.0 * vf.beta)
            else:  # drift_coupled: drift-free operator, drift read off the gradient
                lhs = dtv + 0.5 * float(a_diag @ lap_h) + mu_term + 0.5 * float(sig_grad @ sig_grad)
                # measure drift term uses the coefficient drift already in mu_term
                rhs = 0.0
            aux = {
                "trunc_t": abs(dtv - dtv2),
                "trunc_x": 0.5 * float(np.abs(a_diag) @ np.abs(lap_h - lap_2h)) / 3.0,
            }
            return lhs - rhs, aux

        res, aux = residual_of_means(means)

        # propagated MC error: numeric gradient of the residual in the means
        grad_m = np.empty(len(means))
        for k in range(len(means)):
            step = 1e-7 * max(1.0, abs(means[k]))
            mp, mm = means.copy(), means.copy()
            mp[k] += step
            mm[k] -= step
            grad_m[k] = (residual_of_means(mp)[0] - residual_of_means(mm)[0]) / (2 * step)
        var = float(grad_m @ cov_means @ grad_m)
        se = np.sqrt(max(var, 0.0))

        trunc = aux["trunc_t"] + aux["trunc_x"]
        budget = trunc + 3.0 * se
        if budget == 0.0 and res != 0.0:
            verdict = "STRUCTURAL"
        else:
            verdict = "PASS" if abs(res) <= budget else "FAIL"
        return ResidualRow(pde, t0, tuple(x0), pid, float(res), float(budget), verdict)

    return columns, finish


@dataclass(frozen=True)
class FixedPointResult:
    converged: bool
    iterations: int
    drift_changes: tuple


#: the fixed point counts as converged once the drift moves less than this
FIXED_POINT_TOL = 1e-3


def solve_drift_coupled_fixed_point(coeff, Phi, t, x, mu, T, M, dt, seed, n_iter=3, n_flow=100):
    """Fixed-point attempt at the drift-coupled problem; reports honestly.

    Iterates drift <- sigma sigma^* dx V with V = -1/2 E log Phi under the
    current drift, the gradient taken by CRN central differences at the
    start point.  The coupling is not a contraction in general; callers
    must check ``converged``.
    """
    vf = McValueFunction(coeff, Phi, None, T, dt, M, seed, mu, n_flow=n_flow)
    x = start_point(x, coeff.d)
    h = 1e-2 * (1.0 + np.abs(x))
    columns = []  # x + h_j e_j, x - h_j e_j for each axis j
    for j in range(coeff.d):
        for sign in (1.0, -1.0):
            xq = x.copy()
            xq[j] += sign * h[j]
            columns.append((t, xq, None))
    drift_vec = np.zeros(coeff.d)
    changes = []

    def value(samples):
        if np.any(samples <= 0):
            raise DataError("terminal datum must stay strictly positive")
        return -0.5 * float(np.mean(np.log(samples)))

    for _ in range(n_iter):
        # every stencil point of one drift shares one frozen flow, and every
        # iteration reads the same noise streams (common random numbers)
        [S] = replace(vf, coeff=replace_drift(coeff, drift_vec)).sample_table([columns])
        grad = np.array([(value(S[:, 2 * j]) - value(S[:, 2 * j + 1])) / (2 * h[j])
                         for j in range(coeff.d)])
        sig = coefficients_at(coeff, t, x, mu)[1]
        new_drift = sig @ sig.T @ grad
        changes.append(float(np.linalg.norm(new_drift - drift_vec)))
        drift_vec = new_drift
        if changes[-1] < FIXED_POINT_TOL:
            break
    return FixedPointResult(
        converged=bool(changes and changes[-1] < FIXED_POINT_TOL),
        iterations=len(changes),
        drift_changes=tuple(changes),
    )


def replace_drift(coeff, drift_vec):
    """Coefficient field with the drift replaced by a constant (d,) vector."""
    return replace(coeff, name=f"{coeff.name}+const_drift", b=_constant(drift_vec))
