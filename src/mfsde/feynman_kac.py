"""Monte Carlo representations of PDEs on R^d x P_2(R^d).

Solvers estimate the value function at one (t, x, mu) by simulating a
frozen law curve once, then running decoupled paths against it:

* terminal-condition problems average a terminal datum Phi,
* source problems integrate a running cost along the paths,
* the combined solver adds both on shared paths, and
* the log-transform solver turns a positive terminal datum into the
  solution of the quadratic-gradient nonlinear PDE.

A residual tester verifies MC-backed solutions against their PDE with
common-random-number finite differences and an explicit error budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .calculus import CylindricalFunction
from .dynamics import (
    DOMAIN_DECOUPLED,
    DOMAIN_INTERACTING,
    _grid,
    _raw_normals,
    check_count,
    simulate_mckean_vlasov,
    start_point,
    stream_decoupled,
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
    provenance: str  # linear | source | combined | log_transform
    beta: Optional[float] = None


def _n_steps(t, T, dt):
    """Euler steps from t to T; ContractError unless T >= t on a grid of step dt."""
    if T < t:
        raise ContractError("need T >= t")
    return _grid(t, T, dt)[1]


def _path_samples(coeff, flow, x, T, dt, M, seed, Phi=None, f_field=None, normals=None):
    """Per-path samples on the frozen flow, shape (M,).

    Phi at the terminal state and law (when given) minus the left-endpoint
    integral of f_field along the path (when given), accumulated as the
    paths stream; its step is the spacing of the flow's grid.  ``normals``
    is passed on to :func:`stream_decoupled`.
    """
    integral = hook = None
    if f_field is not None:
        integral = np.zeros(M)

        def hook(t_k, x_k, mu_k):
            integral[:] += np.asarray(f_field(t_k, x_k, mu_k), dtype=float) * flow.dt

    terminal = stream_decoupled(coeff, x, flow, flow.times[0], T, dt, M, seed, hook, normals)
    if Phi is None:
        return -integral
    mu_T = flow.measure_at(flow.n_steps)
    samples = np.asarray(Phi.outer.value(T, terminal, Phi.inner_integrals(mu_T)), dtype=float)
    return samples if integral is None else samples - integral


def _mean_solution(samples, provenance, beta=None):
    """The estimate from per-path samples: their mean, or -beta log of it for
    the log transform, whose standard error is propagated by the delta method."""
    m = samples.size
    mean = float(samples.mean())
    se = float(np.std(samples, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    if provenance == "log_transform":
        value = float(-beta * np.log(mean))
        return McSolution(value, abs(beta) * se / mean, m, provenance, float(beta))
    return McSolution(mean, se, m, provenance, beta)


def solve_linear(coeff, Phi, t, x, mu, T, M, dt, seed, n_flow=200):
    """Estimate the terminal-condition solution E Phi(X_{t,T}, law curve at T)."""
    vf = McValueFunction(coeff, Phi, None, T, dt, M, seed, mu, "linear", n_flow=n_flow)
    return _mean_solution(vf.samples(t, x), "linear")


def solve_with_source(coeff, f_field, t, x, mu, T, M, dt, seed, n_flow=200):
    """Estimate the pure-source solution: the negated running-cost integral."""
    vf = McValueFunction(coeff, None, f_field, T, dt, M, seed, mu, "source", n_flow=n_flow)
    return _mean_solution(vf.samples(t, x), "source")


def solve_combined(coeff, Phi, f_field, t, x, mu, T, M, dt, seed, n_flow=200):
    """Terminal datum minus running cost on shared paths (common random numbers)."""
    vf = McValueFunction(coeff, Phi, f_field, T, dt, M, seed, mu, "combined", n_flow=n_flow)
    return _mean_solution(vf.samples(t, x), "combined")


def solve_log_transform(
    coeff, Phi, beta, t, x, mu, T, M, dt, seed, n_flow=200, lower_bound=0.0
):
    """-beta * log of the MC mean of a strictly positive terminal datum.

    The standard error is propagated by the delta method.  Samples at or
    below the declared lower bound of Phi indicate corrupted data and raise.
    """
    if beta == 0:
        raise ContractError("beta must be nonzero")
    if lower_bound < 0:
        raise ContractError("lower bound must be nonnegative")
    vf = McValueFunction(coeff, Phi, None, T, dt, M, seed, mu, "log_transform", beta, n_flow)
    samples = vf.samples(t, x)
    if np.any(samples <= lower_bound):
        raise DataError(
            f"terminal datum fell to {samples.min():g}, at or below its declared "
            f"lower bound {lower_bound:g}"
        )
    return _mean_solution(samples, "log_transform", beta)


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


# provenance -> (terminal datum Phi used, running cost f_field used)
_PROVENANCE_TERMS = {
    "linear": (True, False),
    "source": (False, True),
    "combined": (True, True),
    "log_transform": (True, False),
}


@dataclass(frozen=True)
class McValueFunction:
    """MC-backed value function with a fixed seed, usable for CRN differences.

    ``samples(t, x, mu)`` returns per-path samples of the underlying
    statistic; the value is a smooth function of the sample mean given by
    ``provenance`` (plain mean, or -beta log mean).  Every ``solve_*``
    function is one such object read at a single (t, x).

    The object owns its noise: one raw block per domain (frozen flows and
    decoupled paths), drawn for the longest horizon asked so far and shared
    by every later evaluation through its step prefix.
    """

    coeff: object
    Phi: Optional[CylindricalFunction]
    f_field: Optional[Callable]
    T: float
    dt: float
    M: int
    seed: int
    mu: EmpiricalMeasure
    provenance: str
    beta: Optional[float] = None
    n_flow: int = 200
    _noise: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_count("M", self.M, 1)
        if self.provenance not in _PROVENANCE_TERMS:
            raise ContractError(f"unknown provenance {self.provenance!r}")

    def frozen_flow(self, t, mu=None):
        """The law curve from (t, mu) that every start point at (t, mu) shares."""
        mu = self.mu if mu is None else mu
        normals = self._normals(DOMAIN_INTERACTING, self.n_flow, t)
        return simulate_mckean_vlasov(
            self.coeff, mu, self.n_flow, self.T, self.dt, self.seed, s=t, normals=normals
        )

    def _normals(self, domain, n_particles, t):
        """The owned raw block of one domain, drawn again only for a longer horizon."""
        n_steps = _n_steps(t, self.T, self.dt)
        block = self._noise.get(domain)
        if block is None or block.shape[0] < n_steps:
            block = _raw_normals(self.seed, n_particles, n_steps, self.coeff.m, domain)
            block.flags.writeable = False
            self._noise[domain] = block
        return block

    def samples(self, t, x, mu=None, flow=None):
        """Per-path samples at (t, x, mu); pass ``flow = frozen_flow(t, mu)`` to reuse it."""
        x = start_point(x, self.coeff.d)
        if flow is None:
            flow = self.frozen_flow(t, mu)
        elif flow.index_of(t) != 0:
            raise ContractError(f"frozen flow starts at {flow.times[0]}, not at t={t}")
        use_phi, use_f = _PROVENANCE_TERMS[self.provenance]
        return _path_samples(
            self.coeff, flow, x, self.T, self.dt, self.M, self.seed,
            self.Phi if use_phi else None, self.f_field if use_f else None,
            self._normals(DOMAIN_DECOUPLED, self.M, t),
        )

    def value_of_mean(self, mean):
        if self.provenance == "log_transform":
            if mean <= 0:
                raise DataError("sample mean must be positive for the log transform")
            return -self.beta * np.log(mean)
        return mean

    def value_at(self, t, x, mu=None):
        s = self.samples(t, x, mu)
        return float(self.value_of_mean(s.mean()))


def _diag_diffusion(coeff, t, x, mu):
    sig = np.asarray(coeff.sigma(t, np.atleast_2d(x), mu))[0]
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
    xi = rng.choice([-1.0, 1.0], size=(Y.shape[0], sig.shape[2]))
    disp = drift * ds + sign * np.sqrt(ds) * np.einsum("njk,nk->nj", sig, xi)
    return EmpiricalMeasure(Y + disp, mu.weights)


#: relative space step, time step (snapped to the grid) and measure-shift step
#: of the finite-difference stencils in :func:`pde_residual_mc`
H_X_REL = 1e-2
H_T_REL = 1e-2
MEASURE_DS = 1e-3


def pde_residual_mc(vf, pde, probes, f_field=None, n_measure_draws=4):
    """Residual table for an MC-backed value function via CRN differences.

    All stencil evaluations reuse the same noise streams, so differences
    cancel most Monte Carlo error; the per-probe budget is an FD truncation
    estimate (by Richardson comparison) plus three propagated standard
    errors computed from the joint per-path sample covariance.
    """
    if pde not in PDE_KINDS:
        raise ContractError(f"pde must be one of {PDE_KINDS}")
    if pde == "source" and f_field is None:
        f_field = vf.f_field
    h_t = max(vf.dt, round(H_T_REL * vf.T / vf.dt) * vf.dt)
    probes = [(float(t0), np.atleast_1d(np.asarray(x0, dtype=float))) for t0, x0 in probes]
    if probes:
        # each domain's block is drawn once, for the earliest stencil start
        start = min(min(t0, *_stencil_times(t0, h_t, vf.T)[1]) for t0, _ in probes)
        vf._normals(DOMAIN_INTERACTING, vf.n_flow, start)
        vf._normals(DOMAIN_DECOUPLED, vf.M, start)
    rows = [
        _mc_probe(vf, pde, pid, t0, x0, f_field, h_t, n_measure_draws)
        for pid, (t0, x0) in enumerate(probes)
    ]
    return _finalize_table(rows)


def _stencil_times(t0, h_t, T):
    """(forward?, [t1, t2]): the time points of t0's difference, forward unless
    t0 + h_t passes T; near the horizon t2 = t1 (no Richardson comparison)."""
    t_fwd = t0 + h_t <= T + 1e-12
    t_pts = [t0 + h_t, t0 + 2 * h_t] if t_fwd else [t0 - h_t, t0 - 2 * h_t]
    if t0 + 2 * h_t > T + 1e-12 and t_fwd:
        t_pts[1] = t0 + h_t
    return t_fwd, t_pts


def _mc_probe(vf, pde, pid, t0, x0, f_field, h_t, n_draws):
    coeff, mu, T = vf.coeff, vf.mu, vf.T
    d = x0.size
    sig, a_diag = _diag_diffusion(coeff, t0, x0, mu)
    b0 = np.asarray(coeff.b(t0, x0[None], mu))[0]
    t_fwd, t_pts = _stencil_times(t0, h_t, T)
    h_x = H_X_REL * (1.0 + np.abs(x0))

    # stencil columns of per-path samples, all sharing noise streams; the
    # centre and the space columns also share one frozen flow
    flow0 = vf.frozen_flow(t0)
    cols = [("center", vf.samples(t0, x0, flow=flow0))]
    for tp in t_pts:
        cols.append((f"t={tp}", vf.samples(min(tp, T), x0)))
    for j in range(d):
        for mult in (1, -1, 2, -2):
            xs = x0.copy()
            xs[j] += mult * h_x[j]
            cols.append((f"x{j}{mult:+d}", vf.samples(t0, xs, flow=flow0)))
    mu_cols = 0
    if coeff.measure_dependent:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(vf.seed)))
        for k in range(n_draws):
            for sign in (+1.0, -1.0):
                shifted = _measure_shift(coeff, mu, t0, MEASURE_DS, sign, rng)
                cols.append((f"mu{k}{sign:+.0f}", vf.samples(t0, x0, shifted)))
                mu_cols += 1

    S = np.column_stack([c[1] for c in cols])
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
            rhs = float(np.asarray(f_field(t0, x0[None], mu))[0])
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
    M = check_count("M", M, 1)
    x = start_point(x, coeff.d)
    # every iteration's frozen flow and every stencil point reuse one block
    # of each noise domain (common random numbers)
    n_steps = _n_steps(t, T, dt)
    flow_normals = _raw_normals(seed, n_flow, n_steps, coeff.m, DOMAIN_INTERACTING)
    path_normals = _raw_normals(seed, M, n_steps, coeff.m, DOMAIN_DECOUPLED)
    drift_vec = np.zeros(coeff.d)
    changes = []

    def value(shifted, flow, xq):
        samples = _path_samples(shifted, flow, xq, T, dt, M, seed, Phi, normals=path_normals)
        if np.any(samples <= 0):
            raise DataError("terminal datum must stay strictly positive")
        return -0.5 * float(np.mean(np.log(samples)))

    for _ in range(n_iter):
        shifted = replace_drift(coeff, drift_vec)
        # one frozen flow per drift serves every stencil point
        flow = simulate_mckean_vlasov(shifted, mu, n_flow, T, dt, seed, s=t, normals=flow_normals)
        h = 1e-2 * (1.0 + np.abs(x))
        grad = np.empty(coeff.d)
        for j in range(coeff.d):
            xp, xm = x.copy(), x.copy()
            xp[j] += h[j]
            xm[j] -= h[j]
            grad[j] = (value(shifted, flow, xp) - value(shifted, flow, xm)) / (2 * h[j])
        sig = np.asarray(coeff.sigma(t, x[None], mu))[0]
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
    """Coefficient field with the drift replaced by a constant vector."""
    drift_vec = np.asarray(drift_vec, dtype=float)

    def b(t, x, mu):
        return np.broadcast_to(drift_vec, np.asarray(x).shape).copy()

    return replace(coeff, name=f"{coeff.name}+const_drift", b=b)
