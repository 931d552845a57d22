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
common-random-number finite differences and an explicit error budget; an
exact one evaluates the PDE of a cylindrical function from its closed-form
derivatives, including the drift-coupled PDE, which no estimator here solves.

Every estimate reads one sampler, :meth:`McValueFunction.sample_chunks`,
which evaluates a table of columns (start time, start point, measure) in
chunks of CHUNK particles, and the estimates fold each chunk's samples into
per-column moments (:class:`MomentFold`), so memory grows with neither M
nor the step count.  Columns that share (t, mu) share one frozen flow,
simulated only when a term reads the law, and one (K, B, d) state, and all
groups step in lockstep: a chunk draws row k of its increments once and
hands it to every group whose grid has a step k, so a table of G groups
over L steps makes about G L Euler steps per chunk, each paying a fixed
20-25 us (see ``dynamics._euler_step``), and never holds an (L, B, m)
block.  A chunk is whole noise blocks of ``dynamics.NOISE_BLOCK`` paths,
which share one Philox key per step.  Particle i's noise is the same
whatever chunk draws it, and the fold's leaves are FOLD_ROWS particles
wherever the chunks end, so the chunk size never changes a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .calculus import CylindricalFunction
from .dynamics import (
    DOMAIN_MEASURE_SHIFT,
    NOISE_BLOCK,
    _euler_step,
    _grid,
    _law_curve,
    brownian_increments,
    check_count,
    coefficients_at,
    decoupled_rows,
    particle_stream,
    start_point,
)
from .errors import CapabilityError, ContractError, DataError
from .generator import generator_parts, generator_total
from .measure import EmpiricalMeasure


@dataclass(frozen=True)
class McSolution:
    """One Monte Carlo evaluation of a value function."""

    value: float
    std_error: float


# ---------------------------------------------------------------------------
# PDE residual verification

#: the PDEs the exact residual evaluates; the Monte Carlo residual checks
#: the PDE of its value function (:attr:`McValueFunction.pde`), one of the
#: first three, since no value function here reads its drift off its own
#: gradient, as the drift-coupled PDE needs
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
    def pass_fraction(self):
        ok = sum(1 for r in self.rows if r.verdict == "PASS")
        return ok / len(self.rows) if self.rows else 0.0

    def to_rows(self):
        """(header, rows) of the table's CSV, one row per probe."""
        rows = [
            [r.pde, r.t, " ".join(f"{v:.17g}" for v in r.x), r.probe_id, r.residual,
             r.budget, r.verdict]
            for r in self.rows
        ]
        return ["pde", "t", "x", "probe_id", "residual", "budget", "verdict"], rows


#: a residual table passes when at least this share of its probes pass
MIN_PASS_FRACTION = 0.95


def _finalize_table(rows):
    if any(r.verdict == "STRUCTURAL" for r in rows):
        verdict = "FAIL"
    else:
        ok = sum(1 for r in rows if r.verdict == "PASS")
        verdict = "PASS" if rows and ok / len(rows) >= MIN_PASS_FRACTION else "FAIL"
    return ResidualTable(rows=tuple(rows), verdict=verdict)


def _check_kind(pde, f_field, beta):
    """ContractError unless pde is one of PDE_KINDS and the term its
    right-hand side reads is given: f_field for source, a nonzero beta for
    nonlinear."""
    if pde not in PDE_KINDS:
        raise ContractError(f"pde must be one of {PDE_KINDS}")
    needs = {"nonlinear": ("beta", beta), "source": ("f_field", f_field)}.get(pde)
    if needs and needs[1] is None:
        raise ContractError(f"pde = {pde} needs a value function with {needs[0]}")
    if pde == "nonlinear" and beta == 0:
        raise ContractError("beta must be nonzero")


def _rhs(pde, f_field, beta, t, x, mu, sig_dx):
    """Right-hand side of the PDE ``pde`` at (t, x, mu), where sig_dx is
    sigma^* dx V there: f_field for source, |sigma^* dx V|^2 / (2 beta) for
    nonlinear and 0 for linear and drift_coupled."""
    if pde == "source":
        return float(np.asarray(f_field(t, x[None], mu))[0])
    if pde == "nonlinear":
        return float(sig_dx @ sig_dx) / (2.0 * beta)
    return 0.0


def pde_residual_exact(V, coeff, pde, probes, mu, f_field=None, beta=None, budget=1e-9):
    """Residual of a cylindrical V in its PDE, using exact derivatives.

    ``probes`` is a sequence of (t, x).  The residual is dt V plus the
    generator minus the right-hand side (see :func:`_rhs`).  This is the
    oracle for every kind in PDE_KINDS: for drift_coupled it uses the
    drift-free generator, which replaces <b, dx V> by |sigma^* dx V|^2 / 2
    and reads the drift sigma sigma^* dx V inside the measure integral off
    V itself, so the coefficient's own drift is never read.
    """
    _check_kind(pde, f_field, beta)
    if not isinstance(V, CylindricalFunction):
        raise ContractError("exact residuals need a cylindrical function")
    rows = []
    for pid, (t, x) in enumerate(probes):
        x = start_point(x, coeff.d)
        parts = generator_parts(coeff, V, t, x[None], mu, drift_free=pde == "drift_coupled")
        lhs = float((parts["dt"] + generator_total(parts))[0])
        res = lhs - _rhs(pde, f_field, beta, t, x, mu, parts["sigma_star_dx"][0])
        verdict = "PASS" if abs(res) <= budget else "FAIL"
        rows.append(ResidualRow(pde, float(t), tuple(x), pid, res, budget, verdict))
    return _finalize_table(rows)


def npy_identity_gap(coeff, V, t, x, mu):
    """Gap in the drift-free/drift-diffusion generator identity.

    With the coefficient drift set to sigma sigma^* dx V, the drift-free
    generator equals the drift-diffusion generator minus half the squared
    sigma-gradient; returns the absolute discrepancy of the two
    independently computed sides.
    """
    x = start_point(x, coeff.d)
    left = generator_parts(coeff, V, t, x[None], mu, drift_free=True)
    lhs = float(generator_total(left)[0])
    right = generator_parts(coeff, V, t, x[None], mu, drift_free=False)
    rhs = float(
        generator_total(right)[0] - 0.5 * np.sum(right["sigma_star_dx"][0] ** 2)
    )
    return abs(lhs - rhs)


#: particles per chunk of the sampler: whole noise blocks, so a chunk
#: re-keys once per block and row and draws no normal it discards, and
#: whole fold leaves (see the module docstring)
CHUNK = 5 * NOISE_BLOCK


#: particles per leaf of a MomentFold: fixed, not CHUNK, so that the bits
#: of a moment depend on the sample count alone, however the sampler chunks
#: the particles
FOLD_ROWS = NOISE_BLOCK


class Moments(NamedTuple):
    """Count, mean, co-moment matrix sum_k (x_ik - m_i)(x_jk - m_j) and
    minimum of n columns of samples."""

    count: int
    mean: np.ndarray
    comoment: np.ndarray
    minimum: np.ndarray

    @classmethod
    def of(cls, x):
        """Two-pass moments of the (n, rows) samples x.  The mean and the
        diagonal of row i read row i alone, in numpy's pairwise order along
        the row, so column i's mean and variance are those of ``np.mean``
        and ``np.std`` of it, whatever the other rows hold."""
        mean = x.sum(axis=1) / x.shape[1]
        dev = x - mean[:, None]
        comoment = dev @ dev.T
        np.fill_diagonal(comoment, (dev * dev).sum(axis=1))
        return cls(x.shape[1], mean, comoment, x.min(axis=1))

    def then(self, later):
        """Moments of these samples followed by ``later``'s: the pairwise
        update of Chan, Golub & LeVeque (1979)."""
        count = self.count + later.count
        delta = later.mean - self.mean
        comoment = (self.comoment + later.comoment
                    + np.outer(delta, delta) * (self.count * later.count / count))
        return Moments(count, self.mean + delta * (later.count / count), comoment,
                       np.minimum(self.minimum, later.minimum))


class MomentFold:
    """Moments of n columns, folded from (n, rows) blocks of samples that
    arrive in particle order.

    Each FOLD_ROWS particles form one leaf, and leaves merge pairwise as the
    carries of a binary counter, so the tree, and with it every bit of the
    result, depends on the particle count alone.  Besides the O(log M) tree
    the fold holds one leaf of samples.
    """

    def __init__(self, n):
        self._rows = np.empty((n, FOLD_ROWS))
        self._filled = 0
        self._tree = []  # Moments of whole leaves, widest first

    def add(self, block):
        while block.shape[1]:
            take = min(FOLD_ROWS - self._filled, block.shape[1])
            self._rows[:, self._filled : self._filled + take] = block[:, :take]
            self._filled += take
            block = block[:, take:]
            if self._filled == FOLD_ROWS:
                node = Moments.of(self._rows)
                while self._tree and self._tree[-1].count == node.count:
                    node = self._tree.pop().then(node)
                self._tree.append(node)
                self._filled = 0

    def total(self):
        """The Moments of every sample added so far (at least one)."""
        nodes = list(self._tree)
        if self._filled:
            nodes.append(Moments.of(self._rows[:, : self._filled]))
        total = nodes.pop()
        while nodes:
            total = nodes.pop().then(total)
        return total


@dataclass(frozen=True)
class McValueFunction:
    """MC-backed value function with a fixed seed, usable for CRN differences.

    Its terms follow from its inputs: the terminal datum Phi when given,
    minus the running cost f_field when given, and with beta the log
    transform -beta log E Phi (Phi only, no running cost), and so do the PDE
    it solves (:attr:`pde`) and whether it reads the law (:attr:`reads_law`).
    M >= 2 paths, so that the samples give a standard error.
    ``samples(t, x, mu)`` returns per-path samples of the statistic whose
    mean ``value_of_mean`` turns into the value, and ``solve(t, x)`` is that
    value with its standard error, read off the moments of a one-column
    table.  The object holds no noise: a table draws it chunk by chunk, and
    a rerun draws the same streams again.
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
        check_count("M", self.M, 2)
        check_count("n_flow", self.n_flow, 2)
        if self.Phi is None and self.f_field is None:
            raise ContractError("need a terminal datum Phi, a running cost f_field or both")
        if self.beta is not None and (self.Phi is None or self.f_field is not None):
            raise ContractError("the log transform (beta) needs Phi and no running cost f_field")
        if self.beta == 0:
            raise ContractError("beta must be nonzero")

    @property
    def pde(self):
        """The PDE the value solves: nonlinear under the log transform,
        source with a running cost and linear otherwise."""
        if self.beta is not None:
            return "nonlinear"
        return "linear" if self.f_field is None else "source"

    @property
    def reads_law(self):
        """Whether the value depends on the measure: through a
        measure-dependent field, the running cost f_field or the inner
        functions of Phi.  Only then does a column simulate a frozen flow and
        the residual shift the measure."""
        return (self.coeff.measure_dependent or self.f_field is not None
                or bool(self.Phi.inner))

    def samples(self, t, x, mu=None):
        """Per-path samples at (t, x, mu), shape (M,)."""
        return self.sample_table([[(t, x, mu)]])[0][:, 0]

    def solve(self, t, x):
        """The value at (t, x) with its standard error (see :meth:`solve_all`)."""
        return self.solve_all([(t, x)])[0]

    def solve_all(self, probes):
        """The value at each (t, x) of ``probes`` with its standard error.

        The probes are the columns of one table, so they run on common
        noise, and each one's value and standard error read its own column
        alone: they are bit for bit those of ``solve`` of that probe.  Under
        the log transform the samples must be strictly positive, and the
        standard error of -beta log of their mean is propagated by the
        delta method.
        """
        [(m, means, comoment, minimum)] = self.moments([[(t, x, None) for t, x in probes]])
        solutions = []
        for j, mean in enumerate(means):
            mean = float(mean)
            se = float(np.sqrt(comoment[j, j] / (m - 1)) / np.sqrt(m))
            if self.beta is None:
                solutions.append(McSolution(mean, se))
                continue
            if minimum[j] <= 0:
                raise DataError(f"terminal datum fell to {minimum[j]:g}, but the log "
                                "transform needs it strictly positive")
            value = float(self.value_of_mean(mean))
            solutions.append(McSolution(value, abs(self.beta) * se / mean))
        return solutions

    def moments(self, groups):
        """The :class:`Moments` of each group of a table of columns (see
        :meth:`sample_chunks`), folded chunk by chunk."""
        folds = [MomentFold(len(group)) for group in groups]
        for _, _, blocks in self.sample_chunks(groups):
            for fold, block in zip(folds, blocks):
                fold.add(block)
        return [fold.total() for fold in folds]

    def sample_table(self, groups):
        """Per-path samples of a table of columns: one (M, n) array per
        group, the chunks of :meth:`sample_chunks` joined."""
        out = [np.empty((self.M, len(group))) for group in groups]
        for a, b, blocks in self.sample_chunks(groups):
            for table, block in zip(out, blocks):
                table[a:b] = block.T
        return out

    def sample_chunks(self, groups):
        """Per-path samples of a table of columns, one chunk of particles at
        a time.

        ``groups`` is a sequence of column lists; a column is (t, x, mu),
        with mu None for the function's own measure.  Yields (a, b, blocks)
        for particles a..b-1 in order, where row j of blocks[g], an
        (n_g, b - a) array, holds column j of group g: exactly those
        particles' samples of ``samples(t, x, mu)``: Phi at the terminal
        state and law (when used) minus the left-endpoint integral of
        f_field along the path (when used).  Every column is checked before
        any path is simulated.  Each distinct (t, mu) gets one frozen flow,
        whose noise is a step prefix of one block of flow increments, and
        its K columns one (K, B, d) state.  All columns run on the same
        decoupled streams (common random numbers): a chunk draws increment
        row k once and steps every group whose grid has a step k.  When the
        value does not read the law (see :attr:`reads_law`), no flow is
        simulated: every column reads its own measure at every grid point.
        """
        # flow key (t, mu) -> [t, mu, [(group, column, start point)]]
        flows = {}
        for g, group in enumerate(groups):
            for j, (t, x, mu) in enumerate(group):
                x = start_point(x, self.coeff.d)
                _grid(t, self.T, self.dt)
                mu = self.mu if mu is None else mu
                flows.setdefault((t, id(mu)), [t, mu, []])[2].append((g, j, x))
        if not flows:
            return
        _, n_steps = _grid(min(t for t, _, _ in flows.values()), self.T, self.dt)
        if self.reads_law:
            block = brownian_increments(self.seed, self.n_flow, n_steps, self.coeff.m, self.dt)
        # (grid, frozen law curve, inner integrals of Phi at its terminal law, columns)
        runs = []
        for t, mu, cols in flows.values():
            times, steps = _grid(t, self.T, self.dt)
            if self.reads_law:
                laws = _law_curve(self.coeff, mu, times, self.dt, self.seed, block[:steps])
            else:
                laws = (mu,) * len(times)
            r_T = None if self.Phi is None else self.Phi.inner_integrals(laws[-1])
            runs.append((times, laws, r_T, cols))
        for a in range(0, self.M, CHUNK):
            n = min(CHUNK, self.M - a)
            # each flow group's (K, B, d) state of its columns' start points,
            # and its running-cost integral
            states = [np.broadcast_to(np.array([x for *_, x in cols])[:, None],
                                      (len(cols), n, self.coeff.d)) for *_, cols in runs]
            integrals = [None if self.f_field is None else np.zeros((len(cols), n))
                         for *_, cols in runs]
            for k, dw in enumerate(
                    decoupled_rows(self.seed, n, n_steps, self.coeff.m, self.dt, a)):
                for i, (times, laws, _, _) in enumerate(runs):
                    if k + 1 >= len(times):
                        continue
                    if integrals[i] is not None:
                        for c, x_c in enumerate(states[i]):
                            integrals[i][c] += np.asarray(self.f_field(
                                times[k], x_c, laws[k]), dtype=float) * self.dt
                    states[i] = _euler_step(
                        self.coeff, times[k], states[i], laws[k], dw, self.dt, k, a)
            blocks = [np.empty((len(group), n)) for group in groups]
            for (_, _, r_T, cols), x_T, integral in zip(runs, states, integrals):
                for c, (g, j, _) in enumerate(cols):
                    if self.Phi is None:
                        blocks[g][j] = -integral[c]
                        continue
                    sample = np.asarray(self.Phi.outer.value(self.T, x_T[c], r_T), dtype=float)
                    blocks[g][j] = sample if integral is None else sample - integral[c]
            yield a, a + n, blocks

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


def _measure_shifts(coeff, mu, t, ds, rng):
    """The antithetic pair of Euler displacements of the atoms of mu: one
    Rademacher draw xi shifts them by b ds + sqrt(ds) sigma xi and by
    b ds - sqrt(ds) sigma xi, mirror images about mu's atoms moved by b ds."""
    Y = mu.points
    drift = np.asarray(coeff.b(t, Y, mu)) * ds
    sig = np.asarray(coeff.sigma(t, Y, mu))
    xi = rng.choice([-1.0, 1.0], size=(Y.shape[0], coeff.m))
    noise = np.sqrt(ds) * np.einsum("...jk,...k->...j", sig, xi)
    return [EmpiricalMeasure(Y + (drift + sign * noise), mu.weights) for sign in (1.0, -1.0)]


#: relative space step, time step (snapped to the grid) and measure-shift step
#: of the finite-difference stencils in :func:`pde_residual_mc`
H_X_REL = 1e-2
H_T_REL = 1e-2
MEASURE_DS = 1e-3


def pde_residual_mc(vf, probes, n_measure_draws=4):
    """Residual table of an MC-backed value function in its own PDE
    (``vf.pde``) via CRN differences.

    When the value reads the law (``vf.reads_law``), each probe adds
    n_measure_draws antithetic pairs of measure shifts for the measure term.
    All stencil evaluations reuse the same noise streams, so differences
    cancel most Monte Carlo error; the per-probe budget is an FD truncation
    estimate (by Richardson comparison) plus three propagated standard
    errors computed from the sample covariance of its columns, folded chunk
    by chunk.  Every probe's stencil is planned (and its diffusion checked)
    before any path is simulated, then all columns are sampled as one table.
    """
    h_t = max(vf.dt, round(H_T_REL * vf.T / vf.dt) * vf.dt)
    probes = [(float(t0), start_point(x0, vf.coeff.d)) for t0, x0 in probes]
    plans = [
        _mc_probe(vf, pid, t0, x0, h_t, n_measure_draws)
        for pid, (t0, x0) in enumerate(probes)
    ]
    moments = vf.moments([columns for columns, _ in plans])
    return _finalize_table([finish(m) for (_, finish), m in zip(plans, moments)])


def _stencil_times(t0, h_t, T):
    """(forward?, [t1, t2]): the time points of t0's difference, forward unless
    t0 + h_t passes T; near the horizon t2 = t1 (no Richardson comparison)."""
    t_fwd = t0 + h_t <= T + 1e-12
    t_pts = [t0 + h_t, t0 + 2 * h_t] if t_fwd else [t0 - h_t, t0 - 2 * h_t]
    if t0 + 2 * h_t > T + 1e-12 and t_fwd:
        t_pts[1] = t0 + h_t
    return t_fwd, t_pts


def _mc_probe(vf, pid, t0, x0, h_t, n_draws):
    """(columns, finish): the probe's stencil columns (t, x, mu), and the
    function that turns their :class:`Moments` into its row."""
    coeff, mu, T, pde = vf.coeff, vf.mu, vf.T, vf.pde
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
    if vf.reads_law:
        rng = particle_stream(vf.seed, 0, DOMAIN_MEASURE_SHIFT)
        for _ in range(n_draws):
            columns += [(t0, x0, shifted)
                        for shifted in _measure_shifts(coeff, mu, t0, MEASURE_DS, rng)]

    # a residual or budget past the largest float (the value scales with
    # beta, so at beta = 1e200 its squared gradient does) comes out as inf or
    # nan, and FAILs
    @np.errstate(over="ignore", invalid="ignore")
    def finish(moments):
        means = moments.mean
        cov_means = moments.comoment / (moments.count - 1) / moments.count

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
            pairs = vals[base + 4 * d :].reshape(-1, 2)
            mu_term = 0.0
            if pairs.size:
                mu_term = float(np.mean(0.5 * (pairs[:, 0] + pairs[:, 1]) - v0) / MEASURE_DS)
            lhs = dtv + 0.5 * float(a_diag @ lap_h) + float(b0 @ grad) + mu_term
            rhs = _rhs(pde, vf.f_field, vf.beta, t0, x0, mu, sig.T @ grad)
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
            verdict = "PASS" if abs(res) <= budget < np.inf else "FAIL"
        return ResidualRow(pde, t0, tuple(x0), pid, float(res), float(budget), verdict)

    return columns, finish
