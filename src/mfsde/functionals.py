"""Additive functionals along particle paths and their structural checks.

An additive functional accumulates a time integral of f plus a stochastic
integral of g along each path.  When (f, g) is built from a potential V via
the generator, the functional must equal the increment of V along the path;
the verifier measures that defect over a step-size ladder.  The exponential
of the negated functional is the reweighting density used for risk-neutral
estimates.

The unit folded along a path is one field, called once per step on a batch
of states: field(t, X, mu) -> (f, g) with f of shape (B,) and g of shape
(B, m), or (B,) when m = 1.  Either part may be None, which adds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError
from .generator import generator_parts, generator_total


def _step_terms(field, t_k, X, mu, dw, dt):
    """f*dt + <g, dW> for every particle, shape (N,), from one ``field`` call.

    f must have shape (N,) and g shape (N, m), or (N,) when m = 1;
    anything else raises ContractError rather than broadcasting.
    """
    n, m = dw.shape
    out = np.zeros(n)
    f, g = field(t_k, X, mu)
    if f is not None:
        fv = np.asarray(f, dtype=float)
        if fv.shape != (n,):
            raise ContractError(f"field f returned shape {fv.shape}, expected ({n},)")
        out += fv * dt
    if g is not None:
        gv = np.asarray(g, dtype=float)
        if gv.shape != (n, m) and not (m == 1 and gv.shape == (n,)):
            raise ContractError(f"field g returned shape {gv.shape}, expected ({n}, {m})")
        out += np.einsum("nm,nm->n", gv.reshape(n, m), dw)
    return out


def _potential(V, point):
    """V at a grid point (t_k, X_k, mu_k), per path."""
    t_k, X, mu = point
    return np.asarray(V.outer.value(t_k, X, V.inner_integrals(mu)))


def _fold(flow, s, t, fields=()):
    """(A^{f,g}_{s,t} of each field of ``fields``, first point, last point)
    per path, from one pass over ``flow.steps(s, t)``.

    Each field's step terms are summed from zero in grid order, the fields
    in their given order at each step.  A point is (t_k, X_k, mu_k) without its
    increments, which would keep the run's noise block alive.  Every pass
    over a flow sees the same bits, so a window [s, t] folds the same terms
    as that stretch of the whole run.
    """
    totals = [np.zeros(flow.n_particles) for _ in fields]
    for k, (t_k, X, mu, dw) in enumerate(flow.steps(s, t)):
        if k == 0:
            first = (t_k, X, mu)
        if dw is not None:
            for total, field in zip(totals, fields):
                total += _step_terms(field, t_k, X, mu, dw, flow.dt)
    return totals, first, (t_k, X, mu)


def accumulate(field, flow, s, t):
    """A^{f,g}_{s,t} per path of ``field``: left-endpoint time integral plus Ito sum.

    The step terms are added from zero in grid order, so A_{s,s} = 0.
    """
    [total], _, _ = _fold(flow, s, t, [field])
    return total


def build_pair_from_V(coeff, V):
    """The field (t, X, mu) -> (f, g) induced by a potential V through the
    generator.

    f = (dt + L)V and g = sigma^* dx V both come from one generator_parts call
    per field call, so V's inner integrals are formed once per step and g is
    f's ``sigma_star_dx`` part, bit for bit.  The field closes over ``coeff``
    and ``V``, keeps no state between calls and follows the batched field
    contract of this module.
    """

    def field(t, X, mu):
        parts = generator_parts(coeff, V, t, X, mu)
        return parts["dt"] + generator_total(parts), parts["sigma_star_dx"]

    return field


def potential_increment(V, flow, s, t):
    """V(t, X_t, mu_t) - V(s, X_s, mu_s) per path, shape (N,)."""
    _, first, last = _fold(flow, s, t)
    return _potential(V, last) - _potential(V, first)


@dataclass(frozen=True)
class LadderRow:
    dt: float
    n_paths: int
    rms_defect: float
    max_defect: float
    decay_order: Optional[float]
    verdict: str


@dataclass(frozen=True)
class PathIndependenceReport:
    rows: tuple
    verdict: str
    defect_floor: float = 0.0

    def to_rows(self):
        """(header, rows) of the report's CSV, one row per ladder level."""
        rows = [
            [row.dt, row.n_paths, row.n_paths, row.rms_defect, row.max_defect,
             row.decay_order, row.verdict]
            for row in self.rows
        ]
        return ["dt", "N", "M", "rms_defect", "max_defect", "decay_order", "verdict"], rows


THRESHOLD_FACTOR = 5.0
FLOOR_SIGMAS = 6.0


def verify_path_independence(V, field, flows, s, t):
    """Defect report for A^{f,g} of ``field`` against V's increments over a dt ladder.

    ``flows`` is an iterable of StreamedFlows, coarsest step first
    (ContractError otherwise, or when it is empty), each folded in one pass
    over its steps.  It is consumed one level at a time and no level is
    kept, so a generator that yields each level on request holds at most one
    in memory, and a level holds only its current state and noise block.  Each level
    records the RMS and max defect; the row verdict requires
    RMS <= THRESHOLD_FACTOR * (sqrt(dt) + N^{-1/2}) * scale, where scale is
    the RMS of the potential increment (self-normalizing).

    Decay to zero is tested by fitting rms^2 = a*dt + c down the ladder: a
    genuine pair leaves the dt-independent floor c at zero, while a pair that
    violates the defining identity keeps a residual stochastic integral whose
    variance survives refinement.  FAIL if c exceeds FLOOR_SIGMAS standard
    errors (and all-but-negligible size), or any row fails its threshold.
    """
    rows = []
    sq_means = []  # (dt, mean defect^2, SE of that mean) per level
    prev = None
    scale_cap = 1e-12
    for flow in flows:
        if prev is not None and flow.dt > prev[1]:
            raise ContractError(
                f"flows must come coarsest first: dt {flow.dt} after dt {prev[1]}"
            )
        # one pass folds A^{f,g} and keeps both end points for V; a sum,
        # square or mean past the largest float is left inf or nan, without a
        # numpy warning, and flags the level by a mean-square defect that is
        # not finite, which _defect_floor reads as an infinite floor
        with np.errstate(over="ignore", invalid="ignore"):
            [total], first, last = _fold(flow, s, t, [field])
            increment = _potential(V, last) - _potential(V, first)
            defect = np.abs(total - increment)
            sq = defect**2
            sq_mean, sq_se = float(sq.mean()), float(sq.std() / np.sqrt(sq.size))
        rms = float(np.sqrt(sq_mean))
        mx = float(defect.max())
        scale = float(np.sqrt(np.mean(increment**2)))
        scale_cap = max(scale_cap, scale)
        thresh = THRESHOLD_FACTOR * (np.sqrt(flow.dt) + flow.n_particles**-0.5) * max(
            scale, 1e-12
        )
        order = None
        if prev is not None:
            prev_rms, prev_dt = prev
            if 0 < rms < np.inf and 0 < prev_rms < np.inf and prev_dt != flow.dt:
                order = float(np.log(prev_rms / rms) / np.log(prev_dt / flow.dt))
        verdict = "PASS" if rms <= thresh else "FAIL"
        rows.append(LadderRow(flow.dt, flow.n_particles, rms, mx, order, verdict))
        sq_means.append((flow.dt, sq_mean, sq_se))
        prev = (rms, flow.dt)
        # drop this level before the iterable simulates the next one
        del flow
    if not rows:
        raise ContractError("need at least one flow")
    floor, floor_se = _defect_floor(sq_means)
    negligible = floor <= (1e-8 * scale_cap) ** 2
    floor_ok = negligible or floor <= FLOOR_SIGMAS * floor_se
    overall = "PASS" if floor_ok and all(r.verdict == "PASS" for r in rows) else "FAIL"
    return PathIndependenceReport(
        rows=tuple(rows),
        verdict=overall,
        defect_floor=float(np.sqrt(max(floor, 0.0))),
    )


def _defect_floor(sq_means):
    """Weighted least-squares intercept of mean-square defect against dt.

    Returns (floor, se) where floor estimates lim_{dt -> 0} E[defect^2].  A
    single level cannot separate slope from intercept; the floor is then 0,
    and a mean-square defect that is not finite makes it inf, with se 0.
    """
    dts = np.array([m[0] for m in sq_means])
    ys = np.array([m[1] for m in sq_means])
    if not np.isfinite(ys).all():
        return np.inf, 0.0
    if len(sq_means) < 2:
        return 0.0, 0.0
    if ys.max() <= 0.0:
        return 0.0, 0.0
    ses = np.array([max(m[2], 1e-12 * ys.max()) for m in sq_means])
    A = np.column_stack([dts, np.ones_like(dts)])
    W = np.diag(1.0 / ses**2)
    gram = A.T @ W @ A
    if np.linalg.cond(gram) > 1e14:
        return 0.0, 0.0
    cov = np.linalg.inv(gram)
    coef = cov @ (A.T @ W @ ys)
    return float(coef[1]), float(np.sqrt(max(cov[1, 1], 0.0)))


def _girsanov_field(g, beta, with_g=True):
    """The field (|g|^2 / (2 beta), g or None) of the Girsanov density, one g read per call."""
    if beta == 0:
        raise ContractError("beta must be nonzero")

    def field(tk, X, mu):
        gv = g(tk, X, mu)
        sq = np.asarray(gv, dtype=float).reshape(X.shape[0], -1) ** 2
        return np.sum(sq, axis=1) / (2.0 * beta), gv if with_g else None

    return field


@dataclass(frozen=True)
class NovikovEstimate:
    estimate: float
    tail_flag: str  # clear | heavy | severe


def _novikov(samples):
    """Monte Carlo estimate of E exp(1/2 int |g|^2 dr) from its samples, with a
    tail diagnostic: ``heavy`` when the top 1% of samples carries more than
    half of the total mass, ``severe`` when a sample is non-finite."""
    if not np.all(np.isfinite(samples)):
        return NovikovEstimate(estimate=float("inf"), tail_flag="severe")
    total = samples.sum()
    top = np.sort(samples)[::-1][: max(1, len(samples) // 100)]
    flag = "heavy" if total > 0 and top.sum() > 0.5 * total else "clear"
    return NovikovEstimate(estimate=float(samples.mean()), tail_flag=flag)


def girsanov_replay(g, flow, beta, s, t):
    """(weight, Novikov estimate, X_t - X_s per path) from one pass over
    ``flow.steps(s, t)``.

    The weight is exp(-A^{g;beta}_{s,t}) per path, with f folded in as
    |g|^2 / (2 beta); the estimate is a :class:`NovikovEstimate` of
    E exp(1/2 int_s^t |g|^2 dr).  Both functionals are the two fields of one
    _fold, each reading g once per step, so a StreamedFlow is simulated once
    and never recorded.
    """
    fields = [_girsanov_field(g, beta), _girsanov_field(g, 1.0, with_g=False)]
    (weight, novikov), (_, x_s, _), (_, x_t, _) = _fold(flow, s, t, fields)
    return np.exp(-weight), _novikov(np.exp(novikov)), x_t - x_s
