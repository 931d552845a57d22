"""Mean-field generators on cylindrical functions, evaluated exactly.

Two operators act on V(t, x, mu):

* the drift-diffusion generator combining the classical second-order part
  in x with measure-integrated terms in the measure derivative, and
* its drift-free companion that replaces <b, dx V> by the squared-gradient
  term and reads the drift inside the measure integral off V itself.

Measure integrals are exact weighted sums over the atoms of ``mu``.  A
trajectory-level residual tester checks the discrete Ito identity for the
interacting-particle scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError


def _labeled(term, fn, *args):
    try:
        return np.asarray(fn(*args), dtype=float)
    except Exception as exc:  # noqa: BLE001 - annotate with the failing term
        raise EvaluationError(f"evaluator failed in term {term!r}: {exc}") from exc


def _mu_part_coefficients(coeff, V, t, mu, r, use_v_gradient_drift, a_y=None, b_y=None):
    """Per-inner-function weights of the measure-integral terms.

    Returns (c, e) with c_i = 1/2 int tr(sigma sigma^* hess h_i) dmu and
    e_i = int <drift(y), grad h_i(y)> dmu, where drift is either the
    coefficient drift b or sigma sigma^* dx V read off V itself (at the
    inner integrals ``r`` of mu).  ``a_y`` and ``b_y``, when given, are
    sigma sigma^* and b at the atoms of mu, already computed by the caller.
    """
    if not V.inner:
        n = 0
        return np.zeros(n), np.zeros(n)
    Y, w = mu.points, mu.weights
    if a_y is None:
        # sigma sigma^* once when sigma has no per-atom rows
        sig_y = _labeled("trace_mu", coeff.sigma, t, Y, mu)
        a_y = np.einsum("...jk,...lk->...jl", sig_y, sig_y)
    if use_v_gradient_drift:
        dxV_y = _labeled("drift_mu", V.outer.partial("dx"), t, Y, r)
        drift_y = np.einsum("...jl,...l->...j", a_y, dxV_y)
    elif b_y is None:
        drift_y = _labeled("drift_mu", coeff.b, t, Y, mu)
    else:
        drift_y = b_y
    c = np.empty(len(V.inner))
    e = np.empty(len(V.inner))
    for i, h in enumerate(V.inner):
        c[i] = 0.5 * float(np.sum(w * np.einsum("...jl,...lj->...", a_y, h.hess(Y))))
        e[i] = float(np.sum(w * np.einsum("...j,...j->...", drift_y, h.grad(Y))))
    return c, e


def generator_parts(coeff, V, t, X, mu, drift_free=False, r=None):
    """Vectorized generator terms over a batch of states X (B, d).

    Returns a dict of (B,) arrays: trace_x, trace_mu, drift_mu, plus either
    drift_x or nonlinear_sq, together with dt (time partial of V) and
    sigma_star_dx (B, m) for stochastic-integral bookkeeping.  ``r``, when
    given, must be ``V.inner_integrals(mu)``, already computed by the caller.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if r is None:
        r = V.inner_integrals(mu)
    dxV = _labeled("drift_x", V.outer.partial("dx"), t, X, r)
    # sigma broadcasts against the (B, ...) partials of V
    sig_x = _labeled("trace_x", coeff.sigma, t, X, mu)
    dxxV = _labeled("trace_x", V.outer.partial("dxx"), t, X, r)
    dtV = _labeled("dt", V.outer.partial("dt"), t, X, r)
    # an x-independent sigma gives one sigma sigma^*, not one per state, and
    # with a constant dxx V one trace, broadcast to the batch
    a_x = np.einsum("...jk,...lk->...jl", sig_x, sig_x)
    trace_x = 0.5 * np.einsum("...jl,...lj->...", a_x, dxxV)
    out = {
        "dt": dtV,
        "trace_x": np.broadcast_to(trace_x, X.shape[:1]).copy(),
        "sigma_star_dx": np.einsum("...jk,...j->...k", sig_x, dxV),
    }
    b_x = None
    if drift_free:
        out["nonlinear_sq"] = 0.5 * np.sum(out["sigma_star_dx"] ** 2, axis=1)
    else:
        b_x = _labeled("drift_x", coeff.b, t, X, mu)
        out["drift_x"] = np.einsum("...j,...j->...", b_x, dxV)
    # when mu is the batch's own snapshot, its atoms are X: reuse the
    # coefficients there rather than call them again
    own = (a_x, b_x) if mu.points is X else ()
    c, e = _mu_part_coefficients(coeff, V, t, mu, r, drift_free, *own)
    if V.inner:
        drV = _labeled("trace_mu", V.outer.partial("dr"), t, X, r)
        out["trace_mu"] = drV @ c
        out["drift_mu"] = drV @ e
    else:
        out["trace_mu"] = np.zeros(X.shape[0])
        out["drift_mu"] = np.zeros(X.shape[0])
    return out


def generator_total(parts):
    """Generator value from its parts, without the time partial ``dt``.

    The one place the parts are summed, always in the order trace_x, then
    drift_x or nonlinear_sq, then trace_mu, then drift_mu, so every caller
    gets the same bits.
    """
    first_order = parts["drift_x"] if "drift_x" in parts else parts["nonlinear_sq"]
    return parts["trace_x"] + first_order + parts["trace_mu"] + parts["drift_mu"]


@dataclass(frozen=True)
class ItoResidualSummary:
    """Per-step reductions of the discrete Ito residual over P particles.

    step_mean and step_rms, shape (L,), are the mean and RMS over the
    particles of each step's residual; qv_sum, shape (P,), is each
    particle's squared martingale increments summed over the steps;
    qv_density, shape (L,), is the predicted quadratic-variation density
    |sigma^* dx f|^2 at each step averaged over the particles.
    """

    step_mean: np.ndarray
    step_rms: np.ndarray
    qv_sum: np.ndarray
    qv_density: np.ndarray


def ito_residual_ensemble(coeff, f, flow):
    """Discrete Ito residual of the particles of a flow, reduced per step.

    ``flow`` is a StreamedFlow, folded in one pass over its steps, so no
    (L, P) array is built.  The residual of step k is the one-step increment
    of f along the path minus the generator drift term and the stochastic
    increment; it is known once the pass reaches grid point k+1.  The
    generator is evaluated once per step, at the inner integrals already
    computed for the step's value.  Returns an :class:`ItoResidualSummary`.
    """
    dt = flow.dt
    step_mean, step_rms, qv_density = [], [], []
    qv_sum = np.zeros(flow.n_particles)
    for k, (t_k, X, mu, dw) in enumerate(flow.steps(flow.times[0], flow.times[-1])):
        r = f.inner_integrals(mu)
        vals = np.asarray(f.outer.value(t_k, X, r), dtype=float)
        if k > 0:
            # (value, drift, martingale increment) of step k - 1
            res = vals - vals_prev - drift * dt - mart
            step_mean.append(res.mean())
            step_rms.append(np.sqrt((res**2).mean()))
            qv_sum += mart**2
        if dw is not None:
            parts = generator_parts(coeff, f, t_k, X, mu, r=r)
            sig_dx = parts["sigma_star_dx"]
            mart = np.einsum("bm,bm->b", sig_dx, dw)
            qv_density.append(np.mean(np.sum(sig_dx**2, axis=1)))
            vals_prev, drift = vals, parts["dt"] + generator_total(parts)
    return ItoResidualSummary(
        step_mean=np.array(step_mean, dtype=float),
        step_rms=np.array(step_rms, dtype=float),
        qv_sum=qv_sum,
        qv_density=np.array(qv_density, dtype=float),
    )
