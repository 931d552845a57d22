"""Empirical probability measures on R^d with finite second moment.

A measure is a weighted point cloud.  This is the only representation used
throughout the package: integrals against the measure are exact weighted
sums, push-forwards move the atoms, and the quadratic Wasserstein distance
is computed by exact assignment / transport solvers.  The assignment is
solved between the clouds centred at their means, which has the same optimal
couplings: W2^2(mu, nu) = |m_mu - m_nu|^2 + W2^2 of the centred clouds
(Peyre & Cuturi, Computational Optimal Transport, 2019, sec. 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from .errors import ContractError, EvaluationError

_WEIGHT_TOL = 1e-12

# general-weight transport is solved as a dense LP; keep instances small
_MAX_TRANSPORT_ATOMS = 64
#: the brute-force oracle enumerates all N! couplings: 0.17 s at N = 8, 1.7 s at 9
MAX_BRUTEFORCE_ATOMS = 8


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted point cloud standing in for a probability measure on R^d.

    ``points`` has shape (N, d), ``weights`` shape (N,); weights are
    nonnegative and sum to one.  Instances are immutable and safe to share.
    """

    points: np.ndarray
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ContractError("points must be a nonempty (N, d) array")
        if not np.all(np.isfinite(pts)):
            raise ContractError("all support points must be finite")
        n = pts.shape[0]
        if self.weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (n,):
                raise ContractError("weights must have shape (N,)")
            if np.any(w < 0) or not np.all(np.isfinite(w)):
                raise ContractError("weights must be finite and nonnegative")
            if abs(w.sum() - 1.0) > _WEIGHT_TOL:
                raise ContractError(
                    f"weights must sum to 1 within {_WEIGHT_TOL}, got {w.sum()!r}"
                )
        pts = pts.copy()
        w = w.copy()
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def _snapshot(cls, points, weights):
        """The measure on ``points`` with ``weights`` as given: no checks, no copies.

        For the particle schemes, whose states are read-only (N, d) arrays
        checked finite at every step and whose snapshots share one weights
        array, itself built by a checked constructor.
        """
        mu = cls.__new__(cls)
        object.__setattr__(mu, "points", points)
        object.__setattr__(mu, "weights", weights)
        return mu

    @property
    def n_atoms(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def is_uniform(self):
        return bool(np.allclose(self.weights, 1.0 / self.n_atoms, rtol=0, atol=_WEIGHT_TOL))

    def second_moment(self):
        """mu(|.|^2) as an exact weighted sum."""
        return float(self.weights @ np.sum(self.points**2, axis=1))

    def mean(self):
        return self.weights @ self.points


def dirac(x):
    """Single-atom measure at ``x``."""
    return EmpiricalMeasure(np.atleast_2d(np.asarray(x, dtype=float)))


def _eval_on_points(h, points):
    """h on every atom at once: ``h(points)``, which must have leading shape (N,)."""
    vals = np.asarray(h(points), dtype=float)
    if vals.shape[:1] != points.shape[:1]:
        raise ContractError(
            f"function of the support returned shape {vals.shape}, "
            f"expected ({points.shape[0]}, ...)"
        )
    return vals


def integrate(mu, h):
    """mu(h) = sum_i w_i h(x_i) for scalar- or vector-valued ``h``."""
    vals = _eval_on_points(h, mu.points)
    if not np.isfinite(vals).all():
        idx = int(np.argmax(~np.isfinite(vals).reshape(mu.n_atoms, -1).all(axis=1)))
        raise EvaluationError(f"test function non-finite at support point {idx}")
    if vals.ndim == 1:
        return float(mu.weights @ vals)
    return np.tensordot(mu.weights, vals, axes=(0, 0))


def pushforward(mu, phi):
    """Image of ``mu`` under x -> x + phi(x), weights unchanged."""
    disp = _eval_on_points(phi, mu.points).reshape(mu.n_atoms, -1)
    if disp.shape != mu.points.shape:
        raise ContractError("displacement must map R^d -> R^d on the support")
    if not np.all(np.isfinite(disp)):
        raise EvaluationError("displacement non-finite on a support point")
    return EmpiricalMeasure(mu.points + disp, mu.weights)


#: entries of the row block whose coordinate differences _cost_matrix holds at once
_COST_BLOCK = 1 << 16


def _cost_matrix(x, y):
    """Squared distances |x_i - y_j|^2 between point arrays, shape (N, K).

    The squared coordinate differences are added into the (N, K) result in
    coordinate order, one block of rows at a time, so besides the result
    only one block's differences are held, never the (N, K, d) array.  For
    d < 8 that is the order in which ``np.sum(..., axis=2)`` adds them, so
    the bits are the same; numpy adds eight or more by pairs.
    """
    cost = np.zeros((x.shape[0], y.shape[0]))
    rows = max(1, _COST_BLOCK // y.shape[0])
    for i in range(0, x.shape[0], rows):
        block = cost[i : i + rows]
        diff = np.empty_like(block)
        for j in range(x.shape[1]):
            np.subtract.outer(x[i : i + rows, j], y[:, j], out=diff)
            block += np.square(diff, out=diff)
    return cost


def wasserstein2(mu, nu):
    """Exact quadratic Wasserstein distance between two point clouds.

    Uniform equal-count measures use sorting (d=1) or optimal assignment;
    general weights fall back to a dense transport LP for small supports.

    The assignment is solved on the clouds centred at their own means:
    W2^2(mu, nu) = |m_mu - m_nu|^2 + W2^2(mu - m_mu, nu - m_nu), and the two
    problems have the same optimal couplings (Peyre & Cuturi, Computational
    Optimal Transport, 2019, sec. 2), since centring moves each cost by a
    row term and a column term only.  Near a translate the centred problem
    is far easier for the augmenting-path solver.  The value is then summed
    from the original points at the returned pairs, in the order of
    ``_cost_matrix``, so its bits are those of the raw cost at that coupling.
    When the optimal coupling is unique, that is the raw solve's coupling and
    the bits are the raw solve's; when optima tie within rounding (repeated
    or symmetric atoms), the solver may pick another optimum, and the two
    values agree to rounding.
    """
    if mu.dim != nu.dim:
        raise ContractError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.n_atoms == nu.n_atoms and mu.is_uniform and nu.is_uniform:
        if mu.dim == 1:
            a = np.sort(mu.points[:, 0])
            b = np.sort(nu.points[:, 0])
            return float(np.sqrt(np.mean((a - b) ** 2)))
        rows, cols = linear_sum_assignment(
            _cost_matrix(mu.points - mu.mean(), nu.points - nu.mean()))
        paired = np.zeros(mu.n_atoms)
        for j in range(mu.dim):
            paired += (mu.points[rows, j] - nu.points[cols, j]) ** 2
        return float(np.sqrt(paired.mean()))
    return _wasserstein2_transport(mu, nu)


def _wasserstein2_transport(mu, nu):
    n, k = mu.n_atoms, nu.n_atoms
    if n > _MAX_TRANSPORT_ATOMS or k > _MAX_TRANSPORT_ATOMS:
        raise ContractError(
            f"general-weight transport limited to {_MAX_TRANSPORT_ATOMS} atoms per side"
        )
    cost = _cost_matrix(mu.points, nu.points).ravel()
    # marginal constraints: row sums = mu.weights, column sums = nu.weights
    a_eq = np.zeros((n + k, n * k))
    for i in range(n):
        a_eq[i, i * k : (i + 1) * k] = 1.0
    for j in range(k):
        a_eq[n + j, j::k] = 1.0
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(cost, A_eq=a_eq[:-1], b_eq=b_eq[:-1], bounds=(0, None), method="highs")
    if not res.success:
        raise ContractError(f"transport LP failed: {res.message}")
    return float(np.sqrt(max(res.fun, 0.0)))


def wasserstein2_bruteforce(mu, nu):
    """Permutation-enumeration oracle for uniform equal-count measures.

    Independent of the assignment solver; exponential in N, so limited to
    ``MAX_BRUTEFORCE_ATOMS`` atoms.
    """
    if mu.dim != nu.dim:
        raise ContractError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.n_atoms != nu.n_atoms or not (mu.is_uniform and nu.is_uniform):
        raise ContractError("brute force requires uniform equal-count measures")
    if mu.n_atoms > MAX_BRUTEFORCE_ATOMS:
        raise ContractError(f"brute force limited to {MAX_BRUTEFORCE_ATOMS} atoms per side")
    cost = _cost_matrix(mu.points, nu.points)
    n = mu.n_atoms
    best = min(
        sum(cost[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))
    )
    return float(np.sqrt(best / n))
