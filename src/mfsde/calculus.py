"""Cylindrical functions on [0,T] x R^d x P_2(R^d) and their measure derivative.

A cylindrical function has the form

    f(t, x, mu) = F(t, x, mu(h_1), ..., mu(h_n))

with smooth inner functions h_i (bounded Hessians) and a smooth outer
function F.  For this class the measure derivative has the closed form

    d_mu f(t, x, mu)(y) = sum_i dF/dr_i * grad h_i(y)

which we evaluate exactly; a Frechet difference-quotient oracle is provided
for cross-validation.  All evaluators broadcast over a leading batch axis in
``x`` and ``y``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapabilityError, ContractError, check_params
from .measure import integrate, pushforward

#: catalog identifiers accepted by make_inner / make_outer
INNER_NAMES = ("linear", "quadratic", "bump", "coordinate")
OUTER_NAMES = (
    "const", "mean", "sum", "square", "product", "exp", "log", "coord",
    "time", "x_norm_sq", "x_sq_plus_r1", "x1_times_r1", "time_times_r1",
    "x_sq_plus_c_minus_t", "gauss_quarter",
)
#: the parameters each make_outer entry reads, with their defaults; an entry
#: not listed reads none
OUTER_PARAMS = {"const": {"c": 1.0}, "coord": {"i": 0}, "x_sq_plus_c_minus_t": {"c": 1.0}}


# ---------------------------------------------------------------------------
# inner functions h: R^d -> R with value / gradient / Hessian evaluators


@dataclass(frozen=True)
class InnerFunction:
    """Scalar test function with closed-form first and second derivatives.

    ``value`` maps (..., d) -> (...,), ``grad`` -> (..., d),
    ``hess`` -> (..., d, d).  The Hessian is bounded by construction for
    every catalog member.
    """

    name: str
    value: Callable
    grad: Callable
    hess: Callable


def _linear_inner(a):
    a = np.asarray(a, dtype=float)

    def points(x):
        x = np.asarray(x)
        if x.shape[-1:] != a.shape:
            raise ContractError(
                f"linear inner function has a in R^{a.size}, got points of shape {x.shape}"
            )
        return x

    def hess(x):
        x = points(x)
        return np.zeros(x.shape + (x.shape[-1],))

    return InnerFunction(
        name=f"linear({a.tolist()})",
        value=lambda x: points(x) @ a,
        grad=lambda x: np.broadcast_to(a, points(x).shape).copy(),
        hess=hess,
    )


def _quadratic_inner():
    def hess(x):
        x = np.asarray(x)
        d = x.shape[-1]
        return np.broadcast_to(2.0 * np.eye(d), x.shape + (d,)).copy()

    return InnerFunction(
        name="quadratic",
        value=lambda x: np.sum(np.asarray(x) ** 2, axis=-1),
        grad=lambda x: 2.0 * np.asarray(x),
        hess=hess,
    )


def _bump_inner():
    # exp(-|x|^2 / 2): smooth with globally bounded Hessian
    def value(x):
        return np.exp(-0.5 * np.sum(np.asarray(x) ** 2, axis=-1))

    def grad(x):
        x = np.asarray(x)
        return -x * value(x)[..., None]

    def hess(x):
        x = np.asarray(x)
        d = x.shape[-1]
        v = value(x)
        outer = x[..., :, None] * x[..., None, :]
        return (outer - np.eye(d)) * v[..., None, None]

    return InnerFunction("bump", value, grad, hess)


def _coordinate_inner(i, power=1):
    if power not in (1, 2):
        raise ContractError("coordinate monomials supported up to degree 2")

    def value(x):
        return np.asarray(x)[..., i] ** power

    def grad(x):
        x = np.asarray(x)
        g = np.zeros_like(x)
        g[..., i] = 1.0 if power == 1 else 2.0 * x[..., i]
        return g

    def hess(x):
        x = np.asarray(x)
        d = x.shape[-1]
        h = np.zeros(x.shape + (d,))
        if power == 2:
            h[..., i, i] = 2.0
        return h

    return InnerFunction(f"coord{power}({i})", value, grad, hess)


def make_inner(name, **params):
    """Resolve an inner function by catalog identifier."""
    if name == "linear":
        return _linear_inner(params.get("a", [1.0]))
    if name == "quadratic":
        return _quadratic_inner()
    if name == "bump":
        return _bump_inner()
    if name == "coordinate":
        return _coordinate_inner(params.get("i", 0), params.get("power", 1))
    raise ContractError(f"unknown inner function {name!r}")


# ---------------------------------------------------------------------------
# outer functions F(t, x, r)


@dataclass(frozen=True)
class OuterFunction:
    """Outer function F(t, x, r) with its partial derivatives.

    Arguments broadcast: t scalar, x (..., d), r (n,).  ``n_inner`` is the
    number n of inner integrals F reads, or None when any n will do.  Missing
    evaluators (None) raise CapabilityError when requested through
    :meth:`partial`.  Catalog entries from :func:`make_outer` have every
    partial; the ones an entry does not spell out are identically zero.
    """

    name: str
    n_inner: Optional[int]
    value: Callable
    dt: Callable = None
    dx: Callable = None
    dxx: Callable = None
    dr: Callable = None

    def partial(self, which):
        """Evaluator of the partial ``which``; CapabilityError if it is missing."""
        fn = getattr(self, which)
        if fn is None:
            raise CapabilityError(
                f"outer function {self.name} lacks evaluator {which!r}"
            )
        return fn


def _scalar_field(x, c):
    x = np.asarray(x)
    return np.full(x.shape[:-1], float(c))


# zero partials: dt (...,), dx (..., d), dxx (..., d, d), dr (..., n)


def _zero_dt(t, x, r):
    return _scalar_field(x, 0.0)


def _zero_dx(t, x, r):
    return np.zeros(np.asarray(x).shape)


def _zero_dxx(t, x, r):
    x = np.asarray(x)
    return np.zeros(x.shape + (x.shape[-1],))


def _zero_dr(t, x, r):
    return np.zeros(np.asarray(x).shape[:-1] + (len(r),))


def _catalog_outer(name, value, n_inner=None, dt=_zero_dt, dx=_zero_dx,
                   dxx=_zero_dxx, dr=_zero_dr):
    """Catalog entry whose partials default to zero."""
    return OuterFunction(name, n_inner, value, dt=dt, dx=dx, dxx=dxx, dr=dr)


def _single_entry(zeros, i, entry):
    """Partial equal to ``zeros`` except entry(t, x, r) at index i of the last axis."""

    def partial(t, x, r):
        out = zeros(t, x, r)
        out[..., i] = entry(t, x, r)
        return out

    return partial


def _x_norm_sq(t, x, r):
    return np.sum(np.asarray(x) ** 2, axis=-1)


def _x_norm_sq_dx(t, x, r):
    return 2.0 * np.asarray(x)


def _x_norm_sq_dxx(t, x, r):
    x = np.asarray(x)
    d = x.shape[-1]
    return np.broadcast_to(2.0 * np.eye(d), x.shape + (d,)).copy()


def _gauss_quarter(t, x, r):
    return np.exp(-0.25 * np.sum(np.asarray(x) ** 2, axis=-1))


def _gauss_quarter_dx(t, x, r):
    x = np.asarray(x)
    return -0.5 * x * _gauss_quarter(t, x, r)[..., None]


def _gauss_quarter_dxx(t, x, r):
    x = np.asarray(x)
    d = x.shape[-1]
    v = _gauss_quarter(t, x, r)
    outer = x[..., :, None] * x[..., None, :]
    return (0.25 * outer - 0.5 * np.eye(d)) * v[..., None, None]


def _log_value(t, x, r):
    if r[0] <= 0:
        raise ContractError("log outer requires a positive first integral")
    return _scalar_field(x, np.log(r[0]))


def _product_dr(t, x, r):
    out = _zero_dr(t, x, r)
    out[..., 0] = r[1]
    out[..., 1] = r[0]
    return out


def make_outer(name, **params):
    """Resolve an outer function by catalog identifier.

    Catalog: const, mean, sum, square, product, exp, log, coord, time,
    x_norm_sq, x_sq_plus_r1, x1_times_r1, time_times_r1, x_sq_plus_c_minus_t,
    gauss_quarter.  Each entry lists only its nonzero partials.  A parameter
    the entry does not read (see OUTER_PARAMS) raises ContractError.
    """
    if name not in OUTER_NAMES:
        raise ContractError(f"unknown outer function {name!r}")
    reads = OUTER_PARAMS.get(name, {})
    check_params(f"outer function {name!r}", params, reads)
    params = {**reads, **params}
    if name == "const":
        c = float(params["c"])
        return _catalog_outer(f"const({c})", lambda t, x, r: _scalar_field(x, c))
    if name == "mean":  # F = r_1
        return _catalog_outer(
            "mean", lambda t, x, r: _scalar_field(x, 0.0) + r[0], n_inner=1,
            dr=_single_entry(_zero_dr, 0, lambda t, x, r: 1.0),
        )
    if name == "sum":
        return _catalog_outer(
            "sum", lambda t, x, r: _scalar_field(x, float(np.sum(r))),
            dr=lambda t, x, r: _zero_dr(t, x, r) + 1.0,
        )
    if name == "square":  # F = r_1^2
        return _catalog_outer(
            "square", lambda t, x, r: _scalar_field(x, r[0] ** 2), n_inner=1,
            dr=_single_entry(_zero_dr, 0, lambda t, x, r: 2.0 * r[0]),
        )
    if name == "product":  # F = r_1 r_2
        return _catalog_outer(
            "product", lambda t, x, r: _scalar_field(x, r[0] * r[1]), n_inner=2,
            dr=_product_dr,
        )
    if name == "exp":  # F = exp(r_1)
        return _catalog_outer(
            "exp", lambda t, x, r: _scalar_field(x, np.exp(r[0])), n_inner=1,
            dr=_single_entry(_zero_dr, 0, lambda t, x, r: np.exp(r[0])),
        )
    if name == "log":  # F = log(r_1), r_1 > 0
        return _catalog_outer(
            "log", _log_value, n_inner=1,
            dr=_single_entry(_zero_dr, 0, lambda t, x, r: 1.0 / r[0]),
        )
    if name == "coord":
        i = int(params["i"])
        return _catalog_outer(
            f"coord({i})", lambda t, x, r: np.asarray(x)[..., i],
            dx=_single_entry(_zero_dx, i, lambda t, x, r: 1.0),
        )
    if name == "time":
        return _catalog_outer(
            "time", lambda t, x, r: _scalar_field(x, t),
            dt=lambda t, x, r: _scalar_field(x, 1.0),
        )
    if name == "x_norm_sq":
        return _catalog_outer(
            "x_norm_sq", _x_norm_sq, dx=_x_norm_sq_dx, dxx=_x_norm_sq_dxx
        )
    if name == "x_sq_plus_r1":  # F = |x|^2 + r_1
        return _catalog_outer(
            "x_sq_plus_r1", lambda t, x, r: _x_norm_sq(t, x, r) + r[0], n_inner=1,
            dx=_x_norm_sq_dx, dxx=_x_norm_sq_dxx,
            dr=_single_entry(_zero_dr, 0, lambda t, x, r: 1.0),
        )
    if name == "x1_times_r1":  # F = x_1 r_1
        return _catalog_outer(
            "x1_times_r1", lambda t, x, r: np.asarray(x)[..., 0] * r[0], n_inner=1,
            dx=_single_entry(_zero_dx, 0, lambda t, x, r: r[0]),
            dr=_single_entry(_zero_dr, 0, lambda t, x, r: np.asarray(x)[..., 0]),
        )
    if name == "time_times_r1":  # F = t r_1
        return _catalog_outer(
            "time_times_r1", lambda t, x, r: _scalar_field(x, t * r[0]), n_inner=1,
            dt=lambda t, x, r: _scalar_field(x, r[0]),
            dr=_single_entry(_zero_dr, 0, lambda t, x, r: t),
        )
    if name == "x_sq_plus_c_minus_t":
        # F = |x|^2 + c - t, the heat-equation reference solution for c = T
        c = float(params["c"])
        return _catalog_outer(
            f"x_sq_plus_c_minus_t({c})", lambda t, x, r: _x_norm_sq(t, x, r) + c - t,
            dt=lambda t, x, r: _scalar_field(x, -1.0),
            dx=_x_norm_sq_dx, dxx=_x_norm_sq_dxx,
        )
    # the entry left, gauss_quarter: F = exp(-|x|^2 / 4), a strictly positive datum
    return _catalog_outer(
        "gauss_quarter", _gauss_quarter, dx=_gauss_quarter_dx, dxx=_gauss_quarter_dxx
    )


# ---------------------------------------------------------------------------
# the cylindrical function itself


@dataclass(frozen=True)
class CylindricalFunction:
    """f(t, x, mu) = F(t, x, mu(h_1), ..., mu(h_n))."""

    outer: OuterFunction
    inner: Sequence[InnerFunction] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "inner", tuple(self.inner))
        if self.outer.n_inner is not None and len(self.inner) != self.outer.n_inner:
            raise ContractError(
                f"outer {self.outer.name} needs {self.outer.n_inner} inner functions"
            )

    @property
    def name(self):
        inner = ",".join(h.name for h in self.inner)
        return f"{self.outer.name}[{inner}]"

    def inner_integrals(self, mu):
        """Vector (mu(h_1), ..., mu(h_n))."""
        return np.asarray([float(integrate(mu, h.value)) for h in self.inner])

    def value(self, t, x, mu, r=None):
        if r is None:
            r = self.inner_integrals(mu)
        out = self.outer.value(t, np.asarray(x, dtype=float), r)
        return float(out) if np.ndim(out) == 0 else out

    def _dr_weighted(self, t, x, mu, y, which, trailing):
        """sum_i dF/dr_i * h_i.<which>(y), an array of shape y.shape + trailing."""
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape + trailing)
        if self.inner:
            r = self.inner_integrals(mu)
            coeffs = np.asarray(
                self.outer.partial("dr")(t, np.asarray(x, dtype=float), r)
            ).reshape(-1)
            for i, h in enumerate(self.inner):
                out += coeffs[i] * getattr(h, which)(y)
        return out

    def l_derivative(self, t, x, mu, y):
        """d_mu f(t, x, mu)(y) = sum_i dF/dr_i * grad h_i(y)."""
        return self._dr_weighted(t, x, mu, y, "grad", ())

    def dy_l_derivative(self, t, x, mu, y):
        """Gradient in y of the measure derivative: sum_i dF/dr_i * hess h_i(y)."""
        return self._dr_weighted(t, x, mu, y, "hess", np.shape(y)[-1:])


def l_derivative_fd_oracle(f, t, x, mu, phi, eps):
    """Difference quotient [f(mu o (Id + eps*phi)^{-1}) - f(mu)] / eps.

    Converges to mu(<d_mu f, phi>) as eps -> 0; kept deliberately
    independent of the closed-form evaluation path.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    shifted = pushforward(mu, lambda pts: eps * np.asarray(phi(pts)))
    return (f.value(t, x, shifted) - f.value(t, x, mu)) / eps


def l_derivative_pairing(f, t, x, mu, phi):
    """mu(<d_mu f, phi>): the limit the FD oracle must approach."""
    grad = f.l_derivative(t, x, mu, mu.points)
    disp = np.asarray([phi(p) for p in mu.points], dtype=float).reshape(mu.n_atoms, -1)
    return float(np.sum(mu.weights * np.sum(grad * disp, axis=1)))


def make_cylindrical(outer, inner=(), outer_params=None):
    """Build a catalog cylindrical function from string identifiers.

    ``inner`` is a sequence of names or (name, params) pairs; ``outer`` a
    name resolved by :func:`make_outer`.
    """
    outer_fn = make_outer(outer, **(outer_params or {}))
    inner_fns = []
    for spec in inner:
        if isinstance(spec, str):
            inner_fns.append(make_inner(spec))
        else:
            name, params = spec
            inner_fns.append(make_inner(name, **(params or {})))
    return CylindricalFunction(outer_fn, inner_fns)
