"""Coefficient fields and particle schemes for the mean-field SDE.

The law of the solution is approximated by the empirical measure of N
interacting particles advanced with explicit Euler steps.  Brownian
increments come from counter-based Philox streams keyed by
(seed, domain, particle), so a rerun with the same seed is bit-identical
regardless of how the work is scheduled.  A counter-based stream is fixed by
its (key, counter) pair alone, so one Philox generator serves a whole noise
array: it is re-keyed, with its counter reset, before each particle's draws.
A particle's stream does not depend on which call draws it, so a caller can
draw particles in chunks (``brownian_increments(..., first=a)``) and get the
bits of one whole block.  Noise moves only as such read-only increments; the
Euler loop advances (N, d) or (K, N, d) states, and its per-step costs,
which set the Monte Carlo chunk and tile sizes of ``feynman_kac``, are
given in ``_euler_loop``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractError, SimulationError, check_params
from .measure import EmpiricalMeasure, wasserstein2

BLOWUP_GUARD = 1e8

# stream domains keep noise sources disjoint by construction
DOMAIN_INTERACTING = 0
DOMAIN_DECOUPLED = 1
DOMAIN_INIT = 2


def _stream_key(seed, particle, domain):
    """Philox key words [seed ^ mix, (domain << 48) + particle], as Python ints.

    Seed, particle and domain must be integers in [0, 2**64), [0, 2**48) and
    [0, 2**16), the ranges in which distinct triples give distinct keys;
    anything else raises ContractError.  Hand the words to numpy as a uint64
    array: a plain list of them is read as float64 and loses low bits.
    """
    words = []
    fields = (("seed", seed, 64), ("particle", particle, 48), ("domain", domain, 16))
    for name, value, bits in fields:
        try:
            value = operator.index(value)
        except TypeError:
            raise ContractError(f"stream {name} must be an integer, got {value!r}") from None
        if not 0 <= value < 1 << bits:
            raise ContractError(f"stream {name} {value} is outside [0, 2**{bits})")
        words.append(value)
    seed, particle, domain = words
    return [seed ^ 0x9E3779B97F4A7C15, (domain << 48) + particle]


def particle_stream(seed, particle, domain=DOMAIN_INTERACTING):
    """Philox generator for one particle's noise, independent of all others."""
    key = np.array(_stream_key(seed, particle, domain), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


#: particles whose streams one draw tile holds (see _raw_normals)
_DRAW_TILE = 64


def _raw_normals(seed, n_particles, n_steps, m, domain, first=0):
    """Fresh standard normals, shape (n_steps, n_particles, m), one stream per particle.

    ``raw[:, i]`` holds the stream of particle ``first + i``, so the block
    of particles [a, b) equals ``raw[:, a:b]`` of a block drawn from
    particle 0, bit for bit: a caller can draw its particles in chunks.
    Streams emit draws
    step-ordered, so a longer block's step prefix equals a shorter one:
    callers that reuse noise on purpose draw the longest block once and
    slice it.
    """
    # the first particle's stream key stands for (seed, domain) and validates both
    word0, word1 = _stream_key(seed, first, domain)
    n_particles = check_count("n_particles", n_particles, 1)
    n_steps = check_count("n_steps", n_steps, 0)
    m = check_count("m", m, 1)
    _stream_key(seed, first + n_particles - 1, domain)
    # One generator serves every particle: re-keying its Philox with the
    # counter and output buffer reset gives exactly the draws of
    # particle_stream(seed, i, domain), at a fraction of the cost of
    # constructing a generator (which also reads OS entropy) per particle.
    # Particle i's key is particle 0's with i added to the second word; the
    # key check of the last particle keeps i from carrying into the domain
    # bits.  Each stream is drawn contiguously into a small tile, which is
    # written into the step-major block once (a tile of _DRAW_TILE particles
    # stays in cache; a strided write per particle does not).
    bits = np.random.Philox()
    gen = np.random.Generator(bits)
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    raw = np.empty((n_steps, n_particles, m))
    tile = np.empty((min(_DRAW_TILE, n_particles), n_steps, m))
    for a in range(0, n_particles, _DRAW_TILE):
        part = tile[: min(_DRAW_TILE, n_particles - a)]
        for j, stream in enumerate(part):
            state["state"]["key"] = [word0, word1 + a + j]
            bits.state = state
            gen.standard_normal(out=stream)
        raw[:, a : a + len(part)] = part.transpose(1, 0, 2)
    return raw


def brownian_increments(seed, n_particles, n_steps, m, dt, domain=DOMAIN_INTERACTING, first=0):
    """Read-only increments sqrt(dt) * normals, shape (n_steps, n_particles, m):
    the one place noise is drawn, with the chunk and prefix rules of _raw_normals."""
    if not dt > 0:
        raise ContractError(f"dt must be positive, got {dt!r}")
    noise = _raw_normals(seed, n_particles, n_steps, m, domain, first)
    noise *= np.sqrt(dt)
    noise.flags.writeable = False
    return noise


@dataclass(frozen=True)
class CoefficientField:
    """Drift/diffusion evaluators with declared Lipschitz data.

    ``b(t, x, mu)`` and ``sigma(t, x, mu)`` take x of shape (..., d) and
    return arrays that broadcast to (..., d) and (..., d, m): a coefficient
    returns its value at the shape it varies on.  One that depends on x
    returns a row per point; one that does not may return a single (d,)
    vector or (d, m) matrix, which every consumer broadcasts across the
    batch, so the Euler step forms such a diffusion increment once per step
    rather than once per path.  Callers never write into the outputs.
    ``lipschitz_bound`` is declared by the catalog, not verified globally;
    :func:`spot_check_lipschitz` samples it.
    """

    name: str
    d: int
    m: int
    sigma: Callable
    b: Callable
    lipschitz_bound: Callable = lambda t: 0.0
    measure_dependent: bool = True


#: catalog identifiers accepted by make_coefficients, each mapped to the
#: parameters it reads and their defaults
COEFFICIENT_PARAMS = {
    "frozen": {},
    "brownian": {"s": 1.0},
    "constant_drift": {"c": 0.0, "s": 1.0},
    "mean_revert": {"rate": 1.0, "s": 0.0},
    "ou": {"kappa": 0.5, "s": 1.0, "theta": 1.0},
}
COEFFICIENT_NAMES = tuple(COEFFICIENT_PARAMS)


def _constant(value):
    """The x-independent coefficient equal to ``value``, returned read-only."""
    value = np.array(value, dtype=float)
    value.flags.writeable = False

    def const(t, x, mu):
        return value

    return const


def _const_sigma(value, d, m):
    mat = np.zeros((d, m))
    np.fill_diagonal(mat, value)
    return _constant(mat)


def _zero_b(d):
    return _constant(np.zeros(d))


def make_coefficients(name, d=1, m=None, **params):
    """Coefficient catalog addressable by identifier.

    frozen            b = 0, sigma = 0
    brownian          b = 0, sigma = s * I                    (param s)
    constant_drift    b = c, sigma = s * I                    (params c, s)
    mean_revert       b = rate * (mu(Id) - x), sigma = s * I  (params rate, s)
    ou                b = -theta * x + kappa * mu(Id), sigma = s * I

    A parameter the entry does not read raises ContractError (see
    COEFFICIENT_PARAMS for the defaults).
    """
    if name not in COEFFICIENT_PARAMS:
        raise ContractError(f"unknown coefficient field {name!r}")
    check_params(f"coefficient field {name!r}", params, COEFFICIENT_PARAMS[name])
    p = {**COEFFICIENT_PARAMS[name], **params}
    if m is None:
        m = d
    if name == "frozen":
        return CoefficientField(
            "frozen", d, m, _const_sigma(0.0, d, m), _zero_b(d),
            lipschitz_bound=lambda t: 0.0, measure_dependent=False,
        )
    s = float(p["s"])
    if name == "brownian":
        return CoefficientField(
            "brownian", d, m, _const_sigma(s, d, m), _zero_b(d),
            lipschitz_bound=lambda t: abs(s), measure_dependent=False,
        )
    if name == "constant_drift":
        c = np.broadcast_to(np.asarray(p["c"], dtype=float), (d,))
        return CoefficientField(
            "constant_drift", d, m, _const_sigma(s, d, m), _constant(c),
            lipschitz_bound=lambda t: abs(s) + float(np.linalg.norm(c)),
            measure_dependent=False,
        )
    if name == "mean_revert":
        rate = float(p["rate"])

        def b(t, x, mu):
            return rate * (mu.mean() - np.asarray(x))

        return CoefficientField(
            "mean_revert", d, m, _const_sigma(s, d, m), b,
            lipschitz_bound=lambda t: 2.0 * abs(rate) + abs(s),
        )
    theta, kappa = float(p["theta"]), float(p["kappa"])

    def b(t, x, mu):
        return -theta * np.asarray(x) + kappa * mu.mean()

    return CoefficientField(
        "ou", d, m, _const_sigma(s, d, m), b,
        lipschitz_bound=lambda t: abs(theta) + abs(kappa) + abs(s),
    )


def spot_check_lipschitz(coeff, samples):
    """Worst observed increment ratio against the declared bound.

    ``samples`` is an iterable of (t, x, mu, y, nu) argument pairs; the
    returned ratio should stay at or below 1 up to a small slack for an
    honestly declared K(t).
    """
    worst = 0.0
    for t, x, mu, y, nu in samples:
        num = float(
            np.linalg.norm(coeff.b(t, np.asarray(x), mu) - coeff.b(t, np.asarray(y), nu))
            + np.linalg.norm(
                coeff.sigma(t, np.asarray(x), mu) - coeff.sigma(t, np.asarray(y), nu)
            )
        )
        if num == 0.0:
            continue
        den = coeff.lipschitz_bound(t) * (
            float(np.linalg.norm(np.asarray(x) - np.asarray(y))) + wasserstein2(mu, nu)
        )
        if den == 0.0:
            return np.inf
        worst = max(worst, num / den)
    return worst


class _Grid:
    """The uniform time grid ``times`` of a flow, recorded or streamed."""

    @property
    def dt(self):
        """The grid's step; ContractError on a one-point grid, which has none."""
        if self.times.size == 1:
            raise ContractError(f"the one-point grid [{self.times[0]}] has no step")
        return float(self.times[1] - self.times[0])

    def span(self, s, t):
        """Grid indices (k0, k1) of s and t; ContractError if off-grid or t < s."""
        k0 = self.index_of(s)
        k1 = self.index_of(t)
        if k1 < k0:
            raise ContractError("need T >= s")
        return k0, k1

    def index_of(self, t):
        """Grid index of time t; ContractError if t is off-grid."""
        if self.times.size == 1:
            if abs(t - self.times[0]) > 1e-9:
                raise ContractError(f"time {t} not on the single-point grid [{self.times[0]}]")
            return 0
        k = grid_steps(t - self.times[0], self.dt)
        if k is None or k >= self.times.size:
            raise ContractError(f"time {t} not on the grid [{self.times[0]}, {self.times[-1]}] step {self.dt}")
        return k


@dataclass(frozen=True)
class ParticleFlow(_Grid):
    """Time-indexed ensemble of particle trajectories on a uniform grid.

    ``states`` has shape (L+1, N, d), ``noise`` (L, N, m): the run's read-only
    increments, shared with any flow drawn from the same block.  Re-simulating
    with the same seed reproduces both arrays bit for bit.  ``snapshots``
    holds the empirical measure of every grid point, the ones the
    simulation read.
    """

    times: np.ndarray
    states: np.ndarray
    noise: np.ndarray
    snapshots: tuple = field(repr=False, compare=False)

    def __post_init__(self):
        for name in ("times", "states", "noise"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_steps(self):
        return self.noise.shape[0]

    @property
    def n_particles(self):
        return self.states.shape[1]

    def measure_at(self, k):
        """Empirical measure of the ensemble at grid index k in [0, L] (uniform weights)."""
        last = self.states.shape[0] - 1
        if not 0 <= k <= last:
            raise ContractError(f"step index {k} outside [0, {last}]")
        return self.snapshots[k]

    def replay(self, hook, s, t):
        """Hand ``hook`` the recorded grid points from s to t as
        :func:`stream_mckean_vlasov` hands it the live ones."""
        k0, k1 = self.span(s, t)
        for k in range(k0, k1 + 1):
            dw = self.noise[k] if k < k1 else None
            hook(self.times[k], self.states[k], self.measure_at(k), dw)


def grid_steps(span, dt):
    """The number of steps of size dt > 0 that make up ``span``, or None when
    that is not a whole number (within 1e-9 of a step) of at least zero.

    The one test of whether a time lies on a grid, in the library and in the
    config checks alike.
    """
    steps = span / dt
    n = round(steps)
    if n < 0 or abs(steps - n) > 1e-9:
        return None
    return n


def _grid(s, T, dt):
    if dt <= 0:
        raise ContractError("dt must be positive")
    n = grid_steps(T - s, dt)
    if n is None:
        raise ContractError(f"horizon {T - s} is not an integer multiple of dt={dt}")
    return s + dt * np.arange(n + 1), n


def _initial_states(init, n, d, seed):
    if not isinstance(init, EmpiricalMeasure):
        raise ContractError("init must be an EmpiricalMeasure")
    if init.dim != d:
        raise ContractError(f"initial measure has dim {init.dim}, expected {d}")
    if init.n_atoms == n and init.is_uniform:
        return init.points.copy()
    g = particle_stream(seed, 0, DOMAIN_INIT)
    idx = g.choice(init.n_atoms, size=n, p=init.weights)
    return init.points[idx].copy()


def _check_finite(x, k, first=0):
    """SimulationError naming step k and the first bad particle of x, (..., N, d).

    Particle i of the last two axes is reported as ``first + i``.
    """
    # two reductions settle the common case; a NaN fails both comparisons and
    # falls through to the search for the offending particle
    if x.min() >= -BLOWUP_GUARD and x.max() <= BLOWUP_GUARD:
        return
    n, d = x.shape[-2:]
    flat = x.reshape(-1, d)
    bad = ~np.isfinite(flat).all(axis=1) | (np.abs(flat).max(axis=1) > BLOWUP_GUARD)
    if bad.any():
        i = first + int(np.argmax(bad)) % n
        raise SimulationError(
            f"particle {i} blew up at step {k} (|state| > {BLOWUP_GUARD:g} or non-finite)",
            step=k,
            particle=i,
        )


def _euler_loop(coeff, state, times, increments, dt, law, hook, states=None, first=0):
    """Euler steps of ``state`` over the grid ``times``, the body both schemes share.

    ``state`` is (N, d), or (K, N, d) for K columns of N paths that read the
    same law and the same (N, m) increments, which broadcast across the
    columns without a copy; the coefficients see the state as (K*N, d).  An
    output with a row per path is laid out on the (K, N) axes; one without
    (an x-independent b or sigma, see CoefficientField) broadcasts, so the
    diffusion increment of such a sigma is formed once per step from the
    (N, m) increments, for all K columns.  ``law(k, x)`` is the measure
    argument at step k: the ensemble's own snapshot, or a frozen flow's.
    ``hook(t_k, x_k, mu_k, dW_k)``, when given, sees each step before it is
    advanced.  Every new state is finite-checked (its paths named from
    ``first``) and read-only: a fresh array, or the view states[k] of a
    caller's (L+1, N, d) array.  Returns the last state.

    A step costs a fixed 20-25 us (coefficient calls, einsum set-up, the
    finiteness check) plus about 2.9 ns per path at 4K-16K paths in one
    column; the per-path cost rises to about 4 ns at 32K-1e5 paths, once the
    step's arrays outgrow the 2 MiB L2 cache.  A tile of K columns pays the
    diffusion once for its N paths: 8 x 2048 paths take about 45 us a step,
    16384 paths in one column 69 us (d = m = 1, brownian field,
    ``scripts/step_cost.py``, one core of a shared 2-core Xeon; host load
    moves these by about 15%).
    """
    shape = state.shape
    n_paths = state.size // shape[-1]

    def on_paths(out, core):
        # an output with a row per path takes the state's (K, N) path axes;
        # any other output broadcasts against them as it is
        out = np.asarray(out)
        if out.ndim > core and out.shape[0] == n_paths:
            return out.reshape(shape[:-1] + out.shape[1:])
        return out

    for k, dw in enumerate(increments):
        mu = law(k, state)
        if hook is not None:
            hook(times[k], state, mu, dw)
        flat = state.reshape(n_paths, shape[-1])
        drift = on_paths(coeff.b(times[k], flat, mu), 1)
        sigma = on_paths(coeff.sigma(times[k], flat, mu), 2)
        # (N, d) once for a sigma without path rows, broadcast across the K columns
        diff = np.einsum("...dm,...m->...d", sigma, dw)
        # x + b dt + diff, summed in the new state's own array (hooks may keep
        # x_k; the coefficient's outputs are never written); b dt is formed at
        # b's own shape, so a (d,) drift costs d products, not one per path
        nxt = np.empty(shape) if states is None else states[k + 1]
        np.add(state, drift * dt, out=nxt)
        nxt += diff
        nxt.flags.writeable = False
        _check_finite(nxt, k + 1, first)
        state = nxt
    return state


def _interacting(coeff, init, times, dt, seed, increments, hook, states=None):
    """The interacting scheme over ``times`` and (L, N, m) ``increments``;
    returns the terminal snapshot.

    Every particle reads the ensemble's own snapshot: a read-only view of the
    state that shares one weights array with every other snapshot.  The
    full constructor checks the initial state and builds those weights.
    """
    mu0 = EmpiricalMeasure(_initial_states(init, increments.shape[1], coeff.d, seed))
    state = mu0.points
    if states is not None:
        states[0] = mu0.points
        state = states[0]
        state.flags.writeable = False

    def law(k, x):
        return EmpiricalMeasure._snapshot(x, mu0.weights)

    terminal = _euler_loop(coeff, state, times, increments, dt, law, hook, states)
    mu_T = law(len(times) - 1, terminal)
    if hook is not None:
        hook(times[-1], terminal, mu_T, None)
    return mu_T


def _record(coeff, init, times, dt, seed, increments):
    """The interacting run over ``times`` on ``increments``, recorded as a
    ParticleFlow whose ``noise`` is ``increments`` itself, not a copy."""
    states = np.empty((len(times), increments.shape[1], coeff.d))
    snapshots = []
    _interacting(
        coeff, init, times, dt, seed, increments,
        lambda t, x, mu, dw: snapshots.append(mu), states,
    )
    return ParticleFlow(times=times, states=states, noise=increments, snapshots=tuple(snapshots))


def stream_mckean_vlasov(coeff, init, N, T, dt, seed, s=0.0, hook=None):
    """Law at T of the N-particle Euler scheme on [s, T], keeping only the current state.

    Each particle reads the drift and diffusion at the empirical measure of
    the whole ensemble, the step's snapshot.  The run's increments are
    ``brownian_increments(seed, N, L, coeff.m, dt)``, drawn before the first
    step and read-only.  ``hook(t_k, X_k, mu_k, dW_k)``, when given, sees
    every grid point from s to T: X_k is read-only, mu_k its snapshot (a view
    of X_k) and dW_k is row k of the run's read-only increments, or None at
    T.  The returned law is the snapshot at T.
    """
    N = check_count("N", N, 2)
    times, n_steps = _grid(s, T, dt)
    increments = brownian_increments(seed, N, n_steps, coeff.m, dt)
    return _interacting(coeff, init, times, dt, seed, increments, hook)


def simulate_mckean_vlasov(coeff, init, N, T, dt, seed, s=0.0):
    """The run of :func:`stream_mckean_vlasov`, recorded as a ParticleFlow.

    The flow keeps every state, the run's increments and the snapshots the
    run read, which its ``measure_at`` returns.
    """
    N = check_count("N", N, 2)
    times, n_steps = _grid(s, T, dt)
    increments = brownian_increments(seed, N, n_steps, coeff.m, dt)
    return _record(coeff, init, times, dt, seed, increments)


class StreamedFlow(_Grid):
    """The flow of ``simulate_mckean_vlasov(coeff, init, N, T, dt, seed, s)``, never recorded.

    It has the grid and the :meth:`ParticleFlow.replay` of the recorded flow,
    so a verifier that folds a flow step by step takes either; each replay
    runs :func:`stream_mckean_vlasov` again, to the same bits, and holds only
    the current state and the noise block.
    """

    def __init__(self, coeff, init, N, T, dt, seed, s=0.0):
        self.n_particles = check_count("N", N, 2)
        self.times, self.n_steps = _grid(s, T, dt)
        self._run = (coeff, init, dt, seed)

    def replay(self, hook, s, t):
        """Hand ``hook`` the grid points from s to t, simulated up to t."""
        k0, k1 = self.span(s, t)
        coeff, init, dt, seed = self._run
        seen = itertools.count()

        def from_s(t_k, X, mu, dw):
            if next(seen) >= k0:
                hook(t_k, X, mu, dw)

        stream_mckean_vlasov(
            coeff, init, self.n_particles, self.times[k1], dt, seed, s=self.times[0], hook=from_s
        )


def semigroup_apply(coeff, mu, s, t, N, dt, seed):
    """Law map mu -> law of the solution at time t started from mu at s."""
    check_count("N", N, 2)
    if t < s:
        raise ContractError("need t >= s")
    if t == s:
        return mu
    return stream_mckean_vlasov(coeff, mu, N, t, dt, seed, s=s)


def check_count(name, value, least):
    """``value`` as an int of at least ``least``; ContractError otherwise."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ContractError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ContractError(f"{name} must be at least {least}, got {count}")
    return count


def coefficients_at(coeff, t, x, mu):
    """(b, sigma) of ``coeff`` at the single point (t, x, mu), of shapes (d,) and (d, m)."""
    x = start_point(x, coeff.d)[None]
    b = np.broadcast_to(coeff.b(t, x, mu), (1, coeff.d))[0]
    sigma = np.broadcast_to(coeff.sigma(t, x, mu), (1, coeff.d, coeff.m))[0]
    return b, sigma


def start_point(x, d):
    """Deterministic start point x broadcast to shape (d,); ContractError otherwise."""
    try:
        return np.broadcast_to(np.asarray(x, dtype=float), (d,))
    except (TypeError, ValueError):
        raise ContractError(f"start point {x!r} does not broadcast to shape ({d},)") from None
