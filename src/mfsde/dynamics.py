"""Coefficient fields and particle schemes for the mean-field SDE.

The law of the solution is approximated by the empirical measure of N
interacting particles advanced with explicit Euler steps.  Brownian
increments come from counter-based Philox streams keyed by (seed, domain,
index), so a rerun with the same seed is bit-identical regardless of how the
work is scheduled.  Interacting particles and initial draws have one stream
per particle.  Decoupled Monte Carlo paths share one key per block of
NOISE_BLOCK paths, and step k of a block is the stream of that key with its
counter at [0, k, 0, 0], so a long noise array costs one re-key per block
row rather than one per path (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11).  A counter-based stream is fixed by its (key,
counter) pair alone, so one Philox generator serves a whole noise array: it
is re-keyed, with its counter reset, before each stream's draws.  A path's
noise does not depend on which call draws it, so the Monte Carlo sampler
draws its decoupled paths in chunks (``first=a``), one step at a time
(``decoupled_rows``), and gets the bits of one whole block; an interacting
run draws its whole block at once (``brownian_increments``).  Noise moves
only as such read-only increments; ``_euler_step`` advances an (N, d) or
(K, N, d) state by one of them, and gives its cost.

No interacting run is recorded: a run is a generator of its grid points,
``StreamedFlow.steps(s, t)`` runs it again on every call, and the frozen
law curve of decoupled paths is the tuple of a run's snapshots.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, SimulationError, check_params
from .measure import EmpiricalMeasure, wasserstein2

BLOWUP_GUARD = 1e8

# stream domains keep noise sources disjoint by construction
DOMAIN_INTERACTING = 0
DOMAIN_DECOUPLED = 1
DOMAIN_INIT = 2
DOMAIN_MEASURE_SHIFT = 3


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
#: decoupled paths that share one Philox key per step (see _raw_normals): a
#: part of the realisation, unlike the sizes of the chunks that draw them
NOISE_BLOCK = 1024


def _raw_normals(seed, n_particles, n_steps, m):
    """Fresh standard normals of the interacting particles 0 .. n_particles - 1,
    shape (n_steps, n_particles, m): ``raw[:, i]`` is the stream of particle
    i.  A longer block's step prefix equals a shorter one, so callers that
    reuse noise on purpose draw the longest block once and slice it.
    """
    (word0, word1), bits, gen, state = _philox(seed, n_particles, n_steps, m,
                                               DOMAIN_INTERACTING, 0)
    raw = np.empty((n_steps, n_particles, m))
    # per-particle streams: each is drawn contiguously into a small tile,
    # which is written into the step-major block once (a tile of _DRAW_TILE
    # particles stays in cache; a strided write per particle does not)
    tile = np.empty((min(_DRAW_TILE, n_particles), n_steps, m))
    for a in range(0, n_particles, _DRAW_TILE):
        part = tile[: min(_DRAW_TILE, n_particles - a)]
        for j, stream in enumerate(part):
            state["state"]["key"] = [word0, word1 + a + j]
            bits.state = state
            gen.standard_normal(out=stream)
        raw[:, a : a + len(part)] = part.transpose(1, 0, 2)
    return raw


def _philox(seed, n_particles, n_steps, m, domain, first):
    """(key words of particle ``first``, bit generator, generator, state) of
    a draw of particles [first, first + n_particles), once its counts and
    the keys of its first and last particles check out.

    One Philox serves every stream of the draw: re-keying it with the
    counter and output buffer reset gives exactly the draws of a generator
    built on that (key, counter), at a fraction of the cost of constructing
    one (which also reads OS entropy) per stream.
    """
    # the first key stands for (seed, domain) and validates both; the last
    # keeps the particle or block index from carrying into the domain bits
    words = _stream_key(seed, first, domain)
    n_particles = check_count("n_particles", n_particles, 1)
    check_count("n_steps", n_steps, 0)
    check_count("m", m, 1)
    _stream_key(seed, first + n_particles - 1, domain)
    bits = np.random.Philox()
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return words, bits, np.random.Generator(bits), state


def decoupled_rows(seed, n_particles, n_steps, m, dt, first=0):
    """Row k = 0 .. n_steps - 1 of the DOMAIN_DECOUPLED increments of
    particles [first, first + n_particles), drawn when it is asked for: a
    fresh read-only (n_particles, m) array, sqrt(dt) times the normals.

    Row k of block j (particles [NOISE_BLOCK j, NOISE_BLOCK (j + 1))) is the
    stream keyed by block j, its counter at [0, k, 0, 0], so a caller that
    steps its paths row by row never holds the (n_steps, n_particles, m)
    block, and the rows of particles [a, b) are those columns of the rows
    drawn from particle 0, whatever chunk draws them.  A draw that starts
    inside a block discards the row's draws of the particles before it.
    """
    if not dt > 0:
        raise ContractError(f"dt must be positive, got {dt!r}")
    (word0, _), bits, gen, state = _philox(seed, n_particles, n_steps, m, DOMAIN_DECOUPLED, first)
    end = first + n_particles
    blocks = [(j, max(first, NOISE_BLOCK * j), min(end, NOISE_BLOCK * (j + 1)))
              for j in range(first // NOISE_BLOCK, (end - 1) // NOISE_BLOCK + 1)]
    for k in range(n_steps):
        row = np.empty((n_particles, m))
        state["state"]["counter"] = [0, k, 0, 0]
        for j, lo, hi in blocks:
            state["state"]["key"] = [word0, (DOMAIN_DECOUPLED << 48) + j]
            bits.state = state
            if lo > NOISE_BLOCK * j:
                gen.standard_normal((lo - NOISE_BLOCK * j, m))
            gen.standard_normal(out=row[lo - first : hi - first])
        row *= np.sqrt(dt)
        row.flags.writeable = False
        yield row


def brownian_increments(seed, n_particles, n_steps, m, dt):
    """Read-only increments sqrt(dt) * normals of an interacting ensemble,
    shape (n_steps, n_particles, m): the one place a block of noise is drawn,
    with the prefix rule of _raw_normals."""
    if not dt > 0:
        raise ContractError(f"dt must be positive, got {dt!r}")
    noise = _raw_normals(seed, n_particles, n_steps, m)
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


def grid_steps(span, dt):
    """The number of steps of size dt > 0 that make up ``span``, or None when
    that is not a whole number (within 1e-9 of a step) of at least zero, or
    not a finite one.

    The one test of whether a time lies on a grid, in the library and in the
    config checks alike.
    """
    # Python floats: a count past the largest float is inf, not a warning
    steps = float(span) / float(dt)
    if not np.isfinite(steps):
        return None
    n = round(steps)
    if n < 0 or abs(steps - n) > 1e-9:
        return None
    return n


def _grid(s, T, dt):
    """(times, steps) of the grid of step dt from s to T; ContractError
    unless dt > 0 and T - s >= 0 is a whole number of steps."""
    if dt <= 0:
        raise ContractError("dt must be positive")
    if T < s:
        raise ContractError(f"need T >= t, got t = {s} and T = {T}")
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
    # one BLAS pass settles the common case, as a sum of squares within
    # (GUARD / 2)^2 bounds every entry; vdot reads no floating-point flags, so
    # a square past the largest float, a NaN or an inf falls through quietly
    if np.vdot(x, x) <= (BLOWUP_GUARD / 2) ** 2:
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


def on_paths(out, core, x):
    """A coefficient's output with ``core`` trailing axes, laid out on the
    path axes of the state x ((N, d) or (K, N, d)) when it has a row per
    path; any other output broadcasts against them as it is."""
    out = np.asarray(out)
    if out.ndim > core and out.shape[0] * x.shape[-1] == x.size:
        return out.reshape(x.shape[:-1] + out.shape[1:])
    return out


def _euler_step(coeff, t, x, mu, dw, dt, k, first=0):
    """The Euler step x + b dt + sigma dW of the state x at time t and law
    mu: a fresh read-only array, finite-checked as step k + 1 with its paths
    named from ``first``.  x is (N, d), or (K, N, d) for K columns of N paths
    that read the same law and the same (N, m) increments dw, which broadcast
    across the columns without a copy, so the diffusion increment of an
    x-independent sigma is formed once for all K (see on_paths).

    A step costs a fixed 20-25 us (coefficient calls, einsum set-up, the
    finiteness check) plus about 0.8-1.2 ns per path of a (K, 5120, 1)
    brownian state, K = 1 to 15, and 16-20 ns per path at d = m = 2 under
    mean_revert (``scripts/step_cost.py``, one thread on a shared 2-core
    Xeon; host load moves these by 15-30%).
    """
    flat = x.reshape(-1, x.shape[-1])
    drift = on_paths(coeff.b(t, flat, mu), 1, x)
    sigma = on_paths(coeff.sigma(t, flat, mu), 2, x)
    # (N, d) once for a sigma without path rows, broadcast across the K columns
    diff = np.einsum("...dm,...m->...d", sigma, dw)
    # x + b dt + diff, summed in the new state's own array (a caller may keep
    # x; the coefficient's outputs are never written); b dt is formed at b's
    # own shape, so a (d,) drift costs d products, not one per path
    nxt = np.empty(x.shape)
    np.add(x, drift * dt, out=nxt)
    nxt += diff
    nxt.flags.writeable = False
    _check_finite(nxt, k + 1, first)
    return nxt


def _euler_steps(coeff, state, times, increments, dt, weights):
    """Euler steps of the (N, d) ``state`` over the grid ``times``, one
    _euler_step each, every particle reading the ensemble's own snapshot: a
    read-only view of the state with the shared array ``weights``.

    Yields (t_k, x_k, mu_k, dW_k) at each grid point before advancing it,
    and (t_L, x_L, mu_L, None) at the last.  Every state is read-only, so a
    caller may keep it.
    """
    for k, dw in enumerate(increments):
        mu = EmpiricalMeasure._snapshot(state, weights)
        yield times[k], state, mu, dw
        state = _euler_step(coeff, times[k], state, mu, dw, dt, k)
    yield times[len(increments)], state, EmpiricalMeasure._snapshot(state, weights), None


def _interacting(coeff, init, times, dt, seed, increments):
    """The interacting scheme over ``times`` and (L, N, m) ``increments``:
    the generator of its grid points (see _euler_steps).  The full
    constructor checks the initial state and builds the snapshots' weights.
    """
    mu0 = EmpiricalMeasure(_initial_states(init, increments.shape[1], coeff.d, seed))
    return _euler_steps(coeff, mu0.points, times, increments, dt, mu0.weights)


def _law_curve(coeff, init, times, dt, seed, increments):
    """The snapshots of the interacting run over ``times`` on ``increments``,
    one per grid point: the frozen law curve a decoupled path reads."""
    return tuple(mu for _, _, mu, _ in _interacting(coeff, init, times, dt, seed, increments))


class StreamedFlow:
    """The N-particle Euler scheme on its uniform grid ``times`` from s to T.

    Each particle reads the drift and diffusion at the empirical measure of
    the whole ensemble, the step's snapshot.  The run's increments are
    ``brownian_increments(seed, N, L, coeff.m, dt)``, drawn before the first
    step and read-only.  The flow holds its arguments, not its states: each
    call of :meth:`steps` runs the scheme again, to the same bits, and holds
    only the current state and the noise block, so a verifier folds a flow
    in one pass over its steps.  ``dt`` is the step the flow was built with,
    which its Euler steps and every functional folded along it read.
    """

    def __init__(self, coeff, init, N, T, dt, seed, s=0.0):
        self.n_particles = check_count("N", N, 2)
        self.times, self.n_steps = _grid(s, T, dt)
        self.dt = dt
        self._run = (coeff, init, seed)

    def span(self, s, t):
        """Grid indices (k0, k1) of s and t; ContractError if either is off
        the grid or t < s."""
        k0, k1 = (grid_steps(u - self.times[0], self.dt) for u in (s, t))
        if k0 is None or k1 is None or k1 >= self.times.size:
            raise ContractError(f"[{s}, {t}] is off the grid of step {self.dt} from "
                                f"{self.times[0]} to {self.times[-1]}")
        if k1 < k0:
            raise ContractError(f"need t >= s, got [{s}, {t}]")
        return k0, k1

    def steps(self, s, t):
        """The grid points (t_k, X_k, mu_k, dW_k) from s to t, an iterator.

        X_k is read-only, mu_k its snapshot (a view of X_k) and dW_k row k
        of the run's read-only increments, or None at t.  The run is
        simulated from the flow's start up to t, so a window [s, t] gets the
        bits of that stretch of the whole run.  The window, the noise block
        and the initial state are checked at the call, not on iteration.
        """
        k0, k1 = self.span(s, t)
        coeff, init, seed = self._run
        increments = brownian_increments(seed, self.n_particles, k1, coeff.m, self.dt)
        run = _interacting(coeff, init, self.times[: k1 + 1], self.dt, seed, increments)
        return itertools.islice(run, k0, None)


def semigroup_apply(coeff, mu, s, t, N, dt, seed):
    """Law map mu -> law of the solution at time t started from mu at s: the
    snapshot at t of the :class:`StreamedFlow` of N particles from mu."""
    check_count("N", N, 2)
    if t < s:
        raise ContractError("need t >= s")
    if t == s:
        return mu
    [(_, _, law, _)] = StreamedFlow(coeff, mu, N, t, dt, seed, s).steps(t, t)
    return law


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
