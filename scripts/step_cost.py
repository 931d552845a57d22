#!/usr/bin/env python3
"""Median cost of one Euler step and of one drawn normal, for fixed sets of cases.

The decoupled cases call ``dynamics._euler_step`` on a (K, B, d) state of K
columns of B paths against one fixed measure, as the Monte Carlo sampler
steps a flow group of one chunk (B = ``feynman_kac.CHUNK``); the interacting
case iterates ``dynamics._interacting`` on N particles, each step reading the
ensemble's own snapshot.  Increments are drawn before timing, so noise
generation is not counted.  Each case is timed REPS times over N_STEPS steps;
the median per-step cost is printed, one row per case.  A second table
prints the median nanoseconds per normal of N_STEPS steps of noise (m = 1)
in each stream domain: the rows of one Monte Carlo chunk, keyed per block of
1024 paths and drawn one at a time by ``dynamics.decoupled_rows``,
and the block of an interacting run, keyed per particle and drawn whole by
``dynamics.brownian_increments``.  A third table prints the median
milliseconds of one ``measure.wasserstein2`` call between two uniform
clouds of W2_POINTS points in d = 2: a translate, a rotation plus shift,
and two independent samples.  A fourth table prints the median
microseconds per step of the functional layer over an interacting flow of
N_STEPS steps whose grid points are collected before timing, so neither
noise nor the Euler step is counted: ``verify_path_independence`` folding
the field of a potential, and ``ito_residual_ensemble``.

    PYTHONPATH=src python scripts/step_cost.py
"""

import statistics
import time

import numpy as np

from mfsde import StreamedFlow, dirac, make_coefficients, make_cylindrical
from mfsde.dynamics import (
    DOMAIN_DECOUPLED,
    DOMAIN_INTERACTING,
    _euler_step,
    _interacting,
    brownian_increments,
    decoupled_rows,
)
from mfsde.feynman_kac import CHUNK
from mfsde.functionals import build_pair_from_V, verify_path_independence
from mfsde.generator import ito_residual_ensemble
from mfsde.measure import EmpiricalMeasure, wasserstein2

N_STEPS = 100
REPS = 7
DT = 1e-2

# (scheme, field, d, K, paths): d = m; K columns of B paths, or N particles
CASES = (
    ("decoupled", "brownian", 1, 1, CHUNK),
    ("decoupled", "brownian", 1, 15, CHUNK),
    ("decoupled", "mean_revert", 2, 8, CHUNK),
    ("interacting", "brownian", 1, 1, 2000),
)
# (domain name, domain, paths) of the noise cases
NOISE_CASES = (
    ("decoupled", DOMAIN_DECOUPLED, CHUNK),
    ("interacting", DOMAIN_INTERACTING, 2000),
)
# the second cloud of each W2 case, from the first; both have W2_POINTS points
W2_POINTS = 1024
W2_SHIFT = np.array([0.15, -0.2])
W2_ROTATION = np.array([[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]])
W2_CASES = (
    ("translate", lambda cloud, rng: cloud + W2_SHIFT),
    ("rotation", lambda cloud, rng: cloud @ W2_ROTATION.T + W2_SHIFT),
    ("independent", lambda cloud, rng: rng.standard_normal(cloud.shape)),
)
# (fold, field, N particles, V's outer, V's inner functions) of the fold cases
FOLD_CASES = (
    ("verify", "brownian", 2000, "x_norm_sq", ()),
    ("ito_residual", "mean_revert", 1000, "x_sq_plus_r1", ("quadratic",)),
)


def step_seconds(scheme, name, d, k, paths, n_steps):
    """Wall seconds per Euler step of one timed run of the case."""
    coeff = make_coefficients(name, d=d, s=1.0)  # mean_revert at its default rate 1
    rng = np.random.default_rng(0)
    increments = rng.standard_normal((n_steps, paths, coeff.m)) * np.sqrt(DT)
    increments.flags.writeable = False
    times = DT * np.arange(n_steps + 1)
    if scheme == "interacting":
        start = time.perf_counter()
        for _ in _interacting(coeff, dirac(np.zeros(d)), times, DT, 0, increments):
            pass
        return (time.perf_counter() - start) / n_steps
    mu = EmpiricalMeasure(rng.standard_normal((200, d)))
    state = np.zeros((k, paths, d))
    state.flags.writeable = False
    start = time.perf_counter()
    for j, dw in enumerate(increments):
        state = _euler_step(coeff, times[j], state, mu, dw, DT, j)
    return (time.perf_counter() - start) / n_steps


def noise_seconds(domain, paths, n_steps):
    """Wall seconds to draw (n_steps, paths, 1) increments of the domain."""
    start = time.perf_counter()
    if domain == DOMAIN_DECOUPLED:
        for _ in decoupled_rows(0, paths, n_steps, 1, DT):
            pass
    else:
        brownian_increments(0, paths, n_steps, 1, DT)
    return time.perf_counter() - start


def w2_seconds(other, points):
    """Wall seconds of one wasserstein2 call between a cloud and ``other`` of it."""
    rng = np.random.default_rng(0)
    cloud = rng.standard_normal((points, 2))
    mu, nu = EmpiricalMeasure(cloud), EmpiricalMeasure(other(cloud, rng))
    start = time.perf_counter()
    wasserstein2(mu, nu)
    return time.perf_counter() - start


class _Collected:
    """The grid points of a StreamedFlow's whole run, collected once, for
    folds over [times[0], times[-1]] that time only their own work."""

    def __init__(self, flow):
        self.dt, self.times, self.n_particles = flow.dt, flow.times, flow.n_particles
        self._points = list(flow.steps(flow.times[0], flow.times[-1]))

    def steps(self, s, t):
        return iter(self._points)


def fold_seconds(fold, name, paths, outer, inner, n_steps):
    """Wall seconds per step of one fold of the case over a collected flow."""
    coeff = make_coefficients(name, s=1.0)
    V = make_cylindrical(outer, inner)
    flow = _Collected(StreamedFlow(coeff, dirac([0.0]), paths, n_steps * DT, DT, 0))
    start = time.perf_counter()
    if fold == "verify":
        verify_path_independence(V, build_pair_from_V(coeff, V), [flow], 0.0, flow.times[-1])
    else:
        ito_residual_ensemble(coeff, V, flow)
    return (time.perf_counter() - start) / n_steps


def report(cases=CASES, n_steps=N_STEPS, reps=REPS, noise_cases=NOISE_CASES,
           w2_points=W2_POINTS):
    """Print a header and one row per Euler case, the median microseconds per
    step; then, after a blank line, a header and one row per noise case, the
    median nanoseconds per normal; then, after another, a header and one row
    per W2 case, the median milliseconds per call; then, after a third, a
    header and one row per fold case, the median microseconds per step."""
    print(f"{'scheme':<12} {'field':<12} {'d':>2} {'m':>2} {'K':>2} {'paths':>6} {'us_per_step':>12}")
    for scheme, name, d, k, paths in cases:
        runs = [step_seconds(scheme, name, d, k, paths, n_steps) for _ in range(reps)]
        us = 1e6 * statistics.median(runs)
        print(f"{scheme:<12} {name:<12} {d:>2} {d:>2} {k:>2} {paths:>6} {us:>12.1f}")
    print()
    print(f"{'domain':<12} {'paths':>6} {'steps':>6} {'ns_per_normal':>14}")
    for name, domain, paths in noise_cases:
        runs = [noise_seconds(domain, paths, n_steps) for _ in range(reps)]
        ns = 1e9 * statistics.median(runs) / (paths * n_steps)
        print(f"{name:<12} {paths:>6} {n_steps:>6} {ns:>14.1f}")
    print()
    print(f"{'w2_case':<12} {'points':>6} {'d':>2} {'ms_per_call':>12}")
    for name, other in W2_CASES:
        ms = 1e3 * statistics.median(w2_seconds(other, w2_points) for _ in range(reps))
        print(f"{name:<12} {w2_points:>6} {2:>2} {ms:>12.3f}")
    print()
    print(f"{'fold':<12} {'field':<12} {'V':<24} {'paths':>6} {'us_per_step':>12}")
    for fold, name, paths, outer, inner in FOLD_CASES:
        runs = [fold_seconds(fold, name, paths, outer, inner, n_steps) for _ in range(reps)]
        us = 1e6 * statistics.median(runs)
        v_name = outer + "".join(f"[{h}]" for h in inner)
        print(f"{fold:<12} {name:<12} {v_name:<24} {paths:>6} {us:>12.1f}")


if __name__ == "__main__":
    report()
