#!/usr/bin/env python3
"""Median cost of one Euler step, in microseconds, for a fixed set of cases.

The decoupled cases iterate ``dynamics._euler_steps`` over a (K, B, d) state
of K columns of B paths against one fixed measure, as a Monte Carlo tile
does; the interacting case iterates ``dynamics._interacting`` on N
particles, each step reading the ensemble's own snapshot.  Increments are
drawn before timing, so noise generation is not counted.  Each case is timed
REPS times over N_STEPS steps; the median per-step cost is printed, one row
per case.

    PYTHONPATH=src python scripts/step_cost.py
"""

import statistics
import time

import numpy as np

from mfsde import dirac, make_coefficients
from mfsde.dynamics import _euler_steps, _interacting
from mfsde.measure import EmpiricalMeasure

N_STEPS = 100
REPS = 7
DT = 1e-2

# (scheme, field, d, K, paths): d = m; K columns of B paths, or N particles
CASES = (
    ("decoupled", "brownian", 1, 1, 4096),
    ("decoupled", "brownian", 1, 8, 2048),
    ("decoupled", "brownian", 1, 1, 16384),
    ("decoupled", "mean_revert", 2, 8, 2048),
    ("interacting", "brownian", 1, 1, 2000),
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
    for _ in _euler_steps(coeff, state, times, increments, DT, lambda j, x: mu):
        pass
    return (time.perf_counter() - start) / n_steps


def report(cases=CASES, n_steps=N_STEPS, reps=REPS):
    """Print the header and one row per case: the median microseconds per step."""
    print(f"{'scheme':<12} {'field':<12} {'d':>2} {'m':>2} {'K':>2} {'paths':>6} {'us_per_step':>12}")
    for scheme, name, d, k, paths in cases:
        runs = [step_seconds(scheme, name, d, k, paths, n_steps) for _ in range(reps)]
        us = 1e6 * statistics.median(runs)
        print(f"{scheme:<12} {name:<12} {d:>2} {d:>2} {k:>2} {paths:>6} {us:>12.1f}")


if __name__ == "__main__":
    report()
