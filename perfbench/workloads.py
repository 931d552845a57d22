"""Workload definitions: fixed op lists with their expected outcomes.

An op is one scenario config run through ``mfsde.cli.run_scenario`` (or, for
the W2 translate, one call to ``mfsde.measure.wasserstein2``).  Configs start
from the shipped CLI presets and override only the keys named here, so the
benchmark follows the presets' models, probes and step sizes.

This module imports neither numpy nor mfsde: the parent process reads the
op lists from it without paying the package import.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Sample counts are scaled down from the presets' M = 1e5 so that one
# cold-start rep takes a few seconds.  Noise generation and the decoupled
# Euler step are both linear in M, so the per-layer mix of each workload is
# that of the preset; the frozen-flow and stencil counts do not depend on M.
M_FRESH_NOISE = 5_000
M_CRN_STENCIL = 20_000

# The genuine and falsified ladders are extended from the presets' two levels
# to four (1500 steps per ladder), so the generator/accumulate loop dominates.
LADDER = "1e-2, 5e-3, 2.5e-3, 1.25e-3"

# Op seeds are the preset seed plus SEED_STRIDE times a seed offset picked by
# the workload seed (see op_seed_offset).
SEED_STRIDE = 1000

# Offsets k under which every statistical (3-sigma) verdict of every op
# passes at the sizes above, from ``scan_offsets.py --first 0 --count 30``
# (5, 13 and 29 each fail one or two Monte Carlo verdicts).  Such a failure
# is deterministic and would count the same on both sides of a comparison,
# but the benchmark keeps to offsets on which no op fails.  Offset 0
# reproduces the preset seeds.
SEED_OFFSETS = tuple(k for k in range(30) if k not in (5, 13, 29))

W2_POINTS = 1024
W2_DIM = 2
# The seed picks the cloud and the direction of the translate; its length is
# fixed because the assignment solver's time grows with it (0.3 s at 0.25,
# 0.7-1.4 s for shifts of length up to 2.8).
W2_SHIFT = 0.25
W2_TOL = 1e-12
W2_BASE_SEED = 41

# Acceptance criteria 5 and 6 gate the heat and log-gauss presets at 30 s.
GATE_SECONDS = 30.0
GATE_PRESET_M = 100_000


@dataclass(frozen=True)
class Op:
    """One benchmark operation and the outcome it must produce."""

    name: str
    preset: str | None  # None for the W2 translate op
    overrides: dict = field(default_factory=dict)
    expect_exit: int = 0
    # with expect_exit == 1: the verdict anchor whose lines must all FAIL
    expect_fail_anchor: str | None = None


WORKLOADS = {
    # Each probe gets its own seed, so every call generates fresh noise:
    # stream construction dominates, generator and functionals barely run.
    "fk_fresh_noise": (
        Op("fk_heat", "feynman-kac-heat", {"M": M_FRESH_NOISE}),
        Op("fk_log_gauss", "feynman-kac-log-gauss", {"M": M_FRESH_NOISE}),
        Op("girsanov", "girsanov-risk-neutral", {"M": M_FRESH_NOISE}),
    ),
    # One seed for 6 probes x 7 CRN columns: the streams are built once and
    # re-requested 41 more times, and 42 frozen flows are rebuilt.
    "fk_crn_stencil": (
        Op("pde_residual", "pde-residual-nonlinear", {"M": M_CRN_STENCIL}),
    ),
    # The interacting-particle side: generator parts, accumulation, the
    # interacting Euler step and W2 dominate; noise is a small share.
    "interacting_verify": (
        Op("pi_forward", "path-independence-forward", {"dt_ladder": LADDER}),
        Op("pi_falsified", "path-independence-falsified", {"dt_ladder": LADDER},
           expect_exit=1, expect_fail_anchor="Eq-ATT0"),
        Op("ito_meanfield", "ito-residual-meanfield"),
        Op("flow_ou", "flow-property-ou"),
        Op("w2_translate", None),
    ),
}

# ops whose wall time is checked against the 30 s acceptance gate
GATE_OPS = {"fk_heat", "fk_log_gauss"}


def op_seed_offset(workload_seed):
    """Seed offset (added as SEED_STRIDE * k to preset seeds) for a workload seed."""
    return SEED_STRIDE * SEED_OFFSETS[workload_seed % len(SEED_OFFSETS)]


def config_text(preset_text, overrides, offset):
    """Preset config with keys replaced and the seed shifted by ``offset``."""
    lines, seen = [], set()
    for raw in preset_text.strip().splitlines():
        key, _, value = (part.strip() for part in raw.partition("="))
        if key == "seed":
            value = str(int(value) + offset)
        elif key in overrides:
            value = str(overrides[key])
        seen.add(key)
        lines.append(f"{key} = {value}")
    lines += [f"{k} = {v}" for k, v in overrides.items() if k not in seen]
    return "\n".join(lines) + "\n"


def _levels(values):
    return [(values["T"] - values.get("s", 0.0)) / dt for dt in
            values.get("dt_ladder", (values.get("dt"),))]


def _steps(span, dt):
    return int(round(span / dt))


def particle_steps(values):
    """Interacting plus decoupled particle-steps an op performs, from its config.

    Mirrors how each scenario spends steps: Feynman-Kac probes run a frozen
    flow of n_flow particles and M decoupled paths from t to T; the nonlinear
    PDE residual does so once per stencil column (centre, two time shifts,
    four space shifts per dimension; the Brownian preset has no measure
    columns).
    """
    scenario = values["scenario"]
    T, dt = values.get("T"), values.get("dt")
    if scenario in ("feynman_kac_linear", "feynman_kac_source", "feynman_kac_log"):
        per_path = values["M"] + values.get("n_flow", 200)
        n_x = len(values["probes.x"])
        return per_path * n_x * sum(_steps(T - t, dt) for t in values["probes.t"])
    if scenario == "pde_residual":
        per_path = values["M"] + values.get("n_flow", 200)
        h_t = max(dt, round(1e-2 * T / dt) * dt)
        d = values.get("d", 1)
        total = 0
        for t in values["probes.t"]:
            cols = [t, t + h_t, t + 2 * h_t] + [t] * (4 * d)
            total += sum(_steps(T - min(c, T), dt) for c in cols)
        return per_path * total * len(values["probes.x"])
    if scenario == "girsanov":
        return values["M"] * _steps(T - values.get("s", 0.0), dt)
    if scenario in ("path_independence", "ito_residual"):
        return values["N"] * sum(int(round(n)) for n in _levels(values))
    if scenario == "flow_property":
        t0, t1, t2 = values["times"]
        return values["N"] * (_steps(t1 - t0, dt) + _steps(t2 - t1, dt) + _steps(t2 - t0, dt))
    raise ValueError(f"no step count for scenario {scenario!r}")


def time_steps(values):
    """Euler time steps of a path-independence ladder (sum over its levels)."""
    return sum(int(round(n)) for n in _levels(values))
