"""Config-driven scenario runner producing CSV artifacts and verdict summaries.

A scenario is described by a flat key=value config (dotted keys address
sub-objects, e.g. ``coeff.id`` or ``V.outer``).  ``_SCHEMA`` gives every key
its type, choices and least value; ``_SCENARIOS`` gives every scenario its
runner, the keys it reads with their defaults and the key that counts the
ensemble it steps, which drive the config checks: a key the scenario does
not read is rejected, so every key a config sets changes its run.  A runner
computes and returns its checks and its table; ``run_scenario`` alone writes
them, the table as a CSV and the checks as ``summary.txt`` with one verdict
per line,

    <anchor> <scenario> <metric>=<value> <verdict>

where the anchor is the identifier of the analytic statement the check
targets.  Exit status is 0 iff every verdict is PASS.  Identical config and
seed give byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter

import numpy as np

from .calculus import (
    INNER_NAMES,
    OUTER_NAMES,
    OUTER_PARAMS,
    l_derivative_fd_oracle,
    l_derivative_pairing,
    make_cylindrical,
)
from .dynamics import (
    BLOWUP_GUARD,
    COEFFICIENT_NAMES,
    COEFFICIENT_PARAMS,
    StreamedFlow,
    grid_steps,
    make_coefficients,
    semigroup_apply,
)
from .errors import ConfigError, ContractError, EvaluationError
from .feynman_kac import McValueFunction, npy_identity_gap, pde_residual_mc
from .functionals import (
    build_pair_from_V,
    girsanov_replay,
    verify_path_independence,
)
from .generator import ito_residual_ensemble
from .measure import (
    MAX_BRUTEFORCE_ATOMS,
    EmpiricalMeasure,
    dirac,
    wasserstein2,
    wasserstein2_bruteforce,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated flat configuration for one scenario run, with the objects
    parse_config built from it: the coefficient field, the potential V, the
    terminal datum Phi and the initial law, each None where the scenario
    reads none."""

    scenario: str
    seed: int
    values: dict = field(default_factory=dict)
    coeff: object = None
    V: object = None
    Phi: object = None
    init: object = None

    def get(self, key, default=None):
        return self.values.get(key, default)

    @property
    def dt_levels(self):
        """Planned step sizes: the ladder when given, else the single dt."""
        if "dt_ladder" in self.values:
            return self.values["dt_ladder"]
        return (self.values["dt"],)


def _flag(ok):
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# scenario runners: each takes cfg and returns (checks, table), a check being
# (anchor, metric, value, ok) and the table (file name, header, rows)


def _params(values, head):
    """Values of the keys that start with ``head``, keyed by the rest."""
    return {k[len(head):]: v for k, v in values.items() if k.startswith(head)}


def _const_field(value, *shape):
    """Batched field equal to ``value`` everywhere, of shape (B, *shape)."""

    def const(t, X, mu):
        return np.full((np.asarray(X).shape[0], *shape), float(value))

    return const


def _linear_spec(d):
    """The linear inner function of the catalogs below: a = (1, 0.5, ..., 0.5) in R^d."""
    return ("linear", {"a": [1.0] + [0.5] * (d - 1)})


def _lderivative_catalog(d):
    lin = _linear_spec(d)
    quad = ("quadratic", {})
    bump = ("bump", {})
    return [
        ("mean", [lin]),
        ("square", [quad]),
        ("sum", [quad, bump]),
        ("product", [lin, bump]),
        ("exp", [bump]),
        ("log", [bump]),
    ]


def _run_lderivative_check(cfg):
    d, n_atoms, n_probes = cfg.get("d"), cfg.get("n_atoms"), cfg.get("n_probes")
    tol = cfg.get("tol")
    eps_ladder = tuple(sorted(cfg.get("eps_ladder"), reverse=True))
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = {eps: 0.0 for eps in eps_ladder}
    for outer, inner in _lderivative_catalog(d):
        f = make_cylindrical(outer, inner)
        for probe in range(n_probes):
            t = float(rng.uniform(0.0, 1.0))
            x = rng.standard_normal(d)
            mu = EmpiricalMeasure(rng.standard_normal((n_atoms, d)))
            A = 0.3 * rng.standard_normal((d, d))
            c = 0.3 * rng.standard_normal(d)

            def phi(y, A=A, c=c):
                return np.asarray(y) @ A.T + c

            exact = l_derivative_pairing(f, t, x, mu, phi)
            for eps in eps_ladder:
                fd = l_derivative_fd_oracle(f, t, x, mu, phi, eps)
                gap = abs(fd - exact)
                worst[eps] = max(worst[eps], gap)
                rows.append([outer, probe, eps, gap])
    gaps = [worst[eps] for eps in eps_ladder]
    rates = [g / eps for g, eps in zip(gaps, eps_ladder)]
    linear = max(rates) <= 3.0 * min(rates) if min(rates) > 0 else False
    spread = max(rates) / min(rates) if min(rates) > 0 else float("inf")
    checks = [
        ("Example-2.1", "max_gap", gaps[-1], gaps[-1] <= tol),
        ("Example-2.1", "decay_rate_spread", spread, linear),
    ]
    return checks, ("lderivative_check.csv", ["function", "probe", "eps", "gap"], rows)


def _run_ito_residual(cfg):
    N, T, dt = cfg.get("N"), cfg.get("T"), cfg.get("dt")
    flow = StreamedFlow(cfg.coeff, cfg.init, N, T, dt, cfg.seed, s=cfg.get("s"))
    summary = ito_residual_ensemble(cfg.coeff, cfg.V, flow)
    # the ensemble-mean residual is a sum of per-step increments driven by
    # noise common to all particles (through the empirical measure), so its
    # standard error comes from the realized quadratic variation of those
    # increments, not from the cross-particle spread
    step_means = summary.step_mean
    mean = float(step_means.sum())
    se = float(np.sqrt((step_means**2).sum()))
    qv_real = float(summary.qv_sum.mean())
    qv_pred = sum(float(q) * dt for q in summary.qv_density)
    qv_ratio = qv_real / qv_pred if qv_pred > 0 else float("inf")
    step_rows = [
        [k, flow.times[k], step_means[k], summary.step_rms[k]] for k in range(flow.n_steps)
    ]
    checks = [
        ("Lemma-3.1", "mean_residual", mean, abs(mean) <= 3 * se),
        ("Eq-rpp", "qv_ratio", qv_ratio, abs(qv_ratio - 1) <= 0.1),
    ]
    header = ["step", "time", "mean_residual", "rms_residual"]
    return checks, ("ito_residual.csv", header, step_rows)


def _run_path_independence(cfg):
    N, T, s = cfg.get("N"), cfg.get("T"), cfg.get("s")
    field = build_pair_from_V(cfg.coeff, cfg.V)
    offset = cfg.get("perturb_g")
    if offset:
        base = field

        def field(t, X, mu, base=base, offset=offset):
            f, g = base(t, X, mu)
            return f, g + offset

    # coarsest level first, each streamed while the verifier folds it and
    # never recorded; every level starts from the one initial law and keeps
    # the seed of its place in the configured ladder
    flows = (
        StreamedFlow(cfg.coeff, cfg.init, N, T, dt, cfg.seed + level, s=s)
        for level, dt in sorted(enumerate(cfg.dt_levels), key=lambda item: -item[1])
    )
    report = verify_path_independence(cfg.V, field, flows, s, T)
    first, last = report.rows[0].rms_defect, report.rows[-1].rms_defect
    ratio = first / last if len(report.rows) > 1 and last > 0 else 1.0
    ok = report.verdict == "PASS"
    checks = [("Eq-ATT0", "rms_ratio", ratio, ok),
              ("Eq-ATT0", "defect_floor", report.defect_floor, ok)]
    return checks, ("path_independence.csv", *report.to_rows())


def _run_flow_property(cfg):
    coeff, mu0 = cfg.coeff, cfg.init
    N, dt, tol = cfg.get("N"), cfg.get("dt"), cfg.get("tol")
    t0, t1, t2 = cfg.get("times")
    mu_mid = semigroup_apply(coeff, mu0, t0, t1, N, dt, cfg.seed + 1)
    mu_two_step = semigroup_apply(coeff, mu_mid, t1, t2, N, dt, cfg.seed + 2)
    mu_direct = semigroup_apply(coeff, mu0, t0, t2, N, dt, cfg.seed + 3)
    gap = wasserstein2(mu_two_step, mu_direct)
    rows = [
        ["initial", t0, mu0.mean()[0], mu0.second_moment()],
        ["two_step", t2, mu_two_step.mean()[0], mu_two_step.second_moment()],
        ["direct", t2, mu_direct.mean()[0], mu_direct.second_moment()],
        ["w2_gap", t2, gap, ""],
    ]
    header = ["measure", "time", "mean", "second_moment"]
    return [("Eq-SM", "w2_gap", gap, gap <= tol)], ("flow_property.csv", header, rows)


def _run_girsanov(cfg):
    m, M, T, dt, s = cfg.coeff.m, cfg.get("M"), cfg.get("T"), cfg.get("dt"), cfg.get("s")
    beta, g_value = cfg.get("beta"), cfg.get("g.value")
    g = _const_field(g_value, m)
    flow = StreamedFlow(cfg.coeff, cfg.init, M, T, dt, cfg.seed, s=s)
    weights, nov, dx = girsanov_replay(g, flow, beta, s, T)
    reweighted = weights * dx[:, 0]
    mean_err = abs(float(weights.mean()) - 1.0)
    se_w = float(weights.std(ddof=1) / np.sqrt(M))
    drift_q = float(reweighted.mean())
    se_q = float(reweighted.std(ddof=1) / np.sqrt(M))
    nov_expected = float(np.exp(0.5 * m * g_value**2 * (T - s)))
    nov_gap = abs(nov.estimate - nov_expected)
    rows = [
        ["weight_mean_err", mean_err, 3 * se_w],
        ["riskneutral_drift", drift_q, 3 * se_q],
        ["novikov_estimate", nov.estimate, nov_expected],
        ["tail_flag", nov.tail_flag, "clear"],
    ]
    checks = [
        ("Eq-YPP1", "weight_mean_err", mean_err, mean_err <= 3 * se_w),
        ("Eq-APPg3", "riskneutral_drift", abs(drift_q), abs(drift_q) <= 3 * se_q),
        ("Eq-Agg2", "novikov_gap", nov_gap, nov_gap <= 1e-10),
    ]
    return checks, ("girsanov.csv", ["metric", "value", "reference"], rows)


#: the closed form of each (scenario, coefficient field, terminal datum) that
#: has one; a constant running cost has one, -f tau, on every field
_CLOSED_FORMS = {
    ("feynman_kac_linear", "brownian", "x_norm_sq"): "heat",
    ("feynman_kac_log", "brownian", "gauss_quarter"): "gauss",
}


def _closed_form(cfg, t, x):
    """The value at (t, x) of the closed form of the config's model, or None
    where it has none."""
    tau = cfg.get("T") - t
    if cfg.scenario == "feynman_kac_source":
        return -cfg.get("f.value") * tau
    kind = _CLOSED_FORMS.get((cfg.scenario, cfg.get("coeff.id"), cfg.get("Phi.outer")))
    if kind is None:
        return None
    # under sigma = s I, (d, m), X_T - x has independent coordinates of
    # variance s^2 tau, or 0 where sigma has no noise column
    s = cfg.get("coeff.s", COEFFICIENT_PARAMS["brownian"]["s"])
    var = np.where(np.arange(cfg.get("d")) < cfg.get("m"), s**2 * tau, 0.0)
    if kind == "heat":
        return float(np.sum(x**2) + np.sum(var))
    dens = np.prod((1.0 + var / 2.0) ** -0.5 * np.exp(-(x**2) / (4.0 + 2.0 * var)))
    return float(-cfg.get("beta") * np.log(dens))


def _value_function(cfg, f_field=None):
    """The config's Monte Carlo value function: its coefficients, Phi, T, dt,
    M, seed, beta (the log transform when set) and n_flow, over its initial
    law."""
    return McValueFunction(
        cfg.coeff, cfg.Phi, f_field, cfg.get("T"), cfg.get("dt"), cfg.get("M"), cfg.seed,
        cfg.init, cfg.get("beta"), cfg.get("n_flow"))


def _run_feynman_kac(cfg):
    d = cfg.get("d")
    f_field = _const_field(cfg.get("f.value")) if cfg.scenario == "feynman_kac_source" else None
    vf = _value_function(cfg, f_field)
    anchor = {
        "feynman_kac_linear": "Lemma-3.3", "feynman_kac_source": "Lemma-3.4",
        "feynman_kac_log": "Eq-TTY0",
    }[cfg.scenario]
    rows, checks = [], []
    probes = [(t, x_val, np.full(d, x_val))
              for t, x_val in product(cfg.get("probes.t"), cfg.get("probes.x"))]
    # the probes are the columns of one table, on common noise; each one's
    # 3-sigma gate reads its own column alone, so it stays valid
    sols = vf.solve_all([(t, x) for t, _, x in probes])
    for (t, x_val, x), sol in zip(probes, sols):
        expected = _closed_form(cfg, t, x)
        err = abs(sol.value - expected) if expected is not None else 0.0
        # roundoff floor keeps deterministic cases (zero SE) honest
        ok = expected is None or err <= 3 * sol.std_error + 1e-12 * (1.0 + abs(expected))
        label = f"err_t{t:g}_x{x_val:g}"
        checks.append((anchor, label, err, ok))
        rows.append([t, x_val, sol.value, sol.std_error, expected, err, _flag(ok)])
    header = ["t", "x", "value", "std_error", "closed_form", "abs_err", "verdict"]
    return checks, (f"{cfg.scenario}.csv", header, rows)


def _npy_probes(d):
    return (
        ("x_norm_sq", []),
        ("x_sq_plus_r1", [("quadratic", {})]),
        ("x1_times_r1", [_linear_spec(d)]),
        ("time_times_r1", [("bump", {})]),
        ("gauss_quarter", []),
    )


def _drift_from_gradient(coeff, V):
    """Drift field sigma sigma^* dx V, evaluated pointwise (batched)."""

    def b(t, x, mu):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = V.inner_integrals(mu)
        dxV = np.asarray(V.outer.dx(t, x, r))
        sig = np.asarray(coeff.sigma(t, x, mu))
        return np.einsum("...jk,...lk,...l->...j", sig, sig, dxV)

    return b


def _run_npy_identity(cfg):
    d, n_probes, tol = cfg.get("d"), cfg.get("n_probes"), cfg.get("tol")
    rng = np.random.default_rng(cfg.seed)
    probes = _npy_probes(d)
    rows = []
    worst = 0.0
    for pid in range(n_probes):
        outer, inner = probes[pid % len(probes)]
        V = make_cylindrical(outer, inner)
        sigma_id = ("brownian", "ou", "mean_revert")[pid % 3]
        base = make_coefficients(sigma_id, d=d, s=float(rng.uniform(0.3, 1.5)))
        coeff = dataclasses.replace(base, b=_drift_from_gradient(base, V))
        t = float(rng.uniform(0.0, 1.0))
        x = rng.standard_normal(d)
        n_atoms = int(rng.integers(5, 40))
        mu = EmpiricalMeasure(rng.standard_normal((n_atoms, d)))
        gap = npy_identity_gap(coeff, V, t, x, mu)
        worst = max(worst, gap)
        rows.append([pid, outer, sigma_id, gap])
    header = ["probe", "potential", "diffusion", "gap"]
    return [("Eq-NPY", "max_gap", worst, worst <= tol)], ("npy_identity.csv", header, rows)


def _run_pde_residual(cfg):
    d = cfg.get("d")
    vf = _value_function(cfg)
    probes = [
        (t, np.full(d, x_val))
        for t in cfg.get("probes.t")
        for x_val in cfg.get("probes.x")
    ]
    table = pde_residual_mc(vf, probes)
    anchor = "Eq-NPDE" if vf.pde == "nonlinear" else "Eq-YGG"
    checks = [(anchor, "pass_fraction", table.pass_fraction, table.verdict == "PASS")]
    return checks, ("pde_residual.csv", *table.to_rows())


def _run_w2_selftest(cfg):
    n_instances, tol = cfg.get("n_instances"), cfg.get("tol")
    max_atoms, max_dim = cfg.get("max_atoms"), cfg.get("max_dim")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = 0.0
    for inst in range(n_instances):
        d = int(rng.integers(1, max_dim + 1))
        n = int(rng.integers(1, max_atoms + 1))
        mu = EmpiricalMeasure(rng.standard_normal((n, d)))
        nu = EmpiricalMeasure(rng.standard_normal((n, d)))
        solved = wasserstein2(mu, nu)
        brute = wasserstein2_bruteforce(mu, nu)
        gap = abs(solved - brute)
        worst = max(worst, gap)
        rows.append([inst, d, n, solved, brute, gap])
    header = ["instance", "d", "n", "solver", "bruteforce", "gap"]
    return [("Def-W2", "max_gap", worst, worst <= tol)], ("w2_selftest.csv", header, rows)


# ---------------------------------------------------------------------------
# scenario declarations


def _girsanov_rules(values, violations):
    # the M Novikov samples exp(m g^2 (T - s) / 2) must sum to a finite float
    g, T, s, m = values.get("g.value"), values.get("T"), values["s"], values["m"]
    if "M" in values and g is not None and T is not None and T > s:
        if 0.5 * m * g * g * (T - s) + np.log(values["M"]) > np.log(np.finfo(float).max):
            violations.append(
                f"key 'g.value': M exp(m g^2 (T - s) / 2) overflows a float for g = {g:g}, "
                f"m = {m}, T - s = {T - s:g} and M = {values['M']}"
            )


def _source_rules(values, violations):
    # the moments of the M running costs f (T - t) of the earliest probe sum
    # their squares, which must stay finite floats
    f, T, times = values.get("f.value"), values.get("T"), values.get("probes.t")
    if "M" in values and f and T is not None and times and T > min(times):
        tau = T - min(times)
        if abs(f) * tau > math.sqrt(sys.float_info.max / values["M"]):
            violations.append(
                f"key 'f.value': the sum of M squared running costs (f (T - t))^2 overflows a "
                f"float for f = {f:g}, T - t = {tau:g} and M = {values['M']}"
            )


def _log_rules(values, violations):
    # the log transform takes log E Phi(X_T), so Phi must be positive everywhere
    outer, c = values.get("Phi.outer"), values.get("Phi.outer.c", OUTER_PARAMS["const"]["c"])
    if outer not in (None, "gauss_quarter", "exp") and not (outer == "const" and c > 0):
        violations.append(f"key 'Phi.outer': the log transform needs a terminal datum positive "
                          f"everywhere (gauss_quarter, exp or const with c > 0), got {outer}")


def _residual_rules(values, violations):
    # the stencil reads the diagonal of sigma sigma^*, which is s^2 I for
    # every catalog field
    s = values.get("coeff.s")
    if s is not None and abs(s) > math.sqrt(sys.float_info.max):
        violations.append(f"key 'coeff.s': sigma sigma^* = s^2 I overflows a float for s = {s:g}")
    if "beta" in values:
        _log_rules(values, violations)


# one scenario: its runner; the keys it reads, each mapped to its default:
# ``...`` for a key the config must set, None for one with no default, or a
# function of the keys before it, where a key ending in "." stands for every
# key under it and "a|b" for alternatives of which the first the config sets
# is read (a required one is met by either); the key that counts the ensemble
# it starts from its initial law, which is the widest block of paths it draws
# noise for at once when it steps a time grid (see _check_steps); and a check
# across its keys
_Scenario = namedtuple("_Scenario", "run reads width rules", defaults=(None, None))
_DIM = {"d": 1}
_COEFF = {**_DIM, "m": lambda values: values["d"], "coeff.id": ..., "coeff.": None}
# the initial law: init.scale times standard normals, one point per member of
# the ensemble, or the point mass at init.x, 0 when neither is set
_INIT = {"init.x|init.scale": None}
_PHI = {"Phi.outer": ..., "Phi.": None}
# N interacting particles stepped from s to T
_PARTICLES = {**_COEFF, **_INIT, "N": ..., "T": ..., "s": None, "V.outer": ..., "V.": None}
# M paths over the frozen flow of n_flow particles from the initial law; the
# flow is the widest block, as the M paths draw their noise a row at a time
_MC = {**_COEFF, **_INIT, "T": ..., "dt": ..., "probes.t": ..., "probes.x": ..., "M": ...,
       "n_flow": 200}
_SCENARIOS = {
    "ito_residual": _Scenario(_run_ito_residual, {**_PARTICLES, "dt": ...}, "N"),
    "path_independence": _Scenario(
        _run_path_independence, {**_PARTICLES, "dt|dt_ladder": ..., "perturb_g": 0.0}, "N"),
    "flow_property": _Scenario(
        _run_flow_property, {**_COEFF, **_INIT, "N": ..., "dt": ..., "times": ..., "tol": 0.05},
        "N"),
    "girsanov": _Scenario(
        _run_girsanov, {**_COEFF, **_INIT, "M": ..., "T": ..., "dt": ..., "s": None,
                        "g.value": ..., "beta": 1.0},
        "M", _girsanov_rules),
    "feynman_kac_linear": _Scenario(_run_feynman_kac, {**_MC, **_PHI}, "n_flow"),
    "feynman_kac_source": _Scenario(
        _run_feynman_kac, {**_MC, "f.value": ...}, "n_flow", _source_rules),
    "feynman_kac_log": _Scenario(
        _run_feynman_kac, {**_MC, **_PHI, "beta": ...}, "n_flow", _log_rules),
    # beta, when set, selects the log transform and with it the nonlinear PDE
    # (Eq-NPDE), else the PDE is the linear one (Eq-YGG); no Phi.inner: a
    # terminal datum that reads mu_T carries the frozen flow's sampling
    # error, which the residual budget has no term for
    "pde_residual": _Scenario(
        _run_pde_residual, {**_MC, "Phi.outer": ..., "Phi.outer.": None, "beta": None},
        "n_flow", _residual_rules),
    "npy_identity": _Scenario(_run_npy_identity, {**_DIM, "n_probes": 50, "tol": 1e-10}),
    "lderivative_check": _Scenario(
        _run_lderivative_check,
        {**_DIM, "n_atoms": 100, "n_probes": 20, "eps_ladder": (1e-2, 1e-3, 1e-4), "tol": 1e-3}),
    "w2_selftest": _Scenario(
        _run_w2_selftest, {"n_instances": 200, "max_atoms": 6, "max_dim": 3, "tol": 1e-12}),
}
SCENARIOS = tuple(_SCENARIOS)
#: the most bytes a config may make a run allocate up front for its time grid
#: and the step-major normals of its widest noise block (see _check_steps)
MAX_ARRAY_BYTES = 2**30


# ---------------------------------------------------------------------------
# config schema: each parser turns a value's text into its value or raises
# ValueError saying what was expected


def _number(cast, least=None, nonzero=False, most=None):
    noun = "an integer" if cast is int else "a finite number"

    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            raise ValueError(f"expected {noun}, got {text!r}") from None
        if cast is float and not math.isfinite(value):
            raise ValueError(f"expected {noun}, got {text!r}")
        if least is not None and value < least:
            raise ValueError(f"must be at least {least}, got {value}")
        if most is not None and value > most:
            raise ValueError(f"must be at most {most}, got {value}")
        if nonzero and value == 0:
            raise ValueError("must be nonzero")
        return value

    return parse


def _list(item):
    def parse(text):
        tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
        if not tokens:
            raise ValueError(f"expected a comma-separated list, got {text!r}")
        return tuple(item(tok) for tok in tokens)

    return parse


def _choice(choices):
    def parse(text):
        if text not in choices:
            raise ValueError(f"unknown identifier {text!r} (choices: {', '.join(choices)})")
        return text

    return parse


_FLOAT = _number(float)
_FLOATS = _list(_FLOAT)
_POSITIVES = _list(_number(float, least=0, nonzero=True))
# counts; M paths, N and n_flow interacting particles are ensembles, which
# need two members: a Monte Carlo gate reads their standard error
_COUNT = _number(int, least=1)
_ENSEMBLE = _number(int, least=2)
_SCHEMA = {
    "scenario": _choice(SCENARIOS),
    "seed": _number(int),
    "d": _COUNT, "m": _COUNT, "M": _ENSEMBLE, "N": _ENSEMBLE, "n_flow": _ENSEMBLE,
    "n_probes": _COUNT, "n_atoms": _COUNT, "n_instances": _COUNT,
    # the brute-force oracle enumerates all max_atoms! couplings
    "max_atoms": _number(int, least=1, most=MAX_BRUTEFORCE_ATOMS), "max_dim": _COUNT,
    "s": _FLOAT, "T": _FLOAT, "dt": _FLOAT, "beta": _number(float, nonzero=True),
    "tol": _FLOAT, "perturb_g": _FLOAT, "f.value": _FLOAT, "g.value": _FLOAT,
    "init.scale": _FLOAT,
    "dt_ladder": _POSITIVES, "times": _FLOATS, "probes.t": _FLOATS, "probes.x": _FLOATS,
    # eps is a finite-difference step; far above 1 it moves the atoms off the
    # bump's support, where the log outer has no value (first seen at 100)
    "eps_ladder": _list(_number(float, least=0, nonzero=True, most=1)), "init.x": _FLOATS,
    "coeff.id": _choice(COEFFICIENT_NAMES),
    "V.outer": _choice(OUTER_NAMES), "Phi.outer": _choice(OUTER_NAMES),
    "V.inner": _list(_choice(INNER_NAMES)), "Phi.inner": _list(_choice(INNER_NAMES)),
    # the coordinate the coord outer reads; checked against d in _check_cylindrical
    "V.outer.i": _number(int), "Phi.outer.i": _number(int),
}
# dotted prefixes whose remaining keys are numeric parameters of a catalog
# entry: the key that picks the entry, what the entry is, and the parameters
# each entry reads (see _check_params)
_CATALOG_PARAMS = {
    "coeff.": ("coeff.id", "coefficient field", COEFFICIENT_PARAMS),
    "V.outer.": ("V.outer", "outer function", OUTER_PARAMS),
    "Phi.outer.": ("Phi.outer", "outer function", OUTER_PARAMS),
}
_FLOAT_PREFIXES = tuple(_CATALOG_PARAMS)


def parse_config(text, seed=None):
    """Parse and validate a flat key=value config; collect every violation.

    ``seed``, when given, replaces the config's own seed.  A key the scenario
    does not read (see ``_SCENARIOS``) is a violation.  Raises ConfigError
    carrying the full violation list; otherwise returns a ScenarioConfig with
    the scenario's declared defaults filled, and seed=0 and s=0, and
    with the objects it reads built once (V and Phi in _check_cylindrical,
    the rest in _build): a fault in building one is a fault of the config.
    """
    violations = []
    values = {}
    failed = set()  # keys whose value was reported as unparseable
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        parse = _SCHEMA.get(key, _FLOAT if key.startswith(_FLOAT_PREFIXES) else None)
        if parse is None:
            violations.append(f"key {key!r}: unknown configuration key")
            continue
        try:
            values[key] = parse(val)
        except ValueError as exc:
            violations.append(f"key {key!r}: {exc}")
            failed.add(key)

    if seed is not None:
        values["seed"] = seed
    # every later check depends on what the scenario reads
    if "scenario" not in values:
        if "scenario" not in failed:
            violations.append("key 'scenario': required")
        raise ConfigError(violations)
    scenario = values["scenario"]
    entry = _SCENARIOS[scenario]
    _check_reads(entry, values, failed, violations)
    _check_params(values, violations)
    values.setdefault("seed", 0)
    values.setdefault("s", 0.0)
    if entry.rules:
        entry.rules(values, violations)
    _check_seed(values, violations)
    built = {}
    # every scenario that reads init.x, V or Phi reads d
    if "d" in values:
        d, n_init = values["d"], len(values.get("init.x", ()))
        if "init.x" in values and n_init not in (1, d):
            violations.append(f"key 'init.x': expected 1 or d = {d} entries, got {n_init}")
        _check_cylindrical(values, failed, violations, built)
    if entry.width:
        _check_steps(entry, values, violations)
    # only once the size bound has passed: the initial sample then fits
    if not violations:
        _build(entry, values, violations, built)
    if violations:
        raise ConfigError(violations)
    return ScenarioConfig(scenario=scenario, seed=values["seed"], values=values, **built)


def _check_reads(entry, values, failed, violations):
    """Report and drop each key the scenario does not read, and each key set
    after an alternative to it; report each required key that is missing;
    fill the declared defaults."""
    scenario = values["scenario"]
    names = {key for need in entry.reads for key in need.split("|")}
    prefixes = tuple(name for name in names if name.endswith("."))
    for key in [key for key in values if key not in ("scenario", "seed")]:
        if key not in names and not key.startswith(prefixes):
            violations.append(f"key {key!r}: scenario {scenario!r} does not read it")
            del values[key]
    for need, default in entry.reads.items():
        keys = need.split("|")
        # the keys set, in line order, then those whose value did not parse
        given = [key for key in values if key in keys] + [key for key in keys if key in failed]
        if default is ... and not given:
            either = "".join(f" (or {key!r})" for key in keys[1:])
            violations.append(f"key {keys[0]!r}: required for scenario {scenario!r}{either}")
        for key in given[1:]:
            violations.append(
                f"key {key!r}: scenario {scenario!r} does not read it beside {given[0]!r}")
            values.pop(key, None)
        if default is not None and default is not ...:
            values.setdefault(need, default(values) if callable(default) else default)


def _check_params(values, violations):
    """Report and drop each catalog parameter (see _CATALOG_PARAMS) that the
    entry the config picks does not read."""
    for prefix, (id_key, what, catalog) in _CATALOG_PARAMS.items():
        if id_key not in values:
            continue
        name = values[id_key]
        for key in [key for key in values if key.startswith(prefix) and key != id_key]:
            if key[len(prefix):] not in catalog.get(name, {}):
                violations.append(f"key {key!r}: {what} {name!r} does not read it")
                del values[key]


def _check_seed(values, violations):
    # runners derive seed + level and seed + 1..3, and every derived seed
    # must fit the uint64 word of a noise-stream key
    seed = values["seed"]
    largest = 2**64 - 1 - max(3, len(values.get("dt_ladder", ())) - 1)
    if not 0 <= seed <= largest:
        violations.append(
            f"key 'seed': must lie in [0, {largest}] so that derived seeds fit in uint64, "
            f"got {seed}"
        )


def _check_cylindrical(values, failed, violations, built):
    """V and Phi must fit the config's d (a coordinate index in [0, d), the
    catalog's linear inner function, a = (1,), only at d = 1) and have as
    many inner functions as their outer reads; each that builds goes into
    ``built``."""
    d = values["d"]
    for name in ("V", "Phi"):
        i = values.get(name + ".outer.i", 0)
        if "d" not in failed and not 0 <= i < d:
            violations.append(f"key '{name}.outer.i': must lie in [0, {d}) for d = {d}, got {i}")
        inner = values.get(name + ".inner", ())
        if d > 1 and "linear" in inner:
            violations.append(f"key '{name}.inner': the linear inner function needs d = 1, got {d}")
        if name + ".outer" in values and name + ".inner" not in failed:
            try:
                built[name] = make_cylindrical(values[name + ".outer"], inner,
                                               outer_params=_params(values, name + ".outer."))
            except ContractError as exc:
                violations.append(f"key '{name}.outer': {exc}")


def _build(entry, values, violations, built):
    """Build the coefficient field and the initial law of a config that has
    passed every check into ``built``, reporting a ContractError against the
    key that sets the object, a drift that may pass the largest float (see
    _check_drift) against coeff.id, and a V that is not finite, or has no
    value, on the initial law's atoms at time s against the key that sets
    the law.  A gaussian initial law is init.scale times standard normals
    of default_rng(seed), one row per member of the scenario's ensemble."""
    key = "coeff.id"
    try:
        if key in values:
            params = _params(values, "coeff.")
            built["coeff"] = make_coefficients(params.pop("id"), values["d"], values["m"], **params)
        key = "init.scale" if "init.scale" in values else "init.x"
        if key == "init.scale":
            rng = np.random.default_rng(values["seed"])
            # an overflow leaves non-finite points, which the measure rejects
            with np.errstate(over="ignore"):
                points = values[key] * rng.standard_normal((values[entry.width], values["d"]))
            built["init"] = EmpiricalMeasure(points)
        elif entry.width:
            built["init"] = dirac(np.broadcast_to(values.get(key, (0.0,)), (values["d"],)))
    except ContractError as exc:
        violations.append(f"key '{key}': {exc}")
        return
    if "coeff" in built:
        _check_drift(values, built, violations)
    if "V" in built and "init" in built:
        mu = built["init"]
        try:
            with np.errstate(all="ignore"):
                finite = np.isfinite(built["V"].value(values["s"], mu.points, mu)).all()
        except (ContractError, EvaluationError):
            # an inner function not finite on an atom, or an outer function
            # with no value at the law's inner integrals
            finite = False
        if not finite:
            violations.append(f"key '{key}': V is not finite on the initial law at s = "
                              f"{values['s']:g}")


def _check_drift(values, built, violations):
    """An Euler step reads the drift at states within the blow-up guard, at
    the initial law's atoms and at the probe points, and every catalog field
    bounds |b| there by its Lipschitz bound times the largest of their sizes:
    report a field whose bound lets b dt pass a quarter of the largest float,
    so that x + b dt + sigma dW may overflow."""
    coeff = built["coeff"]
    size = max(BLOWUP_GUARD, float(np.abs(built["init"].points).max()),
               *map(abs, values.get("probes.x", ())))
    dt = max(1.0, values.get("dt", 1.0), *values.get("dt_ladder", ()))
    with np.errstate(over="ignore"):  # a norm past the largest float is inf
        bound = float(coeff.lipschitz_bound(values["s"]))
    if bound * size * dt > sys.float_info.max / 4:
        violations.append(f"key 'coeff.id': the drift of {coeff.name}, of Lipschitz bound "
                          f"{bound:g}, passes the largest float at states of size {size:g}")


# one span a step size must make up: its length, how a message names it, the
# key that sets its length, and how an end off the step grid is reported when
# not by blaming the step
_Span = namedtuple("_Span", "length where key off_grid", defaults=(None,))


def _spans(entry, values, violations):
    """The spans a scenario steps across: the intervals [s, t], [t, r] and
    [s, r] of times = s, t, r, the horizon T - s when it reads s, and the span
    T - t of each probe time t; reports each span that runs backwards."""
    spans = []
    if "times" in values:
        times = values["times"]
        if len(times) != 3 or not times[0] < times[1] < times[2]:
            violations.append("key 'times': expected three increasing values s < t < r")
        else:
            t0, t1, t2 = times
            spans += [_Span(b - a, f"the interval [{a:g}, {b:g}]", "times")
                      for a, b in ((t0, t1), (t1, t2), (t0, t2))]
    if "T" not in values:
        return spans
    T, s = values["T"], values["s"]
    if "s" in entry.reads and T <= s:
        violations.append(
            f"key 'T': must be after s = {s:g} for scenario {values['scenario']!r}, got {T:g}")
    elif "s" in entry.reads:
        spans.append(_Span(T - s, f"the horizon T-s = {T - s:g}", "T"))
    for t in values.get("probes.t", ()):
        if t > T:
            violations.append(f"key 'probes.t': probe time {t:g} is after T = {T:g}")
        else:
            spans.append(_Span(T - t, f"the span T-t = {T - t:g} of probe time {t:g}", "T",
                               f"key 'probes.t': probe time {t:g}"))
    return spans


def _check_steps(entry, values, violations):
    """Each step size (dt, or each dt_ladder level) must be positive and make
    up every span of the scenario (see _spans), by the test of
    dynamics.grid_steps and with at least one step on a positive span.  When
    the config has no other fault, the finest must also keep the run's
    up-front arrays within MAX_ARRAY_BYTES: L + 1 grid times plus L steps of m
    normals for each path of the scenario's widest block, L being the steps
    across its longest span, and the normals of a gaussian initial sample."""
    spans = _spans(entry, values, violations)
    levels = [("dt_ladder", dt) for dt in values.get("dt_ladder", ())]
    if "dt" in values:
        levels.append(("dt", values["dt"]))
    for key, dt in levels:
        if dt <= 0:
            violations.append(f"key '{key}': step size must be positive, got {dt}")
            continue
        for span in spans:
            # more steps than a float counts: the size bound below names the span
            if not math.isfinite(span.length / dt):
                continue
            n = grid_steps(span.length, dt)
            if n == 0 and span.length > 0:
                violations.append(f"key '{key}': {dt:g} is longer than {span.where}")
            elif n is None and span.off_grid:
                violations.append(f"{span.off_grid} is not on the grid of {key} = {dt:g}")
            elif n is None:
                violations.append(f"key '{key}': {dt:g} does not divide {span.where}")
    if violations or not spans:
        return
    span = max(spans, key=lambda span: span.length)
    key, dt = min(levels, key=itemgetter(1))
    steps = span.length / dt
    n_key = entry.width
    grid = 8.0 * (steps + 1 + steps * values[n_key] * values["m"])
    sample = 8.0 * values[n_key] * values["d"] if "init.scale" in values else 0.0
    size = grid + sample
    if size > MAX_ARRAY_BYTES:
        blame = (f"key '{n_key}': an initial sample of {values[n_key]} points in d = {values['d']}"
                 if sample > grid else
                 f"key '{span.key}': a span of {span.length:g} in steps of {key} = {dt:g}")
        violations.append(
            f"{blame} takes the run to {size / 2**30:.3g} GiB of time grid, noise block and "
            f"initial sample, more than the {MAX_ARRAY_BYTES / 2**30:g} GiB a run may "
            f"allocate up front"
        )


def write_csv(fh, header, rows):
    """Write a header line and rows as CSV to ``fh``, a text file opened with
    newline="": each float as ``%.17g``, seventeen significant digits, which
    read back to the same double; ints and strings as ``str``, None as an
    empty cell."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)


def run_scenario(cfg, out_dir):
    """Run one configured scenario: write its table and summary.txt into
    ``out_dir`` (made first, so a bad one fails before any compute), print
    its verdict lines and return the exit status, 0 iff every check passes."""
    os.makedirs(out_dir, exist_ok=True)
    checks, (name, header, rows) = _SCENARIOS[cfg.scenario].run(cfg)
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        write_csv(fh, header, rows)
    lines = [f"{anchor} {cfg.scenario} {metric}={value:.10g} {_flag(ok)}"
             for anchor, metric, value, ok in checks]
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0 if all(ok for *_, ok in checks) else 1


# ---------------------------------------------------------------------------
# presets reproducing the acceptance suite

PRESETS = {
    "lderivative-oracle": """
scenario = lderivative_check
seed = 7
d = 2
n_atoms = 100
n_probes = 20
eps_ladder = 1e-2, 1e-3, 1e-4
tol = 1e-3
""",
    "ito-residual-meanfield": """
scenario = ito_residual
seed = 3
coeff.id = mean_revert
coeff.rate = 1
coeff.s = 1
V.outer = x_sq_plus_r1
V.inner = quadratic
N = 1000
T = 1
dt = 1e-3
init.x = 0
""",
    "path-independence-forward": """
scenario = path_independence
seed = 11
coeff.id = brownian
coeff.s = 1
V.outer = x_norm_sq
N = 2000
T = 1
dt_ladder = 1e-2, 2.5e-3
init.x = 0
""",
    "path-independence-falsified": """
scenario = path_independence
seed = 11
coeff.id = brownian
coeff.s = 1
V.outer = coord
N = 2000
T = 1
dt_ladder = 1e-2, 2.5e-3
perturb_g = 0.1
init.x = 0
""",
    "flow-property-ou": """
scenario = flow_property
seed = 13
coeff.id = ou
coeff.theta = 1
coeff.kappa = 0.5
coeff.s = 1
N = 4000
dt = 1e-2
times = 0, 0.5, 1
tol = 0.05
init.scale = 1
""",
    "feynman-kac-heat": """
scenario = feynman_kac_linear
seed = 17
coeff.id = brownian
coeff.s = 1
Phi.outer = x_norm_sq
T = 1
dt = 1e-2
M = 100000
probes.t = 0, 0.5
probes.x = -1, 0, 1
""",
    "feynman-kac-source-const": """
scenario = feynman_kac_source
seed = 19
coeff.id = brownian
coeff.s = 1
f.value = 1
T = 1
dt = 1e-2
M = 1000
probes.t = 0, 0.5
probes.x = 0
""",
    "feynman-kac-log-gauss": """
scenario = feynman_kac_log
seed = 23
coeff.id = brownian
coeff.s = 1
Phi.outer = gauss_quarter
beta = 1
T = 1
dt = 1e-2
M = 100000
probes.t = 0, 0.5
probes.x = -1, 0, 1
""",
    "pde-residual-nonlinear": """
scenario = pde_residual
seed = 23
coeff.id = brownian
coeff.s = 1
Phi.outer = gauss_quarter
beta = 1
T = 1
dt = 1e-2
M = 100000
probes.t = 0, 0.5
probes.x = -1, 0, 1
""",
    "girsanov-risk-neutral": """
scenario = girsanov
seed = 29
coeff.id = constant_drift
coeff.c = 0.5
coeff.s = 1
g.value = 0.5
beta = 1
M = 100000
T = 1
dt = 1e-2
init.x = 0
""",
    "w2-selftest": """
scenario = w2_selftest
seed = 31
n_instances = 200
max_atoms = 6
max_dim = 3
tol = 1e-12
""",
    "npy-identity": """
scenario = npy_identity
seed = 37
n_probes = 50
tol = 1e-10
d = 1
""",
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mfsde",
        description="Mean-field SDE scenario runner (see module docstring for the config schema).",
    )
    parser.add_argument("--config", metavar="PATH", help="path to a key=value config file")
    parser.add_argument("--preset", metavar="NAME", help="run a shipped preset")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    parser.add_argument("--list-presets", action="store_true", help="list presets and exit")
    args = parser.parse_args(argv)

    if args.list_presets:
        for name in sorted(PRESETS):
            scenario = parse_config(PRESETS[name]).scenario
            print(f"{name}  ({scenario})")
        return 0
    if bool(args.config) == bool(args.preset):
        parser.error("exactly one of --config or --preset is required")
    if args.preset:
        if args.preset not in PRESETS:
            parser.error(f"unknown preset {args.preset!r}; see --list-presets")
        text = PRESETS[args.preset]
    else:
        with open(args.config) as fh:
            text = fh.read()
    try:
        cfg = parse_config(text, seed=args.seed)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    try:
        return run_scenario(cfg, args.out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary: diagnostic + nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
