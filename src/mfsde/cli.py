"""Config-driven scenario runner producing CSV artifacts and verdict summaries.

A scenario is described by a flat key=value config (dotted keys address
sub-objects, e.g. ``coeff.id`` or ``V.outer``).  ``_SCHEMA`` gives every key
its type, choices and least value; ``_SCENARIOS`` gives every scenario its
runner, the keys it reads with their defaults and its widest block of paths,
which drive the config checks.  Running one writes its CSV output plus
``summary.txt`` with one verdict per line,

    <anchor> <scenario> <metric>=<value> <verdict>

where the anchor is the identifier of the analytic statement the check
targets.  Exit status is 0 iff every verdict is PASS.  Identical config and
seed give byte-identical CSV output.
"""

from __future__ import annotations

import argparse
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
    COEFFICIENT_NAMES,
    COEFFICIENT_PARAMS,
    StreamedFlow,
    grid_steps,
    make_coefficients,
    semigroup_apply,
)
from .errors import ConfigError, ContractError
from .feynman_kac import (
    TILE,
    McValueFunction,
    npy_identity_gap,
    pde_residual_mc,
)
from .functionals import (
    build_pair_from_V,
    girsanov_replay,
    verify_path_independence,
)
from .generator import ito_residual_ensemble
from .measure import EmpiricalMeasure, dirac, wasserstein2, wasserstein2_bruteforce, write_csv


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated flat configuration for one scenario run."""

    scenario: str
    seed: int
    values: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, default)

    @property
    def dt_levels(self):
        """Planned step sizes: the ladder when given, else the single dt."""
        if "dt_ladder" in self.values:
            return self.values["dt_ladder"]
        return (self.values["dt"],)


@dataclass(frozen=True)
class Verdict:
    anchor: str
    scenario: str
    metric: str
    value: float
    verdict: str

    def line(self):
        return f"{self.anchor} {self.scenario} {self.metric}={self.value:.10g} {self.verdict}"


def _flag(ok):
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# scenario runners: each takes (cfg, out_dir), writes its CSV and returns
# its verdicts


def _params(values, head):
    """Values of the keys that start with ``head``, keyed by the rest."""
    return {k[len(head):]: v for k, v in values.items() if k.startswith(head)}


def _build_coeff(cfg):
    params = _params(cfg.values, "coeff.")
    return make_coefficients(params.pop("id"), d=cfg.get("d"), m=cfg.get("m"), **params)


def _build_cylindrical(values, prefix):
    """The cylindrical function of keys ``prefix``.outer, .inner and .outer.*."""
    return make_cylindrical(values[prefix + ".outer"], values.get(prefix + ".inner", ()),
                            outer_params=_params(values, prefix + ".outer."))


def _initial_measure(cfg, n):
    d = cfg.get("d")
    if cfg.get("init.kind") == "point":
        return dirac(np.broadcast_to(cfg.get("init.x"), (d,)))
    scale = cfg.get("init.scale")
    rng = np.random.default_rng(cfg.seed)
    return EmpiricalMeasure(scale * rng.standard_normal((n, d)))


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


def _run_lderivative_check(cfg, out_dir):
    d = cfg.get("d")
    n_atoms = cfg.get("n_atoms")
    n_probes = cfg.get("n_probes")
    eps_ladder = tuple(sorted(cfg.get("eps_ladder"), reverse=True))
    tol = cfg.get("tol")
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
    header = ["function", "probe", "eps", "gap"]
    write_csv(os.path.join(out_dir, "lderivative_check.csv"), header, rows)
    gaps = [worst[eps] for eps in eps_ladder]
    rates = [g / eps for g, eps in zip(gaps, eps_ladder)]
    linear = max(rates) <= 3.0 * min(rates) if min(rates) > 0 else False
    return [
        Verdict("Example-2.1", cfg.scenario, "max_gap", gaps[-1], _flag(gaps[-1] <= tol)),
        Verdict(
            "Example-2.1", cfg.scenario, "decay_rate_spread",
            max(rates) / min(rates) if min(rates) > 0 else float("inf"),
            _flag(linear),
        ),
    ]


def _run_ito_residual(cfg, out_dir):
    coeff = _build_coeff(cfg)
    V = _build_cylindrical(cfg.values, "V")
    N, T, dt = cfg.get("N"), cfg.get("T"), cfg.get("dt")
    mu0 = _initial_measure(cfg, N)
    flow = StreamedFlow(coeff, mu0, N, T, dt, cfg.seed, s=cfg.get("s"))
    summary = ito_residual_ensemble(coeff, V, flow)
    # the ensemble-mean residual is a sum of per-step increments driven by
    # noise common to all particles (through the empirical measure), so its
    # standard error comes from the realized quadratic variation of those
    # increments, not from the cross-particle spread
    step_means = summary.step_mean
    mean = float(step_means.sum())
    se = float(np.sqrt((step_means**2).sum()))
    qv_real = float(summary.qv_sum.mean())
    qv_pred = 0.0
    for q in summary.qv_density:
        qv_pred += float(q) * dt
    qv_ratio = qv_real / qv_pred if qv_pred > 0 else float("inf")
    step_rows = [
        [k, flow.times[k], step_means[k], summary.step_rms[k]] for k in range(flow.n_steps)
    ]
    header = ["step", "time", "mean_residual", "rms_residual"]
    write_csv(os.path.join(out_dir, "ito_residual.csv"), header, step_rows)
    return [
        Verdict("Lemma-3.1", cfg.scenario, "mean_residual", mean, _flag(abs(mean) <= 3 * se)),
        Verdict("Eq-rpp", cfg.scenario, "qv_ratio", qv_ratio, _flag(abs(qv_ratio - 1) <= 0.1)),
    ]


def _run_path_independence(cfg, out_dir):
    coeff = _build_coeff(cfg)
    V = _build_cylindrical(cfg.values, "V")
    N, T, s = cfg.get("N"), cfg.get("T"), cfg.get("s")
    f, g = build_pair_from_V(coeff, V)
    offset = cfg.get("perturb_g")
    if offset:
        base_g = g

        def g(t, X, mu, base_g=base_g, offset=offset):
            return base_g(t, X, mu) + offset

    # coarsest level first, each streamed while the verifier folds it and
    # never recorded; a level keeps the seed of its place in the configured ladder
    flows = (
        StreamedFlow(coeff, _initial_measure(cfg, N), N, T, dt, cfg.seed + level, s=s)
        for level, dt in sorted(enumerate(cfg.dt_levels), key=lambda item: -item[1])
    )
    report = verify_path_independence(V, f, g, flows, s, T)
    report.to_csv(os.path.join(out_dir, "path_independence.csv"))
    ratio = (
        report.rows[0].rms_defect / report.rows[-1].rms_defect
        if len(report.rows) > 1 and report.rows[-1].rms_defect > 0
        else 1.0
    )
    return [
        Verdict("Eq-ATT0", cfg.scenario, "rms_ratio", ratio, report.verdict),
        Verdict("Eq-ATT0", cfg.scenario, "defect_floor", report.defect_floor, report.verdict),
    ]


def _run_flow_property(cfg, out_dir):
    coeff = _build_coeff(cfg)
    N, dt = cfg.get("N"), cfg.get("dt")
    t0, t1, t2 = cfg.get("times")
    tol = cfg.get("tol")
    mu0 = _initial_measure(cfg, N)
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
    write_csv(os.path.join(out_dir, "flow_property.csv"), header, rows)
    return [Verdict("Eq-SM", cfg.scenario, "w2_gap", gap, _flag(gap <= tol))]


def _run_girsanov(cfg, out_dir):
    coeff = _build_coeff(cfg)
    m = coeff.m
    M, T, dt = cfg.get("M"), cfg.get("T"), cfg.get("dt")
    s = cfg.get("s")
    beta = cfg.get("beta")
    g_value = cfg.get("g.value")
    g = _const_field(g_value, m)
    mu0 = _initial_measure(cfg, M)
    flow = StreamedFlow(coeff, mu0, M, T, dt, cfg.seed, s=s)
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
    write_csv(os.path.join(out_dir, "girsanov.csv"), ["metric", "value", "reference"], rows)
    return [
        Verdict("Eq-YPP1", cfg.scenario, "weight_mean_err", mean_err,
                _flag(mean_err <= 3 * se_w)),
        Verdict("Eq-APPg3", cfg.scenario, "riskneutral_drift", abs(drift_q),
                _flag(abs(drift_q) <= 3 * se_q)),
        Verdict("Eq-Agg2", cfg.scenario, "novikov_gap", nov_gap, _flag(nov_gap <= 1e-10)),
    ]


def _closed_form(kind, t, x, T, beta):
    tau = T - t
    if kind == "heat":
        return float(np.sum(np.asarray(x) ** 2) + tau)
    if kind == "gauss":
        dens = (1.0 + tau / 2.0) ** -0.5 * np.exp(
            -float(np.sum(np.asarray(x) ** 2)) / (4.0 + 2.0 * tau)
        )
        return float(-beta * np.log(dens))
    if kind == "neg_tau":
        return -tau
    return None


def _value_function(cfg, Phi=None, f_field=None, beta=None):
    """The config's Monte Carlo value function: its coefficients, T, dt, M,
    seed and n_flow, over an initial law of N samples."""
    return McValueFunction(
        _build_coeff(cfg), Phi, f_field, cfg.get("T"), cfg.get("dt"), cfg.get("M"), cfg.seed,
        _initial_measure(cfg, cfg.get("N")), beta, cfg.get("n_flow"))


def _run_feynman_kac(cfg, out_dir):
    d, T, beta = cfg.get("d"), cfg.get("T"), cfg.get("beta")
    closed = cfg.get("closed_form")
    if cfg.scenario == "feynman_kac_source":
        vf = _value_function(cfg, f_field=_const_field(cfg.get("f.value")))
    else:
        log_beta = beta if cfg.scenario == "feynman_kac_log" else None
        vf = _value_function(cfg, _build_cylindrical(cfg.values, "Phi"), beta=log_beta)
    anchor = {
        "feynman_kac_linear": "Lemma-3.3", "feynman_kac_source": "Lemma-3.4",
        "feynman_kac_log": "Eq-TTY0",
    }[cfg.scenario]
    rows, verdicts = [], []
    probes = product(cfg.get("probes.t"), cfg.get("probes.x"))
    for probe_id, (t, x_val) in enumerate(probes):
        x = np.full(d, x_val)
        sol = dataclasses.replace(vf, seed=cfg.seed + 101 * probe_id).solve(t, x)
        expected = _closed_form(closed, t, x, T, beta)
        err = abs(sol.value - expected) if expected is not None else 0.0
        # roundoff floor keeps deterministic cases (zero SE) honest
        ok = expected is None or err <= 3 * sol.std_error + 1e-12 * (1.0 + abs(expected))
        label = f"err_t{t:g}_x{x_val:g}"
        verdicts.append(Verdict(anchor, cfg.scenario, label, err, _flag(ok)))
        rows.append([t, x_val, sol.value, sol.std_error, expected, err, _flag(ok)])
    header = ["t", "x", "value", "std_error", "closed_form", "abs_err", "verdict"]
    write_csv(os.path.join(out_dir, f"{cfg.scenario}.csv"), header, rows)
    return verdicts


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


def _run_npy_identity(cfg, out_dir):
    d = cfg.get("d")
    n_probes = cfg.get("n_probes")
    tol = cfg.get("tol")
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
    write_csv(os.path.join(out_dir, "npy_identity.csv"), header, rows)
    return [Verdict("Eq-NPY", cfg.scenario, "max_gap", worst, _flag(worst <= tol))]


def _run_pde_residual(cfg, out_dir):
    if cfg.get("check") == "npy":
        return _run_npy_identity(cfg, out_dir)
    d, pde = cfg.get("d"), cfg.get("pde")
    beta = cfg.get("beta") if pde == "nonlinear" else None
    vf = _value_function(cfg, _build_cylindrical(cfg.values, "Phi"), beta=beta)
    probes = [
        (t, np.full(d, x_val))
        for t in cfg.get("probes.t")
        for x_val in cfg.get("probes.x")
    ]
    table = pde_residual_mc(vf, pde, probes)
    table.to_csv(os.path.join(out_dir, "pde_residual.csv"))
    anchor = "Eq-NPDE" if pde == "nonlinear" else "Eq-YGG"
    return [
        Verdict(anchor, cfg.scenario, "pass_fraction", table.pass_fraction, table.verdict)
    ]


def _run_w2_selftest(cfg, out_dir):
    n_instances = cfg.get("n_instances")
    max_atoms = cfg.get("max_atoms")
    max_dim = cfg.get("max_dim")
    tol = cfg.get("tol")
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
    write_csv(os.path.join(out_dir, "w2_selftest.csv"), header, rows)
    return [Verdict("Def-W2", cfg.scenario, "max_gap", worst, _flag(worst <= tol))]


# ---------------------------------------------------------------------------
# scenario declarations


def _girsanov_rules(values, failed, violations):
    # girsanov simulates its M paths as one interacting ensemble
    if "M" not in failed and values["M"] < 2:
        violations.append(f"key 'M': must be at least 2 for scenario 'girsanov', got {values['M']}")
    # the M Novikov samples exp(m g^2 (T - s) / 2) must sum to a finite float
    g, T, s, m = values.get("g.value"), values.get("T"), values["s"], values["m"]
    if g is not None and T is not None and T > s:
        if 0.5 * m * g * g * (T - s) + np.log(values["M"]) > np.log(np.finfo(float).max):
            violations.append(
                f"key 'g.value': M exp(m g^2 (T - s) / 2) overflows a float for g = {g:g}, "
                f"m = {m}, T - s = {T - s:g} and M = {values['M']}"
            )


def _mc_block(values):
    """The larger of the n_flow frozen-flow particles and a TILE chunk of M paths."""
    return max(values["n_flow"], min(values["M"], TILE))


# one scenario: its runner; the keys it reads, each mapped to its default:
# ``...`` for a key the config must set (a required "a|b" is met by exactly one
# of a and b), None for one with no default, or a function of the keys before
# it, where a key ending in "." stands for every key under it; the widest block
# of paths it draws noise for at once when it steps a time grid (see
# _check_steps); a check across its keys; and the declarations that replace it
# for values of its key "check"
_Scenario = namedtuple("_Scenario", "run reads width rules by_check", defaults=(None, None, {}))
_DIM = {"d": 1}
_COEFF = {**_DIM, "m": lambda values: values["d"], "coeff.id": ..., "coeff.": None}
_INIT = {"init.kind": "point", "init.x": (0.0,), "init.scale": 1.0}
_PHI = {"Phi.outer": ..., "Phi.": None}
# N interacting particles stepped from s to T
_PARTICLES = {**_COEFF, **_INIT, "N": ..., "T": ..., "s": None, "V.outer": ..., "V.": None}
# M paths over the frozen flow of n_flow particles from N samples of the initial law
_MC = {**_COEFF, **_INIT, "T": ..., "dt": ..., "probes.t": ..., "probes.x": ..., "M": None,
       "N": 200, "n_flow": 200, "beta": 1.0}
_FK = {**_MC, "closed_form": "none"}
_SCENARIOS = {
    "ito_residual": _Scenario(_run_ito_residual, {**_PARTICLES, "dt": ...}, itemgetter("N")),
    "path_independence": _Scenario(
        _run_path_independence, {**_PARTICLES, "dt|dt_ladder": ..., "perturb_g": 0.0},
        itemgetter("N")),
    "flow_property": _Scenario(
        _run_flow_property,
        {**_COEFF, **_INIT, "N": ..., "dt": ..., "times": ..., "tol": 0.05}, itemgetter("N")),
    "girsanov": _Scenario(
        _run_girsanov, {**_COEFF, **_INIT, "M": None, "T": ..., "dt": ..., "s": None,
                        "g.kind": ..., "g.value": ..., "beta": 1.0},
        itemgetter("M"), _girsanov_rules),
    "feynman_kac_linear": _Scenario(_run_feynman_kac, {**_FK, **_PHI}, _mc_block),
    "feynman_kac_source": _Scenario(
        _run_feynman_kac, {**_FK, "f.kind": ..., "f.value": ...}, _mc_block),
    "feynman_kac_log": _Scenario(_run_feynman_kac, {**_FK, **_PHI, "beta": ...}, _mc_block),
    "pde_residual": _Scenario(
        _run_pde_residual, {**_MC, **_PHI, "beta": ..., "pde": ..., "check": "residual"},
        _mc_block, by_check={"npy": _Scenario(
            _run_pde_residual, {"check": None, **_DIM, "n_probes": 50, "tol": 1e-10})}),
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
# counts: M paths, N and n_flow interacting particles (an ensemble needs two)
_COUNT = _number(int, least=1)
_ENSEMBLE = _number(int, least=2)
_SCHEMA = {
    "scenario": _choice(SCENARIOS),
    "seed": _number(int),
    "d": _COUNT, "m": _COUNT, "M": _COUNT, "N": _ENSEMBLE, "n_flow": _ENSEMBLE,
    "n_probes": _COUNT, "n_atoms": _COUNT, "n_instances": _COUNT,
    "max_atoms": _COUNT, "max_dim": _COUNT,
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
    "g.kind": _choice(("const",)), "f.kind": _choice(("const",)),
    "closed_form": _choice(("heat", "gauss", "neg_tau", "none")),
    # the residual runner builds no running-cost field, so it evaluates no pde = source
    "pde": _choice(("linear", "nonlinear", "drift_coupled")),
    "check": _choice(("residual", "npy")),
    "init.kind": _choice(("point", "gaussian")),
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
    the scenario's declared defaults filled, and seed=0, M=1 and s=0.
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
    entry = _SCENARIOS[scenario].by_check.get(values.get("check"), _SCENARIOS[scenario])
    _check_reads(entry, values, failed, violations)
    _check_params(values, violations)
    values.setdefault("seed", 0)
    values.setdefault("M", 1)
    values.setdefault("s", 0.0)
    if entry.rules:
        entry.rules(values, failed, violations)
    _check_seed(values, violations)
    # every scenario that reads init.x, V or Phi reads d
    if "d" in values:
        d, n_init = values["d"], len(values.get("init.x", ()))
        if "init.x" in values and n_init not in (1, d):
            violations.append(f"key 'init.x': expected 1 or d = {d} entries, got {n_init}")
        _check_cylindrical(values, failed, violations)
    if entry.width:
        _check_steps(entry, values, violations)
    if violations:
        raise ConfigError(violations)
    return ScenarioConfig(scenario=scenario, seed=values["seed"], values=values)


def _check_reads(entry, values, failed, violations):
    """Report and drop each key the scenario does not read, and each key set
    beside the alternative that replaces it; report each required key that
    is missing; fill the declared defaults."""
    scenario = values["scenario"]
    names = {key for need in entry.reads for key in need.split("|")}
    prefixes = tuple(name for name in names if name.endswith("."))
    for key in [key for key in values if key not in ("scenario", "seed")]:
        if key not in names and not key.startswith(prefixes):
            violations.append(f"key {key!r}: scenario {scenario!r} does not read it")
            del values[key]
    for need, default in entry.reads.items():
        keys = need.split("|")
        given = [key for key in keys if key in values or key in failed]
        if default is ... and not given:
            either = "".join(f" (or {key!r})" for key in keys[1:])
            violations.append(f"key {keys[0]!r}: required for scenario {scenario!r}{either}")
        for key in given[:-1]:
            violations.append(
                f"key {key!r}: scenario {scenario!r} does not read it beside {given[-1]!r}")
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
    # runners derive seed + level, seed + 1..3 and seed + 101 * probe_id, and
    # every derived seed must fit the uint64 word of a noise-stream key
    seed = values["seed"]
    n_probes = len(values.get("probes.t", ())) * len(values.get("probes.x", ()))
    largest = 2**64 - 1 - max(3, len(values.get("dt_ladder", ())) - 1, 101 * (n_probes - 1))
    if not 0 <= seed <= largest:
        violations.append(
            f"key 'seed': must lie in [0, {largest}] so that derived seeds fit in uint64, "
            f"got {seed}"
        )


def _check_cylindrical(values, failed, violations):
    """V and Phi must fit the config's d (a coordinate index in [0, d), the
    catalog's linear inner function, a = (1,), only at d = 1) and have as
    many inner functions as their outer reads."""
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
                _build_cylindrical(values, name)
            except ContractError as exc:
                violations.append(f"key '{name}.outer': {exc}")


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
    grid = 8.0 * (steps + 1 + steps * entry.width(values) * values["m"])
    # the initial sample has N points, or M for girsanov, which reads no N
    n_key = "N" if "N" in values else "M"
    sample = 8.0 * values[n_key] * values["d"] if values.get("init.kind") == "gaussian" else 0.0
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


def run_scenario(cfg, out_dir):
    """Run one configured scenario; write artifacts; return the exit status."""
    os.makedirs(out_dir, exist_ok=True)
    verdicts = _SCENARIOS[cfg.scenario].run(cfg, out_dir)
    lines = [v.line() for v in verdicts]
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0 if all(v.verdict == "PASS" for v in verdicts) else 1


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
init.kind = point
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
init.kind = point
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
init.kind = point
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
init.kind = gaussian
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
closed_form = heat
""",
    "feynman-kac-source-const": """
scenario = feynman_kac_source
seed = 19
coeff.id = brownian
coeff.s = 1
f.kind = const
f.value = 1
T = 1
dt = 1e-2
M = 1000
probes.t = 0, 0.5
probes.x = 0
closed_form = neg_tau
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
closed_form = gauss
""",
    "pde-residual-nonlinear": """
scenario = pde_residual
seed = 23
coeff.id = brownian
coeff.s = 1
Phi.outer = gauss_quarter
beta = 1
pde = nonlinear
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
g.kind = const
g.value = 0.5
beta = 1
M = 100000
T = 1
dt = 1e-2
init.kind = point
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
scenario = pde_residual
seed = 37
check = npy
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
