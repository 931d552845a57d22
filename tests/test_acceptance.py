"""Acceptance suite: ten scenario-level criteria with pinned tolerances.

Each test drives the corresponding CLI preset, prints exactly one
``CRITERION k ... PASS|FAIL`` line, and then asserts, so the printed
transcript reports every criterion even when one fails.
"""

import time
from collections import namedtuple

from mfsde.cli import _SCENARIOS, PRESETS, parse_config

Verdict = namedtuple("Verdict", "value verdict")


def run_preset(name):
    """The preset's verdicts by metric, and the seconds its runner took."""
    cfg = parse_config(PRESETS[name])
    start = time.perf_counter()
    checks, _ = _SCENARIOS[cfg.scenario].run(cfg)
    elapsed = time.perf_counter() - start
    return {metric: Verdict(value, "PASS" if ok else "FAIL")
            for _, metric, value, ok in checks}, elapsed


def report(k, label, ok, detail):
    print(f"CRITERION {k} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, detail


def test_criterion_01_l_derivative_oracle():
    vs, dt = run_preset("lderivative-oracle")
    ok = (
        vs["max_gap"].verdict == "PASS"
        and vs["max_gap"].value <= 1e-3
        and vs["decay_rate_spread"].verdict == "PASS"
        and dt < 5.0
    )
    report(1, "L-derivative oracle", ok,
           f"max_gap={vs['max_gap'].value:.3g}, "
           f"spread={vs['decay_rate_spread'].value:.3g}, {dt:.1f}s")


def test_criterion_02_ito_residual():
    vs, dt = run_preset("ito-residual-meanfield")
    ok = (
        vs["mean_residual"].verdict == "PASS"
        and vs["qv_ratio"].verdict == "PASS"
        and abs(vs["qv_ratio"].value - 1.0) <= 0.10
        and dt < 60.0
    )
    report(2, "Ito residual", ok,
           f"mean={vs['mean_residual'].value:.3g}, "
           f"qv_ratio={vs['qv_ratio'].value:.4f}, {dt:.1f}s")


def test_criterion_03_path_independence():
    fwd, t1 = run_preset("path-independence-forward")
    fls, t2 = run_preset("path-independence-falsified")
    ratio_fwd = fwd["rms_ratio"].value
    ratio_fls = fls["rms_ratio"].value
    ok = (
        fwd["rms_ratio"].verdict == "PASS"
        and 1.5 <= ratio_fwd <= 2.8
        and fls["rms_ratio"].verdict == "FAIL"
        and 0.9 <= ratio_fls <= 1.1
        and t1 + t2 < 60.0
    )
    report(3, "path independence", ok,
           f"forward_ratio={ratio_fwd:.3f}, falsified_ratio={ratio_fls:.3f}, "
           f"{t1 + t2:.1f}s")


def test_criterion_04_flow_property():
    vs, dt = run_preset("flow-property-ou")
    ok = vs["w2_gap"].verdict == "PASS" and vs["w2_gap"].value <= 0.05 and dt < 30.0
    report(4, "flow property", ok, f"w2_gap={vs['w2_gap'].value:.4f}, {dt:.1f}s")


def test_criterion_05_feynman_kac_heat():
    vs, dt = run_preset("feynman-kac-heat")
    ok = all(v.verdict == "PASS" for v in vs.values()) and len(vs) == 6 and dt < 30.0
    worst = max(abs(v.value) for v in vs.values())
    report(5, "Feynman-Kac heat kernel", ok,
           f"{len(vs)} probes, worst_gap={worst:.3g}, {dt:.1f}s")


def test_criterion_06_log_transform():
    vs, dt = run_preset("feynman-kac-log-gauss")
    ok = all(v.verdict == "PASS" for v in vs.values()) and len(vs) == 6 and dt < 30.0
    worst = max(abs(v.value) for v in vs.values())
    report(6, "log transform", ok,
           f"{len(vs)} probes, worst_gap={worst:.3g}, {dt:.1f}s")


def test_criterion_07_nonlinear_pde_residual():
    vs, dt = run_preset("pde-residual-nonlinear")
    frac = vs["pass_fraction"].value
    ok = vs["pass_fraction"].verdict == "PASS" and frac >= 0.95 and dt < 60.0
    report(7, "nonlinear PDE residual", ok,
           f"pass_fraction={frac:.2f}, {dt:.1f}s")


def test_criterion_08_girsanov():
    vs, dt = run_preset("girsanov-risk-neutral")
    ok = (
        vs["weight_mean_err"].verdict == "PASS"
        and vs["riskneutral_drift"].verdict == "PASS"
        and vs["novikov_gap"].verdict == "PASS"
        and vs["novikov_gap"].value <= 1e-10
        and dt < 30.0
    )
    report(8, "Girsanov reweighting", ok,
           f"weight_err={vs['weight_mean_err'].value:.3g}, "
           f"drift={vs['riskneutral_drift'].value:.3g}, "
           f"novikov_gap={vs['novikov_gap'].value:.3g}, {dt:.1f}s")


def test_criterion_09_w2_exactness():
    vs, dt = run_preset("w2-selftest")
    ok = vs["max_gap"].verdict == "PASS" and vs["max_gap"].value <= 1e-12 and dt < 5.0
    report(9, "W2 exactness", ok, f"max_gap={vs['max_gap'].value:.3g}, {dt:.1f}s")


def test_criterion_10_generator_identity():
    vs, dt = run_preset("npy-identity")
    ok = vs["max_gap"].verdict == "PASS" and vs["max_gap"].value <= 1e-10 and dt < 5.0
    report(10, "generator identity", ok, f"max_gap={vs['max_gap'].value:.3g}, {dt:.1f}s")
