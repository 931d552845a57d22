import importlib.util
from pathlib import Path

import mfsde.cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_cost_prints_one_row_per_case(capsys):
    step_cost = load_script("step_cost")
    # the decoupled cases step K columns of one sampler chunk, as the sampler does
    assert {paths for scheme, *_, paths in step_cost.CASES if scheme == "decoupled"} == {
        step_cost.CHUNK}
    cases = [("decoupled", "brownian", 1, 2, 8), ("decoupled", "mean_revert", 2, 2, 8),
             ("interacting", "brownian", 1, 1, 8)]
    noise_cases = [("decoupled", step_cost.DOMAIN_DECOUPLED, 1030),
                   ("interacting", step_cost.DOMAIN_INTERACTING, 8)]
    step_cost.report(cases=cases, n_steps=2, reps=1, noise_cases=noise_cases, w2_points=64)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["scheme", "field", "d", "m", "K", "paths", "us_per_step"]
    assert len(lines) == (1 + len(cases) + 2 + len(noise_cases) + 2 + len(step_cost.W2_CASES)
                          + 2 + len(step_cost.FOLD_CASES))
    for line, (scheme, name, d, k, paths) in zip(lines[1:], cases):
        cells = line.split()
        assert cells[:6] == [scheme, name, str(d), str(d), str(k), str(paths)]
        assert float(cells[6]) > 0
    # a blank line, then the noise table: nanoseconds per normal per domain
    noise = lines[1 + len(cases):]
    assert noise[0] == ""
    assert noise[1].split() == ["domain", "paths", "steps", "ns_per_normal"]
    for line, (name, domain, paths) in zip(noise[2:], noise_cases):
        cells = line.split()
        assert cells[:3] == [name, str(paths), "2"]
        assert float(cells[3]) > 0
    # another blank line, then the W2 table: milliseconds per call per case
    w2 = noise[2 + len(noise_cases):]
    assert w2[0] == ""
    assert w2[1].split() == ["w2_case", "points", "d", "ms_per_call"]
    for line, (name, _) in zip(w2[2:], step_cost.W2_CASES):
        cells = line.split()
        assert cells[:3] == [name, "64", "2"]
        assert float(cells[3]) > 0
    # a third blank line, then the fold table: microseconds per step per case
    fold = w2[2 + len(step_cost.W2_CASES):]
    assert fold[0] == ""
    assert fold[1].split() == ["fold", "field", "V", "paths", "us_per_step"]
    assert [line.split()[0] for line in fold[2:]] == [case[0] for case in step_cost.FOLD_CASES]
    for line in fold[2:]:
        assert float(line.split()[4]) > 0


def test_rss_scaling_replaces_only_the_checked_key():
    rss_scaling = load_script("rss_scaling")
    for preset, key, small, large in rss_scaling.CHECKS:
        base = rss_scaling.PRESETS[preset].strip().splitlines()
        for value in (small, large):
            lines = rss_scaling.config_text(preset, key, value).splitlines()
            changed = [(a, b) for a, b in zip(base, lines) if a != b]
            assert len(lines) == len(base)
            assert [b for _, b in changed] == [f"{key} = {value}"] * len(changed)
            assert f"{key} = {value}" in lines


#: the names the perfbench tracer spans that the package no longer defines
TRACER_MISSING = [
    "mfsde.cli.simulate_mckean_vlasov", "mfsde.dynamics.simulate_mckean_vlasov",
    "mfsde.feynman_kac.simulate_mckean_vlasov", "mfsde.dynamics.simulate_decoupled",
    "mfsde.feynman_kac.simulate_decoupled", "mfsde.cli.generator_parts",
    "mfsde.cli.girsanov_weight", "mfsde.cli.novikov_estimate", "mfsde.cli.solve_linear",
    "mfsde.cli.solve_with_source", "mfsde.cli.solve_log_transform",
]


def test_perfbench_tracer_installs_and_uninstalls():
    # the tracer patches some names unconditionally, so a deleted one makes
    # every traced benchmark run die on install
    spec = importlib.util.spec_from_file_location(
        "tracing", SCRIPTS.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = [mfsde.calculus, mfsde.cli, mfsde.dynamics, mfsde.feynman_kac, mfsde.functionals,
              mfsde.generator, mfsde.measure, mfsde.calculus.CylindricalFunction,
              mfsde.feynman_kac.McValueFunction, mfsde.measure.EmpiricalMeasure]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == TRACER_MISSING
        assert mfsde.dynamics.particle_stream is not before[2]["particle_stream"]
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
