import hashlib
import importlib.util
import re
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from mfsde.cli import PRESETS, SCENARIOS, main, parse_config, run_scenario
from mfsde.cli import _FLOAT_PREFIXES, _SCENARIOS, _SCHEMA
from mfsde.errors import ConfigError, SimulationError


MINIMAL_ITO = """
scenario = ito_residual
coeff.id = brownian
coeff.s = 1
V.outer = x_norm_sq
N = 10
T = 1
dt = 0.25
"""

SUMMARY_LINE = re.compile(r"^\S+ \S+ [a-z_]+=[-+0-9.einf]+ (PASS|FAIL)$")


# ---------------------------------------------------------------------------
# parsing


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL_ITO)
    assert cfg.scenario == "ito_residual"
    assert cfg.seed == 0
    assert cfg.get("M") == 1
    assert cfg.get("s") == 0.0
    assert cfg.dt_levels == (0.25,)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config(MINIMAL_ITO + "\n# trailing comment\n\nseed = 5  # inline\n")
    assert cfg.seed == 5


def test_dt_ladder_levels():
    cfg = parse_config(
        MINIMAL_ITO.replace("scenario = ito_residual", "scenario = path_independence")
        .replace("dt = 0.25", "dt_ladder = 1e-2, 5e-3, 2.5e-3")
    )
    assert cfg.dt_levels == (1e-2, 5e-3, 2.5e-3)


def test_dt_must_divide_horizon():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL_ITO.replace("dt = 0.25", "dt = 0.3"))
    assert any("'dt'" in v and "horizon" in v for v in exc.value.violations)


def test_all_violations_collected():
    bad = """
scenario = nope
coeff.id = mystery
N = lots
dt = 0.3
T = 1
unknown_key = 1
"""
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    text = "\n".join(exc.value.violations)
    assert "'scenario'" in text
    assert "'coeff.id'" in text
    assert "'N'" in text
    assert "unknown_key" in text
    assert len(exc.value.violations) >= 4


def test_unparseable_required_key_reported_once():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL_ITO.replace("T = 1", "T = soon"))
    assert exc.value.violations == ["key 'T': expected a finite number, got 'soon'"]


def test_duplicate_key_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL_ITO + "N = 20\n")
    assert any("duplicate key 'N'" in v and "line" in v for v in exc.value.violations)


def test_missing_required_keys_named():
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = girsanov\n")
    text = "\n".join(exc.value.violations)
    # M is defaulted during parsing and so is never reported missing
    for key in ("coeff.id", "g.kind", "g.value", "T", "dt"):
        assert f"'{key}'" in text


@pytest.mark.parametrize(
    "text, seed",
    [
        (MINIMAL_ITO, -3),
        (MINIMAL_ITO, 2**64),
        # every config leaves room for flow_property's seed + 3
        (MINIMAL_ITO, 2**64 - 3),
        # six probes derive seeds up to seed + 101 * 5
        (PRESETS["feynman-kac-heat"], 2**64 - 505),
    ],
)
def test_seed_outside_uint64_rejected(text, seed):
    text = "\n".join(line for line in text.splitlines() if not line.startswith("seed"))
    with pytest.raises(ConfigError) as exc:
        parse_config(text + f"\nseed = {seed}\n")
    assert any("key 'seed'" in v for v in exc.value.violations)


def test_largest_seed_accepted():
    assert parse_config(MINIMAL_ITO + f"seed = {2**64 - 4}\n").seed == 2**64 - 4


def test_times_must_be_increasing_and_aligned():
    base = """
scenario = flow_property
coeff.id = ou
N = 10
dt = 0.25
"""
    with pytest.raises(ConfigError):
        parse_config(base + "times = 0, 1, 0.5\n")
    with pytest.raises(ConfigError):
        parse_config(base + "times = 0, 0.3, 1\n")
    cfg = parse_config(base + "times = 0, 0.5, 1\n")
    assert cfg.get("times") == (0.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# presets


def test_every_preset_parses():
    for name, text in PRESETS.items():
        cfg = parse_config(text)
        assert cfg.scenario in SCENARIOS, name


def test_presets_cover_every_scenario():
    covered = {parse_config(text).scenario for text in PRESETS.values()}
    assert covered == set(SCENARIOS)


# ---------------------------------------------------------------------------
# running


def test_run_scenario_writes_summary_and_passes(tmp_path):
    cfg = parse_config(PRESETS["w2-selftest"])
    status = run_scenario(cfg, str(tmp_path))
    assert status == 0
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert lines
    for line in lines:
        assert SUMMARY_LINE.match(line), line
        assert line.endswith("PASS")


def test_falsified_preset_exits_nonzero(tmp_path):
    cfg = parse_config(PRESETS["path-independence-falsified"])
    status = run_scenario(cfg, str(tmp_path))
    assert status == 1
    summary = (tmp_path / "summary.txt").read_text()
    assert "FAIL" in summary


def test_csv_byte_identical_across_reruns(tmp_path):
    cfg = parse_config(PRESETS["w2-selftest"])
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, str(a))
    run_scenario(cfg, str(b))
    csvs = sorted(p.name for p in a.glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (a / name).read_bytes() == (b / name).read_bytes()


# SHA-256 of every artifact of each preset that runs in about a second, and
# of the four slow Feynman-Kac presets at M = 2000 (see GOLDEN_REDUCED),
# recorded with numpy 2.4.6 and scipy 1.17.1; a change that is meant to keep
# outputs bit-identical must leave these untouched.  Every preset at full
# size is pinned by tests/golden_presets.txt, which CI diffs against the
# listing of scripts/run_all_presets.py
GOLDEN = {
    "feynman-kac-heat-M2000": {
        "feynman_kac_linear.csv": "c67eaa23b102d0b2dfe2736d5dc580b61ea9ef865177d84ea928ec948e17cb2d",
        "summary.txt": "27ee450f97454894123bd97a457bf3860d67b50a113133fd299347414e7ac85c",
    },
    "feynman-kac-log-gauss-M2000": {
        "feynman_kac_log.csv": "3ab3a6c234c33da0559fdb8e4b0d7798faa3902e59a95fed69eabe750e8dd477",
        "summary.txt": "f9450df446b51898b193f821c305c5f653502fa94ef58f486523d4a76adf8f25",
    },
    "girsanov-risk-neutral-M2000": {
        "girsanov.csv": "2b965d18babb6bcabd93d51ccdb9291a40bec660353d52b8678c124b7fcced31",
        "summary.txt": "1e5cec6fbaeaba1e28001c7fcaa764e6aa60f4f1876b35541f8465b8ed320407",
    },
    "pde-residual-nonlinear-M2000": {
        "pde_residual.csv": "32a10354cd87008040d87f4e9d972d94e3c30004194e86d4f65fc63ed3acbbd8",
        "summary.txt": "021f0304c1234a778202af9704106c8717d1529751cc7bbecd3a17029477780d",
    },
    "feynman-kac-source-const": {
        "feynman_kac_source.csv": "669eded7fc170dcf577cd552fa79b898f1afd8902a144a5a2e602f2e1d689df0",
        "summary.txt": "ba94364a6f3bcea71ce77bc5566f2ace4629080fe7a0a4e3cc9eb77b391d7f4f",
    },
    "flow-property-ou": {
        "flow_property.csv": "d843ff680458ebec88a5712bc5e0828b1c1c6be1c076c404dc68d1893d933d5e",
        "summary.txt": "96028a9f32156cd4478d0169830ef9660c22d57525bc7a8fe781e431bcdc98d7",
    },
    "ito-residual-meanfield": {
        "ito_residual.csv": "d6a831de9d2d4092ed84f788008edfa9514424a27a6ea2df442ce1b5c3f1bbc2",
        "summary.txt": "738bf21082d3409027b529f860f592d8aa1e5b266b52c09d64fcc38ff599c6c2",
    },
    "lderivative-oracle": {
        "lderivative_check.csv": "847c510021b8569d9d3c339d8272870cb6be9e55853cc92a55acbe21a26b2a14",
        "summary.txt": "12b17962ed00b12cfacfdfc958c1f44edc907a7140737813c4878e6adb6d3346",
    },
    "npy-identity": {
        "npy_identity.csv": "f8c1211287c11a450d10f16e10d0bc10c792bf4e45ec5c0f3adc738c0b269d76",
        "summary.txt": "fd44ed9ce90731ce8305a3f6bc1d5cd290bd19b8fe2f425b2639b08b5f5198af",
    },
    "path-independence-falsified": {
        "path_independence.csv": "694b162de660eadf525f7135576a91ebd4121cb4e4b18c8ba7b1e1567ea1c2ab",
        "summary.txt": "a2b199827211721dae63f515e0bc622b1c986473445fb3d08059fb5380499181",
    },
    "path-independence-forward": {
        "path_independence.csv": "f58f16a14bc38bc54aa68f0a2aed3ceef150d21ae6c5bb84f4337074017ce437",
        "summary.txt": "15b8144ebb1d6533c769ca0117bab3ddca4dc29a25d3ae7d51b237fb572e0950",
    },
    "w2-selftest": {
        "summary.txt": "09b4e66bae3ab60a32b84ca13aa237867ace9d4987205af42c02968424a8a5b5",
        "w2_selftest.csv": "f7e6d7644edf7ee9f3708818cd2e29f65bb6936507b3143a75cdf75480fd0e0c",
    },
}


# cases pinned at a reduced size, case id -> (preset, key overrides); every
# other GOLDEN key is a preset run as shipped
GOLDEN_REDUCED = {
    "feynman-kac-heat-M2000": ("feynman-kac-heat", {"M": 2000}),
    "feynman-kac-log-gauss-M2000": ("feynman-kac-log-gauss", {"M": 2000}),
    "girsanov-risk-neutral-M2000": ("girsanov-risk-neutral", {"M": 2000}),
    "pde-residual-nonlinear-M2000": ("pde-residual-nonlinear", {"M": 2000}),
}


def _with_overrides(text, overrides):
    """Preset text with the value of each overridden key replaced, and each
    overridden key that the preset does not set appended."""
    lines, seen = [], set()
    for line in text.splitlines():
        key = line.partition("=")[0].strip()
        seen.add(key)
        lines.append(f"{key} = {overrides[key]}" if key in overrides else line)
    lines += [f"{key} = {value}" for key, value in overrides.items() if key not in seen]
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_preset_artifacts_match_golden_hashes(name, tmp_path):
    preset, overrides = GOLDEN_REDUCED.get(name, (name, {}))
    run_scenario(parse_config(_with_overrides(PRESETS[preset], overrides)), str(tmp_path))
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
        if p.suffix == ".csv" or p.name == "summary.txt"
    }
    assert digests == GOLDEN[name]


def test_seed_changes_output(tmp_path):
    cfg_a = parse_config(PRESETS["w2-selftest"])
    cfg_b = parse_config(PRESETS["w2-selftest"].replace("seed = 31", "seed = 77"))
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg_a, str(a))
    run_scenario(cfg_b, str(b))
    names = sorted(p.name for p in a.glob("*.csv"))
    assert any((a / n).read_bytes() != (b / n).read_bytes() for n in names)


# ---------------------------------------------------------------------------
# entry point


def test_main_list_presets(capsys):
    assert main(["--list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_main_requires_exactly_one_source():
    with pytest.raises(SystemExit):
        main([])


def test_main_rejects_unknown_preset():
    with pytest.raises(SystemExit):
        main(["--preset", "no-such-preset"])


def test_main_config_file_and_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "w2.cfg"
    cfg_path.write_text(PRESETS["w2-selftest"])
    status = main(["--config", str(cfg_path), "--seed", "99", "--out", str(tmp_path / "out")])
    assert status == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(SUMMARY_LINE.match(line) for line in out)


def test_main_negative_seed_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "neg.cfg"
    cfg_path.write_text(MINIMAL_ITO + "seed = -3\n")
    status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert status == 2
    assert "key 'seed'" in capsys.readouterr().err


MINIMAL_FK = """
scenario = feynman_kac_linear
coeff.id = brownian
Phi.outer = x_norm_sq
T = 1
dt = 0.25
probes.t = 0
probes.x = 0
"""


def _fk_config(tmp_path, **counts):
    path = tmp_path / "fk.cfg"
    path.write_text(MINIMAL_FK + "".join(f"{k} = {v}\n" for k, v in counts.items()))
    return str(path)


def test_minimal_fk_config_runs(tmp_path):
    assert main(["--config", _fk_config(tmp_path, M=8), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("key, value", [("M", 0), ("M", -5), ("n_flow", 1), ("N", 1)])
def test_main_count_below_bound_exits_2(key, value, tmp_path, capsys):
    counts = {"M": 8, key: value}
    status = main(["--config", _fk_config(tmp_path, **counts), "--out", str(tmp_path / "out")])
    assert status == 2
    assert f"key '{key}': must be at least" in capsys.readouterr().err


def test_main_reports_config_errors(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("scenario = ito_residual\ndt = 0.3\nT = 1\n")
    status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize(
    "preset, key, value",
    [
        ("feynman-kac-heat", "probes.t", ""),
        ("w2-selftest", "n_instances", "0"),
        ("w2-selftest", "max_atoms", "0"),
        ("w2-selftest", "max_dim", "0"),
        ("npy-identity", "n_probes", "0"),
        ("npy-identity", "d", "0"),
        ("path-independence-forward", "dt_ladder", ""),
        ("lderivative-oracle", "eps_ladder", ""),
        ("lderivative-oracle", "n_atoms", "0"),
        ("ito-residual-meanfield", "init.x", ""),
        ("ito-residual-meanfield", "init.x", "0, 1"),
        ("feynman-kac-log-gauss", "beta", "0"),
        ("feynman-kac-heat", "T", "nan"),
        ("feynman-kac-heat", "T", "inf"),
        ("feynman-kac-heat", "dt", "nan"),
        ("feynman-kac-heat", "dt", "inf"),
        ("feynman-kac-heat", "probes.x", "nan"),
        ("feynman-kac-log-gauss", "beta", "nan"),
        ("feynman-kac-source-const", "f.value", "nan"),
        ("ito-residual-meanfield", "init.x", "nan"),
        ("ito-residual-meanfield", "coeff.rate", "nan"),
        ("flow-property-ou", "init.scale", "nan"),
        ("lderivative-oracle", "eps_ladder", "1e-2, 0"),
        ("path-independence-forward", "dt_ladder", "1e-2, -2.5e-3"),
        ("path-independence-forward", "dt_ladder", "0"),
        ("girsanov-risk-neutral", "M", "1"),
        ("feynman-kac-source-const", "probes.t", "2"),
        ("pde-residual-nonlinear", "probes.t", "0, 1.5"),
        ("ito-residual-meanfield", "T", "0"),
        ("path-independence-forward", "T", "0"),
        ("girsanov-risk-neutral", "T", "0"),
        ("feynman-kac-source-const", "s", "0.305"),
        ("feynman-kac-source-const", "s", "0.5"),
        ("path-independence-falsified", "V.outer.i", "3"),
        ("path-independence-falsified", "V.outer.i", "0.5"),
        ("path-independence-falsified", "V.outer.i", "-1"),
        ("ito-residual-meanfield", "V.outer", "product"),
        ("path-independence-forward", "V.outer", "mean"),
        ("feynman-kac-heat", "Phi.outer", "square"),
        ("pde-residual-nonlinear", "pde", "source"),
        ("path-independence-forward", "dt", "0.5"),
        ("path-independence-forward", "coeff.sigma", "5"),
        ("path-independence-forward", "coeff.rate", "1"),
        ("path-independence-forward", "V.outer.c", "1"),
    ],
)
def test_main_empty_or_out_of_range_value_exits_2(preset, key, value, tmp_path, capsys):
    # each of these once ran to a vacuous PASS or died with a raw numpy or
    # Python error (exit 3)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_with_overrides(PRESETS[preset], {key: value}))
    status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert status == 2
    assert f"key '{key}'" in capsys.readouterr().err


def test_main_rejects_the_linear_inner_function_above_one_dimension(tmp_path, capsys):
    # its a = (1,) once met (N, 2) points inside matmul (exit 3)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_with_overrides(PRESETS["ito-residual-meanfield"],
                                        {"V.inner": "linear", "d": "2"}))
    status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert status == 2
    assert "key 'V.inner': the linear inner function" in capsys.readouterr().err


def test_main_rejects_s_where_it_is_not_read(tmp_path, capsys):
    # an unused s was once silently ignored, or blamed on dt for not
    # dividing the horizon T - s that the scenario never simulates
    for preset in ("feynman-kac-source-const", "flow-property-ou", "w2-selftest"):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(_with_overrides(PRESETS[preset], {"s": "0.305"}))
        status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert status == 2
        err = capsys.readouterr().err
        assert "key 's': scenario" in err and "does not read it" in err
        assert "key 'dt'" not in err
    assert parse_config(PRESETS["ito-residual-meanfield"] + "s = 0.5\n").get("s") == 0.5


@pytest.mark.parametrize(
    "preset, overrides",
    [
        ("path-independence-forward", {"M": "50"}),
        ("feynman-kac-heat", {"perturb_g": "1"}),
        ("girsanov-risk-neutral", {"closed_form": "heat"}),
        ("w2-selftest", {"T": "0.3", "dt": "0.07"}),
    ],
)
def test_main_rejects_a_key_the_scenario_does_not_read(preset, overrides, tmp_path, capsys):
    # each was once accepted and ignored, or blamed on dt for a horizon T - s
    # that the scenario never simulates
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_with_overrides(PRESETS[preset], overrides))
    status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    scenario = parse_config(PRESETS[preset]).scenario
    for key in overrides:
        assert f"key '{key}': scenario '{scenario}' does not read it" in err
    assert all("does not read it" in line for line in err.splitlines() if "key 'dt'" in line)


def test_scenario_declarations_agree_with_the_schema():
    # a key in only one of the two would be rejected on every config
    entries = [e for entry in _SCENARIOS.values() for e in (entry, *entry.by_check.values())]
    declared = {key for e in entries for need in e.reads for key in need.split("|")}
    prefixes = tuple(key for key in declared if key.endswith("."))
    for key in set(_SCHEMA) - {"scenario", "seed"}:
        assert key in declared or key.startswith(prefixes), key
    for key in declared:
        if key.endswith("."):
            assert key.startswith(_FLOAT_PREFIXES) or any(k.startswith(key) for k in _SCHEMA), key
        else:
            assert key in _SCHEMA or key.startswith(_FLOAT_PREFIXES), key


@pytest.mark.parametrize(
    "preset, overrides, key",
    [
        ("ito-residual-meanfield", {"T": "1e9"}, "T"),
        ("girsanov-risk-neutral", {"dt": "1e-6"}, "T"),
        ("path-independence-forward", {"dt_ladder": "1e-2, 1e-7"}, "T"),
        ("flow-property-ou", {"dt": "1e-7"}, "times"),
        ("feynman-kac-heat", {"T": "1e5", "probes.t": "0"}, "T"),
    ],
)
def test_main_rejects_a_run_too_large_to_allocate(preset, overrides, key, tmp_path, capsys):
    # T = 1e9 once reached numpy's "Unable to allocate 7.28 TiB" (exit 3)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_with_overrides(PRESETS[preset], overrides))
    status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert f"key '{key}': a span of" in err and "a run may allocate up front" in err
    assert not (tmp_path / "out").exists()


def test_size_bound_counts_the_gaussian_initial_sample():
    # N = 1e9 once parsed, and its run drew 8 GB of initial points before its
    # first step; the check itself allocates nothing of that size
    text = _with_overrides(PRESETS["feynman-kac-heat"],
                           {"init.kind": "gaussian", "N": "1000000000"})
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [v for v in exc.value.violations if v.startswith("key 'N': an initial sample")]
    assert parse_config(_with_overrides(text, {"N": "1000"})).get("N") == 1000


def test_size_bound_accepts_every_preset_benchmark_op_and_large_path_count(monkeypatch):
    for text in PRESETS.values():
        parse_config(text)
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    for ops in workloads.WORKLOADS.values():
        for op in ops:
            if op.preset is not None:
                parse_config(workloads.config_text(PRESETS[op.preset], op.overrides, 0))
    # the decoupled paths are drawn in chunks, so M alone never trips the bound
    # (scripts/rss_scaling.py runs this config)
    parse_config(_with_overrides(PRESETS["feynman-kac-heat"], {"M": "1000000"}))


@pytest.mark.parametrize(
    "ladder, message",
    [
        ("1e-2, -2.5e-3", "key 'dt_ladder': must be at least 0, got -0.0025"),
        ("1e-2, 3e-3", "key 'dt_ladder': 0.003 does not divide the horizon"),
    ],
)
def test_main_names_dt_ladder_for_a_bad_level(ladder, message, tmp_path, capsys):
    # a bad ladder level was once reported under key 'dt', which the config
    # does not set
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_with_overrides(PRESETS["path-independence-forward"], {"dt_ladder": ladder}))
    status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert message in err
    assert "key 'dt'" not in err


def test_main_probe_off_the_step_grid_exits_2(tmp_path, capsys):
    # with dt = 1 the probe at t = 0.5 lies between grid points; the config
    # check once passed it and the run died in the library (exit 3)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_with_overrides(PRESETS["feynman-kac-heat"], {"dt": "1"}))
    status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert "key 'probes.t': probe time 0.5 is not on the grid of dt = 1" in err
    assert "probe time 0 " not in err


def test_feynman_kac_grid_ends_at_T_and_starts_at_each_probe():
    # a Feynman-Kac run steps from each probe time t to T, so dt need only
    # divide each T - t; it was once also required to divide T itself
    text = _with_overrides(PRESETS["feynman-kac-heat"], {"dt": "0.3", "probes.t": "0.4"})
    assert parse_config(text).dt_levels == (0.3,)


def test_npy_identity_runs_in_two_dimensions(tmp_path):
    # its linear inner function was once sized for d = 1 only (exit 3)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_with_overrides(PRESETS["npy-identity"], {"d": "2"}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) in (0, 1)


def test_main_seed_override_keeps_line_numbers(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("scenario = w2_selftest\nseed = 1\nn_instances = 2\nnot a pair\n")
    for extra in ([], ["--seed", "9"]):
        status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), *extra])
        assert status == 2
        assert "line 4: expected key=value" in capsys.readouterr().err
    assert parse_config(PRESETS["w2-selftest"], seed=9).seed == 9


def test_main_rejects_eps_key(tmp_path, capsys):
    cfg_path = tmp_path / "eps.cfg"
    cfg_path.write_text(PRESETS["w2-selftest"] + "eps = 0.5\n")
    status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert status == 2
    assert "key 'eps': unknown configuration key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset, key, value",
    [
        ("ito-residual-meanfield", "dt", "1e9"),
        ("girsanov-risk-neutral", "dt", "1e9"),
        ("path-independence-forward", "dt_ladder", "1e9"),
        ("path-independence-falsified", "dt_ladder", "1e9"),
        ("pde-residual-nonlinear", "dt", "1e9"),
        ("flow-property-ou", "dt", "1e9"),
        ("lderivative-oracle", "eps_ladder", "1e9"),
        ("girsanov-risk-neutral", "g.value", "1e9"),
        ("girsanov-risk-neutral", "g.value", "37.63"),
    ],
)
def test_main_zero_step_grid_and_overflowing_config_exit_2(preset, key, value, tmp_path, capsys):
    # a step longer than the horizon once passed as a zero-step grid, a huge
    # eps_ladder broke the log outer and a huge g.value overflowed exp (exit 3
    # or a nan verdict with RuntimeWarnings)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_with_overrides(PRESETS[preset], {key: value}))
    status = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert status == 2
    assert f"key '{key}'" in capsys.readouterr().err


# the values each key of each preset is set to in turn by the edge-value scan,
# on presets shrunk to these counts where they set them
EDGE_VALUES = ("0", "-1", "1e-9", "1e9")
EDGE_SHRINK = {"M": "64", "N": "16", "n_flow": "8", "n_probes": "2", "n_atoms": "10",
               "n_instances": "5"}


def test_edge_value_scan_never_reaches_a_generic_error(tmp_path):
    # a config fault must exit 2 (ConfigError) and a run must end in a verdict
    # (0 or 1) or a SimulationError that names its step and particle, never
    # in any other error
    for name, text in sorted(PRESETS.items()):
        keys = [line.partition("=")[0].strip() for line in text.strip().splitlines()]
        shrunk = _with_overrides(text, {k: v for k, v in EDGE_SHRINK.items() if k in keys})
        for key, value in product(keys, EDGE_VALUES):
            try:
                cfg = parse_config(_with_overrides(shrunk, {key: value}))
            except ConfigError:
                continue
            try:
                assert run_scenario(cfg, str(tmp_path)) in (0, 1)
            except SimulationError as exc:
                assert exc.step is not None and exc.particle is not None, (name, key, value)
