"""One cold-start rep of a workload, in a fresh process.

Usage (started by ``run.py``, not by hand):

    python3 perfbench/child.py --root DIR --workload NAME --offset K
        --spawned T --out DIR --result FILE [--trace] [--setup-only]

``--spawned`` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time covers the interpreter start, ``import mfsde``
and config parsing.  The result (timings, peak RSS, per-op outcomes and
artifact hashes, and with ``--trace`` the per-layer metrics) is written as
JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import workloads


def _import_mfsde(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import mfsde.cli

    where = os.path.dirname(os.path.dirname(os.path.abspath(mfsde.cli.__file__)))
    if os.path.realpath(where) != os.path.realpath(src):
        raise SystemExit(f"mfsde imported from {where}, expected the checkout's {src}")
    return mfsde.cli


def _prepare(cli, workload, offset):
    """Parse every op's config; return [(op, cfg or None)]."""
    prepared = []
    for op in workloads.WORKLOADS[workload]:
        if op.preset is None:
            prepared.append((op, None))
            continue
        text = workloads.config_text(cli.PRESETS[op.preset], op.overrides, offset)
        prepared.append((op, cli.parse_config(text)))
    return prepared


def _run_op(cli, op, cfg, out_dir, offset):
    """Run one op; return (exit status, extra facts for the correctness check)."""
    if cfg is None:
        return _run_w2_translate(offset)
    try:
        return cli.run_scenario(cfg, out_dir), {}
    except Exception as exc:  # noqa: BLE001 - same boundary as the CLI: exit 3
        return 3, {"error": f"{type(exc).__name__}: {exc}"}


def _run_w2_translate(offset):
    import numpy as np

    import mfsde.measure

    rng = np.random.default_rng(workloads.W2_BASE_SEED + offset)
    cloud = rng.standard_normal((workloads.W2_POINTS, workloads.W2_DIM))
    direction = rng.standard_normal(workloads.W2_DIM)
    shift = workloads.W2_SHIFT * direction / np.linalg.norm(direction)
    mu = mfsde.measure.EmpiricalMeasure(cloud)
    nu = mfsde.measure.EmpiricalMeasure(cloud + shift)
    value = mfsde.measure.wasserstein2(mu, nu)
    gap = abs(value - float(np.linalg.norm(shift)))
    return (0 if gap <= workloads.W2_TOL else 1), {"w2": repr(value), "w2_gap": gap}


def _check(op, status, out_dir, extra):
    """Expected outcome of one op: None if met, else the reason."""
    if "error" in extra:
        return extra["error"]
    if status != op.expect_exit:
        return f"exit {status}, expected {op.expect_exit}"
    if op.preset is None:
        return None
    with open(os.path.join(out_dir, "summary.txt")) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    if not lines:
        return "empty summary.txt"
    for parts in lines:
        verdict = parts[-1]
        want = "FAIL" if op.expect_fail_anchor == parts[0] else "PASS"
        if verdict != want:
            return f"verdict {' '.join(parts)}, expected {want}"
    if op.expect_fail_anchor and not any(p[0] == op.expect_fail_anchor for p in lines):
        return f"no {op.expect_fail_anchor} verdict"
    return None


def _hashes(out_dir, extra):
    if "w2" in extra:
        return {"w2": hashlib.sha256(extra["w2"].encode()).hexdigest()}
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv") or name == "summary.txt":
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--offset", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = _import_mfsde(args.root)
    prepared = _prepare(cli, args.workload, args.offset)
    out_dirs = {op.name: os.path.join(args.out, op.name) for op, _ in prepared}
    for path in out_dirs.values():
        os.makedirs(path, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "ops": []}
    if not args.setup_only:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        for op, cfg in prepared:
            if tracer is not None:
                tracer.op = op.name
                span = tracer.begin("op")
            t0 = time.perf_counter()
            status, extra = _run_op(cli, op, cfg, out_dirs[op.name], args.offset)
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(span)
            result["ops"].append({"name": op.name, "status": status, "wall_s": wall,
                                  "extra": extra})
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            result["per_op"] = tracer.per_op()
            result["trace_missing"] = tracer.missing
            tracer.write_spans(os.path.join(args.out, "spans.json"))
        for entry, (op, cfg) in zip(result["ops"], prepared):
            out_dir = out_dirs[op.name]
            entry["failure"] = _check(op, entry["status"], out_dir, entry["extra"])
            entry["hashes"] = _hashes(out_dir, entry["extra"])
            if cfg is not None:
                entry["particle_steps"] = workloads.particle_steps(cfg.values)
                if cfg.scenario == "path_independence":
                    entry["time_steps"] = workloads.time_steps(cfg.values)
            else:
                entry["particle_steps"] = 0
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
