#!/usr/bin/env python3
"""Benchmark for mfsde: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload fk_fresh_noise --seed 0 --seconds 35 --trace 0

Every timed rep runs the workload's op list in a fresh child process
(``child.py``), one child at a time, with BLAS/OpenMP threads capped.  Reps
repeat until ``--seconds`` is used up; each metric is the median over reps.
With ``--trace 1`` traced and untraced reps alternate, and the per-layer
metrics come from the traced ones.  The last line of standard output is one
JSON object; the lines before it give quartiles, sample counts, per-op walls,
artifact hashes and the acceptance-gate headroom.  A full report is written
under ``.perfbench_runs/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"

THREAD_CAP = 1  # at most nproc; one thread keeps reps comparable on a shared host
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_REPS = 3  # per kind of rep (untraced, traced)
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "particle_steps_per_s": "steps/s",
                    "peak_rss_mb": "MB", "setup_s": "s", "ops_ok_frac": "fraction"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to an op failing)."""


def spawn(workload, offset, out_dir, deadline, trace=False, setup_only=False):
    """Run one child rep to completion; return its result and its process wall."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_path = out_dir / "result.json"
    env = dict(os.environ, **{var: str(THREAD_CAP) for var in THREAD_VARS})
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", workload, "--offset", str(offset), "--spawned", repr(spawned),
           "--out", str(out_dir), "--result", str(result_path)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    with open(out_dir / "child.log", "w") as log:
        try:
            proc = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child rep exceeded the run deadline: {exc}") from exc
    if proc.returncode != 0 or not result_path.is_file():
        tail = (out_dir / "child.log").read_text()[-2000:]
        raise BenchError(f"child rep exited {proc.returncode}:\n{tail}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["process_s"] = time.monotonic() - spawned
    return result


def run_reps(workload, offset, seconds, trace, deadline):
    """Untraced (and, with ``trace``, alternating traced) reps filling ``seconds``."""
    base = RUNS / workload
    spawn(workload, offset, base / "warmup", deadline, setup_only=True)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        done = plain + traced
        elapsed = time.monotonic() - start
        typical = statistics.median(r["process_s"] for r in done) if done else 0.0
        enough = len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS)
        if enough and elapsed + typical / 2 >= seconds:
            break
        if time.monotonic() + 1.5 * typical > deadline:
            if not plain or (trace and not traced):
                raise BenchError("not even one rep of each kind fits in the run deadline")
            break
        if trace and len(traced) < len(plain):
            traced.append(spawn(workload, offset, base / "traced", deadline, trace=True))
        else:
            plain.append(spawn(workload, offset, base / "plain", deadline))
    return plain, traced


def judge(reps):
    """Count failed ops: wrong outcome, or artifacts differing from the first rep's."""
    failures = []
    reference = {op["name"]: op["hashes"] for op in reps[0]["ops"]}
    for i, rep in enumerate(reps):
        for op in rep["ops"]:
            reason = op["failure"]
            if reason is None and op["hashes"] != reference[op["name"]]:
                reason = "artifacts differ from the first rep at the same seed"
            if reason is not None:
                failures.append(f"rep {i} op {op['name']}: {reason}")
    attempted = sum(len(rep["ops"]) for rep in reps)
    return attempted, failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(plain, attempted, failed):
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "particle_steps_per_s": [
            sum(op["particle_steps"] for op in r["ops"]) / r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
    }
    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    metrics["ops_ok_frac"] = (attempted - failed) / attempted
    for name, vals in samples.items():
        q1, q2, q3 = quartiles(vals)
        print(f"{name}: median={q2:.6g} q1={q1:.6g} q3={q3:.6g} max={max(vals):.6g} "
              f"n={len(vals)} {END_TO_END_UNITS[name]}")
    print(f"ops_failed_frac: {failed / attempted:.6g} ({failed} of {attempted} ops)")
    return metrics


def per_layer(plain, traced):
    # counts repeat exactly across reps; the low median keeps them integers
    layers = {name: (statistics.median if name.endswith("_s") else statistics.median_low)(
        [r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    untraced = statistics.median(r["wall_s"] for r in plain)
    layers["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced) - untraced) / untraced
    selfs = {k: v for k, v in layers.items() if k.endswith("_s") and k != "functionals.girsanov_s"}
    top = max(selfs, key=selfs.get)
    print(f"largest self time: {top} = {selfs[top]:.4g} s of {untraced:.4g} s untraced wall "
          f"(n={len(traced)} traced, {len(plain)} untraced reps)")
    print(f"feynman_kac.frozen_flows = {layers['feynman_kac.frozen_flows']:g}")
    ladders = [(op["name"], op["time_steps"]) for op in traced[0]["ops"] if "time_steps" in op]
    for name, steps in ladders:
        calls = traced[0]["per_op"][name].get("generator.generator_parts", {}).get("calls", 0)
        print(f"{name}: generator.parts_calls={calls} for {steps} Euler steps "
              f"({calls / steps:g} per step)")
    if traced[0]["trace_missing"]:
        print(f"trace targets not found: {', '.join(traced[0]['trace_missing'])}")
    return layers


def op_summary(reps):
    """Print each op's median wall and hashes; return the 30 s gate headroom."""
    headroom = {}
    for i, op in enumerate(reps[0]["ops"]):
        wall = statistics.median(r["ops"][i]["wall_s"] for r in reps)
        digest = ",".join(f"{k}:{v[:12]}" for k, v in op["hashes"].items())
        print(f"op {op['name']}: wall median={wall:.4g} s n={len(reps)} "
              f"status={op['status']} sha256[{digest}]")
        if op["name"] in workloads.GATE_OPS:
            preset_wall = wall * workloads.GATE_PRESET_M / workloads.M_FRESH_NOISE
            headroom[op["name"]] = workloads.GATE_SECONDS / preset_wall
            print(f"gate {op['name']}: {preset_wall:.4g} s at M={workloads.GATE_PRESET_M} "
                  f"(extrapolated from M={workloads.M_FRESH_NOISE}), headroom "
                  f"{headroom[op['name']]:.3g}x against the {workloads.GATE_SECONDS:g} s gate")
    return headroom


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 reproduces the preset seeds")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "mfsde" / "__init__.py").is_file():
        print(f"error: no mfsde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    offset = workloads.op_seed_offset(args.seed)
    try:
        plain, traced = run_reps(args.workload, offset, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failures = judge(plain + traced)
    for line in failures:
        print(f"FAILED {line}")
    print(f"workload={args.workload} seed={args.seed} op_seed_offset={offset} "
          f"threads={THREAD_CAP} ({', '.join(THREAD_VARS)}) nproc={os.cpu_count()}")
    headroom = op_summary(plain)
    e2e = end_to_end(plain, attempted, len(failures))
    if args.trace:
        metrics = per_layer(plain, traced)
        units = {name: "count" for name in metrics}
        units.update({name: "s" for name in metrics if name.endswith("_s")})
        units["dynamics.ensemble_bytes_max"] = units["cli.csv_bytes"] = "bytes"
        units["trace.overhead_frac"] = "fraction"
    else:
        metrics, units = e2e, END_TO_END_UNITS
    report = {"workload": args.workload, "seed": args.seed, "op_seed_offset": offset,
              "threads": {var: THREAD_CAP for var in THREAD_VARS},
              "gate_headroom": headroom, "failures": failures,
              "end_to_end": e2e, "metrics": metrics, "plain": plain, "traced": traced}
    with open(RUNS / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
