#!/usr/bin/env python3
"""Check that the Monte Carlo solvers' peak memory stays flat in the path count M.

Runs each preset of PRESET_NAMES through the CLI at M = 1e5 and at M = 1e6,
each in its own child process, reads each child's peak resident set size
(``ru_maxrss``) and exits 1 when a preset's larger run peaks more than
MAX_RATIO times higher than its smaller one (2 when a run fails).

    PYTHONPATH=src python scripts/rss_scaling.py
"""

import os
import subprocess
import sys
import tempfile

from mfsde.cli import PRESETS

#: a Feynman-Kac table of six probes, and a residual table of 42 stencil columns
PRESET_NAMES = ("feynman-kac-heat", "pde-residual-nonlinear")
SMALL, LARGE = 100_000, 1_000_000
MAX_RATIO = 1.10


def config_text(preset, M):
    """The preset's config with M replaced."""
    lines = PRESETS[preset].strip().splitlines()
    return "\n".join(f"M = {M}" if line.startswith("M =") else line for line in lines) + "\n"


def peak_rss_mb(preset, M, work_dir):
    """Peak RSS in MB of one CLI run of the preset at M paths; None if it fails."""
    config = os.path.join(work_dir, f"{preset}-M{M}.cfg")
    with open(config, "w") as fh:
        fh.write(config_text(preset, M))
    cmd = [sys.executable, "-m", "mfsde.cli", "--config", config,
           "--out", os.path.join(work_dir, f"{preset}-M{M}")]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # wait4 reaps this child alone and returns its own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    # exit 1 is a statistical verdict that failed after a complete run
    if code not in (0, 1):
        print(f"{preset} at M = {M} exited {code}", file=sys.stderr)
        return None
    return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def main():
    status = 0
    for preset in PRESET_NAMES:
        with tempfile.TemporaryDirectory() as work_dir:
            peaks = {M: peak_rss_mb(preset, M, work_dir) for M in (SMALL, LARGE)}
        if None in peaks.values():
            return 2
        ratio = peaks[LARGE] / peaks[SMALL]
        ok = ratio <= MAX_RATIO
        print(f"{preset}: peak RSS {peaks[SMALL]:.1f} MB at M = {SMALL}, "
              f"{peaks[LARGE]:.1f} MB at M = {LARGE}, ratio {ratio:.3f} "
              f"(limit {MAX_RATIO}) {'PASS' if ok else 'FAIL'}")
        if not ok:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
