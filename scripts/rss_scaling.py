#!/usr/bin/env python3
"""Check that the Monte Carlo solvers' peak memory stays flat in the path count M.

Runs the ``feynman-kac-heat`` preset through the CLI at M = 1e5 and at
M = 1e6, each in its own child process, reads each child's peak resident
set size (``ru_maxrss``) and exits 1 when the larger run peaks more than
MAX_RATIO times higher than the smaller one (2 when a run fails).

    PYTHONPATH=src python scripts/rss_scaling.py
"""

import os
import subprocess
import sys
import tempfile

from mfsde.cli import PRESETS

PRESET = "feynman-kac-heat"
SMALL, LARGE = 100_000, 1_000_000
MAX_RATIO = 1.10


def config_text(M):
    """The preset's config with M replaced."""
    lines = PRESETS[PRESET].strip().splitlines()
    return "\n".join(f"M = {M}" if line.startswith("M =") else line for line in lines) + "\n"


def peak_rss_mb(M, work_dir):
    """Peak RSS in MB of one CLI run of the preset at M paths; None if it fails."""
    config = os.path.join(work_dir, f"M{M}.cfg")
    with open(config, "w") as fh:
        fh.write(config_text(M))
    cmd = [sys.executable, "-m", "mfsde.cli", "--config", config,
           "--out", os.path.join(work_dir, f"M{M}")]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # wait4 reaps this child alone and returns its own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    # exit 1 is a statistical verdict that failed after a complete run
    if code not in (0, 1):
        print(f"{PRESET} at M = {M} exited {code}", file=sys.stderr)
        return None
    return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def main():
    with tempfile.TemporaryDirectory() as work_dir:
        peaks = {M: peak_rss_mb(M, work_dir) for M in (SMALL, LARGE)}
    if None in peaks.values():
        return 2
    ratio = peaks[LARGE] / peaks[SMALL]
    ok = ratio <= MAX_RATIO
    print(f"{PRESET}: peak RSS {peaks[SMALL]:.1f} MB at M = {SMALL}, "
          f"{peaks[LARGE]:.1f} MB at M = {LARGE}, ratio {ratio:.3f} "
          f"(limit {MAX_RATIO}) {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
