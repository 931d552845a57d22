#!/usr/bin/env python3
"""Check that the Monte Carlo solvers' peak memory stays flat in the path
count M and in the step count.

Runs each preset of CHECKS through the CLI at a smaller and a larger value
of one key (M = 1e5 and 1e6, or dt = 1e-2 and 1e-3), each in its own child
process, reads each child's peak resident set size (``ru_maxrss``) and exits
1 when a preset's larger run peaks more than MAX_RATIO times higher than its
smaller one (2 when a run fails).

    PYTHONPATH=src python scripts/rss_scaling.py
"""

import os
import subprocess
import sys
import tempfile

from mfsde.cli import PRESETS

#: (preset, key, smaller run's value, larger run's value): a Feynman-Kac
#: table of six probes and a residual table of 42 stencil columns in M, and
#: the six probes again over ten times the steps
CHECKS = (
    ("feynman-kac-heat", "M", "100000", "1000000"),
    ("pde-residual-nonlinear", "M", "100000", "1000000"),
    ("feynman-kac-heat", "dt", "1e-2", "1e-3"),
)
MAX_RATIO = 1.10


def config_text(preset, key, value):
    """The preset's config with the value of ``key`` replaced."""
    lines = PRESETS[preset].strip().splitlines()
    return "\n".join(f"{key} = {value}" if line.partition("=")[0].strip() == key else line
                     for line in lines) + "\n"


def peak_rss_mb(preset, key, value, work_dir):
    """Peak RSS in MB of one CLI run of the preset at key = value; None if it fails."""
    name = f"{preset}-{key}{value}"
    config = os.path.join(work_dir, f"{name}.cfg")
    with open(config, "w") as fh:
        fh.write(config_text(preset, key, value))
    cmd = [sys.executable, "-m", "mfsde.cli", "--config", config,
           "--out", os.path.join(work_dir, name)]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # wait4 reaps this child alone and returns its own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    # exit 1 is a statistical verdict that failed after a complete run
    if code not in (0, 1):
        print(f"{preset} at {key} = {value} exited {code}", file=sys.stderr)
        return None
    return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def main():
    status = 0
    for preset, key, small, large in CHECKS:
        with tempfile.TemporaryDirectory() as work_dir:
            peaks = {value: peak_rss_mb(preset, key, value, work_dir) for value in (small, large)}
        if None in peaks.values():
            return 2
        ratio = peaks[large] / peaks[small]
        ok = ratio <= MAX_RATIO
        print(f"{preset}: peak RSS {peaks[small]:.1f} MB at {key} = {small}, "
              f"{peaks[large]:.1f} MB at {key} = {large}, ratio {ratio:.3f} "
              f"(limit {MAX_RATIO}) {'PASS' if ok else 'FAIL'}")
        if not ok:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
