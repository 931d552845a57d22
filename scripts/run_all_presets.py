#!/usr/bin/env python3
"""Run every shipped CLI preset and summarize the verdicts.

Each preset writes its artifacts under <out>/<preset-name>/; the script
exits nonzero iff a preset other than the deliberate falsification run
fails.  The falsification preset is expected to FAIL and is reported as
"FAIL (expected)".  Under each preset line it prints the SHA-256 of every
artifact that preset wrote, so two runs compare with one ``diff``.
"""

import argparse
import hashlib
import os
import sys
import time

from mfsde.cli import PRESETS, main as cli_main

EXPECTED_FAIL = {"path-independence-falsified"}


def artifact_hashes(out_dir):
    """(relative path, SHA-256 hex digest) of every file under out_dir, sorted."""
    out = []
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out.append((os.path.relpath(path, out_dir), digest))
    return out


def run(out_root):
    bad = []
    for name in sorted(PRESETS):
        start = time.perf_counter()
        out_dir = f"{out_root}/{name}"
        status = cli_main(["--preset", name, "--out", out_dir])
        elapsed = time.perf_counter() - start
        expected = 1 if name in EXPECTED_FAIL else 0
        note = " (expected)" if name in EXPECTED_FAIL and status == 1 else ""
        print(f"== {name}: exit {status}{note}  [{elapsed:.1f}s]")
        for rel, digest in artifact_hashes(out_dir):
            print(f"   {digest}  {rel}")
        if status != expected:
            bad.append(name)
    if bad:
        print(f"unexpected outcomes: {', '.join(bad)}", file=sys.stderr)
        return 1
    print("all presets behaved as expected")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/presets", help="output root directory")
    sys.exit(run(parser.parse_args().out))
