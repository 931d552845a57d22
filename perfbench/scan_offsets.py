#!/usr/bin/env python3
"""List the seed offsets under which every op of every workload passes.

    python3 perfbench/scan_offsets.py --first 0 --count 30

Runs each workload once per offset k (op seeds = preset seeds + 1000 * k) in
a fresh child process and prints one line per offset, then the tuple of
passing offsets to paste into ``workloads.SEED_OFFSETS``.  Takes about 10 s
per offset on a 2-core host.
"""

from __future__ import annotations

import argparse
import time

import run
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--count", type=int, default=30)
    args = parser.parse_args()
    passing = []
    for k in range(args.first, args.first + args.count):
        failures = []
        for name in workloads.WORKLOADS:
            rep = run.spawn(name, workloads.SEED_STRIDE * k, run.RUNS / "scan" / name,
                            time.monotonic() + run.DEADLINE_S)
            failures += [f"{op['name']}: {op['failure']}" for op in rep["ops"] if op["failure"]]
        print(k, "; ".join(failures) or "ok", flush=True)
        if not failures:
            passing.append(k)
    print(f"SEED_OFFSETS = {tuple(passing)}")


if __name__ == "__main__":
    main()
