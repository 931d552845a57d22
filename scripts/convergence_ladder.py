#!/usr/bin/env python3
"""Path-independence defect decay across a step-size ladder.

Builds the pair (f, g) from a potential through the generator, simulates
interacting particles at several step sizes, and prints the RMS defect of
the accumulated functional against the potential increment together with
the fitted decay order.  A genuine pair shows order about one half; pass
--perturb to add a constant to g and watch the defect bottom out at a
dt-independent floor instead.
"""

import argparse

from mfsde import (
    StreamedFlow,
    build_pair_from_V,
    dirac,
    make_coefficients,
    make_cylindrical,
    verify_path_independence,
)


def run(args):
    coeff = make_coefficients("brownian", s=1.0)
    V = make_cylindrical(args.potential)
    f, g = build_pair_from_V(coeff, V)
    if args.perturb:
        g_base = g

        def g(t, X, mu):  # noqa: F811 - deliberate perturbation of the pair
            return g_base(t, X, mu) + args.perturb

    dts = [args.dt0 / 2**k for k in range(args.levels)]
    # each level is simulated while the verifier folds it, and never recorded
    flows = (
        StreamedFlow(coeff, dirac([0.0]), args.n, args.T, dt, seed=args.seed + k)
        for k, dt in enumerate(dts)
    )
    report = verify_path_independence(V, f, g, flows, 0.0, args.T)
    print(f"{'dt':>10} {'rms_defect':>12} {'order':>7} {'verdict':>8}")
    for row in report.rows:
        order = "" if row.decay_order is None else f"{row.decay_order:.2f}"
        print(f"{row.dt:>10g} {row.rms_defect:>12.4e} {order:>7} {row.verdict:>8}")
    print(f"defect floor: {report.defect_floor:.4e}  overall: {report.verdict}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--potential", default="x_norm_sq",
                        help="cylindrical potential name (e.g. x_norm_sq, coord)")
    parser.add_argument("--n", type=int, default=2000, help="particles per level")
    parser.add_argument("--T", type=float, default=1.0, help="horizon")
    parser.add_argument("--dt0", type=float, default=1e-2, help="coarsest step")
    parser.add_argument("--levels", type=int, default=3, help="ladder depth")
    parser.add_argument("--perturb", type=float, default=0.0,
                        help="constant added to g to break the identity")
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    run(parse_args())
