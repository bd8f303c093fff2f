#!/usr/bin/env python3
"""Reproduce the difference-quotient exponent table for the kinked profile.

For each p the script fits the growth rate of || grad u(.+v) - grad u ||_q
on the analytic gradient of u = |x1|^{p'}/p' and writes one row per
(p, q, kind) cell next to its predicted value.

    python3 scripts/exponent_table.py [--nodes 4097] [--delta 0.125] \
        [--out exponent-table.csv]
"""

import argparse
import math

from plapreg.experiments import run_theorem1_check
from plapreg.fields import write_table


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, default=4097)
    ap.add_argument("--delta", type=float, default=0.125)
    ap.add_argument("--out", type=str, default="exponent-table.csv")
    args = ap.parse_args()

    print(f"{'p':>4} {'q':>8} {'kind':18} {'target':>8} {'fitted':>8} "
          f"{'r2':>9} verdict")
    rows = []
    for p in (3.0, 4.0, 5.0):
        rep = run_theorem1_check(p, nodes=args.nodes, delta=args.delta, include_qinf=True)
        for c in rep.cells:
            qs = "inf" if math.isinf(c.q) else f"{c.q:.4g}"
            print(f"{c.p:4g} {qs:>8} {c.kind:18} {c.theta_target:8.4f} "
                  f"{c.theta_hat:8.4f} {c.r2:9.6f} {c.verdict}")
            rows.append([c.p, qs, c.kind, c.theta_target, c.theta_hat,
                         c.r2, c.verdict])

    write_table(args.out, ["p", "q", "kind", "theta_target", "theta_hat", "r2", "verdict"],
                rows)
    print(f"\nwrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
