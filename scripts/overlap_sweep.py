#!/usr/bin/env python3
"""Sweep the schedule length T and watch the ground-state overlap climb.

For a slow enough schedule the final state should concentrate on the problem
operator's ground level; this script makes that trend visible for any small
polynomial document. The overlap is the summed population of every lattice
point where D**2 is minimal, so a degenerate ground level counts whole. The
evolution keeps one amplitude per level and needs no numpy; the exact ground
energy and minimisers come from the exact oracle. A failure, such as a lattice
past the budget or more minimisers than the oracle may list, exits 1 with the
CLI's JSON error on stderr.

    python3 scripts/overlap_sweep.py fixtures/x_minus_2.json --cutoff 4 \
        --times 1 5 25 125 --dt 0.01
"""

import argparse
import sys

from hyperlab import aqc
from hyperlab.cli import load_json, report_errors
from hyperlab.reporting import emit_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("polynomial", help="polynomial document (JSON)")
    parser.add_argument("--cutoff", type=int, default=4)
    parser.add_argument("--times", type=float, nargs="+",
                        default=[1.0, 5.0, 25.0, 125.0])
    parser.add_argument("--dt", type=float, default=0.01)
    args = parser.parse_args()
    return report_errors(lambda: sweep(args))


def sweep(args) -> None:
    poly = aqc.parse_polynomial(load_json(args.polynomial))
    scan = aqc.scan_levels(poly, args.cutoff)
    energy, minimizers = aqc.exact_ground_oracle(poly, args.cutoff)

    rows = []
    for total_time in args.times:
        result = aqc.evolve_from_uniform(scan, total_time, args.dt)
        populations = [abs(c) ** 2 for c in result.amplitudes]
        rows.append({
            "total_time": total_time,
            # level 0 holds exactly the minimisers
            "ground_overlap": populations[0] / sum(populations),
            "norm_drift": result.norm_drift,
            "steps": result.steps,
        })

    emit_report({
        "cutoff": args.cutoff,
        "dt": args.dt,
        "exact_ground_energy": energy,
        "exact_minimizers": [list(w) for w in minimizers],
        "sweep": rows,
    }, "json", sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
