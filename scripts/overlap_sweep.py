#!/usr/bin/env python3
"""Sweep the schedule length T and watch the ground-state overlap climb.

For a slow enough schedule the final state should concentrate on the problem
operator's ground level; this script makes that trend visible for any small
polynomial document. The overlap is the summed population of every lattice
point where D**2 is minimal, so a degenerate ground level counts whole. A
failure, such as a lattice past the budget, exits 1 with the CLI's JSON error
on stderr.

    python3 scripts/overlap_sweep.py fixtures/x_minus_2.json --cutoff 4 \
        --times 1 5 25 125 --dt 0.01
"""

import argparse
import json
import sys

import numpy as np

from hyperlab import aqc
from hyperlab.cli import report_errors
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
    with open(args.polynomial, encoding="utf-8") as fh:
        poly = aqc.parse_polynomial(json.load(fh))
    space = aqc.TruncatedFockSpace(poly.num_vars, args.cutoff)
    h_p = aqc.build_problem_hamiltonian(poly, space)
    start = aqc.uniform_ket(space)
    energy, winners = aqc.exact_ground_oracle(poly, args.cutoff)
    ground = [space.index_of(w) for w in winners]

    rows = []
    for total_time in args.times:
        problem = aqc.AdiabaticProblem(
            space=space, h_problem=h_p, total_time=total_time, dt=args.dt)
        result = aqc.evolve(problem, start)
        overlap = float(np.sum(np.abs(result.state[ground]) ** 2))
        rows.append({
            "total_time": total_time,
            "ground_overlap": overlap,
            "norm_drift": result.norm_drift,
            "steps": result.steps,
        })

    emit_report({
        "cutoff": args.cutoff,
        "dt": args.dt,
        "exact_ground_energy": energy,
        "exact_minimizers": [list(w) for w in winners],
        "sweep": rows,
    }, "json", sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
