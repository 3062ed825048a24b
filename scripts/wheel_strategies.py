#!/usr/bin/env python3
"""Compare the three wheel-compounding strategies, closed form vs Monte Carlo.

At one spin round per second: respinning everything until a perfect round
costs p**-N seconds on average, finishing wheels one at a time costs N/p, and
freezing successes costs the mean of the slowest wheel. The gap between the
first and the last is the whole case for selective retrying. A failure, such
as a run past a budget, exits 1 with the CLI's JSON error on stderr.

    python3 scripts/wheel_strategies.py --p 0.5 --wheels 2 4 8 12 --trials 100000
"""

import argparse
import sys

from hyperlab import tae
from hyperlab.cli import report_errors
from hyperlab.reporting import Table, emit_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=0.5)
    parser.add_argument("--wheels", type=int, nargs="+", default=[2, 4, 8, 12])
    parser.add_argument("--trials", type=int, default=10**5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    return report_errors(lambda: tabulate(args))


def tabulate(args) -> None:
    columns = ["wheels", "p"]
    for strategy in tae.WheelStrategy:
        columns += [f"case{int(strategy)}_{part}" for part in ("analytic", "mc_mean", "mc_stderr")]
    rows = []
    for n in args.wheels:
        row = [n, args.p]
        for strategy in tae.WheelStrategy:
            exp = tae.WheelExperiment(n, args.p, strategy,
                                      seed=args.seed + 100 * n + strategy)
            mean, stderr = tae.ashby_simulate(exp, args.trials)
            row += [tae.ashby_expected(exp)[0], mean, stderr]
        rows.append(row)

    emit_report(Table(columns, zip(*rows)), "csv", sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
