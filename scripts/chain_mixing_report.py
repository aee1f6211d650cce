#!/usr/bin/env python3
"""Spectral and bottleneck diagnostics for the schedule chain.

Prints, for each preset and drive level, the second-eigenvalue modulus of
the single-site kernel, its conductance with the Cheeger ceiling
1 - phi^2/2, and the two mixing-time estimates at the requested accuracy.
A drive level whose diagnostics cannot be computed (past the exhaustive-cut
cap, or numerically unresolved) prints one skip line with the reason.

    python3 scripts/chain_mixing_report.py --drives 0.0 0.5 1.5 --delta 0.01
"""
import argparse

import numpy as np

from csmasim.chain import chain_diagnostics
from csmasim.conflict_graph import PRESETS, enumerate_independent_sets, preset
from csmasim.errors import ExactModeUnavailable, NumericFailure


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graphs", nargs="+", default=sorted(PRESETS))
    parser.add_argument("--drives", type=float, nargs="+", default=[0.0, 0.5])
    parser.add_argument("--delta", type=float, default=0.01)
    args = parser.parse_args()

    print(f"{'graph':>8} {'r':>5} {'|I|':>4} {'lam_max':>9} {'phi':>7} "
          f"{'ceiling':>9} {'t_spec':>9} {'t_crude':>11}")
    for name in args.graphs:
        family = enumerate_independent_sets(preset(name))
        for level in args.drives:
            drive = np.full(family.n, level)
            try:
                diag = chain_diagnostics(family, drive, delta=args.delta)
            except (ExactModeUnavailable, NumericFailure) as exc:
                print(f"{name:>8} {level:5.2f} {family.size:4d} skipped: {exc}")
                continue
            print(f"{name:>8} {level:5.2f} {family.size:4d} {diag.lambda_max:9.5f} "
                  f"{diag.conductance:7.4f} {diag.cheeger_upper:9.5f} "
                  f"{diag.mixing_estimate:9.3f} {diag.mixing_worst_case:11.4g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
