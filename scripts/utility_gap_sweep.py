#!/usr/bin/env python3
"""Entropy-weight sweep: price-based rates against the utility optimum.

Solves the exact dual fixed point for each beta and compares the achieved
total utility with the polytope optimum from the away-step ascent.  The gap
must sit under log(|schedules|)/beta, so doubling beta halves the ceiling.

    python3 scripts/utility_gap_sweep.py --graph cycle5 --betas 5 10 20 40 80
"""
import argparse

from csmasim.conflict_graph import enumerate_independent_sets, preset
from csmasim.congestion import (UtilityFunction, solve_dual_optimum,
                                utility_gap_certificate)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", default="clique2")
    parser.add_argument("--betas", type=float, nargs="+",
                        default=[5.0, 10.0, 20.0, 40.0, 80.0])
    parser.add_argument("--family", default="log-shifted",
                        choices=("log-shifted", "weighted-log-shifted"))
    args = parser.parse_args()

    graph = preset(args.graph)
    family = enumerate_independent_sets(graph)
    utilities = (UtilityFunction(family=args.family),) * graph.n
    print(f"{args.graph}: |schedules|={family.size}, utility={args.family}")
    print(f"{'beta':>8} {'gap':>12} {'bound':>12} {'max price':>10} {'rate[0]':>9}")

    for beta in args.betas:
        dual = solve_dual_optimum(family, utilities, beta)
        cert = utility_gap_certificate(family, utilities, beta, dual.rates, dual.residual)
        if not cert.holds():
            raise SystemExit(f"beta {beta:g}: gap {cert.gap:.3e} is not certified by its "
                             f"bound {cert.bound:.3e} with residual error {cert.error:.3e}")
        print(f"{beta:8.1f} {cert.gap:12.3e} {cert.bound:12.3e} "
              f"{dual.prices.max():10.4f} {dual.rates[0]:9.5f}")
    print("optimal rates:", [round(float(v), 5) for v in cert.optimal_rates])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
