#!/usr/bin/env python3
"""Sweep offered load on one graph and watch the stability knee.

For each load factor the symmetric arrival vector is load times the
symmetric capacity (the largest rate every node can get at once), run
under the diminishing-step scheduler.  Inside the capacity region the
backlog ratio max_i Q_i(t)/t falls toward zero and the drive vector settles
near the fitted fixed point; past the boundary the ratio stays bounded away
from zero.

    python3 scripts/rate_stability_sweep.py --graph cycle5 \
        --loads 0.5 0.7 0.9 1.1 --epochs 1500 --seed 1
"""
import argparse

import numpy as np

from csmasim.conflict_graph import (enumerate_independent_sets, is_strictly_admissible,
                                    preset)
from csmasim.engine import ExperimentConfig, run_experiment
from csmasim.errors import InfeasibleRates
from csmasim.gibbs import solve_backoff
from csmasim.traffic import ArrivalSpec


def uniform_capacity_share(family) -> float:
    """Largest symmetric per-node rate in the hull: the LP slack at zero rates."""
    return is_strictly_admissible(family, np.zeros(family.n)).slack


def run_leg(graph, rates, epochs, epoch_length, seed):
    config = ExperimentConfig(
        graph=graph, algorithm="sched1", horizon=epochs,
        arrivals=ArrivalSpec(kind="scaled-bernoulli", rates=list(rates)),
        epoch_length=epoch_length, seed=seed)
    last = None
    for last in run_experiment(config):
        pass
    return last


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", default="cycle5")
    parser.add_argument("--loads", type=float, nargs="+",
                        default=[0.5, 0.7, 0.9, 1.05, 1.2])
    parser.add_argument("--epochs", type=int, default=1500)
    parser.add_argument("--epoch-length", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    graph = preset(args.graph)
    family = enumerate_independent_sets(graph)
    share = uniform_capacity_share(family)
    print(f"{args.graph}: n={graph.n}, |schedules|={family.size}, "
          f"symmetric capacity {share:.4f} per node")
    print(f"{'load':>6} {'rate':>8} {'Q/t':>10} {'|r - r*|':>10}  note")

    for load in args.loads:
        rate = load * share
        last = run_leg(graph, np.full(graph.n, rate), args.epochs,
                       args.epoch_length, args.seed)
        try:
            target = solve_backoff(family, np.full(graph.n, rate)).r
            err = f"{np.abs(np.asarray(last.drive) - target).max():10.4f}"
            note = "stable" if last.max_queue_ratio < 0.05 else "backlogged"
        except InfeasibleRates:
            err = f"{'-':>10}"
            note = "outside capacity region"
        print(f"{load:6.2f} {rate:8.4f} {last.max_queue_ratio:10.4f} {err}  {note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
