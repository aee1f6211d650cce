"""The benchmark's four workloads: their inputs, operations and output checks.

A workload makes the list of operations that is one repeat.  Each operation
is one csmasim command in a fresh process; `verify` checks its output and
returns what the run reports about it.  The reference values the checks use
(symmetric capacities, the exact backoff fit) are computed here from the
benchmark's own copies of the graphs, not by csmasim.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import linprog, minimize

import checks


@dataclass(frozen=True)
class Op:
    name: str
    cli_args: tuple[str, ...]
    out_dir: Path | None                   # where `csmasim run` writes
    verify: Callable[[str, Path | None], dict]


# Operations that fail at the seed commit (arXiv:0907.1266's default entropy
# weight beta = 4n/eps at eps = 0.4), with the start of the reason each gives.
# They run, are timed and count as failed.  Any other failure, or one of
# these failing for another reason, marks the run incorrect.
SEED_FAILURES = {
    # solve_dual_optimum hits its 50k-iteration cap after ~6 s and ~11 s
    "grid3x3 log-shifted epsilon=0.4":
        "exit 3: numeric failure: dual descent hit the iteration cap",
    "grid4x4 log-shifted epsilon=0.4":
        "exit 3: numeric failure: dual descent hit the iteration cap",
    # cheeger_upper/conductance print as -Infinity/Infinity
    "cycle5 log-shifted epsilon=0.4": "non-finite JSON: -Infinity",
}


def is_seed_failure(op_name: str, reason: str) -> bool:
    expected = SEED_FAILURES.get(op_name)
    return expected is not None and reason.startswith(expected)


def cycle(n: int) -> list:
    return [(i, (i + 1) % n) for i in range(n)]


def grid(rows: int, cols: int) -> list:
    edges = []
    for i, j in itertools.product(range(rows), range(cols)):
        v = i * cols + j
        if j + 1 < cols:
            edges.append((v, v + 1))
        if i + 1 < rows:
            edges.append((v, v + cols))
    return edges


def schedules(n: int, edges) -> np.ndarray:
    """0/1 rows of every independent set, by brute force over all 2^n subsets."""
    masks = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(masks.size, dtype=bool)
    for i, j in edges:
        ok &= ((masks >> i) & 1) * ((masks >> j) & 1) == 0
    return ((masks[ok, None] >> np.arange(n)) & 1).astype(float)


def symmetric_capacity(matrix: np.ndarray) -> float:
    """Largest c with c*(1,...,1) in the convex hull of the schedules."""
    size, n = matrix.shape
    cost = np.zeros(size + 1)
    cost[-1] = -1.0
    a_ub = np.hstack([-matrix.T, np.ones((n, 1))])
    a_eq = np.hstack([np.ones((1, size)), np.zeros((1, 1))])
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * size + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"capacity LP failed: {res.message}")
    return float(res.x[-1])


def fitted_drive(matrix: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Drive r whose product-form law serves `rates`: argmin log Z(r) - rates.r."""
    def law(r):
        energy = matrix @ r
        weights = np.exp(energy - energy.max())
        return energy.max(), weights.sum(), weights / weights.sum()

    def objective(r):
        peak, z, probs = law(r)
        return peak + math.log(z) - rates @ r, probs @ matrix - rates

    def hessian(r):
        probs = law(r)[2]
        served = probs @ matrix
        return matrix.T @ (matrix * probs[:, None]) - np.outer(served, served)

    res = minimize(objective, np.zeros(matrix.shape[1]), jac=True, hess=hessian,
                   method="trust-exact", options={"gtol": 1e-12})
    if np.abs(res.jac).max() > 1e-9:
        raise RuntimeError(f"reference fit did not converge: {res.message}")
    return res.x


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_config(work: Path, stem: str, config: dict, seed: int, check_records) -> list:
    """One `csmasim run` of `config` at `seed`, verified by `check_records`."""
    config = dict(config, seed=seed)
    path = work / f"{stem}.json"
    path.write_text(json.dumps(config, indent=1))
    out = work / "out"

    def verify(_stdout: str, out_dir: Path) -> dict:
        jsonl = (out_dir / f"{stem}-seed{seed}.jsonl").read_bytes()
        records = checks.strict_jsonl(jsonl.decode())
        summary = checks.strict_json(
            (out_dir / f"{stem}-seed{seed}-summary.json").read_text())
        checks.strict_json((out_dir / f"{stem}-manifest.json").read_text())
        checks.check_epochs(records, config["horizon"])
        check_records(records, summary)
        return {"digest": _sha256(jsonl), "final_drive": records[-1]["drive"]}

    args = ("run", str(path), "--seed", str(seed), "--out", str(out))
    return [Op(stem, args, out, verify)]


SCHED2 = {
    "version": 1, "graph": {"preset": "cycle5"}, "algorithm": "sched2",
    "horizon": 400, "arrivals": {"kind": "scaled-bernoulli", "rates": 0.25},
    "overrides": {"epsilon": 0.2, "epoch_length": 200},
}


def sched2_cycle5(work: Path, seed: int) -> list:
    def check(records, summary):
        checks.check_sched2(records, summary, n=5, epsilon=0.2)
    return _run_config(work, "sched2-cycle5", SCHED2, seed, check)


CC2 = {
    "version": 1, "graph": {"n": 100, "edges": [list(e) for e in cycle(100)]},
    "algorithm": "cc2", "horizon": 25, "utilities": {"family": "log-shifted"},
    "overrides": {"beta": 5, "step": 0.5, "epoch_length": 100},
}


def cc2_cycle100(work: Path, seed: int) -> list:
    def check(records, _summary):
        # log(1 + y) has slope 1 at 0
        checks.check_cc2(records, beta=5.0, alpha=0.5, slope=1.0, length=100.0)
    return _run_config(work, "cc2-cycle100", CC2, seed, check)


ORACLE = {
    "version": 1, "graph": {"preset": "cycle5"}, "algorithm": "sched1",
    "mode": "deterministic-oracle", "horizon": 5000,
    "arrivals": {"kind": "scaled-bernoulli", "rates": 0.27},
    "overrides": {"epoch_length": 100},
}


def oracle_sched1_cycle5(work: Path, seed: int) -> list:
    target = fitted_drive(schedules(5, cycle(5)), np.full(5, 0.27))

    def check(records, _summary):
        checks.check_oracle(records, target)
    return _run_config(work, "oracle-sched1-cycle5", ORACLE, seed, check)


def analyze_sweep(work: Path, _seed: int) -> list:
    """12 `csmasim analyze` calls; the inputs do not depend on the seed."""
    grid4 = work / "grid4x4.txt"
    grid4.write_text("16\n" + "".join(f"{i} {j}\n" for i, j in grid(4, 4)))
    graphs = (("cycle5", "cycle5", 5, cycle(5)),
              ("grid3x3", "grid3x3", 9, grid(3, 3)),
              ("grid4x4", str(grid4), 16, grid(4, 4)))
    ops = []
    for label, source, n, edges in graphs:
        edge_set = {tuple(sorted(e)) for e in edges}
        capacity = symmetric_capacity(schedules(n, edges))
        cases = [(f"lambda={k}cap", ("--lambda", repr(k * capacity)), k * capacity, k < 1)
                 for k in (0.9, 1.1)]
        cases += [(f"log-shifted {flag}={value}",
                   ("--utilities", "log-shifted", f"--{flag}", value), None, None)
                  for flag, value in (("beta", "10"), ("epsilon", "0.4"))]
        for case, extra, rates, admissible in cases:
            def verify(stdout, _out_dir, edge_set=edge_set, rates=rates,
                       admissible=admissible):
                # the content is checked first, so a wrong report that also
                # holds Infinity fails as wrong and not as a seed failure
                checks.check_analyze(json.loads(stdout), edge_set, rates, admissible)
                checks.strict_json(stdout)
                return {"digest": _sha256(stdout.encode()), "final_drive": None}
            ops.append(Op(f"{label} {case}", ("analyze", source) + extra, None, verify))
    return ops


# name -> (work dir, seed) -> the operations of one repeat.  Why each
# workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sched2-cycle5": sched2_cycle5,
    "cc2-cycle100": cc2_cycle100,
    "oracle-sched1-cycle5": oracle_sched1_cycle5,
    "analyze-sweep": analyze_sweep,
}
