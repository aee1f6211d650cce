#!/usr/bin/env python3
"""Print a sha256 digest of every output of a fixed list of commands.

Two checkouts whose printed lines are equal write byte-identical run files,
summaries and analyze reports on this list; manifests are hashed without
their timestamps and output directory.  Each command runs in process through
`csmasim.cli.main`, in a temporary directory, with BLAS on one thread (set
before numpy loads) so that its reductions sum in one order.

    OPENBLAS_NUM_THREADS=1 python3 scripts/output_digests.py
"""
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from csmasim import cli

GRID4X4 = ("16\n" + "".join(f"{v} {v + 1}\n" for v in range(16) if v % 4 < 3)
           + "".join(f"{v} {v + 4}\n" for v in range(12)))
# symmetric capacities: 5/2 is cycle5's fractional chromatic number, and a
# grid is bipartite
CAPACITY = {"cycle5": 0.4, "grid3x3": 0.5, "grid4x4": 0.5}
VOLATILE = ("started", "finished", "output_dir")  # manifest keys that vary per run


def oracle(algorithm, graph, queued):
    config = {"version": 1, "graph": {"preset": graph}, "algorithm": algorithm,
              "mode": "deterministic-oracle", "horizon": 300}
    if algorithm.startswith("sched"):
        config["arrivals"] = {"kind": "scaled-bernoulli", "rates": 0.2}
    else:
        config["utilities"] = {"family": "log-shifted"}
    config["overrides"] = {
        "sched1": {}, "cc1": {"beta": 10.0},
        "sched2": {"epsilon": 0.2, "step": 0.1, "epoch_length": 10},
        "cc2": {"beta": 5.0, "step": 0.5, "epoch_length": 10}}[algorithm]
    if queued:
        config["initial_queue"] = 5.0
    return config


# (name, argv): a `run` argv holds its config as a dict in place of a path
COMMANDS = [
    *((f"oracle-{algorithm}-{graph}{'-queued' if queued else ''}",
       ["run", oracle(algorithm, graph, queued)])
      for algorithm in ("sched1", "sched2", "cc1", "cc2")
      for graph in ("cycle5", "clique2") for queued in (False, True)),
    # perfbench's oracle config: 5000 epochs in blocks of the oracle's queue kernel
    ("oracle-sched1-cycle5-long", ["run", {
        "version": 1, "graph": {"preset": "cycle5"}, "algorithm": "sched1",
        "mode": "deterministic-oracle", "horizon": 5000,
        "arrivals": {"kind": "scaled-bernoulli", "rates": 0.27},
        "overrides": {"epoch_length": 100}}]),
    # the published lengths, ceil(exp(sqrt(j))), pass 2**63 from epoch 1907
    ("oracle-sched1-cycle5-published", ["run", {
        "version": 1, "graph": {"preset": "cycle5"}, "algorithm": "sched1",
        "mode": "deterministic-oracle", "horizon": 2000,
        "arrivals": {"kind": "scaled-bernoulli", "rates": 0.2}}]),
    ("sched2-cycle5", ["run", {
        "version": 1, "graph": {"preset": "cycle5"}, "algorithm": "sched2", "horizon": 400,
        "seed": 1, "arrivals": {"kind": "scaled-bernoulli", "rates": 0.25},
        "overrides": {"epsilon": 0.2, "epoch_length": 200}}, "--seeds", "2"]),
    ("controlled-sched1-single", ["run", {
        "version": 1, "graph": {"preset": "single"}, "algorithm": "sched1", "horizon": 200,
        "seed": 1, "arrivals": {"kind": "controlled", "rates": 0.3},
        "overrides": {"epoch_length": 20}}]),
    ("stochastic-cc1-cycle5", ["run", {
        "version": 1, "graph": {"preset": "cycle5"}, "algorithm": "cc1", "horizon": 100,
        "seed": 3, "utilities": {"family": "log-shifted"},
        "overrides": {"beta": 10.0, "epoch_length": 20}}]),
    ("cc2-cycle100", ["run", {
        "version": 1, "graph": {"n": 100, "edges": [[i, (i + 1) % 100] for i in range(100)]},
        "algorithm": "cc2", "horizon": 25, "seed": 1, "utilities": {"family": "log-shifted"},
        "overrides": {"beta": 5, "step": 0.5, "epoch_length": 100}}]),
    *((f"analyze-{graph}-{case}", ["analyze", graph, *flags])
      for graph in ("cycle5", "grid3x3", "grid4x4")
      for case, flags in (
          ("lambda-0.9cap", ("--lambda", repr(0.9 * CAPACITY[graph]))),
          ("lambda-1.1cap", ("--lambda", repr(1.1 * CAPACITY[graph]))),
          ("log-shifted-beta-10", ("--utilities", "log-shifted", "--beta", "10")),
          ("log-shifted-epsilon-0.4", ("--utilities", "log-shifted", "--epsilon", "0.4")))),
    # nodes 1 and 3 ask for nothing, so the fit runs on the path 4-0 and node 2
    ("analyze-cycle5-masked", ["analyze", "cycle5", "--lambda", "0.3", "0", "0.45", "0", "0.2"]),
]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(name, argv, work: Path) -> list[tuple[str, str]]:
    """Run one command in `work`; (digest, name) of each output it writes."""
    if argv[0] == "run":
        config = work / f"{name}.json"
        config.write_text(json.dumps(argv[1]))
        out = work / name
        argv = ["run", str(config), *argv[2:], "--out", str(out)]
    else:
        out = None
        argv = [str(work / "grid4x4.txt") if a == "grid4x4" else a for a in argv]
    report = io.StringIO()
    with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{name} exited {code}")
    if out is None:
        return [(digest(report.getvalue().encode()), name)]
    lines = []
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name.endswith("-manifest.json"):
            manifest = json.loads(data)
            data = json.dumps({k: v for k, v in manifest.items() if k not in VOLATILE},
                              sort_keys=True).encode()
        lines.append((digest(data), path.name))
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "grid4x4.txt").write_text(GRID4X4)
        for name, argv in COMMANDS:
            for sha, label in run(name, argv, work):
                print(f"{sha}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
