"""One benchmark operation: a fresh interpreter that runs one csmasim command.

    python3 op.py --src SRC --record OUT.json [--trace SPANS.npz] -- CLI ARGS

Imports csmasim from SRC, calls `csmasim.cli.main(CLI ARGS)` and writes a JSON
record of what it saw: when set-up ended (the first return of the CLI's
config or graph loader), the host time of each epoch `run_experiment`
yielded, the chain events `simulate` produced, the largest schedule family
enumerated, peak RSS and any uncaught exception.  With --trace it also
records a span around every public csmasim function and saves them to
SPANS.npz when the command ends.
The exit code is the command's, or 1 for an uncaught exception.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path

import tracing

clock = tracing.clock


class Probe:
    """Counters that cost one call per epoch; on in every run, traced or not."""

    def __init__(self):
        self.setup_end: float | None = None
        self.epoch_gaps: list[float] = []
        self.engine_s = 0.0
        self.sim_time = 0.0
        self.events = 0
        self.family_size = 0

    def mark_setup(self, fn):
        def loaded(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.setup_end is None:
                self.setup_end = clock()
            return result
        return loaded

    def time_epochs(self, fn):
        def epochs(*args, **kwargs):
            inner = fn(*args, **kwargs)
            last = None
            while True:
                before = clock()
                try:
                    record = next(inner)
                except StopIteration:
                    return
                after = clock()
                self.engine_s += after - before
                self.epoch_gaps.append(after - (before if last is None else last))
                self.sim_time += record.epoch_length
                last = after
                yield record
        return epochs

    def count_events(self, fn):
        def simulate(*args, **kwargs):
            traj = fn(*args, **kwargs)
            self.events += int(traj.times.size)
            return traj
        return simulate

    def family(self, fn):
        def enumerate_sets(*args, **kwargs):
            family = fn(*args, **kwargs)
            self.family_size = max(self.family_size, family.size)
            return family
        return enumerate_sets


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    import csmasim
    import csmasim.cli as cli
    from csmasim import (chain, config, conflict_graph, congestion, engine, gibbs,
                         scheduling, simplex, traffic)

    probe = Probe()
    record = {"csmasim": str(Path(csmasim.__file__).resolve().parent),
              "exception": None}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install([csmasim, cli, chain, config, conflict_graph, congestion,
                        engine, gibbs, scheduling, simplex, traffic])
    cli.load_config = probe.mark_setup(cli.load_config)
    cli._load_graph = probe.mark_setup(cli._load_graph)
    cli.run_experiment = probe.time_epochs(cli.run_experiment)
    engine.simulate = probe.count_events(engine.simulate)
    for module in (cli, engine, gibbs):
        module.enumerate_independent_sets = probe.family(module.enumerate_independent_sets)

    code = 0
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught exception is a failed operation
        traceback.print_exc()
        record["exception"] = f"{type(exc).__name__}: {exc}"
        code = 1
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.save(args.trace)
        task_dir = "/proc/self/task"
        record.update(
            setup_end=probe.setup_end,
            epoch_gaps=probe.epoch_gaps,
            engine_s=probe.engine_s,
            sim_time=probe.sim_time,
            events=probe.events,
            family_size=probe.family_size,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            threads=len(os.listdir(task_dir)) if os.path.isdir(task_dir) else None,
        )
        Path(args.record).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
