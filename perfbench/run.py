"""csmasim benchmark: time `csmasim run` and `csmasim analyze` end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/csmasim`.  One client runs
the workload's operations in a closed loop, one at a time, each in a fresh
interpreter (perfbench/op.py), until S seconds have passed.  A repeat is the
workload's list of operations: one `csmasim run` of a fixed config at seed N,
or the twelve calls of the analyze sweep.  Every operation's output is
checked; a nonzero exit, an uncaught exception or a failed check makes it a
failed operation, which is still timed.  The gated times are scaled to a
reference host speed, measured by a fixed loop timed between operations.

With --trace 0 the last line of stdout gives the end-to-end metrics; the
lines before it give every metric with its unit and sample count, each
failure with its reason, fingerprints and provenance.  With --trace 1,
repeats alternate between traced and untraced, and the last line gives the
per-layer metrics: time per layer and function and counts, from spans around
csmasim's public functions, and the tracing overhead.

Work files go to perfbench/_work/<workload>, which each run clears.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import tracing
from workloads import WORKLOADS, Op, is_seed_failure

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
OP_SCRIPT = Path(__file__).resolve().parent / "op.py"

MIN_REPEATS = 2         # even past --seconds: compares output bytes, and traced with untraced
MIN_EPOCHS = 100        # even past --seconds: ten untraced epochs beyond epoch_ms_p90
STOP_STARTING_S = 140.0  # start no repeat after this; a run must end within 180 s
DEADLINE_S = 170.0      # operations still running then are killed and fail
BLAS_THREADS = 1        # one BLAS thread keeps runs steady on a shared machine
# The reference loop's time on the host the gated times are scaled to.  On a
# shared host the same work runs up to ~70% slower at some times than at
# others, for seconds to minutes.  Each operation's wall and set-up times are
# multiplied by REFERENCE_S over the mean of the loop's times just before and
# just after it, so the gated figures follow the program more than the host.
REFERENCE_S = 0.15

clock = tracing.clock

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("process", "cli", "config", "conflict_graph", "simplex", "gibbs",
          "chain", "traffic", "scheduling", "congestion", "engine")
TIMED = ("chain.simulate", "traffic.integrate_epoch", "traffic.empirical_rates",
         "traffic.sample_epoch_arrivals", "engine.run_experiment",
         "gibbs.service_rates", "congestion.best_responses",
         "congestion.solve_dual_optimum", "congestion.solve_utility_optimum",
         "gibbs.solve_backoff", "conflict_graph.is_strictly_admissible",
         "simplex.solve_standard_lp", "chain.chain_diagnostics",
         "chain.glauber_kernel", "chain.second_eigenvalue_modulus",
         "chain.conductance", "chain.mixing_time_estimate",
         "conflict_graph.enumerate_independent_sets", "config.load_config")
# a solver's iterations, counted as calls of the oracle its loop calls once per pass
ITERATIONS = {"congestion.solve_dual_optimum": "congestion.dual_gradient",
              "congestion.solve_utility_optimum": "conflict_graph.max_weight_independent_set",
              "gibbs.solve_backoff": "gibbs.log_likelihood_gradient"}
UPDATES = ("scheduling.update_diminishing", "scheduling.update_projected")
TRAFFIC = ("traffic.integrate_epoch", "traffic.empirical_rates",
           "traffic.sample_epoch_arrivals")
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{name}.s", "s") for name in TIMED]
    + [("scheduling.update.s", "s")]
    + [(f"{name}.iterations", "count") for name in ITERATIONS]
    + [("congestion.solve_dual_optimum.failed", "count"),
       ("chain.events", "count"), ("chain.events_per_s", "1/s"),
       ("traffic.us_per_event", "us"), ("engine.epochs", "count"),
       ("cli.bytes_written", "bytes"), ("conflict_graph.family_size", "count"),
       ("trace.run_s", "s"), ("trace.overhead_s", "s")])


@dataclass
class Outcome:
    """One operation as run, measured and checked."""

    op: Op
    wall: float
    setup: float | None
    record: dict
    failure: str | None
    info: dict
    bytes_written: int
    trace: dict | None
    scale: float = 1.0  # REFERENCE_S over the reference loop's time around this operation


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1].strip()[:200] if lines else ""


def run_op(op: Op, work: Path, timeout: float, trace_path: Path | None) -> Outcome:
    if op.out_dir is not None:
        shutil.rmtree(op.out_dir, ignore_errors=True)
    args = []
    if trace_path is not None:
        trace_path.unlink(missing_ok=True)  # a killed child saves none
        args = ["--trace", str(trace_path)]
    record_path = work / "record.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(OP_SCRIPT), "--src", str(SRC), "--record", str(record_path),
           *args, "--", *op.cli_args]
    started = clock()
    proc = subprocess.Popen(cmd, cwd=work, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    wall = clock() - started
    out, err = out.decode(errors="replace"), err.decode(errors="replace")
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    setup = None if record.get("setup_end") is None else record["setup_end"] - started
    info, failure = {}, None
    if code is None:
        failure = f"timeout after {timeout:.0f} s"
    elif record.get("exception"):
        failure = f"exception: {record['exception']}"[:300]
    elif code != 0:
        failure = f"exit {code}: {_last_line(err)}"
    else:
        try:
            info = op.verify(out, op.out_dir)
        except checks.CheckFailed as exc:
            failure = str(exc)[:300]
        except (OSError, LookupError, TypeError, ValueError) as exc:
            failure = f"check: malformed output: {type(exc).__name__}: {exc}"[:300]
    if op.out_dir is not None and op.out_dir.is_dir():
        written = sum(p.stat().st_size for p in op.out_dir.iterdir())
    else:
        written = len(out.encode())
    trace = None
    if trace_path is not None and trace_path.is_file():
        with np.load(trace_path) as spans:
            trace = tracing.summarize(spans, wall)
    return Outcome(op, wall, setup, record, failure, info, written, trace)


def _tail_quantile(samples: int) -> int | None:
    """Highest of p90/p75 with at least ten samples beyond it."""
    return next((q for q in (90, 75) if samples * (100 - q) >= 1000), None)


def reference_loop() -> float:
    """Seconds a fixed mix of interpreter and small-numpy work takes right now."""
    started = clock()
    acc, table = 0.0, {}
    for i in range(360_000):
        acc += (i * 0.5) % 7.0
        table[i & 511] = acc
    a = np.random.default_rng(0).random((64, 64))
    for _ in range(1800):
        a = np.tanh(a @ a.T * 0.01) + a * 0.5
    return clock() - started


def _per_op(repeats: list, seconds) -> list:
    """Mean over each repeat's operations of seconds(operation)."""
    return [sum(map(seconds, rep)) / len(rep) for rep in repeats]


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-operation means over the traced repeats; self times add up to trace.run_s."""
    ops = [o for rep in traced for o in rep if o.trace is not None]  # killed ones save none
    count = max(1, len(ops))

    def total(field: str, key: str) -> float:
        return sum(o.trace[field].get(key, 0) for o in ops)

    values = {f"{layer}.self_s": total("layer_self", layer) / count for layer in LAYERS}
    for name in TIMED:
        values[f"{name}.s"] = total("inclusive", name) / count
    values["scheduling.update.s"] = sum(total("inclusive", n) for n in UPDATES) / count
    for name, oracle in ITERATIONS.items():
        values[f"{name}.iterations"] = total("calls", oracle) / count
    values["congestion.solve_dual_optimum.failed"] = (
        total("failed", "congestion.solve_dual_optimum") / count)
    events = sum(o.record.get("events", 0) for o in ops)
    simulate_s = total("inclusive", "chain.simulate")
    values["chain.events"] = events / count
    values["chain.events_per_s"] = events / simulate_s if simulate_s else 0.0
    values["traffic.us_per_event"] = (
        1e6 * sum(total("inclusive", n) for n in TRAFFIC) / events if events else 0.0)
    values["engine.epochs"] = sum(len(o.record.get("epoch_gaps", [])) for o in ops) / count
    values["cli.bytes_written"] = sum(o.bytes_written for o in ops) / count
    values["conflict_graph.family_size"] = (
        sum(o.record.get("family_size", 0) for o in ops) / count)
    values["trace.run_s"] = sum(o.wall for o in ops) / count
    plain = [o for rep in untraced for o in rep]
    values["trace.overhead_s"] = values["trace.run_s"] - sum(o.wall for o in plain) / len(plain)
    return values


def provenance(outcomes: list) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "csmasim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    threads = [o.record.get("threads") for o in outcomes if o.record.get("threads")]
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": BLAS_THREADS,
            "child_threads_max": max(threads) if threads else None}


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = WORK / workload_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = WORKLOADS[workload_name](work, seed)
    began = clock()

    # warm-up, not counted: bytecode and page cache
    imported = run_op(ops[0], work, DEADLINE_S / 2, None).record.get("csmasim", "")
    if not imported.startswith(str(SRC.resolve())):
        raise RuntimeError(f"csmasim was imported from {imported or 'nowhere'}, not {SRC}")

    repeats, traced, untraced = [], [], []
    references = [reference_loop()]
    loop_start = clock()
    first_digest: dict = {}
    while True:
        rep_start = clock()
        tracing_this = trace and len(repeats) % 2 == 0
        rep = []
        for i, op in enumerate(ops):
            timeout = max(1.0, DEADLINE_S - (clock() - began))
            trace_path = work / f"spans-{i}.npz" if tracing_this else None
            outcome = run_op(op, work, timeout, trace_path)
            references.append(reference_loop())
            outcome.scale = 2.0 * REFERENCE_S / (references[-2] + references[-1])
            if outcome.failure is None:
                digest = outcome.info["digest"]
                if first_digest.setdefault(op.name, digest) != digest:
                    outcome.failure = "check: output bytes differ from the first repeat"
            rep.append(outcome)
        repeats.append(rep)
        (traced if tracing_this else untraced).append(rep)
        now = clock()
        if now - began > DEADLINE_S:
            break
        epochs = sum(len(o.record.get("epoch_gaps", [])) for r in untraced for o in r)
        if now - began + (now - rep_start) > STOP_STARTING_S:
            break
        if (len(repeats) >= MIN_REPEATS and now - loop_start >= seconds
                and (epochs == 0 or epochs >= MIN_EPOCHS)):
            break

    outcomes = [o for rep in repeats for o in rep]
    plain_ops = [o for rep in untraced for o in rep]
    setups = [o.setup * o.scale for o in plain_ops if o.setup is not None]
    if not setups:
        raise RuntimeError("no untraced operation got through loading its input")
    failures = [o for o in outcomes if o.failure is not None]
    unexpected = [o for o in failures if not is_seed_failure(o.op.name, o.failure)]
    per_repeat = _per_op(untraced, lambda o: o.wall * o.scale)
    raw_wall = statistics.median(_per_op(untraced, lambda o: o.wall))
    raw_setup = statistics.median(o.setup for o in plain_ops if o.setup is not None)

    lines = [f"workload {workload_name}  seed {seed}  trace {int(trace)}  "
             f"repeats {len(repeats)} ({len(traced)} traced)  operations {len(outcomes)}"]
    metrics = {
        "run_s": statistics.median(per_repeat),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(
            max(o.record.get("rss_mb", 0.0) for o in rep) for rep in untraced),
    }
    lines += [
        f"  run_s            {metrics['run_s']:.6f} s   wall per operation at reference "
        f"speed, median of {len(untraced)} untraced repeats: "
        + " ".join(f"{v:.4f}" for v in per_repeat),
        f"  setup_s          {metrics['setup_s']:.6f} s   spawn to loaded input at "
        f"reference speed, median of {len(setups)} set-ups",
        f"  host speed       reference loop {statistics.median(references):.4f} s "
        f"(median of {len(references)}; {REFERENCE_S:g} s at reference speed); unscaled "
        f"run_s {raw_wall:.6f} s, setup_s {raw_setup:.6f} s",
        f"  peak_rss_mb      {metrics['peak_rss_mb']:.3f} MB  largest per repeat, "
        f"median of {len(untraced)} repeats"]
    gaps = [1e3 * g for o in plain_ops for g in o.record.get("epoch_gaps", [])]
    if gaps:
        host = sum(o.record.get("engine_s", 0.0) for o in plain_ops)
        sim = sum(o.record.get("sim_time", 0.0) for o in plain_ops)
        lines += [
            f"  sim_units_per_s  {sim / host:.3f} 1/s  simulated time per host second "
            f"inside run_experiment, {sim:g} units",
            f"  epoch_ms_p50     {np.percentile(gaps, 50):.6f} ms  n={len(gaps)} epochs"]
        q = _tail_quantile(len(gaps))
        if q is not None:
            lines.append(f"  epoch_ms_p{q}     {np.percentile(gaps, q):.6f} ms  "
                         f"n={len(gaps)} epochs, {len(gaps) * (100 - q) // 100} beyond")
    else:
        lines.append("  sim_units_per_s, epoch_ms_*: no epochs ran")
    lines.append(f"  failed_share     {len(failures) / len(outcomes):.4f}     "
                 f"{len(failures)} of {len(outcomes)} operations")
    for o in failures:
        tag = "seed failure" if is_seed_failure(o.op.name, o.failure) else "UNEXPECTED"
        lines.append(f"  failed [{tag}] {o.op.name}: {o.failure}")

    if trace:
        values = layer_metrics(traced, untraced)
        units = dict(PER_LAYER)
        self_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        lines.append(f"  layer self times sum to {self_sum:.6f} s; "
                     f"traced run_s {values['trace.run_s']:.6f} s")
        lines += [f"  {name:44s} {values[name]:.6g} {units[name]}" for name, _ in PER_LAYER]
        metrics = values
        units_of = units
    else:
        units_of = END_TO_END

    passed = [o for o in outcomes if o.failure is None]
    drives = sorted({json.dumps(o.info["final_drive"]) for o in passed
                     if o.info["final_drive"] is not None})
    fingerprint = {"workload": workload_name, "seed": seed,
                   "chain.events": sorted({o.record["events"] for o in passed}),
                   "final_drive_sha256": [hashlib.sha256(d.encode()).hexdigest()
                                          for d in drives],
                   "final_drive": [json.loads(d) for d in drives if len(d) < 400]}
    lines.append("fingerprint " + json.dumps(fingerprint))
    lines.append("provenance " + json.dumps(provenance(outcomes), sort_keys=True))
    print("\n".join(lines))
    return {"correct": not unexpected, "attempted": len(outcomes), "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units_of[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "csmasim" / "cli.py").is_file():
        print(f"error: no csmasim sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
