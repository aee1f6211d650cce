"""Command-line front end: run experiments, analyze graphs, list presets.

Exit codes: 0 success, 2 configuration and usage problems (README's refusal
table states each one `run` makes), 3 numeric failures (overflow,
non-convergence, violated runtime invariants), 130 on an interrupt (SIGINT,
Ctrl-C), 141 when stdout is a pipe closed before the report was written.
Reports go to stdout as JSON; diagnostics and errors go to stderr.

Output directory resolution for `run`: --out flag, then the CSMASIM_OUT
environment variable, then the config's "output" field, then ./runs.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chain import chain_diagnostics
from .config import _broadcast, _parse_utilities, load_config
from .conflict_graph import (PRESETS, enumerate_independent_sets,
                             is_strictly_admissible, preset, read_edge_list)
from .congestion import (UTILITY_FAMILIES, entropy_weight, solve_dual_optimum,
                         utility_gap_certificate)
from .engine import ORACLE, ExperimentConfig, MetricsRecord, run_experiment
from .errors import (ConfigError, ConvergenceFailure, ExactModeUnavailable,
                     InfeasibleRates, InvariantViolation, NumericFailure)
from .gibbs import service_rates, solve_backoff

OUTPUT_ENV = "CSMASIM_OUT"
EXIT_INTERRUPTED = 128 + 2  # 130, the shell's code for a process killed by SIGINT
EXIT_BROKEN_PIPE = 128 + 13  # 141, the shell's code for a process killed by SIGPIPE
SILENCED = -1e9  # finite stand-in for "never transmits" when evaluating reports


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: Path, payload: dict, what: str) -> None:
    try:
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {path}: {exc}") from exc


def _write_run_file(path: Path, parts) -> None:
    """Write the strings `parts` yields to the run file at `path`; what was
    written before a failure stays.  A write or close that fails raises
    ConfigError naming the file, and what producing a part raises passes
    through."""
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot open run file {path}: {exc}") from exc
    try:
        for part in parts:
            try:
                fh.write(part)
            except OSError as exc:
                raise ConfigError(f"cannot write run file {path}: {exc}") from exc
    finally:
        try:
            fh.close()
        except OSError as exc:  # the buffered lines could not be flushed
            raise ConfigError(f"cannot write run file {path}: {exc}") from exc


def _read_run_file(path: Path):
    """A run file already written, in pieces of at most 1 MiB, for a copy of it."""
    try:
        with open(path, encoding="utf-8") as fh:
            while piece := fh.read(1 << 20):
                yield piece
    except OSError as exc:
        raise ConfigError(f"cannot read run file {path}: {exc}") from exc


def _refuse_non_file(path: Path, what: str) -> None:
    """Refuse, before the run that would write it, a path that exists as no file."""
    if path.exists() and not path.is_file():
        raise ConfigError(f"cannot write {what} {path}: it exists and is not a regular file")


def _load_graph(source: str):
    if source in PRESETS:
        return preset(source)
    path = Path(source)
    if not path.is_file():
        raise ConfigError(f"graph source {source!r} is neither a preset "
                          f"({sorted(PRESETS)}) nor a file")
    try:
        return read_edge_list(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"graph file {source}: {exc}") from exc


def _summarize(cfg: ExperimentConfig, seed: int, last: MetricsRecord) -> dict:
    summary = {
        "seed": seed,
        "epochs": last.j,
        "elapsed": last.epoch_start + last.epoch_length,
        "final_drive": list(last.drive),
        "final_queue": list(last.queue),
        "final_departed": list(last.departed),
        "final_max_queue_ratio": last.max_queue_ratio,
        "avg_rates": None if last.avg_rates is None else list(last.avg_rates),
        "avg_rate_utility": last.avg_rate_utility,
    }
    if isinstance(cfg.family, ExactModeUnavailable):
        # past exact mode the config holds the refusal; the run stands
        summary["certificates"] = {"skipped": str(cfg.family)}
        return summary
    try:
        summary["certificates"] = _certificates(cfg, last, summary["elapsed"])
    except ConvergenceFailure as exc:  # a solver that did not converge: the run stands
        summary["certificates"] = {"skipped": str(exc)}
    return summary


def _certificates(cfg: ExperimentConfig, last: MetricsRecord, elapsed: float) -> dict:
    family = cfg.family
    if cfg.is_congestion:
        # Served rates never exceed offered service, so they lie in the capacity
        # region; the requested averages need not, and can beat the optimum.
        served = np.asarray(last.departed) / elapsed
        cert = utility_gap_certificate(family, cfg.utilities, cfg.beta, served)
        return {
            "utility_gap": cert.gap,
            "utility_gap_bound": cert.bound,
            "optimal_rates": [float(v) for v in cert.optimal_rates],
        }
    try:
        fit = solve_backoff(family, cfg.arrivals.rates)
    except InfeasibleRates as exc:
        return {"admissible": False, "detail": str(exc)}
    drive = np.asarray(last.drive)
    return {
        "admissible": True,
        "fitted_drive": [_json_safe(float(v)) for v in fit.r],
        # an unmasked fit is finite everywhere
        "drive_distance_to_fit": float(np.abs(drive - fit.r).max())
        if not fit.masked else None,
    }


def cmd_run(args) -> int:
    parsed = load_config(args.config)
    cfg = parsed.experiment
    if args.seeds < 1:
        raise ConfigError("--seeds must be at least 1")
    base_seed = args.seed if args.seed is not None else parsed.seed
    if base_seed is None:
        if cfg.mode != ORACLE:
            raise ConfigError("no seed: pass --seed or set one in the config")
        base_seed = 0
    if base_seed < 0:  # the config's seed was checked when it was parsed
        raise ConfigError("seed must be a nonnegative integer")
    seeds = range(base_seed, base_seed + args.seeds)
    out_dir = Path(args.out or os.environ.get(OUTPUT_ENV) or parsed.output or "runs")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    stem = Path(args.config).stem
    manifest_path = out_dir / f"{stem}-manifest.json"
    _refuse_non_file(manifest_path, "manifest")
    started = _utc_now()
    outputs = []
    # `json.dumps(record, sort_keys=True)`; a record's numbers and tuples of
    # floats cannot form a cycle, so the encoder skips that bookkeeping
    encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode
    # An oracle run does not depend on the seed: it runs once, and every
    # later seed gets a copy of its run file and its summary.
    first_run = summary = None
    for seed in seeds:
        run_path = out_dir / f"{stem}-seed{seed}.jsonl"
        summary_path = out_dir / f"{stem}-seed{seed}-summary.json"
        _refuse_non_file(summary_path, "summary")
        if first_run is None:
            last = None

            def lines():
                nonlocal last
                for last in run_experiment(cfg, seed):
                    yield encode(last._asdict()) + "\n"
            _write_run_file(run_path, lines())
            summary = _summarize(cfg, seed, last)
            first_run = run_path if cfg.mode == ORACLE else None
        else:
            _write_run_file(run_path, _read_run_file(first_run))
        _write_json(summary_path, dict(summary, seed=seed), "summary")
        outputs.append(run_path.name)
        print(f"wrote {run_path}", file=sys.stderr)
    manifest = {
        "artifact_version": __version__,
        "config_hash": parsed.digest,
        "seeds": list(seeds),
        "output_dir": str(out_dir),
        "outputs": outputs,
        "started": started,
        "finished": _utc_now(),
    }
    _write_json(manifest_path, manifest, "manifest")
    return 0


def cmd_analyze(args) -> int:
    graph = _load_graph(args.graph)
    n = graph.n
    # the config's parsers and entropy-weight rule, so both commands refuse alike
    if args.utilities is not None:
        try:
            spec = ({"family": args.utilities} if args.utilities in UTILITY_FAMILIES
                    else json.loads(args.utilities))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--utilities must be a family name {UTILITY_FAMILIES} "
                              f"or JSON: {exc}") from exc
        utilities = _parse_utilities(spec, n)
        beta = entropy_weight(n, args.beta, args.epsilon)
    elif args.beta is not None or args.epsilon is not None:
        raise ConfigError("--beta and --epsilon set the entropy weight of --utilities; "
                          "pass --utilities or drop them")
    if args.rates is not None:
        rates = _broadcast(args.rates[0] if len(args.rates) == 1 else args.rates, n, "--lambda")
        if min(rates) < 0:
            raise ConfigError(f"--lambda values must be nonnegative, got {args.rates}")
    family = enumerate_independent_sets(graph)
    report = {
        "graph": {"nodes": n, "edges": [list(e) for e in graph.edges]},
        "independent_set_count": family.size,
    }
    diag_drive = np.zeros(n)

    if args.rates is not None:
        cert = is_strictly_admissible(family, rates)
        report["admissibility"] = {
            "admissible": cert.admissible,
            "slack": cert.slack,
            "decomposition": None if cert.weights is None
            else {format(m, "#x"): w for m, w in zip(family.masks, cert.weights) if w > 0},
        }
        if cert.admissible:
            fit = solve_backoff(family, rates, cert)
            eval_drive = np.where(np.isfinite(fit.r), fit.r, SILENCED)
            report["fitted_drive"] = [_json_safe(float(v)) for v in fit.r]
            report["service_at_fit"] = [float(v) for v in service_rates(family, eval_drive)]
            report["fit_residual"] = fit.residual
            report["drive_norm_bound"] = _json_safe(fit.norm_bound)
            if not fit.masked:
                diag_drive = fit.r

    if args.utilities is not None:
        dual = solve_dual_optimum(family, utilities, beta)
        cert = utility_gap_certificate(family, utilities, beta, dual.rates, dual.residual)
        if not cert.holds():  # checked before it is printed
            raise NumericFailure(
                f"utility gap {cert.gap:.3e} is not certified: its bound log(schedules)/beta "
                f"= {cert.bound:.3e} must cover it and exceed {cert.error:.3e}, what the "
                f"dual's residual {dual.residual:.3e} can hide; lower beta")
        report["entropy_weight"] = beta
        report["dual"] = {
            "prices": [float(v) for v in dual.prices],
            "rates": [float(v) for v in dual.rates],
            "value": dual.value,
            "residual": dual.residual,
        }
        report["optimal_rates"] = [float(v) for v in cert.optimal_rates]
        report["utility_gap"] = cert.gap
        report["utility_gap_bound"] = cert.bound
        if args.rates is None:
            diag_drive = dual.prices

    try:
        report["chain"] = dict(
            chain_diagnostics(family, diag_drive)._asdict(),
            at_drive=[float(v) for v in diag_drive],
        )
    except (ExactModeUnavailable, NumericFailure) as exc:
        # cut enumeration is exhaustive, and the results above stay exact
        report["chain"] = {"skipped": str(exc)}
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_presets(_args) -> int:
    for name in sorted(PRESETS):
        description = PRESETS[name][0]
        graph = preset(name)
        print(f"{name}: {description} (n={graph.n}, edges={len(graph.edges)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmasim",
        description="Adaptive carrier-sense scheduling: simulation and exact analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config, write JSONL metrics")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="base seed (overrides the config seed)")
    p_run.add_argument("--seeds", type=int, default=1,
                       help="number of consecutive seeds to sweep")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="exact analysis report for a graph")
    p_an.add_argument("graph", help="preset name or edge-list file")
    p_an.add_argument("--lambda", dest="rates", nargs="+", type=float, default=None,
                      help="target service rates (one value broadcasts)")
    p_an.add_argument("--utilities", default=None,
                      help="utility family name or JSON spec")
    p_an.add_argument("--beta", type=float, default=None, help="entropy weight")
    p_an.add_argument("--epsilon", type=float, default=None,
                      help="slack; sets beta = 4n/eps when --beta is absent")
    p_an.set_defaults(func=cmd_analyze)

    p_pre = sub.add_parser("presets", help="list built-in graph presets")
    p_pre.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout pipe fails here, inside the try
        return code
    except KeyboardInterrupt:
        # the run file's writer has closed it, so its lines stay whole
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Python's "Note on SIGPIPE" (signal docs): point stdout at devnull so
        # that the flush at exit cannot fail again, and exit as if killed by it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ConfigError, ExactModeUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailure, ConvergenceFailure, InvariantViolation,
            InfeasibleRates) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
