"""Versioned JSON experiment configs.

Fail-closed: the version must match exactly and unknown keys are rejected at
every level, so a typo'd override never silently runs with defaults; NaN,
Infinity and literals that overflow a float are rejected while parsing.  The
config hash is the sha256 of the canonical (sorted-key, compact) encoding,
making it stable under key reordering in the file.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .conflict_graph import ConflictGraph, preset, read_edge_list
from .congestion import UTILITY_FAMILIES, UtilityFunction
from .engine import ALGORITHMS, MODES, ExperimentConfig
from .errors import ConfigError
from .traffic import ARRIVAL_KINDS, ArrivalSpec

CONFIG_VERSION = 1

_TOP_KEYS = {"version", "graph", "algorithm", "horizon", "seed", "mode",
             "arrivals", "utilities", "overrides", "initial_queue", "output"}
_GRAPH_KEYS = {"preset", "n", "edges", "path"}
_ARRIVAL_KEYS = {"kind", "rates", "peak"}
_UTILITY_KEYS = {"family", "shift", "weight", "fairness"}
_OVERRIDE_KEYS = {"epoch_length", "step", "epsilon", "beta", "c"}


@dataclass(frozen=True)
class ParsedConfig:
    experiment: ExperimentConfig
    output: str | None
    raw: dict
    digest: str


def config_hash(data: dict) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _finite_number(text: str) -> float:
    """JSON float and constant hook: NaN, Infinity and 1e999 are config errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"numbers must be finite, got {text}")
    return value


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _broadcast(value, n: int, where: str) -> list[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)] * n
    if isinstance(value, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        if len(value) != n:
            raise ConfigError(f"{where} needs {n} entries, got {len(value)}")
        return [float(v) for v in value]
    raise ConfigError(f"{where} must be a number or a list of numbers")


def _parse_graph(section, base_dir: Path) -> ConflictGraph:
    if not isinstance(section, dict):
        raise ConfigError("graph must be an object")
    _reject_unknown(section, _GRAPH_KEYS, "graph")
    forms = [k for k in ("preset", "path") if k in section] + (
        ["n"] if "n" in section or "edges" in section else [])
    if "preset" in section:
        if set(section) != {"preset"}:
            raise ConfigError("graph.preset excludes other graph keys")
        try:
            return preset(str(section["preset"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if "path" in section:
        if set(section) != {"path"}:
            raise ConfigError("graph.path excludes other graph keys")
        try:
            return read_edge_list(base_dir / str(section["path"]))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"graph.path: {exc}") from exc
    if "n" in section:
        n = section["n"]
        if not isinstance(n, int) or n < 1:
            raise ConfigError("graph.n must be a positive integer")
        edges = section.get("edges", [])
        if not isinstance(edges, list):
            raise ConfigError("graph.edges must be a list of [i, j] pairs")
        pairs = []
        for e in edges:
            if (not isinstance(e, list) or len(e) != 2
                    or not all(isinstance(v, int) for v in e)):
                raise ConfigError("graph.edges must be a list of [i, j] pairs")
            pairs.append((e[0], e[1]))
        try:
            return ConflictGraph.from_edges(n, pairs)
        except ValueError as exc:
            raise ConfigError(f"graph: {exc}") from exc
    raise ConfigError(f"graph needs one of: preset, path, n/edges (got {forms or 'nothing'})")


def _parse_arrivals(section, n: int) -> ArrivalSpec:
    if not isinstance(section, dict):
        raise ConfigError("arrivals must be an object")
    _reject_unknown(section, _ARRIVAL_KEYS, "arrivals")
    kind = section.get("kind")
    if kind not in ARRIVAL_KINDS:
        raise ConfigError(f"arrivals.kind must be one of {ARRIVAL_KINDS}")
    if "rates" not in section:
        raise ConfigError("arrivals.rates is required")
    rates = _broadcast(section["rates"], n, "arrivals.rates")
    peak = section.get("peak", 1.0)
    if isinstance(peak, bool) or not isinstance(peak, (int, float)):
        raise ConfigError("arrivals.peak must be a number")
    try:
        return ArrivalSpec(kind=kind, rates=rates, peak=float(peak))
    except ValueError as exc:
        raise ConfigError(f"arrivals: {exc}") from exc


def _parse_one_utility(section, where: str) -> UtilityFunction:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(section, _UTILITY_KEYS, where)
    family = section.get("family", "log-shifted")
    if family not in UTILITY_FAMILIES:
        raise ConfigError(f"{where}.family must be one of {UTILITY_FAMILIES}")
    kwargs = {}
    for key in ("shift", "weight", "fairness"):
        if key in section:
            value = section[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{where}.{key} must be a number")
            kwargs[key] = float(value)
    try:
        return UtilityFunction(family=family, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_utilities(section, n: int) -> tuple[UtilityFunction, ...]:
    if isinstance(section, dict):  # broadcast one spec to all nodes
        return (_parse_one_utility(section, "utilities"),) * n
    if isinstance(section, list):
        if len(section) != n:
            raise ConfigError(f"utilities needs {n} entries, got {len(section)}")
        return tuple(_parse_one_utility(item, f"utilities[{k}]")
                     for k, item in enumerate(section))
    raise ConfigError("utilities must be an object (broadcast) or a list")


def parse_config(data, base_dir: Path | str = ".") -> ParsedConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    if data.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION} "
                          f"(got {data.get('version')!r})")
    _reject_unknown(data, _TOP_KEYS, "config")
    base_dir = Path(base_dir)
    graph = _parse_graph(data.get("graph"), base_dir)
    algorithm = data.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"algorithm must be one of {ALGORITHMS}")
    horizon = data.get("horizon")
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise ConfigError("horizon must be a positive integer")
    mode = data.get("mode", "stochastic")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}")
    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError("seed must be an integer")

    arrivals = None
    if "arrivals" in data:
        arrivals = _parse_arrivals(data["arrivals"], graph.n)
    utilities = None
    if "utilities" in data:
        utilities = _parse_utilities(data["utilities"], graph.n)

    overrides = data.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("overrides must be an object")
    _reject_unknown(overrides, _OVERRIDE_KEYS, "overrides")
    for key in ("step", "epsilon", "beta", "c"):
        if key in overrides:
            value = overrides[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"overrides.{key} must be a number")
    if "epoch_length" in overrides and (
            isinstance(overrides["epoch_length"], bool)
            or not isinstance(overrides["epoch_length"], int)):
        raise ConfigError("overrides.epoch_length must be an integer")

    initial_queue = None
    if "initial_queue" in data:
        initial_queue = tuple(_broadcast(data["initial_queue"], graph.n, "initial_queue"))

    output = data.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output must be a string path")

    experiment = ExperimentConfig(
        graph=graph,
        algorithm=algorithm,
        horizon=horizon,
        arrivals=arrivals,
        utilities=utilities,
        mode=mode,
        seed=seed,
        epoch_length=overrides.get("epoch_length"),
        step=float(overrides["step"]) if "step" in overrides else None,
        epsilon=float(overrides["epsilon"]) if "epsilon" in overrides else None,
        beta=float(overrides["beta"]) if "beta" in overrides else None,
        theta_multiplier=float(overrides.get("c", 1.0)),
        initial_queue=initial_queue,
    )
    return ParsedConfig(experiment=experiment, output=output, raw=data,
                        digest=config_hash(data))


def load_config(path) -> ParsedConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(), parse_float=_finite_number,
                          parse_constant=_finite_number)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data, base_dir=path.parent)
