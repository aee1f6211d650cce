"""Versioned JSON experiment configs.

This module only maps JSON to types.  It is fail-closed: the version must
match exactly and unknown keys are rejected at every level, so a typo'd
override never silently runs with defaults, and every number passes through
`_number`, which rejects NaN, Infinity and literals past the float range.
Value ranges and the settings a run resolves from them are checked once, by
ExperimentConfig; the seed, which only picks a run's sample path and so is
not part of it, is checked here.  The config hash is the sha256 of the
canonical (sorted-key, compact) encoding, making it stable under key
reordering in the file.
"""
from __future__ import annotations

import json
import math
from typing import NamedTuple
from pathlib import Path

from .conflict_graph import ConflictGraph, preset, read_edge_list
from .congestion import UtilityFunction
from .engine import ExperimentConfig, _whole
from .errors import ConfigError
from .traffic import ArrivalSpec

CONFIG_VERSION = 1

_TOP_KEYS = {"version", "graph", "algorithm", "horizon", "seed", "mode",
             "arrivals", "utilities", "overrides", "initial_queue", "output"}
_GRAPH_KEYS = {"preset", "n", "edges", "path"}
_ARRIVAL_KEYS = {"kind", "rates", "peak"}
_UTILITY_KEYS = {"family", "shift", "weight", "fairness"}
_OVERRIDE_KEYS = {"epoch_length", "step", "epsilon", "beta"}


class ParsedConfig(NamedTuple):
    experiment: ExperimentConfig
    seed: int | None  # picks the sample path; not part of the experiment
    output: str | None
    digest: str


def config_hash(data: dict) -> str:
    import hashlib  # loads OpenSSL (~5 ms); only `run` hashes a config

    return hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _number(value, where: str) -> float:
    """A JSON number as a finite float; `where` names it in the error.

    json reads NaN and Infinity as floats, 1e999 as inf, and keeps an integer
    literal exact however long it is, so the float range is checked here.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be a finite number within the float range")
    return number


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _broadcast(value, n: int, where: str) -> list[float]:
    """A number for every node, or a list with one number per node."""
    if not isinstance(value, list):
        return [_number(value, where)] * n
    if len(value) != n:
        raise ConfigError(f"{where} needs {n} entries, got {len(value)}")
    return [_number(v, f"{where}[{k}]") for k, v in enumerate(value)]


def _parse_graph(section, base_dir: Path) -> ConflictGraph:
    if not isinstance(section, dict):
        raise ConfigError("graph must be an object")
    _reject_unknown(section, _GRAPH_KEYS, "graph")
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
        if not _whole(n) or n < 1:
            raise ConfigError("graph.n must be a positive integer")
        edges = section.get("edges", [])
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 and all(map(_whole, e)) for e in edges):
            raise ConfigError("graph.edges must be a list of [i, j] pairs")
        try:
            return ConflictGraph.from_edges(n, edges)
        except ValueError as exc:
            raise ConfigError(f"graph: {exc}") from exc
    raise ConfigError("graph needs one of: preset, path, n/edges "
                      f"(got {', '.join(sorted(section)) or 'nothing'})")


def _parse_arrivals(section, n: int) -> ArrivalSpec:
    if not isinstance(section, dict):
        raise ConfigError("arrivals must be an object")
    _reject_unknown(section, _ARRIVAL_KEYS, "arrivals")
    if "rates" not in section:
        raise ConfigError("arrivals.rates is required")
    rates = _broadcast(section["rates"], n, "arrivals.rates")
    peak = _number(section.get("peak", 1.0), "arrivals.peak")
    try:
        return ArrivalSpec(kind=section.get("kind"), rates=rates, peak=peak)
    except ValueError as exc:
        raise ConfigError(f"arrivals: {exc}") from exc


def _parse_one_utility(section, where: str) -> UtilityFunction:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(section, _UTILITY_KEYS, where)
    kwargs = {key: _number(section[key], f"{where}.{key}")
              for key in ("shift", "weight", "fairness") if key in section}
    try:
        return UtilityFunction(family=section.get("family", "log-shifted"), **kwargs)
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
    graph = _parse_graph(data.get("graph"), Path(base_dir))
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
    floats = {key: _number(overrides[key], f"overrides.{key}")
              for key in ("step", "epsilon", "beta") if key in overrides}

    initial_queue = None
    if "initial_queue" in data:
        initial_queue = tuple(_broadcast(data["initial_queue"], graph.n, "initial_queue"))

    seed = data.get("seed")
    if seed is not None and (not _whole(seed) or seed < 0):
        raise ConfigError("seed must be a nonnegative integer")
    output = data.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output must be a string path")

    experiment = ExperimentConfig(
        graph=graph,
        algorithm=data.get("algorithm"),
        horizon=data.get("horizon"),
        arrivals=arrivals,
        utilities=utilities,
        mode=data.get("mode", "stochastic"),
        epoch_length=overrides.get("epoch_length"),
        initial_queue=initial_queue,
        **floats,
    )
    return ParsedConfig(experiment=experiment, seed=seed, output=output,
                        digest=config_hash(data))


def load_config(path) -> ParsedConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data, base_dir=path.parent)
