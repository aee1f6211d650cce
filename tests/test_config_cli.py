"""JSON config contract and the command-line surface.

CLI tests call main() in-process so exit codes and stdout are observable
without subprocesses; only the import check, a closed stdout and a real
SIGINT need a fresh interpreter.
"""

import errno
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import csmasim
from csmasim import cli
from csmasim.cli import main
from csmasim.conflict_graph import enumerate_independent_sets, is_strictly_admissible, preset
from csmasim.config import config_hash, load_config, parse_config
from csmasim.congestion import UtilityFunction, utility_gap_certificate
from csmasim.engine import ExperimentConfig, MetricsRecord, run_experiment
from csmasim import engine, gibbs, simplex
from csmasim.errors import ConfigError, ConvergenceFailure, NumericFailure
from oracles import clique2_log_gap, service_rates_spelled_out, strict_json


BASE = {
    "version": 1,
    "graph": {"preset": "clique2"},
    "algorithm": "sched1",
    "horizon": 4,
    "seed": 9,
    "arrivals": {"kind": "scaled-bernoulli", "rates": 0.2},
}


def write_config(tmp_path, payload, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BUDGET = 20.0  # seconds for a refusal or a desk-scale command


def child_env():
    """The environment of a child interpreter that imports this csmasim."""
    src = str(Path(csmasim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# -- parsing ---------------------------------------------------------------------

def test_parse_happy_path():
    parsed = parse_config(BASE)
    cfg = parsed.experiment
    assert cfg.graph.n == 2
    assert cfg.algorithm == "sched1"
    assert cfg.arrivals.rates == pytest.approx([0.2, 0.2])  # scalar broadcast
    assert parsed.seed == 9  # the run's, not the experiment's
    assert parsed.output is None
    assert parsed.digest == config_hash(BASE)


@pytest.mark.parametrize("seed", [-1, True, 1.5, "9"])
def test_parse_rejects_a_seed_that_is_no_nonnegative_int(seed):
    with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
        parse_config(dict(BASE, seed=seed))


def test_parse_rejects_unknown_keys_everywhere():
    for mutate in (
        lambda d: d.update(extra=1),
        lambda d: d["graph"].update(color="red"),
        lambda d: d["arrivals"].update(burst=2),
        lambda d: d.update(overrides={"alpha": 0.1}),
    ):
        data = json.loads(json.dumps(BASE))
        mutate(data)
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(data)


def test_parse_rejects_bad_versions():
    with pytest.raises(ConfigError, match="version"):
        parse_config(dict(BASE, version=2))
    data = dict(BASE)
    del data["version"]
    with pytest.raises(ConfigError, match="version"):
        parse_config(data)
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_parse_graph_forms(tmp_path):
    inline = dict(BASE, graph={"n": 3, "edges": [[0, 1], [1, 2]]},
                  arrivals={"kind": "scaled-bernoulli", "rates": [0.1, 0.1, 0.1]})
    assert parse_config(inline).experiment.graph.edges == ((0, 1), (1, 2))

    listing = tmp_path / "g.txt"
    listing.write_text("2\n0 1\n")
    from_file = dict(BASE, graph={"path": "g.txt"})
    assert parse_config(from_file, base_dir=tmp_path).experiment.graph.n == 2

    with pytest.raises(ConfigError):
        parse_config(dict(BASE, graph={"preset": "clique2", "n": 2}))
    with pytest.raises(ConfigError):
        parse_config(dict(BASE, graph={"preset": "unknown-shape"}))
    with pytest.raises(ConfigError, match=r"\(got edges\)"):
        parse_config(dict(BASE, graph={"edges": [[0, 1]]}))  # edges without n
    with pytest.raises(ConfigError):
        parse_config(dict(BASE, graph={"path": "missing.txt"}), base_dir=tmp_path)
    with pytest.raises(ConfigError, match="nodes"):
        parse_config(dict(BASE, graph={"n": 10 ** 9}))  # refused before any allocation


def test_parse_arrival_and_utility_errors():
    with pytest.raises(ConfigError):
        parse_config(dict(BASE, arrivals={"kind": "poisson", "rates": 0.2}))
    with pytest.raises(ConfigError):
        parse_config(dict(BASE, arrivals={"kind": "scaled-bernoulli",
                                          "rates": [0.2, 0.2, 0.2]}))
    cc = {
        "version": 1,
        "graph": {"preset": "clique2"},
        "algorithm": "cc1",
        "horizon": 4,
        "mode": "deterministic-oracle",
        "utilities": {"family": "log-shifted"},
        "overrides": {"beta": 10.0},
    }
    parsed = parse_config(cc)
    assert len(parsed.experiment.utilities) == 2  # dict broadcasts per node
    assert parsed.experiment.beta == 10.0
    with pytest.raises(ConfigError):
        parse_config(dict(cc, utilities={"family": "sqrt"}))
    with pytest.raises(ConfigError):
        parse_config(dict(cc, utilities=[{"family": "log-shifted"}]))  # wrong count


def test_parse_utility_list_and_overrides():
    cc = {
        "version": 1,
        "graph": {"preset": "clique2"},
        "algorithm": "cc2",
        "horizon": 4,
        "seed": 1,
        "utilities": [{"family": "log-shifted"},
                      {"family": "weighted-log-shifted", "weight": 2.0}],
        "overrides": {"beta": 12.0, "step": 0.1, "epoch_length": 25},
    }
    cfg = parse_config(cc).experiment
    assert cfg.utilities[1].weight == 2.0
    assert cfg.step == 0.1
    assert cfg.epoch_length == 25


def test_parse_rejects_parameters_the_family_ignores(tmp_path):
    cc = {
        "version": 1,
        "graph": {"preset": "clique2"},
        "algorithm": "cc2",
        "horizon": 4,
        "seed": 1,
        "overrides": {"beta": 12.0, "step": 0.1, "epoch_length": 25},
    }
    for spec in ({"family": "log-shifted", "weight": 3, "fairness": 0.5},
                 {"family": "log-shifted", "fairness": 0.5},
                 {"family": "alpha-fair-shifted", "fairness": 2.0, "weight": 2.0}):
        with pytest.raises(ConfigError, match="takes no"):
            parse_config(dict(cc, utilities=spec))
    path = write_config(tmp_path, dict(cc, utilities={"family": "log-shifted", "weight": 3}))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    # a default value is not a parameter choice, so it stays accepted
    parse_config(dict(cc, utilities={"family": "log-shifted", "weight": 1.0}))


def test_config_hash_ignores_key_order():
    reordered = {k: BASE[k] for k in reversed(list(BASE))}
    assert config_hash(reordered) == config_hash(BASE)
    assert config_hash(dict(BASE, seed=10)) != config_hash(BASE)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


@pytest.mark.parametrize("algorithm, key, literal", [
    ("cc2", "beta", "NaN"),
    ("cc2", "beta", "Infinity"),
    ("cc2", "beta", "1e999"),
    ("sched2", "epsilon", "NaN"),
    ("sched2", "epsilon", "Infinity"),
])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, algorithm, key, literal):
    payload = {"version": 1, "graph": {"preset": "cycle5"}, "algorithm": algorithm,
               "horizon": 5, "seed": 1,
               "overrides": {key: "@", "step": 0.5, "epoch_length": 50}}
    if algorithm == "cc2":
        payload["utilities"] = {"family": "log-shifted"}
    else:
        payload["arrivals"] = {"kind": "scaled-bernoulli", "rates": 0.1}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload).replace('"@"', "0.2"))
    assert getattr(load_config(path).experiment, key) == 0.2  # the finite control parses
    path.write_text(json.dumps(payload).replace('"@"', literal))
    with pytest.raises(ConfigError, match=f"overrides.{key} must be a finite number"):
        load_config(path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert f"overrides.{key} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


HUGE = "1" + "0" * 400  # an integer literal past the float range
CC2 = {
    "version": 1,
    "graph": {"preset": "clique2"},
    "algorithm": "cc2",
    "horizon": 4,
    "seed": 1,
    "utilities": {"family": "log-shifted"},
    "overrides": {"beta": 5.0, "step": 0.5, "epoch_length": 10},
}


def _with_number(config, section, key, extra, value):
    data = json.loads(json.dumps(config))
    target = data if section is None else data[section]
    target.update(extra)
    target[key] = value
    return data


@pytest.mark.parametrize("literal, value", [
    ("NaN", math.nan),
    ("Infinity", math.inf),
    ("-Infinity", -math.inf),
    ("1e999", float("1e999")),
    (HUGE, int(HUGE)),
    ("true", True),
], ids=["nan", "inf", "minus-inf", "1e999", "huge-int", "true"])
@pytest.mark.parametrize("config, section, key, extra, finite", [
    (BASE, "arrivals", "rates", {}, 0.2),
    (BASE, "arrivals", "peak", {}, 1.0),
    (BASE, None, "initial_queue", {}, 0.0),
    (CC2, "utilities", "shift", {}, 1.0),
    (CC2, "utilities", "weight", {"family": "weighted-log-shifted"}, 2.0),
    (CC2, "utilities", "fairness", {"family": "alpha-fair-shifted"}, 2.0),
    (CC2, "overrides", "step", {}, 0.5),
    (CC2, "overrides", "epsilon", {}, 0.4),
    (CC2, "overrides", "beta", {}, 5.0),
], ids=["arrivals.rates", "arrivals.peak", "initial_queue", "utilities.shift",
        "utilities.weight", "utilities.fairness", "overrides.step", "overrides.epsilon",
        "overrides.beta"])
def test_every_config_number_is_a_finite_float(tmp_path, capsys, config, section, key,
                                              extra, finite, literal, value):
    where = key if section is None else f"{section}.{key}"
    parse_config(_with_number(config, section, key, extra, finite))  # the control parses
    with pytest.raises(ConfigError, match=re.escape(where)):
        parse_config(_with_number(config, section, key, extra, value))
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_with_number(config, section, key, extra, "@"))
                    .replace('"@"', literal))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


SLOPE_OVERFLOW = {"family": "alpha-fair-shifted", "shift": 0.3, "fairness": 702}  # 0.3**-702


def test_analyze_refuses_a_utility_whose_slope_overflows(capsys):
    assert main(["analyze", "path3", "--utilities", json.dumps(SLOPE_OVERFLOW),
                 "--beta", "10"]) == 2
    assert "must be finite" in capsys.readouterr().err


SCHED2_CYCLE5 = {
    "version": 1,
    "graph": {"preset": "cycle5"},
    "algorithm": "sched2",
    "horizon": 3,
    "seed": 1,
    "arrivals": {"kind": "scaled-bernoulli", "rates": 0.1},
    "overrides": {"epsilon": 0.2, "epoch_length": 20},
}


README = (Path(__file__).parents[1] / "README.md").read_text()
# README's refusal table, the one statement of `run`'s exit-2 contract: each
# row's id and the text stderr contains.  Every row is a case of one of the
# tests below, which take their expected text from it, and every case has a row.
REFUSAL_ROWS = re.findall(r"^\| `([a-z0-9-]+)` \| `([^`]+)` \|", README, re.MULTILINE)
REFUSALS = dict(REFUSAL_ROWS)

EXIT_2 = {  # id: (payload, flags)
    "config-number-past-float-range": (
        dict(CC2, overrides={"beta": math.inf, "step": 0.5, "epoch_length": 10}), ()),
    "graph-n-boolean": (dict(BASE, graph={"n": True}), ()),
    "graph-edge-boolean": (dict(BASE, graph={"n": 2, "edges": [[True, False]]}), ()),
    "graph-past-node-limit": (dict(BASE, graph={"n": 10_001}), ()),
    "graph-file-unreadable": (dict(BASE, graph={"path": "absent.txt"}), ()),
    "utility-slope-past-float-range": (
        dict(CC2, algorithm="cc1", graph={"preset": "path3"}, utilities=SLOPE_OVERFLOW,
             overrides={"beta": 10.0, "epoch_length": 10}), ()),
    # U'(y) = (1 + y)**-1e300 is 0 wherever 1 + y > 1
    "utility-slope-underflows-to-zero": (
        dict(CC2, mode="deterministic-oracle", horizon=5,
             utilities={"family": "alpha-fair-shifted", "shift": 1, "fairness": 1e300},
             overrides={"beta": 10, "step": 0.5, "epoch_length": 1}), ()),
    "binomial-peak-past-int64": (
        dict(BASE, graph={"preset": "cycle5"},
             arrivals={"kind": "binomial", "rates": 0.3, "peak": 1e300}), ()),
    "negative-seed": (SCHED2_CYCLE5, ("--seed", "-1")),
    "epoch-length-past-limit": (dict(BASE, overrides={"epoch_length": 10**8 + 1}), ()),
    "cc2-no-epoch-length": (dict(CC2, overrides={"beta": 5.0, "step": 0.5}), ()),
    "sched2-plan-on-clique2": (dict(SCHED2_CYCLE5, graph={"preset": "clique2"}), ()),
    # the published epoch length is exp(125 log 25) = 5.5e174
    "sched2-published-length": (dict(SCHED2_CYCLE5, overrides={"epsilon": 0.2}), ()),
    "sched2-published-step-past-float-range": (
        dict(SCHED2_CYCLE5, arrivals={"kind": "scaled-bernoulli", "rates": 0.25, "peak": 1e155},
             overrides={"epsilon": 0.2, "epoch_length": 200}), ()),
    # within the node-time budget, 10^8 epochs that would run for hours
    "horizon-past-epoch-limit": (
        dict(BASE, graph={"preset": "single"}, horizon=10**8, overrides={"epoch_length": 1}),
        ()),
    "run-past-time-limit": (
        dict(SCHED2_CYCLE5, horizon=2 * 10**5, overrides={"epsilon": 0.2, "epoch_length": 101}),
        ()),
    "oracle-queue-ledger-past-float-range": (
        dict(BASE, graph={"preset": "single"}, mode="deterministic-oracle", horizon=3,
             arrivals={"kind": "scaled-bernoulli", "rates": 1e307, "peak": 1e308},
             overrides={"epoch_length": 100}), ()),
    "cc2-first-update-past-drive-limit": (
        dict(CC2, graph={"preset": "single"},
             overrides={"beta": 5.0, "step": 1e5, "epoch_length": 10}), ()),
    # beta V = 1e300 * 0.001**-5 overflows, so the update checks could never fail
    "cc2-price-box-past-float-range": (
        dict(CC2, utilities={"family": "alpha-fair-shifted", "fairness": 5, "shift": 1e-3},
             overrides={"beta": 1e300, "step": 0.5, "epoch_length": 5}), ()),
    "oracle-past-exact-mode": (
        dict(BASE, mode="deterministic-oracle", arrivals={"kind": "scaled-bernoulli", "rates": 0.1},
             graph={"n": 31, "edges": [[i, (i + 1) % 31] for i in range(31)]}), ()),
    "oracle-past-family-cap": (
        dict(BASE, graph={"n": 17}, mode="deterministic-oracle", horizon=3,
             arrivals={"kind": "scaled-bernoulli", "rates": 0.3}, overrides={"epoch_length": 20}),
        ()),
    "oracle-first-update-past-drive-limit": (
        dict(BASE, graph={"preset": "single"}, mode="deterministic-oracle", horizon=3,
             arrivals={"kind": "scaled-bernoulli", "rates": 800, "peak": 1000},
             overrides={"epoch_length": 10}), ()),
}
OUTPUT_PATHS = ("below-a-file", "a-file", "run-file-is-a-directory",
                "summary-is-a-directory", "manifest-is-a-directory")
DIRECTORY_IN_THE_WAY = {"run-file-is-a-directory": "exp-seed9.jsonl",
                        "summary-is-a-directory": "exp-seed9-summary.json",
                        "manifest-is-a-directory": "exp-manifest.json"}
# refusals that come after a run: the file whose write fails
WRITE_FAILURES = {"run-file-write-fails": "exp-seed10.jsonl",
                  "summary-write-fails": "exp-seed9-summary.json",
                  "manifest-write-fails": "exp-manifest.json"}


def test_refusal_table_has_one_row_per_exit_2_case():
    ids = [row_id for row_id, _ in REFUSAL_ROWS]
    assert len(ids) == len(set(ids)), "a refusal id repeats in README's table"
    assert set(ids) == set(EXIT_2) | set(OUTPUT_PATHS) | set(WRITE_FAILURES)


class Overran(Exception):
    """The refusal watchdog's alarm; `cli.main` lets it through."""


def assert_refused(tmp_path, capsys, payload, flags, text):
    """`run` on `payload` (or, if None, the command line `flags`) exits 2 within
    BUDGET with `text` on stderr, nothing on stdout and no output directory.

    A watchdog ends a refusal that stops refusing, and starts its run, at
    BUDGET instead of letting it run on.
    """
    out = tmp_path / "out"
    argv = list(flags) if payload is None else [
        "run", str(write_config(tmp_path, payload)), "--out", str(out), *flags]

    def overran(signum, frame):
        raise Overran(f"no refusal within {BUDGET:g} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, BUDGET)
    try:
        code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    captured = capsys.readouterr()
    assert text in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("case", EXIT_2)
def test_config_errors_exit_2_before_any_output(tmp_path, capsys, case):
    payload, flags = EXIT_2[case]
    assert_refused(tmp_path, capsys, payload, flags, REFUSALS[case])


# id: (config or None for `analyze`, flags, stderr text); refusals of the
# config's shape and of the command line, which the table above leaves out
SCHEMA_REFUSALS = {
    "graph-not-an-object": (dict(BASE, graph=["clique2"]), (), "graph must be an object"),
    "graph-path-with-other-keys": (dict(BASE, graph={"path": "pair.txt", "n": 2}), (),
                                   "graph.path excludes other graph keys"),
    "arrivals-not-an-object": (dict(BASE, arrivals=0.2), (), "arrivals must be an object"),
    "arrival-rates-missing": (dict(BASE, arrivals={"kind": "scaled-bernoulli"}), (),
                              "arrivals.rates is required"),
    "utility-not-an-object": (dict(CC2, utilities=["log-shifted"] * 2), (),
                              "utilities[0] must be an object"),
    "utilities-neither-object-nor-list": (dict(CC2, utilities="log-shifted"), (),
                                          "utilities must be an object (broadcast) or a list"),
    "overrides-not-an-object": (dict(BASE, overrides=[]), (), "overrides must be an object"),
    "output-not-a-string": (dict(BASE, output=3), (), "output must be a string path"),
    "epsilon-not-positive": (dict(SCHED2_CYCLE5, overrides={"epsilon": 0, "epoch_length": 20}),
                             (), "epsilon must be positive and finite, got 0"),
    "sched1-epsilon": (dict(BASE, graph={"preset": "cycle5"}, overrides={"epsilon": 0.3}), (),
                       "sched1 steps by 1/j and reads no epsilon"),
    "no-seeds": (BASE, ("--seeds", "0"), "--seeds must be at least 1"),
    "stochastic-without-a-seed": ({k: v for k, v in BASE.items() if k != "seed"}, (),
                                  "no seed: pass --seed or set one in the config"),
    "analyze-utilities-not-json": (None, ("analyze", "clique2", "--utilities", "{log",
                                          "--beta", "10"), "--utilities must be a family name"),
    # without --utilities nothing reads them
    "analyze-beta-without-utilities": (
        None, ("analyze", "cycle5", "--lambda", "0.3", "--beta", "5"),
        "pass --utilities or drop them"),
    "analyze-epsilon-without-utilities": (None, ("analyze", "cycle5", "--epsilon", "0.4"),
                                          "pass --utilities or drop them"),
}


@pytest.mark.parametrize("case", SCHEMA_REFUSALS)
def test_schema_refusals_exit_2_before_any_output(tmp_path, capsys, case):
    assert_refused(tmp_path, capsys, *SCHEMA_REFUSALS[case])


def test_readme_lists_the_jsonl_keys_in_record_order():
    # README's Outputs section states the JSONL schema, one key a line
    outputs = README.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `([a-z_]+)`:", outputs, re.MULTILINE) == list(MetricsRecord._fields)


# -- csmasim run -------------------------------------------------------------------

def test_run_writes_expected_files(tmp_path):
    cfg_path = write_config(tmp_path, BASE)
    out = tmp_path / "artifacts"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    run_file = out / "exp-seed9.jsonl"
    summary = out / "exp-seed9-summary.json"
    manifest = out / "exp-manifest.json"
    assert run_file.exists() and summary.exists() and manifest.exists()
    lines = run_file.read_text().splitlines()
    assert len(lines) == BASE["horizon"]
    # one line per record, keys sorted, as json.dumps prints it
    parsed = load_config(cfg_path)
    records = run_experiment(parsed.experiment, parsed.seed)
    assert lines == [json.dumps(rec._asdict(), sort_keys=True) for rec in records]
    first = json.loads(lines[0])
    assert first["j"] == 1 and len(first["drive"]) == 2
    meta = json.loads(manifest.read_text())
    assert meta["seeds"] == [9]
    assert meta["config_hash"] == config_hash(BASE)
    assert meta["outputs"] == ["exp-seed9.jsonl"]


def test_run_is_byte_identical_across_invocations(tmp_path):
    oracle = {"version": 1, "graph": {"preset": "cycle5"}, "algorithm": "sched1",
              "mode": "deterministic-oracle", "horizon": 200,
              "arrivals": {"kind": "scaled-bernoulli", "rates": 0.27},
              "overrides": {"epoch_length": 100}}
    for payload, stem in ((dict(BASE, horizon=6), "exp-seed9"), (oracle, "exp-seed0")):
        cfg_path = write_config(tmp_path, payload)
        out_a, out_b = tmp_path / f"{stem}-a", tmp_path / f"{stem}-b"
        assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["run", str(cfg_path), "--out", str(out_b)]) == 0
        for name in (f"{stem}.jsonl", f"{stem}-summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        records = [strict_json(line) for line in
                   (out_a / f"{stem}.jsonl").read_text().splitlines()]
        assert [r["j"] for r in records] == list(range(1, payload["horizon"] + 1))
        summary = strict_json((out_a / f"{stem}-summary.json").read_text())
        assert summary["certificates"]["admissible"] is True


def test_run_seed_sweep_and_seed_override(tmp_path):
    cfg_path = write_config(tmp_path, BASE)
    out = tmp_path / "sweep"
    assert main(["run", str(cfg_path), "--out", str(out), "--seed", "20",
                 "--seeds", "3"]) == 0
    names = sorted(p.name for p in out.glob("*.jsonl"))
    assert names == ["exp-seed20.jsonl", "exp-seed21.jsonl", "exp-seed22.jsonl"]
    meta = json.loads((out / "exp-manifest.json").read_text())
    assert meta["seeds"] == [20, 21, 22]
    # different seeds produce different trajectories
    assert (out / "exp-seed20.jsonl").read_bytes() != (out / "exp-seed21.jsonl").read_bytes()


ORACLE_RUNS = {
    "sched1": {"arrivals": {"kind": "scaled-bernoulli", "rates": 0.2},
               "overrides": {"epoch_length": 10}},
    "sched2": {"arrivals": {"kind": "scaled-bernoulli", "rates": 0.2},
               "overrides": {"epsilon": 0.2, "step": 0.1, "epoch_length": 10}},
    "cc1": {"utilities": {"family": "log-shifted"}, "overrides": {"beta": 5.0}},
    "cc2": {"utilities": {"family": "log-shifted"},
            "overrides": {"beta": 5.0, "step": 0.5, "epoch_length": 10}},
}


def oracle_payload(algorithm, graph="cycle5", horizon=20):
    return dict({"version": 1, "graph": {"preset": graph}, "algorithm": algorithm,
                 "mode": "deterministic-oracle", "horizon": horizon},
                **ORACLE_RUNS[algorithm])


@pytest.mark.parametrize("graph", ["clique2", "cycle5"])
@pytest.mark.parametrize("algorithm", ["sched1", "sched2", "cc1", "cc2"])
def test_oracle_service_rates_and_lines_are_bit_for_bit(tmp_path, algorithm, graph):
    # the engine's oracle epochs skip service_rates' checks; their rates and
    # the lines the CLI writes must not move by a bit
    path = write_config(tmp_path, oracle_payload(algorithm, graph))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "exp-seed0.jsonl").read_text().splitlines()
    cfg = load_config(path).experiment
    records = list(run_experiment(cfg))
    assert lines == [json.dumps(rec._asdict(), sort_keys=True) for rec in records]
    matrix = cfg.family.matrix
    for rec in records:
        drive = np.array(rec.drive)
        assert tuple(gibbs.service_rates(cfg.family, drive).tolist()) == rec.offered_service_est
        assert tuple(service_rates_spelled_out(matrix, drive).tolist()) == rec.offered_service_est


def test_oracle_seed_sweep_runs_once(tmp_path, monkeypatch):
    calls = []

    def counted(config, seed):
        calls.append(seed)
        return run_experiment(config, seed)

    monkeypatch.setattr(cli, "run_experiment", counted)
    path = write_config(tmp_path, oracle_payload("sched1", horizon=5))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--seed", "4", "--seeds", "3"]) == 0
    assert calls == [4]
    runs = [(out / f"exp-seed{s}.jsonl").read_bytes() for s in (4, 5, 6)]
    assert runs[0] == runs[1] == runs[2] and len(runs[0].splitlines()) == 5
    summaries = [json.loads((out / f"exp-seed{s}-summary.json").read_text()) for s in (4, 5, 6)]
    assert [s.pop("seed") for s in summaries] == [4, 5, 6]
    assert summaries[0] == summaries[1] == summaries[2]
    assert json.loads((out / "exp-manifest.json").read_text())["outputs"] == [
        "exp-seed4.jsonl", "exp-seed5.jsonl", "exp-seed6.jsonl"]


def test_run_sweeps_seeds_without_listing_them_up_front(tmp_path, monkeypatch):
    def fails(_config, _seed):
        raise NumericFailure("the first run fails")

    monkeypatch.setattr(cli, "run_experiment", fails)
    path = write_config(tmp_path, BASE)
    tracemalloc.start()
    try:
        code = main(["run", str(path), "--seeds", str(10**6), "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 2_000_000  # a config per seed up front took ~216 MB


GRAPHS = {
    "cycle5": {"preset": "cycle5"},
    "edgeless16": {"n": 16},  # 65 536 sets: exactly the family cap
    "edgeless17": {"n": 17},  # past the family cap
    "cycle31": {"n": 31, "edges": [[i, (i + 1) % 31] for i in range(31)]},  # past 30 nodes
}


@pytest.mark.parametrize("seeds", [1, 3])
@pytest.mark.parametrize("mode", ["stochastic", "deterministic-oracle"])
@pytest.mark.parametrize("graph", GRAPHS)
def test_each_run_command_enumerates_once(tmp_path, monkeypatch, graph, mode, seeds):
    calls = []

    def counted(g):
        calls.append(g)
        return enumerate_independent_sets(g)

    for module in (cli, engine, gibbs):
        monkeypatch.setattr(module, "enumerate_independent_sets", counted)
    path = write_config(tmp_path, dict(BASE, graph=GRAPHS[graph], mode=mode, horizon=2,
                                       overrides={"epoch_length": 5}))
    code = main(["run", str(path), "--seeds", str(seeds), "--out", str(tmp_path / "out")])
    exact = graph in ("cycle5", "edgeless16")
    assert code == (0 if exact or mode == "stochastic" else 2)
    assert len(calls) == 1


def test_run_output_dir_from_environment(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, BASE)
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("CSMASIM_OUT", str(env_dir))
    assert main(["run", str(cfg_path)]) == 0
    assert (env_dir / "exp-seed9.jsonl").exists()


def test_run_output_dir_precedence(tmp_path, monkeypatch):
    # --out, then $CSMASIM_OUT, then the config's output, then ./runs; each
    # step drops the source that won the one before
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CSMASIM_OUT", "from-env")
    path = write_config(tmp_path, dict(BASE, output="from-config"))
    written = []
    for flags, where in ((["--out", "from-flag"], "from-flag"), ([], "from-env"),
                         ([], "from-config"), ([], "runs")):
        if where == "from-config":
            monkeypatch.delenv("CSMASIM_OUT")
        if where == "runs":
            write_config(tmp_path, BASE)
        assert main(["run", str(path), *flags]) == 0
        written.append(where)
        assert (tmp_path / where / "exp-seed9.jsonl").is_file()
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == sorted(written)


def test_run_summary_carries_certificates(tmp_path):
    cfg_path = write_config(tmp_path, BASE)
    out = tmp_path / "s"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "exp-seed9-summary.json").read_text())
    cert = summary["certificates"]
    assert cert["admissible"] is True
    assert "drive_distance_to_fit" in cert
    assert summary["seed"] == 9


def test_run_summary_skips_certificates_past_exact_mode(tmp_path):
    # a 31-node cycle is past EXACT_MODE_CAP and an edgeless 17-node graph past
    # FAMILY_CAP, so each run keeps per-node clocks
    cycle31 = dict(CC2, graph={"n": 31, "edges": [[i, (i + 1) % 31] for i in range(31)]},
                   horizon=2, seed=3)
    edgeless17 = dict(BASE, graph={"n": 17}, horizon=2, seed=3,
                      arrivals={"kind": "scaled-bernoulli", "rates": 0.3},
                      overrides={"epoch_length": 20})
    for payload, reason in ((cycle31, "exact mode unavailable"), (edgeless17, "family cap")):
        path = write_config(tmp_path, payload)
        out = tmp_path / reason
        t0 = time.perf_counter()
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert time.perf_counter() - t0 < BUDGET
        for line in (out / "exp-seed3.jsonl").read_text().splitlines():
            strict_json(line)
        summary = strict_json((out / "exp-seed3-summary.json").read_text())
        assert summary["epochs"] == 2
        assert reason in summary["certificates"]["skipped"]


def test_run_summary_skips_a_certificate_that_does_not_converge(tmp_path, monkeypatch):
    def stalls(*_args):
        raise ConvergenceFailure("backoff fit stalled")

    monkeypatch.setattr(cli, "solve_backoff", stalls)
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "exp-seed9-summary.json").read_text())
    assert summary["certificates"] == {"skipped": "backoff fit stalled"}


def test_utility_certificate_uses_served_rates(tmp_path):
    cc = {
        "version": 1,
        "graph": {"preset": "cycle5"},
        "algorithm": "cc2",
        "horizon": 40,
        "seed": 1,
        "utilities": {"family": "log-shifted"},
        "overrides": {"beta": 5.0, "step": 0.5, "epoch_length": 100},
    }
    out = tmp_path / "cc"
    path = write_config(tmp_path, cc)
    assert main(["run", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "exp-seed1-summary.json").read_text())
    family = enumerate_independent_sets(preset("cycle5"))
    # the requested averages sit outside the capacity region here
    assert is_strictly_admissible(family, summary["avg_rates"]).slack < -0.1
    served = np.asarray(summary["final_departed"]) / summary["elapsed"]
    assert is_strictly_admissible(family, served).slack > 0.0
    experiment = load_config(path).experiment
    oracle = utility_gap_certificate(family, experiment.utilities,
                                     experiment.beta, served)
    cert = summary["certificates"]
    assert cert["utility_gap"] == pytest.approx(oracle.gap, abs=1e-12)
    assert 0.0 <= cert["utility_gap"] <= cert["utility_gap_bound"]


def test_runtime_never_imports_scipy(tmp_path):
    sched2 = {
        "version": 1,
        "graph": {"preset": "cycle5"},
        "algorithm": "sched2",
        "horizon": 3,
        "seed": 1,
        "arrivals": {"kind": "scaled-bernoulli", "rates": 0.3},
        "overrides": {"epsilon": 0.2, "epoch_length": 200},
    }
    script = "\n".join([
        "import sys",
        "from csmasim.cli import main",
        "assert main(['analyze', 'cycle5', '--lambda', '0.3']) == 0",
        f"assert main(['run', {str(write_config(tmp_path, sched2))!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_run_summary_of_rates_past_1_is_inadmissible(tmp_path):
    # no schedule serves a node above 1: the summary says so, at any scale
    payload = dict(SCHED2_CYCLE5, arrivals={"kind": "scaled-bernoulli", "rates": 1e20,
                                            "peak": 1e21})
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 0
    summary = strict_json((out / "exp-seed1-summary.json").read_text())
    assert summary["certificates"]["admissible"] is False
    assert "slack -1e+20" in summary["certificates"]["detail"]


def test_run_exit_codes(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad_version = write_config(tmp_path, dict(BASE, version=3), "v.json")
    assert main(["run", str(bad_version)]) == 2
    overflow = write_config(tmp_path, {
        "version": 1,
        "graph": {"preset": "single"},
        "algorithm": "sched2",
        "horizon": 5,
        "seed": 0,
        "arrivals": {"kind": "scaled-bernoulli", "rates": 0.4},
        "overrides": {"epsilon": 0.001, "step": 1e7, "epoch_length": 4},
    }, "overflow.json")
    assert main(["run", str(overflow), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("case", OUTPUT_PATHS)
def test_run_refuses_an_output_path_it_cannot_create(tmp_path, capsys, case):
    cfg_path = write_config(tmp_path, BASE)
    blocker = tmp_path / "blocker"
    if case in DIRECTORY_IN_THE_WAY:
        out = blocker
        unwritable = out / DIRECTORY_IN_THE_WAY[case]
        unwritable.mkdir(parents=True)
    else:
        blocker.write_text("a regular file\n")
        out = unwritable = blocker / "sub" if case == "below-a-file" else blocker

    def tree():
        return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

    before = tree()
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{REFUSALS[case]} {unwritable}" in err
    assert "Traceback" not in err
    # nothing written: no run, summary or manifest anywhere
    assert tree() == before


@pytest.mark.parametrize("case", WRITE_FAILURES)
def test_run_refuses_a_summary_or_manifest_it_cannot_write(tmp_path, capsys, monkeypatch,
                                                          case):
    # a full disk, simulated where the file is written: the suite may run as
    # root, which writes past any permission bit.  The run file is written
    # through a buffer, so its failing file is /dev/full itself.
    cfg_path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    failing = out / WRITE_FAILURES[case]
    write_text = Path.write_text

    def full_disk(path, *args, **kwargs):
        if path == failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return write_text(path, *args, **kwargs)

    if case == "run-file-write-fails":
        out.mkdir()
        failing.symlink_to("/dev/full")  # every write there fails with ENOSPC
    monkeypatch.setattr(Path, "write_text", full_disk)
    assert main(["run", str(cfg_path), "--out", str(out), "--seeds", "2"]) == 2
    err = capsys.readouterr().err
    *wrote, last = err.splitlines()  # one line per seed written, then the error
    assert last.startswith(f"error: {REFUSALS[case]} {failing}: [Errno {errno.ENOSPC}]")
    assert all(line.startswith("wrote ") for line in wrote)
    # what the run wrote before the failing file stays
    assert (out / "exp-seed9.jsonl").is_file()
    assert (out / "exp-seed9-summary.json").is_file() == (case != "summary-write-fails")
    assert (out / "exp-seed10-summary.json").is_file() == (case == "manifest-write-fails")
    assert not (out / "exp-manifest.json").exists()


def test_an_oracle_copy_names_the_run_file_it_cannot_read(tmp_path, capsys, monkeypatch):
    # later oracle seeds copy the first seed's run file: one gone by then is
    # refused as a read of that file, not as a write of the copy
    path = write_config(tmp_path, oracle_payload("sched1", horizon=5))
    out = tmp_path / "out"
    first = out / "exp-seed4.jsonl"
    write_json = cli._write_json

    def and_remove_the_run(target, payload, what):
        write_json(target, payload, what)
        first.unlink()

    monkeypatch.setattr(cli, "_write_json", and_remove_the_run)
    assert main(["run", str(path), "--out", str(out), "--seed", "4", "--seeds", "2"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"wrote {first}",
        f"error: cannot read run file {first}: [Errno {errno.ENOENT}] "
        f"{os.strerror(errno.ENOENT)}: '{first}'"]
    assert (out / "exp-seed5.jsonl").read_bytes() == b""  # opened, and nothing copied
    assert not (out / "exp-seed5-summary.json").exists()


def test_oracle_cc2_at_a_tiny_step_runs_without_warnings(tmp_path):
    # epoch 2's prices are the step, 1e-300, where beta*weight/price overflows;
    # the best response there is 1, and no numpy warning may reach the user.
    # The shift keeps the queue cap epoch_length (beta V + 2 step) / step, with
    # V = 1/shift, finite, which cc2's construction requires.
    payload = {
        "version": 1,
        "graph": {"preset": "path3"},
        "algorithm": "cc2",
        "mode": "deterministic-oracle",
        "horizon": 5,
        "utilities": {"family": "log-shifted", "shift": 1e10},
        "overrides": {"epsilon": 1e-9, "step": 1e-300, "epoch_length": 1},
    }
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 0
    records = [strict_json(line) for line in
               (out / "exp-seed0.jsonl").read_text().splitlines()]
    assert [rec["j"] for rec in records] == [1, 2, 3, 4, 5]
    assert all(rec["rates"] == [1.0, 1.0, 1.0] for rec in records)


def test_a_closed_stdout_ends_the_command_quietly():
    # Popen returns before the child has even imported csmasim, so the pipe
    # is closed before the report is written
    proc = subprocess.Popen([sys.executable, "-m", "csmasim.cli", "analyze", "cycle5",
                             "--lambda", "0.5"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_an_interrupt_ends_the_run_quietly_and_keeps_whole_lines(tmp_path, capsys, monkeypatch):
    real = cli.run_experiment

    def interrupted(config, seed):
        records = real(config, seed)
        yield next(records)
        yield next(records)
        raise KeyboardInterrupt  # what SIGINT raises in the middle of a run

    monkeypatch.setattr(cli, "run_experiment", interrupted)
    out = tmp_path / "out"
    try:
        code = main(["run", str(write_config(tmp_path, BASE)), "--out", str(out)])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped main")
    assert code == cli.EXIT_INTERRUPTED == 130
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.splitlines() == ["interrupted"]
    text = (out / "exp-seed9.jsonl").read_text()
    assert text.endswith("\n")
    assert [strict_json(line)["j"] for line in text.splitlines()] == [1, 2]


def test_sigint_ends_a_real_run_quietly_and_keeps_whole_lines(tmp_path):
    # cc2 on a 100-node cycle, past exact mode, runs 200 epochs of ~25 ms on
    # per-node clocks; SIGINT arrives once the run file holds a whole line
    n = 100
    payload = {"version": 1, "graph": {"n": n, "edges": [[i, (i + 1) % n] for i in range(n)]},
               "algorithm": "cc2", "horizon": 200, "seed": 7,
               "utilities": {"family": "log-shifted"},
               "overrides": {"beta": 5, "step": 0.5, "epoch_length": 100}}
    out = tmp_path / "out"
    run_file = out / "cycle100-seed7.jsonl"
    argv = [sys.executable, "-m", "csmasim.cli", "run",
            str(write_config(tmp_path, payload, "cycle100.json")), "--out", str(out)]
    # a shell starts background jobs with SIGINT ignored, which the child would inherit
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env(),
                          preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL)
                          ) as proc:
        try:
            deadline = time.monotonic() + BUDGET
            while not (run_file.is_file() and b"\n" in run_file.read_bytes()):
                assert proc.poll() is None, "the run ended before its first line"
                assert time.monotonic() < deadline, f"no whole line within {BUDGET:g} s"
                time.sleep(0.01)
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=BUDGET)
        finally:
            proc.kill()  # a child that ignored the signal; a no-op once it has exited
    assert proc.returncode == cli.EXIT_INTERRUPTED == 130
    assert (stdout, stderr) == (b"", b"interrupted\n")
    text = run_file.read_text()
    assert text.endswith("\n")
    records = [strict_json(line) for line in text.splitlines()]
    assert 1 <= len(records) < 200
    assert [rec["j"] for rec in records] == list(range(1, len(records) + 1))
    # no summary and no manifest
    assert [p.name for p in out.iterdir()] == [run_file.name]


# -- csmasim analyze ------------------------------------------------------------------

def run_analyze(capsys, *argv):
    rc = main(["analyze", *argv])
    out = capsys.readouterr().out
    return rc, (strict_json(out) if out else None)


def test_analyze_single_half_load(capsys):
    rc, report = run_analyze(capsys, "single", "--lambda", "0.5")
    assert rc == 0
    adm = report["admissibility"]
    assert adm["admissible"] is True
    assert adm["slack"] == pytest.approx(0.5, abs=1e-9)
    assert adm["decomposition"] == pytest.approx({"0x0": 0.5, "0x1": 0.5}, abs=1e-9)
    assert report["fitted_drive"] == pytest.approx([0.0], abs=1e-10)
    assert report["chain"]["conductance"] == pytest.approx(1.0, abs=1e-12)
    assert report["drive_norm_bound"] == pytest.approx(math.log(2) / 0.5, abs=1e-12)


def test_analyze_reports_inadmissible_without_fit(capsys):
    rc, report = run_analyze(capsys, "single", "--lambda", "1.0")
    assert rc == 0
    assert report["admissibility"]["admissible"] is False
    assert "fitted_drive" not in report


@pytest.mark.parametrize("rate", ["1e12", "1e20", "1e154"])
def test_analyze_reports_rates_past_1_at_any_scale(capsys, rate):
    rc, report = run_analyze(capsys, "cycle5", "--lambda", rate)
    assert rc == 0
    # the uniform load 2/5 is the largest cycle5 serves
    assert report["admissibility"] == {"admissible": False, "decomposition": None,
                                       "slack": pytest.approx(0.4 - float(rate), rel=1e-15)}
    assert "fitted_drive" not in report


def test_analyze_broadcasts_lambda(capsys):
    rc, report = run_analyze(capsys, "cycle5", "--lambda", "0.3")
    assert rc == 0
    assert report["admissibility"]["admissible"] is True
    assert report["fitted_drive"] == pytest.approx([0.35203229551578874] * 5, abs=1e-8)
    rc, _ = run_analyze(capsys, "cycle5", "--lambda", "0.3", "0.3")
    assert rc == 2  # 2 values on a 5-node graph


@pytest.mark.parametrize("rates, solved", [
    (["0.3"], [5]),                             # the fit reuses the report's LP
    (["0", "0.3", "0.3", "0.3", "0.3"], [5, 4]),  # a masked fit solves its own
], ids=["unmasked", "masked"])
def test_analyze_solves_each_admissibility_lp_once(monkeypatch, capsys, rates, solved):
    calls = []
    real = cli.is_strictly_admissible

    def counted(family, rates):
        calls.append(family.n)
        return real(family, rates)

    monkeypatch.setattr(cli, "is_strictly_admissible", counted)
    monkeypatch.setattr(gibbs, "is_strictly_admissible", counted)
    rc, report = run_analyze(capsys, "cycle5", "--lambda", *rates)
    assert rc == 0 and calls == solved
    monkeypatch.undo()
    fit = gibbs.solve_backoff(enumerate_independent_sets(preset("cycle5")),
                              [float(v) for v in rates] * (5 // len(rates)))
    assert report["fitted_drive"] == [None if math.isinf(v) else v for v in fit.r.tolist()]
    assert report["drive_norm_bound"] == fit.norm_bound


def test_analyze_congestion_certificates(capsys):
    rc, report = run_analyze(capsys, "clique2", "--utilities", "log-shifted",
                             "--beta", "10")
    assert rc == 0
    assert report["entropy_weight"] == 10.0
    assert report["utility_gap_bound"] == pytest.approx(math.log(3) / 10, abs=1e-12)
    assert report["utility_gap"] == pytest.approx(clique2_log_gap(10.0), abs=1e-9)
    assert report["dual"]["rates"] == pytest.approx([0.49968250084024324] * 2, abs=1e-7)
    assert report["optimal_rates"] == pytest.approx([0.5, 0.5], abs=1e-8)
    assert report["utility_gap"] <= report["utility_gap_bound"]


def test_analyze_beta_defaults_from_epsilon(capsys):
    rc, report = run_analyze(capsys, "clique2", "--utilities", "log-shifted",
                             "--epsilon", "0.4")
    assert rc == 0
    assert report["entropy_weight"] == pytest.approx(4 * 2 / 0.4)
    rc, _ = run_analyze(capsys, "clique2", "--utilities", "log-shifted")
    assert rc == 2  # neither beta nor epsilon
    # 8/1e-320 overflows to inf, which the dual solver would reject with a traceback
    assert main(["analyze", "clique2", "--utilities", "log-shifted", "--epsilon", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "beta must be positive and finite, got inf" in captured.err


# the entropy-weight rule on each path into it: `run`'s config (cc1 on clique2)
# and `analyze`'s flags; (overrides, the beta, or the text of the refusal)
BETA_RULE = {
    "beta": ({"beta": 7.0}, 7.0),
    "epsilon": ({"epsilon": 0.4}, 4 * 2 / 0.4),
    "beta-wins": ({"beta": 7.0, "epsilon": 0.4}, 7.0),
    "neither": ({}, "need beta (or epsilon for the 4n/eps default)"),
    "epsilon-0": ({"epsilon": 0.0}, "epsilon must be positive and finite, got 0.0"),
    "epsilon-negative": ({"epsilon": -1.0}, "epsilon must be positive and finite, got -1.0"),
    # 8/1e-320 overflows
    "epsilon-subnormal": ({"epsilon": 1e-320}, "beta must be positive and finite, got inf"),
    "beta-0": ({"beta": 0.0}, "beta must be positive and finite, got 0.0"),
    "beta-negative": ({"beta": -1.0}, "beta must be positive and finite, got -1.0"),
    "beta-nan": ({"beta": math.nan}, "beta must be positive and finite, got nan"),
    "beta-inf": ({"beta": math.inf}, "beta must be positive and finite, got inf"),
}


@pytest.mark.parametrize("case", BETA_RULE)
def test_run_and_analyze_share_the_entropy_weight_rule(capsys, case):
    overrides, expected = BETA_RULE[case]
    try:
        run = parse_config(dict(CC2, algorithm="cc1", overrides=overrides)).experiment.beta
    except ConfigError as exc:
        run = str(exc)
    if case in ("beta-nan", "beta-inf"):
        # JSON numbers refuse these first (config-number-past-float-range); the
        # config the parser builds applies the rule itself
        assert run == "overrides.beta must be a finite number within the float range"
        with pytest.raises(ConfigError) as refused:
            ExperimentConfig(graph=preset("clique2"), algorithm="cc1", horizon=4,
                             utilities=(UtilityFunction(),) * 2, **overrides)
        run = str(refused.value)
    flags = [arg for key, value in overrides.items() for arg in (f"--{key}", repr(value))]
    code = main(["analyze", "clique2", "--utilities", "log-shifted", *flags])
    captured = capsys.readouterr()
    if isinstance(expected, float):
        assert run == expected
        assert code == 0 and json.loads(captured.out)["entropy_weight"] == expected
    else:
        assert run.startswith(expected)
        assert (code, captured.out, captured.err) == (2, "", f"error: {run}\n")


@pytest.mark.parametrize("flags", [
    ("--utilities", "log-shifted", "--epsilon", "1e-16"),
    ("--utilities", "log-shifted", "--beta", "1e20"),
    ("--utilities", json.dumps({"family": "alpha-fair-shifted", "fairness": 5, "shift": 1e-3}),
     "--beta", "1e300"),
], ids=["epsilon-1e-16", "beta-1e20", "alpha-fair-beta-1e300"])
def test_analyze_refuses_a_law_past_float_resolution(capsys, flags):
    # the dual starts at prices beta U'(1) >= 4e16, where one rounding of
    # log Z to the top energy made clique2's law sum to 2 and served 1 + 1
    rc = main(["analyze", "clique2", *flags])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert captured.err.startswith("numeric failure: log Z = ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("beta", ["1e8", "1e10", "1e14"])
def test_analyze_refuses_a_gap_bound_within_the_dual_residual(capsys, beta):
    # log(5)/beta is below 3 x the residual ~1e-8; at 1e10 the gap printed
    # was 3.3e-9 against bound 1.6e-10, and at 1e14 the dual rates
    # [1, 2.3e-10, 1] overfilled the path
    rc = main(["analyze", "path3", "--utilities", "log-shifted", "--beta", beta])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert re.fullmatch(r"numeric failure: utility gap \S+ is not certified: its bound "
                        r"log\(schedules\)/beta = (\S+) must cover it and exceed (\S+), "
                        r"what the dual's residual \S+ can hide; lower beta\n", captured.err)


def test_analyze_refuses_a_gap_past_its_bound(capsys, monkeypatch):
    real = cli.utility_gap_certificate

    def missed(*args):
        cert = real(*args)
        return cert._replace(gap=cert.bound * 1.5)

    monkeypatch.setattr(cli, "utility_gap_certificate", missed)
    rc = main(["analyze", "clique2", "--utilities", "log-shifted", "--beta", "10"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert re.fullmatch(r"numeric failure: utility gap 1\.648e-01 is not certified: its bound "
                        r"log\(schedules\)/beta = 1\.099e-01 must cover it and exceed \S+, "
                        r"what the dual's residual \S+ can hide; lower beta\n", captured.err)


def test_analyze_large_family_skips_cut_enumeration(capsys):
    rc, report = run_analyze(capsys, "grid3x3")
    assert rc == 0
    assert report["independent_set_count"] == 63
    assert "skipped" in report["chain"]


@pytest.mark.parametrize("argv, detail", [
    # lambda_max sits within a few ulps of 1 (or on it), where eigvalsh cannot
    # resolve the gap; a mixing estimate from it would be noise or undefined
    (("clique2", "--beta", "100"), "spectral gap"),
    # the dual prices reach ~996, past what the kernel can represent
    (("path3", "--beta", "1000"), "past the kernel's range"),
    (("path3", "--epsilon", "0.4"), "spectral gap"),
    (("cycle5", "--epsilon", "0.4"), "spectral gap"),
])
def test_analyze_chain_diagnostics_fail_closed(capsys, argv, detail):
    graph, *flags = argv
    rc, report = run_analyze(capsys, graph, "--utilities", "log-shifted", *flags)
    assert rc == 0
    assert set(report["chain"]) == {"skipped"}
    assert detail in report["chain"]["skipped"]
    # the exact part of the report stands
    assert report["utility_gap"] <= report["utility_gap_bound"]


LINEAR = {"family": "alpha-fair-shifted"}  # fairness 0: U(y) = y


@pytest.mark.parametrize("graph, spec, node", [
    ("single", "alpha-fair-shifted", 0),
    ("clique2", "alpha-fair-shifted", 0),
    ("cycle5", "alpha-fair-shifted", 0),
    ("clique2", json.dumps([{"family": "alpha-fair-shifted", "fairness": 2.0}, LINEAR]), 1),
], ids=["single", "clique2", "cycle5", "clique2-one-linear-node"])
def test_analyze_refuses_a_linear_utility(capsys, graph, spec, node):
    # a linear utility makes the dual nondifferentiable; Newton would stall
    rc = main(["analyze", graph, "--utilities", spec, "--beta", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"the utility of node {node} is linear" in captured.err


def test_analyze_simplex_pivot_cap_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
    rc = main(["analyze", "cycle5", "--lambda", "0.3"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "simplex hit the cap of 1 pivots" in captured.err


def test_analyze_dominant_schedule_prints_strict_json(capsys):
    # at this entropy weight one schedule holds nearly all of the law; the
    # report must hold no infinity or NaN wherever the chain block lands
    rc, _ = run_analyze(capsys, "cycle5", "--utilities", "log-shifted", "--epsilon", "0.4")
    assert rc == 0


@pytest.mark.parametrize("graph", ["grid3x3", "grid4x4"])
def test_analyze_certifies_the_grids_at_the_default_entropy_weight(tmp_path, capsys, graph):
    if graph == "grid4x4":
        graph = tmp_path / "grid4x4.txt"
        edges = [(v, v + 1) for v in range(16) if v % 4 != 3]
        edges += [(v, v + 4) for v in range(12)]
        graph.write_text("16\n" + "".join(f"{i} {j}\n" for i, j in edges))
    rc, report = run_analyze(capsys, str(graph), "--utilities", "log-shifted",
                             "--epsilon", "0.4")
    assert rc == 0
    assert report["dual"]["residual"] <= 1e-8
    # the dual's rates may sit outside the polytope by Frank-Wolfe's tolerance
    assert -1e-8 <= report["utility_gap"] <= report["utility_gap_bound"]


@pytest.mark.parametrize("flags", [
    ("--utilities", "log-shifted", "--beta", "0"),
    ("--utilities", "log-shifted", "--beta", "-1"),
    ("--utilities", "log-shifted", "--beta", "nan"),
    ("--utilities", "log-shifted", "--beta", "inf"),
    ("--utilities", "log-shifted", "--epsilon", "-1"),
    ("--utilities", '{"family": "log-shifted", "shift": Infinity}', "--beta", "5"),
    ("--utilities", '{"family": "log-shifted", "shift": %s}' % HUGE, "--beta", "5"),
    ("--lambda", "-0.1"),
    ("--lambda", "nan"),
], ids=["beta-0", "beta-negative", "beta-nan", "beta-inf", "epsilon-negative",
        "utility-shift-inf", "utility-shift-huge-int", "lambda-negative", "lambda-nan"])
def test_analyze_rejects_bad_numeric_flags(capsys, flags):
    rc = main(["analyze", "cycle5", *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_analyze_unknown_graph(capsys):
    rc, _ = run_analyze(capsys, "dodecahedron")
    assert rc == 2


def test_analyze_reads_edge_list_files(tmp_path, capsys):
    listing = tmp_path / "pair.txt"
    listing.write_text("2\n0 1\n")
    rc, report = run_analyze(capsys, str(listing), "--lambda", "0.4")
    assert rc == 0
    assert report["graph"]["nodes"] == 2


@pytest.mark.parametrize("text", ["3\n0 5\n", "three\n0 1\n", "2\n0 x\n", "1000000000\n"],
                         ids=["edge-out-of-range", "bad-count", "bad-node", "too-many-nodes"])
def test_analyze_rejects_malformed_edge_list_files(tmp_path, capsys, text):
    listing = tmp_path / "bad.txt"
    listing.write_text(text)
    rc = main(["analyze", str(listing)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: graph file")


# -- csmasim presets -------------------------------------------------------------------

def test_presets_lists_everything(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("single", "clique2", "path3", "cycle5", "grid3x3"):
        assert name in out
    assert "n=9" in out  # grid3x3 node count in the banner
