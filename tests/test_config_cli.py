"""JSON config contract and the command-line surface.

CLI tests call main() in-process so exit codes and stdout are observable
without subprocesses; only the import check needs a fresh interpreter.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csmasim
from csmasim.cli import main
from csmasim.conflict_graph import enumerate_independent_sets, is_strictly_admissible, preset
from csmasim.config import config_hash, load_config, parse_config
from csmasim.congestion import utility_gap_certificate
from csmasim.errors import ConfigError


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


# -- parsing ---------------------------------------------------------------------

def test_parse_happy_path():
    parsed = parse_config(BASE)
    cfg = parsed.experiment
    assert cfg.graph.n == 2
    assert cfg.algorithm == "sched1"
    assert cfg.arrivals.rates == pytest.approx([0.2, 0.2])  # scalar broadcast
    assert parsed.output is None
    assert parsed.digest == config_hash(BASE)


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
    with pytest.raises(ConfigError):
        parse_config(dict(BASE, graph={"edges": [[0, 1]]}))  # edges without n
    with pytest.raises(ConfigError):
        parse_config(dict(BASE, graph={"path": "missing.txt"}), base_dir=tmp_path)


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
    assert parsed.experiment.resolved_beta() == 10.0
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
    first = json.loads(lines[0])
    assert first["j"] == 1 and len(first["drive"]) == 2
    meta = json.loads(manifest.read_text())
    assert meta["seeds"] == [9]
    assert meta["config_hash"] == config_hash(BASE)
    assert meta["outputs"] == ["exp-seed9.jsonl"]


def test_run_is_byte_identical_across_invocations(tmp_path):
    cfg_path = write_config(tmp_path, dict(BASE, horizon=6))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg_path), "--out", str(out_b)]) == 0
    assert (out_a / "exp-seed9.jsonl").read_bytes() == (out_b / "exp-seed9.jsonl").read_bytes()


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


def test_run_output_dir_from_environment(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, BASE)
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("CSMASIM_OUT", str(env_dir))
    assert main(["run", str(cfg_path)]) == 0
    assert (env_dir / "exp-seed9.jsonl").exists()


def test_run_summary_carries_certificates(tmp_path):
    cfg_path = write_config(tmp_path, BASE)
    out = tmp_path / "s"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "exp-seed9-summary.json").read_text())
    cert = summary["certificates"]
    assert cert["admissible"] is True
    assert "drive_distance_to_fit" in cert
    assert summary["seed"] == 9


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
                                     experiment.resolved_beta(), served)
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
    src = str(Path(csmasim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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


# -- csmasim analyze ------------------------------------------------------------------

def run_analyze(capsys, *argv):
    rc = main(["analyze", *argv])
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out else None)


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


def test_analyze_broadcasts_lambda(capsys):
    rc, report = run_analyze(capsys, "cycle5", "--lambda", "0.3")
    assert rc == 0
    assert report["admissibility"]["admissible"] is True
    assert report["fitted_drive"] == pytest.approx([0.35203229551578874] * 5, abs=1e-8)
    rc, _ = run_analyze(capsys, "cycle5", "--lambda", "0.3", "0.3")
    assert rc == 2  # 2 values on a 5-node graph


def test_analyze_congestion_certificates(capsys):
    rc, report = run_analyze(capsys, "clique2", "--utilities", "log-shifted",
                             "--beta", "10")
    assert rc == 0
    assert report["entropy_weight"] == 10.0
    assert report["utility_gap_bound"] == pytest.approx(math.log(3) / 10, abs=1e-12)
    assert report["utility_gap"] == pytest.approx(0.0004233770218727839, abs=1e-9)
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


def test_analyze_large_family_skips_cut_enumeration(capsys):
    rc, report = run_analyze(capsys, "grid3x3")
    assert rc == 0
    assert report["independent_set_count"] == 63
    assert "skipped" in report["chain"]


@pytest.mark.parametrize("argv, detail", [
    # lambda_max rounds to exactly 1, so the relaxation-time estimate is undefined
    (("clique2", "--beta", "100"), "spectral gap"),
    # the dual prices reach ~996, past what the kernel can represent
    (("path3", "--beta", "1000"), "past the kernel's range"),
    # lambda_max sits within rounding of 1; a rounding-level gap would make
    # the mixing estimate meaningless or negative
    (("path3", "--epsilon", "0.4"), "spectral gap"),
])
def test_analyze_chain_diagnostics_fail_closed(capsys, argv, detail):
    graph, *flags = argv
    rc = main(["analyze", graph, "--utilities", "log-shifted", *flags])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "numeric failure" in captured.err and detail in captured.err


def test_analyze_dominant_schedule_prints_strict_json(capsys):
    # at this entropy weight one schedule holds nearly all of the law; the
    # cut flow must not cancel to -0.0 or divide to an infinity
    rc = main(["analyze", "cycle5", "--utilities", "log-shifted", "--epsilon", "0.4"])
    assert rc == 0

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert 0.0 <= report["chain"]["conductance"] < 1e-10
    assert report["chain"]["cheeger_upper"] == pytest.approx(1.0, abs=1e-12)


def test_analyze_unknown_graph(capsys):
    rc, _ = run_analyze(capsys, "dodecahedron")
    assert rc == 2


def test_analyze_reads_edge_list_files(tmp_path, capsys):
    listing = tmp_path / "pair.txt"
    listing.write_text("2\n0 1\n")
    rc, report = run_analyze(capsys, str(listing), "--lambda", "0.4")
    assert rc == 0
    assert report["graph"]["nodes"] == 2


# -- csmasim presets -------------------------------------------------------------------

def test_presets_lists_everything(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("single", "clique2", "path3", "cycle5", "grid3x3"):
        assert name in out
    assert "n=9" in out  # grid3x3 node count in the banner
