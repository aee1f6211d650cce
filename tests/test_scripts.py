"""Smoke runs of the sweep scripts: each main() in-process on tiny inputs."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, expect", [
    ("chain_mixing_report", ["--drives", "0.0"],
     ["cycle5", "skipped: conductance is exhaustive over cuts"]),
    ("rate_stability_sweep", ["--loads", "0.5", "--epochs", "20"],
     ["cycle5: n=5", "0.50"]),
    ("utility_gap_sweep", ["--betas", "5"], ["clique2: |schedules|=3", "optimal rates"]),
    # the spectral gap rounds to 0 at this drive
    ("chain_mixing_report", ["--graphs", "clique2", "--drives", "40"],
     ["clique2", "skipped: spectral gap"]),
    # path3's symmetric capacity is 0.5, below its largest schedule's 2/3
    ("rate_stability_sweep", ["--graph", "path3", "--loads", "0.9", "--epochs", "20"],
     ["symmetric capacity 0.5000 per node", "0.90   0.4500"]),
])
def test_script_main_runs(monkeypatch, capsys, name, argv, expect):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    assert load(name).main() == 0
    out = capsys.readouterr().out
    for text in expect:
        assert text in out


def test_output_digests_runs_a_subset(monkeypatch, capsys):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)  # the script pins them; restored after
    module = load("output_digests")
    commands = dict(module.COMMANDS)
    subset = ["oracle-cc2-clique2-queued", "controlled-sched1-single",
              "analyze-grid4x4-lambda-0.9cap", "analyze-cycle5-masked"]
    monkeypatch.setattr(module, "COMMANDS", [(name, commands[name]) for name in subset])
    assert module.main() == 0
    first = capsys.readouterr().out
    assert module.main() == 0
    assert capsys.readouterr().out == first  # manifests hash without their timestamps
    lines = [line.split("  ") for line in first.splitlines()]
    assert all(re.fullmatch("[0-9a-f]{64}", sha) for sha, _ in lines)
    assert [name for _, name in lines] == [
        "oracle-cc2-clique2-queued-manifest.json",
        "oracle-cc2-clique2-queued-seed0-summary.json",
        "oracle-cc2-clique2-queued-seed0.jsonl",
        "controlled-sched1-single-manifest.json",
        "controlled-sched1-single-seed1-summary.json",
        "controlled-sched1-single-seed1.jsonl",
        "analyze-grid4x4-lambda-0.9cap", "analyze-cycle5-masked"]


def test_utility_gap_sweep_refuses_a_gap_it_cannot_certify(monkeypatch):
    # at beta 1e14 the bound log(5)/beta is far below what the dual's
    # stopping residual can hide in the gap
    monkeypatch.setattr(sys, "argv", ["utility_gap_sweep.py", "--graph", "path3",
                                      "--betas", "1e14"])
    with pytest.raises(SystemExit, match=r"^beta 1e\+14: gap \S+ is not certified by its "
                                         r"bound 1\.609e-14 with residual error \S+$"):
        load("utility_gap_sweep").main()
