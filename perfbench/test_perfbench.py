"""Tests of the benchmark itself: output checks, failure capture, span self times.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import types

import numpy as np
import pytest

import checks
import run
import tracing
import workloads


def _record(j, drive, queue=None, peak=None, ratio=0.0):
    queue = queue if queue is not None else [0.0] * len(drive)
    return {"j": j, "drive": drive, "queue": queue,
            "peak_queue": peak if peak is not None else queue, "max_queue_ratio": ratio}


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_non_finite_jsonl_fails(token):
    text = '{"j": 1, "x": 0.5}\n{"j": 2, "x": ' + token + "}\n"
    with pytest.raises(checks.CheckFailed, match="^non-finite"):
        checks.strict_jsonl(text)


def test_finite_jsonl_passes():
    assert checks.strict_jsonl('{"a": [1.5, -2e10]}\n{"a": []}\n') == [
        {"a": [1.5, -2e10]}, {"a": []}]


def test_sched2_drive_outside_box_fails():
    summary = {"certificates": {"admissible": True}}
    inside = [_record(1, [24.9] * 5), _record(2, [-25.0] * 5)]
    checks.check_sched2(inside, summary, n=5, epsilon=0.2)
    outside = inside + [_record(3, [0.0, 0.0, 25.01, 0.0, 0.0])]
    with pytest.raises(checks.CheckFailed, match="box"):
        checks.check_sched2(outside, summary, n=5, epsilon=0.2)
    with pytest.raises(checks.CheckFailed, match="admissible"):
        checks.check_sched2(inside, {"certificates": None}, n=5, epsilon=0.2)
    with pytest.raises(checks.CheckFailed, match="max_queue_ratio"):
        checks.check_sched2([_record(1, [0.0] * 5, ratio=0.06)], summary, n=5, epsilon=0.2)


def test_cc2_price_box_and_coupling():
    # beta 5, alpha 0.5: prices in [0, 5.5], queue <= 200 * next price
    good = [_record(1, [0.0, 0.0], queue=[10.0, 0.0]), _record(2, [0.1, 0.0])]
    checks.check_cc2(good, beta=5.0, alpha=0.5, slope=1.0, length=100.0)
    with pytest.raises(checks.CheckFailed, match="price"):
        checks.check_cc2([_record(1, [5.6, 0.0])], beta=5.0, alpha=0.5, slope=1.0,
                         length=100.0)
    broken = [_record(1, [0.0, 0.0], queue=[30.0, 0.0]), _record(2, [0.1, 0.0])]
    with pytest.raises(checks.CheckFailed, match="coupling"):
        checks.check_cc2(broken, beta=5.0, alpha=0.5, slope=1.0, length=100.0)


def test_run_verify_rejects_infinity_in_written_jsonl(tmp_path):
    (op,) = workloads.sched2_cycle5(tmp_path, seed=3)
    op.out_dir.mkdir()
    stem = "sched2-cycle5"
    rows = [_record(j, [0.0] * 5) for j in range(1, workloads.SCHED2["horizon"] + 1)]
    lines = [json.dumps(r) for r in rows]
    (op.out_dir / f"{stem}-seed3-summary.json").write_text(
        json.dumps({"certificates": {"admissible": True}}))
    (op.out_dir / f"{stem}-manifest.json").write_text("{}")
    jsonl = op.out_dir / f"{stem}-seed3.jsonl"
    jsonl.write_text("\n".join(lines) + "\n")
    assert op.verify("", op.out_dir)["final_drive"] == [0.0] * 5
    lines[7] = lines[7].replace('"max_queue_ratio": 0.0', '"max_queue_ratio": Infinity')
    jsonl.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="^non-finite"):
        op.verify("", op.out_dir)


def test_reference_values():
    assert workloads.schedules(5, workloads.cycle(5)).shape == (11, 5)
    assert workloads.schedules(16, workloads.grid(4, 4)).shape == (1234, 16)
    assert workloads.symmetric_capacity(
        workloads.schedules(5, workloads.cycle(5))) == pytest.approx(0.4)
    matrix = workloads.schedules(9, workloads.grid(3, 3))
    assert workloads.symmetric_capacity(matrix) == pytest.approx(0.5)
    r = workloads.fitted_drive(matrix, np.full(9, 0.3))
    probs = np.exp(matrix @ r)
    assert probs / probs.sum() @ matrix == pytest.approx(np.full(9, 0.3), abs=1e-9)


FAKE_CLI = '''
import sys
def load_config(path): return path
def _load_graph(source): return source
def run_experiment(*args, **kwargs): yield from ()
def enumerate_independent_sets(graph): return graph
def main(argv):
    if argv[0] == "raise":
        raise ZeroDivisionError("float division by zero")
    print("numeric failure: cap", file=sys.stderr)
    return 3
'''


@pytest.fixture
def fake_program(tmp_path, monkeypatch):
    """A stand-in csmasim whose command raises or exits 3, as the argument says."""
    package = tmp_path / "src" / "csmasim"
    package.mkdir(parents=True)
    for name in ("__init__", "chain", "config", "conflict_graph", "congestion",
                 "scheduling", "simplex", "traffic"):
        (package / f"{name}.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI)
    (package / "engine.py").write_text(
        "def simulate(*a, **k): pass\ndef enumerate_independent_sets(g): return g\n")
    (package / "gibbs.py").write_text("def enumerate_independent_sets(g): return g\n")
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    return tmp_path


@pytest.mark.parametrize("command, reason", [
    ("raise", "exception: ZeroDivisionError: float division by zero"),
    ("exit", "exit 3: numeric failure: cap"),
])
def test_failed_operation_is_counted_with_reason(fake_program, command, reason):
    op = workloads.Op("fake", (command,), None, lambda out, _: {})
    outcome = run.run_op(op, fake_program, timeout=60.0, trace_path=None)
    assert outcome.failure == reason
    assert outcome.wall > 0.0


def test_seed_failure_counts_only_with_its_own_reason():
    cap = "grid3x3 log-shifted epsilon=0.4"
    assert workloads.is_seed_failure(
        cap, "exit 3: numeric failure: dual descent hit the iteration cap at residual 3e-08")
    assert not workloads.is_seed_failure(cap, "timeout after 170 s")
    assert not workloads.is_seed_failure(cap, "check: utility_gap 2 > bound 1")
    assert not workloads.is_seed_failure("grid3x3 lambda=0.9cap", "non-finite JSON: -Infinity")
    assert workloads.is_seed_failure("cycle5 log-shifted epsilon=0.4",
                                     "non-finite JSON: -Infinity")


def test_wrong_report_with_infinity_fails_on_the_check(tmp_path):
    ops = {op.name: op for op in workloads.analyze_sweep(tmp_path, 0)}
    op = ops["cycle5 log-shifted epsilon=0.4"]
    report = {"graph": {"edges": workloads.cycle(5)}, "utility_gap": 1.0,
              "utility_gap_bound": 2.0, "conductance": "INF"}
    finite = json.dumps(report)
    op.verify(finite, None)
    with pytest.raises(checks.CheckFailed, match="^non-finite JSON: -Infinity"):
        op.verify(finite.replace('"INF"', "-Infinity"), None)
    wrong = finite.replace('"utility_gap": 1.0', '"utility_gap": 3.0')
    with pytest.raises(checks.CheckFailed, match="^check: utility_gap"):
        op.verify(wrong.replace('"INF"', "-Infinity"), None)


def test_gated_times_are_scaled_by_host_speed():
    # an operation that ran while the reference loop took twice REFERENCE_S
    # counts half its wall time
    slow = types.SimpleNamespace(wall=2.0, scale=0.5)
    quick = types.SimpleNamespace(wall=1.0, scale=1.0)
    assert run._per_op([[slow, quick], [quick]], lambda o: o.wall * o.scale) == [1.0, 1.0]
    assert run._per_op([[slow, quick], [quick]], lambda o: o.wall) == [1.5, 1.0]


def _spans(rows, names):
    """rows: (name index, parent index, start, end)."""
    name, parent, start, end = (np.array(col) for col in zip(*rows))
    return {"names": np.array(names), "name": name, "parent": parent,
            "start": start.astype(float), "end": end.astype(float),
            "failed": np.zeros(len(rows), dtype=np.int8)}


def test_self_time_on_nested_trace():
    names = ["cli.main", "engine.run_experiment", "chain.simulate"]
    # main [0,10] > run_experiment [1,4] > simulate [2,3];  main > run_experiment [5,9]
    spans = _spans([(0, -1, 0, 10), (1, 0, 1, 4), (2, 1, 2, 3), (1, 0, 5, 9)], names)
    own = tracing.self_times(spans["parent"], spans["start"], spans["end"])
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    summary = tracing.summarize(spans, wall=12.0)
    assert summary["layer_self"] == {"process": 2.0, "cli": 3.0, "engine": 6.0, "chain": 1.0}
    assert sum(summary["layer_self"].values()) == 12.0
    assert summary["inclusive"]["engine.run_experiment"] == 7.0
    assert summary["calls"]["engine.run_experiment"] == 2


def test_tracer_records_nesting_generators_and_failures():
    module = types.ModuleType("csmasim.fake")

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def steps(n):
        for k in range(n):
            yield module.leaf(k)

    def outer(n):
        return list(module.steps(n))

    for fn in (leaf, steps, outer):
        fn.__module__ = "csmasim.fake"
        setattr(module, fn.__name__, fn)
    module._private = leaf
    tracer = tracing.Tracer()
    tracer.install([module])
    assert module._private is leaf
    assert module.outer(2) == [0, 1]
    with pytest.raises(ValueError):
        module.leaf(-1)
    labels = [tracer.names[i] for i in tracer.name]
    # outer; steps resumed three times (two items, then exhaustion); leaf per item
    assert labels == ["fake.outer", "fake.steps", "fake.leaf", "fake.steps",
                      "fake.leaf", "fake.steps", "fake.leaf"]
    assert list(tracer.parent) == [-1, 0, 1, 0, 3, 0, -1]
    assert list(tracer.failed) == [0, 0, 0, 0, 0, 0, 1]
    spans = {"names": np.array(tracer.names), "name": np.frombuffer(tracer.name, np.int32),
             "parent": np.frombuffer(tracer.parent, np.int32),
             "start": np.frombuffer(tracer.start), "end": np.frombuffer(tracer.end),
             "failed": np.frombuffer(tracer.failed, np.int8)}
    own = tracing.self_times(spans["parent"], spans["start"], spans["end"])
    assert own.min() >= 0.0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
