"""End-to-end experiment loop: config validation, reproducibility, ledger
invariants, oracle/recursion equivalence, and the run diagnostics."""

import dataclasses
import functools
import itertools
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csmasim.congestion import UtilityFunction, best_responses
from csmasim import cli, engine, traffic
from csmasim.chain import DRIVE_LIMIT, simulate
from csmasim.config import load_config, parse_config
from csmasim.conflict_graph import (EXACT_MODE_CAP, MAX_NODES, ConflictGraph,
                                    enumerate_independent_sets, preset)
from csmasim.engine import (CONSERVATION_TOL, DESK_TIME_LIMIT, EPOCH_LIMIT, MODES, ORACLE,
                            ExperimentConfig, MetricsRecord, run_experiment)
from csmasim.errors import (ConfigError, ExactModeUnavailable, InvariantViolation,
                            NumericFailure)
from csmasim.gibbs import service_rates
from csmasim.scheduling import published_epoch_length, update_diminishing
from csmasim.traffic import ArrivalSpec, sample_epoch_arrivals

from oracles import oracle_run_per_epoch

LOG1 = UtilityFunction("log-shifted")


def bern(rates, peak=1.0):
    return ArrivalSpec("scaled-bernoulli", rates, peak=peak)


def sched1(graph="single", rates=(0.5,), **kw):
    return ExperimentConfig(graph=preset(graph), algorithm="sched1", horizon=kw.pop("horizon", 5),
                            arrivals=bern(list(rates)), **kw)


# -- config validation ---------------------------------------------------------

def test_config_rejects_mismatched_workloads():
    g = preset("clique2")
    with pytest.raises(ConfigError, match="needs an arrival spec"):
        ExperimentConfig(graph=g, algorithm="sched1", horizon=5)
    with pytest.raises(ConfigError, match="needs a utility per node"):
        ExperimentConfig(graph=g, algorithm="cc1", horizon=5)
    with pytest.raises(ConfigError, match="generate their own"):
        ExperimentConfig(graph=g, algorithm="cc1", horizon=5,
                         utilities=(LOG1, LOG1), arrivals=bern([0.1, 0.1]))
    with pytest.raises(ConfigError, match="no utilities"):
        ExperimentConfig(graph=g, algorithm="sched1", horizon=5,
                         arrivals=bern([0.1, 0.1]), utilities=(LOG1, LOG1))
    with pytest.raises(ConfigError, match="covers"):
        ExperimentConfig(graph=g, algorithm="sched1", horizon=5, arrivals=bern([0.1]))
    with pytest.raises(ConfigError, match="need 2 utilities"):
        ExperimentConfig(graph=g, algorithm="cc1", horizon=5, utilities=(LOG1,))


def test_config_rejects_bad_knobs():
    g = preset("clique2")
    ok = dict(graph=g, horizon=5, arrivals=bern([0.1, 0.1]))
    with pytest.raises(ConfigError, match="unknown algorithm"):
        ExperimentConfig(algorithm="sched3", **ok)
    with pytest.raises(ConfigError, match="unknown mode"):
        ExperimentConfig(algorithm="sched1", mode="exact", **ok)
    with pytest.raises(ConfigError, match="horizon"):
        ExperimentConfig(graph=g, algorithm="sched1", horizon=0,
                         arrivals=bern([0.1, 0.1]))
    with pytest.raises(ConfigError, match="slack epsilon"):
        ExperimentConfig(algorithm="sched2", **ok)
    with pytest.raises(ConfigError, match="positive step"):
        ExperimentConfig(algorithm="cc2", graph=g, horizon=5, utilities=(LOG1, LOG1))
    with pytest.raises(ConfigError, match="cannot be overridden"):
        ExperimentConfig(algorithm="sched1", step=0.1, **ok)
    with pytest.raises(ConfigError, match="reads no epsilon"):
        ExperimentConfig(algorithm="sched1", epsilon=0.3, **ok)
    with pytest.raises(ConfigError, match="epoch_length"):
        ExperimentConfig(algorithm="sched1", epoch_length=0, **ok)
    with pytest.raises(ConfigError, match="initial_queue"):
        ExperimentConfig(algorithm="sched1", initial_queue=(1.0,), **ok)
    with pytest.raises(ConfigError, match="beta only applies"):
        ExperimentConfig(algorithm="sched1", beta=10.0, **ok)
    for name in ("horizon", "epoch_length"):  # True would count as 1
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(algorithm="sched1", **dict(ok, **{name: True}))


def test_resolved_beta_rules():
    g = preset("clique2")
    cfg = ExperimentConfig(graph=g, algorithm="cc1", horizon=5,
                           utilities=(LOG1, LOG1), beta=7.0)
    assert cfg.beta == 7.0
    cfg = ExperimentConfig(graph=g, algorithm="cc1", horizon=5,
                           utilities=(LOG1, LOG1), epsilon=0.4)
    assert cfg.beta == pytest.approx(4 * 2 / 0.4)
    with pytest.raises(ConfigError, match="need beta"):
        ExperimentConfig(graph=g, algorithm="cc1", horizon=5, utilities=(LOG1, LOG1))
    # checked at construction, including a default that overflows: 8/1e-308
    for bad in (dict(beta=-1.0), dict(epsilon=1e-308)):
        with pytest.raises(ConfigError, match="beta must be positive and finite"):
            ExperimentConfig(graph=g, algorithm="cc1", horizon=5,
                             utilities=(LOG1, LOG1), **bad)


def test_resolved_constant_epoch_needs_override_at_desk_scale():
    cfg = ExperimentConfig(graph=preset("cycle5"), algorithm="sched2", horizon=5,
                           arrivals=bern([0.1] * 5), epsilon=0.2, epoch_length=50)
    assert cfg.epoch_length == 50
    with pytest.raises(ConfigError, match="out of desk range"):
        ExperimentConfig(graph=preset("cycle5"), algorithm="sched2", horizon=5,
                         arrivals=bern([0.1] * 5), epsilon=0.2)


def test_sched2_takes_the_published_plan_where_it_fits():
    # cycle5 at eps 2: exp((25 / 2) log(5 / 2)) = 94 243.2 rounds up, and the
    # step is eps^2 / (72 n^2 (peak + 1)^2) = 4 / 7 200
    cfg = ExperimentConfig(graph=preset("cycle5"), algorithm="sched2", horizon=5,
                           arrivals=bern([0.1] * 5), epsilon=2.0)
    assert (cfg.epoch_length, cfg.step) == (94_244, 1 / 1800)


@pytest.mark.parametrize("algorithm", ["sched1", "cc1"])
def test_published_diminishing_schedule_is_capped_at_construction(algorithm):
    # on two nodes, epochs 1..207 of ceil(exp(sqrt(j))) add up to 9.67e7 node-time
    # units, 1..208 to 1.003e8
    lengths = [published_epoch_length(j) for j in range(1, 209)]
    assert 2 * sum(lengths[:-1]) <= engine.DESK_TIME_LIMIT < 2 * sum(lengths)
    workload = (dict(arrivals=bern([0.1, 0.1])) if algorithm == "sched1"
                else dict(utilities=(LOG1, LOG1), beta=10.0))
    make = functools.partial(ExperimentConfig, graph=preset("clique2"),
                             algorithm=algorithm, **workload)
    with pytest.raises(ConfigError, match="set a shorter epoch_length"):
        make(horizon=208)
    make(horizon=207)
    make(horizon=340, epoch_length=60)
    make(horizon=340, mode="deterministic-oracle")  # fluid epochs cost no events
    with pytest.raises(ConfigError, match="more than 1e\\+08 node-time units"):
        make(horizon=EPOCH_LIMIT)
    with pytest.raises(ConfigError, match=f"at most {EPOCH_LIMIT} epochs"):
        make(horizon=EPOCH_LIMIT + 1)
    # the oracle's lengths at the limit add up to at most the largest float, so
    # they stay within a ledger that fills at it (cc1's inflow is 1 per time unit)
    make(horizon=EPOCH_LIMIT, mode="deterministic-oracle")


def test_epoch_limit_is_the_last_finite_clock():
    # the exact total of the published lengths fits in a float through the
    # limit and not one epoch further, and so does the engine's float clock
    total, clock = 0, 0.0
    for j in range(1, EPOCH_LIMIT + 1):
        length = published_epoch_length(j)
        total += length
        clock += length
    following = published_epoch_length(EPOCH_LIMIT + 1)
    assert total <= sys.float_info.max < total + following
    assert math.isfinite(clock) and clock + following == math.inf


# -- guards, each checked on both sides by construction alone ---------------------

def _cheap_graph(n):
    """A graph whose family resolves at once: a clique (n + 1 sets) within the
    exact-mode cap, and no edges past it, where it is refused before any set
    is listed."""
    edges = itertools.combinations(range(n), 2) if n <= EXACT_MODE_CAP else ()
    return ConflictGraph.from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, MAX_NODES), length=st.integers(1, 10**5), above=st.booleans())
@example(n=1, length=1, above=False)  # 1e8 epochs: the epoch limit refuses them first
@example(n=1, length=203, above=True)  # 492 611 epochs, the budget's largest horizon + 1
@example(n=1, length=203, above=False)
def test_time_budget_bounds_nodes_times_horizon_times_length(n, length, above):
    horizon = int(DESK_TIME_LIMIT) // (n * length) + above
    if horizon < 1:
        return  # a single epoch already passes the budget; the other side covers it
    make = functools.partial(ExperimentConfig, graph=_cheap_graph(n), algorithm="sched1",
                             horizon=horizon, arrivals=bern([0.1] * n),
                             epoch_length=length)
    assert (n * horizon * length > DESK_TIME_LIMIT) == above
    if horizon > EPOCH_LIMIT:
        with pytest.raises(ConfigError, match=f"at most {EPOCH_LIMIT} epochs"):
            make()
    elif above:
        with pytest.raises(ConfigError, match="node-time units"):
            make()
    else:
        make()


@settings(max_examples=40, deadline=None)
@given(length=st.one_of(st.integers(-2, 2).map(lambda d: int(DESK_TIME_LIMIT) + d),
                        st.integers(1, 10**12), st.integers(10**12, 10**400)))
def test_epoch_length_cap(length):
    # oracle epochs are exempt from the run's budget, so only the cap applies
    make = functools.partial(sched1, horizon=1, epoch_length=length, mode=ORACLE)
    if length > DESK_TIME_LIMIT:
        with pytest.raises(ConfigError, match="epoch_length override must be"):
            make()
    else:
        make()


@settings(max_examples=40, deadline=None)
# past the exact-mode cap, so an edgeless graph is refused before any set is listed
@given(n=st.one_of(st.integers(-2, 2).map(lambda d: MAX_NODES + d),
                   st.integers(EXACT_MODE_CAP + 1, 4 * MAX_NODES),
                   st.integers(EXACT_MODE_CAP + 1, 10**30)))
def test_node_cap(n):
    data = {"version": 1, "graph": {"n": n}, "algorithm": "sched1", "horizon": 1,
            "seed": 0, "arrivals": {"kind": "scaled-bernoulli", "rates": 0.1},
            "overrides": {"epoch_length": 1}}
    if n > MAX_NODES:  # refused before the O(n) neighbour masks are built
        with pytest.raises(ConfigError, match=f"1 to {MAX_NODES} nodes"):
            parse_config(data)
    else:
        assert parse_config(data).experiment.graph.n == n


@settings(max_examples=40, deadline=None)
@given(horizon=st.one_of(st.integers(-2, 2).map(lambda d: EPOCH_LIMIT + d),
                         st.integers(1, 10**400)),
       algorithm=st.sampled_from(["sched1", "cc1"]), mode=st.sampled_from(MODES))
@example(horizon=2000, algorithm="sched1", mode=ORACLE)  # A06
@example(horizon=5000, algorithm="sched1", mode=ORACLE)  # the benchmark's oracle workload
@example(horizon=10_000, algorithm="cc1", mode=ORACLE)  # A08
@example(horizon=10_000, algorithm="sched1", mode="stochastic")
@example(horizon=EPOCH_LIMIT, algorithm="cc1", mode=ORACLE)
@example(horizon=EPOCH_LIMIT, algorithm="sched1", mode="stochastic")
@example(horizon=EPOCH_LIMIT + 1, algorithm="sched1", mode=ORACLE)
@example(horizon=EPOCH_LIMIT + 1, algorithm="cc1", mode="stochastic")
@example(horizon=10**400, algorithm="cc1", mode="stochastic")
def test_epoch_limit_in_every_mode(horizon, algorithm, mode):
    workload = (dict(arrivals=bern([0.5])) if algorithm == "sched1"
                else dict(utilities=(LOG1,), beta=10.0))
    make = functools.partial(ExperimentConfig, graph=preset("single"), algorithm=algorithm,
                             horizon=horizon, mode=mode, **workload)
    if horizon > EPOCH_LIMIT:  # on the published lengths and on fixed ones alike
        for length in (None, 1):
            with pytest.raises(ConfigError, match=f"at most {EPOCH_LIMIT} epochs"):
                make(epoch_length=length)
        return
    # one node at length 100 stays within the node-time budget through the limit
    make(epoch_length=100)
    if mode == ORACLE:  # fluid epochs cost no events, so the published lengths run
        make()


@settings(max_examples=60, deadline=None)
@given(length=st.integers(2, 10**4), horizon=st.integers(1, 10**4), queued=st.booleans(),
       above=st.booleans(), mode=st.sampled_from(["stochastic", ORACLE]))
def test_queue_ledger_stays_in_float_range(length, horizon, queued, above, mode):
    # the ledger's largest entry is q0 + the run's arrivals: the rate times the
    # run's time units where arrivals are fluid (oracle), the peak times them
    # where each unit interval may deposit it.  sched2 projects its drive, so
    # the ledger alone limits the rate (an oracle sched1 run at these rates is
    # refused for its first update)
    q0 = sys.float_info.max / 2 if queued else 0.0
    per_unit = (sys.float_info.max - q0) / (length * horizon) * (1.5 if above else 0.5)
    arrivals = (bern([per_unit], peak=sys.float_info.max) if mode == ORACLE
                else bern([per_unit / 2], peak=per_unit))
    make = functools.partial(ExperimentConfig, graph=preset("single"), algorithm="sched2",
                             horizon=horizon, mode=mode, arrivals=arrivals,
                             epoch_length=length, epsilon=0.2, step=0.01, initial_queue=(q0,))
    if above:
        with pytest.raises(ConfigError, match="queue ledger"):
            make()
    else:
        make()


def test_huge_oracle_rate_is_refused_before_its_first_epoch():
    # 1e307 per time unit over one 100-unit epoch is 1e309
    with pytest.raises(ConfigError, match="after 18 time units"):
        ExperimentConfig(graph=preset("single"), algorithm="sched1", horizon=1, mode=ORACLE,
                         arrivals=bern([1e307], peak=1e308), epoch_length=100)


@settings(max_examples=40, deadline=None)
@given(peak=st.one_of(st.floats(1e150, 1e160), st.sampled_from([1e153, 1e155])))
def test_sched2_published_step_never_overflows_uncaught(peak):
    # (peak + 1)^2 leaves the float range from ~1.34e154; below that the step
    # is positive or underflows to 0, and every side exits as a ConfigError
    make = functools.partial(ExperimentConfig, graph=preset("cycle5"), algorithm="sched2",
                             horizon=3, arrivals=bern([0.25] * 5, peak=peak),
                             epsilon=0.2, epoch_length=200)
    make(step=0.01)  # both overrides set: the published plan is not consulted
    try:
        step = 0.2 ** 2 / (72.0 * 5 * 5 * (peak + 1.0) ** 2)
    except OverflowError:
        with pytest.raises(ConfigError, match="published constant step overflows"):
            make()
        return
    if step > 0.0:
        assert make().step == step
    else:
        with pytest.raises(ConfigError, match="step must be positive and finite, got 0.0"):
            make()


@pytest.mark.parametrize("name", ["single", "cycle5"])
def test_oracle_sched1_first_update_past_the_drive_limit_is_refused(name):
    # epoch 2 starts at drive lambda - s(0); construction refuses exactly the
    # rates whose run the engine would stop entering epoch 2
    graph = preset(name)
    s0 = service_rates(enumerate_independent_sets(graph), np.zeros(graph.n))[0]
    rate = DRIVE_LIMIT + s0
    for _ in range(4):  # step down to where the rounded drive is back within the limit
        rate = math.nextafter(rate, 0.0)
    verdicts = set()
    for _ in range(9):
        make = functools.partial(ExperimentConfig, graph=graph, algorithm="sched1", mode=ORACLE,
                                 arrivals=bern([rate] * graph.n, peak=1000.0), epoch_length=10)
        unchecked = make(horizon=1)  # one epoch never reaches the epoch-2 check
        object.__setattr__(unchecked, "horizon", 2)  # skip construction's check
        try:
            list(run_experiment(unchecked))
            make(horizon=2)
            verdicts.add("accepted")
        except NumericFailure:
            with pytest.raises(ConfigError, match="past the limit 700"):
                make(horizon=2)
            verdicts.add("refused")
        rate = math.nextafter(rate, math.inf)
    assert verdicts == {"accepted", "refused"}


@pytest.mark.parametrize("mode", ["stochastic", ORACLE])
@pytest.mark.parametrize("name", ["single", "cycle5"])
def test_cc2_first_update_past_the_drive_limit_is_refused(name, mode):
    # epoch 2 starts at prices equal to the step, so a step of DRIVE_LIMIT runs
    # and construction refuses the next float up, whose run dies entering epoch 2
    graph = preset(name)
    make = functools.partial(ExperimentConfig, graph=graph, algorithm="cc2", mode=mode,
                             utilities=(LOG1,) * graph.n, beta=5.0, epoch_length=10)
    records = list(run_experiment(make(horizon=3, step=DRIVE_LIMIT), 1))
    assert records[1].drive == (DRIVE_LIMIT,) * graph.n
    above = math.nextafter(DRIVE_LIMIT, math.inf)
    unchecked = make(horizon=1, step=above)  # one epoch never reaches epoch 2
    object.__setattr__(unchecked, "horizon", 2)  # skip construction's check
    with pytest.raises(NumericFailure, match="entering epoch 2"):
        list(run_experiment(unchecked, 1))
    for step in (above, 1e5, 1e300):
        with pytest.raises(ConfigError, match="past the limit 700"):
            make(horizon=2, step=step)


# -- the schedule family --------------------------------------------------------------

def test_config_enumerates_the_family_once(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return enumerate_independent_sets(g)

    monkeypatch.setattr(engine, "enumerate_independent_sets", counted)
    cfg = sched1(graph="cycle5", rates=[0.2] * 5, horizon=2, epoch_length=10)
    assert cfg.family.size == 11 and cfg.family.graph == cfg.graph
    for seed in (7, 8, 9):  # the seed picks a sample path, not a new config
        assert len(list(run_experiment(cfg, seed))) == 2
    assert len(calls) == 1


def test_config_takes_neither_a_seed_nor_a_family():
    # the seed belongs to the run, and the family is always the graph's own
    ok = dict(graph=preset("cycle5"), algorithm="sched1", horizon=2,
              arrivals=bern([0.2] * 5), epoch_length=10)
    family = ExperimentConfig(**ok).family
    for name, value in (("seed", 0), ("family", family)):
        with pytest.raises(TypeError, match=name):
            ExperimentConfig(**ok, **{name: value})


def test_past_exact_mode_a_stochastic_config_holds_the_refusal():
    cycle31 = ConflictGraph.from_edges(31, [(i, (i + 1) % 31) for i in range(31)])
    cfg = ExperimentConfig(graph=cycle31, algorithm="sched1", horizon=2,
                           arrivals=bern([0.1] * 31), epoch_length=5)
    assert isinstance(cfg.family, ExactModeUnavailable)
    assert "exact-mode cap 30" in str(cfg.family)
    assert len(list(run_experiment(cfg, 0))) == 2  # on per-node clocks
    with pytest.raises(ExactModeUnavailable, match="exact-mode cap 30"):
        dataclasses.replace(cfg, mode=ORACLE)


@pytest.mark.parametrize("mode", ["stochastic", "deterministic-oracle"])
@pytest.mark.parametrize("algorithm", ["sched1", "sched2", "cc1", "cc2"])
def test_record_fields_are_python_floats(algorithm, mode):
    # JSON prints a numpy int or a Python int without the ".0" a float gets
    g = preset("cycle5")
    workload = {
        "sched1": dict(arrivals=bern([0.2] * 5), epoch_length=20),
        "sched2": dict(arrivals=bern([0.2] * 5), epsilon=0.2, epoch_length=20, step=0.1),
        "cc1": dict(utilities=(LOG1,) * 5, beta=5.0),
        "cc2": dict(utilities=(LOG1,) * 5, beta=5.0, step=0.5, epoch_length=20),
    }[algorithm]
    cfg = ExperimentConfig(graph=g, algorithm=algorithm, horizon=3, mode=mode, **workload)
    for rec in run_experiment(cfg, 5):
        for name, value in rec._asdict().items():
            if name == "j":
                assert type(value) is int
            elif isinstance(value, tuple):
                assert len(value) == 5 and all(type(v) is float for v in value), name
            else:
                assert value is None or type(value) is float, name


# -- reproducibility -------------------------------------------------------------

def test_stochastic_runs_are_bit_identical():
    cfg = sched1(graph="cycle5", rates=[0.2] * 5, horizon=6)
    a = list(run_experiment(cfg, 11))
    b = list(run_experiment(cfg, 11))
    assert a == b
    c = list(run_experiment(cfg, 12))
    assert c != a


def watch_walks(monkeypatch):
    """Patch engine.simulate to keep each call's (args, kwargs, trajectory)."""
    walks = []

    def watch(*args, **kwargs):
        traj = simulate(*args, **kwargs)
        walks.append((args, kwargs, traj))
        return traj

    monkeypatch.setattr(engine, "simulate", watch)
    return walks


def test_schedule_state_carries_across_epoch_boundaries(monkeypatch):
    walks = watch_walks(monkeypatch)
    list(run_experiment(sched1(graph="cycle5", rates=[0.2] * 5, horizon=8, epoch_length=20), 5))
    starts = [kwargs["initial_mask"] for _, kwargs, _ in walks]
    ends = [traj.final_mask for *_, traj in walks]
    assert len(starts) == 8 and starts[0] == 0
    assert any(ends[:-1])  # else an epoch that restarts from 0 would pass too
    assert starts[1:] == ends[:-1]


def test_each_epoch_draws_from_its_own_two_streams(monkeypatch):
    # epoch j's chain draws from SeedSequence(seed, spawn_key=(j, 0)) and its
    # arrivals from spawn_key=(j, 1)
    seed, length = 5, 20

    def stream(j, k):
        return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j, k)))

    cfg = sched1(graph="cycle5", rates=[0.2] * 5, horizon=6, epoch_length=length)
    walks = watch_walks(monkeypatch)
    records = list(run_experiment(cfg, seed))
    assert len(walks) == len(records) == 6
    for rec, (args, kwargs, traj) in zip(records, walks):
        again = simulate(*args, **dict(kwargs, rng=stream(rec.j, 0)))
        assert np.array_equal(again.times, traj.times)
        deposits = sample_epoch_arrivals(cfg.arrivals, length, stream(rec.j, 1))
        assert rec.arrival_rate_est == tuple((np.add.reduce(deposits, axis=0) / length).tolist())


def test_time_limit_counts_every_epoch_of_a_stochastic_run():
    ok = dict(graph=preset("cycle5"), algorithm="sched2", arrivals=bern([0.1] * 5),
              epsilon=0.2)
    # five nodes: the budget is 2e7 time units
    ExperimentConfig(horizon=1, epoch_length=2 * 10**7, **ok)
    ExperimentConfig(horizon=2 * 10**5, epoch_length=100, **ok)
    with pytest.raises(ConfigError, match="more than 1e\\+08 node-time units"):
        ExperimentConfig(horizon=1, epoch_length=2 * 10**7 + 1, **ok)
    with pytest.raises(ConfigError, match="more than 1e\\+08 node-time units"):
        ExperimentConfig(horizon=2 * 10**5 + 1, epoch_length=100, **ok)
    with pytest.raises(ConfigError, match="more than 1e\\+08 node-time units"):
        ExperimentConfig(horizon=EPOCH_LIMIT, epoch_length=41, **ok)
    with pytest.raises(ConfigError, match=f"at most {EPOCH_LIMIT} epochs"):
        ExperimentConfig(horizon=10**400, epoch_length=1, **ok)  # no float overflow
    # an oracle run has no event budget, only the epoch limit
    ExperimentConfig(horizon=EPOCH_LIMIT, epoch_length=1, mode=ORACLE, **ok)
    cc2 = dict(graph=preset("clique2"), algorithm="cc2", utilities=(LOG1, LOG1),
               beta=5.0, step=0.5)
    ExperimentConfig(horizon=25 * 10**4, epoch_length=200, **cc2)
    with pytest.raises(ConfigError, match="node-time units"):
        ExperimentConfig(horizon=25 * 10**4 + 1, epoch_length=200, **cc2)
    # 100 nodes make ~20x cycle5's events per time unit, and get 1/20 of its time
    cycle100 = ConflictGraph.from_edges(100, [(i, (i + 1) % 100) for i in range(100)])
    big = dict(ok, graph=cycle100, arrivals=bern([0.1] * 100))
    ExperimentConfig(horizon=100, epoch_length=10**4, **big)
    with pytest.raises(ConfigError, match="node-time units"):
        ExperimentConfig(horizon=101, epoch_length=10**4, **big)


@pytest.mark.parametrize("algorithm, graph", [
    ("sched1", "clique2"), ("sched2", "cycle5"), ("cc2", "cycle5")])
def test_clock_table_runs_match_per_node_clock_runs(monkeypatch, algorithm, graph):
    g = preset(graph)
    workload = {
        "sched1": dict(arrivals=bern([0.3] * g.n), epoch_length=40),
        "sched2": dict(arrivals=bern([0.25] * g.n), epsilon=0.2, epoch_length=50),
        "cc2": dict(utilities=(LOG1,) * g.n, beta=5.0, step=0.5, epoch_length=50),
    }[algorithm]
    cfg = ExperimentConfig(graph=g, algorithm=algorithm, horizon=30, **workload)
    tables = []

    def watch(*args, table, **kwargs):
        tables.append(table)
        return simulate(*args, table=table, **kwargs)

    simulate = engine.simulate
    monkeypatch.setattr(engine, "simulate", watch)
    with_table = list(run_experiment(cfg, 4))
    assert tables and all(t is not None for t in tables)

    tables.clear()
    monkeypatch.setattr(engine, "TABLE_STATES", 0)  # every family keeps per-node clocks
    with_clocks = list(run_experiment(cfg, 4))
    assert tables and all(t is None for t in tables)
    assert with_table == with_clocks


def test_families_past_the_table_cap_keep_per_node_clocks(monkeypatch):
    cfg = sched1(graph="cycle5", rates=[0.2] * 5, horizon=2, epoch_length=10)
    tables = []

    def watch(*args, table, **kwargs):
        tables.append(table)
        return simulate(*args, table=table, **kwargs)

    simulate = engine.simulate
    monkeypatch.setattr(engine, "simulate", watch)
    for cap, uses_table in ((11, True), (10, False)):  # cycle5 has 11 schedules
        monkeypatch.setattr(engine, "TABLE_STATES", cap)
        tables.clear()
        list(run_experiment(cfg, 0))
        assert [t is not None for t in tables] == [uses_table] * 2


def test_stochastic_needs_some_seed():
    cfg = ExperimentConfig(graph=preset("single"), algorithm="sched1", horizon=2,
                           arrivals=bern([0.5]))
    with pytest.raises(ConfigError, match="seed"):
        list(run_experiment(cfg))
    for seed in (-1, True, 1.5):  # a library caller's seed is checked where it enters
        with pytest.raises(ConfigError, match="need a seed, a nonnegative integer"):
            list(run_experiment(cfg, seed))
    assert len(list(run_experiment(cfg, 4))) == 2


# -- ledger invariants ------------------------------------------------------------

def test_queue_ledger_reconstructs_from_records():
    cfg = sched1(graph="clique2", rates=[0.3, 0.25], horizon=8)
    arrived = np.zeros(2)
    prev_dep = np.zeros(2)
    for rec in run_experiment(cfg, 3):
        arrived += np.array(rec.arrival_rate_est) * rec.epoch_length
        dep = np.array(rec.departed)
        served_this_epoch = dep - prev_dep
        assert np.all(served_this_epoch >= -1e-12)
        assert served_this_epoch == pytest.approx(
            np.array(rec.actual_service_rate) * rec.epoch_length, abs=1e-9)
        assert np.array(rec.queue) == pytest.approx(arrived - dep, abs=1e-9)
        assert np.all(np.array(rec.offered_service_est) * rec.epoch_length
                      >= served_this_epoch - 1e-9)
        prev_dep = dep


def test_departures_above_offered_service_raise(monkeypatch):
    # the ledger stays consistent, so only the offered-service bound can see it
    real = engine.integrate_epoch

    def over_serving(state, traj, **kw):
        _, peak, offered = real(state, traj, **kw)
        return offered + 1e-6, peak, offered

    monkeypatch.setattr(engine, "integrate_epoch", over_serving)
    cfg = sched1(graph="clique2", rates=[0.3, 0.25], horizon=3)
    with pytest.raises(InvariantViolation, match="offered service"):
        list(run_experiment(cfg, 3))


def test_zero_arrivals_leave_queues_empty():
    cfg = ExperimentConfig(graph=preset("clique2"), algorithm="sched1", horizon=5,
                           arrivals=bern([0.0, 0.0]))
    for rec in run_experiment(cfg, 9):
        assert rec.queue == (0.0, 0.0)
        assert rec.departed == (0.0, 0.0)
        assert rec.max_queue_ratio == 0.0
        # the chain still transmits: offered service is not gated on backlog
    assert sum(rec.offered_service_est) > 0.0


def test_initial_queue_is_counted_as_arrived():
    cfg = ExperimentConfig(graph=preset("single"), algorithm="sched1", horizon=3,
                           arrivals=bern([0.0]), initial_queue=(5.0,),
                           mode="deterministic-oracle")
    recs = list(run_experiment(cfg))
    drained = recs[-1].departed[0] + recs[-1].queue[0]
    assert drained == pytest.approx(5.0, abs=1e-12)


# -- oracle mode --------------------------------------------------------------------

def test_oracle_sched1_equals_bare_recursion():
    fam = enumerate_independent_sets(preset("cycle5"))
    lam = np.full(5, 0.27)
    cfg = ExperimentConfig(graph=preset("cycle5"), algorithm="sched1", horizon=40,
                           arrivals=bern(list(lam)), mode="deterministic-oracle")
    drives = [np.array(rec.drive) for rec in run_experiment(cfg)]
    r = np.zeros(5)
    for j in range(1, 41):
        assert np.array_equal(drives[j - 1], r)  # bitwise, not approx
        r = update_diminishing(r, lam, service_rates(fam, r), j)


def test_oracle_is_deterministic_without_seed():
    cfg = ExperimentConfig(graph=preset("clique2"), algorithm="cc1", horizon=10,
                           utilities=(LOG1, LOG1), beta=10.0,
                           mode="deterministic-oracle")
    a = list(run_experiment(cfg))
    b = list(run_experiment(cfg))
    assert a == b
    assert a[0].rates == (1.0, 1.0)  # best response to zero prices
    assert a[-1].avg_rate_utility is not None


def test_oracle_congestion_tracks_requested_rates():
    # prices climb like 0.65*log(j), so the response leaves saturation
    # only once the price passes the demand knee (about 5600 epochs here)
    cfg = ExperimentConfig(graph=preset("clique2"), algorithm="cc1", horizon=10_000,
                           utilities=(LOG1, LOG1), beta=10.0,
                           mode="deterministic-oracle")
    recs = list(run_experiment(cfg))
    for rec in recs[:50]:
        assert rec.arrival_rate_est == rec.rates
    assert recs[-1].drive[0] > 5.0
    assert 0.4 < recs[-1].rates[0] < 1.0


# -- guards ---------------------------------------------------------------------------

def test_drive_overflow_raises_numeric_failure():
    cfg = ExperimentConfig(graph=preset("single"), algorithm="sched2", horizon=5,
                           arrivals=bern([0.4]), epsilon=0.001, step=1e7,
                           epoch_length=4)
    with pytest.raises(NumericFailure, match="overflow"):
        list(run_experiment(cfg, 0))


def oracle_cycle5(horizon=3):
    return ExperimentConfig(graph=preset("cycle5"), algorithm="sched1", horizon=horizon,
                            arrivals=bern([0.2] * 5), mode="deterministic-oracle",
                            epoch_length=10)


# Oracle records are checked and published a block at a time.  A fault must
# look the same wherever it falls: at the first epoch, on both sides of the
# first block's end, or inside block 3.
BLOCK = engine.BLOCK_EPOCHS[ORACLE]
FAULT_EPOCHS = (1, BLOCK, BLOCK + 1, 2 * BLOCK + BLOCK // 2)


def at_fault_epochs(cases, epochs=FAULT_EPOCHS):
    """(case..., epoch) params; the first epoch keeps each case's bare id."""
    return [pytest.param(*case, epoch, id=ident if epoch == epochs[0] else f"{ident}-at-{epoch}")
            for ident, case in cases for epoch in epochs]


def until_fault(records):
    """The records a run yields before it raises, and what it raises."""
    seen = []
    with pytest.raises(Exception) as info:
        for rec in records:
            seen.append(rec)
    return seen, info.value


def assert_same_records(got, want):
    """Every field equal (np.array_equal) and with the same repr (sign of zero)."""
    assert [rec.j for rec in got] == [rec.j for rec in want]
    for mine, theirs in zip(got, want):
        for name, value in theirs._asdict().items():
            assert (getattr(mine, name) is None) == (value is None), (mine.j, name)
            if value is not None:
                assert np.array_equal(getattr(mine, name), value), (mine.j, name)
        assert repr(mine) == repr(theirs)


def fault_matches_the_per_epoch_loop(config, epoch, error, match, *faults):
    """Both loops raise `error` at `epoch` after the same epoch - 1 records.

    Each of `faults` arms a fault afresh before each loop runs.
    """
    for arm in faults:
        arm()
    got, raised = until_fault(run_experiment(config))
    for arm in faults:
        arm()
    want, expected = until_fault(oracle_run_per_epoch(config))
    assert type(raised) is type(expected) is error
    assert str(raised) == str(expected)
    assert re.search(match, str(raised)) and f"epoch {epoch}" in str(raised)
    assert len(got) == epoch - 1
    assert_same_records(got, want)


def on_call(monkeypatch, name, number, fault, module=engine):
    """A function that patches module.<name> so that its `number`-th call from
    then on (counting from 1) passes its output through `fault`."""
    real = getattr(module, name)

    def arm():
        calls = itertools.count(1)

        def wrapped(*args):
            out = real(*args)
            return fault(out, *args) if next(calls) == number else out
        monkeypatch.setattr(module, name, wrapped)
    return arm


def on_epoch(monkeypatch, epoch, fault):
    """A function that passes epoch `epoch`'s queue reflection through `fault`
    in both loops: the per-epoch loop's `epoch`-th traffic.reflect call, and
    in the engine, the block that holds the epoch, which it splits there.  The
    epochs before it and after it settle in engine.reflect_epochs, and the
    epoch itself in a real traffic.reflect call whose output and state the
    fault sees as the per-epoch loop's fault does."""
    per_epoch = on_call(monkeypatch, "reflect", epoch, fault, module=traffic)
    real_reflect, real_epochs = traffic.reflect, engine.reflect_epochs

    def arm():
        per_epoch()
        settled = 0

        def split(state, net, arrived):
            nonlocal settled
            k, settled = epoch - 1 - settled, settled + len(net)
            if not 0 <= k < len(net):
                return real_epochs(state, net, arrived)
            parts = [real_epochs(state, net[:k], arrived[:k])] if k else []
            args = (state, net[k][:, None], None, arrived[k])
            served, peak = fault(real_reflect(*args), *args)
            parts.append([np.array([v]) for v in
                          (served, peak, state.queue, state.departed, state.arrived)])
            if k + 1 < len(net):
                parts.append(real_epochs(state, net[k + 1:], arrived[k + 1:]))
            return tuple(np.concatenate(column) for column in zip(*parts))
        monkeypatch.setattr(engine, "reflect_epochs", split)
    return arm


def poisoned(bad):
    def fault(out, *_):
        out[-1] = bad
        return out
    return fault


def synthetic_block(epochs, first_j, n=3):
    """A block of `epochs` epochs that passes every check, one dict per epoch
    keyed by engine._Block's fields."""
    rng = np.random.default_rng(first_j)
    rows, departed, now = [], np.zeros(n), 0.0
    for j in range(first_j, first_j + epochs):
        now += 10.0
        s_hat = rng.uniform(0.2, 0.4, n)
        offered = 10.0 * s_hat
        served = rng.uniform(0.0, 1.0, n) * offered
        departed = departed + served
        queue = rng.uniform(0.0, 5.0, n)
        rows.append(dict(j=j, now=now, length=10, drive=rng.uniform(-2.0, 2.0, n),
                         lam_hat=rng.uniform(0.1, 0.3, n), s_hat=s_hat, served=served,
                         offered=offered, peak=queue + 1.0, queue=queue, departed=departed,
                         arrived=departed + queue))
    return rows


def publish(rows):
    """engine._publish on the rows as one block, with no rule checks."""
    block = engine._Block(*(
        tuple(row[name] for row in rows) if name in ("j", "now")
        else np.array([row[name] for row in rows], dtype=float)
        for name in engine._Block._fields))
    return engine._publish(block, (), [(None, None, None)] * len(rows))


def poison_entry(row, name, bad):
    row[name] = row[name].copy()
    row[name][-1] = bad  # the last entry, so a check that reads only the first misses it


def poison_ratio(row, bad):
    # max_i queue_i / now at now = 0: inf, -inf or (0 / 0) NaN
    row["now"] = 0.0
    row["queue"] = np.full_like(row["queue"], {math.inf: 1.0, -math.inf: -1.0}.get(bad, 0.0))
    row["departed"] = row["arrived"] - row["queue"]


# Where each record field is poisoned: its own input, or the one it is
# computed from (actual_service_rate = served / length, epoch_start = now -
# length, max_queue_ratio = max queue / now).
POISON = {
    "drive": lambda row, bad: poison_entry(row, "drive", bad),
    "arrival_rate_est": lambda row, bad: poison_entry(row, "lam_hat", bad),
    "offered_service_est": lambda row, bad: poison_entry(row, "s_hat", bad),
    "actual_service_rate": lambda row, bad: poison_entry(row, "served", bad),
    "queue": lambda row, bad: poison_entry(row, "queue", bad),
    "departed": lambda row, bad: poison_entry(row, "departed", bad),
    "peak_queue": lambda row, bad: poison_entry(row, "peak", bad),
    "epoch_start": lambda row, bad: row.update(now=bad),
    "epoch_length": lambda row, bad: row.update(length=bad),
    "max_queue_ratio": poison_ratio,
}
DEPARTURES = "departures outside [0, offered service] at epoch {j}"
UNBALANCED = "queue conservation off by {err} at epoch {{j}}"
# Where a check that comes first sees the value: the ledger sees non-finite
# departures, queues and cumulative departures, and a non-finite length makes
# epoch_start, which comes before it, non-finite too, or fails the departure
# bound's slack.  So epoch_length's own check never names a failure.
CAUGHT_FIRST = {
    **{("actual_service_rate", bad): DEPARTURES for bad in (math.nan, math.inf, -math.inf)},
    **{(name, bad): UNBALANCED.format(err=abs(bad))
       for name in ("queue", "departed") for bad in (math.nan, math.inf, -math.inf)},
    ("epoch_length", math.nan): DEPARTURES,
    ("epoch_length", math.inf): "non-finite epoch_start in epoch {j}",
    ("epoch_length", -math.inf): DEPARTURES,
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["epoch_start", "epoch_length", "drive", "arrival_rate_est",
                                  "offered_service_est", "actual_service_rate", "queue",
                                  "departed", "peak_queue", "max_queue_ratio"])
def test_metrics_record_rejects_non_finite(name, bad):
    # a one-epoch block, and a full oracle block poisoned at its first, an
    # inner and its last epoch
    for epochs, k in ((1, 0), (BLOCK, 0), (BLOCK, 100), (BLOCK, BLOCK - 1)):
        rows = synthetic_block(epochs, first_j=1 + BLOCK)
        clean = list(publish(rows))
        assert len(clean) == epochs
        POISON[name](rows[k], bad)
        quiet = "ignore" if name == "max_queue_ratio" else "warn"  # its 1 / 0 and 0 / 0
        with np.errstate(divide=quiet, invalid=quiet):
            seen, raised = until_fault(publish(rows))
        assert type(raised) is InvariantViolation
        message = CAUGHT_FIRST.get((name, bad), f"non-finite {name} in epoch {{j}}")
        assert str(raised) == message.format(j=1 + BLOCK + k)
        assert seen == clean[:k]


@pytest.mark.parametrize("bad, entering", at_fault_epochs(
    [(ident, (bad,)) for ident, bad in (
        ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
        ("above", DRIVE_LIMIT + 1.0), ("below", -DRIVE_LIMIT - 1.0))],
    epochs=(2,) + FAULT_EPOCHS[1:]))
def test_drive_guard_stops_the_next_epoch(monkeypatch, bad, entering):
    # the update ending epoch `entering` - 1 leaves a drive the guard refuses
    fault_matches_the_per_epoch_loop(
        oracle_cycle5(horizon=3 * BLOCK), entering, NumericFailure,
        "drive vector overflow entering",
        on_call(monkeypatch, "update_diminishing", entering - 1, poisoned(bad)))


def test_drive_guard_admits_the_limit_itself(monkeypatch):
    def at_limit(r, lam_hat, s_hat, j):
        return np.array([DRIVE_LIMIT, -DRIVE_LIMIT, 0.0, 0.0, 0.0])

    monkeypatch.setattr(engine, "update_diminishing", at_limit)
    assert [rec.drive[0] for rec in run_experiment(oracle_cycle5())] == [0.0, DRIVE_LIMIT, DRIVE_LIMIT]


def lost(out, state, *_):
    state.departed = state.departed + 1e-3  # departures the queue never lost
    return out


def negative(out, state, *_):
    served, peak = out
    shift = served + 1.0  # the ledger still balances, departures go negative
    state.queue = state.queue + shift
    state.departed = state.departed - shift
    return served - shift, peak


def left_in_state(name, bad):
    """A reflect fault that leaves `bad` in the last entry of the state's `name`."""
    def fault(out, state, *_):
        values = getattr(state, name).copy()
        values[-1] = bad
        setattr(state, name, values)
        return out
    return fault


def left_in_output(position, bad):
    """A reflect fault that puts `bad` in the last entry of its served (0) or peak (1)."""
    def fault(out, *_):
        out[position][-1] = bad
        return out
    return fault


# non-finite kernel outputs: the ledger fails a NaN in the queue, the
# cumulative departures or the departures, and only the record's check reads
# the peak
NON_FINITE_FIELDS = [
    ("queue-nan", (left_in_state("queue", math.nan), "queue conservation off by nan")),
    ("departed-nan", (left_in_state("departed", math.nan), "queue conservation off by nan")),
    ("served-nan", (left_in_output(0, math.nan), "departures outside")),
    ("peak-inf", (left_in_output(1, math.inf), "non-finite peak_queue")),
    ("peak--inf", (left_in_output(1, -math.inf), "non-finite peak_queue")),
]


@pytest.mark.parametrize("fault, match, epoch", at_fault_epochs([
    ("ledger", (lost, "queue conservation off")),
    ("negative-departures", (negative, "departures outside")),
] + NON_FINITE_FIELDS))
def test_queue_kernel_faults_raise(monkeypatch, fault, match, epoch):
    fault_matches_the_per_epoch_loop(oracle_cycle5(horizon=3 * BLOCK), epoch,
                                     InvariantViolation, match,
                                     on_epoch(monkeypatch, epoch, fault))


def oracle_sched2(horizon):
    return ExperimentConfig(graph=preset("cycle5"), algorithm="sched2", horizon=horizon,
                            arrivals=bern([0.2] * 5), mode="deterministic-oracle",
                            epsilon=0.2, step=0.1, epoch_length=10)


def oracle_cc2(horizon):
    return ExperimentConfig(graph=preset("cycle5"), algorithm="cc2", horizon=horizon,
                            utilities=(LOG1,) * 5, beta=5.0, step=0.5, epoch_length=10,
                            mode="deterministic-oracle")


# cc2's queues stay positive, so a zero price breaks the queue/price coupling
@pytest.mark.parametrize("rule, fault, config, match, epoch", at_fault_epochs([
    ("sched2-box", ("update_projected", poisoned(1e6), oracle_sched2,
                    "projection box violated")),
    ("cc2-price-box", ("update_prices_constant", poisoned(1e6), oracle_cc2,
                       r"price box \[0, ")),
    ("cc2-coupling", ("update_prices_constant", poisoned(0.0), oracle_cc2,
                      "queue/price coupling violated")),
    ("cc2-queue-cap", ("reflect", left_in_output(1, 1e6), oracle_cc2,
                       r"queue cap 120 violated")),
]))
def test_update_check_faults_match_the_per_epoch_loop(monkeypatch, rule, fault, config, match,
                                                      epoch):
    arm = (on_epoch(monkeypatch, epoch, fault) if rule == "reflect"
           else on_call(monkeypatch, rule, epoch, fault))
    fault_matches_the_per_epoch_loop(config(3 * BLOCK), epoch, InvariantViolation, match, arm)


@pytest.mark.parametrize("epoch", FAULT_EPOCHS)
def test_a_ledger_fault_takes_precedence_over_its_epochs_update_fault(monkeypatch, epoch):
    fault_matches_the_per_epoch_loop(oracle_sched2(3 * BLOCK), epoch, InvariantViolation,
                                     "queue conservation off",
                                     on_epoch(monkeypatch, epoch, lost),
                                     on_call(monkeypatch, "update_projected", epoch,
                                             poisoned(1e6)))


@pytest.mark.parametrize("fault, match, epoch", at_fault_epochs(NON_FINITE_FIELDS))
def test_a_ledger_fault_takes_precedence_over_its_epochs_non_finite_record(
        monkeypatch, fault, match, epoch):
    fault_matches_the_per_epoch_loop(oracle_cycle5(horizon=3 * BLOCK), epoch,
                                     InvariantViolation, "queue conservation off",
                                     on_epoch(monkeypatch, epoch,
                                              lambda out, *args: lost(fault(out, *args), *args)))


@pytest.mark.parametrize("fault, match, epoch", at_fault_epochs(NON_FINITE_FIELDS))
def test_a_non_finite_record_takes_precedence_over_a_later_guard_fault(
        monkeypatch, fault, match, epoch):
    # the update ending epoch `epoch` leaves a drive that the guard refuses
    # entering the next epoch, in the same block unless `epoch` ends one
    fault_matches_the_per_epoch_loop(oracle_cycle5(horizon=3 * BLOCK), epoch,
                                     InvariantViolation, match,
                                     on_epoch(monkeypatch, epoch, fault),
                                     on_call(monkeypatch, "update_diminishing", epoch,
                                             poisoned(math.nan)))


def test_each_epoch_has_its_own_departure_slack(monkeypatch):
    # On the published lengths, epoch 300's departure slack (tol + 1e-9 L_300)
    # is ~0.024 wider than that of epoch 257, which opens its block.  Departures
    # above offered service by an amount between the two must pass.
    last, first = 300, BLOCK + 1
    margin = CONSERVATION_TOL * (published_epoch_length(first) + published_epoch_length(last)) / 2

    def over(out, state, net, jumps, arrived):
        served, peak = out
        offered = arrived - net[:, 0]
        excess = offered + CONSERVATION_TOL * (1.0 + max(state.arrived)) + margin - served
        state.queue = state.queue - excess  # the ledger still balances
        state.departed = state.departed + excess
        return served + excess, peak

    cfg = ExperimentConfig(graph=preset("cycle5"), algorithm="sched1", horizon=last,
                           arrivals=bern([0.2] * 5), mode=ORACLE)
    arm = on_epoch(monkeypatch, last, over)
    arm()
    got = list(run_experiment(cfg))
    arm()
    assert_same_records(got, list(oracle_run_per_epoch(cfg)))
    assert len(got) == last


def test_an_oracle_run_that_fails_keeps_the_lines_before_its_fault(tmp_path, monkeypatch):
    entering = BLOCK + 1
    payload = {"version": 1, "graph": {"preset": "cycle5"}, "algorithm": "sched1",
               "mode": "deterministic-oracle", "horizon": 3 * BLOCK,
               "arrivals": {"kind": "scaled-bernoulli", "rates": 0.2},
               "overrides": {"epoch_length": 10}}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    arm = on_call(monkeypatch, "update_diminishing", entering - 1, poisoned(math.nan))
    arm()
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    lines = (tmp_path / "out" / "exp-seed0.jsonl").read_text().splitlines()
    arm()
    want, _ = until_fault(oracle_run_per_epoch(load_config(path).experiment))
    assert len(lines) == len(want) == entering - 1
    assert lines == [json.dumps(rec._asdict(), sort_keys=True) for rec in want]


def oracle_run(algorithm, graph, queued):
    n = preset(graph).n
    if algorithm in ("sched1", "sched2"):
        kw = dict(arrivals=bern([0.27] * n))
    else:  # cc2 starts empty unless queued, which arms the price/queue coupling check
        kw = dict(utilities=(LOG1,) * n, beta=5.0)
    if algorithm in ("sched2", "cc2"):
        kw.update(step=0.1 if algorithm == "sched2" else 0.5)
    if algorithm != "cc1":  # cc1 keeps the published lengths
        kw.update(epoch_length=10)
    return ExperimentConfig(graph=preset(graph), algorithm=algorithm, mode=ORACLE,
                            horizon=2 * BLOCK + BLOCK // 2 + 3,
                            epsilon=0.2 if algorithm == "sched2" else None,
                            initial_queue=(3.0,) * n if queued else None, **kw)


@pytest.mark.parametrize("queued", [False, True], ids=["empty", "queued"])
@pytest.mark.parametrize("graph", ["clique2", "cycle5"])
@pytest.mark.parametrize("algorithm", ["sched1", "sched2", "cc1", "cc2"])
def test_oracle_runs_match_the_per_epoch_loop(algorithm, graph, queued):
    cfg = oracle_run(algorithm, graph, queued)
    assert_same_records(list(run_experiment(cfg)), list(oracle_run_per_epoch(cfg)))


def test_stochastic_records_stream_as_each_epoch_ends(monkeypatch):
    walks = []
    real = engine.simulate

    def counted(*args, **kw):
        walks.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(engine, "simulate", counted)
    records = run_experiment(sched1(horizon=5), 3)
    next(records)
    assert len(walks) == 1


def test_sched2_stays_in_projection_box():
    cfg = ExperimentConfig(graph=preset("cycle5"), algorithm="sched2", horizon=50,
                           arrivals=bern([0.25] * 5), epsilon=0.2, epoch_length=20,
                           step=0.05)
    box = 5 / 0.2
    for rec in run_experiment(cfg, 21):
        assert max(abs(v) for v in rec.drive) <= box + 1e-12


def test_cc2_price_box_and_queue_coupling_hold():
    cfg = ExperimentConfig(graph=preset("clique2"), algorithm="cc2", horizon=60,
                           utilities=(LOG1, LOG1), beta=10.0, step=0.1,
                           epoch_length=25)
    cap = 10.0 * 1.0 + 0.1
    recs = list(run_experiment(cfg, 2))  # internal assertions armed every epoch
    assert recs[0].rates == (1.0, 1.0)
    for prev, rec in zip(recs, recs[1:]):
        assert all(-1e-12 <= p <= cap + 1e-9 for p in rec.drive)
        # the rates used this epoch answer the prices that ended the last one
        assert rec.rates == pytest.approx(
            best_responses((LOG1, LOG1), 10.0, np.array(rec.drive)), abs=1e-12)
        assert rec.epoch_start == pytest.approx(prev.epoch_start + prev.epoch_length)


# -- diagnostics -----------------------------------------------------------------------

def test_oracle_run_drains_big_backlog():
    cfg = ExperimentConfig(graph=preset("single"), algorithm="sched1", horizon=40,
                           arrivals=bern([0.1]), mode="deterministic-oracle",
                           initial_queue=(50.0,))
    recs = list(run_experiment(cfg))
    # the squared-backlog potential never rises across a 10-epoch window,
    # and it falls on average
    potential = [sum(q * q for q in rec.queue) for rec in recs]
    drifts = [potential[k + 10] - potential[k] for k in range(0, 30, 10)]
    assert all(d <= 0.0 for d in drifts)
    assert sum(drifts) < 0.0


def test_single_node_half_load_settles_near_zero_drive():
    # r* = 0 at half load; three stochastic runs end nearby (measured <= 0.027)
    for seed in (1, 2, 3):
        cfg = ExperimentConfig(graph=preset("single"), algorithm="sched1",
                               horizon=200, arrivals=bern([0.5]),
                               epoch_length=60)
        last = None
        for last in run_experiment(cfg, seed):
            pass
        assert abs(last.drive[0]) <= 0.1
        assert last.max_queue_ratio <= 0.05
