"""End-to-end experiment loop: config validation, reproducibility, ledger
invariants, oracle/recursion equivalence, and the run diagnostics."""

import dataclasses
import functools
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csmasim.congestion import UtilityFunction, best_responses
from csmasim import engine
from csmasim.chain import DRIVE_LIMIT
from csmasim.config import parse_config
from csmasim.conflict_graph import (EXACT_MODE_CAP, MAX_NODES, ConflictGraph,
                                    enumerate_independent_sets, preset)
from csmasim.engine import (DESK_TIME_LIMIT, ORACLE, ORACLE_HORIZON_LIMIT, ExperimentConfig,
                            MetricsRecord, run_experiment)
from csmasim.errors import (ConfigError, ExactModeUnavailable, InvariantViolation,
                            NumericFailure)
from csmasim.gibbs import service_rates
from csmasim.scheduling import published_epoch_length, update_diminishing
from csmasim.traffic import ArrivalSpec

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
        make(horizon=10**18)  # the sum stops once it passes the limit


def test_bounds_walk_no_published_length_without_a_finite_limit(monkeypatch):
    # an oracle run has no event budget, and at rate 0.5 the ledger fills only
    # past the largest float, so neither bound needs the run's length
    monkeypatch.setattr(engine, "published_epoch_length", None)  # a call would fail
    assert sched1(horizon=ORACLE_HORIZON_LIMIT, mode=ORACLE).epoch_length is None


def test_oracle_horizon_limit_is_the_last_finite_clock():
    # the exact total of the published lengths fits in a float through the
    # limit and not one epoch further, and so does the engine's float clock
    total, clock = 0, 0.0
    for j in range(1, ORACLE_HORIZON_LIMIT + 1):
        length = published_epoch_length(j)
        total += length
        clock += length
    following = published_epoch_length(ORACLE_HORIZON_LIMIT + 1)
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
def test_time_budget_bounds_nodes_times_horizon_times_length(n, length, above):
    horizon = int(DESK_TIME_LIMIT) // (n * length) + above
    if horizon < 1:
        return  # a single epoch already passes the budget; the other side covers it
    make = functools.partial(ExperimentConfig, graph=_cheap_graph(n), algorithm="sched1",
                             horizon=horizon, arrivals=bern([0.1] * n),
                             epoch_length=length)
    assert (n * horizon * length > DESK_TIME_LIMIT) == above
    if above:
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
@given(horizon=st.one_of(st.integers(-2, 2).map(lambda d: ORACLE_HORIZON_LIMIT + d),
                         st.integers(1, 10**400)),
       algorithm=st.sampled_from(["sched1", "cc1"]))
@example(horizon=2000, algorithm="sched1")  # A06
@example(horizon=10_000, algorithm="cc1")  # A08
def test_oracle_horizon_cap(horizon, algorithm):
    workload = (dict(arrivals=bern([0.5])) if algorithm == "sched1"
                else dict(utilities=(LOG1,), beta=10.0))
    make = functools.partial(ExperimentConfig, graph=preset("single"), algorithm=algorithm,
                             horizon=horizon, mode=ORACLE, **workload)
    if horizon > ORACLE_HORIZON_LIMIT:
        with pytest.raises(ConfigError, match="overflows the clock"):
            make()
        make(epoch_length=100)  # fixed lengths do not grow
    else:
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


RECORD = dict(j=1, epoch_start=0.0, epoch_length=1.0, drive=(0.0, 0.2),
              arrival_rate_est=(0.1, 0.1), offered_service_est=(0.5, 0.4),
              actual_service_rate=(0.1, 0.1), queue=(0.0, 0.0), departed=(0.1, 0.1),
              peak_queue=(0.0, 0.0), max_queue_ratio=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["epoch_start", "epoch_length", "drive", "arrival_rate_est",
                                  "offered_service_est", "actual_service_rate", "queue",
                                  "departed", "peak_queue", "max_queue_ratio"])
def test_metrics_record_rejects_non_finite(name, bad):
    payload = vars(MetricsRecord(**RECORD))
    assert payload["j"] == 1 and payload["rates"] is None
    # the last entry, so a check that reads only the first misses it
    value = bad if isinstance(RECORD[name], float) else RECORD[name][:-1] + (bad,)
    with pytest.raises(InvariantViolation, match=f"non-finite {name} in epoch 1"):
        MetricsRecord(**dict(RECORD, **{name: value}))


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
        for name, value in vars(rec).items():
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
        ExperimentConfig(horizon=10**400, epoch_length=1, **ok)  # no float overflow
    ExperimentConfig(horizon=10**400, epoch_length=1, mode="deterministic-oracle", **ok)
    cc2 = dict(graph=preset("clique2"), algorithm="cc2", utilities=(LOG1, LOG1),
               beta=5.0, step=0.5)
    ExperimentConfig(horizon=5 * 10**5, epoch_length=100, **cc2)
    with pytest.raises(ConfigError, match="shorten the horizon"):
        ExperimentConfig(horizon=5 * 10**5 + 1, epoch_length=100, **cc2)
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


def oracle_cycle5():
    return ExperimentConfig(graph=preset("cycle5"), algorithm="sched1", horizon=3,
                            arrivals=bern([0.2] * 5), mode="deterministic-oracle",
                            epoch_length=10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, DRIVE_LIMIT + 1.0,
                                 -DRIVE_LIMIT - 1.0],
                         ids=["nan", "inf", "-inf", "above", "below"])
def test_drive_guard_stops_the_next_epoch(monkeypatch, bad):
    def faulty(r, lam_hat, s_hat, j):
        out = update_diminishing(r, lam_hat, s_hat, j)
        out[-1] = bad
        return out

    monkeypatch.setattr(engine, "update_diminishing", faulty)
    records = []
    with pytest.raises(NumericFailure, match="drive vector overflow entering epoch 2"):
        for rec in run_experiment(oracle_cycle5()):
            records.append(rec)
    assert len(records) == 1


def test_drive_guard_admits_the_limit_itself(monkeypatch):
    def at_limit(r, lam_hat, s_hat, j):
        return np.array([DRIVE_LIMIT, -DRIVE_LIMIT, 0.0, 0.0, 0.0])

    monkeypatch.setattr(engine, "update_diminishing", at_limit)
    assert [rec.drive[0] for rec in run_experiment(oracle_cycle5())] == [0.0, DRIVE_LIMIT, DRIVE_LIMIT]


@pytest.mark.parametrize("fault, match", [
    ("lost", "queue conservation off"),          # departures the queue never lost
    ("negative", "departures outside"),          # a balanced ledger, negative service
], ids=["ledger", "negative-departures"])
def test_queue_kernel_faults_raise(monkeypatch, fault, match):
    real = engine.reflect

    def faulty(state, net, jumps, arrived):
        served, peak = real(state, net, jumps, arrived)
        if fault == "lost":
            state.departed = state.departed + 1e-3
            return served, peak
        shift = served + 1.0  # the ledger still balances, departures go negative
        state.queue = state.queue + shift
        state.departed = state.departed - shift
        return served - shift, peak

    monkeypatch.setattr(engine, "reflect", faulty)
    with pytest.raises(InvariantViolation, match=f"{match}.* at epoch 1"):
        list(run_experiment(oracle_cycle5()))


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
