"""Arrival processes and the reflection-map queue kernel."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csmasim import traffic
from csmasim.chain import Trajectory, simulate
from csmasim.conflict_graph import ConflictGraph, preset, schedule_nodes
from csmasim.scheduling import published_epoch_length
from csmasim.traffic import (
    BLOCK_CELLS,
    ArrivalSpec,
    QueueState,
    integrate_epoch,
    reflect,
    sample_epoch_arrivals,
)
from oracles import (conservation_error, integrate_epoch_row_major, reflect_row_major,
                     segments)


# -- arrival specs -------------------------------------------------------------

def test_spec_validation():
    ArrivalSpec("scaled-bernoulli", [0.3, 0.7])
    with pytest.raises(ValueError):
        ArrivalSpec("poisson", [0.3])
    with pytest.raises(ValueError):
        ArrivalSpec("scaled-bernoulli", [])
    with pytest.raises(ValueError):
        ArrivalSpec("scaled-bernoulli", [-0.1])
    with pytest.raises(ValueError):
        ArrivalSpec("scaled-bernoulli", [math.nan])
    with pytest.raises(ValueError):
        ArrivalSpec("scaled-bernoulli", [0.3], peak=0.0)
    # mean at or above the peak increment cannot keep Pr(no arrival) positive
    with pytest.raises(ValueError, match="above the peak"):
        ArrivalSpec("scaled-bernoulli", [1.5], peak=1.0)
    with pytest.raises(ValueError, match="equal to the peak"):
        ArrivalSpec("scaled-bernoulli", [1.0], peak=1.0)
    with pytest.raises(ValueError):
        ArrivalSpec("binomial", [0.5], peak=2.5)
    with pytest.raises(ValueError):
        ArrivalSpec("controlled", [1.2])
    assert ArrivalSpec("controlled", [1.0]).n == 1  # rate 1 is legal when controlled


def test_binomial_peak_fits_the_generator_int64():
    top = math.nextafter(2.0 ** 63, 0.0)  # the largest float below 2**63
    spec = ArrivalSpec("binomial", [0.5, top / 2], peak=top)
    block = sample_epoch_arrivals(spec, 4, np.random.default_rng(0))
    assert block.shape == (4, 2)
    assert np.all((block >= 0.0) & (block <= top))
    assert np.all(block[:, 1] > 0.0)  # mean top/2: a real draw, not a zero
    for peak in (2.0 ** 63, 1e300):
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            ArrivalSpec("binomial", [0.5], peak=peak)


def test_spec_rates_are_frozen():
    spec = ArrivalSpec("scaled-bernoulli", [0.3])
    with pytest.raises(ValueError):
        spec.rates[0] = 0.9


def test_sampling_shapes_and_ranges():
    rng = np.random.default_rng(0)
    spec = ArrivalSpec("scaled-bernoulli", [0.2, 0.6], peak=2.0)
    block = sample_epoch_arrivals(spec, 100, rng)
    assert block.shape == (100, 2)
    assert set(np.unique(block)) <= {0.0, 2.0}
    one = sample_epoch_arrivals(spec, 1, rng)[0]
    assert one.shape == (2,)
    with pytest.raises(ValueError):
        sample_epoch_arrivals(spec, 0, rng)


def test_sampling_means_within_three_sigma():
    rng = np.random.default_rng(123)
    m = 20_000
    bern = ArrivalSpec("scaled-bernoulli", [0.25, 0.6], peak=2.0)
    draws = sample_epoch_arrivals(bern, m, rng)
    sigma = np.sqrt(bern.rates * (bern.peak - bern.rates) / m)
    assert np.all(np.abs(draws.mean(axis=0) - bern.rates) <= 3 * sigma)
    bino = ArrivalSpec("binomial", [1.2], peak=3.0)
    draws = sample_epoch_arrivals(bino, m, rng)
    p = 1.2 / 3.0
    sigma = math.sqrt(3.0 * p * (1 - p) / m)
    assert abs(draws.mean() - 1.2) <= 3 * sigma


def test_controlled_arrivals_are_deterministic():
    rng = np.random.default_rng(5)
    spec = ArrivalSpec("controlled", [0.4, 0.9])
    block = sample_epoch_arrivals(spec, 3, rng)
    assert np.array_equal(block, np.tile([0.4, 0.9], (3, 1)))


# -- queue ledger ----------------------------------------------------------------

def test_queue_state_ledger():
    state = QueueState.zeros(2)
    assert conservation_error(state) == 0.0
    state.queue = np.array([1.0, 0.0])
    assert conservation_error(state) == 1.0  # queue without matching arrivals
    state.queue = np.array([0.0, -2.0])
    assert conservation_error(state) == 2.0  # the largest miss, on any node


def constant_trajectory(graph, mask, duration):
    """Hold one feasible schedule for the whole window."""
    return Trajectory(graph=graph, initial_mask=mask, duration=duration,
                      times=np.array([]), nodes=np.array([], dtype=int),
                      final_mask=mask)


def test_drain_only_partial_and_full():
    g = preset("single")
    traj = constant_trajectory(g, 0b1, 2.0)
    state = QueueState(queue=np.array([1.5]), departed=np.zeros(1),
                       arrived=np.array([1.5]))
    served, peak, offered = integrate_epoch(state, traj)
    assert served == pytest.approx([1.5], abs=1e-15)
    assert state.queue == pytest.approx([0.0], abs=1e-15)
    assert conservation_error(state) <= 1e-12

    state = QueueState(queue=np.array([3.0]), departed=np.zeros(1),
                       arrived=np.array([3.0]))
    served, peak, offered = integrate_epoch(state, traj)
    assert served == pytest.approx([2.0], abs=1e-15)
    assert state.queue == pytest.approx([1.0], abs=1e-15)
    assert peak == pytest.approx([3.0], abs=1e-15)


def test_deposits_land_at_interval_ends():
    g = preset("single")
    idle = constant_trajectory(g, 0, 2.0)
    state = QueueState.zeros(1)
    served, peak, offered = integrate_epoch(state, idle, deposits=np.array([[1.0], [2.0]]))
    assert state.queue == pytest.approx([3.0])
    assert state.arrived == pytest.approx([3.0])
    assert peak == pytest.approx([3.0])

    busy = constant_trajectory(g, 0b1, 2.0)
    state = QueueState.zeros(1)
    served, peak, offered = integrate_epoch(state, busy, deposits=np.array([[1.0], [1.0]]))
    # first deposit (t=1) is served over [1,2); the one at t=2 has no time left
    assert served == pytest.approx([1.0], abs=1e-15)
    assert state.queue == pytest.approx([1.0], abs=1e-15)
    assert conservation_error(state) <= 1e-12


def test_deposit_validation():
    g = preset("single")
    traj = constant_trajectory(g, 0, 2.0)
    with pytest.raises(ValueError):
        integrate_epoch(QueueState.zeros(1), traj, deposits=np.ones((3, 1)))
    with pytest.raises(ValueError):
        integrate_epoch(QueueState.zeros(1), traj,
                        deposits=np.ones((2, 1)), inflow=np.array([0.1]))
    frac = constant_trajectory(g, 0, 1.5)
    with pytest.raises(ValueError):
        integrate_epoch(QueueState.zeros(1), frac, deposits=np.ones((2, 1)))
    with pytest.raises(ValueError):
        integrate_epoch(QueueState.zeros(1), traj, inflow=np.array([1.4]))


def test_fluid_inflow_served_as_it_arrives():
    g = preset("single")
    busy = constant_trajectory(g, 0b1, 10.0)
    state = QueueState.zeros(1)
    served, peak, offered = integrate_epoch(state, busy, inflow=np.array([0.3]))
    assert served == pytest.approx([3.0], abs=1e-12)
    assert state.queue == pytest.approx([0.0], abs=1e-15)
    assert state.arrived == pytest.approx([3.0], abs=1e-12)


def test_fluid_backlog_drains_then_tracks():
    g = preset("single")
    busy = constant_trajectory(g, 0b1, 4.0)
    state = QueueState(queue=np.array([1.0]), departed=np.zeros(1),
                       arrived=np.array([1.0]))
    served, peak, offered = integrate_epoch(state, busy, inflow=np.array([0.5]))
    # drains at rate 1/2, empty after 2, then serves the inflow directly
    assert served == pytest.approx([3.0], abs=1e-12)
    assert state.queue == pytest.approx([0.0], abs=1e-15)
    assert conservation_error(state) <= 1e-12


def test_fluid_idle_node_accumulates():
    g = preset("single")
    idle = constant_trajectory(g, 0, 5.0)
    state = QueueState.zeros(1)
    served, peak, offered = integrate_epoch(state, idle, inflow=np.array([0.4]))
    assert state.queue == pytest.approx([2.0], abs=1e-12)
    assert peak == pytest.approx([2.0], abs=1e-12)
    assert served == pytest.approx([0.0], abs=1e-15)


def replay_oracle(traj, q0, deposits=None, inflow=None):
    """Independent piece-by-piece replay: (queue, departures, peak, busy time)."""
    n = traj.n
    q = np.array(q0, dtype=float)
    served = np.zeros(n)
    busy = np.zeros(n)
    peak = q.copy()
    dep_at = {}
    if deposits is not None:
        for k in range(deposits.shape[0]):
            dep_at[float(k + 1)] = deposits[k]
    cuts = {t0 for t0, _, _ in segments(traj)} | {traj.duration} | set(dep_at)
    cuts = sorted(cuts)
    masks = {}
    for t0, t1, mask in segments(traj):
        masks[t0] = mask
    grid = []
    current = traj.initial_mask
    for a, b in zip(cuts[:-1], cuts[1:]):
        current = masks.get(a, current)
        grid.append((a, b, current))
    a_rate = np.zeros(n) if inflow is None else np.asarray(inflow, dtype=float)
    for t0, t1, mask in grid:
        if t0 in dep_at:
            q += dep_at[t0]
            peak = np.maximum(peak, q)
        dt = t1 - t0
        tx = np.zeros(n, dtype=bool)
        for i in schedule_nodes(mask):
            tx[i] = True
        got = np.where(tx, np.minimum(dt, q + a_rate * dt), 0.0)
        q = np.where(tx, q + a_rate * dt - got, q + a_rate * dt)
        served += got
        busy += np.where(tx, dt, 0.0)
        peak = np.maximum(peak, q)
    if traj.duration in dep_at:
        q += dep_at[traj.duration]
        peak = np.maximum(peak, q)
    return q, served, peak, busy


def check_against_replay(traj, q0, fluid, rng):
    n = traj.n
    T = int(traj.duration)
    state = QueueState(queue=q0.copy(), departed=np.zeros(n), arrived=q0.copy())
    if fluid:
        inflow = rng.uniform(0.0, 1.0, size=n)
        got = integrate_epoch(state, traj, inflow=inflow)
        q, served, peak, busy = replay_oracle(traj, q0, inflow=inflow)
    else:
        deposits = rng.uniform(0.0, 1.0, size=(T, n)) * (rng.random((T, n)) < 0.5)
        got = integrate_epoch(state, traj, deposits=deposits)
        q, served, peak, busy = replay_oracle(traj, q0, deposits=deposits)
    assert state.queue == pytest.approx(q, abs=1e-12)
    for value, expected in zip(got, (served, peak, busy), strict=True):
        assert value == pytest.approx(expected, abs=1e-12)
    assert conservation_error(state) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_integrator_matches_replay(seed, fluid):
    rng = np.random.default_rng(seed)
    traj = simulate(preset("path3"), [0.4, -0.2, 0.7], 6.0, rng=rng)
    check_against_replay(traj, rng.uniform(0.0, 2.0, size=3), fluid, rng)


@pytest.mark.parametrize("fluid", [False, True])
def test_integrator_matches_replay_across_blocks(fluid):
    # ~5.5k events on 100 nodes span several blocks, so the backlog and the
    # busy vector must carry across block boundaries
    g = ConflictGraph.from_edges(100, [(i, (i + 1) % 100) for i in range(100)])
    rng = np.random.default_rng(3)
    traj = simulate(g, np.zeros(100), 100.0, rng=rng)
    assert traj.times.size > 5 * BLOCK_CELLS // 100
    check_against_replay(traj, rng.uniform(0.0, 2.0, size=100), fluid, rng)


# -- bit for bit against the (breakpoint, node) kernel -------------------------

ARRIVALS = {
    "scaled-bernoulli": lambda n: ArrivalSpec("scaled-bernoulli", np.full(n, 0.6), peak=1.5),
    "binomial": lambda n: ArrivalSpec("binomial", np.full(n, 0.5), peak=2.0),
    "controlled": lambda n: ArrivalSpec("controlled", np.full(n, 0.17)),
}
GRAPHS = {1: ConflictGraph.from_edges(1, []), 2: preset("clique2"), 5: preset("cycle5"),
          100: ConflictGraph.from_edges(100, [(i, (i + 1) % 100) for i in range(100)])}


def assert_same_bits(got, expected):
    for x, y in zip(got, expected, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


@pytest.mark.parametrize("blocks", ["one", "several"])
@pytest.mark.parametrize("n", [1, 2, 5, 100])
@pytest.mark.parametrize("arrivals", [*ARRIVALS, "inflow", "none"])
def test_integrator_matches_the_row_major_kernel_bit_for_bit(monkeypatch, arrivals, n,
                                                             blocks):
    rng = np.random.default_rng(17 * n + len(arrivals))
    graph = GRAPHS[n]
    length = 40
    traj = simulate(graph, rng.uniform(-1.0, 1.5, size=n), float(length), rng=rng)
    kwargs = {}
    if arrivals == "inflow":
        kwargs["inflow"] = rng.uniform(0.0, 1.0, size=n)
    elif arrivals != "none":
        kwargs["deposits"] = sample_epoch_arrivals(ARRIVALS[arrivals](n), length, rng)
    breakpoints = traj.times.size + (length if "deposits" in kwargs else 1)
    rows = breakpoints if blocks == "one" else breakpoints // 3
    monkeypatch.setattr(traffic, "BLOCK_CELLS", rows * n)
    assert (-(-breakpoints // rows) >= 3) == (blocks == "several")
    q0 = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 3.0, size=n))
    state = QueueState(queue=q0.copy(), departed=np.ones(n), arrived=q0 + 1.0)
    reference = QueueState(queue=q0.copy(), departed=np.ones(n), arrived=q0 + 1.0)
    got = integrate_epoch(state, traj, **kwargs)
    expected = integrate_epoch_row_major(reference, traj, **kwargs)
    assert_same_bits(got, expected)
    assert_same_bits(vars(state).values(), vars(reference).values())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.3, 2.5, 40.0]),
                          st.floats(min_value=0.0, max_value=1.0),
                          st.floats(min_value=0.0, max_value=1.0)),
                min_size=1, max_size=6),
       st.floats(min_value=0.5, max_value=100.0))
def test_single_piece_matches_the_row_major_kernel_bit_for_bit(nodes, length):
    q0, a, s = (np.array(v) for v in zip(*nodes))
    state = QueueState(queue=q0.copy(), departed=np.zeros(q0.size), arrived=q0.copy())
    reference = QueueState(queue=q0.copy(), departed=np.zeros(q0.size), arrived=q0.copy())
    got = reflect(state, ((a - s) * length)[:, None], None, a * length)
    expected = reflect_row_major(reference, ((a - s) * length)[None, :], None, a * length)
    assert_same_bits(got, expected)
    assert_same_bits(vars(state).values(), vars(reference).values())


def reflect_one_by_one(state, net, arrived):
    """B traffic.reflect calls of one breakpoint each, as (B, n) rows of what
    `reflect_epochs` returns, and the warnings they raise."""
    rows = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for k in range(len(net)):
            served, peak = reflect(state, net[k][:, None], None, arrived[k])
            rows.append((served, peak, state.queue, state.departed, state.arrived))
    return [np.array(column) for column in zip(*rows)], caught


def warning_texts(caught):
    # numpy names a warning after the ufunc's method, so the accumulation
    # that adds a block's rows warns "in accumulate" where one row's sum
    # warns "in add"
    return {(w.category, str(w.message).replace("in accumulate", "in add")) for w in caught}


def assert_same_bytes(got, expected):
    """Bit for bit: the sign of zero and NaN payloads count too."""
    for x, y in zip(got, expected, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def kernel_case(case, epochs, n=5):
    """(initial state, net, arrived) of a `case` block of `epochs` oracle-like epochs."""
    rng = np.random.default_rng(epochs * 31 + len(case))
    rates, service = rng.uniform(0.0, 0.5, n), rng.uniform(0.0, 0.5, (epochs, n))
    length = np.full((epochs, 1), 10.0)
    if case == "past-2**53":  # the published lengths of epochs 1744 on, ~2**60
        length = np.array([[published_epoch_length(j)] for j in range(1744, 1744 + epochs)],
                          dtype=float)
    arrived = rates * length
    offered = service * length
    if case in ("zero-nets", "specials"):
        offered[::3] = arrived[::3]  # zero nets
    net = arrived - offered
    q0 = np.zeros(n) if case == "empty" else rng.uniform(0.0, 40.0, n)
    state = QueueState(queue=q0, departed=rng.uniform(0.0, 1e3, n), arrived=q0 + 1e3)
    if case == "specials":
        specials = [-0.0, math.nan, math.inf, -math.inf]
        state.queue = np.array([-0.0, 0.0, 3.0, 1.0, 2.0])
        for values in (net, arrived):
            cells = rng.choice(values.size, size=min(values.size, 8), replace=False)
            values.flat[cells] = rng.choice(specials, size=cells.size)
        net[0] = [-0.0, -0.0, -3.0, 0.0, -0.0]  # -0.0 reaches the queue
    return state, net, arrived


@pytest.mark.parametrize("epochs", [1, 2, 256])
@pytest.mark.parametrize("case", ["empty", "queued", "zero-nets", "specials", "past-2**53"])
def test_reflect_epochs_is_one_reflect_call_per_epoch(case, epochs):
    state, net, arrived = kernel_case(case, epochs)
    reference = QueueState(*(v.copy() for v in vars(state).values()))
    expected, expected_warnings = reflect_one_by_one(reference, net, arrived)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = traffic.reflect_epochs(state, net, arrived)
    assert_same_bytes(got, expected)
    assert_same_bytes(vars(state).values(), vars(reference).values())
    assert warning_texts(caught) == warning_texts(expected_warnings)
    if case == "specials" and epochs > 1:  # the case reaches what it is meant to
        assert expected_warnings and np.isnan(expected[0]).any()
        assert np.signbit(expected[2][0][expected[2][0] == 0.0]).any()


def fluid_closed_form(q, a, s, length):
    """(queue, departures, peak) of a queue fed at rate a and offered rate s."""
    if q > 0.0:
        if s > a:
            empty_in = q / (s - a)
            if empty_in >= length:
                newq, served = q - (s - a) * length, s * length
            else:
                newq, served = 0.0, q + a * length
        else:
            newq, served = q + (a - s) * length, s * length
        return newq, served, max(q, newq)
    if a <= s:
        return 0.0, a * length, 0.0
    return (a - s) * length, s * length, (a - s) * length


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.3, 2.5, 40.0]),
                          st.integers(0, 100).map(lambda k: k / 100),
                          st.integers(0, 100).map(lambda k: k / 100)),
                min_size=1, max_size=6),
       st.floats(min_value=0.5, max_value=100.0))
def test_single_piece_matches_fluid_closed_form(nodes, length):
    q0, a, s = (np.array(v) for v in zip(*nodes))
    state = QueueState(queue=q0.copy(), departed=np.zeros(q0.size), arrived=q0.copy())
    departed, peak = reflect(state, ((a - s) * length)[:, None], None, a * length)
    for i in range(q0.size):
        newq, served, top = fluid_closed_form(q0[i], a[i], s[i], length)
        assert state.queue[i] == pytest.approx(newq, abs=1e-12)
        assert departed[i] == pytest.approx(served, abs=1e-12)
        assert peak[i] == pytest.approx(top, abs=1e-12)
    assert conservation_error(state) <= 1e-12


def test_offered_never_below_actual():
    g = preset("clique2")
    rng = np.random.default_rng(77)
    traj = simulate(g, [0.3, 0.3], 12.0, rng=rng)
    deposits = (rng.random((12, 2)) < 0.4).astype(float)
    state = QueueState.zeros(2)
    served, peak, offered = integrate_epoch(state, traj, deposits=deposits)
    assert np.all(offered >= served - 1e-12)
    assert np.all(offered <= 12.0)


def test_departed_accumulates_across_epochs():
    g = preset("single")
    busy = constant_trajectory(g, 0b1, 3.0)
    state = QueueState.zeros(1)
    integrate_epoch(state, busy, inflow=np.array([0.5]))
    integrate_epoch(state, busy, inflow=np.array([0.5]))
    assert state.departed == pytest.approx([3.0], abs=1e-12)


def test_offered_service_counts_idle_transmission():
    # offered service is transmit time whether or not there is backlog
    g = preset("single")
    traj = constant_trajectory(g, 0b1, 2.0)
    served, peak, offered = integrate_epoch(QueueState.zeros(1), traj)
    assert offered == pytest.approx([2.0], abs=1e-15)
    assert served == pytest.approx([0.0], abs=1e-15)


def test_integrator_memory_does_not_grow_with_events_times_nodes():
    # 40k events on 400 nodes: one (events, n) float array would be 128 MB
    n, events = 400, 40_000
    g = ConflictGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    k = np.arange(events)
    traj = Trajectory(graph=g, initial_mask=0, duration=100.0,
                      times=(k + 1) * (100.0 / (events + 1)),
                      nodes=2 * ((k // 2) % (n // 2)), final_mask=0)
    own = traj.times.nbytes + traj.nodes.nbytes
    state = QueueState.zeros(n)
    inflow = np.full(n, 0.01)
    tracemalloc.start()
    try:
        _, _, offered = integrate_epoch(state, traj, inflow=inflow)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * own < events * n * 8
    # each node on the list transmits for one event gap per start/end pair
    gap = 100.0 / (events + 1)
    assert offered.sum() == pytest.approx(events // 2 * gap, rel=1e-9)
