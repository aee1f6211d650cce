"""Sampler, discrete kernel, generator, and the spectral/cut diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csmasim import chain
from csmasim.chain import (
    CONDUCTANCE_STATE_CAP,
    DRIVE_LIMIT,
    chain_diagnostics,
    clock_table,
    conductance,
    ctmc_generator,
    glauber_kernel,
    second_eigenvalue_modulus,
    simulate,
)
from csmasim.conflict_graph import (
    PRESETS,
    ConflictGraph,
    enumerate_independent_sets,
    preset,
    schedule_nodes,
)
from csmasim.errors import ExactModeUnavailable, InvariantViolation, NumericFailure
from csmasim.gibbs import stationary_distribution
from hypothesis import example
from oracles import (ctmc_generator_loop, empirical_distribution, occupancy, row_of,
                     segments, tv_distance, walk_table_per_event)


@st.composite
def family_and_backoff(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    fam = enumerate_independent_sets(ConflictGraph.from_edges(n, edges))
    r = np.array(draw(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                               min_size=n, max_size=n)))
    return fam, r


# -- discrete kernel ----------------------------------------------------------

def test_single_node_kernel_is_half_lazy():
    fam = enumerate_independent_sets(preset("single"))
    k = glauber_kernel(fam, [0.0])
    assert np.allclose(k.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    assert k.total_rate == 1.0
    pi = stationary_distribution(fam, [0.0]).probs
    assert second_eigenvalue_modulus(k, pi) == pytest.approx(0.0, abs=1e-12)


def test_kernel_rejects_unusable_backoffs():
    fam = enumerate_independent_sets(preset("single"))
    with pytest.raises(ValueError):
        glauber_kernel(fam, [-math.inf])
    with pytest.raises(ValueError):
        glauber_kernel(fam, [701.0])
    with pytest.raises(ValueError):
        glauber_kernel(fam, [0.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(family_and_backoff())
def test_kernel_rows_and_detailed_balance(pair):
    fam, r = pair
    k = glauber_kernel(fam, r)
    P = k.matrix
    assert np.all(P >= -1e-15)
    assert P.sum(axis=1) == pytest.approx(np.ones(fam.size), abs=1e-12)
    # moves touch exactly one node
    for a, ma in enumerate(fam.masks):
        for b, mb in enumerate(fam.masks):
            if a != b and bin(ma ^ mb).count("1") != 1:
                assert P[a, b] == 0.0
    pi = stationary_distribution(fam, r).probs
    flow = pi[:, None] * P
    assert flow == pytest.approx(flow.T, abs=1e-12)


def tick_rule_kernel(fam, r):
    """The kernel written out tick by tick: pick node i with probability
    max(e^r_i, 1)/R, flip it with half the clock-consistent probability."""
    select = np.maximum(np.exp(r), 1.0)
    total = select.sum()
    P = np.zeros((fam.size, fam.size))
    for row, mask in enumerate(fam.masks):
        for i in range(fam.n):
            bit = 1 << i
            if mask & bit:
                P[row, row_of(fam, mask ^ bit)] += select[i] / total * 0.5 * min(math.exp(-r[i]), 1.0)
            elif not mask & fam.graph.neighbor_masks[i]:
                P[row, row_of(fam, mask | bit)] += select[i] / total * 0.5 * min(math.exp(r[i]), 1.0)
        P[row, row] = 1.0 - P[row].sum()
    return P, total


@settings(max_examples=50, deadline=None)
@given(family_and_backoff())
def test_kernel_matches_tick_rule(pair):
    fam, r = pair
    k = glauber_kernel(fam, r)
    P, total = tick_rule_kernel(fam, r)
    assert k.total_rate == pytest.approx(total, rel=1e-14)
    assert k.matrix == pytest.approx(P, abs=1e-14)


def test_kernel_is_at_least_half_lazy():
    fam = enumerate_independent_sets(preset("cycle5"))
    for r in ([0.0] * 5, [1.5, -2.0, 0.3, 0.0, 2.5]):
        P = glauber_kernel(fam, r).matrix
        assert np.all(np.diag(P) >= 0.5 - 1e-12)


@settings(max_examples=50, deadline=None)
@given(family_and_backoff(max_n=5))
def test_second_eigenvalue_matches_dense_spectrum(pair):
    fam, r = pair
    k = glauber_kernel(fam, r)
    vals = np.sort(np.abs(np.linalg.eigvals(k.matrix)))
    pi = stationary_distribution(fam, r).probs
    assert second_eigenvalue_modulus(k, pi) == pytest.approx(float(vals[-2]), abs=1e-9)


# -- continuous-time generator -------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(family_and_backoff(max_n=5))
def test_generator_rows_and_stationarity(pair):
    fam, r = pair
    Q = ctmc_generator(fam, r)
    assert Q.sum(axis=1) == pytest.approx(np.zeros(fam.size), abs=1e-9)
    off = Q - np.diag(np.diag(Q))
    assert np.all(off >= 0.0)
    pi = stationary_distribution(fam, r).probs
    assert pi @ Q == pytest.approx(np.zeros(fam.size), abs=1e-9)


SMALL_PRESETS = [name for name in sorted(PRESETS)
                 if enumerate_independent_sets(preset(name)).size <= CONDUCTANCE_STATE_CAP]


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_generator_scatters_what_the_double_loop_builds(name):
    fam = enumerate_independent_sets(preset(name))
    rng = np.random.default_rng(len(name))
    for _ in range(25):
        r = rng.normal(0.0, 4.0, fam.n)
        r[rng.random(fam.n) < 0.2] = -math.inf
        assert np.array_equal(ctmc_generator(fam, r), ctmc_generator_loop(fam, r))


def test_small_presets_cover_all_but_the_grid():
    assert SMALL_PRESETS == ["clique2", "cycle5", "path3", "single"]


# -- conductance and mixing estimates ------------------------------------------

def test_single_node_conductance_is_one():
    fam = enumerate_independent_sets(preset("single"))
    k = glauber_kernel(fam, [0.0])
    pi = stationary_distribution(fam, [0.0]).probs
    # only cut: Q = 1/2 * 1/2 = 1/4 over pi(S)pi(Sc) = 1/4
    assert conductance(k.matrix, pi) == pytest.approx(1.0, abs=1e-12)


def brute_conductance(P, pi):
    N = pi.size
    E = pi[:, None] * P
    best = math.inf
    for cut in range(1, (1 << N) - 1):
        s = [i for i in range(N) if cut >> i & 1]
        sc = [i for i in range(N) if not cut >> i & 1]
        q = E[np.ix_(s, sc)].sum()
        best = min(best, q / (pi[s].sum() * pi[sc].sum()))
    return best


@settings(max_examples=30, deadline=None)
@given(family_and_backoff(max_n=4))
def test_conductance_matches_cut_loop(pair):
    fam, r = pair
    if fam.size < 2:
        return
    k = glauber_kernel(fam, r)
    pi = stationary_distribution(fam, r).probs
    assert conductance(k.matrix, pi) == pytest.approx(
        brute_conductance(k.matrix, pi), abs=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("level", [20.0, 40.0, 300.0])
def test_conductance_with_one_dominant_schedule(level):
    # two conflict-free nodes: the busy pair holds all but ~2 exp(-level) of
    # the law, which a complement-based cut sum cancels to -0.0 or 0/0
    free_pair = enumerate_independent_sets(ConflictGraph.from_edges(2, []))
    r = [level, level]
    k = glauber_kernel(free_pair, r)
    pi = stationary_distribution(free_pair, r).probs
    brute = brute_conductance(k.matrix, pi)
    assert brute == pytest.approx(0.25, rel=1e-8)
    assert conductance(k.matrix, pi) == pytest.approx(brute, rel=1e-12)
    assert chain_diagnostics(free_pair, r).conductance == pytest.approx(brute, rel=1e-12)


def test_conductance_caps_and_argument_checks():
    fam = enumerate_independent_sets(preset("grid3x3"))
    pi = stationary_distribution(fam, [0.0] * 9).probs
    with pytest.raises(ExactModeUnavailable):
        conductance(np.eye(fam.size), pi)
    with pytest.raises(ValueError):
        conductance(np.ones((1, 1)), np.ones(1))


def test_cheeger_bound_on_presets():
    for name in ("single", "clique2", "path3", "cycle5"):
        fam = enumerate_independent_sets(preset(name))
        for r in (np.zeros(fam.n), np.full(fam.n, 0.5)):
            k = glauber_kernel(fam, r)
            pi = stationary_distribution(fam, r).probs
            phi = conductance(k.matrix, pi)
            lam = second_eigenvalue_modulus(k, pi)
            if phi <= math.sqrt(2.0):
                assert lam <= 1.0 - phi * phi / 2.0 + 1e-9


def test_mixing_estimate_single_node_closed_form():
    fam = enumerate_independent_sets(preset("single"))
    diag = chain_diagnostics(fam, [0.0])
    # gap 1, unit clock budget, floor pi_min = 1/2, delta = 0.01
    assert diag.mixing_estimate == pytest.approx(math.log(200.0), abs=1e-12)
    assert diag.mixing_worst_case == pytest.approx(math.e * math.log(100.0), abs=1e-12)
    with pytest.raises(ValueError):
        chain_diagnostics(fam, [0.0], delta=1.5)


def test_chain_diagnostics_builds_each_piece_once(monkeypatch):
    calls = {"glauber_kernel": 0, "stationary_distribution": 0,
             "second_eigenvalue_modulus": 0}
    for name in calls:
        def counted(*args, _fn=getattr(chain, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(chain, name, counted)
    chain_diagnostics(enumerate_independent_sets(preset("cycle5")), np.full(5, 0.4))
    assert calls == dict.fromkeys(calls, 1)

    # past the cut cap nothing is built, and the message names the cap
    fam = enumerate_independent_sets(preset("grid3x3"))
    assert fam.size > CONDUCTANCE_STATE_CAP
    with pytest.raises(ExactModeUnavailable,
                       match=f"{fam.size} states exceed the cap {CONDUCTANCE_STATE_CAP}"):
        chain_diagnostics(fam, np.full(9, 800.0))
    assert calls == dict.fromkeys(calls, 1)


def test_chain_diagnostics_fail_closed(monkeypatch):
    clique2 = enumerate_independent_sets(preset("clique2"))
    with pytest.raises(NumericFailure, match="past the kernel's range"):
        chain_diagnostics(clique2, [700.5, 0.0])
    # the slow mode relaxes at ~exp(-40) per tick, so 1 - lambda rounds to 0
    with pytest.raises(NumericFailure, match="spectral gap"):
        chain_diagnostics(clique2, [40.0, 40.0])
    # two free nodes mix in O(1) ticks at any drive, but the worst-case bound
    # exp(2 max|r| + 2) log(100) overflows: in exp itself, or in the product
    free_pair = enumerate_independent_sets(ConflictGraph.from_edges(2, []))
    for level in (355.0, 353.5):
        with pytest.raises(NumericFailure, match="overflows"):
            chain_diagnostics(free_pair, [level, level])
    # the empty schedule's weight exp(-699 k) underflows, and sqrt(pi) = 0
    # would make the symmetrized kernel 0/0
    for name in ("path3", "cycle5"):
        fam = enumerate_independent_sets(preset(name))
        with pytest.raises(NumericFailure, match="underflows"):
            chain_diagnostics(fam, np.full(fam.n, 699.0))
    # a gap of one ulp is below what eigvalsh resolves
    with monkeypatch.context() as patch:
        patch.setattr(chain, "second_eigenvalue_modulus", lambda kernel, probs: 1.0 - 2.0 ** -53)
        with pytest.raises(NumericFailure, match="spectral gap"):
            chain_diagnostics(clique2, [0.0, 0.0])
    monkeypatch.setattr(chain, "conductance", lambda flow, probs: math.inf)
    with pytest.raises(NumericFailure, match="conductance is not finite"):
        chain_diagnostics(clique2, [0.0, 0.0])


def test_chain_diagnostics_fields():
    fam = enumerate_independent_sets(preset("clique2"))
    diag = chain_diagnostics(fam, [0.0, 0.0])
    assert 0.0 < diag.conductance <= 2.0
    assert diag.lambda_max < 1.0
    assert diag.cheeger_upper == pytest.approx(1.0 - diag.conductance ** 2 / 2.0, abs=1e-12)
    payload = diag._asdict()
    assert set(payload) == {"lambda_max", "conductance", "cheeger_upper",
                            "mixing_estimate", "mixing_worst_case"}


# -- distances ------------------------------------------------------------------

def test_distance_basics():
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
       st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6))
@settings(max_examples=80, deadline=None)
def test_tv_below_half_chi2(p_raw, q_raw):
    k = min(len(p_raw), len(q_raw))
    p = np.array(p_raw[:k]) / sum(p_raw[:k])
    q = np.array(q_raw[:k]) / sum(q_raw[:k])
    tv = tv_distance(p, q)
    assert 0.0 <= tv <= 1.0
    assert tv == tv_distance(q, p)
    chi2 = math.sqrt(float((q * (p / q - 1.0) ** 2).sum()))  # q > 0 here
    assert tv <= 0.5 * chi2 + 1e-12


# -- event-driven sampler --------------------------------------------------------

def test_simulate_validates_inputs():
    g = preset("clique2")
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simulate(g, [0.0], 1.0, rng=rng)
    with pytest.raises(ValueError):
        simulate(g, [math.nan, 0.0], 1.0, rng=rng)
    with pytest.raises(ValueError):
        simulate(g, [math.inf, 0.0], 1.0, rng=rng)
    with pytest.raises(ValueError):
        simulate(g, [800.0, 0.0], 1.0, rng=rng)
    with pytest.raises(ValueError):
        simulate(g, [0.0, 0.0], -1.0, rng=rng)
    with pytest.raises(ValueError):
        simulate(g, [0.0, 0.0], 1.0, initial_mask=0b11, rng=rng)


def test_simulate_reproducible_and_feasible():
    g = preset("cycle5")
    r = [0.5, 0.1, -0.4, 0.9, 0.0]
    a = simulate(g, r, 50.0, rng=np.random.default_rng(42))
    b = simulate(g, r, 50.0, rng=np.random.default_rng(42))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.nodes, b.nodes)
    assert a.final_mask == b.final_mask
    covered = 0.0
    for t0, t1, mask in segments(a):
        assert t1 > t0
        assert g.is_independent(mask)
        covered += t1 - t0
    assert covered == pytest.approx(50.0, abs=1e-9)


def test_clique_nodes_never_overlap():
    g = preset("clique2")
    traj = simulate(g, [1.0, 1.0], 200.0, rng=np.random.default_rng(7))
    for _, _, mask in segments(traj):
        assert mask != 0b11


def test_masked_node_never_transmits():
    g = preset("clique2")
    traj = simulate(g, [-math.inf, 0.3], 100.0, rng=np.random.default_rng(3))
    occ = occupancy(traj)
    assert occ.busy_fraction[0] == 0.0
    assert occ.busy_fraction[1] > 0.1


def test_long_run_matches_stationary_law():
    g = preset("clique2")
    fam = enumerate_independent_sets(g)
    r = np.array([0.2, -0.4])
    traj = simulate(g, r, 40_000.0, rng=np.random.default_rng(11))
    emp = empirical_distribution(occupancy(traj), fam)
    pi = stationary_distribution(fam, r).probs
    assert tv_distance(emp, pi) <= 0.02
    # busy fractions are the same data viewed per node
    occ = occupancy(traj)
    assert occ.busy_fraction == pytest.approx(emp @ fam.matrix, abs=1e-12)


def test_zero_duration_has_no_events():
    g = preset("single")
    traj = simulate(g, [0.0], 0.0, rng=np.random.default_rng(1))
    assert traj.times.size == 0
    assert list(segments(traj)) == []
    with pytest.raises(ValueError):
        occupancy(traj)


def test_occupancy_against_event_replay():
    g = preset("path3")
    r = [0.3, 0.6, -0.2]
    traj = simulate(g, r, 300.0, rng=np.random.default_rng(21))
    occ = occupancy(traj)
    # replay events with an independent per-node busy-interval accumulator
    busy = np.zeros(3)
    on_since = {}
    for i in schedule_nodes(traj.initial_mask):
        on_since[i] = 0.0
    for t, node in zip(traj.times.tolist(), traj.nodes.tolist()):
        if node in on_since:  # a transmitting node's event ends its transmission
            busy[node] += t - on_since.pop(node)
        else:
            on_since[node] = t
    for i, t0 in on_since.items():
        busy[i] += traj.duration - t0
    assert occ.busy_fraction == pytest.approx(busy / traj.duration, abs=1e-12)


def law_with_silenced_nodes(fam, r):
    """Product-form law when some entries of r are -inf: those nodes never start."""
    r = np.asarray(r, dtype=float)
    live = np.isfinite(r)
    allowed = fam.matrix[:, ~live].sum(axis=1) == 0
    weights = np.where(allowed, np.exp(fam.matrix[:, live] @ r[live]), 0.0)
    return weights / weights.sum()


def test_long_run_matches_law_with_a_silenced_node():
    g = preset("cycle5")
    fam = enumerate_independent_sets(g)
    r = [0.8, -math.inf, 0.3, -0.5, 1.2]
    traj = simulate(g, r, 20_000.0, rng=np.random.default_rng(5))
    assert not np.any(traj.nodes == 1)
    emp = empirical_distribution(occupancy(traj), fam)
    assert tv_distance(emp, law_with_silenced_nodes(fam, r)) <= 0.02


def test_silenced_chain_drains_and_stops():
    # every clock is silent, so the chain empties the start schedule and then
    # sits in the absorbing empty state; the loop must end there, not at t
    g = preset("cycle5")
    traj = simulate(g, [-math.inf] * 5, 1e12, initial_mask=0b00101,
                    rng=np.random.default_rng(2))
    assert sorted(traj.nodes.tolist()) == [0, 2]
    mask = traj.initial_mask
    for node in traj.nodes.tolist():  # every event ends a transmission
        after = mask ^ 1 << node
        assert after & mask == after
        mask = after
    assert traj.final_mask == 0
    fam = enumerate_independent_sets(g)
    emp = empirical_distribution(occupancy(traj), fam)
    assert emp[row_of(fam, 0)] == pytest.approx(1.0, abs=1e-9)
    assert law_with_silenced_nodes(fam, [-math.inf] * 5)[row_of(fam, 0)] == 1.0


@pytest.mark.parametrize("name, r", [
    ("path3", [-1.0, -1.0, -1.0]),
    ("cycle5", [-2.0, -1.5, -2.0, -2.5, -2.0]),
])
def test_law_at_time_one_matches_matrix_exponential(name, r):
    """The law at t = 1 from the empty schedule is row 0 of e^G.

    The stationary law cannot see a sampler whose clocks all run at twice the
    rate; this transient law can: at these drives the t = 1 and t = 2 laws are
    ~0.07 apart in total variation, 9-10 standard errors on the state that
    moves most.
    """
    expm = pytest.importorskip("scipy.linalg").expm
    g = preset(name)
    fam = enumerate_independent_sets(g)
    r = np.asarray(r)
    exact = expm(ctmc_generator(fam, r))[row_of(fam, 0)]
    runs = 4000
    rng = np.random.default_rng(17)
    counts = np.zeros(fam.size)
    for _ in range(runs):
        counts[row_of(fam, simulate(g, r, 1.0, rng=rng).final_mask)] += 1
    z = np.abs(counts / runs - exact) / np.sqrt(exact * (1.0 - exact) / runs)
    assert z.max() <= 4.0


# -- the clock-table walk against the per-node clocks ----------------------------

def chain_case(n, edges, drive, initial_mask, duration, seed):
    return ConflictGraph.from_edges(n, edges), drive, initial_mask, duration, seed


@st.composite
def chain_cases(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    graph = ConflictGraph.from_edges(n, edges)
    drive = draw(st.lists(st.one_of(
        st.just(-math.inf), st.just(0.0), st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=DRIVE_LIMIT - 1.0, max_value=DRIVE_LIMIT)),
        min_size=n, max_size=n))
    initial_mask = draw(st.sampled_from(enumerate_independent_sets(graph).masks.tolist()))
    duration = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return graph, drive, initial_mask, duration, seed


@settings(max_examples=300, deadline=None)
@given(chain_cases())
@example(chain_case(5, [(i, (i + 1) % 5) for i in range(5)], [-math.inf] * 5,
                    0b00101, 1e12, 2))  # all clocks silent: drains, then absorbs
@example(chain_case(3, [(0, 1)], [0.0, DRIVE_LIMIT, -math.inf], 0b010, 0.0, 1))
def test_table_walk_reproduces_the_clock_walk(case):
    graph, drive, initial_mask, duration, seed = case
    table = clock_table(enumerate_independent_sets(graph))
    a = simulate(graph, drive, duration, initial_mask=initial_mask,
                 rng=np.random.default_rng(seed))
    b = simulate(graph, drive, duration, initial_mask=initial_mask,
                 rng=np.random.default_rng(seed), table=table)
    for field in ("times", "nodes"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and np.array_equal(x, y), field
    assert a.final_mask == b.final_mask
    mask = initial_mask
    for node in b.nodes.tolist():  # each event flips its node
        mask ^= 1 << node
        assert graph.is_independent(mask)
    assert mask == b.final_mask


@pytest.mark.parametrize("graph, drive, initial_mask, duration", [
    ("cycle5", [-math.inf, 0.4, -math.inf, 1.2, 0.0], 0b01001, 3_000.0),  # > 3 blocks
    ("grid3x3", [0.5, -math.inf, 0.5, -math.inf, 2.0, -math.inf, 0.5, -math.inf, 0.5],
     0b000010000, 400.0),
    ("path3", [-math.inf, -math.inf, -math.inf], 0b101, 1e12),  # drains, then absorbs
    ("path3", [-math.inf, -math.inf, -math.inf], 0b000, 5.0),   # absorbing from the start
    ("clique2", [DRIVE_LIMIT, -math.inf], 0b00, 20.0),
    ("single", [0.0], 0b1, 0.0),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_table_walk_matches_the_per_event_walk_bit_for_bit(graph, drive, initial_mask,
                                                           duration, seed):
    g = preset(graph)
    table = clock_table(enumerate_independent_sets(g))
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    traj = simulate(g, drive, duration, initial_mask=initial_mask, rng=rng, table=table)
    times, nodes, final_mask = walk_table_per_event(table, drive, duration, initial_mask,
                                                    reference_rng)
    assert traj.times.tolist() == times and traj.nodes.tolist() == nodes
    assert traj.final_mask == final_mask
    # the same draws were taken: the streams continue alike
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_clock_table_rows():
    fam = enumerate_independent_sets(preset("path3"))  # masks 0, 1, 2, 4, 5
    table = clock_table(fam)
    assert table.toggles.tolist() == [[1, 2, 3], [0, -1, 4], [-1, 0, -1],
                                      [4, -1, 0], [3, -1, 1]]
    rates = table.clock_rates(np.log([2.0, 3.0, 5.0]))
    assert rates[row_of(fam, 0b001)] == pytest.approx([1.0, 0.0, 5.0], rel=1e-15)
    assert rates[row_of(fam, 0b000)] == pytest.approx([2.0, 3.0, 5.0], rel=1e-15)


def test_table_walk_refuses_an_infeasible_jump():
    # a table whose codes let a blocked node start must fail, not wrap around
    g = preset("clique2")
    table = clock_table(enumerate_independent_sets(g))
    broken = table._replace(rate_codes=np.tile(np.arange(2), (3, 1)))
    with pytest.raises(InvariantViolation, match="node 1 started against a busy neighbor"):
        simulate(g, [-math.inf, 0.0], 10.0, initial_mask=0b01,
                 rng=np.random.default_rng(0), table=broken)


def test_clock_walk_refuses_a_start_against_a_busy_neighbor():
    # one-sided masks: node 1 sees node 0 but node 0 sees no one, so node 0's
    # start leaves node 1's clock running, and node 1 then starts against it
    g = ConflictGraph(n=2, edges=((0, 1),), neighbor_masks=(0, 1))
    with pytest.raises(InvariantViolation, match="node 1 started against a busy neighbor"):
        simulate(g, np.zeros(2), 100.0, rng=np.random.default_rng(0))


def test_simulate_rejects_a_table_of_another_graph():
    table = clock_table(enumerate_independent_sets(preset("clique2")))
    with pytest.raises(ValueError, match="another graph"):
        simulate(ConflictGraph.from_edges(2, []), [0.0, 0.0], 1.0,
                 rng=np.random.default_rng(0), table=table)
