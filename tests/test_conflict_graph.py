"""Graph construction, schedule enumeration, and capacity-region membership.

The enumeration oracle used throughout is the dumb one: filter all 2^n subsets
with a pairwise edge check.  Everything faster must agree with it.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from csmasim import conflict_graph
from csmasim.cli import main
from csmasim.conflict_graph import (
    FAMILY_CAP,
    MAX_NODES,
    ConflictGraph,
    PRESETS,
    enumerate_independent_sets,
    induced_subgraph,
    is_strictly_admissible,
    max_weight_independent_set,
    parse_edge_list,
    preset,
    read_edge_list,
    schedule_nodes,
)
from csmasim.errors import ExactModeUnavailable, InfeasibleRates, NumericFailure
from csmasim.gibbs import solve_backoff
from oracles import enumerate_independent_sets_recursive, row_of, strict_json


def brute_force_masks(n, edges):
    out = []
    for mask in range(1 << n):
        ok = True
        for i, j in edges:
            if mask >> i & 1 and mask >> j & 1:
                ok = False
                break
        if ok:
            out.append(mask)
    return out


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return ConflictGraph.from_edges(n, edges)


# -- construction ------------------------------------------------------------

def test_from_edges_normalizes_orientation_and_duplicates():
    g = ConflictGraph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert g.neighbor_masks == (0b100, 0b100, 0b011)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        ConflictGraph.from_edges(0, [])
    with pytest.raises(ValueError):
        ConflictGraph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        ConflictGraph.from_edges(2, [(1, 1)])


def test_from_edges_caps_the_node_count_before_allocating():
    assert ConflictGraph.from_edges(MAX_NODES, []).n == MAX_NODES
    tracemalloc.start()
    try:
        for n in (MAX_NODES + 1, 10 ** 12):
            with pytest.raises(ValueError, match="nodes"):
                ConflictGraph.from_edges(n, [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # the masks of 10**12 nodes would need 8 TB


def test_presets_fixed_shapes():
    shapes = {name: (preset(name).n, len(preset(name).edges)) for name in PRESETS}
    assert shapes == {
        "single": (1, 0),
        "clique2": (2, 1),
        "path3": (3, 2),
        "cycle5": (5, 5),
        "grid3x3": (9, 12),
    }
    with pytest.raises(ValueError):
        preset("nope")


def test_is_independent_rejects_masks_out_of_range():
    g = preset("clique2")
    for mask in (-1, 0b100):
        with pytest.raises(ValueError, match=f"mask {mask} out of range for n=2"):
            g.is_independent(mask)


def test_schedule_nodes_roundtrip():
    assert schedule_nodes(0) == ()
    assert schedule_nodes(0b10110) == (1, 2, 4)


def test_parse_edge_list_skips_comments_and_blanks():
    g = parse_edge_list("3\n# clique edge\n0 1\n\n1 2\n")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("2\n0 1 2\n")


def test_read_edge_list(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("2\n0 1\n")
    assert read_edge_list(p).edges == ((0, 1),)


# -- enumeration -------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(small_graphs())
def test_enumeration_matches_subset_filter(g):
    fam = enumerate_independent_sets(g)
    assert fam.masks.tolist() == brute_force_masks(g.n, g.edges)
    for row, mask in enumerate(fam.masks.tolist()):
        assert g.is_independent(mask)
        assert row_of(fam, mask) == row
        assert [int(v) for v in fam.matrix[row]] == [mask >> i & 1 for i in range(g.n)]


def assert_family_matches_the_recursive_reference(g):
    fam = enumerate_independent_sets(g)
    masks, matrix = enumerate_independent_sets_recursive(g)
    assert fam.masks.dtype == np.int64 and np.array_equal(fam.masks, masks)
    assert fam.matrix.dtype == np.float64 and np.array_equal(fam.matrix, matrix)


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=12))
def test_doubling_matches_the_recursive_enumeration(g):
    assert_family_matches_the_recursive_reference(g)


@pytest.mark.parametrize("n, edges", [
    (22, [(i, (i + 1) % 22) for i in range(22)]),  # cycle22, 39 603 sets
    (25, conflict_graph._grid(5, 5)),              # grid5x5
    (16, []),                                      # edgeless16, exactly FAMILY_CAP sets
])
def test_doubling_matches_the_recursive_enumeration_at_the_frontier(n, edges):
    assert_family_matches_the_recursive_reference(ConflictGraph.from_edges(n, edges))


def test_family_cap_refuses_one_set_past_it():
    # edgeless16 plus a node joined to all 16: exactly FAMILY_CAP + 1 sets
    star = ConflictGraph.from_edges(17, [(i, 16) for i in range(16)])
    with pytest.raises(ExactModeUnavailable, match="family cap"):
        enumerate_independent_sets(star)


def test_family_arrays_are_read_only():
    fam = enumerate_independent_sets(preset("cycle5"))
    for array in (fam.masks, fam.matrix):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_path_family_sizes_are_fibonacci():
    # independent sets of a path on n nodes: 2, 3, 5, 8, ...
    sizes = []
    for n in range(1, 11):
        g = ConflictGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        sizes.append(enumerate_independent_sets(g).size)
    assert sizes == [2, 3, 5, 8, 13, 21, 34, 55, 89, 144]


def test_preset_family_sizes():
    assert enumerate_independent_sets(preset("cycle5")).size == 11
    assert enumerate_independent_sets(preset("clique2")).size == 3
    grid = preset("grid3x3")
    fam = enumerate_independent_sets(grid)
    assert fam.size == 63
    assert fam.masks.tolist() == brute_force_masks(grid.n, grid.edges)


def test_enumeration_cap():
    with pytest.raises(ExactModeUnavailable):
        enumerate_independent_sets(ConflictGraph.from_edges(31, []))


def test_membership_matrix_reaches_the_top_bit_of_the_cap():
    # the complete graph at the cap: the empty schedule and each node alone
    n = conflict_graph.EXACT_MODE_CAP
    g = ConflictGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    fam = enumerate_independent_sets(g)
    assert fam.masks.tolist() == [0] + [1 << i for i in range(n)]
    expected = np.zeros((fam.size, n))
    for row, mask in enumerate(fam.masks.tolist()):
        expected[row, list(schedule_nodes(mask))] = 1.0
    assert fam.matrix.dtype == np.float64
    assert np.array_equal(fam.matrix, expected)


def test_family_cap_refuses_a_sparse_graph_early():
    # an edgeless 25-node graph has 2^25 independent sets, a GB of masks
    tracemalloc.start()
    try:
        with pytest.raises(ExactModeUnavailable, match="family cap"):
            enumerate_independent_sets(ConflictGraph.from_edges(25, []))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000  # measured 2.7 MB
    assert enumerate_independent_sets(ConflictGraph.from_edges(16, [])).size == FAMILY_CAP


def test_induced_subgraph_relabels():
    g = preset("cycle5")
    sub = induced_subgraph(g, [0, 2, 3])
    assert sub.n == 3
    assert sub.edges == ((1, 2),)  # only the 2-3 edge survives
    with pytest.raises(ValueError, match="at least one node"):
        induced_subgraph(g, [])


# -- max-weight oracle -------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(small_graphs(max_n=7), st.data())
def test_max_weight_matches_brute_force(g, data):
    w = np.array(data.draw(st.lists(
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        min_size=g.n, max_size=g.n)))
    fam = enumerate_independent_sets(g)
    row, value = max_weight_independent_set(fam, w)
    mask = fam.masks.tolist()[row]
    best = max(sum(w[i] for i in schedule_nodes(m)) for m in fam.masks.tolist())
    assert g.is_independent(mask)
    assert value == pytest.approx(best, abs=1e-12)
    assert sum(w[i] for i in schedule_nodes(mask)) == pytest.approx(value, abs=1e-12)


def test_max_weight_rejects_bad_shape():
    fam = enumerate_independent_sets(preset("clique2"))
    with pytest.raises(ValueError):
        max_weight_independent_set(fam, [1.0])


# -- admissibility -----------------------------------------------------------

def test_single_node_half_load():
    fam = enumerate_independent_sets(preset("single"))
    cert = is_strictly_admissible(fam, [0.5])
    assert cert.admissible
    assert cert.slack == pytest.approx(0.5, abs=1e-9)
    assert cert.weights == pytest.approx([0.5, 0.5], abs=1e-9)  # idle / transmit


def test_single_node_full_load_is_boundary():
    fam = enumerate_independent_sets(preset("single"))
    cert = is_strictly_admissible(fam, [1.0])
    assert not cert.admissible
    assert cert.slack == pytest.approx(0.0, abs=1e-9)
    assert cert.weights is None


def test_clique2_examples():
    fam = enumerate_independent_sets(preset("clique2"))
    # symmetric interior point: slack solves 2(1/3 + s) = 1
    cert = is_strictly_admissible(fam, [1 / 3, 1 / 3])
    assert cert.admissible
    assert cert.slack == pytest.approx(1 / 6, abs=1e-9)
    assert not is_strictly_admissible(fam, [0.6, 0.6]).admissible


def test_single_node_slack_and_negative_rates():
    fam = enumerate_independent_sets(preset("single"))
    cert = is_strictly_admissible(fam, [0.8])
    assert cert.slack == pytest.approx(0.2, abs=1e-9)
    with pytest.raises(ValueError):
        is_strictly_admissible(fam, [-0.5])
    with pytest.raises(ValueError, match=r"rates must have shape \(1,\)"):
        is_strictly_admissible(fam, [0.2, 0.2])


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=6), st.data())
def test_admissible_decomposition_is_exact(g, data):
    fam = enumerate_independent_sets(g)
    # scale a random convex combination strictly inside the region
    raw = np.array(data.draw(st.lists(
        st.floats(min_value=0, max_value=1, allow_nan=False),
        min_size=fam.size, max_size=fam.size)))
    if raw.sum() == 0:
        raw[0] = 1.0
    rates = 0.8 * (raw / raw.sum()) @ fam.matrix
    cert = is_strictly_admissible(fam, rates)
    assert cert.admissible
    assert cert.slack > 0
    nu = cert.weights
    assert np.all(nu >= -1e-15)
    assert nu.sum() == pytest.approx(1.0, abs=1e-9)
    # the shaved mixture reproduces the rates exactly, not just dominates
    assert nu @ fam.matrix == pytest.approx(rates, abs=1e-9)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # 0/0 weights
@pytest.mark.parametrize("weights", ["empty-schedule", "zero"])
def test_admissibility_certificate_is_checked(monkeypatch, weights):
    fam = enumerate_independent_sets(preset("cycle5"))
    assert fam.masks[0] == 0
    solve = conflict_graph.solve_standard_lp

    def perturbed(*args):
        x, basis = solve(*args)
        x = x.copy()
        x[fam.n + 2:] = 0.0  # master weights; the slack still claims strict admissibility
        if weights == "empty-schedule":
            x[fam.n + 2] = 1.0  # the master's first schedule is the empty one
        return x, basis

    monkeypatch.setattr(conflict_graph, "solve_standard_lp", perturbed)
    with pytest.raises(NumericFailure, match="certificate fails its check"):
        is_strictly_admissible(fam, np.full(5, 0.3))
    assert main(["analyze", "cycle5", "--lambda", "0.3"]) == 3


@pytest.mark.parametrize("rate", [0.3, 0.45])  # slack 0.1 and -0.05
def test_admissibility_dual_check_fires_on_both_verdicts(monkeypatch, rate):
    fam = enumerate_independent_sets(preset("cycle5"))
    solve = conflict_graph.solve_standard_lp

    def inflated(*args):
        x, basis = solve(*args)
        x = x.copy()
        x[0] += 0.1  # slack+ claims more than the duals allow
        return x, basis

    monkeypatch.setattr(conflict_graph, "solve_standard_lp", inflated)
    with pytest.raises(NumericFailure, match="fails its dual check"):
        is_strictly_admissible(fam, np.full(5, rate))
    assert main(["analyze", "cycle5", "--lambda", str(rate)]) == 3


def test_admissibility_lp_refuses_a_repeated_schedule(monkeypatch):
    # pricing that keeps offering the empty schedule, the master's first
    # column, at a positive reduced cost would add it again forever
    fam = enumerate_independent_sets(preset("cycle5"))
    monkeypatch.setattr(conflict_graph, "max_weight_independent_set",
                        lambda family, weights: (0, 1e9))
    with pytest.raises(NumericFailure, match="pricing repeated a master schedule"):
        is_strictly_admissible(fam, np.full(5, 0.3))


@st.composite
def rates_for(draw, fam):
    """Asymmetric, on-hull (slack exactly 0) or scaled rates; scaling past 1 leaves the region."""
    kind = draw(st.sampled_from(["asymmetric", "on-hull", "scaled"]))
    if kind == "asymmetric":
        return kind, np.array(draw(st.lists(
            st.floats(min_value=0, max_value=1.2, allow_nan=False),
            min_size=fam.n, max_size=fam.n)))
    schedules = fam.matrix
    if kind == "on-hull":
        # mixtures of the schedules that maximize w.sigma for some w >= 0, w != 0,
        # lie on the face w.x = max, so no uniform slack fits
        w = np.array(draw(st.lists(st.integers(min_value=0, max_value=3),
                                   min_size=fam.n, max_size=fam.n)))
        w[0] += not w.any()
        scores = schedules @ w
        schedules = schedules[scores == scores.max()]
    raw = np.array(draw(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                                 min_size=len(schedules), max_size=len(schedules))))
    if raw.sum() == 0:
        raw[-1] = 1.0
    mixture = (raw / raw.sum()) @ schedules
    if kind == "on-hull":
        return kind, mixture
    return kind, draw(st.floats(min_value=0.2, max_value=1.3)) * mixture


def linprog_slack(fam, rates):
    # oracle: max s subject to nu @ matrix >= rates + s, sum nu = 1, nu >= 0
    linprog = pytest.importorskip("scipy.optimize").linprog
    size = fam.size
    c = np.zeros(size + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-fam.matrix.T, np.ones((fam.n, 1))])
    A_eq = np.hstack([np.ones((1, size)), np.zeros((1, 1))])
    ref = linprog(c, A_ub=A_ub, b_ub=-rates, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * size + [(None, None)], method="highs")
    assert ref.status == 0
    return -ref.fun


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=10), st.data())
def test_slack_matches_linprog(g, data):
    fam = enumerate_independent_sets(g)
    kind, rates = data.draw(rates_for(fam))
    cert = is_strictly_admissible(fam, rates)
    # HiGHS works to its 1e-7 feasibility tolerance: it drops a rate of 6e-8
    assert cert.slack == pytest.approx(linprog_slack(fam, rates), abs=1e-7)
    if kind == "on-hull":
        assert abs(cert.slack) <= 1e-12 and not cert.admissible


def edge_list_file(tmp_path, name, n, edges):
    path = tmp_path / f"{name}.txt"
    path.write_text(f"{n}\n" + "".join(f"{i} {j}\n" for i, j in edges))
    return path


def cycle22_file(tmp_path):
    # 39 603 schedules; the region holds the uniform load 1/2 on its boundary
    return edge_list_file(tmp_path, "cycle22", 22, [(i, (i + 1) % 22) for i in range(22)])


def test_slack_on_an_even_cycle_past_the_old_pivot_cap(tmp_path):
    fam = enumerate_independent_sets(read_edge_list(cycle22_file(tmp_path)))
    for rate in (0.3, 0.45, 0.5):
        cert = is_strictly_admissible(fam, np.full(22, rate))
        assert cert.slack == pytest.approx(0.5 - rate, abs=1e-12)
        assert cert.admissible is (rate < 0.5)


FRONTIER_BUDGET = 20.0  # seconds; before column generation these took 64-113 s


@pytest.mark.parametrize("name, n, edges, sets, slack", [
    # the bipartite graphs hold the uniform load 1/2 on their boundary, the
    # edgeless one the load 1
    ("cycle22", 22, [(i, (i + 1) % 22) for i in range(22)], 39_603, 0.2),
    ("grid5x5", 25, conflict_graph._grid(5, 5), 55_447, 0.2),
    ("edgeless16", 16, [], FAMILY_CAP, 0.7),
], ids=["cycle22", "grid5x5", "edgeless16"])
def test_analyze_certifies_the_frontier_in_time(tmp_path, capsys, name, n, edges, sets, slack):
    path = edge_list_file(tmp_path, name, n, edges)
    t0 = time.perf_counter()
    assert main(["analyze", str(path), "--lambda", "0.3"]) == 0
    elapsed = time.perf_counter() - t0
    report = strict_json(capsys.readouterr().out)
    assert report["admissibility"]["admissible"] is True
    assert report["admissibility"]["slack"] == pytest.approx(slack, abs=1e-12)
    assert report["independent_set_count"] == sets
    assert elapsed < FRONTIER_BUDGET, f"{name} took {elapsed:.1f}s"


def test_analyze_refuses_a_sparse_graph_past_the_family_cap_in_time(tmp_path, capsys):
    path = edge_list_file(tmp_path, "edgeless25", 25, [])  # 2^25 independent sets
    t0 = time.perf_counter()
    assert main(["analyze", str(path)]) == 2
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert captured.out == "" and "family cap" in captured.err
    assert elapsed < FRONTIER_BUDGET, f"the refusal took {elapsed:.1f}s"


def test_slack_on_an_edgeless_graph_is_one_minus_the_top_rate():
    fam = enumerate_independent_sets(ConflictGraph.from_edges(16, []))  # 65 536 schedules
    assert fam.size == 1 << 16
    for rates in (np.full(16, 0.3), 0.3 + 0.02 * np.arange(16)):
        cert = is_strictly_admissible(fam, rates)
        assert cert.slack == pytest.approx(1.0 - rates.max(), abs=1e-12)
        assert cert.weights @ fam.matrix == pytest.approx(rates, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_n=8), st.integers(0, 14), st.data())
def test_slack_past_a_top_rate_of_1_matches_linprog(g, exponent, data):
    # no schedule serves a node above 1, so these rates are inadmissible at
    # every scale; linprog solves them unshifted (HiGHS reads 1e20 as infinite)
    fam = enumerate_independent_sets(g)
    rates = 10.0 ** exponent * np.array(data.draw(st.lists(
        st.floats(min_value=0, max_value=10), min_size=fam.n, max_size=fam.n)))
    assume(rates.max() > 1.0)
    cert = is_strictly_admissible(fam, rates)
    assert not cert.admissible and cert.weights is None
    assert cert.slack == pytest.approx(linprog_slack(fam, rates), rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("rates, slack", [
    ([0.1, 0.2, 0.3, 0.4, 5e3], -4999.0),  # node 4 alone is served at 1
    ([2.0] * 5, -1.6),  # the uniform load 2/5 is the largest cycle5 serves
    ([1e12] * 5, 0.4 - 1e12),
    ([1e20] * 5, -1e20),
    ([1e154] * 5, -1e154),
], ids=["one-node-at-5e3", "2", "1e12", "1e20", "1e154"])
def test_slack_past_a_top_rate_of_1_at_any_scale(rates, slack):
    cert = is_strictly_admissible(enumerate_independent_sets(preset("cycle5")), rates)
    assert not cert.admissible and cert.weights is None
    # the LP at a top rate of 1 errs by ~1e-16, and the shift adds one rounding
    assert cert.slack == pytest.approx(slack, rel=0, abs=1e-15 + np.spacing(-slack))


def test_norm_bound_formula():
    # the fit's a priori bound, log(#schedules) / min(slack, least rate)
    fam = enumerate_independent_sets(preset("single"))
    assert solve_backoff(fam, [0.5]).norm_bound == pytest.approx(math.log(2) / 0.5, abs=1e-12)
    # min positive rate below the slack takes over
    fam2 = enumerate_independent_sets(preset("clique2"))
    bound2 = solve_backoff(fam2, [0.05, 1 / 3]).norm_bound
    assert bound2 == pytest.approx(math.log(3) / 0.05, abs=1e-9)
    # a masked node leaves the single node's two schedules and slack 0.7
    masked = solve_backoff(fam2, [0.3, 0.0]).norm_bound
    assert masked == pytest.approx(math.log(2) / 0.3, abs=1e-12)
    with pytest.raises(InfeasibleRates):
        solve_backoff(fam2, [0.6, 0.6])
