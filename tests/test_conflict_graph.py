"""Graph construction, schedule enumeration, and capacity-region membership.

The enumeration oracle used throughout is the dumb one: filter all 2^n subsets
with a pairwise edge check.  Everything faster must agree with it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from csmasim import conflict_graph
from csmasim.cli import main
from csmasim.conflict_graph import (
    ConflictGraph,
    PRESETS,
    backoff_norm_bound,
    enumerate_independent_sets,
    induced_subgraph,
    is_strictly_admissible,
    max_weight_independent_set,
    parse_edge_list,
    preset,
    read_edge_list,
    schedule_nodes,
)
from csmasim.errors import ExactModeUnavailable, NumericFailure


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
    assert list(fam.masks) == brute_force_masks(g.n, g.edges)
    for row, mask in enumerate(fam.masks):
        assert g.is_independent(mask)
        assert fam.position(mask) == row
        assert [int(v) for v in fam.matrix[row]] == [mask >> i & 1 for i in range(g.n)]


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
    assert list(fam.masks) == brute_force_masks(grid.n, grid.edges)


def test_enumeration_cap():
    with pytest.raises(ExactModeUnavailable):
        enumerate_independent_sets(ConflictGraph.from_edges(31, []))


def test_induced_subgraph_relabels():
    g = preset("cycle5")
    sub = induced_subgraph(g, [0, 2, 3])
    assert sub.n == 3
    assert sub.edges == ((1, 2),)  # only the 2-3 edge survives


# -- max-weight oracle -------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(small_graphs(max_n=7), st.data())
def test_max_weight_matches_brute_force(g, data):
    w = np.array(data.draw(st.lists(
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        min_size=g.n, max_size=g.n)))
    fam = enumerate_independent_sets(g)
    mask, value = max_weight_independent_set(fam, w)
    best = max(sum(w[i] for i in schedule_nodes(m)) for m in fam.masks)
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


def test_margin_shrinks_slack():
    fam = enumerate_independent_sets(preset("single"))
    cert = is_strictly_admissible(fam, [0.5], margin=0.3)
    assert cert.slack == pytest.approx(0.2, abs=1e-9)
    with pytest.raises(ValueError):
        is_strictly_admissible(fam, [0.5], margin=-0.1)
    with pytest.raises(ValueError):
        is_strictly_admissible(fam, [-0.5])


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
        x, slack = solve(*args)
        x = x.copy()
        x[:fam.size] = 0.0  # the slack still claims strict admissibility
        if weights == "empty-schedule":
            x[0] = 1.0
        return x, slack

    monkeypatch.setattr(conflict_graph, "solve_standard_lp", perturbed)
    with pytest.raises(NumericFailure, match="certificate fails its check"):
        is_strictly_admissible(fam, np.full(5, 0.3))
    assert main(["analyze", "cycle5", "--lambda", "0.3"]) == 3


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=6), st.data())
def test_slack_matches_linprog(g, data):
    fam = enumerate_independent_sets(g)
    rates = np.array(data.draw(st.lists(
        st.floats(min_value=0, max_value=0.9, allow_nan=False),
        min_size=g.n, max_size=g.n)))
    cert = is_strictly_admissible(fam, rates)
    # oracle: max s subject to nu @ matrix >= rates + s, sum nu = 1, nu >= 0
    size = fam.size
    c = np.zeros(size + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-fam.matrix.T, np.ones((g.n, 1))])
    A_eq = np.hstack([np.ones((1, size)), np.zeros((1, 1))])
    ref = linprog(c, A_ub=A_ub, b_ub=-rates, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * size + [(None, None)], method="highs")
    assert ref.status == 0
    assert cert.slack == pytest.approx(-ref.fun, abs=1e-7)


def test_norm_bound_formula():
    fam = enumerate_independent_sets(preset("single"))
    cert = is_strictly_admissible(fam, [0.5])
    bound = backoff_norm_bound(fam, [0.5], cert)
    assert bound == pytest.approx(math.log(2) / 0.5, abs=1e-12)
    # min positive rate below the slack takes over
    fam2 = enumerate_independent_sets(preset("clique2"))
    cert2 = is_strictly_admissible(fam2, [0.05, 1 / 3])
    bound2 = backoff_norm_bound(fam2, [0.05, 1 / 3], cert2)
    assert bound2 == pytest.approx(math.log(3) / 0.05, abs=1e-9)
    infeasible = is_strictly_admissible(fam2, [0.6, 0.6])
    assert backoff_norm_bound(fam2, [0.6, 0.6], infeasible) == math.inf
