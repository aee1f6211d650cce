"""Conflict graphs, schedule enumeration, and capacity-region queries.

Nodes are integers 0..n-1; a schedule is a bitmask over nodes.  A schedule is
feasible when no two set bits are joined by a conflict edge, so the feasible
schedules are exactly the independent sets of the graph.  The capacity region
is the convex hull of those masks viewed as 0/1 vectors; membership queries
price schedules into a small in-repo simplex rather than call an external
solver.
"""
from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ExactModeUnavailable, NumericFailure
from .simplex import _PIVOT_TOL, solve_standard_lp

EXACT_MODE_CAP = 30
FAMILY_CAP = 1 << 16  # independent sets; enumeration reaches it in well under a second
MAX_NODES = 10_000  # 25x cycle400; n-bit neighbour masks hold O(n^2) bits, < 13 MB
STRICT_TOL = 1e-9  # LP slack that counts as strictly inside the region
CERTIFICATE_TOL = 1e-9  # how far a decomposition or the dual bound may miss its target


class ConflictGraph(NamedTuple):
    """Undirected conflict graph; an edge forbids simultaneous transmission."""

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbor_masks: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "ConflictGraph":
        if not 1 <= n <= MAX_NODES:
            raise ValueError(f"graph needs 1 to {MAX_NODES} nodes, got n={n}")
        normalized = set()
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            normalized.add((min(i, j), max(i, j)))
        masks = [0] * n
        for i, j in normalized:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return cls(n=n, edges=tuple(sorted(normalized)), neighbor_masks=tuple(masks))

    def is_independent(self, mask: int) -> bool:
        if mask < 0 or mask >> self.n:
            raise ValueError(f"mask {mask} out of range for n={self.n}")
        rest = mask
        while rest:
            bit = rest & -rest
            if self.neighbor_masks[bit.bit_length() - 1] & mask:
                return False
            rest ^= bit
        return True


def schedule_nodes(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of a schedule mask, ascending."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(out)


def induced_subgraph(graph: ConflictGraph, keep: Sequence[int]) -> ConflictGraph:
    """Subgraph on `keep` (ascending), nodes relabeled 0..len(keep)-1."""
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("induced subgraph needs at least one node")
    relabel = {v: k for k, v in enumerate(keep)}
    edges = [(relabel[i], relabel[j]) for i, j in graph.edges
             if i in relabel and j in relabel]
    return ConflictGraph.from_edges(len(keep), edges)


# ---------------------------------------------------------------------------
# presets and the edge-list file format

def _path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _grid(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return edges


PRESETS: Mapping[str, tuple[str, int, tuple[tuple[int, int], ...]]] = {
    "single": ("one node, no conflicts", 1, ()),
    "clique2": ("two mutually conflicting nodes", 2, ((0, 1),)),
    "path3": ("three nodes in a line", 3, tuple(_path(3))),
    "cycle5": ("five nodes in a ring", 5, tuple((i, (i + 1) % 5) for i in range(5))),
    "grid3x3": ("3x3 lattice, 4-neighbor conflicts", 9, tuple(_grid(3, 3))),
}


def preset(name: str) -> ConflictGraph:
    try:
        _, n, edges = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}") from None
    return ConflictGraph.from_edges(n, edges)


def parse_edge_list(text: str) -> ConflictGraph:
    """Parse the plain edge-list format: first line n, then one 'i j' per line.

    Blank lines and '#' comments are tolerated.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the node count, got {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'i j' pair, got {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return ConflictGraph.from_edges(n, edges)


def read_edge_list(path) -> ConflictGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


# ---------------------------------------------------------------------------
# feasible-schedule family

class IndependentSetFamily(NamedTuple):
    """All feasible schedules of a graph, sorted ascending by mask.

    `masks` is a read-only int64 array, and a schedule's position in it is
    its row everywhere: in `matrix`, the (size, n) 0/1 membership matrix
    that every vectorized expectation downstream reads, in the laws and
    weights over schedules, and in the clock table.  np.searchsorted finds
    the row of a mask.
    """

    graph: ConflictGraph
    masks: np.ndarray
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def n(self) -> int:
        return self.graph.n


def enumerate_independent_sets(graph: ConflictGraph) -> IndependentSetFamily:
    """Enumerate every independent set by doubling, one node at a time.

    The sets on nodes 0..i are those on nodes 0..i-1 plus each of them that
    misses node i's neighbors with node i added.  Each added mask exceeds
    every earlier one, so the masks come out sorted.  Refuses a graph past
    EXACT_MODE_CAP nodes up front, and one with more than FAMILY_CAP sets as
    soon as the count passes it (at most 2 * FAMILY_CAP masks are ever held),
    so a sparse graph fails fast instead of exhausting memory.  `csmasim run`
    calls this once per command, through ExperimentConfig, and hands the
    family (or the refusal) to the engine and the run summary.
    """
    if graph.n > EXACT_MODE_CAP:
        raise ExactModeUnavailable(
            f"exact mode unavailable: n={graph.n} exceeds the exact-mode cap {EXACT_MODE_CAP}")
    # n <= EXACT_MODE_CAP bits fit in int64; bit i of each mask is column i
    nbr = np.array(graph.neighbor_masks, dtype=np.int64)
    masks = np.zeros(1, dtype=np.int64)
    for i in range(graph.n):
        masks = np.append(masks, masks[(masks & nbr[i]) == 0] | 1 << i)
        if masks.size > FAMILY_CAP:
            raise ExactModeUnavailable(
                f"exact mode unavailable: the graph has more than {FAMILY_CAP} "
                "independent sets (the family cap)")
    matrix = ((masks[:, None] >> np.arange(graph.n)) & 1).astype(float)
    masks.setflags(write=False)
    matrix.setflags(write=False)
    return IndependentSetFamily(graph=graph, masks=masks, matrix=matrix)


def max_weight_independent_set(family: IndependentSetFamily,
                               weights) -> tuple[int, float]:
    """Row and weight of a max-weight schedule; ties go to the smallest mask."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (family.n,):
        raise ValueError(f"weights must have shape ({family.n},)")
    scores = family.matrix @ weights
    row = int(np.argmax(scores))  # first maximum == smallest mask (sorted family)
    return row, float(scores[row])


# ---------------------------------------------------------------------------
# capacity-region membership

class AdmissibilityCertificate(NamedTuple):
    """Outcome of the strict-admissibility LP.

    `slack` is the largest s with  rates + s  still dominated by a convex
    combination of schedules; admissible means slack > 0.  When admissible,
    `weights` decomposes rates exactly:
    weights @ family.matrix == rates, weights >= 0, sum == 1.
    """

    admissible: bool
    slack: float
    weights: np.ndarray | None


def is_strictly_admissible(family: IndependentSetFamily, rates) -> AdmissibilityCertificate:
    """LP membership test: are the rates strictly inside the capacity region?

    Maximizes the uniform slack s subject to
        sum_sigma nu_sigma * sigma >= rates + s,  sum nu = 1, nu >= 0
    by column generation (Dantzig-Wolfe): the master LP holds the schedules
    priced in so far, from the empty one on, and each round adds the
    max-weight schedule under its row duals until none has a positive reduced
    cost, so at most family.size rounds run.  A top rate above 1 is
    inadmissible outright, and its slack is solved at a top rate of 1 and
    shifted back.  NumericFailure is raised when pricing repeats a schedule,
    when the final duals' weak-duality bound misses the slack by more than
    CERTIFICATE_TOL, and when the exact decomposition of the rates fails its
    check.
    """
    rates = np.asarray(rates, dtype=float)
    n, size = family.n, family.size
    if rates.shape != (n,):
        raise ValueError(f"rates must have shape ({n},)")
    if not np.all(np.isfinite(rates)) or np.any(rates < 0):
        raise ValueError("rates must be finite and nonnegative")
    shift = float(rates.max()) - 1.0
    if shift > 0.0:
        # No schedule serves a node above 1, so the slack is <= -shift.  Lowering
        # every rate by `shift` raises the slack by exactly `shift`, and a rate
        # clamped at 0 cannot bind at a slack <= 0; the LP then runs at the
        # scale of 1, where the simplex's absolute tolerances hold.
        lowered = is_strictly_admissible(family, np.maximum(rates - shift, 0.0))
        return AdmissibilityCertificate(False, lowered.slack - shift, None)

    # columns: slack+, slack-, surplus (n), then the priced schedules in order
    fixed = np.zeros((n + 1, n + 2))
    fixed[:n, :2] = -1.0, 1.0
    fixed[:n, 2:] = -np.eye(n)
    bvec = np.append(rates, 1.0)
    rows = [0]  # family row 0 is the empty schedule
    # slack- at the top rate, the other surpluses take up the difference
    top = int(np.argmax(rates))
    basis = [1] + [2 + i for i in range(n) if i != top] + [n + 2]
    while True:
        A = np.hstack([fixed, np.vstack([family.matrix[rows].T, np.ones(len(rows))])])
        cost = np.zeros(A.shape[1])
        cost[:2] = 1.0, -1.0
        x, basis = solve_standard_lp(cost, A, bvec, basis)
        y = np.linalg.solve(A[:, basis].T, cost[basis])
        row, value = max_weight_independent_set(family, -y[:n])
        if value - y[n] <= _PIVOT_TOL:
            break
        if row in rows:
            raise NumericFailure("admissibility LP: pricing repeated a master schedule")
        rows.append(row)
    slack = float(x[0] - x[1])
    # weak duality: node prices w >= 0 summing to 1 bound the full LP's slack
    w = -y[:n]
    bound = value - float(w @ rates)
    if not (w.min() >= -CERTIFICATE_TOL and abs(w.sum() - 1.0) <= CERTIFICATE_TOL
            and abs(bound - slack) <= CERTIFICATE_TOL):
        raise NumericFailure(f"admissibility LP fails its dual check: slack {slack!r}, "
                             f"dual bound {bound!r}")
    admissible = slack > STRICT_TOL
    if not admissible:
        return AdmissibilityCertificate(False, slack, None)

    # Shave the dominating mixture down to an exact decomposition of the rates:
    # moving weight from a schedule to that schedule minus node i lowers
    # coordinate i alone, and the family is closed under subsets.
    nu = np.zeros(size)
    nu[rows] = np.maximum(x[n + 2:], 0.0)
    nu /= nu.sum()
    achieved = nu @ family.matrix
    for i in range(n):
        excess = achieved[i] - rates[i]
        if excess <= 0.0:
            continue
        bit = 1 << i
        for pos in np.flatnonzero((family.matrix[:, i] > 0.0) & (nu > 0.0)):
            take = min(nu[pos], excess)
            nu[pos] -= take
            nu[np.searchsorted(family.masks, family.masks[pos] ^ bit)] += take
            excess -= take
            if excess <= 0.0:
                break
    # Check the decomposition itself rather than trust the solver that made it.
    residual = float(np.abs(nu @ family.matrix - rates).max())
    if not (np.all(nu >= 0.0) and abs(nu.sum() - 1.0) <= CERTIFICATE_TOL
            and residual <= CERTIFICATE_TOL):
        raise NumericFailure(f"admissibility certificate fails its check: weights sum "
                             f"to {float(nu.sum())!r}, residual {residual:.3g}")
    nu.setflags(write=False)
    return AdmissibilityCertificate(True, slack, nu)
