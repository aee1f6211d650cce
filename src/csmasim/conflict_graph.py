"""Conflict graphs, schedule enumeration, and capacity-region queries.

Nodes are integers 0..n-1; a schedule is a bitmask over nodes.  A schedule is
feasible when no two set bits are joined by a conflict edge, so the feasible
schedules are exactly the independent sets of the graph.  The capacity region
is the convex hull of those masks viewed as 0/1 vectors; membership queries
run a small in-repo simplex rather than an external solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ExactModeUnavailable, NumericFailure
from .simplex import solve_standard_lp

EXACT_MODE_CAP = 30
STRICT_TOL = 1e-9  # LP slack that counts as strictly inside the region
CERTIFICATE_TOL = 1e-9  # how far a decomposition may miss sum 1 and its target


@dataclass(frozen=True)
class ConflictGraph:
    """Undirected conflict graph; an edge forbids simultaneous transmission."""

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbor_masks: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "ConflictGraph":
        if n < 1:
            raise ValueError(f"graph needs at least one node, got n={n}")
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

@dataclass(frozen=True)
class IndependentSetFamily:
    """All feasible schedules of a graph, sorted ascending by mask.

    `matrix` is the (size, n) 0/1 membership matrix aligned with `masks`;
    it is the workhorse for every vectorized expectation downstream.
    """

    graph: ConflictGraph
    masks: tuple[int, ...]
    matrix: np.ndarray
    index: Mapping[int, int]

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def n(self) -> int:
        return self.graph.n

    def position(self, mask: int) -> int:
        return self.index[mask]


def enumerate_independent_sets(graph: ConflictGraph) -> IndependentSetFamily:
    """Enumerate every independent set by backtracking.

    Nodes are added in increasing index so each set is produced exactly once.
    """
    if graph.n > EXACT_MODE_CAP:
        raise ExactModeUnavailable(
            f"exact mode unavailable: n={graph.n} exceeds the exact-mode cap {EXACT_MODE_CAP}")
    nbr = graph.neighbor_masks
    found: list[int] = []

    def extend(mask: int, candidates: int) -> None:
        found.append(mask)
        rest = candidates
        while rest:
            bit = rest & -rest
            rest ^= bit  # rest now holds only larger indices
            extend(mask | bit, rest & ~nbr[bit.bit_length() - 1])

    extend(0, (1 << graph.n) - 1)
    found.sort()
    matrix = np.zeros((len(found), graph.n), dtype=float)
    for row, mask in enumerate(found):
        for i in schedule_nodes(mask):
            matrix[row, i] = 1.0
    matrix.setflags(write=False)
    return IndependentSetFamily(
        graph=graph,
        masks=tuple(found),
        matrix=matrix,
        index={mask: row for row, mask in enumerate(found)},
    )


def max_weight_independent_set(family: IndependentSetFamily,
                               weights) -> tuple[int, float]:
    """Max-weight schedule; ties resolved toward the smallest mask."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (family.n,):
        raise ValueError(f"weights must have shape ({family.n},)")
    scores = family.matrix @ weights
    pos = int(np.argmax(scores))  # first maximum == smallest mask (sorted family)
    return family.masks[pos], float(scores[pos])


# ---------------------------------------------------------------------------
# capacity-region membership

@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Outcome of the strict-admissibility LP.

    `slack` is the largest s with  rates + margin + s  still dominated by a
    convex combination of schedules; admissible means slack > 0.  When
    admissible, `weights` decomposes rates + margin exactly:
    weights @ family.matrix == rates + margin, weights >= 0, sum == 1.
    """

    admissible: bool
    slack: float
    margin: float
    weights: np.ndarray | None


def is_strictly_admissible(family: IndependentSetFamily, rates,
                           margin: float = 0.0) -> AdmissibilityCertificate:
    """LP membership test: is rates + margin strictly inside the capacity region?

    Maximizes the uniform slack s subject to
        sum_sigma nu_sigma * sigma >= rates + margin + s,  sum nu = 1, nu >= 0.
    The returned weights decompose rates + margin exactly; NumericFailure is
    raised when one is negative, or their sum misses 1 or their mixture
    misses rates + margin by more than CERTIFICATE_TOL.
    """
    rates = np.asarray(rates, dtype=float)
    n, size = family.n, family.size
    if rates.shape != (n,):
        raise ValueError(f"rates must have shape ({n},)")
    if not np.all(np.isfinite(rates)) or np.any(rates < 0):
        raise ValueError("rates must be finite and nonnegative")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    target = rates + margin

    # columns: nu (size), slack+ , slack-, surplus (n)
    ncols = size + 2 + n
    A = np.zeros((n + 1, ncols))
    bvec = np.zeros(n + 1)
    A[:n, :size] = family.matrix.T
    A[:n, size] = -1.0
    A[:n, size + 1] = 1.0
    A[:n, size + 2:] = -np.eye(n)
    bvec[:n] = target
    A[n, :size] = 1.0
    bvec[n] = 1.0
    cost = np.zeros(ncols)
    cost[size] = 1.0
    cost[size + 1] = -1.0

    x, slack = solve_standard_lp(cost, A, bvec)
    admissible = slack > STRICT_TOL
    if not admissible:
        return AdmissibilityCertificate(False, slack, margin, None)

    # Shave the dominating mixture down to an exact decomposition of target:
    # moving weight from a schedule to that schedule minus node i lowers
    # coordinate i alone, and the family is closed under subsets.
    nu = np.maximum(x[:size], 0.0)
    nu /= nu.sum()
    achieved = nu @ family.matrix
    for i in range(n):
        excess = achieved[i] - target[i]
        if excess <= 0.0:
            continue
        bit = 1 << i
        for pos in np.flatnonzero(family.matrix[:, i]):
            take = min(nu[pos], excess)
            if take <= 0.0:
                continue
            nu[pos] -= take
            nu[family.index[family.masks[pos] ^ bit]] += take
            excess -= take
            if excess <= 0.0:
                break
    # Check the decomposition itself rather than trust the solver that made it.
    residual = float(np.abs(nu @ family.matrix - target).max())
    if not (np.all(nu >= 0.0) and abs(nu.sum() - 1.0) <= CERTIFICATE_TOL
            and residual <= CERTIFICATE_TOL):
        raise NumericFailure(f"admissibility certificate fails its check: weights sum "
                             f"to {float(nu.sum())!r}, residual {residual:.3g}")
    nu.setflags(write=False)
    return AdmissibilityCertificate(True, slack, margin, nu)


def backoff_norm_bound(family: IndependentSetFamily, rates,
                       certificate: AdmissibilityCertificate) -> float:
    """A-priori sup-norm bound on the fitted backoff vector for `rates`.

    log(#schedules) / min(slack, min positive rate); infinite when the
    certificate carries no positive slack.
    """
    rates = np.asarray(rates, dtype=float)
    if not certificate.admissible or certificate.slack <= 0:
        return math.inf
    positive = rates[rates > 0]
    floor = min(certificate.slack, float(positive.min())) if positive.size else certificate.slack
    return math.log(family.size) / floor
