"""Event-driven CSMA chain simulation and exact chain diagnostics.

The continuous-time chain lives on feasible schedules: a transmitting node
stops at rate 1; a silent node whose neighbors are all silent starts at rate
exp(r_i); a blocked node's clock rate is 0.  `simulate` samples the exact
chain by Gillespie's direct method: the wait to the next event is
exponential with the total rate, and the toggled node is drawn in proportion
to its rate by a search of the running sums.  It has two ways to find the
sums, and both give the same bits, so a (config, seed) gives the same run
either way:

* Per-node clocks (the default, and the only way past exact mode): keep one
  rate per node, re-add them after each event, and update only the toggled
  node and its neighbors.
* A clock table (`clock_table`) of an enumerated family, whose rows are the
  family's rows: each epoch fills the (schedule, node) rate matrix at the
  current drive and takes its running sums along the node axis (np.cumsum
  adds in the order itertools.accumulate does); each event then reads its
  schedule's row and jumps to a precomputed toggle target.  The walk finds
  its first row with one search of `family.masks`.  Filling the table costs
  O(|I| n) per epoch, so `csmasim run` uses it only for families of at
  most TABLE_STATES schedules, where it is faster.

Both draw the same (wait, pick) pairs from `_clock_draws`, which hands out
blocks of 1 024 waits and 1 024 picks; each walk loops over a block inline
and takes a draw only while some clock runs.  Both stop at the same
t >= duration or at a total rate of 0, and record each event as its
(time, node) pair: every event flips one node, so the start schedule and
those pairs fix the path.

The discrete single-site kernel is that chain uniformized at rate 2R, with
R = sum_k max(exp(r_k), 1):  P = I + G / (2R), G the generator from
`ctmc_generator`, which scatters the clock table; the table is the one place
the transitions are encoded.  Per tick this picks node i with probability
max(exp(r_i), 1) / R and flips it with HALF the clock-consistent probability
(down: min(exp(-r_i), 1)/2; up, if unblocked: min(exp(r_i), 1)/2), staying
put otherwise.  Every diagonal entry is at least 1/2, which keeps the kernel
aperiodic with a nonnegative spectrum while preserving reversibility w.r.t.
the product-form law.
"""
from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

import numpy as np

from .conflict_graph import ConflictGraph, IndependentSetFamily, schedule_nodes
from .errors import ExactModeUnavailable, InvariantViolation, NumericFailure
from .gibbs import stationary_distribution

CONDUCTANCE_STATE_CAP = 20
# Largest family whose runs walk the clock table.  Each epoch fills the whole
# table and lists each row it visits, which the cheaper events repay on small
# families only.  Per epoch at drive 0 and epoch length 50, against per-node
# clocks: 0.58x the time on cycle5, 0.79x on grid4x4 (1 234 sets), 1.00x on an
# edgeless 11-node graph (2 048 sets), 1.21x at 4 096 sets, 5.7x at 65 536.
TABLE_STATES = 2048
DRIVE_LIMIT = 700.0  # exp(r) stays finite and well scaled below this
# 1 - lambda must exceed GAP_ROUNDING * N * eps to be resolved.  The symmetrized
# kernel S is nonnegative with norm 1, so the <= 4 roundings in each entry move
# an eigenvalue by <= 4 eps; eigvalsh is exact for some S + E with |E| <= p(N) eps,
# p(N) a modest function of N in LAPACK's analysis.  With p(N) = N, (4 + N) eps
# <= 4 N eps for every family (N >= 2).
GAP_ROUNDING = 4.0


def _clock_draws(rng: np.random.Generator):
    """Yield blocks of 1 024 unit exponential waits and 1 024 uniform picks.

    Each block is a memoryview of the float64 array, whose items are Python
    floats made as a walk reaches them, not all 1 024 up front.
    """
    while True:
        yield memoryview(rng.standard_exponential(1024)), memoryview(rng.random(1024))


class ClockTable(NamedTuple):
    """Every clock of the chain; row s is schedule `family.masks[s]`.

    `toggles[s, i]` is the row reached from schedule s by flipping node i, and
    -1 where that flip is infeasible (a silent node with a busy neighbor).
    `rate_codes[s, i]` picks node i's clock rate in row s from exp(r) followed
    by (1, 0): node i's own start rate when it may start, 1 when it
    transmits, 0 when it is blocked.
    """

    family: IndependentSetFamily
    toggles: np.ndarray     # (S, n) row index or -1
    rate_codes: np.ndarray  # (S, n) index into exp(r) + (1, 0)
    jumps: list[list[int]]  # toggles as lists, for the per-event walk

    def clock_rates(self, r: np.ndarray) -> np.ndarray:
        """(S, n) clock rates at drive r."""
        with np.errstate(over="raise"):
            values = np.append(np.exp(r), (1.0, 0.0))  # exp(-inf) = 0: never starts
        return values[self.rate_codes]


def clock_table(family: IndependentSetFamily) -> ClockTable:
    """Tabulate the family's transitions by a search over its sorted masks."""
    n, masks = family.n, family.masks
    flipped = masks[:, None] ^ (np.int64(1) << np.arange(n, dtype=np.int64))
    rows = np.minimum(np.searchsorted(masks, flipped), masks.size - 1)
    toggles = np.where(masks[rows] == flipped, rows, -1)
    rate_codes = np.where(toggles < 0, n + 1,
                          np.where(family.matrix > 0, n, np.arange(n)))
    return ClockTable(family=family, toggles=toggles,
                      rate_codes=rate_codes, jumps=toggles.tolist())


class Trajectory(NamedTuple):
    """Schedule path over [0, duration): each event flips its node (start or end)."""

    graph: ConflictGraph
    initial_mask: int
    duration: float
    times: np.ndarray  # event times, strictly increasing, in (0, duration)
    nodes: np.ndarray  # toggled node per event
    final_mask: int

    @property
    def n(self) -> int:
        return self.graph.n


def simulate(graph: ConflictGraph, r, duration: float, *,
             initial_mask: int = 0, rng: np.random.Generator,
             table: ClockTable | None = None) -> Trajectory:
    """Sample the chain over [0, duration) starting from `initial_mask`.

    Entries of r may be -inf (node never transmits).  Deterministic given the
    generator state, and the same with or without a `table` of the graph's
    family (see the module docstring).
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (graph.n,):
        raise ValueError(f"backoff vector must have shape ({graph.n},)")
    if not np.maximum.reduce(r) <= DRIVE_LIMIT:  # NaN fails it too
        if np.any(np.isnan(r)) or np.any(r == math.inf):
            raise ValueError("backoff entries must be < +inf and not NaN")
        raise ValueError(f"backoff entries above {DRIVE_LIMIT:g} overflow the clock rate")
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    if not graph.is_independent(initial_mask):
        raise ValueError(f"initial mask {initial_mask:#x} is not a feasible schedule")
    if table is not None and table.family.graph != graph:
        raise ValueError("the clock table was built for another graph")

    draws = _clock_draws(rng)
    if table is None:
        times, nodes, final_mask = _walk_clocks(graph, r, duration, initial_mask, draws)
    else:
        times, nodes, final_mask = _walk_table(table, r, duration, initial_mask, draws)
    return Trajectory(
        graph=graph,
        initial_mask=initial_mask,
        duration=float(duration),
        times=np.asarray(times, dtype=float),
        nodes=np.asarray(nodes, dtype=np.int64),
        final_mask=final_mask,
    )


def _walk_clocks(graph: ConflictGraph, r: np.ndarray, duration: float,
                 mask: int, draws):
    """Direct method over per-node clocks, updated around each toggled node."""
    with np.errstate(over="raise"):
        start_rate = np.exp(r).tolist()  # exp(-inf) = 0: that node never starts
    nbr_masks = graph.neighbor_masks
    nbr_lists = [schedule_nodes(m) for m in nbr_masks]

    def clock(i: int) -> float:
        if mask >> i & 1:
            return 1.0
        return 0.0 if mask & nbr_masks[i] else start_rate[i]

    rate = [clock(i) for i in range(graph.n)]
    cum = list(itertools.accumulate(rate))
    total = cum[-1]
    t = 0.0
    ev_times: list[float] = []
    ev_nodes: list[int] = []
    if total == 0.0:
        return ev_times, ev_nodes, mask  # absorbing: nothing transmitting, all clocks silent
    for waits, picks in draws:
        for wait, pick in zip(waits, picks):
            t += wait / total
            if t >= duration:
                return ev_times, ev_nodes, mask
            # pick * total < total, and a zero rate repeats the sum before it,
            # so the search lands on a node whose clock is running
            node = bisect.bisect_right(cum, pick * total)
            if not mask >> node & 1 and mask & nbr_masks[node]:
                raise InvariantViolation(f"node {node} started against a busy neighbor")
            mask ^= 1 << node
            # only the toggled node and its neighbors (all silent now) change clock
            rate[node] = clock(node)
            for j in nbr_lists[node]:
                rate[j] = clock(j)
            ev_times.append(t)
            ev_nodes.append(node)
            cum = list(itertools.accumulate(rate))
            total = cum[-1]
            if total == 0.0:
                return ev_times, ev_nodes, mask


def _walk_table(table: ClockTable, r: np.ndarray, duration: float,
                initial_mask: int, draws):
    """The same direct method, reading each schedule's running sums from a table.

    np.cumsum adds along a row in the order itertools.accumulate does, so the
    sums, and with them every wait and pick, are the incremental walk's bits.
    """
    cum = np.cumsum(table.clock_rates(r), axis=1)
    clocks = [None] * len(cum)  # (sums, total, targets) per row, built on first visit

    def visit(row: int):
        sums = cum[row].tolist()
        clocks[row] = entry = (sums, sums[-1], table.jumps[row])
        return entry

    masks = table.family.masks
    row = int(np.searchsorted(masks, initial_mask))
    sums, total, targets = visit(row)
    t = 0.0
    ev_times: list[float] = []
    ev_nodes: list[int] = []
    if total == 0.0:
        return ev_times, ev_nodes, initial_mask
    for waits, picks in draws:
        for wait, pick in zip(waits, picks):
            t += wait / total
            if t >= duration:
                return ev_times, ev_nodes, int(masks[row])
            node = bisect.bisect_right(sums, pick * total)
            row = targets[node]
            if row < 0:
                raise InvariantViolation(f"node {node} started against a busy neighbor")
            ev_times.append(t)
            ev_nodes.append(node)
            sums, total, targets = clocks[row] or visit(row)
            if total == 0.0:
                return ev_times, ev_nodes, int(masks[row])


# ---------------------------------------------------------------------------
# discrete kernel, generator, and spectral diagnostics

class GlauberKernel(NamedTuple):
    """Half-lazy single-site kernel I + G/(2R) (see the module docstring)."""

    matrix: np.ndarray
    total_rate: float  # R = sum_k max(exp(r_k), 1); the chain's clock budget


def glauber_kernel(family: IndependentSetFamily, r) -> GlauberKernel:
    r = np.asarray(r, dtype=float)
    if r.shape != (family.n,):
        raise ValueError(f"backoff vector must have shape ({family.n},)")
    if not np.all(np.isfinite(r)) or np.any(r > DRIVE_LIMIT):
        raise ValueError(f"kernel construction needs finite backoff entries <= {DRIVE_LIMIT:g}")
    total = float(np.array([max(math.exp(v), 1.0) for v in r]).sum())
    P = np.eye(family.size) + ctmc_generator(family, r) / (2.0 * total)
    P.setflags(write=False)
    return GlauberKernel(matrix=P, total_rate=total)


def ctmc_generator(family: IndependentSetFamily, r) -> np.ndarray:
    """Continuous-time generator: the clock table's rates scattered by row."""
    table = clock_table(family)
    rows, nodes = np.nonzero(table.toggles >= 0)
    gen = np.zeros((family.size, family.size))
    gen[rows, table.toggles[rows, nodes]] = table.clock_rates(
        np.asarray(r, dtype=float))[rows, nodes]
    np.fill_diagonal(gen, -gen.sum(axis=1))
    return gen


def second_eigenvalue_modulus(kernel: GlauberKernel, probs: np.ndarray) -> float:
    """Second-largest eigenvalue modulus of the kernel, reversible w.r.t. probs."""
    d = np.sqrt(probs)
    sym = kernel.matrix * d[:, None] / d[None, :]
    vals = np.linalg.eigvalsh((sym + sym.T) / 2.0)
    return float(max(abs(vals[0]), abs(vals[-2])))


def _check_cut_cap(states: int) -> None:
    if states > CONDUCTANCE_STATE_CAP:
        raise ExactModeUnavailable(
            f"conductance is exhaustive over cuts; {states} states exceed the cap "
            f"{CONDUCTANCE_STATE_CAP}")


def conductance(flow_matrix, probs) -> float:
    """min over cuts S of  Q(S, S^c) / (pi(S) pi(S^c))  with Q the one-way flow.

    Exhaustive over all 2^N - 2 cuts, so restricted to N <= CONDUCTANCE_STATE_CAP.
    The normalization can exceed 1; consumers gate Cheeger checks accordingly.
    """
    probs = np.asarray(probs, dtype=float)
    N = probs.size
    _check_cut_cap(N)
    if N < 2:
        raise ValueError("conductance needs at least two states")
    E = probs[:, None] * np.asarray(flow_matrix, dtype=float)
    best = math.inf
    chunk = 1 << 16
    bit_cols = np.arange(N, dtype=np.uint32)
    for lo in range(1, (1 << N) - 1, chunk):
        ids = np.arange(lo, min(lo + chunk, (1 << N) - 1), dtype=np.uint32)
        B = ((ids[:, None] >> bit_cols) & 1).astype(float)
        # sum the flow over S x S^c and the mass of S^c directly: complements
        # such as 1 - pi(S) cancel to 0 once one schedule holds nearly all of
        # the law
        cross = ((B @ E) * (1.0 - B)).sum(axis=1)
        ratio = cross / ((B @ probs) * ((1.0 - B) @ probs))
        best = min(best, float(ratio.min()))
    return best


class ChainDiagnostics(NamedTuple):
    lambda_max: float
    conductance: float
    cheeger_upper: float       # 1 - conductance^2 / 2; vacuous if negative
    mixing_estimate: float     # log(1/(delta pi_min)) / (R (1 - lambda_max))
    mixing_worst_case: float   # exp(n max|r| + n) log(1/delta)


def chain_diagnostics(family: IndependentSetFamily, r, *,
                      delta: float = 0.01) -> ChainDiagnostics:
    """Spectral gap, conductance and the two mixing-time estimates at drive r.

    The mixing estimates are the exact relaxation-time form and the
    conservative exponential form, both at accuracy delta.  Refuses families
    past CONDUCTANCE_STATE_CAP before building anything, and fails closed
    (NumericFailure) when the drive is past the kernel's range, the stationary
    law underflows to 0 somewhere, the spectral gap is within
    GAP_ROUNDING * N * eps of 0 (N states), the exponential bound overflows,
    or the conductance is not finite.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    _check_cut_cap(family.size)
    r = np.asarray(r, dtype=float)
    if np.any(r > DRIVE_LIMIT):
        raise NumericFailure(
            f"drive {float(r.max()):.6g} is past the kernel's range {DRIVE_LIMIT:g}")
    kernel = glauber_kernel(family, r)
    probs = stationary_distribution(family, r).probs
    if probs.min() == 0.0:
        raise NumericFailure("the stationary law underflows to 0 on some schedule, "
                             "so the symmetrized kernel is undefined")
    lam = second_eigenvalue_modulus(kernel, probs)
    gap = 1.0 - lam
    resolution = GAP_ROUNDING * family.size * np.finfo(float).eps
    if gap <= resolution:
        raise NumericFailure(f"spectral gap 1 - lambda_max = {gap:.3g} is within rounding "
                             f"({resolution:.3g}) of 0 (lambda_max = {lam!r})")
    n = family.n
    exponent = n * float(np.abs(r).max(initial=0.0)) + n
    try:
        worst_case = math.exp(exponent) * math.log(1.0 / delta)
    except OverflowError:
        worst_case = math.inf
    if worst_case == math.inf:
        raise NumericFailure(f"worst-case mixing bound exp({exponent:.6g}) overflows")
    phi = conductance(kernel.matrix, probs)
    if not math.isfinite(phi):
        raise NumericFailure(f"conductance is not finite ({phi!r})")
    return ChainDiagnostics(
        lambda_max=lam,
        conductance=phi,
        cheeger_upper=1.0 - phi * phi / 2.0,
        mixing_estimate=math.log(1.0 / (delta * float(probs.min())))
        / (kernel.total_rate * gap),
        mixing_worst_case=worst_case,
    )
