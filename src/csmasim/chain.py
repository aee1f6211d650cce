"""Event-driven CSMA chain simulation and exact chain diagnostics.

The continuous-time chain lives on feasible schedules: a transmitting node
stops at rate 1; a silent node whose neighbors are all silent starts at rate
exp(r_i); a blocked node's clock rate is 0.  Each clock depends only on the
node's own drive and its neighbors' state, so `simulate` keeps one rate per
node and samples the exact chain by Gillespie's direct method: the wait to
the next event is exponential with the total rate, the toggled node is drawn
in proportion to its rate from the running sums, and only the toggled node
and its neighbors change rate afterwards.

The discrete single-site kernel is that chain uniformized at rate 2R, with
R = sum_k max(exp(r_k), 1):  P = I + G / (2R), G the generator from
`ctmc_generator`, which is the one place the transitions are encoded.  Per
tick this picks node i with probability max(exp(r_i), 1) / R and flips it
with HALF the clock-consistent probability (down: min(exp(-r_i), 1)/2; up, if
unblocked: min(exp(r_i), 1)/2), staying put otherwise.  Every diagonal entry
is at least 1/2, which keeps the kernel aperiodic with a nonnegative spectrum
while preserving reversibility w.r.t. the product-form law.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .conflict_graph import ConflictGraph, IndependentSetFamily, schedule_nodes
from .errors import ExactModeUnavailable, InvariantViolation, NumericFailure
from .gibbs import stationary_distribution

CONDUCTANCE_STATE_CAP = 20
DRIVE_LIMIT = 700.0  # exp(r) stays finite and well scaled below this
WORST_CASE_MULTIPLIER = 1.0  # the c of the bound exp(c (n max|r| + n)) log(1/delta)


def _clock_draws(rng: np.random.Generator):
    """Yield (unit exponential wait, uniform pick) pairs, drawn a block at a time."""
    while True:
        yield from zip(rng.standard_exponential(1024).tolist(), rng.random(1024).tolist())


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant schedule path over [0, duration)."""

    graph: ConflictGraph
    initial_mask: int
    duration: float
    times: np.ndarray   # event times, strictly increasing, in (0, duration)
    nodes: np.ndarray   # toggled node per event
    starts: np.ndarray  # True = transmission start, False = end
    final_mask: int

    @property
    def n(self) -> int:
        return self.graph.n

    def segments(self):
        """Yield (t0, t1, mask) pieces covering [0, duration)."""
        mask = self.initial_mask
        t0 = 0.0
        for t, node, start in zip(self.times.tolist(), self.nodes.tolist(),
                                  self.starts.tolist()):
            if t > t0:
                yield t0, t, mask
            mask = mask | (1 << node) if start else mask & ~(1 << node)
            t0 = t
        if self.duration > t0:
            yield t0, self.duration, mask


def simulate(graph: ConflictGraph, r, duration: float, *,
             initial_mask: int = 0, rng: np.random.Generator | None = None,
             seed: int | None = None) -> Trajectory:
    """Sample the chain over [0, duration) starting from `initial_mask`.

    Entries of r may be -inf (node never transmits).  Deterministic given the
    generator state.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (graph.n,):
        raise ValueError(f"backoff vector must have shape ({graph.n},)")
    if np.any(np.isnan(r)) or np.any(r == math.inf):
        raise ValueError("backoff entries must be < +inf and not NaN")
    if np.any(r > DRIVE_LIMIT):
        raise ValueError(f"backoff entries above {DRIVE_LIMIT:g} overflow the clock rate")
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    if not graph.is_independent(initial_mask):
        raise ValueError(f"initial mask {initial_mask:#x} is not a feasible schedule")
    if rng is None:
        rng = np.random.default_rng(seed)

    with np.errstate(over="raise"):
        start_rate = np.exp(r).tolist()  # exp(-inf) = 0: that node never starts
    nbr_masks = graph.neighbor_masks
    nbr_lists = [schedule_nodes(m) for m in nbr_masks]
    mask = initial_mask

    def clock(i: int) -> float:
        if mask >> i & 1:
            return 1.0
        return 0.0 if mask & nbr_masks[i] else start_rate[i]

    rate = [clock(i) for i in range(graph.n)]
    draws = _clock_draws(rng)
    t = 0.0
    ev_times: list[float] = []
    ev_nodes: list[int] = []
    ev_starts: list[bool] = []

    while True:
        cum = list(itertools.accumulate(rate))
        total = cum[-1]
        if total == 0.0:
            break  # absorbing: nothing transmitting, all clocks silent
        wait, pick = next(draws)
        t += wait / total
        if t >= duration:
            break
        # pick * total < total, and a zero rate repeats the sum before it, so
        # the search lands on a node whose clock is running
        node = bisect.bisect_right(cum, pick * total)
        start = not mask >> node & 1
        if start and mask & nbr_masks[node]:
            raise InvariantViolation(f"node {node} started against a busy neighbor")
        mask ^= 1 << node
        # only the toggled node and its neighbors (all silent now) change clock
        rate[node] = clock(node)
        for j in nbr_lists[node]:
            rate[j] = clock(j)
        ev_times.append(t)
        ev_nodes.append(node)
        ev_starts.append(start)

    return Trajectory(
        graph=graph,
        initial_mask=initial_mask,
        duration=float(duration),
        times=np.asarray(ev_times, dtype=float),
        nodes=np.asarray(ev_nodes, dtype=np.int64),
        starts=np.asarray(ev_starts, dtype=bool),
        final_mask=mask,
    )


@dataclass(frozen=True)
class Occupancy:
    busy_fraction: np.ndarray
    mask_fractions: dict[int, float]


def occupancy(traj: Trajectory) -> Occupancy:
    """Time fractions per schedule and per node, from the segment walk."""
    if traj.duration <= 0:
        raise ValueError("occupancy needs a positive duration")
    per_mask: dict[int, float] = {}
    for t0, t1, mask in traj.segments():
        per_mask[mask] = per_mask.get(mask, 0.0) + (t1 - t0)
    busy = np.zeros(traj.n)
    for mask, dt in per_mask.items():
        for i in schedule_nodes(mask):
            busy[i] += dt
    busy /= traj.duration
    return Occupancy(busy_fraction=busy,
                     mask_fractions={m: dt / traj.duration for m, dt in per_mask.items()})


def empirical_distribution(occ: Occupancy, family: IndependentSetFamily) -> np.ndarray:
    """Occupancy fractions aligned with the family's mask order."""
    out = np.zeros(family.size)
    for mask, frac in occ.mask_fractions.items():
        out[family.index[mask]] = frac
    return out


# ---------------------------------------------------------------------------
# discrete kernel, generator, and spectral diagnostics

@dataclass(frozen=True)
class GlauberKernel:
    """Half-lazy single-site kernel I + G/(2R) (see the module docstring)."""

    family: IndependentSetFamily
    r: np.ndarray
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
    rr = r.copy()
    rr.setflags(write=False)
    return GlauberKernel(family=family, r=rr, matrix=P, total_rate=total)


def ctmc_generator(family: IndependentSetFamily, r) -> np.ndarray:
    """Continuous-time generator assembled directly from the clock rates."""
    r = np.asarray(r, dtype=float)
    n, size = family.n, family.size
    gen = np.zeros((size, size))
    nbr = family.graph.neighbor_masks
    with np.errstate(over="raise"):
        start_rate = np.exp(r)
    for row, mask in enumerate(family.masks):
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                gen[row, family.index[mask ^ bit]] = 1.0
            elif not mask & nbr[i] and start_rate[i] > 0:
                gen[row, family.index[mask | bit]] = start_rate[i]
        gen[row, row] = -gen[row].sum()
    return gen


def _ctmc_exp(generator: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """e^G for a generator reversible w.r.t. probs, from one symmetric eigensolve.

    Detailed balance makes D^{1/2} G D^{-1/2} symmetric (D = diag(probs)), so
    e^G = D^{-1/2} V e^Lambda V^T D^{1/2} with (Lambda, V) its eigenpairs.
    """
    d = np.sqrt(probs)
    sym = generator * d[:, None] / d[None, :]
    vals, vecs = np.linalg.eigh((sym + sym.T) / 2.0)
    return (vecs * np.exp(vals)) @ vecs.T / d[:, None] * d[None, :]


def second_eigenvalue_modulus(kernel: GlauberKernel,
                              probs: np.ndarray | None = None) -> float:
    """Second-largest eigenvalue modulus of the kernel (reversible, so real)."""
    if probs is None:
        probs = stationary_distribution(kernel.family, kernel.r).probs
    if kernel.matrix.shape[0] == 1:
        return 0.0
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


def tv_distance(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * float(np.abs(p - q).sum())


@dataclass(frozen=True)
class ChainDiagnostics:
    lambda_max: float
    conductance: float
    cheeger_upper: float       # 1 - conductance^2 / 2; vacuous if negative
    mixing_estimate: float     # log(1/(delta pi_min)) / (R (1 - lambda_max))
    mixing_worst_case: float   # exp(c (n max|r| + n)) log(1/delta)
    conductance_ctmc: float    # same cut statistic on the unit-time kernel

    def to_json_dict(self) -> dict:
        return {
            "lambda_max": self.lambda_max,
            "conductance": self.conductance,
            "cheeger_upper": self.cheeger_upper,
            "mixing_estimate": self.mixing_estimate,
            "mixing_worst_case": self.mixing_worst_case,
            "conductance_ctmc": self.conductance_ctmc,
        }


def chain_diagnostics(family: IndependentSetFamily, r, *,
                      delta: float = 0.01) -> ChainDiagnostics:
    """Spectral gap, conductances and the two mixing-time estimates at drive r.

    The mixing estimates are the exact relaxation-time form and the
    conservative exponential form with multiplier WORST_CASE_MULTIPLIER, both
    at accuracy delta.  Refuses families past CONDUCTANCE_STATE_CAP before
    building anything, and fails closed (NumericFailure) when the drive is
    past the kernel's range, the stationary law underflows to 0 somewhere, the
    spectral gap rounds to zero or below, the exponential bound overflows, or
    a conductance is not finite.
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
    if gap <= 0.0:
        raise NumericFailure(f"spectral gap 1 - lambda_max = {gap:.3g} is not positive "
                             f"(lambda_max = {lam!r})")
    n = family.n
    exponent = WORST_CASE_MULTIPLIER * (n * float(np.abs(r).max(initial=0.0)) + n)
    try:
        worst_case = math.exp(exponent) * math.log(1.0 / delta)
    except OverflowError:
        worst_case = math.inf
    if worst_case == math.inf:
        raise NumericFailure(f"worst-case mixing bound exp({exponent:.6g}) overflows")
    phi = conductance(kernel.matrix, probs)
    phi_ctmc = conductance(_ctmc_exp(ctmc_generator(family, r), probs), probs)
    if not math.isfinite(phi) or not math.isfinite(phi_ctmc):
        raise NumericFailure(f"conductance is not finite (kernel {phi!r}, "
                             f"unit-time {phi_ctmc!r})")
    return ChainDiagnostics(
        lambda_max=lam,
        conductance=phi,
        cheeger_upper=1.0 - phi * phi / 2.0,
        mixing_estimate=math.log(1.0 / (delta * float(probs.min())))
        / (kernel.total_rate * gap),
        mixing_worst_case=worst_case,
        conductance_ctmc=phi_ctmc,
    )
