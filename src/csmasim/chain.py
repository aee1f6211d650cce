"""Event-driven CSMA chain simulation and exact chain diagnostics.

The continuous-time chain lives on feasible schedules: a transmitting node
stops at rate 1; a silent node whose neighbors are all silent starts at rate
exp(r_i).  Blocked nodes carry no clock; by memorylessness, redrawing a fresh
exponential when a node unblocks is distributionally identical to letting a
suspended clock resume, so the event-driven loop below samples the exact chain.

The discrete single-site kernel is the half-lazy uniformization of that chain:
each tick picks node i with probability max(exp(r_i), 1) / R, where
R = sum_k max(exp(r_k), 1), then flips it with HALF the clock-consistent
probability (down: min(exp(-r_i), 1)/2; up, if unblocked: min(exp(r_i), 1)/2),
staying put otherwise.  The half-laziness keeps the kernel aperiodic with a
nonnegative spectrum while preserving reversibility w.r.t. the product-form
law; ticking at rate 2R reproduces the continuous-time chain exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .conflict_graph import ConflictGraph, IndependentSetFamily, schedule_nodes
from .errors import ExactModeUnavailable, InvariantViolation
from .gibbs import stationary_distribution

CONDUCTANCE_STATE_CAP = 20


class _UniformStream:
    """Buffered uniforms; one generator call per block keeps the event loop cheap."""

    def __init__(self, rng: np.random.Generator, block: int = 8192):
        self._rng = rng
        self._block = block
        self._buf = rng.random(block)
        self._pos = 0

    def __call__(self) -> float:
        if self._pos == self._buf.shape[0]:
            self._buf = self._rng.random(self._block)
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return float(value)


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

    def to_csv(self, file) -> None:
        """Write events as time,node,kind rows (kind: start|end)."""
        if hasattr(file, "write"):
            file.write("time,node,kind\n")
            for t, node, start in zip(self.times.tolist(), self.nodes.tolist(),
                                      self.starts.tolist()):
                file.write(f"{t!r},{node},{'start' if start else 'end'}\n")
        else:
            with open(file, "w", encoding="utf-8") as fh:
                self.to_csv(fh)


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
    if np.any(r[np.isfinite(r)] > 700.0):
        raise ValueError("backoff entries above 700 overflow the clock rate")
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    if not graph.is_independent(initial_mask):
        raise ValueError(f"initial mask {initial_mask:#x} is not a feasible schedule")
    if rng is None:
        rng = np.random.default_rng(seed)

    n = graph.n
    with np.errstate(over="raise"):
        start_rate = [float(v) for v in np.exp(np.where(np.isneginf(r), -np.inf, r))]
    nbr_masks = graph.neighbor_masks
    nbr_lists = [schedule_nodes(m) for m in nbr_masks]
    blocked = [0] * n  # transmitting-neighbor counts
    for i in schedule_nodes(initial_mask):
        for j in nbr_lists[i]:
            blocked[j] += 1

    uniform = _UniformStream(rng)
    mask = initial_mask
    t = 0.0
    ev_times: list[float] = []
    ev_nodes: list[int] = []
    ev_starts: list[bool] = []

    while True:
        tx = schedule_nodes(mask)
        total = float(len(tx))
        cand_nodes: list[int] = []
        cand_rates: list[float] = []
        for i in range(n):
            if not (mask >> i) & 1 and blocked[i] == 0:
                rate = start_rate[i]
                if rate > 0.0:
                    cand_nodes.append(i)
                    cand_rates.append(rate)
                    total += rate
        if total == 0.0:
            break  # absorbing: nothing transmitting, all clocks silent
        t += -math.log(1.0 - uniform()) / total
        if t >= duration:
            break
        pick = uniform() * total
        if pick < len(tx):
            node, start = tx[int(pick)], False
        else:
            pick -= len(tx)
            node, start = cand_nodes[-1], True
            for i, rate in zip(cand_nodes, cand_rates):
                pick -= rate
                if pick <= 0.0:
                    node = i
                    break
        bit = 1 << node
        if start:
            if mask & nbr_masks[node]:
                raise InvariantViolation(f"node {node} started against a busy neighbor")
            mask |= bit
            for j in nbr_lists[node]:
                blocked[j] += 1
        else:
            mask ^= bit
            for j in nbr_lists[node]:
                blocked[j] -= 1
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
    """Half-lazy single-site kernel (see module docstring for the tick rule)."""

    family: IndependentSetFamily
    r: np.ndarray
    matrix: np.ndarray
    total_rate: float  # sum_k max(exp(r_k), 1); the chain's clock budget


def glauber_kernel(family: IndependentSetFamily, r) -> GlauberKernel:
    r = np.asarray(r, dtype=float)
    if r.shape != (family.n,):
        raise ValueError(f"backoff vector must have shape ({family.n},)")
    if not np.all(np.isfinite(r)) or np.any(r > 700.0):
        raise ValueError("kernel construction needs finite backoff entries <= 700")
    n, size = family.n, family.size
    select = np.array([max(math.exp(v), 1.0) for v in r])
    total = float(select.sum())
    select /= total
    down = np.array([math.exp(-v) if v > 0 else 1.0 for v in r])
    up = np.array([math.exp(v) if v < 0 else 1.0 for v in r])

    P = np.zeros((size, size))
    nbr = family.graph.neighbor_masks
    for row, mask in enumerate(family.masks):
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                P[row, family.index[mask ^ bit]] += select[i] * 0.5 * down[i]
            elif not mask & nbr[i]:
                P[row, family.index[mask | bit]] += select[i] * 0.5 * up[i]
        P[row, row] = 1.0 - P[row].sum()
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


def transient_distribution(family: IndependentSetFamily, r, initial, t: float) -> np.ndarray:
    """Law of the chain at time t from `initial` (scaling-and-squaring expm)."""
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (family.size,):
        raise ValueError(f"initial distribution must have shape ({family.size},)")
    return initial @ expm(t * ctmc_generator(family, r))


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


def conductance(flow_matrix, probs, max_states: int = CONDUCTANCE_STATE_CAP) -> float:
    """min over cuts S of  Q(S, S^c) / (pi(S) pi(S^c))  with Q the one-way flow.

    Exhaustive over all 2^N - 2 cuts, so restricted to small state spaces.
    The normalization can exceed 1; consumers gate Cheeger checks accordingly.
    """
    probs = np.asarray(probs, dtype=float)
    N = probs.size
    if N > max_states:
        raise ExactModeUnavailable(
            f"conductance is exhaustive over cuts; {N} states exceed the cap {max_states}")
    if N < 2:
        raise ValueError("conductance needs at least two states")
    E = probs[:, None] * np.asarray(flow_matrix, dtype=float)
    best = math.inf
    chunk = 1 << 16
    bit_cols = np.arange(N, dtype=np.uint32)
    for lo in range(1, (1 << N) - 1, chunk):
        ids = np.arange(lo, min(lo + chunk, (1 << N) - 1), dtype=np.uint32)
        B = ((ids[:, None] >> bit_cols) & 1).astype(float)
        X = B @ E
        cross = X.sum(axis=1) - (X * B).sum(axis=1)
        pi_s = B @ probs
        ratio = cross / (pi_s * (1.0 - pi_s))
        best = min(best, float(ratio.min()))
    return best


def tv_distance(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * float(np.abs(p - q).sum())


@dataclass(frozen=True)
class MixingTimeEstimate:
    worst_case_bound: float  # exp(c (n max|r| + n)) log(1/delta)
    spectral_bound: float    # log(1/(delta pi_min)) / (R (1 - lambda_max))


def mixing_time_estimate(family: IndependentSetFamily, r, delta: float,
                         c: float = 1.0) -> MixingTimeEstimate:
    """Two mixing-time estimates: the conservative exponential-form bound with
    an explicit multiplier c, and the exact relaxation-time form."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    r = np.asarray(r, dtype=float)
    n = family.n
    crude = math.exp(c * (n * float(np.abs(r).max(initial=0.0)) + n)) * math.log(1.0 / delta)
    kernel = glauber_kernel(family, r)
    dist = stationary_distribution(family, r)
    lam = second_eigenvalue_modulus(kernel, dist.probs)
    gap = 1.0 - lam
    pi_min = float(dist.probs.min())
    spectral = math.log(1.0 / (delta * pi_min)) / (kernel.total_rate * gap)
    return MixingTimeEstimate(worst_case_bound=crude, spectral_bound=spectral)


@dataclass(frozen=True)
class ChainDiagnostics:
    lambda_max: float
    conductance: float
    cheeger_upper: float       # 1 - conductance^2 / 2; vacuous if negative
    mixing_estimate: float     # spectral-form estimate at the given delta
    mixing_worst_case: float   # exponential-form estimate, same delta
    conductance_ctmc: float | None  # same cut statistic on the unit-time kernel

    def to_json_dict(self) -> dict:
        return {
            "lambda_max": self.lambda_max,
            "conductance": self.conductance,
            "cheeger_upper": self.cheeger_upper,
            "mixing_estimate": self.mixing_estimate,
            "mixing_worst_case": self.mixing_worst_case,
            "conductance_ctmc": self.conductance_ctmc,
        }


def chain_diagnostics(family: IndependentSetFamily, r, *, delta: float = 0.01,
                      c: float = 1.0, include_ctmc: bool = True,
                      max_states: int = CONDUCTANCE_STATE_CAP) -> ChainDiagnostics:
    kernel = glauber_kernel(family, r)
    dist = stationary_distribution(family, r)
    lam = second_eigenvalue_modulus(kernel, dist.probs)
    phi = conductance(kernel.matrix, dist.probs, max_states=max_states)
    mixing = mixing_time_estimate(family, r, delta, c=c)
    phi_ctmc = None
    if include_ctmc:
        phi_ctmc = conductance(expm(ctmc_generator(family, r)), dist.probs,
                               max_states=max_states)
    return ChainDiagnostics(
        lambda_max=lam,
        conductance=phi,
        cheeger_upper=1.0 - phi * phi / 2.0,
        mixing_estimate=mixing.spectral_bound,
        mixing_worst_case=mixing.worst_case_bound,
        conductance_ctmc=phi_ctmc,
    )
