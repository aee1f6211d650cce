"""Arrival processes and exact queueing over piecewise-constant schedules.

Work is fluid: a transmitting node drains its queue at rate 1 while backlog
remains.  Every `ArrivalSpec` kind lands its increments at the END of each
unit interval; the `controlled` kind deposits each node's rate there, with no
randomness.  Only the congestion controllers' rates, passed to
`integrate_epoch` as `inflow`, accrue continuously.

Every queue is its net input reflected at zero.  With q0 the starting
backlog, A(t) the work arrived by time t and S(t) the offered service (time
spent transmitting, with backlog or not), the net input X = q0 + A - S is
piecewise linear with upward jumps where deposits land, and the backlog is
its one-sided Skorokhod reflection, the continuous-time Lindley recursion
(Chen & Yao, *Fundamentals of Queueing Networks*, ch. 6):

    Q(t) = X(t) - min(0, inf_{s <= t} X(s)),    departures = q0 + A(T) - Q(T).

X is linear between breakpoints (chain events, deposit times, the epoch end)
and only jumps up, so its running minimum is attained at left limits of
breakpoints and the peak backlog at post-jump values.  `reflect` therefore
needs X only at breakpoints and is exact.  Departures carry the busy
indicator; the offered service S does not, and the same pass reports it.

`integrate_epoch` feeds breakpoints to `reflect` in blocks of about
BLOCK_CELLS (node, breakpoint) cells, carrying the backlog and the busy
vector from one block to the next.  Its working memory is therefore fixed,
instead of growing as events x nodes on long epochs or large graphs.  A
block is node-major, one contiguous row per node, so every running sum,
minimum and maximum walks along memory; rows are accumulated left to right,
not totalled pairwise, so the layout leaves the bits as they were.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import Trajectory
from .conflict_graph import schedule_nodes

ARRIVAL_KINDS = ("scaled-bernoulli", "binomial", "controlled")
BLOCK_CELLS = 1 << 16  # (breakpoint, node) cells per reflection block


@dataclass(frozen=True)
class ArrivalSpec:
    """Per-node arrival process, one increment per node and unit interval.

    The random kinds draw increments in [0, peak] with Pr(0) > 0; the
    `controlled` kind deposits each rate, in [0, 1], every interval.
    """

    kind: str
    rates: np.ndarray
    peak: float = 1.0

    def __post_init__(self):
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival kind {self.kind!r}; choices {ARRIVAL_KINDS}")
        rates = np.asarray(self.rates, dtype=float)
        if rates.ndim != 1 or rates.size == 0:
            raise ValueError("rates must be a nonempty 1-d vector")
        if not np.all(np.isfinite(rates)) or np.any(rates < 0):
            raise ValueError("rates must be finite and nonnegative")
        if not self.peak > 0:
            raise ValueError("peak increment must be positive")
        if self.kind == "controlled":
            if np.any(rates > 1.0):
                raise ValueError("controlled arrival rates must lie in [0, 1]")
        else:
            if np.any(rates > self.peak):
                raise ValueError("mean rate above the peak increment is impossible")
            if np.any(rates == self.peak):
                raise ValueError(
                    "rate equal to the peak forces an arrival every interval "
                    "(violates Pr(increment=0) > 0)")
            if self.kind == "binomial" and not (1 <= self.peak < 2.0 ** 63
                                                and self.peak == int(self.peak)):
                raise ValueError("binomial arrivals need an integer peak >= 1 and "
                                 "below 2**63 (numpy draws the count as int64)")
        rates = rates.copy()
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)

    @property
    def n(self) -> int:
        return self.rates.size


def sample_epoch_arrivals(spec: ArrivalSpec, length: int,
                          rng: np.random.Generator) -> np.ndarray:
    """(length, n) matrix of per-interval increments."""
    if length < 1:
        raise ValueError("epoch length must be >= 1 unit interval")
    p = spec.rates / spec.peak
    if spec.kind == "scaled-bernoulli":
        return (rng.random((length, spec.n)) < p) * spec.peak
    if spec.kind == "binomial":
        return rng.binomial(int(spec.peak), p, size=(length, spec.n)).astype(float)
    # controlled: deterministic unit mass, one rate per interval
    return np.tile(spec.rates, (length, 1))


@dataclass
class QueueState:
    """Running per-node work ledger: queue = arrived - departed at all times."""

    queue: np.ndarray
    departed: np.ndarray
    arrived: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "QueueState":
        return cls(queue=np.zeros(n), departed=np.zeros(n), arrived=np.zeros(n))


def reflect(state: QueueState, net: np.ndarray, jumps: np.ndarray | None,
            arrived: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflect net input at zero from `state.queue`, updating `state` in place.

    net: (n, m) continuous arrivals minus offered service, accumulated from
    the start of the span to the left limit of each of m >= 1 breakpoints;
    the last breakpoint ends the span.  jumps: (n, m) work landing at those
    breakpoints, or None.  arrived: (n,) continuous work arriving over the
    span; the jumps' total is added to it.  Returns (departures, peak
    backlog) per node.
    """
    q0 = state.queue
    x = q0[:, None] + net
    if jumps is not None:
        landed = np.cumsum(jumps, axis=1)
        # a row's running total, except on a single node, where numpy's
        # pairwise sum has always given the total (and the output bytes)
        arrived = arrived + (landed[:, -1] if len(jumps) > 1 else jumps.sum(axis=1))
        x += landed - jumps                    # X at left limits of breakpoints
    low = np.minimum.accumulate(x, axis=1)
    np.minimum(low, 0.0, out=low)
    if jumps is not None:
        x += jumps                             # X just after each breakpoint
    x -= low                                   # Q just after each breakpoint
    queue = x[:, -1].copy()
    departed = q0 + arrived - queue
    state.queue = queue
    state.arrived = state.arrived + arrived
    state.departed = state.departed + departed
    return departed, np.maximum(q0, np.maximum.reduce(x, axis=1))


def integrate_epoch(state: QueueState, traj: Trajectory, *,
                    deposits: np.ndarray | None = None,
                    inflow: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance queues across one epoch's trajectory, updating `state` in place.

    deposits: (T, n) increments landing at the end of each unit interval
    (requires an integer-length trajectory).  inflow: (n,) continuous rates.
    Exactly one of the two may be given; neither means no arrivals.  Returns
    (departures, peak backlog, offered service) per node, the last being the
    time each node transmitted, busy or not.
    """
    n = traj.n
    if deposits is not None and inflow is not None:
        raise ValueError("choose unit-interval deposits or continuous inflow, not both")
    duration = traj.duration
    stops = np.array([duration])
    if deposits is not None:
        deposits = np.asarray(deposits, dtype=float)
        T = int(round(duration))
        if abs(duration - T) > 0.0 or deposits.shape != (T, n):
            raise ValueError("unit-interval deposits need an integer-length epoch "
                             f"and shape ({T}, {n})")
        stops = np.arange(1.0, T + 1.0)
    rate = np.zeros(n)
    if inflow is not None:
        rate = np.asarray(inflow, dtype=float)
        if rate.shape != (n,) or np.any(rate < 0) or np.any(rate > 1.0):
            raise ValueError("continuous inflow rates must lie in [0, 1]")

    # Breakpoints: chain events, then deposit times or else the epoch end.
    events = traj.times.size
    times = np.concatenate([traj.times, stops])
    order = np.argsort(times, kind="stable")
    busy = np.zeros(n, dtype=bool)
    busy[list(schedule_nodes(traj.initial_mask))] = True
    departed = np.zeros(n)
    offered = np.zeros(n)
    peak = state.queue.copy()
    t0 = 0.0
    rows = max(1, BLOCK_CELLS // n)
    for lo in range(0, order.size, rows):
        src = order[lo:lo + rows]
        t = times[src]
        end = float(t[-1])
        m = src.size
        # column k < m: transmit indicator over the piece ending at breakpoint k;
        # column m: the indicator after the block, carried into the next one.
        # Each event flips its node, so a node's state is its toggle parity.
        on = np.zeros((n, m + 1), dtype=bool)
        on[:, 0] = busy
        hit = np.flatnonzero(src < events)
        on[traj.nodes[src[hit]], hit + 1] = True
        np.logical_xor.accumulate(on, axis=1, out=on)
        busy = on[:, m].copy()
        supplied = on[:, :m] * (t - np.concatenate(([t0], t[:-1])))  # offered service S since t0
        np.cumsum(supplied, axis=1, out=supplied)
        offered += supplied[:, -1]
        if inflow is None:  # skip the all-zero product; 0.0 - S keeps its zeros +0.0
            net = np.subtract(0.0, supplied, out=supplied)
        else:
            net = np.multiply.outer(rate, t - t0)
            net -= supplied
        jumps = None
        if deposits is not None:
            dep = np.flatnonzero(src >= events)
            jumps = np.zeros((n, m))
            jumps[:, dep] = deposits[src[dep] - events].T
        out, top = reflect(state, net, jumps, rate * (end - t0))
        departed += out
        np.maximum(peak, top, out=peak)
        t0 = end
    return departed, peak, offered
