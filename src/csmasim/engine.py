"""Epoch-driven experiment loop tying the chain, queues, and updates together.

Per epoch: freeze the drive vector, run the medium (or its exact expectation
in deterministic-oracle mode), pass the queues through the reflection kernel
(which measures offered service in the same pass), apply the selected update
rule to the arrival and offered-service rates, and emit one metrics record.
The schedule state carries across epoch boundaries; changing the drive vector
never resets the medium.

Randomness discipline: every epoch derives two fresh generators from the run
seed via SeedSequence(entropy=seed, spawn_key=(epoch, stream)) with stream 0
for the chain and stream 1 for arrivals.  Adding metrics or reordering reads
within an epoch therefore never perturbs other epochs' draws, and identical
(config, seed) pairs produce bit-identical record streams.

Deterministic-oracle mode replaces the measured rates with their exact
expectations (mean arrivals, exact stationary service at the current drive)
and runs fluid queues, isolating the optimization recursion from Monte Carlo
noise.  Update rules follow the measured quantities verbatim: offered service
carries no busy indicator even though departures do, so early drive dips while
queues are empty are faithful, and the offered/actual gap is recorded.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .chain import DRIVE_LIMIT, TABLE_STATES, clock_table, simulate
from .conflict_graph import (ConflictGraph, IndependentSetFamily,
                             enumerate_independent_sets)
from .congestion import (UtilityFunction, best_responses, default_beta,
                         initial_slope_bound, price_box_bound, total_utility,
                         update_prices_constant, update_prices_diminishing)
from .errors import (ConfigError, ExactModeUnavailable, InvariantViolation,
                     NumericFailure)
from .gibbs import service_rates
from .scheduling import (constant_step_plan, published_epoch_length,
                         update_diminishing, update_projected)
from .traffic import (ArrivalSpec, QueueState, integrate_epoch, reflect,
                      sample_epoch_arrivals)

ALGORITHMS = ("sched1", "sched2", "cc1", "cc2")
MODES = ("stochastic", "deterministic-oracle")
ORACLE = "deterministic-oracle"
CONSERVATION_TOL = 1e-9
# The desk budget of a stochastic run, in node-time units: n times the sum of
# its epoch lengths.  A transmission ends at rate 1 and a node starts at most
# once more than it stops, so a run expects at most 2 events per node-unit
# (plus n); cycle5 and cycle100 both make 0.55 at drive 0 and 0.75-0.82 at
# drive 2.  The clock table samples ~1.5M events/s and per-node clocks ~0.17M
# on a 2-vCPU host, so a run at the limit takes 0.5-8 minutes there.  The same
# number caps one epoch's length, in time units, in every mode.
DESK_TIME_LIMIT = 1e8
# The longest oracle run on the published lengths ceil(exp(sqrt(j))): the
# largest H with sum_{j <= H} ceil(exp(sqrt(j))) <= sys.float_info.max, summed
# exactly in Python ints.  The engine's clock adds the lengths in floats, and
# at H + 1 it becomes inf; exp(sqrt(j)) itself overflows from j = 503 792.
ORACLE_HORIZON_LIMIT = 493_556


def _run_exceeds(horizon: int, epoch_length: int | None, *limits: float) -> list[bool]:
    """Whether the run's epoch lengths add up to more than each limit, in time units.

    One pass walks the published lengths only until the sum passes the first
    finite limit, so a later answer holds where the earlier ones are False.
    """
    total = horizon * (epoch_length or 0)  # exact in Python ints
    reach = next((limit for limit in limits if limit < math.inf), None)
    if epoch_length is None and reach is not None:
        for j in range(1, horizon + 1):  # two nodes pass 1e8 / 2 by j = 208
            total += published_epoch_length(j)
            if total > reach:
                break
    return [total > limit for limit in limits]


def _whole(value) -> bool:
    """An int that is not a bool (True would otherwise count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: graph, algorithm, workload, horizon, overrides.

    Scheduling algorithms need an arrival spec; congestion algorithms need
    one utility per node and generate their own arrivals, which accrue
    continuously at the chosen rates.
    epoch_length/step override the published schedules, which is the only
    practical choice for the constant-step rules at desk scale.

    Construction checks the fields, resolves what the run reads (sched2's
    epoch length and step: each override, else the published plan; beta for
    congestion runs: the override, else 4n/epsilon), checks the bounds of the
    whole run, and last enumerates `family`, the graph's schedule family, which
    is not a setting.  Past exact mode a stochastic config holds the
    ExactModeUnavailable that refused the graph there, and an oracle config,
    whose service rates sum over the family, raises it.  The seed is not part
    of the config: it only picks the sample path, so every seed of a sweep
    runs on one config and the family is enumerated once.
    """

    graph: ConflictGraph
    algorithm: str
    horizon: int
    arrivals: ArrivalSpec | None = None
    utilities: tuple[UtilityFunction, ...] | None = None
    mode: str = "stochastic"
    epoch_length: int | None = None
    step: float | None = None
    epsilon: float | None = None
    beta: float | None = None
    initial_queue: tuple[float, ...] | None = None
    family: IndependentSetFamily | ExactModeUnavailable = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.graph.n
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; choices {ALGORITHMS}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choices {MODES}")
        if not _whole(self.horizon) or self.horizon < 1:
            raise ConfigError("horizon must be a positive integer epoch count")
        if self.epoch_length is not None and (
                not _whole(self.epoch_length)
                or not 1 <= self.epoch_length <= DESK_TIME_LIMIT):
            raise ConfigError("epoch_length override must be a positive integer "
                              f"of at most {DESK_TIME_LIMIT:g}")
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if self.is_congestion:
            if self.utilities is None:
                raise ConfigError(f"{self.algorithm} needs a utility per node")
            if len(self.utilities) != n:
                raise ConfigError(f"need {n} utilities, got {len(self.utilities)}")
            if self.arrivals is not None:
                raise ConfigError("congestion runs generate their own arrivals; "
                                  "drop the arrival spec")
        else:
            if self.arrivals is None:
                raise ConfigError(f"{self.algorithm} needs an arrival spec")
            if self.arrivals.n != n:
                raise ConfigError(f"arrival spec covers {self.arrivals.n} nodes, graph has {n}")
            if self.utilities is not None:
                raise ConfigError("scheduling runs take no utilities")
            if self.beta is not None:
                raise ConfigError("beta only applies to congestion runs")
        if self.algorithm in ("sched1", "cc1"):
            if self.step is not None:
                raise ConfigError(f"{self.algorithm} steps by 1/j; step cannot be overridden")
        elif self.algorithm == "cc2":
            if self.step is None:
                raise ConfigError("cc2 needs a positive step override")
            if self.epoch_length is None:
                raise ConfigError("cc2 needs an epoch_length override at desk scale")
        elif self.epsilon is None:  # sched2
            raise ConfigError("sched2 needs a positive slack epsilon")

        if self.algorithm == "sched2" and (self.epoch_length is None or self.step is None):
            plan = constant_step_plan(n, self.epsilon, peak=self.arrivals.peak)
            if self.epoch_length is None:
                if not plan.epoch_length <= DESK_TIME_LIMIT:  # inf once it overflows
                    raise ConfigError(
                        "published constant-step epoch length is out of desk range "
                        f"({plan.epoch_length:.3g}); set an epoch_length override")
                object.__setattr__(self, "epoch_length", math.ceil(plan.epoch_length))
            if self.step is None:
                object.__setattr__(self, "step", plan.step)
        if self.is_congestion and self.beta is None:
            if self.epsilon is None:
                raise ConfigError("congestion runs need beta "
                                  "(or epsilon for the 4n/eps default)")
            object.__setattr__(self, "beta", default_beta(n, self.epsilon))
        # after resolution, which can overflow 4n/eps or underflow the plan's step
        for name in ("step", "beta"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        if self.initial_queue is not None:
            q0 = tuple(float(v) for v in self.initial_queue)
            if len(q0) != n or any(v < 0 or not math.isfinite(v) for v in q0):
                raise ConfigError(f"initial_queue needs {n} finite nonnegative entries")
            object.__setattr__(self, "initial_queue", q0)

        # an oracle run's fluid epochs cost no events, but its clock must stay finite
        if self.mode == ORACLE and self.epoch_length is None and (
                self.horizon > ORACLE_HORIZON_LIMIT):
            raise ConfigError(
                f"an oracle run on the published epoch lengths overflows the clock past "
                f"horizon {ORACLE_HORIZON_LIMIT}; shorten it or set an epoch_length")
        budget = math.inf if self.mode == ORACLE else int(DESK_TIME_LIMIT) // n
        # The queue ledger's largest entry is q0 plus the work arrived, and every
        # other value the queue kernel forms stays within it plus an epoch length.
        # Work arrives at most at `inflow` per time unit: 1 for congestion rates,
        # the rate itself in oracle runs and for the controlled kind (which
        # deposits its rate each interval), else each interval's peak increment.
        if self.is_congestion:
            inflow = [1.0] * n
        elif self.mode == ORACLE or self.arrivals.kind == "controlled":
            inflow = self.arrivals.rates.tolist()
        else:
            inflow = [self.arrivals.peak] * n
        top = sys.float_info.max
        # time until an entry passes the float range; an entry that outlasts the
        # clock is left to the clock's own limits (ORACLE_HORIZON_LIMIT)
        fill = min(((top - q) / c for q, c in zip(self.initial_queue or [0.0] * n, inflow)
                    if c > 0), default=math.inf)
        over_budget, over_ledger = _run_exceeds(
            self.horizon, self.epoch_length, budget, fill if fill < top else math.inf)
        if over_budget:
            raise ConfigError(
                f"nodes x the run's epoch lengths add up to more than {DESK_TIME_LIMIT:g} "
                "node-time units; shorten the horizon or set a shorter epoch_length")
        if over_ledger:
            raise ConfigError(
                f"the queue ledger (initial queue + arrivals) passes the float range "
                f"after {fill:.3g} time units, within the run; lower the rates, the peak "
                "or the initial queue, or shorten the run")
        if self.algorithm == "cc2" and self.horizon > 1 and self.step > DRIVE_LIMIT:
            # epoch 2's prices: update_prices_constant(0, 1, s_hat, step) drains a
            # zero price to 0 and adds step * 1, so each is the step exactly
            raise ConfigError(
                f"the first update moves the prices to the step {self.step!r}, past the "
                f"limit {DRIVE_LIMIT:g} that epoch 2 enforces; lower the step")

        try:
            family = enumerate_independent_sets(self.graph)
        except ExactModeUnavailable as exc:
            family = exc
        if self.mode == ORACLE and isinstance(family, ExactModeUnavailable):
            raise family
        if self.mode == ORACLE and self.algorithm == "sched1" and self.horizon > 1:
            # epoch 2's drive: the engine's update_diminishing(0, lambda, s(0), 1),
            # which adds 0 to (lambda - s(0)) / 1 and so is lambda - s(0) exactly
            drive = self.arrivals.rates - service_rates(family, np.zeros(n))
            top = np.maximum.reduce(np.abs(drive))
            if not top <= DRIVE_LIMIT:
                raise ConfigError(
                    f"the first update moves the drive to {top:.3g}, past the limit "
                    f"{DRIVE_LIMIT:g} that epoch 2 enforces; lower the arrival rates")
        object.__setattr__(self, "family", family)

    @property
    def is_congestion(self) -> bool:
        return self.algorithm in ("cc1", "cc2")


@dataclass(frozen=True)
class MetricsRecord:
    """One epoch of telemetry; vector fields are per-node tuples."""

    j: int
    epoch_start: float
    epoch_length: float
    drive: tuple[float, ...]                # chain exponents used this epoch
    arrival_rate_est: tuple[float, ...]
    offered_service_est: tuple[float, ...]  # no busy indicator
    actual_service_rate: tuple[float, ...]  # departures / epoch length
    queue: tuple[float, ...]                # backlog at epoch end
    departed: tuple[float, ...]             # cumulative departures at epoch end
    peak_queue: tuple[float, ...]           # max backlog within the epoch
    max_queue_ratio: float                  # max_i queue_i / elapsed time
    rates: tuple[float, ...] | None = None  # requested rates (congestion only)
    avg_rates: tuple[float, ...] | None = None  # time-averaged requested rates
    avg_rate_utility: float | None = None   # utility at the time-averaged rate

    def __post_init__(self):
        for name in ("drive", "arrival_rate_est", "offered_service_est",
                     "actual_service_rate", "queue", "departed", "peak_queue"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise InvariantViolation(f"non-finite {name} in epoch {self.j}")
        for name in ("epoch_start", "epoch_length", "max_queue_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise InvariantViolation(f"non-finite {name} in epoch {self.j}")


def run_experiment(config: ExperimentConfig, seed: int | None = None) -> Iterator[MetricsRecord]:
    """Stream one MetricsRecord per epoch; deterministic given the config and seed."""
    graph = config.graph
    n = graph.n
    oracle = config.mode == ORACLE
    if not oracle and not (_whole(seed) and seed >= 0):  # SeedSequence's entropy
        raise ConfigError(f"stochastic runs need a seed, a nonnegative integer; got {seed!r}")

    # A family small enough to gain from it samples from a clock table; a
    # larger one, or a refusal past exact mode, keeps per-node clocks.
    family = config.family
    table = None
    if not oracle and isinstance(family, IndependentSetFamily) and family.size <= TABLE_STATES:
        table = clock_table(family)
    congestion = config.is_congestion
    beta, step, fixed_length = config.beta, config.step, config.epoch_length
    drive = np.zeros(n)
    cc_rates = np.ones(n) if congestion else None

    qstate = QueueState.zeros(n)
    if config.initial_queue is not None:
        q0 = np.asarray(config.initial_queue, dtype=float)
        qstate.queue = q0.copy()
        qstate.arrived = q0.copy()  # backlog present at t=0 counts as arrived

    if config.algorithm == "cc2":
        slope_cap = initial_slope_bound(config.utilities)
        price_box = price_box_bound(config.utilities, beta, step)
        queue_cap = fixed_length * (beta * slope_cap + 2.0 * step) / step
        # the price/queue coupling is an induction from an empty start
        couple = config.initial_queue is None or max(config.initial_queue) == 0.0

    mask = 0
    now = 0.0
    weighted_rates = np.zeros(n)

    # The epoch path reduces through ufuncs and ndarray methods, not np.all,
    # np.any or ndarray.max: on a few nodes their Python wrappers cost more
    # than the arithmetic.
    for j in range(1, config.horizon + 1):
        top = np.maximum.reduce(np.abs(drive))
        if not top <= DRIVE_LIMIT:  # NaN fails it too
            raise NumericFailure(f"drive vector overflow entering epoch {j}: "
                                 f"max |drive| = {top:.3g}")
        # a run without a fixed length follows the published 1/j schedule
        length = fixed_length if fixed_length is not None else published_epoch_length(j)

        if oracle:
            s_hat = service_rates(family, drive)
            lam_hat = cc_rates if congestion else config.arrivals.rates
            arrivals = lam_hat * length
            offered = s_hat * length
            served, peak = reflect(qstate, (arrivals - offered)[:, None], None, arrivals)
        else:
            chain_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(j, 0)))
            arr_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(j, 1)))
            traj = simulate(graph, drive, float(length), initial_mask=mask,
                            rng=chain_rng, table=table)
            mask = traj.final_mask
            if congestion:
                deposits = None
                inflow = cc_rates
                arrivals = cc_rates * length
            else:
                deposits = sample_epoch_arrivals(config.arrivals, length, arr_rng)
                inflow = None
                arrivals = deposits.sum(axis=0)
            served, peak, offered = integrate_epoch(qstate, traj, deposits=deposits,
                                                    inflow=inflow)
            lam_hat = arrivals / length
            s_hat = offered / length
        actual = served / length

        now += length
        tol = CONSERVATION_TOL * (1.0 + float(np.maximum.reduce(qstate.arrived)))
        err = qstate.conservation_error()
        if err > tol:
            raise InvariantViolation(f"queue conservation off by {err:.3e} at epoch {j}")
        # Departures are q0 + A - Q, so the ledger above balances by
        # construction; this bound is what catches a faulty queue kernel.  The
        # slack covers rounding in q0 + A (at most the cumulative arrivals)
        # and in the offered service (at most the epoch length).
        slack = tol + CONSERVATION_TOL * length
        if (np.minimum.reduce(served) < -slack
                or np.maximum.reduce(served - offered) > slack):
            raise InvariantViolation(
                f"departures outside [0, offered service] at epoch {j}")

        if config.algorithm == "sched1":
            new_drive = update_diminishing(drive, lam_hat, s_hat, j)
            new_rates = None
        elif config.algorithm == "sched2":
            new_drive = update_projected(drive, lam_hat, s_hat, config.epsilon,
                                         step, n)
            box = n / config.epsilon
            if (np.abs(new_drive) > box).any():
                raise InvariantViolation(f"projection box violated at epoch {j}")
            new_rates = None
        elif config.algorithm == "cc1":
            new_drive = update_prices_diminishing(drive, cc_rates, s_hat, j)
            new_rates = best_responses(config.utilities, beta, new_drive)
        else:  # cc2
            new_drive = update_prices_constant(drive, cc_rates, s_hat, step)
            if (new_drive < -1e-12).any() or (new_drive > price_box + 1e-9).any():
                raise InvariantViolation(
                    f"price box [0, {price_box:.6g}] violated at epoch {j}: "
                    f"max price {new_drive.max():.6g}")
            if couple:
                slack = 1e-6 * (1.0 + queue_cap)
                coupling = (length / step) * new_drive
                if (qstate.queue > coupling + slack).any():
                    raise InvariantViolation(
                        f"queue/price coupling violated at epoch {j}")
                if (peak > queue_cap + slack).any():
                    raise InvariantViolation(
                        f"queue cap {queue_cap:.6g} violated at epoch {j}")
            new_rates = best_responses(config.utilities, beta, new_drive)

        if congestion:
            weighted_rates = weighted_rates + length * cc_rates
            avg_rates = weighted_rates / now
            avg_utility = total_utility(config.utilities, avg_rates)
        else:
            avg_rates = None
            avg_utility = None

        yield MetricsRecord(
            j=j,
            epoch_start=now - length,
            epoch_length=float(length),
            drive=tuple(drive.tolist()),  # float64 arrays, so Python floats
            arrival_rate_est=tuple(lam_hat.tolist()),
            offered_service_est=tuple(s_hat.tolist()),
            actual_service_rate=tuple(actual.tolist()),
            queue=tuple(qstate.queue.tolist()),
            departed=tuple(qstate.departed.tolist()),
            peak_queue=tuple(peak.tolist()),
            max_queue_ratio=float(np.maximum.reduce(qstate.queue)) / now,
            rates=None if cc_rates is None else tuple(cc_rates.tolist()),
            avg_rates=None if avg_rates is None else tuple(avg_rates.tolist()),
            avg_rate_utility=avg_utility,
        )
        drive = new_drive
        if congestion:
            cc_rates = new_rates
