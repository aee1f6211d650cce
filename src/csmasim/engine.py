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
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .chain import DRIVE_LIMIT, simulate
from .conflict_graph import ConflictGraph, enumerate_independent_sets
from .congestion import (UtilityFunction, best_responses, default_beta,
                         initial_slope_bound, price_box_bound, total_utility,
                         update_prices_constant, update_prices_diminishing)
from .errors import ConfigError, InvariantViolation, NumericFailure
from .gibbs import service_rates
from .scheduling import (constant_step_plan, epoch_params, update_diminishing,
                         update_projected)
from .traffic import (ArrivalSpec, QueueState, integrate_epoch, reflect,
                      sample_epoch_arrivals)

ALGORITHMS = ("sched1", "sched2", "cc1", "cc2")
MODES = ("stochastic", "deterministic-oracle")
ORACLE = "deterministic-oracle"
CONSERVATION_TOL = 1e-9


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: graph, algorithm, workload, horizon, overrides.

    Scheduling algorithms need an arrival spec; congestion algorithms need
    one utility per node and generate their own (controlled) arrivals.
    epoch_length/step override the published schedules, which is the only
    practical choice for the constant-step rules at desk scale.
    """

    graph: ConflictGraph
    algorithm: str
    horizon: int
    arrivals: ArrivalSpec | None = None
    utilities: tuple[UtilityFunction, ...] | None = None
    mode: str = "stochastic"
    seed: int | None = None
    epoch_length: int | None = None
    step: float | None = None
    epsilon: float | None = None
    beta: float | None = None
    theta_multiplier: float = 1.0
    initial_queue: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; choices {ALGORITHMS}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choices {MODES}")
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise ConfigError("horizon must be a positive integer epoch count")
        n = self.graph.n
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
        if self.algorithm == "sched2" and (self.epsilon is None or self.epsilon <= 0):
            raise ConfigError("sched2 needs a positive slack epsilon")
        if self.algorithm == "cc2" and (self.step is None or self.step <= 0):
            raise ConfigError("cc2 needs a positive step override")
        if self.algorithm in ("sched1", "cc1") and self.step is not None:
            raise ConfigError(f"{self.algorithm} steps by 1/j; step cannot be overridden")
        if self.epoch_length is not None and (
                not isinstance(self.epoch_length, int) or self.epoch_length < 1):
            raise ConfigError("epoch_length override must be a positive integer")
        if self.seed is not None and (not isinstance(self.seed, int) or self.seed < 0):
            raise ConfigError("seed must be a nonnegative integer")
        if self.initial_queue is not None:
            q0 = tuple(float(v) for v in self.initial_queue)
            if len(q0) != n or any(v < 0 or not math.isfinite(v) for v in q0):
                raise ConfigError(f"initial_queue needs {n} finite nonnegative entries")
            object.__setattr__(self, "initial_queue", q0)

    @property
    def is_congestion(self) -> bool:
        return self.algorithm in ("cc1", "cc2")

    def resolved_beta(self) -> float:
        if self.beta is not None:
            if self.beta <= 0:
                raise ConfigError("beta must be positive")
            return float(self.beta)
        if self.epsilon is not None and self.epsilon > 0:
            return default_beta(self.graph.n, self.epsilon)
        raise ConfigError("congestion runs need beta (or epsilon for the 4n/eps default)")

    def resolved_constant_epoch(self) -> int:
        """Fixed epoch length for sched2: the override, else the published value."""
        if self.epoch_length is not None:
            return self.epoch_length
        plan = constant_step_plan(self.graph.n, self.epsilon,
                                  c=self.theta_multiplier)
        if not math.isfinite(plan.epoch_length) or plan.epoch_length > 1e8:
            raise ConfigError(
                "published constant-step epoch length is out of desk range "
                f"({plan.epoch_length:.3g}); set an epoch_length override")
        return math.ceil(plan.epoch_length)


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
            values = getattr(self, name)
            if not all(math.isfinite(v) for v in values):
                raise InvariantViolation(f"non-finite {name} in epoch {self.j}")
        if not math.isfinite(self.max_queue_ratio):
            raise InvariantViolation(f"non-finite max_queue_ratio in epoch {self.j}")

    def to_json_dict(self) -> dict:
        out = {
            "j": self.j,
            "epoch_start": self.epoch_start,
            "epoch_length": self.epoch_length,
            "drive": list(self.drive),
            "arrival_rate_est": list(self.arrival_rate_est),
            "offered_service_est": list(self.offered_service_est),
            "actual_service_rate": list(self.actual_service_rate),
            "queue": list(self.queue),
            "departed": list(self.departed),
            "peak_queue": list(self.peak_queue),
            "max_queue_ratio": self.max_queue_ratio,
            "rates": None if self.rates is None else list(self.rates),
            "avg_rates": None if self.avg_rates is None else list(self.avg_rates),
            "avg_rate_utility": self.avg_rate_utility,
        }
        return out


def run_experiment(config: ExperimentConfig, seed: int | None = None
                   ) -> Iterator[MetricsRecord]:
    """Stream one MetricsRecord per epoch; deterministic given (config, seed)."""
    graph = config.graph
    n = graph.n
    oracle = config.mode == ORACLE
    run_seed = seed if seed is not None else config.seed
    if not oracle and run_seed is None:
        raise ConfigError("stochastic runs need a seed")
    if run_seed is not None and run_seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    family = enumerate_independent_sets(graph) if oracle else None
    congestion = config.is_congestion
    drive = np.zeros(n)
    cc_rates = np.ones(n) if congestion else None
    beta = config.resolved_beta() if congestion else None
    if config.algorithm == "sched2":
        fixed_length = config.resolved_constant_epoch()
        if config.step is not None:
            step = config.step
        else:
            step = constant_step_plan(n, config.epsilon, peak=config.arrivals.peak,
                                      c=config.theta_multiplier).step
    elif config.algorithm == "cc2":
        step = config.step
        if config.epoch_length is not None:
            fixed_length = config.epoch_length
        else:
            raise ConfigError("cc2 needs an epoch_length override at desk scale")
    else:
        step = None
        fixed_length = config.epoch_length  # optional fixed override for 1/j rules

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

    for j in range(1, config.horizon + 1):
        if not np.all(np.isfinite(drive)) or np.any(np.abs(drive) > DRIVE_LIMIT):
            raise NumericFailure(f"drive vector overflow entering epoch {j}: "
                                 f"max |drive| = {np.abs(drive).max():.3g}")
        if config.algorithm in ("sched1", "cc1"):
            length, _ = epoch_params(j)
            if fixed_length is not None:
                length = fixed_length
        else:
            length = fixed_length

        if oracle:
            s_hat = service_rates(family, drive)
            lam_hat = cc_rates if congestion else config.arrivals.rates
            arrivals = lam_hat * length
            offered = s_hat * length
            served, peak = reflect(qstate, (arrivals - offered)[None, :], None,
                                   arrivals, length)
        else:
            chain_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=run_seed, spawn_key=(j, 0)))
            arr_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=run_seed, spawn_key=(j, 1)))
            traj = simulate(graph, drive, float(length), initial_mask=mask,
                            rng=chain_rng)
            mask = traj.final_mask
            if congestion:
                deposits = None
                inflow = cc_rates
                arrivals = cc_rates * length
            else:
                deposits = sample_epoch_arrivals(config.arrivals, length, arr_rng)
                inflow = None
                arrivals = deposits.sum(axis=0)
            stats = integrate_epoch(qstate, traj, deposits=deposits, inflow=inflow)
            served, peak, offered = (stats.actual_service, stats.peak_queue,
                                     stats.offered_service)
            lam_hat = arrivals / length
            s_hat = offered / length
        actual = served / length

        now += length
        tol = CONSERVATION_TOL * (1.0 + float(qstate.arrived.max()))
        err = qstate.conservation_error()
        if err > tol:
            raise InvariantViolation(f"queue conservation off by {err:.3e} at epoch {j}")
        # Departures are q0 + A - Q, so the ledger above balances by
        # construction; this bound is what catches a faulty queue kernel.  The
        # slack covers rounding in q0 + A (at most the cumulative arrivals)
        # and in the offered service (at most the epoch length).
        slack = tol + CONSERVATION_TOL * length
        if served.min() < -slack or (served - offered).max() > slack:
            raise InvariantViolation(
                f"departures outside [0, offered service] at epoch {j}")

        if config.algorithm == "sched1":
            new_drive = update_diminishing(drive, lam_hat, s_hat, j)
            new_rates = None
        elif config.algorithm == "sched2":
            new_drive = update_projected(drive, lam_hat, s_hat, config.epsilon,
                                         step, n)
            box = n / config.epsilon
            if np.any(np.abs(new_drive) > box):
                raise InvariantViolation(f"projection box violated at epoch {j}")
            new_rates = None
        elif config.algorithm == "cc1":
            new_drive = update_prices_diminishing(drive, cc_rates, s_hat, j)
            new_rates = best_responses(config.utilities, beta, new_drive)
        else:  # cc2
            new_drive = update_prices_constant(drive, cc_rates, s_hat, step)
            if np.any(new_drive < -1e-12) or np.any(new_drive > price_box + 1e-9):
                raise InvariantViolation(
                    f"price box [0, {price_box:.6g}] violated at epoch {j}: "
                    f"max price {new_drive.max():.6g}")
            if couple:
                slack = 1e-6 * (1.0 + queue_cap)
                coupling = (length / step) * new_drive
                if np.any(qstate.queue > coupling + slack):
                    raise InvariantViolation(
                        f"queue/price coupling violated at epoch {j}")
                if np.any(peak > queue_cap + slack):
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
            drive=tuple(float(v) for v in drive),
            arrival_rate_est=tuple(float(v) for v in lam_hat),
            offered_service_est=tuple(float(v) for v in s_hat),
            actual_service_rate=tuple(float(v) for v in actual),
            queue=tuple(float(v) for v in qstate.queue),
            departed=tuple(float(v) for v in qstate.departed),
            peak_queue=tuple(float(v) for v in peak),
            max_queue_ratio=float(qstate.queue.max()) / now,
            rates=None if cc_rates is None else tuple(float(v) for v in cc_rates),
            avg_rates=None if avg_rates is None else tuple(float(v) for v in avg_rates),
            avg_rate_utility=avg_utility,
        )
        drive = new_drive
        if congestion:
            cc_rates = new_rates
