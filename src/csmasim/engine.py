"""Epoch-driven experiment loop tying the chain, queues, and updates together.

Per epoch, three stages: freeze the drive vector (the loop's guard bounds
it), run the medium, and step the drive by the rule.  The medium and the rule
are chosen once per run.  `_medium(config, seed, qstate)` returns the mode's
`epoch(j, drive, rates, length) -> (lam_hat, s_hat)` and its
`settle(lam_hat, s_hat, length) -> (served, offered, peak, queue, departed,
arrived)`, which gives the queues of the epochs run since the last settle as
(epochs, nodes) arrays.  A stochastic epoch runs the chain and passes the
queues through the queue kernel, which measures offered service in the same
pass; its settle stacks what the epochs left.  An oracle epoch takes the
chain's exact expectation and leaves the queues alone: no update rule reads
them, so its settle runs the fluid queues of a whole block in one
`reflect_epochs` call.  `_rule(config)` returns the algorithm's
`(j, drive, rates, lam_hat, s_hat) -> new drive`, which runs the algorithm's
own checks, and cc2's checks of its queues against the new prices, which a
block runs.  `rates` are the requested rates of a congestion run and the
arrival spec's rates of a scheduling run; the oracle takes them as lam_hat.
The queues are settled, and the queue ledger checks, the rule's queue checks
and the metrics records, whose fields must be finite, run, once per block of
BLOCK_EPOCHS epochs: a block of 256 oracle epochs, whose time would
otherwise go to numpy's per-call overhead on a few nodes, and a block of one
stochastic epoch, so stochastic records stream as each epoch ends.  A fault
at epoch j settles the block's queues up to it, still publishes records
1..j-1 first and raises what an epoch-by-epoch loop raises: the guard before
the medium, an epoch's ledger check before its rule's checks (cc2's price
box, coupling, then cap), those before its record's.  The schedule state
carries across epoch boundaries; changing the drive vector never resets the
medium.

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
from typing import Iterator, NamedTuple

import numpy as np

from .chain import DRIVE_LIMIT, TABLE_STATES, clock_table, simulate
from .conflict_graph import (ConflictGraph, IndependentSetFamily,
                             enumerate_independent_sets)
from .congestion import (UtilityFunction, best_responses, entropy_weight,
                         initial_slope_bound, total_utility, update_prices_constant)
from .errors import (ConfigError, ExactModeUnavailable, InvariantViolation,
                     NumericFailure)
from .gibbs import _gibbs_law, service_rates
from .scheduling import (constant_step_plan, published_epoch_length,
                         update_diminishing, update_projected)
from .traffic import (ArrivalSpec, QueueState, integrate_epoch, reflect_epochs,
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
# The most epochs of any run: the largest H with sum_{j <= H} ceil(exp(sqrt(j)))
# <= sys.float_info.max, summed exactly in Python ints, so the engine's float
# clock stays finite on the published lengths (at H + 1 it becomes inf).  On a
# 2-vCPU host at one BLAS thread, an epoch of `csmasim run` at epoch_length 1,
# its JSONL line included, costs ~20 us and ~0.7 KB for oracle sched1 on cycle5
# (~10 s and ~340 MB at the limit), 90-100 us and ~0.4 KB for stochastic sched1
# on single (~50 s, ~190 MB), and 0.7-0.75 ms and 16 KB for stochastic cc2 on a
# 100-node cycle (~6 minutes, ~8 GB).
EPOCH_LIMIT = 493_556
# Epochs whose ledgers are checked and whose records are built together, by
# mode: numpy's per-call overhead on a few nodes outweighs an oracle epoch's
# arithmetic, so a block shares it, while a stochastic epoch's chain costs far
# more than that overhead and its record streams.
BLOCK_EPOCHS = {ORACLE: 256, "stochastic": 1}


def _run_length(horizon: int, epoch_length: int | None) -> int:
    """The sum of the run's epoch lengths, in time units, exact in Python ints."""
    if epoch_length is not None:
        return horizon * epoch_length
    return sum(map(published_epoch_length, range(1, horizon + 1)))


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
    congestion runs: `entropy_weight`'s rule), checks the bounds of the
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
            if self.algorithm == "sched1" and self.epsilon is not None:
                raise ConfigError("sched1 steps by 1/j and reads no epsilon; drop it")
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
        # after resolution, which can underflow the plan's step
        if self.step is not None and not 0 < self.step < math.inf:
            raise ConfigError(f"step must be positive and finite, got {self.step!r}")
        if self.is_congestion:
            object.__setattr__(self, "beta", entropy_weight(n, self.beta, self.epsilon))
        if self.initial_queue is not None:
            q0 = tuple(float(v) for v in self.initial_queue)
            if len(q0) != n or any(v < 0 or not math.isfinite(v) for v in q0):
                raise ConfigError(f"initial_queue needs {n} finite nonnegative entries")
            object.__setattr__(self, "initial_queue", q0)

        if self.horizon > EPOCH_LIMIT:
            raise ConfigError(f"a run takes at most {EPOCH_LIMIT} epochs; shorten the horizon")
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
        # time until an entry passes the float range
        fill = min(((top - q) / c for q, c in zip(self.initial_queue or [0.0] * n, inflow)
                    if c > 0), default=math.inf)
        # within EPOCH_LIMIT at most the largest float, so never past a fill of `top`
        run_length = _run_length(self.horizon, self.epoch_length)
        if run_length > budget:
            raise ConfigError(
                f"nodes x the run's epoch lengths add up to more than {DESK_TIME_LIMIT:g} "
                "node-time units; shorten the horizon or set a shorter epoch_length")
        if run_length > fill:
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
        if self.algorithm == "cc2" and not all(map(math.isfinite, _cc2_bounds(self))):
            # an infinite bound is one that the update checks can never fail
            raise ConfigError(
                "cc2's price box beta V + step and queue cap epoch_length (beta V + 2 step) "
                "/ step must be finite, V = max U'(0); lower beta or V, or raise the step")

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


class MetricsRecord(NamedTuple):
    """One epoch of telemetry; vector fields are per-node tuples.  `_publish`
    checks that the fields from epoch_start to max_queue_ratio are finite."""

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


# the fields a non-finite record can name, in the order it names the first
CHECKED_FIELDS = (*MetricsRecord._fields[3:10], "epoch_start", "epoch_length", "max_queue_ratio")


def _medium(config: ExperimentConfig, seed: int | None, qstate: QueueState):
    """The mode's epoch and block settlement, chosen once per run (module docstring)."""
    if config.mode == ORACLE:
        matrix = config.family.matrix  # an oracle config's family is enumerated

        def oracle_epoch(j, drive, rates, length):
            # the drive is the engine's own (n,) float array, bounded by the guard
            return rates, _gibbs_law(matrix, drive)[0] @ matrix

        def oracle_settle(lam_hat, s_hat, length):
            arrivals = lam_hat * length
            offered = s_hat * length
            served, peak, queue, departed, arrived = reflect_epochs(
                qstate, arrivals - offered, arrivals)
            return served, offered, peak, queue, departed, arrived
        return oracle_epoch, oracle_settle

    if not (_whole(seed) and seed >= 0):  # SeedSequence's entropy
        raise ConfigError(f"stochastic runs need a seed, a nonnegative integer; got {seed!r}")
    # A family small enough to gain from it samples from a clock table; a
    # larger one, or a refusal past exact mode, keeps per-node clocks.
    family = config.family
    table = None
    if isinstance(family, IndependentSetFamily) and family.size <= TABLE_STATES:
        table = clock_table(family)
    mask = 0
    settled: list[tuple] = []  # the queue results of the epoch run since the last settle

    def stochastic_epoch(j, drive, rates, length):
        nonlocal mask
        chain_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j, 0)))
        traj = simulate(config.graph, drive, float(length), initial_mask=mask,
                        rng=chain_rng, table=table)
        mask = traj.final_mask
        if config.is_congestion:
            deposits = None
            inflow = rates
            arrivals = rates * length
        else:
            arr_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j, 1)))
            deposits = sample_epoch_arrivals(config.arrivals, length, arr_rng)
            inflow = None
            arrivals = np.add.reduce(deposits, axis=0)
        served, peak, offered = integrate_epoch(qstate, traj, deposits=deposits, inflow=inflow)
        settled.append((served, offered, peak, qstate.queue, qstate.departed, qstate.arrived))
        return arrivals / length, offered / length

    def stochastic_settle(lam_hat, s_hat, length):
        return [values[None] for values in settled.pop()]  # a block of one epoch
    return stochastic_epoch, stochastic_settle


def _cc2_bounds(config: ExperimentConfig) -> tuple[float, float]:
    """cc2's price box beta V + step, the ceiling update_prices_constant keeps,
    and its queue cap epoch_length (beta V + 2 step) / step."""
    beta_v = config.beta * initial_slope_bound(config.utilities)
    return (beta_v + config.step,
            config.epoch_length * (beta_v + 2.0 * config.step) / config.step)


def _rule(config: ExperimentConfig):
    """The algorithm's update with its own check, chosen once per run (module
    docstring), and the checks of its queues that a block runs, or None."""
    n, epsilon, step = config.graph.n, config.epsilon, config.step
    if config.algorithm == "sched1":
        def rule(j, drive, rates, lam_hat, s_hat):
            return update_diminishing(drive, lam_hat, s_hat, j)
    elif config.algorithm == "cc1":  # sched1's step on prices, projected onto >= 0
        def rule(j, drive, rates, lam_hat, s_hat):
            return np.maximum(update_diminishing(drive, rates, s_hat, j), 0.0)
    elif config.algorithm == "sched2":
        box = n / epsilon

        def rule(j, drive, rates, lam_hat, s_hat):
            new_drive = update_projected(drive, lam_hat, s_hat, epsilon, step, n)
            if np.logical_or.reduce(np.abs(new_drive) > box):
                raise InvariantViolation(f"projection box violated at epoch {j}")
            return new_drive
    else:  # cc2
        price_box, queue_cap = _cc2_bounds(config)

        def rule(j, drive, rates, lam_hat, s_hat):
            new_drive = update_prices_constant(drive, rates, s_hat, step)
            if (np.logical_or.reduce(new_drive < -1e-12)
                    or np.logical_or.reduce(new_drive > price_box + 1e-9)):
                raise InvariantViolation(
                    f"price box [0, {price_box:.6g}] violated at epoch {j}: "
                    f"max price {new_drive.max():.6g}")
            return new_drive

        # the price/queue coupling is an induction from an empty start
        if config.initial_queue is None or max(config.initial_queue) == 0.0:
            slack = 1e-6 * (1.0 + queue_cap)

            def queue_checks(length, queue, peak, new_drive):
                """Per epoch, (failed, what) in the order the checks run."""
                coupling = (length / step) * new_drive
                return ((np.logical_or.reduce(queue > coupling + slack, axis=1),
                         "queue/price coupling violated"),
                        (np.logical_or.reduce(peak > queue_cap + slack, axis=1),
                         f"queue cap {queue_cap:.6g} violated"))
            return rule, queue_checks
    return rule, None


def run_experiment(config: ExperimentConfig, seed: int | None = None) -> Iterator[MetricsRecord]:
    """Stream one MetricsRecord per epoch, published a block at a time
    (BLOCK_EPOCHS); deterministic given the config and seed."""
    n = config.graph.n
    qstate = QueueState.zeros(n)
    if config.initial_queue is not None:
        q0 = np.asarray(config.initial_queue, dtype=float)
        qstate.queue = q0.copy()
        qstate.arrived = q0.copy()  # backlog present at t=0 counts as arrived
    epoch, settle = _medium(config, seed, qstate)
    rule, queue_checks = _rule(config)
    congestion = config.is_congestion
    fixed_length = config.epoch_length
    drive = np.zeros(n)
    rates = np.ones(n) if congestion else config.arrivals.rates
    now = 0.0
    weighted_rates = np.zeros(n)
    block_epochs = BLOCK_EPOCHS[config.mode]
    epochs: list[tuple] = []      # the block's (j, now, length, drive, lam_hat, s_hat)
    new_drives: list[np.ndarray] = []  # the drive each epoch's update returned
    updates: list[tuple] = []     # the same epochs' (rates, avg_rates, avg_utility)

    # The epoch path reduces through ufuncs (np.maximum.reduce,
    # np.logical_or.reduce), not np.all, np.any or the ndarray methods: on a
    # few nodes their Python wrappers cost more than the arithmetic.
    for j in range(1, config.horizon + 1):
        try:
            top = np.maximum.reduce(np.abs(drive))
            if not top <= DRIVE_LIMIT:  # NaN fails it too
                raise NumericFailure(f"drive vector overflow entering epoch {j}: "
                                     f"max |drive| = {top:.3g}")
            # a run without a fixed length follows the published 1/j schedule
            length = fixed_length if fixed_length is not None else published_epoch_length(j)
            lam_hat, s_hat = epoch(j, drive, rates, length)
            now += length
            # every array here is a fresh one, so the block keeps them by reference
            epochs.append((j, now, length, drive, lam_hat, s_hat))
            new_drive = rule(j, drive, rates, lam_hat, s_hat)
            new_drives.append(new_drive)
            if congestion:
                new_rates = best_responses(config.utilities, config.beta, new_drive)
                weighted_rates = weighted_rates + length * rates
                avg_rates = weighted_rates / now
                updates.append((rates, avg_rates, total_utility(config.utilities, avg_rates)))
            else:
                new_rates = rates
                updates.append((None, None, None))
        except Exception:  # the block's earlier epochs are settled and published first
            if epochs:
                yield from _publish(*_settle(epochs, new_drives, settle, queue_checks), updates)
            raise
        if len(epochs) == block_epochs or j == config.horizon:
            yield from _publish(*_settle(epochs, new_drives, settle, queue_checks), updates)
            epochs, new_drives, updates = [], [], []
        drive, rates = new_drive, new_rates


class _Block(NamedTuple):
    """A block's epochs as `_publish` reads them: j and now (the epoch's end)
    per epoch, then (epochs,) lengths and (epochs, nodes) arrays; served is
    departures."""

    j: tuple[int, ...]
    now: tuple[float, ...]
    length: np.ndarray
    drive: np.ndarray
    lam_hat: np.ndarray
    s_hat: np.ndarray
    served: np.ndarray
    offered: np.ndarray
    peak: np.ndarray
    queue: np.ndarray
    departed: np.ndarray
    arrived: np.ndarray


def _settle(epochs: list[tuple], new_drives: list[np.ndarray], settle, queue_checks):
    """Settle a block's queues and run the rule's queue checks on the epochs
    whose update returned; returns the block and those checks' results."""
    js, nows, lengths, drive, lam_hat, s_hat = zip(*epochs)
    lam_hat, s_hat = np.array(lam_hat), np.array(s_hat)
    length = np.array(lengths, dtype=float)  # every length is a float's value
    block = _Block(js, nows, length, np.array(drive), lam_hat, s_hat,
                   *settle(lam_hat, s_hat, length[:, None]))
    if queue_checks is None or not new_drives:
        return block, ()
    u = len(new_drives)
    return block, queue_checks(length[:u, None], block.queue[:u], block.peak[:u],
                               np.array(new_drives))


def _publish(block: _Block, rule_checks, updates: list[tuple]) -> Iterator[MetricsRecord]:
    """Check a block's queue ledgers and records, then yield its updated epochs' records.

    rule_checks: the rule's queue checks, (failed, what) per check, each over
    the block's first epochs.  Records come out in order, and those before the
    first failing epoch come out before it raises, as one epoch at a time
    would have it: an epoch's ledger is checked before its rule's checks,
    those before its record's fields.
    """
    js, nows, length = block.j, block.now, block.length
    # the record's per-node fields (CHECKED_FIELDS[:7]), with departures in
    # place of actual_service_rate until the ledger checks have read them
    vectors = np.array((block.drive, block.lam_hat, block.s_hat, block.served, block.queue,
                        block.departed, block.peak))
    served, queue, departed = vectors[3], vectors[4], vectors[5]
    arrived = block.arrived
    tol = CONSERVATION_TOL * (1.0 + np.maximum.reduce(arrived, axis=1))
    err = np.maximum.reduce(np.abs(arrived - departed - queue), axis=1)
    # Departures are q0 + A - Q, so the ledger balances by construction; the
    # departure bound is what catches a faulty queue kernel.  Its slack covers
    # rounding in q0 + A (at most the cumulative arrivals) and in the offered
    # service (at most the epoch length).  Each test is written to pass only
    # on a number, so a NaN in the queue, the departures or the length fails it.
    slack = tol + CONSERVATION_TOL * length
    unbalanced = ~(err <= tol)
    outside = (~(np.minimum.reduce(served, axis=1) >= -slack)
               | ~(np.maximum.reduce(served - block.offered, axis=1) <= slack))
    failing = unbalanced | outside
    for bad, _ in rule_checks:
        failing[:len(bad)] |= bad
    failed = np.flatnonzero(failing)
    # the first failing epoch is at most the one whose update failed
    count = int(failed[0]) if failed.size else len(updates)

    served /= length[:, None]  # now actual_service_rate
    # the per-node fields are checked for the whole block at once, the three
    # scalar fields (Python floats) as each record is built, which costs a
    # one-epoch block less than a second numpy pass
    finite = np.logical_and.reduce(np.isfinite(vectors), axis=(0, 2)).tolist()
    # float64 arrays, so Python floats
    ratio = (np.maximum.reduce(queue, axis=1) / np.array(nows)).tolist()
    drive, lam_hat, s_hat, actual, queue, departed, peak = vectors.tolist()
    lengths = length.tolist()
    for k in range(count):
        start, epoch_length = nows[k] - lengths[k], lengths[k]
        if not (finite[k] and math.isfinite(start) and math.isfinite(epoch_length)
                and math.isfinite(ratio[k])):
            name = next(name for name, values in zip(
                CHECKED_FIELDS, (*vectors[:, k], start, epoch_length, ratio[k]))
                if not np.isfinite(values).all())
            raise InvariantViolation(f"non-finite {name} in epoch {js[k]}")
        rates, avg_rates, avg_utility = updates[k]
        yield MetricsRecord(
            js[k], start, epoch_length, tuple(drive[k]), tuple(lam_hat[k]), tuple(s_hat[k]),
            tuple(actual[k]), tuple(queue[k]), tuple(departed[k]), tuple(peak[k]), ratio[k],
            None if rates is None else tuple(rates.tolist()),
            None if avg_rates is None else tuple(avg_rates.tolist()), avg_utility)
    if failed.size:
        if unbalanced[count]:
            raise InvariantViolation(
                f"queue conservation off by {float(err[count]):.3e} at epoch {js[count]}")
        if outside[count]:
            raise InvariantViolation(
                f"departures outside [0, offered service] at epoch {js[count]}")
        what = next(what for bad, what in rule_checks if bad[count])
        raise InvariantViolation(f"{what} at epoch {js[count]}")
