"""Reference identities that only the tests use.

None of these is on a path that `csmasim run`, `csmasim analyze` or the
scripts take; they are the independent side of the checks.  Occupancy
measures of a sampled trajectory and the total-variation distance judge the
sampler against the product-form law (A04).  The entropy/KL identities say
that the fit objective and the variational gap agree with the exact law
(A10).  The box potential of the constant-step rule is what projection must
never decrease (A07).  The per-node double loop over schedules is the
reference for the generator that `chain.ctmc_generator` scatters from its
clock table.  The fit objective and the congestion dual, with their
derivatives, are written out here; the solvers evaluate them inline through
`gibbs.moments`, which the likelihood calculus below reads (A02).  The
Frank-Wolfe optimum that bisects its step a full 80 times on numpy scalars is
the bit-for-bit reference of `congestion.solve_utility_optimum`.  The
backtracking enumerator, one recursive call per independent set, is the
reference of the doubling in `conflict_graph.enumerate_independent_sets`.
The queue kernel that holds each block as (breakpoint, node) rows is the
bit-for-bit reference of the node-major `traffic.reflect` and
`traffic.integrate_epoch`; one `traffic.reflect` call per epoch is the
reference of the oracle's block kernel `traffic.reflect_epochs`; and the
walk that takes one (wait, pick) pair from a generator per event is the
reference of `chain._walk_table`.
`strict_json` parses the commands' JSON the way a strict reader would.
`service_rates_spelled_out` writes the Gibbs law's marginals out in the
numpy operations `gibbs` has always used; it is the bit-for-bit reference of
the unchecked law that an oracle epoch calls.  The oracle loop that checks
(through the ledger's `conservation_error`), updates, records and checks the
record's fields are finite one epoch before starting the next is the
bit-for-bit reference, records and faults alike, of `engine.run_experiment`,
which checks and publishes oracle epochs in blocks.
"""

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from csmasim import engine, traffic
from csmasim.chain import ClockTable, Trajectory
from csmasim.conflict_graph import (FAMILY_CAP, ConflictGraph, IndependentSetFamily,
                                    max_weight_independent_set, schedule_nodes)
from csmasim.congestion import (UTILITY_MAX_ITER, UTILITY_TOL, UtilityFunction,
                                UtilityOptimum, best_response, best_responses,
                                initial_slope_bound, total_utility)
from csmasim.engine import CONSERVATION_TOL, MetricsRecord
from csmasim.errors import (ConvergenceFailure, ExactModeUnavailable, InvariantViolation,
                            NumericFailure)
from csmasim.gibbs import (BackoffSolution, moments, service_rates, solve_backoff,
                           stationary_distribution)
from csmasim.scheduling import published_epoch_length


def strict_json(text: str):
    """Parse JSON that must hold no Infinity or NaN."""
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


# -- the schedule family --------------------------------------------------------

def row_of(family: IndependentSetFamily, mask: int) -> int:
    """Row of a schedule in the family; raises KeyError for a mask it lacks."""
    row = int(np.searchsorted(family.masks, mask))
    if row == family.size or family.masks[row] != mask:
        raise KeyError(mask)
    return row


def enumerate_independent_sets_recursive(graph: ConflictGraph) -> tuple[np.ndarray, np.ndarray]:
    """Masks and membership matrix by backtracking, nodes added in increasing index."""
    nbr = graph.neighbor_masks
    found: list[int] = []

    def extend(mask: int, candidates: int) -> None:
        found.append(mask)
        if len(found) > FAMILY_CAP:
            raise ExactModeUnavailable(f"more than {FAMILY_CAP} independent sets (the family cap)")
        rest = candidates
        while rest:
            bit = rest & -rest
            rest ^= bit  # rest now holds only larger indices
            extend(mask | bit, rest & ~nbr[bit.bit_length() - 1])

    extend(0, (1 << graph.n) - 1)
    found.sort()
    masks = np.array(found, dtype=np.int64)
    matrix = np.array([[mask >> i & 1 for i in range(graph.n)] for mask in found],
                      dtype=float)
    return masks, matrix


# -- occupancy of a sampled trajectory ------------------------------------------

def segments(traj: Trajectory):
    """Yield (t0, t1, mask) pieces covering [0, duration)."""
    mask = traj.initial_mask
    t0 = 0.0
    for t, node in zip(traj.times.tolist(), traj.nodes.tolist()):
        if t > t0:
            yield t0, t, mask
        mask ^= 1 << node  # each event flips its node
        t0 = t
    if traj.duration > t0:
        yield t0, traj.duration, mask


@dataclass(frozen=True)
class Occupancy:
    busy_fraction: np.ndarray
    mask_fractions: dict[int, float]


def occupancy(traj: Trajectory) -> Occupancy:
    """Time fractions per schedule and per node, from the segment walk."""
    if traj.duration <= 0:
        raise ValueError("occupancy needs a positive duration")
    per_mask: dict[int, float] = {}
    for t0, t1, mask in segments(traj):
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
        out[row_of(family, mask)] = frac
    return out


def tv_distance(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * float(np.abs(p - q).sum())


# -- the table walk, one draw per event --------------------------------------------

def clock_draw_pairs(rng: np.random.Generator):
    """Yield (unit exponential wait, uniform pick) pairs, drawn 1 024 of each at a time."""
    while True:
        yield from zip(rng.standard_exponential(1024).tolist(), rng.random(1024).tolist())


def walk_table_per_event(table: ClockTable, r, duration: float, initial_mask: int,
                         rng: np.random.Generator):
    """(times, nodes, final_mask) of the direct method, calling next() per event."""
    draws = clock_draw_pairs(rng)
    cum = np.cumsum(table.clock_rates(np.asarray(r, dtype=float)), axis=1)
    sums_of = [None] * len(cum)
    jumps = table.jumps
    row = int(np.searchsorted(table.family.masks, initial_mask))
    t = 0.0
    ev_times: list[float] = []
    ev_nodes: list[int] = []
    while True:
        sums = sums_of[row]
        if sums is None:
            sums = sums_of[row] = cum[row].tolist()
        total = sums[-1]
        if total == 0.0:
            break
        wait, pick = next(draws)
        t += wait / total
        if t >= duration:
            break
        node = bisect.bisect_right(sums, pick * total)
        row = jumps[row][node]
        if row < 0:
            raise InvariantViolation(f"node {node} started against a busy neighbor")
        ev_times.append(t)
        ev_nodes.append(node)
    return ev_times, ev_nodes, int(table.family.masks[row])


# -- the chain's generator, one clock at a time ----------------------------------

def ctmc_generator_loop(family: IndependentSetFamily, r) -> np.ndarray:
    """Generator from a double loop over schedules and nodes."""
    r = np.asarray(r, dtype=float)
    gen = np.zeros((family.size, family.size))
    nbr = family.graph.neighbor_masks
    with np.errstate(over="raise"):
        start_rate = np.exp(r)
    for row, mask in enumerate(family.masks.tolist()):
        for i in range(family.n):
            bit = 1 << i
            if mask & bit:
                gen[row, row_of(family, mask ^ bit)] = 1.0
            elif not mask & nbr[i] and start_rate[i] > 0:
                gen[row, row_of(family, mask | bit)] = start_rate[i]
        gen[row, row] = -gen[row].sum()
    return gen


# -- the law ----------------------------------------------------------------------

def service_rates_spelled_out(matrix: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Energy, max-shift, log Z, probabilities, marginals, in that order."""
    energy = matrix @ r
    peak = float(np.maximum.reduce(energy))
    logz = peak + math.log(float(np.add.reduce(np.exp(energy - peak))))
    return np.exp(energy - logz) @ matrix


# -- the fit objective and the congestion dual -----------------------------------

def log_likelihood(family: IndependentSetFamily, r, rates) -> float:
    """rates . r - log Z(r); concave in r, maximized where s(r) = rates."""
    rates = np.asarray(rates, dtype=float)
    return float(rates @ np.asarray(r, dtype=float)) - moments(family, r)[0]


def log_likelihood_gradient(family: IndependentSetFamily, r, rates) -> np.ndarray:
    return np.asarray(rates, dtype=float) - moments(family, r)[1]


def log_likelihood_hessian(family: IndependentSetFamily, r) -> np.ndarray:
    """Negated covariance of the schedule indicator vector; symmetric, negative definite."""
    return -moments(family, r)[2]()


def best_response_value(u: UtilityFunction, beta: float, price: float) -> float:
    """max over y in [0,1] of beta*U(y) - price*y."""
    y = best_response(u, beta, price)
    return beta * u.value(y) - price * y


def dual_value(family: IndependentSetFamily, utilities, beta: float, prices) -> float:
    """log partition at the prices plus the summed best-response values."""
    prices = np.asarray(prices, dtype=float)
    inner = sum(best_response_value(u, beta, p)
                for u, p in zip(utilities, prices, strict=True))
    return float(stationary_distribution(family, prices).log_partition + inner)


def dual_gradient(family: IndependentSetFamily, utilities, beta: float, prices
                  ) -> np.ndarray:
    """service_rates(prices) - best_responses(prices); both maximizers unique."""
    prices = np.asarray(prices, dtype=float)
    return service_rates(family, prices) - best_responses(utilities, beta, prices)


def clique2_log_gap(beta: float) -> float:
    """Exact utility gap of the dual's rates on clique2 with log(1 + y) utilities.

    By symmetry both prices equal p, where the service e^p / (1 + 2 e^p) meets
    the demand beta/p - 1, so the rates beta/p fall short of the optimum
    (1/2, 1/2) by 2 log(1.5 p / beta) in utility.  p comes from bisection
    between beta/1.5 (demand 1/2) and beta (demand 0).
    """
    lo, hi = beta / 1.5, beta
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 / (2.0 + math.exp(-mid)) > beta / mid - 1.0:
            hi = mid
        else:
            lo = mid
    return 2.0 * math.log(1.5 * lo / beta)


def utility_optimum_full_bisection(family: IndependentSetFamily, utilities
                                   ) -> UtilityOptimum:
    """Away-step Frank-Wolfe whose line search always makes 80 bisection passes."""
    matrix = family.matrix
    start = family.size - 1
    weights = {start: 1.0}
    lam = matrix[start].copy()

    def grad(point):
        return np.array([u.derivative(y) for u, y in zip(utilities, point, strict=True)])

    def line_search(point, direction, gamma_max):
        def slope(gamma):
            moved = point + gamma * direction
            return float(np.dot(grad(moved), direction))
        if slope(gamma_max) >= 0.0:
            return gamma_max
        lo, hi = 0.0, gamma_max
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    gap = math.inf
    for it in range(1, UTILITY_MAX_ITER + 1):
        g = grad(lam)
        fw_row, _ = max_weight_independent_set(family, g)
        gap = float(np.dot(g, matrix[fw_row] - lam))
        if gap <= UTILITY_TOL:
            return UtilityOptimum(rates=lam, value=total_utility(utilities, lam), gap=gap,
                                  weights={int(family.masks[k]): w for k, w in weights.items()},
                                  iterations=it)
        away_row = max(weights, key=lambda k: -float(np.dot(g, matrix[k])))
        away_gap = float(np.dot(g, lam - matrix[away_row]))
        if gap >= away_gap:
            direction = matrix[fw_row] - lam
            gamma = line_search(lam, direction, 1.0)
            if gamma >= 1.0:
                weights = {fw_row: 1.0}
            else:
                weights = {k: w * (1.0 - gamma) for k, w in weights.items()}
                weights[fw_row] = weights.get(fw_row, 0.0) + gamma
        else:
            w_away = weights[away_row]
            direction = lam - matrix[away_row]
            gamma = line_search(lam, direction, w_away / (1.0 - w_away))
            weights = {k: w * (1.0 + gamma) for k, w in weights.items()}
            weights[away_row] -= gamma
        weights = {k: w for k, w in weights.items() if w > 1e-15}
        total = sum(weights.values())
        weights = {k: w / total for k, w in weights.items()}
        lam = np.zeros(family.n)
        for k, w in weights.items():
            lam += w * matrix[k]
    raise ConvergenceFailure(f"reference optimum hit the iteration cap at gap {gap:.3e}")


# -- entropy, KL and the variational identities ---------------------------------

def entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def kl_divergence(p, q) -> float:
    """KL(p || q); +inf when p charges a point q does not."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must share a support enumeration")
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def _check_distribution(family: IndependentSetFamily, mu) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (family.size,):
        raise ValueError(f"distribution must have shape ({family.size},)")
    if np.any(mu < -1e-12) or abs(float(mu.sum()) - 1.0) > 1e-8:
        raise ValueError("distribution must be nonnegative and sum to 1")
    return np.maximum(mu, 0.0)


def variational_gap(family: IndependentSetFamily, mu, r) -> float:
    """log Z(r) - (E_mu[sigma . r] + H(mu)); zero exactly at the stationary law.

    Equals KL(mu || P_r), so it is nonnegative and vanishes only at mu = P_r.
    """
    mu = _check_distribution(family, mu)
    logz = stationary_distribution(family, r).log_partition  # validates r
    energy = family.matrix @ np.asarray(r, dtype=float)
    return logz - (float(mu @ energy) + entropy(mu))


def decomposition_identity_value(family: IndependentSetFamily, weights, r) -> float:
    """-KL(weights || P_r) - H(weights): equals L(r) for any exact decomposition.

    For any schedule mixture `weights` whose node marginals are `rates`, the
    likelihood L(r) = rates . r - log Z(r) can be rewritten this way; used to
    cross-check LP-produced decompositions.
    """
    weights = _check_distribution(family, weights)
    pi = stationary_distribution(family, r)
    return -kl_divergence(weights, pi.probs) - entropy(weights)


# -- potential of the constant-step rule ----------------------------------------
#
# The fit objective at the slack-padded rates minus the squared distance to its
# maximizer.  It is negative on the box [-n/eps, n/eps]^n, bounded below by
# -16 n^3 / eps^2, and never decreases when a step is clipped back onto the box.

def fitted_reference(family: IndependentSetFamily, rates, epsilon: float
                     ) -> BackoffSolution:
    """Maximizer of the fit objective at the slack-padded rates."""
    if epsilon <= 0:
        raise ValueError("slack epsilon must be positive")
    return solve_backoff(family, np.asarray(rates, float) + epsilon)


def lyapunov_potential(family: IndependentSetFamily, r, rates, epsilon: float,
                       *, reference: BackoffSolution | None = None) -> float:
    """Fit objective at rates+eps minus squared distance to its maximizer.

    Pass a precomputed reference to avoid re-solving inside per-epoch loops.
    """
    r = np.asarray(r, dtype=float)
    if reference is None:
        reference = fitted_reference(family, rates, epsilon)
    padded = np.asarray(rates, float) + epsilon
    value = log_likelihood(family, r, padded)
    return float(value - np.sum((r - reference.r) ** 2))


def potential_lower_bound(n: int, epsilon: float) -> float:
    """-16 n^3 / eps^2, the floor of the potential on the projection box."""
    if epsilon <= 0:
        raise ValueError("slack epsilon must be positive")
    return -16.0 * n ** 3 / epsilon ** 2


# -- the queue kernel over (breakpoint, node) rows ----------------------------------

def reflect_row_major(state, net, jumps, arrived):
    """`traffic.reflect` with (m, n) blocks; `arrived` includes the jumps' total."""
    q0 = state.queue
    x = q0 + net
    if jumps is not None:
        x += np.cumsum(jumps, axis=0) - jumps
    low = np.minimum.accumulate(x, axis=0)
    np.minimum(low, 0.0, out=low)
    if jumps is not None:
        x += jumps
    x -= low
    queue = x[-1].copy()
    departed = q0 + arrived - queue
    state.queue = queue
    state.arrived = state.arrived + arrived
    state.departed = state.departed + departed
    return departed, np.maximum(q0, np.maximum.reduce(x))


def integrate_epoch_row_major(state, traj: Trajectory, *, deposits=None, inflow=None):
    """`traffic.integrate_epoch` with (breakpoint, node) rows, blocked the same way."""
    n = traj.n
    duration = traj.duration
    stops = np.array([duration])
    if deposits is not None:
        deposits = np.asarray(deposits, dtype=float)
        stops = np.arange(1.0, int(round(duration)) + 1.0)
    rate = np.zeros(n) if inflow is None else np.asarray(inflow, dtype=float)
    events = traj.times.size
    times = np.concatenate([traj.times, stops])
    order = np.argsort(times, kind="stable")
    busy = np.zeros(n, dtype=bool)
    busy[list(schedule_nodes(traj.initial_mask))] = True
    departed = np.zeros(n)
    offered = np.zeros(n)
    peak = state.queue.copy()
    t0 = 0.0
    rows = max(1, traffic.BLOCK_CELLS // n)
    for lo in range(0, order.size, rows):
        src = order[lo:lo + rows]
        t = times[src]
        end = float(t[-1])
        m = src.size
        on = np.zeros((m + 1, n), dtype=bool)
        on[0] = busy
        hit = np.flatnonzero(src < events)
        on[hit + 1, traj.nodes[src[hit]]] = True
        np.logical_xor.accumulate(on, axis=0, out=on)
        busy = on[m].copy()
        supplied = on[:m] * np.diff(t, prepend=t0)[:, None]
        np.cumsum(supplied, axis=0, out=supplied)
        offered += supplied[-1]
        net = np.multiply.outer(t - t0, rate)
        net -= supplied
        jumps = None
        arrived = rate * (end - t0)
        if deposits is not None:
            dep = np.flatnonzero(src >= events)
            jumps = np.zeros((m, n))
            jumps[dep] = deposits[src[dep] - events]
            arrived += jumps.sum(axis=0)
        out, top = reflect_row_major(state, net, jumps, arrived)
        departed += out
        np.maximum(peak, top, out=peak)
        t0 = end
    return departed, peak, offered


# -- the oracle run, one epoch at a time ---------------------------------------------

def conservation_error(state: traffic.QueueState) -> float:
    """The ledger's largest miss, max_i |arrived_i - departed_i - queue_i|."""
    return float(np.max(np.abs(state.arrived - state.departed - state.queue)))


def oracle_run_per_epoch(config):
    """Yield an oracle run's records as the epoch-by-epoch loop did: each
    epoch's ledger checks, update checks and record before the next epoch.

    Each epoch's queues pass through one `traffic.reflect` call and each
    update through the rule read from `engine`, both looked up at the call,
    so a test can fault this loop at the epoch where it faults the engine.
    """
    n = config.graph.n
    matrix = config.family.matrix
    congestion = config.is_congestion
    beta, step, fixed_length = config.beta, config.step, config.epoch_length
    drive = np.zeros(n)
    cc_rates = np.ones(n) if congestion else None
    qstate = traffic.QueueState.zeros(n)
    if config.initial_queue is not None:
        q0 = np.asarray(config.initial_queue, dtype=float)
        qstate.queue = q0.copy()
        qstate.arrived = q0.copy()
    if config.algorithm == "cc2":
        slope_cap = initial_slope_bound(config.utilities)
        price_box = beta * slope_cap + step
        queue_cap = fixed_length * (beta * slope_cap + 2.0 * step) / step
        couple = config.initial_queue is None or max(config.initial_queue) == 0.0
    now = 0.0
    weighted_rates = np.zeros(n)
    for j in range(1, config.horizon + 1):
        top = np.max(np.abs(drive))
        if not top <= engine.DRIVE_LIMIT:
            raise NumericFailure(f"drive vector overflow entering epoch {j}: "
                                 f"max |drive| = {top:.3g}")
        length = fixed_length if fixed_length is not None else published_epoch_length(j)
        s_hat = service_rates_spelled_out(matrix, drive)
        lam_hat = cc_rates if congestion else config.arrivals.rates
        arrivals = lam_hat * length
        offered = s_hat * length
        served, peak = traffic.reflect(qstate, (arrivals - offered)[:, None], None, arrivals)
        actual = served / length
        now += length
        tol = CONSERVATION_TOL * (1.0 + float(np.max(qstate.arrived)))
        err = conservation_error(qstate)
        if not err <= tol:  # NaN fails it
            raise InvariantViolation(f"queue conservation off by {err:.3e} at epoch {j}")
        slack = tol + CONSERVATION_TOL * length
        if not (np.min(served) >= -slack and np.max(served - offered) <= slack):
            raise InvariantViolation(f"departures outside [0, offered service] at epoch {j}")

        if config.algorithm == "sched1":
            new_drive = engine.update_diminishing(drive, lam_hat, s_hat, j)
        elif config.algorithm == "sched2":
            new_drive = engine.update_projected(drive, lam_hat, s_hat, config.epsilon, step, n)
            if np.any(np.abs(new_drive) > n / config.epsilon):
                raise InvariantViolation(f"projection box violated at epoch {j}")
        elif config.algorithm == "cc1":
            new_drive = np.maximum(engine.update_diminishing(drive, cc_rates, s_hat, j), 0.0)
        else:
            new_drive = engine.update_prices_constant(drive, cc_rates, s_hat, step)
            if np.any(new_drive < -1e-12) or np.any(new_drive > price_box + 1e-9):
                raise InvariantViolation(
                    f"price box [0, {price_box:.6g}] violated at epoch {j}: "
                    f"max price {new_drive.max():.6g}")
            if couple:
                slack = 1e-6 * (1.0 + queue_cap)
                if np.any(qstate.queue > (length / step) * new_drive + slack):
                    raise InvariantViolation(f"queue/price coupling violated at epoch {j}")
                if np.any(peak > queue_cap + slack):
                    raise InvariantViolation(f"queue cap {queue_cap:.6g} violated at epoch {j}")
        new_rates = best_responses(config.utilities, beta, new_drive) if congestion else None

        avg_rates = avg_utility = None
        if congestion:
            weighted_rates = weighted_rates + length * cc_rates
            avg_rates = weighted_rates / now
            avg_utility = total_utility(config.utilities, avg_rates)
        record = MetricsRecord(
            j=j, epoch_start=now - length, epoch_length=float(length),
            drive=tuple(drive.tolist()), arrival_rate_est=tuple(lam_hat.tolist()),
            offered_service_est=tuple(s_hat.tolist()),
            actual_service_rate=tuple(actual.tolist()), queue=tuple(qstate.queue.tolist()),
            departed=tuple(qstate.departed.tolist()), peak_queue=tuple(peak.tolist()),
            max_queue_ratio=float(np.max(qstate.queue)) / now,
            rates=None if cc_rates is None else tuple(cc_rates.tolist()),
            avg_rates=None if avg_rates is None else tuple(avg_rates.tolist()),
            avg_rate_utility=avg_utility)
        # the engine checks these per block; here each record checks its own,
        # in the order a failure names them
        for name in ("drive", "arrival_rate_est", "offered_service_est",
                     "actual_service_rate", "queue", "departed", "peak_queue",
                     "epoch_start", "epoch_length", "max_queue_ratio"):
            if not np.all(np.isfinite(getattr(record, name))):
                raise InvariantViolation(f"non-finite {name} in epoch {j}")
        yield record
        drive = new_drive
        cc_rates = new_rates
