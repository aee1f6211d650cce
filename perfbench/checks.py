"""Output checks for benchmark operations.

Every check raises CheckFailed with a one-line reason; the reason's first
word is the failure kind the run reports ("non-finite" or "check").
"""
from __future__ import annotations

import json
import math

import numpy as np


class CheckFailed(Exception):
    pass


def _reject_constant(token: str):
    raise CheckFailed(f"non-finite JSON: {token}")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite JSON: {token}")
    return value


def strict_json(text: str):
    """Parse JSON that may hold only finite numbers (no NaN, Infinity, 1e999)."""
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"check: output is not JSON: {exc}") from None


def strict_jsonl(text: str) -> list:
    return [strict_json(line) for line in text.splitlines()]


def check_epochs(records: list, horizon: int) -> None:
    if [rec["j"] for rec in records] != list(range(1, horizon + 1)):
        raise CheckFailed(f"check: expected epochs 1..{horizon}, got {len(records)} records")


def check_sched2(records: list, summary: dict, n: int, epsilon: float) -> None:
    """Every drive inside the +-n/eps projection box; admissible load; stable queues."""
    box = n / epsilon
    for rec in records:
        if max(abs(v) for v in rec["drive"]) > box:
            raise CheckFailed(f"check: drive outside the +-{box:g} box at epoch {rec['j']}")
    certificates = summary.get("certificates") or {}
    if certificates.get("admissible") is not True:
        raise CheckFailed("check: summary does not report admissible: true")
    _check_queue_ratio(records)


def check_cc2(records: list, beta: float, alpha: float, slope: float, length: float) -> None:
    """A09's price box, queue cap and queue/price coupling, re-run from the JSONL."""
    price_cap = beta * slope + alpha
    queue_cap = length * (beta * slope + 2.0 * alpha) / alpha
    for rec in records:
        if min(rec["drive"]) < 0.0 or max(rec["drive"]) > price_cap:
            raise CheckFailed(f"check: price outside [0, {price_cap:g}] at epoch {rec['j']}")
        if max(rec["peak_queue"]) > queue_cap:
            raise CheckFailed(f"check: queue above the cap {queue_cap:g} at epoch {rec['j']}")
    # backlog at an epoch boundary is capped by the price computed there,
    # which is the drive the next record carries
    coupling = length / alpha
    for rec, nxt in zip(records, records[1:]):
        if any(q > coupling * r + 1e-9 for q, r in zip(rec["queue"], nxt["drive"])):
            raise CheckFailed(f"check: queue/price coupling broken after epoch {rec['j']}")


def check_oracle(records: list, fitted_drive: np.ndarray) -> None:
    """A06's oracle leg: the final drive sits within 0.1 of the exact fit."""
    error = float(np.abs(np.asarray(records[-1]["drive"]) - fitted_drive).max())
    if error > 0.1:
        raise CheckFailed(f"check: final drive is {error:.3g} from the fitted drive")
    _check_queue_ratio(records)


def _check_queue_ratio(records: list) -> None:
    ratio = records[-1]["max_queue_ratio"]
    if ratio > 0.05:
        raise CheckFailed(f"check: final max_queue_ratio {ratio:.3g} > 0.05")


def check_analyze(report: dict, edges: set, rates: float | None,
                  admissible: bool | None) -> None:
    """Admissibility as expected, exact fit at admissible loads, gap within its bound."""
    got = {tuple(sorted(e)) for e in report["graph"]["edges"]}
    if got != edges:
        raise CheckFailed("check: report describes another graph")
    if rates is not None:
        verdict = report["admissibility"]["admissible"]
        if verdict is not admissible:
            raise CheckFailed(f"check: admissible is {verdict}, expected {admissible}")
        if admissible:
            error = max(abs(s - rates) for s in report["service_at_fit"])
            if error > 1e-8:
                raise CheckFailed(f"check: service_at_fit is {error:.3g} from lambda")
    else:
        gap, bound = report["utility_gap"], report["utility_gap_bound"]
        if not gap <= bound:
            raise CheckFailed(f"check: utility_gap {gap:.6g} > bound {bound:.6g}")
