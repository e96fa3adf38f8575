"""Fitness assignment from engagement outcomes, plus the (score, cost) Pareto front."""

from __future__ import annotations

import statistics
from typing import Mapping, Sequence

from ..engagement import EngagementOutcome


_AGGREGATORS = {
    "mean": statistics.fmean,
    "max": max,
    "min": min,
    "median": statistics.median,
}


def population_variance(values: Sequence[float]) -> float:
    """``statistics.pvariance(values)``, bit for bit, for one or more finite floats.

    Each value is written as an integer over a common power of two D, so the
    variance is the exact ratio ``(n*SXX - SX*SX) / (n*n*D*D)``. Int true
    division rounds it correctly, as pvariance does its exact Fraction, but
    without building one. An infinity or a NaN goes to pvariance itself.
    """
    try:
        ratios = [value.as_integer_ratio() for value in values]
    except (OverflowError, ValueError):
        return statistics.pvariance(values)
    scale = max(denominator for _, denominator in ratios)
    scaled = [numerator * (scale // denominator) for numerator, denominator in ratios]
    n = len(scaled)
    total = sum(scaled)
    return (n * sum(x * x for x in scaled) - total * total) / (n * n * scale * scale)


def assign_fitness(
    outcomes: Mapping[int, Sequence[EngagementOutcome]],
    aggregation: str,
    role: str,
    *,
    secondary_weight: float = 0.0,
) -> dict[int, float]:
    """Aggregate each individual's effective scores into one fitness value.

    outcomes maps an individual's index to the engagements it took part in,
    on the side of ``role``; the result has the same keys. An engagement o's
    effective score is ``o.score_for(role) - secondary_weight * o.cost_for(role)``.
    """
    if aggregation not in _AGGREGATORS:
        raise ValueError(f"unknown aggregation {aggregation!r}")
    aggregate = _AGGREGATORS[aggregation]
    return {
        index: float(aggregate([o.score_for(role) - secondary_weight * o.cost_for(role) for o in own]))
        for index, own in outcomes.items()
    }


def pareto_front(points: Sequence[tuple[float, float]]) -> list[int]:
    """Indices of the nondominated (score, cost) points, ascending.

    Score is maximised and cost minimised. Duplicates all survive.
    """
    return [
        i
        for i, (score, cost) in enumerate(points)
        if not any(s >= score and c <= cost and (s > score or c < cost) for s, c in points)
    ]
