"""Fitness assignment from engagement outcomes, plus Pareto utilities."""

from __future__ import annotations

import statistics
from typing import Mapping, Sequence

from ..engagement import EngagementOutcome


class DimensionMismatch(Exception):
    """Outcome vectors disagree on dimensionality."""


_AGGREGATORS = {
    "mean": statistics.fmean,
    "max": max,
    "min": min,
    "median": statistics.median,
}


def aggregate(values: Sequence[float], aggregation: str) -> float:
    return float(_AGGREGATORS[aggregation](values))


def effective_score(outcome: EngagementOutcome, role: str, weight: float) -> float:
    """The role's own score minus weight times the role's own cost."""
    return outcome.score_for(role) - weight * outcome.cost_for(role)


def assign_fitness(
    outcomes: Mapping[int, Sequence[EngagementOutcome]],
    aggregation: str,
    role: str,
    *,
    secondary_weight: float = 0.0,
) -> dict[int, float]:
    """Aggregate each individual's effective scores into one fitness value.

    outcomes maps an individual's index to the engagements it took part in,
    on the side of ``role``; the result has the same keys.
    """
    if aggregation not in _AGGREGATORS:
        raise ValueError(f"unknown aggregation {aggregation!r}")
    return {
        index: aggregate([effective_score(o, role, secondary_weight) for o in own], aggregation)
        for index, own in outcomes.items()
    }


def _adjusted(point: Sequence[float], directions: Sequence[str]) -> tuple[float, ...]:
    return tuple(v if d == "max" else -v for v, d in zip(point, directions))


def dominates(p: Sequence[float], q: Sequence[float], directions: Sequence[str]) -> bool:
    """True when p is at least as good as q everywhere and better somewhere."""
    ap, aq = _adjusted(p, directions), _adjusted(q, directions)
    return all(x >= y for x, y in zip(ap, aq)) and any(x > y for x, y in zip(ap, aq))


def pareto_front(points: Sequence[Sequence[float]], directions: Sequence[str]) -> list[int]:
    """Indices of the nondominated points, ascending. Duplicates all survive."""
    for direction in directions:
        if direction not in ("max", "min"):
            raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    for point in points:
        if len(point) != len(directions):
            raise DimensionMismatch(
                f"point of dimension {len(point)} does not match {len(directions)} directions"
            )
    front = []
    for i, p in enumerate(points):
        if not any(dominates(q, p, directions) for j, q in enumerate(points) if j != i):
            front.append(i)
    return front
