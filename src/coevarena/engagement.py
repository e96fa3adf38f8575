"""The shared currency between the evolution engine and its environments.

One engagement pits a single attack strategy against a single defense
strategy. The environment scores each side on its own objective; by
convention every reported score is the quantity that side wants HIGH, so the
engine can select both roles by maximizing their own aggregated score. In a
zero-sum environment defender_score == -attacker_score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from .grammar import Strategy

if TYPE_CHECKING:
    from .engine.rng import Key


@dataclass(frozen=True)
class EngagementOutcome:
    attacker_score: float
    defender_score: float
    costs: dict[str, float] = field(default_factory=dict)
    telemetry: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.attacker_score) or not math.isfinite(self.defender_score):
            raise ValueError("engagement scores must be finite")

    def score_for(self, role: str) -> float:
        return self.attacker_score if role == "attacker" else self.defender_score

    def cost_for(self, role: str) -> float:
        return float(self.costs.get(f"{role}_cost", 0.0))


@runtime_checkable
class EngagementEnvironment(Protocol):
    """What the engine needs from an engagement simulator.

    engage must be a pure function of its arguments and of ``key``, the
    engagement's stream key (an engine ``rng.Key``). An environment that draws
    random numbers builds the engagement's stream with ``key.seed_sequence()``,
    a fresh unspawned numpy SeedSequence, or the PCG64 states of that
    sequence's first n children with ``key.sibling_states(n)``; a
    deterministic one ignores the key and so never builds a stream. engage may return one outcome object for
    several engagements, so callers copy costs and telemetry to change them.
    """

    environment_id: str

    def engage(self, attack: Strategy, defense: Strategy, key: Key) -> EngagementOutcome:
        ...


class InterpretError(Exception):
    """A sentence is not in the language an environment expects.

    This signals a grammar/environment mismatch, i.e. a configuration bug,
    not a bad individual.
    """


class ScenarioError(Exception):
    """A scenario file is malformed or violates its invariants."""
