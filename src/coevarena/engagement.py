"""The shared currency between the evolution engine and its environments.

One engagement pits a single attack strategy against a single defense
strategy. The environment scores each side on its own objective; by
convention every reported score is the quantity that side wants HIGH, so the
engine can select both roles by maximizing their own aggregated score. In a
zero-sum environment defender_score == -attacker_score.

Environments share the readers here: ``read_scenario``, ``dash_pairs``,
``check_links`` and ``check_amounts`` for scenario files, ``read_clauses`` and
``clamp`` for sentences.
"""

from __future__ import annotations

import math
import re
from configparser import ConfigParser
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, TypeVar

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


class EngagementEnvironment(Protocol):
    """What the engine needs from an engagement simulator.

    engage must be a pure function of its arguments and of ``key``, the
    engagement's stream key (an engine ``rng.Key``). An environment that draws
    random numbers builds the engagement's stream with ``key.seed_sequence()``,
    a fresh unspawned numpy SeedSequence, or the PCG64 states of that
    sequence's first n children with ``key.sibling_states(range(n))``; a
    deterministic one ignores the key and so never builds a stream. engage may return one outcome object for
    several engagements, so callers copy costs and telemetry to change them.
    Every outcome an environment returns carries the same costs keys and the
    same telemetry keys: the results store writes them once per run, and
    refuses a run whose outcomes differ in them. Its defender scores are all
    one rule of the attacker's, bit for bit: ``-attacker_score`` or
    ``1.0 - attacker_score`` (``coevarena.store.SCORE_RULES``); the store
    writes only the attacker's and refuses a run that keeps neither.
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


T = TypeVar("T")


def read_scenario(path: str | Path, build: Callable[[ConfigParser], T]) -> T:
    """build(parser) on the parsed INI file at path.

    A file that cannot be read, does not parse, lacks an option or fails a
    cast or check raises ScenarioError.
    """
    try:
        parser = ConfigParser()
        if not parser.read(path, encoding="utf-8"):
            raise ScenarioError(f"cannot read scenario file {path}")
        return build(parser)
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"malformed scenario {path}: {exc}") from exc


def dash_pairs(text: str, cast: Callable[[str], T]) -> tuple[tuple[T, T], ...]:
    """The pairs of a whitespace-separated list of ``a-b`` tokens, each end cast."""
    pairs = []
    for token in text.split():
        a, dash, b = token.partition("-")
        if not dash:
            raise ScenarioError(f"bad pair token {token!r}")
        pairs.append((cast(a), cast(b)))
    return tuple(pairs)


def check_links(pairs, known, what: str) -> None:
    """Raise ScenarioError unless each pair joins two distinct known ends,
    and no two pairs join the same ends in either orientation."""
    seen = set()
    for a, b in pairs:
        if a not in known or b not in known or a == b:
            raise ScenarioError(f"bad {what} {a}-{b}")
        if frozenset((a, b)) in seen:
            raise ScenarioError(f"{what} {a}-{b} given twice")
        seen.add(frozenset((a, b)))


def check_amounts(owner, *names: str) -> None:
    """Raise ScenarioError, naming the field, unless each named field of owner
    is finite and >= 0."""
    for name in names:
        value = getattr(owner, name)
        if not (math.isfinite(value) and value >= 0):
            raise ScenarioError(f"{name} must be finite and >= 0, got {value!r}")


def clamp(value, low, high):
    return max(low, min(high, value))


def _read_slot(slot, token: str):
    """token's value in a template slot, or None for a literal word."""
    if isinstance(slot, str):
        if token == slot:
            return None
    elif isinstance(slot, re.Pattern):
        if match := slot.match(token):
            return int(match.group(1))
    else:
        try:
            return slot(token)
        except ValueError:
            pass
    raise InterpretError(f"token {token!r} does not fit slot {slot!r}")


def read_clauses(tokens: Sequence[str], *templates: tuple) -> list[list[tuple]]:
    """The slot values of each template's clauses, in sentence order.

    A template is one clause's slots: a literal word, ``int`` or ``float``
    (the token cast by that builtin), or a compiled pattern whose group 1 is
    an index (its value is ``int(group(1))``). Literal words give no value.
    The templates are read in turn, each for as long as the next token is its
    first word, so one list of value tuples comes back per template. A
    cut-short clause, a wrong word, a failed cast or a token left over raises
    InterpretError.
    """
    found, i = [], 0
    for template in templates:
        found.append([])
        while i < len(tokens) and tokens[i] == template[0]:
            clause = tokens[i : i + len(template)]
            if len(clause) < len(template):
                raise InterpretError(f"cut-short clause {' '.join(clause)!r}")
            values = (_read_slot(slot, token) for slot, token in zip(template, clause))
            found[-1].append(tuple(value for value in values if value is not None))
            i += len(template)
    if i < len(tokens):
        raise InterpretError(f"unexpected tokens {' '.join(tokens[i:])!r}")
    return found
