"""Run configuration for the alternating coevolutionary loop."""

import math
from dataclasses import KW_ONLY, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping

from ..grammar import GenotypeLimits, MappingConfig

ATTACKER = "attacker"
DEFENDER = "defender"

AGGREGATIONS = ("mean", "max", "min", "median")
SOLUTION_CONCEPTS = ("meu", "best-worst", "pareto")


def opposite(role: str) -> str:
    return DEFENDER if role == ATTACKER else ATTACKER


def _kind_and_arg(text: str) -> tuple[str, str]:
    """A scheme's text split at its first colon; TypeError unless it is a str."""
    if not isinstance(text, str):
        raise TypeError(f"a scheme is a string, not {type(text).__name__}")
    kind, _, arg = text.strip().partition(":")
    return kind, arg


@dataclass(frozen=True)
class SelectionScheme:
    """tournament(k) or truncation(fraction)."""

    kind: str
    _: KW_ONLY
    size: int = 3
    fraction: float = 0.5

    def __post_init__(self):
        if self.kind == "tournament":
            if self.size < 1:
                raise ValueError("tournament size must be >= 1")
        elif self.kind == "truncation":
            if not 0.0 < self.fraction <= 1.0:
                raise ValueError("truncation fraction must be in (0, 1]")
        else:
            raise ValueError(f"unknown selection scheme {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "SelectionScheme":
        kind, arg = _kind_and_arg(text)
        if kind == "tournament":
            return cls("tournament", size=int(arg) if arg else 3)
        if kind == "truncation":
            return cls("truncation", fraction=float(arg) if arg else 0.5)
        raise ValueError(f"unknown selection scheme {text!r}")

    def render(self) -> str:
        if self.kind == "tournament":
            return f"tournament:{self.size}"
        return f"truncation:{self.fraction}"


@dataclass(frozen=True)
class CompetitionStructure:
    """How attackers and defenders are paired each half-generation.

    one-vs-one   max(N_att, N_def) pairs, random bijection with reuse
    all-vs-all   N_att * N_def pairs
    tournament   rounds independent one-vs-one rounds
    spatial      M x M toroidal grid, c x c Moore neighborhood per cell
    """

    kind: str
    _: KW_ONLY
    rounds: int = 1
    grid_side: int = 0
    neighborhood: int = 3

    def __post_init__(self):
        if self.kind not in ("one-vs-one", "all-vs-all", "tournament", "spatial"):
            raise ValueError(f"unknown competition structure {self.kind!r}")
        if self.kind == "tournament" and self.rounds < 1:
            raise ValueError("tournament rounds must be >= 1")
        if self.kind == "spatial":
            if self.grid_side < 1:
                raise ValueError("spatial grid side must be >= 1")
            if self.neighborhood < 1 or self.neighborhood % 2 == 0:
                raise ValueError("spatial neighborhood must be odd and >= 1")

    @classmethod
    def parse(cls, text: str) -> "CompetitionStructure":
        kind, arg = _kind_and_arg(text)
        if kind in ("one-vs-one", "all-vs-all"):
            if arg:
                raise ValueError(f"competition structure {kind} takes no argument, not {arg!r}")
            return cls(kind)
        if kind == "tournament":
            return cls("tournament", rounds=int(arg) if arg else 1)
        if kind == "spatial":
            side, _, hood = arg.partition("x")
            return cls("spatial", grid_side=int(side), neighborhood=int(hood) if hood else 3)
        raise ValueError(f"unknown competition structure {text!r}")

    def render(self) -> str:
        if self.kind == "tournament":
            return f"tournament:{self.rounds}"
        if self.kind == "spatial":
            return f"spatial:{self.grid_side}x{self.neighborhood}"
        return self.kind


@dataclass(frozen=True)
class EvolutionConfig:
    generations: int = 10
    attacker_population: int = 16
    defender_population: int = 16
    mutation_rate: float = 0.1
    crossover_rate: float = 0.8
    selection: SelectionScheme = field(default_factory=lambda: SelectionScheme("tournament", size=3))
    structure: CompetitionStructure = field(default_factory=lambda: CompetitionStructure("one-vs-one"))
    aggregation: str = "mean"
    solution_concept: str = "meu"
    secondary_weight: float = 0.2
    invalid_fitness: float = -1e18
    master_seed: int = 0
    limits: GenotypeLimits = field(default_factory=GenotypeLimits)
    mapping: MappingConfig = field(default_factory=MappingConfig)

    def __post_init__(self):
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.attacker_population < 1 or self.defender_population < 1:
            raise ValueError("population sizes must be >= 1")
        for name in ("mutation_rate", "crossover_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.solution_concept not in SOLUTION_CONCEPTS:
            raise ValueError(f"unknown solution concept {self.solution_concept!r}")
        if not (math.isfinite(self.secondary_weight) and self.secondary_weight >= 0.0):
            raise ValueError("secondary_weight must be finite and >= 0")
        if not math.isfinite(self.invalid_fitness):
            raise ValueError("invalid_fitness must be finite")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")

    def with_seed(self, seed: int) -> "EvolutionConfig":
        return replace(self, master_seed=seed)

    def population_size(self, role: str) -> int:
        return self.attacker_population if role == ATTACKER else self.defender_population

    def to_dict(self) -> dict:
        """Every settable field by name, limits and mapping flattened, schemes rendered."""
        data = {}
        for owner in (self, self.limits, self.mapping):
            for name, _ in _settable(type(owner)):
                value = getattr(owner, name)
                data[name] = value.render() if isinstance(value, _SCHEMES) else value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EvolutionConfig":
        """The inverse of to_dict. Raises KeyError when data lacks a field, and
        ValueError unless to_dict gives back each value with its own type, so
        2.5 or true for an int field and "0.1" for a float field are rejected."""

        def section(schema):
            return cast_entries(schema, {name: data[name] for name, _ in _settable(schema)})

        loaded = cls(
            **section(cls),
            limits=GenotypeLimits(**section(GenotypeLimits)),
            mapping=MappingConfig(**section(MappingConfig)),
        )
        for name, value in loaded.to_dict().items():
            if type(value) is not type(data[name]) or value != data[name]:
                raise ValueError(f"{name}: {data[name]!r} loads as {value!r}")
        return loaded


_SCHEMES = (SelectionScheme, CompetitionStructure)
_PARSERS = {
    int: int,
    float: float,
    str: str,
    Path: Path,
    Path | None: lambda raw: Path(raw) if raw else None,
    SelectionScheme: SelectionScheme.parse,
    CompetitionStructure: CompetitionStructure.parse,
}


def _settable(schema: type) -> list[tuple[str, Callable]]:
    """(name, parser) of each field of schema that is set by name; nested dataclasses are not."""
    return [(f.name, _PARSERS[f.type]) for f in fields(schema) if f.type in _PARSERS]


def cast_entries(schema: type, entries: Mapping[str, object]) -> dict:
    """Each entry cast by the type of the field of schema it sets.

    schema is a config section's dataclass. int, float, str and path fields go
    through that type, an optional path's empty value is None, and selection
    and structure go through their parse. An entry that names no such field,
    or whose value does not cast (an infinite float for an int among them),
    raises ValueError naming the entry.
    """
    parsers = dict(_settable(schema))
    cast = {}
    for name, raw in entries.items():
        if name not in parsers:
            raise ValueError(f"{name}: unknown option")
        try:
            cast[name] = parsers[name](raw)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ValueError(f"{name}: bad value {raw!r} ({exc})") from exc
    return cast
