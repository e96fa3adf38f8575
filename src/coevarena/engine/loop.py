"""The alternating two-population coevolutionary loop.

Each generation runs two half-steps. A half-step evolves one role, the own
side, against the frozen population of the other role, the opponent, in four
steps:

- breed: select parents, cross over, mutate, map genotypes to sentences and
  log the new population as the half-step's cohort;
- job list: the candidate pairs in ``pair`` order, then the previous champion
  (incumbent) against every frozen opponent;
- one engage pass over the jobs, in list order, skipping a job with a member
  that failed to map and logging every engagement in the cohort;
- score: both kinds of outcome aggregate into fitness through one path.

The best is first in selection's order, ``variation.best_first`` (higher
fitness, then lower index): the incumbent, a half-step's best and the meu and
best-worst champions. Elitism swaps the incumbent in for the worst newcomer
(lowest fitness, then lower index) when it is strictly better, so the best
fitness against a fixed opponent set never worsens between generations.

The loop is written once, in (own, opponent) terms, for both roles. Only the
job list and the engage pass need to know which side attacks; ``_oriented``
turns an (own, opponent) pair into (attacker, defender) order, once per
half-step for the strategy lists.

The cohort, the population the half-step bred, before the elitism swap, holds
the genotypes its engagements refer to by index. Identical config and master
seed reproduce the log byte for byte.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import NamedTuple

from ..engagement import EngagementEnvironment, EngagementOutcome
from ..grammar import Genotype, Grammar, MappingFailure, Strategy, map_genotype, random_genotype
from . import rng as streams
from .config import ATTACKER, DEFENDER, EvolutionConfig, opposite
from .fitness import assign_fitness, pareto_front, population_variance
from .pairing import pair
from .variation import best_first, crossover, mutate, select

CANDIDATE = "candidate"
INCUMBENT = "incumbent"
# The random-stream word each kind of engagement keys its draws with.
_STREAM_OF_KIND = {CANDIDATE: "engage", INCUMBENT: "elite"}


@dataclass(frozen=True)
class Champion:
    role: str
    index: int
    genotype: Genotype
    sentence: tuple[str, ...] | None
    fitness: float
    concept_score: float


@dataclass(frozen=True)
class HalfStepStats:
    """One half-step's result. mean_fitness and fitness_variance cover the scored
    individuals only; with none scored they are invalid_fitness and 0.0.
    invalid_count is how many members of the half-step's cohort failed to map."""

    generation: int
    phase: str
    best_id: int
    best_fitness: float
    mean_fitness: float
    fitness_variance: float
    incumbent_fitness: float | None
    best_genotype: Genotype
    best_sentence: tuple[str, ...] | None
    best_cost: float | None
    invalid_count: int


class Engagement(NamedTuple):
    """One engagement of a half-step.

    A candidate engagement's own-role id indexes its cohort's members, an
    incumbent engagement's the role's population before the half-step. The
    opponent id indexes the opponent's population as the half-step found it.
    """

    kind: str
    pair_index: int
    attacker_id: int
    defender_id: int
    outcome: EngagementOutcome


@dataclass
class Cohort:
    """The population one half-step bred, before the elitism swap, and its engagements.

    It holds what one population line of the engagement log and its rows hold.
    Generation 0 holds an initial population, which plays no engagement. replaced is
    the slot the incumbent took in the elitism swap, or None; members shares the run's genotypes.
    """

    generation: int
    phase: str
    members: list[Genotype]
    engagements: list[Engagement] = field(default_factory=list)
    replaced: int | None = None


@dataclass
class RunRecord:
    run_id: str
    config: EvolutionConfig
    best_attacker: Champion
    best_defender: Champion
    half_steps: list[HalfStepStats] = field(default_factory=list)
    cohorts: list[Cohort] = field(default_factory=list)


def _oriented(role: str, own, opponent):
    """Put an (own, opponent) pair in (attacker, defender) order, or back again."""
    return (own, opponent) if role == ATTACKER else (opponent, own)


@dataclass
class _Side:
    """One role's population with its strategies, fitness and the outcomes behind it.

    strategies[i] is None when members[i] failed to map. outcomes[i] holds the
    engagements that gave fitness[i]; fitness is None before the first
    half-step of the role.
    """

    members: list[Genotype]
    strategies: list[Strategy | None]
    fitness: dict[int, float] | None = None
    outcomes: dict[int, list[EngagementOutcome]] = field(default_factory=dict)


class _AlternatingRun:
    def __init__(self, cfg, grammars, environment):
        self.cfg = cfg
        self.grammars = grammars
        self.environment = environment
        self.seed = cfg.master_seed
        self.sides: dict[str, _Side] = {}
        self.cohorts: list[Cohort] = []
        self.half_steps: list[HalfStepStats] = []

    def initialize(self):
        for role in (ATTACKER, DEFENDER):
            members = [
                random_genotype(
                    streams.generator(self.seed, "init", role, i),
                    self.cfg.limits.min_length,
                    self.cfg.limits.max_length,
                    self.cfg.limits.codon_max,
                )
                for i in range(self.cfg.population_size(role))
            ]
            self.sides[role], _ = self._breed(0, role, members)

    def _breed(self, generation: int, role: str, members: list[Genotype]) -> tuple[_Side, Cohort]:
        """Map members to strategies and log the members as the half-step's cohort."""
        strategies = []
        for member in members:
            try:
                strategies.append(map_genotype(member, self.grammars[role], self.cfg.mapping))
            except MappingFailure:
                strategies.append(None)
        cohort = Cohort(generation, role, list(members))
        self.cohorts.append(cohort)
        return _Side(members, strategies), cohort

    def _variation(self, generation, role, parents):
        # slot pair s crosses over with stream ("cross", generation, role, s),
        # child i mutates with ("mutate", generation, role, i): one block each
        n = self.cfg.population_size(role)
        slots = range(0, n - 1, 2)
        cross = streams.siblings(self.seed, "cross", generation, role, children=slots)
        children: list[Genotype] = []
        for slot, rng in zip(slots, cross):
            first, second = crossover(
                parents[slot], parents[slot + 1], self.cfg.crossover_rate, rng, self.cfg.limits
            )
            children.extend((first, second))
        if len(children) < n:
            children.append(parents[n - 1])
        mutating = streams.siblings(self.seed, "mutate", generation, role, children=range(n))
        return [
            mutate(child, self.cfg.mutation_rate, rng, self.cfg.limits)
            for child, rng in zip(children, mutating)
        ]

    def half_step(self, generation: int, role: str):
        cfg = self.cfg
        own, opponent = self.sides[role], self.sides[opposite(role)]
        n, m = cfg.population_size(role), len(opponent.members)

        incumbent = None if own.fitness is None else min(range(n), key=best_first(own.fitness))
        parents = own.members
        if incumbent is not None:
            select_rng = streams.generator(self.seed, "select", generation, role)
            parents = select(own.members, own.fitness, cfg.selection, select_rng)
        children = self._variation(generation, role, parents)
        candidates, cohort = self._breed(generation, role, children)
        invalid_count = candidates.strategies.count(None)

        # Job list, as (kind, k, attacker id, defender id): the candidate pairs,
        # then the incumbent against every frozen opponent.
        pair_rng = streams.generator(self.seed, "pair", generation, role)
        pairs = pair(cfg.structure, *_oriented(role, n, m), pair_rng)
        jobs = [(CANDIDATE, k, a, d) for k, (a, d) in enumerate(pairs)]
        if incumbent is not None:
            jobs += [(INCUMBENT, j, *_oriented(role, incumbent, j)) for j in range(m)]

        # One engage pass. Each kind's (attack, defense) strategy lists and the
        # own id's place in a pair are worked out once.
        strategies = {
            CANDIDATE: _oriented(role, candidates.strategies, opponent.strategies),
            INCUMBENT: _oriented(role, own.strategies, opponent.strategies),
        }
        mine = 0 if role == ATTACKER else 1
        prefixes = {
            kind: streams.Key(self.seed, word, generation, role)
            for kind, word in _STREAM_OF_KIND.items()
        }
        outcomes: dict[str, dict[int, list[EngagementOutcome]]] = {CANDIDATE: {}, INCUMBENT: {}}
        for kind, k, a, d in jobs:
            attacks, defenses = strategies[kind]
            if attacks[a] is None or defenses[d] is None:
                continue
            outcome = self.environment.engage(attacks[a], defenses[d], prefixes[kind].child(k))
            cohort.engagements.append(Engagement(kind, k, a, d, outcome))
            outcomes[kind].setdefault((a, d)[mine], []).append(outcome)

        # Score both kinds, then swap the incumbent in for the worst newcomer
        # if it is strictly better.
        weight = cfg.secondary_weight
        scored = {
            kind: assign_fitness(grouped, cfg.aggregation, role, secondary_weight=weight)
            for kind, grouped in outcomes.items()
        }
        fitness = {i: scored[CANDIDATE].get(i, cfg.invalid_fitness) for i in range(n)}
        candidates.fitness, candidates.outcomes = fitness, outcomes[CANDIDATE]
        incumbent_fitness = scored[INCUMBENT].get(incumbent)
        worst = min(range(n), key=lambda i: (fitness[i], i))
        if incumbent_fitness is not None and incumbent_fitness > fitness[worst]:
            cohort.replaced = worst
            candidates.members[worst] = own.members[incumbent]
            candidates.strategies[worst] = own.strategies[incumbent]
            candidates.outcomes[worst] = outcomes[INCUMBENT][incumbent]
            fitness[worst] = incumbent_fitness

        self.sides[role] = candidates
        values = [fitness[i] for i in sorted(candidates.outcomes)] or [cfg.invalid_fitness]
        best = min(range(n), key=best_first(fitness))
        best_strategy = candidates.strategies[best]
        best_sentence = best_strategy.sentence if best_strategy else None
        best_outcomes = candidates.outcomes.get(best, [])
        best_cost = (
            statistics.fmean([o.cost_for(role) for o in best_outcomes]) if best_outcomes else None
        )
        self.half_steps.append(
            HalfStepStats(
                generation=generation,
                phase=role,
                best_id=best,
                best_fitness=fitness[best],
                mean_fitness=statistics.fmean(values),
                fitness_variance=population_variance(values),
                incumbent_fitness=incumbent_fitness,
                best_genotype=candidates.members[best],
                best_sentence=best_sentence,
                best_cost=best_cost,
                invalid_count=invalid_count,
            )
        )

    def champion(self, role: str) -> Champion:
        cfg = self.cfg
        side = self.sides[role]
        evaluated = sorted(side.outcomes)
        if not evaluated:
            index, score = 0, cfg.invalid_fitness
        elif cfg.solution_concept == "pareto":
            points = [
                (
                    statistics.fmean([o.score_for(role) for o in side.outcomes[i]]),
                    statistics.fmean([o.cost_for(role) for o in side.outcomes[i]]),
                )
                for i in evaluated
            ]
            front = pareto_front(points)
            index = evaluated[front[0]]
            score = points[front[0]][0]
        else:
            # meu takes the mean effective score, best-worst the worst one.
            aggregation = "min" if cfg.solution_concept == "best-worst" else "mean"
            scored = assign_fitness(
                side.outcomes, aggregation, role, secondary_weight=cfg.secondary_weight
            )
            index = min(evaluated, key=best_first(scored))
            score = scored[index]

        strategy = side.strategies[index]
        return Champion(
            role=role,
            index=index,
            genotype=side.members[index],
            sentence=strategy.sentence if strategy else None,
            fitness=side.fitness[index],
            concept_score=score,
        )


def run_alternating(
    cfg: EvolutionConfig,
    attack_grammar: Grammar,
    defense_grammar: Grammar,
    environment: EngagementEnvironment,
    run_id: str | None = None,
) -> RunRecord:
    """Run the full alternating loop and return the complete run record."""
    if run_id is None:
        run_id = f"run-s{cfg.master_seed}"
    state = _AlternatingRun(cfg, {ATTACKER: attack_grammar, DEFENDER: defense_grammar}, environment)
    state.initialize()
    for generation in range(1, cfg.generations + 1):
        state.half_step(generation, ATTACKER)
        state.half_step(generation, DEFENDER)
    return RunRecord(
        run_id=run_id,
        config=cfg,
        best_attacker=state.champion(ATTACKER),
        best_defender=state.champion(DEFENDER),
        half_steps=state.half_steps,
        cohorts=state.cohorts,
    )
