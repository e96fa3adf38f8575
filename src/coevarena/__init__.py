"""Competitive coevolution of grammar-defined attack and defense strategies
inside pluggable network engagement simulators, with a cross-run tournament
and ranking stage for picking champions."""

from .engagement import EngagementEnvironment, EngagementOutcome, InterpretError, ScenarioError
from .engine.config import ATTACKER, DEFENDER, CompetitionStructure, EvolutionConfig, SelectionScheme
from .engine.fitness import assign_fitness, pareto_front
from .engine.loop import Champion, HalfStepStats, RunRecord, run_alternating
from .engine.pairing import StructureMismatch, pair
from .engine.variation import crossover, mutate, select
from .grammar import (
    DuplicateRuleError,
    Genotype,
    GenotypeLimits,
    Grammar,
    GrammarError,
    GrammarSyntaxError,
    MappingConfig,
    MappingFailure,
    Strategy,
    UndefinedNonterminalError,
    load_grammar,
    map_genotype,
    parse_bnf,
    random_genotype,
)
from .store import CorruptRecord, EmptyStore, ResultsStore, UnknownRun

__version__ = "0.1.0"
