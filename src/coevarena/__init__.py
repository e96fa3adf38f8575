"""Competitive coevolution of grammar-defined attack and defense strategies
inside pluggable network engagement simulators, with a cross-run tournament
and ranking stage for picking champions."""

from .engagement import EngagementEnvironment, EngagementOutcome, InterpretError, ScenarioError
from .engine import (
    ATTACKER,
    DEFENDER,
    Champion,
    CompetitionStructure,
    EvolutionConfig,
    HalfStepStats,
    RunRecord,
    SelectionScheme,
    StructureMismatch,
    assign_fitness,
    crossover,
    mutate,
    pair,
    pareto_front,
    run_alternating,
    select,
)
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
