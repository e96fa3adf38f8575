from .config import (
    ATTACKER,
    DEFENDER,
    ROLES,
    CompetitionStructure,
    EvolutionConfig,
    SelectionScheme,
    opposite,
)
from .fitness import DimensionMismatch, assign_fitness, dominates, pareto_front
from .loop import Champion, Cohort, Engagement, HalfStepStats, RunRecord, run_alternating
from .pairing import StructureMismatch, pair
from .variation import crossover, mutate, select

__all__ = [
    "ATTACKER",
    "DEFENDER",
    "ROLES",
    "Champion",
    "Cohort",
    "CompetitionStructure",
    "DimensionMismatch",
    "Engagement",
    "EvolutionConfig",
    "HalfStepStats",
    "RunRecord",
    "SelectionScheme",
    "StructureMismatch",
    "assign_fitness",
    "crossover",
    "dominates",
    "mutate",
    "opposite",
    "pair",
    "pareto_front",
    "run_alternating",
    "select",
]
