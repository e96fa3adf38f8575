from .config import (
    ATTACKER,
    DEFENDER,
    ROLES,
    CompetitionStructure,
    EvolutionConfig,
    SelectionScheme,
    opposite,
)
from .fitness import assign_fitness, pareto_front
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
    "Engagement",
    "EvolutionConfig",
    "HalfStepStats",
    "RunRecord",
    "SelectionScheme",
    "StructureMismatch",
    "assign_fitness",
    "crossover",
    "mutate",
    "opposite",
    "pair",
    "pareto_front",
    "run_alternating",
    "select",
]
