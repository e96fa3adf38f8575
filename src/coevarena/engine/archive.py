"""Champion archive: the memory remedy against coevolutionary pathologies."""

from __future__ import annotations

from dataclasses import dataclass

from ..grammar import Genotype
from .fitness import dominates

_DIRECTIONS = ("max", "min")  # (score, cost)


@dataclass(frozen=True)
class ArchiveEntry:
    genotype: Genotype
    role: str
    generation: int
    score: float
    cost: float
    sentence: tuple[str, ...] | None = None

    def objectives(self) -> tuple[float, float]:
        return (self.score, self.cost)


class Archive:
    """Bounded store of past champions.

    best-of-generation admits every offered champion and evicts the oldest
    entry past capacity. pareto-nondominated admits only entries not dominated
    by a same-role entry on (score, cost), evicting entries the newcomer
    dominates, so the archive never holds a dominated same-role pair.
    """

    def __init__(self, capacity: int, admission: str = "best-of-generation"):
        if capacity < 0:
            raise ValueError("archive capacity must be >= 0")
        if admission not in ("best-of-generation", "pareto-nondominated"):
            raise ValueError(f"unknown admission rule {admission!r}")
        self.capacity = capacity
        self.admission = admission
        self.entries: list[ArchiveEntry] = []

    def admit(self, entry: ArchiveEntry) -> bool:
        if self.capacity == 0:
            return False
        if self.admission == "pareto-nondominated":
            rivals = [e for e in self.entries if e.role == entry.role]
            if any(dominates(r.objectives(), entry.objectives(), _DIRECTIONS) for r in rivals):
                return False
            self.entries = [
                e
                for e in self.entries
                if e.role != entry.role
                or not dominates(entry.objectives(), e.objectives(), _DIRECTIONS)
            ]
        self.entries.append(entry)
        while len(self.entries) > self.capacity:
            self.entries.pop(0)
        return True
