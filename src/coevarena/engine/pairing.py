"""Competition structures: who engages whom within one half-generation."""

from __future__ import annotations

from .config import CompetitionStructure
from .rng import Stream


class StructureMismatch(Exception):
    """Population sizes violate the chosen structure's invariants."""


def _round_one_vs_one(n_att: int, n_def: int, rng: Stream) -> list[tuple[int, int]]:
    # Both sides shuffled; the smaller side is re-shuffled and reused until
    # the larger side is covered exactly once.
    total = max(n_att, n_def)

    def column(n: int) -> list[int]:
        ids: list[int] = []
        while len(ids) < total:
            ids.extend(rng.permutation(n))
        return ids[:total]

    return list(zip(column(n_att), column(n_def)))


def pair_count(structure: CompetitionStructure, n_att: int, n_def: int) -> int:
    """How many pairs ``pair`` returns: one-vs-one max(N_att, N_def); all-vs-all
    N_att * N_def; tournament(r) r * max(N_att, N_def); spatial(M, c) M^2 * c^2."""
    if structure.kind == "all-vs-all":
        return n_att * n_def
    if structure.kind == "spatial":
        return structure.grid_side**2 * structure.neighborhood**2
    return (structure.rounds if structure.kind == "tournament" else 1) * max(n_att, n_def)


def pair(
    structure: CompetitionStructure,
    n_att: int,
    n_def: int,
    rng: Stream,
) -> list[tuple[int, int]]:
    """The (attacker index, defender index) pairs of one half-generation, ``pair_count``
    of them; n_att and n_def are the sizes of the attacker and defender populations."""
    if structure.kind in ("one-vs-one", "tournament"):  # one-vs-one is one round
        pairs: list[tuple[int, int]] = []
        for _ in range(structure.rounds if structure.kind == "tournament" else 1):
            pairs.extend(_round_one_vs_one(n_att, n_def, rng))
        return pairs
    if structure.kind == "all-vs-all":
        return [(a, d) for a in range(n_att) for d in range(n_def)]
    # spatial, the one kind left: CompetitionStructure admits no other.
    side = structure.grid_side
    if n_att != side * side or n_def != side * side:
        raise StructureMismatch(
            f"spatial({side},{structure.neighborhood}) needs both populations "
            f"of size {side * side}, got {n_att} and {n_def}"
        )
    reach = structure.neighborhood // 2
    offsets = range(-reach, reach + 1)
    pairs = []
    for x in range(side):
        for y in range(side):
            attacker = x * side + y
            for dx in offsets:
                for dy in offsets:
                    defender = ((x + dx) % side) * side + ((y + dy) % side)
                    pairs.append((attacker, defender))
    return pairs
