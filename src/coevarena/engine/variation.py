"""Selection and the variable-length variation operators."""

from __future__ import annotations

import math

from ..grammar import Genotype, GenotypeLimits
from .config import SelectionScheme
from .rng import Stream


def best_first(fitnesses):
    """The sort key of the best-first order of indices: higher fitness, then lower index."""
    return lambda i: (-fitnesses[i], i)


def select(
    members: list[Genotype],
    fitnesses,
    scheme: SelectionScheme,
    rng: Stream,
) -> list[Genotype]:
    """Pick len(members) parents with replacement, in the best-first order.

    fitnesses[i] is members[i]'s fitness; a list or an index-keyed dict both do.
    tournament(k): the first, by ``best_first``, of k i.i.d. uniform draws.
    truncation(f): uniform over the first ceil(f*N) by ``best_first``.
    """
    n = len(members)
    rank = best_first(fitnesses)
    parents: list[Genotype] = []
    if scheme.kind == "tournament":
        for _ in range(n):
            draws = [rng.integers(0, n) for _ in range(scheme.size)]
            parents.append(members[min(draws, key=rank)])
    else:
        keep = math.ceil(scheme.fraction * n)
        elite = sorted(range(n), key=rank)[:keep]
        for _ in range(n):
            parents.append(members[elite[rng.integers(0, keep)]])
    return parents


def mutate(
    genotype: Genotype,
    mutation_rate: float,
    rng: Stream,
    limits: GenotypeLimits,
) -> Genotype:
    """Per-codon uniform resets, then possibly one insert-or-delete length step.

    A length step blocked by the min/max bound is a no-op, not a forced
    opposite step.
    """
    if mutation_rate <= 0.0:
        return genotype
    codons = list(genotype.codons)
    for i in rng.hits(len(codons), mutation_rate):
        codons[i] = rng.integers(0, limits.codon_max)
    if rng.random() < mutation_rate:
        if rng.random() < 0.5:
            if len(codons) < limits.max_length:
                position = rng.integers(0, len(codons) + 1)
                codons.insert(position, rng.integers(0, limits.codon_max))
        else:
            if len(codons) > limits.min_length:
                position = rng.integers(0, len(codons))
                del codons[position]
    return Genotype(tuple(codons))


def crossover(
    parent_a: Genotype,
    parent_b: Genotype,
    crossover_rate: float,
    rng: Stream,
    limits: GenotypeLimits,
) -> tuple[Genotype, Genotype]:
    """One-point crossover with independent cut points in each parent.

    Cut pairs whose children would leave [min_length, max_length] are
    resampled up to 100 times, after which the parents come back unchanged.
    """
    if rng.random() >= crossover_rate:
        return parent_a, parent_b
    a, b = parent_a.codons, parent_b.codons
    for _ in range(100):
        cut_a = rng.integers(0, len(a) + 1)
        cut_b = rng.integers(0, len(b) + 1)
        len_first = cut_a + len(b) - cut_b
        len_second = cut_b + len(a) - cut_a
        if (
            limits.min_length <= len_first <= limits.max_length
            and limits.min_length <= len_second <= limits.max_length
        ):
            return Genotype(a[:cut_a] + b[cut_b:]), Genotype(b[:cut_b] + a[cut_a:])
    return parent_a, parent_b
