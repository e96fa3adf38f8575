import statistics
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coevarena import (
    CompetitionStructure,
    SelectionScheme,
    StructureMismatch,
    assign_fitness,
    crossover,
    mutate,
    pair,
    pareto_front,
    select,
)
from coevarena.engagement import EngagementOutcome
from coevarena.engine.fitness import population_variance
from coevarena.engine.pairing import pair_count
from coevarena.grammar import Genotype, GenotypeLimits

from oracles import OracleGenerator, pareto_oracle


def members(size):
    return [Genotype((i + 1,)) for i in range(size)]


def outcome(attacker_score=0.0, defender_score=0.0, costs=None):
    return EngagementOutcome(
        attacker_score=attacker_score,
        defender_score=defender_score,
        costs=costs or {},
    )


class TestPair:
    def test_one_vs_one_equal_sizes_is_bijection(self):
        pairs = pair(CompetitionStructure("one-vs-one"), 4, 4, np.random.default_rng(0))
        assert len(pairs) == 4
        assert sorted(a for a, _ in pairs) == [0, 1, 2, 3]
        assert sorted(d for _, d in pairs) == [0, 1, 2, 3]

    def test_one_vs_one_reuses_smaller_side(self):
        pairs = pair(CompetitionStructure("one-vs-one"), 6, 3, np.random.default_rng(1))
        assert len(pairs) == 6
        assert sorted(a for a, _ in pairs) == [0, 1, 2, 3, 4, 5]
        defender_counts = Counter(d for _, d in pairs)
        assert set(defender_counts) == {0, 1, 2}
        assert all(count == 2 for count in defender_counts.values())

    def test_one_vs_one_ignores_rounds(self):
        pairs = pair(CompetitionStructure("one-vs-one", rounds=3), 5, 7, np.random.default_rng(2))
        assert len(pairs) == 7
        assert pairs == pair(CompetitionStructure("one-vs-one"), 5, 7, np.random.default_rng(2))

    def test_all_vs_all_counts(self):
        pairs = pair(CompetitionStructure("all-vs-all"), 4, 3, np.random.default_rng(0))
        assert len(pairs) == 12
        assert len(set(pairs)) == 12

    def test_tournament_rounds(self):
        pairs = pair(CompetitionStructure("tournament", rounds=3), 4, 4, np.random.default_rng(0))
        assert len(pairs) == 12
        assert Counter(a for a, _ in pairs) == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_spatial_counts_and_neighborhoods(self):
        side, hood = 4, 3
        pairs = pair(
            CompetitionStructure("spatial", grid_side=side, neighborhood=hood),
            16,
            16,
            np.random.default_rng(0),
        )
        assert len(pairs) == side * side * hood * hood
        # independent check: toroidal Chebyshev distance <= reach in each axis
        reach = hood // 2
        expected = set()
        for ax in range(side):
            for ay in range(side):
                for dx in range(side):
                    for dy in range(side):
                        ring_x = min((dx - ax) % side, (ax - dx) % side)
                        ring_y = min((dy - ay) % side, (ay - dy) % side)
                        if ring_x <= reach and ring_y <= reach:
                            expected.add((ax * side + ay, dx * side + dy))
        assert set(pairs) == expected
        assert len(pairs) == len(expected)

    def test_spatial_size_mismatch(self):
        with pytest.raises(StructureMismatch):
            pair(
                CompetitionStructure("spatial", grid_side=4, neighborhood=3),
                8,
                16,
                np.random.default_rng(0),
            )

    def test_spatial_even_neighborhood_rejected(self):
        with pytest.raises(ValueError):
            CompetitionStructure("spatial", grid_side=4, neighborhood=2)

    def test_pairing_is_seed_deterministic(self):
        args = (CompetitionStructure("one-vs-one"), 8, 8)
        assert pair(*args, np.random.default_rng(5)) == pair(*args, np.random.default_rng(5))

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["one-vs-one", "all-vs-all", "tournament", "spatial"]),
        rounds=st.integers(1, 4),
        side=st.integers(1, 5),
        hood=st.sampled_from([1, 3, 5, 7]),
        sizes=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pair_count_is_the_number_of_pairs(self, kind, rounds, side, hood, sizes, seed):
        structure = CompetitionStructure(kind, rounds=rounds, grid_side=side, neighborhood=hood)
        if kind == "spatial":
            sizes = (side * side, side * side)
        pairs = pair(structure, *sizes, np.random.default_rng(seed))
        assert len(pairs) == pair_count(structure, *sizes)


class TestAssignFitness:
    def test_mean(self):
        outs = [outcome(attacker_score=s) for s in (1, 2, 3)]
        assert assign_fitness({0: outs}, "mean", "attacker") == {0: 2.0}

    def test_median_midpoint(self):
        outs = [outcome(attacker_score=s) for s in (1, 2, 3, 4)]
        assert assign_fitness({0: outs}, "median", "attacker") == {0: 2.5}

    def test_singleton_any_aggregation(self):
        outs = {3: [outcome(defender_score=5.0)]}
        for aggregation in ("mean", "max", "min", "median"):
            assert assign_fitness(outs, aggregation, "defender") == {3: 5.0}

    def test_fitness_depends_only_on_outcome_multiset(self):
        outs = [outcome(attacker_score=s) for s in (3.0, 1.0, 2.0, 2.0)]
        shuffled = [outs[2], outs[0], outs[3], outs[1]]
        for aggregation in ("mean", "max", "min", "median"):
            assert assign_fitness({0: outs}, aggregation, "attacker") == assign_fitness(
                {0: shuffled}, aggregation, "attacker"
            )

    def test_secondary_weight_folds_cost(self):
        outs = {0: [outcome(attacker_score=1.0, costs={"attacker_cost": 0.5})]}
        assert assign_fitness(outs, "mean", "attacker", secondary_weight=0.2) == {0: 0.9}
        assert assign_fitness(outs, "mean", "attacker") == {0: 1.0}


FINITE = st.one_of(
    st.floats(-1e150, 1e150),
    st.sampled_from([-1e18, 0.0, -0.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0]),
    st.integers(-(2**53), 2**53).map(float),
)


class TestPopulationVariance:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=40))
    @example([-1e18] * 19 + [3.5])
    @example([0.1] * 30)
    @example([1e150, -1e150, 5e-324])
    def test_equals_pvariance_bit_for_bit(self, values):
        assert population_variance(values).hex() == statistics.pvariance(values).hex()

    @pytest.mark.parametrize("values", [[1.0, float("inf")], [float("nan"), 1.0], [-float("inf")]])
    def test_non_finite_goes_to_pvariance(self, values):
        assert repr(population_variance(values)) == repr(statistics.pvariance(values))


class TestSelect:
    def test_full_tournament_prefers_optimum_in_expectation(self):
        # draws are i.i.d. with replacement, so k=N yields the optimum
        # whenever it is drawn: probability 1 - ((N-1)/N)^N per slot.
        n = 4
        pop = members(n)
        fitness = {0: 1.0, 1: 9.0, 2: 3.0, 3: 7.0}
        rng = np.random.default_rng(17)
        hits = total = 0
        for _ in range(400):
            parents = select(pop, fitness, SelectionScheme("tournament", size=n), rng)
            hits += sum(1 for p in parents if p == pop[1])
            total += len(parents)
        expected = 1 - ((n - 1) / n) ** n
        assert abs(hits / total - expected) < 0.04

    def test_truncation_full_fraction_is_uniform(self):
        pop = members(4)
        fitness = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
        rng = np.random.default_rng(3)
        counts = Counter()
        for _ in range(2000):
            for parent in select(pop, fitness, SelectionScheme("truncation", fraction=1.0), rng):
                counts[parent.codons[0]] += 1
        assert set(counts) == {1, 2, 3, 4}
        assert all(abs(c / sum(counts.values()) - 0.25) < 0.02 for c in counts.values())

    def test_truncation_keeps_best_half(self):
        pop = members(4)
        fitness = {0: 1.0, 1: 9.0, 2: 3.0, 3: 7.0}
        parents = select(
            pop, fitness, SelectionScheme("truncation", fraction=0.5), np.random.default_rng(0)
        )
        assert set(p.codons[0] for p in parents) <= {2, 4}  # members 1 and 3

    def test_binary_tournament_exact_probability(self):
        # two members, fitnesses [9, 1]: enumerating the draw pairs
        # (0,0) (0,1) (1,0) (1,1) gives the better member 3/4 of slots.
        pop = members(2)
        fitness = {0: 9.0, 1: 1.0}
        rng = np.random.default_rng(123)
        picked = total = 0
        for _ in range(5000):
            for parent in select(pop, fitness, SelectionScheme("tournament", size=2), rng):
                picked += parent == pop[0]
                total += 1
        assert abs(picked / total - 0.75) < 0.02

    @pytest.mark.parametrize(
        "scheme, draws, winners",
        [
            # draws (3,2) (2,3) (1,3) (0,2): a tie goes low, member 0 is less fit
            (SelectionScheme("tournament", size=2), [3, 2, 2, 3, 1, 3, 0, 2], [2, 2, 1, 2]),
            # the best half is members 1 and 2, not 3; draws pick from it
            (SelectionScheme("truncation", fraction=0.5), [0, 1, 1, 0], [1, 2, 2, 1]),
        ],
        ids=["tournament", "truncation"],
    )
    def test_ties_go_to_the_lowest_index(self, scheme, draws, winners):
        pop = members(4)
        fitness = {0: 1.0, 1: 5.0, 2: 5.0, 3: 5.0}
        parents = select(pop, fitness, scheme, _ScriptedRng(integers=draws))
        assert parents == [pop[i] for i in winners]


class _ScriptedRng:
    """Duck-typed generator driving variation operators deterministically."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self):
        return self._randoms.pop(0)

    def integers(self, low, high):
        return self._integers.pop(0)


class TestMutate:
    LIMITS = GenotypeLimits(min_length=1, max_length=5, codon_max=1)

    def test_zero_rate_returns_identical(self):
        genotype = Genotype((1, 2, 3))
        assert mutate(genotype, 0.0, np.random.default_rng(0), GenotypeLimits(1, 5, 10)) == genotype

    def test_rate_one_with_unit_codon_range_zeroes(self):
        result = mutate(Genotype((5, 7, 9)), 1.0, OracleGenerator(np.random.PCG64(0)), GenotypeLimits(1, 5, 1))
        assert set(result.codons[:3]) | {0} == {0}

    def test_rate_one_at_max_length_only_shrinks_or_stays(self):
        limits = GenotypeLimits(min_length=1, max_length=5, codon_max=8)
        lengths = set()
        for seed in range(200):
            result = mutate(Genotype((1,) * 5), 1.0, OracleGenerator(np.random.PCG64(seed)), limits)
            lengths.add(len(result))
        assert lengths == {4, 5}  # insert is blocked at the cap

    def test_rate_one_at_min_length_only_grows_or_stays(self):
        limits = GenotypeLimits(min_length=3, max_length=8, codon_max=8)
        lengths = set()
        for seed in range(200):
            result = mutate(Genotype((1, 1, 1)), 1.0, OracleGenerator(np.random.PCG64(seed)), limits)
            lengths.add(len(result))
        assert lengths == {3, 4}

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_bounds_always_respected(self, seed, rate):
        limits = GenotypeLimits(min_length=2, max_length=6, codon_max=16)
        result = mutate(Genotype((3, 3, 3, 3)), rate, OracleGenerator(np.random.PCG64(seed)), limits)
        assert limits.min_length <= len(result) <= limits.max_length
        assert all(0 <= c < limits.codon_max for c in result.codons)


class TestCrossover:
    LIMITS = GenotypeLimits(min_length=1, max_length=12, codon_max=100)

    def test_zero_rate_returns_parents(self):
        a, b = Genotype((1, 2)), Genotype((3, 4))
        assert crossover(a, b, 0.0, np.random.default_rng(0), self.LIMITS) == (a, b)

    def test_cut_after_position_one_in_both(self):
        rng = _ScriptedRng(randoms=[0.0], integers=[1, 1])
        first, second = crossover(Genotype((1, 1, 1)), Genotype((2, 2, 2)), 1.0, rng, self.LIMITS)
        assert first.codons == (1, 2, 2)
        assert second.codons == (2, 1, 1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_total_codons_conserved(self, seed):
        a, b = Genotype((1, 2, 3, 4, 5)), Genotype((6, 7, 8))
        first, second = crossover(a, b, 1.0, np.random.default_rng(seed), self.LIMITS)
        assert len(first) + len(second) == len(a) + len(b)
        assert sorted(first.codons + second.codons) == sorted(a.codons + b.codons)

    def test_bound_violating_cuts_fall_back_to_parents(self):
        limits = GenotypeLimits(min_length=3, max_length=3, codon_max=100)
        a, b = Genotype((1, 2, 3)), Genotype((4, 5, 6))
        for seed in range(50):
            first, second = crossover(a, b, 1.0, np.random.default_rng(seed), limits)
            assert len(first) == len(second) == 3


class TestParetoFront:
    """Points are (score, cost): score is maximised, cost minimised."""

    def test_empty(self):
        assert pareto_front([]) == []

    def test_single_point(self):
        assert pareto_front([(1.0, 1.0)]) == [0]

    def test_dominating_corner(self):
        points = [(1, 2), (2, 1), (1, 1), (2, 2)]
        assert pareto_front(points) == [1]

    def test_trade_offs_all_survive(self):
        points = [(1, 1), (3, 5), (0, 3), (2, 2)]
        assert pareto_front(points) == [0, 1, 3]

    def test_tie_on_one_side_is_decided_by_the_other(self):
        assert pareto_front([(2, 3), (2, 1), (0, 1)]) == [1]

    def test_duplicates_all_survive(self):
        points = [(1, 1), (1, 1), (0, 2)]
        assert pareto_front(points) == [0, 1]

    # Few distinct coordinates, so ties and duplicates are common; [] is drawn too.
    HALVES = st.integers(-2, 3).map(lambda v: v / 2)

    @given(st.lists(st.tuples(HALVES, HALVES), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, points):
        assert pareto_front(points) == pareto_oracle(points, ("max", "min"))
