import hashlib
import itertools
import json
import statistics
from collections import defaultdict
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevarena import (
    CompetitionStructure,
    EvolutionConfig,
    SelectionScheme,
    StructureMismatch,
    run_alternating,
)
from coevarena.engine.config import AGGREGATIONS, SOLUTION_CONCEPTS
from coevarena.engine.rng import Key
from coevarena.grammar import (
    CODON_POLICIES,
    GenotypeLimits,
    MappingConfig,
    MappingFailure,
    map_genotype,
    parse_bnf,
)
from coevarena.store import FORMAT_VERSION, STORED_INPUTS, ResultsStore, sha256_file

from conftest import ScriptedEnvironment, hash_costs, hash_score
from oracles import oracle_run_alternating

# Non-recursive, so every genotype maps: loop-shape assertions stay clean of
# invalid individuals. The invalid-individual test builds its own grammar.
ATTACK_GRAMMAR = parse_bnf(
    "<attack> ::= <word> | <word> <word> | <word> <word> <word>\n"
    "<word> ::= jab | hook | feint | wait"
)
DEFENSE_GRAMMAR = parse_bnf(
    "<defense> ::= <word> | <word> <word> | <word> <word> <word>\n"
    "<word> ::= block | dodge | parry | brace"
)
RECURSIVE_ATTACK_BNF = "<attack> ::= <word> | <word> <attack>\n<word> ::= jab | hook | feint | wait"
RECURSIVE_DEFENSE_BNF = (
    "<defense> ::= <word> | <word> <defense>\n<word> ::= block | dodge | parry | brace"
)
RECURSIVE_ATTACK_GRAMMAR = parse_bnf(RECURSIVE_ATTACK_BNF)
RECURSIVE_DEFENSE_GRAMMAR = parse_bnf(RECURSIVE_DEFENSE_BNF)


def config(**overrides) -> EvolutionConfig:
    base = dict(
        generations=3,
        attacker_population=4,
        defender_population=4,
        mutation_rate=0.2,
        crossover_rate=0.7,
        master_seed=9,
        limits=GenotypeLimits(min_length=4, max_length=16, codon_max=64),
    )
    base.update(overrides)
    return EvolutionConfig(**base)


def run(cfg, environment=None):
    return run_alternating(
        cfg, ATTACK_GRAMMAR, DEFENSE_GRAMMAR, environment or ScriptedEnvironment(hash_score)
    )


def rows(record):
    """Every engagement of a run with its half-step and scores, in log order."""
    return [
        {
            "generation": cohort.generation,
            "phase": cohort.phase,
            **engagement._asdict(),
            "attacker_score": engagement.outcome.attacker_score,
            "defender_score": engagement.outcome.defender_score,
        }
        for cohort in record.cohorts
        for engagement in cohort.engagements
    ]


class TestLoopShape:
    def test_t1_n1_is_exactly_two_half_step_engagements(self):
        record = run(config(generations=1, attacker_population=1, defender_population=1))
        assert [(e["generation"], e["phase"], e["kind"]) for e in rows(record)] == [
            (1, "attacker", "candidate"),
            (1, "defender", "candidate"),
        ]

    def test_candidate_engagement_counts_per_structure(self):
        cases = [
            (CompetitionStructure("one-vs-one"), 4),
            (CompetitionStructure("all-vs-all"), 16),
            (CompetitionStructure("tournament", rounds=2), 8),
            (CompetitionStructure("spatial", grid_side=2, neighborhood=1), 4),
        ]
        for structure, expected in cases:
            record = run(config(structure=structure))
            candidates = [e for e in rows(record) if e["kind"] == "candidate"]
            per_half_step = {}
            for engagement in candidates:
                key = (engagement["generation"], engagement["phase"])
                per_half_step[key] = per_half_step.get(key, 0) + 1
            assert set(per_half_step.values()) == {expected}, structure.kind

    def test_incumbent_records_start_at_generation_two(self):
        record = run(config(generations=3))
        incumbents = [e for e in rows(record) if e["kind"] == "incumbent"]
        assert incumbents
        assert all(e["generation"] >= 2 for e in incumbents)
        # re-evaluation runs against the whole frozen opponent population
        by_half_step = {}
        for engagement in incumbents:
            key = (engagement["generation"], engagement["phase"])
            by_half_step.setdefault(key, []).append(engagement)
        assert set(by_half_step) == {(g, r) for g in (2, 3) for r in ("attacker", "defender")}
        assert all(len(group) == 4 for group in by_half_step.values())

    def test_half_steps_cover_both_roles_every_generation(self):
        record = run(config(generations=4))
        assert [(s.generation, s.phase) for s in record.half_steps] == [
            (g, role) for g in range(1, 5) for role in ("attacker", "defender")
        ]

    def test_spatial_structure_requires_square_populations(self):
        cfg = config(structure=CompetitionStructure("spatial", grid_side=3, neighborhood=1))
        with pytest.raises(StructureMismatch):
            run(cfg)


class TestCohorts:
    def test_one_cohort_per_population(self):
        record = run(config(generations=3))
        assert [(c.generation, c.phase) for c in record.cohorts] == [
            (g, role) for g in (0, 1, 2, 3) for role in ("attacker", "defender")
        ]
        assert all(not c.engagements and c.replaced is None for c in record.cohorts[:2])

    def test_cohorts_and_swaps_rebuild_every_half_steps_best(self):
        # Replay the elitism swaps: a swap puts the incumbent, an individual of
        # the role's previous population, into the replaced slot.
        record = run(config(generations=12, master_seed=5))
        current = {}
        swaps = 0
        for cohort, step in zip(record.cohorts, [None, None, *record.half_steps]):
            members = list(cohort.members)
            if cohort.replaced is not None:
                own = f"{cohort.phase}_id"
                (incumbent,) = {e._asdict()[own] for e in cohort.engagements if e.kind == "incumbent"}
                members[cohort.replaced] = current[cohort.phase][incumbent]
                swaps += 1
            current[cohort.phase] = members
            if step is not None:
                assert (step.generation, step.phase) == (cohort.generation, cohort.phase)
                assert members[step.best_id] == step.best_genotype
        assert swaps > 0
        assert current["attacker"][record.best_attacker.index] == record.best_attacker.genotype
        assert current["defender"][record.best_defender.index] == record.best_defender.genotype


class RecordingEnvironment(ScriptedEnvironment):
    """Records each engage call as (attack sentence, defense sentence, key words)."""

    def __init__(self):
        super().__init__(hash_score)
        self.calls = []

    def engage(self, attack, defense, key):
        self.calls.append((attack.sentence, defense.sentence, key.words))
        return super().engage(attack, defense, key)


class TestJobOrder:
    def test_engage_calls_are_the_job_list_in_log_order(self):
        # all-vs-all fixes the candidate pairs, attacker-major, so each
        # half-step's job list is rebuilt from the logged populations alone:
        # the candidate pairs, then the incumbent (the role's previous best)
        # against every frozen opponent, less the jobs with an unmapped member.
        cfg = config(
            generations=3,
            attacker_population=4,
            defender_population=3,
            structure=CompetitionStructure("all-vs-all"),
            limits=GenotypeLimits(min_length=1, max_length=8, codon_max=64),
            mapping=MappingConfig(max_wraps=0, max_derivation_steps=50),
        )
        environment = RecordingEnvironment()
        record = run_alternating(cfg, RECURSIVE_ATTACK_GRAMMAR, RECURSIVE_DEFENSE_GRAMMAR, environment)
        grammars = {"attacker": RECURSIVE_ATTACK_GRAMMAR, "defender": RECURSIVE_DEFENSE_GRAMMAR}

        def strategy(role, member):
            try:
                return map_genotype(member, grammars[role], cfg.mapping)
            except MappingFailure:
                return None

        words = {"candidate": "engage", "incumbent": "elite"}
        bests = {(s.generation, s.phase): s.best_id for s in record.half_steps}
        population = {}  # role -> its strategies before the half-step
        jobs, logged, skipped = [], [], 0
        for cohort in record.cohorts:
            role, generation = cohort.phase, cohort.generation
            strategies = [strategy(role, member) for member in cohort.members]
            if generation == 0:
                population[role] = strategies
                continue
            own = population[role]
            opponent = population["defender" if role == "attacker" else "attacker"]

            def oriented(mine, theirs):
                return (mine, theirs) if role == "attacker" else (theirs, mine)

            attackers, defenders = oriented(strategies, opponent)
            half_step = [
                ("candidate", a * len(defenders) + d, attackers[a], defenders[d])
                for a in range(len(attackers))
                for d in range(len(defenders))
            ]
            incumbent = own[bests[generation - 1, role]] if generation > 1 else None
            if generation > 1:
                half_step += [("incumbent", j, *oriented(incumbent, s)) for j, s in enumerate(opponent)]
            for kind, k, attack, defense in half_step:
                if attack is None or defense is None:
                    skipped += 1
                else:
                    key = Key(cfg.master_seed, words[kind], generation, role, k).words
                    jobs.append((attack.sentence, defense.sentence, key))
            for kind, k, a, d, _ in cohort.engagements:
                attacks, defenses = oriented(strategies if kind == "candidate" else own, opponent)
                key = Key(cfg.master_seed, words[kind], generation, role, k).words
                logged.append((attacks[a].sentence, defenses[d].sentence, key))
            population[role] = strategies
            if cohort.replaced is not None:
                population[role][cohort.replaced] = incumbent
        assert skipped > 0
        assert any(e.kind == "incumbent" for c in record.cohorts for e in c.engagements)
        assert environment.calls == jobs == logged


class TestDeterminism:
    def test_identical_seed_gives_identical_record(self):
        first = run(config(generations=4, master_seed=21))
        second = run(config(generations=4, master_seed=21))
        assert first.cohorts == second.cohorts
        assert first.best_attacker == second.best_attacker
        assert first.half_steps == second.half_steps

    def test_different_seed_differs(self):
        first = run(config(generations=4, master_seed=21))
        second = run(config(generations=4, master_seed=22))
        assert first.cohorts != second.cohorts


class TestDegenerateEnvironment:
    def test_constant_zero_environment(self):
        record = run(config(generations=3), ScriptedEnvironment(lambda a, d: 0.0))
        for step in record.half_steps:
            assert step.best_fitness == 0.0
            assert step.fitness_variance == 0.0
        assert record.best_attacker.fitness == 0.0
        assert record.best_defender.fitness == 0.0
        again = run(config(generations=3), ScriptedEnvironment(lambda a, d: 0.0))
        assert again.best_attacker.index == record.best_attacker.index


class TestElitism:
    def test_best_never_worse_than_reevaluated_incumbent(self):
        record = run(config(generations=20, master_seed=5))
        checked = 0
        for step in record.half_steps:
            if step.incumbent_fitness is not None:
                assert step.best_fitness >= step.incumbent_fitness
                checked += 1
        assert checked >= 30

    def test_solution_concepts_all_run(self):
        for concept in ("meu", "best-worst", "pareto"):
            run(config(solution_concept=concept))


def replay_scored_fitness(records, generation, phase, n):
    """The fitness of each scored individual of one half-step, in index order,
    recomputed from the log of a cost-free run with mean aggregation."""
    candidates, incumbent = defaultdict(list), []
    for record in records:
        if (record["generation"], record["phase"]) == (generation, phase):
            score = record[f"{phase}_score"]
            if record["kind"] == "candidate":
                candidates[record[f"{phase}_id"]].append(score)
            else:
                incumbent.append(score)
    fitness = {i: statistics.fmean(candidates[i]) for i in sorted(candidates)}
    if incumbent:
        # elitism swaps the incumbent in for the worst newcomer, and an
        # unscored newcomer, at the sentinel, is worse than any score
        worst = min(range(n), key=lambda i: (fitness.get(i, float("-inf")), i))
        if statistics.fmean(incumbent) > fitness.get(worst, float("-inf")):
            fitness[worst] = statistics.fmean(incumbent)
    return [fitness[i] for i in sorted(fitness)]


class TestInvalidIndividuals:
    def test_mapping_failures_get_sentinel_fitness(self):
        # wraps forbidden and tiny genotypes: the recursive alternative often
        # strands the derivation, producing invalid individuals.
        cfg = config(
            generations=3,
            attacker_population=8,
            defender_population=8,
            limits=GenotypeLimits(min_length=1, max_length=8, codon_max=64),
            mapping=MappingConfig(max_wraps=0, max_derivation_steps=50),
        )
        record = run_alternating(
            cfg, RECURSIVE_ATTACK_GRAMMAR, RECURSIVE_DEFENSE_GRAMMAR, ScriptedEnvironment(hash_score)
        )
        assert rows(record)  # some pairs still engaged
        assert any(step.best_fitness > cfg.invalid_fitness for step in record.half_steps)
        # mean_fitness leaves out the sentinel: it is the mean over the
        # individuals that were scored, replayed here from the log.
        partly_scored = 0
        for step in record.half_steps:
            n = cfg.population_size(step.phase)
            scored = replay_scored_fitness(rows(record), step.generation, step.phase, n)
            if scored:
                assert step.mean_fitness == statistics.fmean(scored)
                partly_scored += len(scored) < n
        assert partly_scored > 0


# sha256 of every run_alternating output over GOLDEN_GRID. A change to any
# cohort, engagement, half-step or champion changes it.
GOLDEN_LOOP_DIGEST = "833066b7a72ae6b410d46325a1505b9353d848deebe7e2a2f2b018ed3db8d110"

# sha256 of what the GOLDEN_GRID runs decide, read back through the store:
# engagement ids, kinds, scores and costs, half-step bests and champions. It
# does not depend on the log layout, so a layout change must leave it alone.
GOLDEN_OUTCOME_DIGEST = "8dbd3c84019cb5986a7a2683a4b832e07e70b5c39a73f2a84ff20f2c4559e651"

GOLDEN_GRID = list(
    itertools.product(
        (
            CompetitionStructure("one-vs-one"),
            CompetitionStructure("all-vs-all"),
            CompetitionStructure("tournament", rounds=2),
            CompetitionStructure("spatial", grid_side=2, neighborhood=1),
        ),
        ("meu", "best-worst", "pareto"),
        ("mean", "max", "min", "median"),
        (0.0, 0.3),
    )
)


def golden_runs():
    """(config, record) of each GOLDEN_GRID run.

    Recursive grammars with no wraps leave some individuals invalid, and the
    environment charges both sides, so every fitness and champion path that
    folds in cost or skips an invalid pair is exercised.
    """
    selections = (SelectionScheme("tournament", size=2), SelectionScheme("truncation", fraction=0.5))
    for k, (structure, concept, aggregation, weight) in enumerate(GOLDEN_GRID):
        cfg = config(
            generations=3,
            master_seed=k,
            structure=structure,
            solution_concept=concept,
            aggregation=aggregation,
            selection=selections[k % 2],
            secondary_weight=weight,
            limits=GenotypeLimits(min_length=1, max_length=8, codon_max=64),
            mapping=MappingConfig(max_wraps=0, max_derivation_steps=50),
        )
        record = run_alternating(
            cfg,
            RECURSIVE_ATTACK_GRAMMAR,
            RECURSIVE_DEFENSE_GRAMMAR,
            ScriptedEnvironment(hash_score, hash_costs),
        )
        yield cfg, record


class TestGoldenDigest:
    def test_loop_output_digest_is_pinned(self):
        digest = hashlib.sha256()
        for _, record in golden_runs():
            payload = {
                "cohorts": [asdict(cohort) for cohort in record.cohorts],
                "half_steps": [asdict(step) for step in record.half_steps],
                "champions": [asdict(record.best_attacker), asdict(record.best_defender)],
            }
            digest.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
        assert digest.hexdigest() == GOLDEN_LOOP_DIGEST

    def test_stored_outcome_digest_is_pinned(self, tmp_path):
        inputs = {"attack.bnf": RECURSIVE_ATTACK_BNF, "defense.bnf": RECURSIVE_DEFENSE_BNF, "none.cfg": ""}
        for name, text in inputs.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        paths = [tmp_path / name for name in inputs]
        store = ResultsStore(tmp_path / "store")
        digest = hashlib.sha256()
        for cfg, record in golden_runs():
            # The keys coevarena run writes; load checks each one.
            manifest = {
                "format_version": FORMAT_VERSION,
                "run_id": record.run_id,
                "seed": cfg.master_seed,
                "environment": ScriptedEnvironment.environment_id,
                "algorithm_label": "alternating",
                "config": record.config.to_dict(),
                **{key: {"path": str(p), "sha256": sha256_file(p)} for key, p in zip(STORED_INPUTS, paths)},
                "created_at": "2020-01-01T00:00:00+00:00",
            }
            stored = store.load(store.add_run(record, manifest, *paths))
            assert stored.config == cfg
            engagements = [
                [r[key] for key in (
                    "generation", "phase", "kind", "pair_index", "attacker_id", "defender_id",
                    "attacker_score", "defender_score", "costs",
                )]
                for r in stored.engagement_records()
            ]
            bests = [
                [s[key] for key in (
                    "generation", "phase", "best_id", "best_fitness", "best_sentence", "best_cost",
                )]
                for s in stored.half_steps
            ]
            champions = [asdict(record.best_attacker), asdict(record.best_defender)]
            digest.update(json.dumps([engagements, bests, champions], sort_keys=True).encode("utf-8"))
        assert digest.hexdigest() == GOLDEN_OUTCOME_DIGEST


class KeyedEnvironment(ScriptedEnvironment):
    """hash_score and hash_costs, plus one draw from each engagement's own stream
    as telemetry, so that comparing outcomes compares engagement keys too."""

    def __init__(self):
        super().__init__(hash_score, hash_costs)

    def engage(self, attack, defense, key):
        outcome = super().engage(attack, defense, key)
        return replace(outcome, telemetry={"draw": np.random.default_rng(key.seed_sequence()).random()})


@st.composite
def loop_configs(draw):
    """Small configs over every structure, scheme, aggregation and concept. The
    recursive grammars with no wraps leave some individuals invalid."""
    structure = draw(
        st.one_of(
            st.sampled_from([CompetitionStructure("one-vs-one"), CompetitionStructure("all-vs-all")]),
            st.builds(lambda r: CompetitionStructure("tournament", rounds=r), st.integers(1, 3)),
            st.builds(
                lambda c: CompetitionStructure("spatial", grid_side=2, neighborhood=c),
                st.sampled_from([1, 3]),
            ),
        )
    )
    sizes = st.just(4) if structure.kind == "spatial" else st.integers(1, 5)
    min_length = draw(st.integers(1, 4))
    return config(
        generations=draw(st.integers(1, 4)),
        attacker_population=draw(sizes),
        defender_population=draw(sizes),
        mutation_rate=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        crossover_rate=draw(st.sampled_from([0.0, 0.5, 1.0])),
        selection=draw(
            st.one_of(
                st.builds(lambda k: SelectionScheme("tournament", size=k), st.integers(1, 4)),
                st.builds(
                    lambda f: SelectionScheme("truncation", fraction=f), st.sampled_from([0.25, 0.5, 1.0])
                ),
            )
        ),
        structure=structure,
        aggregation=draw(st.sampled_from(AGGREGATIONS)),
        solution_concept=draw(st.sampled_from(SOLUTION_CONCEPTS)),
        secondary_weight=draw(st.sampled_from([0.0, 0.3])),
        master_seed=draw(st.integers(0, 2**40)),
        limits=GenotypeLimits(
            min_length=min_length,
            max_length=draw(st.integers(min_length, 8)),
            codon_max=draw(st.sampled_from([2, 64, 2**40])),
        ),
        mapping=MappingConfig(
            max_wraps=0, codon_policy=draw(st.sampled_from(CODON_POLICIES)), max_derivation_steps=50
        ),
    )


class TestReferenceLoop:
    """run_alternating gives, record for record, what the reference loop in
    tests/oracles.py gives: every cohort with its engagements, every half-step
    and both champions."""

    @staticmethod
    def assert_matches_reference(cfg, record, environment):
        cohorts, half_steps, champions = oracle_run_alternating(
            cfg, RECURSIVE_ATTACK_GRAMMAR, RECURSIVE_DEFENSE_GRAMMAR, environment
        )
        assert len(record.cohorts) == len(cohorts)
        for built, expected in zip(record.cohorts, cohorts):
            assert built == expected, (expected.generation, expected.phase)
        assert len(record.half_steps) == len(half_steps)
        for built, expected in zip(record.half_steps, half_steps):
            assert built == expected, (expected.generation, expected.phase)
        assert (record.best_attacker, record.best_defender) == champions

    def test_golden_grid(self):
        for cfg, record in golden_runs():
            self.assert_matches_reference(cfg, record, ScriptedEnvironment(hash_score, hash_costs))

    @settings(max_examples=100, deadline=None)
    @given(cfg=loop_configs())
    def test_drawn_configs(self, cfg):
        record = run_alternating(cfg, RECURSIVE_ATTACK_GRAMMAR, RECURSIVE_DEFENSE_GRAMMAR, KeyedEnvironment())
        self.assert_matches_reference(cfg, record, KeyedEnvironment())
