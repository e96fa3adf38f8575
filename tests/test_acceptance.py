"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -rA` (or -s) to see the lines.
"""

import json
import statistics
import time

import numpy as np
import pytest

from coevarena import (
    CompetitionStructure,
    EvolutionConfig,
    pair,
    pareto_front,
    run_alternating,
)
from coevarena.cli import main
from coevarena.data import data_path
from coevarena.engine.rng import Key
from coevarena.envs import load_environment
from coevarena.envs.contagion import (
    ContagionAttack,
    ContagionDefense,
    ContagionPlan,
    MonteCarloConfig,
    SegmentedNetwork,
    simulate_trials,
)
from coevarena.envs.ddos import DdosAction, DdosAttack, DdosDefense
from coevarena.envs.ddos import engage as ddos_engage
from coevarena.envs.ddos import flood
from coevarena.establo import PayoffMatrix, pure_nash_pairs, rank
from coevarena.grammar import Genotype, MappingConfig, MappingFailure, load_grammar, map_genotype
from coevarena.store import ResultsStore

from conftest import (
    SMALL_CONTAGION_SCENARIO,
    SMALL_DDOS_SCENARIO,
    path_scenario,
    small_contagion,
    write_experiment_config,
)
from oracles import (
    ORACLE_FAILED,
    components_by_union_find,
    nash_oracle,
    oracle_map,
    oracle_neighbours,
    pareto_oracle,
    random_grammar_text,
)


def test_criterion_1_ge_mapping_oracle_equivalence():
    rng = np.random.default_rng(1001)
    cfg = MappingConfig(max_wraps=2, max_derivation_steps=200)
    mismatches = 0
    started = time.monotonic()
    for _ in range(1000):
        grammar_text = random_grammar_text(rng, max_nonterminals=5)
        from coevarena.grammar import parse_bnf

        grammar = parse_bnf(grammar_text)
        genotype = Genotype(
            tuple(int(c) for c in rng.integers(0, 2**16, size=int(rng.integers(1, 24))))
        )
        expected = oracle_map(genotype, grammar, cfg)
        try:
            actual = map_genotype(genotype, grammar, cfg).sentence
        except MappingFailure:
            actual = ORACLE_FAILED
        if expected is ORACLE_FAILED:
            if actual is not ORACLE_FAILED:
                mismatches += 1
        elif actual is ORACLE_FAILED or actual != expected[0]:
            mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS: 1000 mapping pairs match the derivation oracle in {elapsed:.2f}s")


def test_criterion_2_engagement_count_exactness():
    rng = np.random.default_rng(7)
    for n in (2, 4, 8):
        one = pair(CompetitionStructure("one-vs-one"), n, n, rng)
        assert len(one) == n
        full = pair(CompetitionStructure("all-vs-all"), n, n, rng)
        assert len(full) == n * n
    spatial = pair(CompetitionStructure("spatial", grid_side=4, neighborhood=3), 16, 16, rng)
    assert len(spatial) == 144
    print("ACCEPTANCE 2 PASS: one-vs-one=N, all-vs-all=N^2 for N in {2,4,8}; spatial(4,3)=144")


def test_criterion_3_cmd_run_determinism(tmp_path):
    ddos_scenario = tmp_path / "ring5.scenario"
    ddos_scenario.write_text(SMALL_DDOS_SCENARIO)
    contagion_scenario = tmp_path / "tiny.scenario"
    contagion_scenario.write_text(SMALL_CONTAGION_SCENARIO)
    combos = [
        ("ddos", ddos_scenario, "one-vs-one", 4),
        ("ddos", ddos_scenario, "all-vs-all", 4),
        ("contagion", contagion_scenario, "tournament:2", 4),
        ("contagion", contagion_scenario, "spatial:2x1", 4),
    ]
    for index, (environment, scenario, structure, population) in enumerate(combos):
        config = write_experiment_config(
            tmp_path,
            environment,
            scenario,
            name=f"combo{index}.cfg",
            structure=structure,
            population=population,
            generations=2,
            seed=13 + index,
        )
        logs = []
        for attempt in ("a", "b"):
            store_dir = tmp_path / f"store-{index}-{attempt}"
            assert main(["run", "--config", str(config), "--store", str(store_dir), "--quiet"]) == 0
            run_dir = ResultsStore(store_dir).entries()[0]["dir"]
            logs.append((store_dir / run_dir / "engagements.jsonl").read_bytes())
        assert logs[0] == logs[1], (environment, structure)
    print("ACCEPTANCE 3 PASS: byte-identical engagement logs for 4 environment/structure combos")


def test_criterion_4_elitism_monotonicity(tmp_path):
    violations = 0
    checked = 0
    # DDOS, 50 generations on the shipped ring scenario
    ddos_env = load_environment("ddos", data_path("scenarios", "ring9.scenario"))
    ddos_cfg = EvolutionConfig(
        generations=50, attacker_population=6, defender_population=6,
        master_seed=3, secondary_weight=0.05,
    )
    ddos_record = run_alternating(
        ddos_cfg,
        load_grammar(data_path("grammars", "ddos_attack.bnf")),
        load_grammar(data_path("grammars", "ddos_defense.bnf")),
        ddos_env,
    )
    # contagion, 50 generations on a small scenario
    contagion_scenario = tmp_path / "tiny.scenario"
    contagion_scenario.write_text(SMALL_CONTAGION_SCENARIO)
    contagion_env = load_environment("contagion", contagion_scenario)
    contagion_cfg = EvolutionConfig(
        generations=50, attacker_population=4, defender_population=4, master_seed=2,
    )
    contagion_record = run_alternating(
        contagion_cfg,
        load_grammar(data_path("grammars", "contagion_attack.bnf")),
        load_grammar(data_path("grammars", "contagion_defense.bnf")),
        contagion_env,
    )
    for record in (ddos_record, contagion_record):
        for step in record.half_steps:
            if step.incumbent_fitness is None:
                continue
            checked += 1
            if step.best_fitness < step.incumbent_fitness:
                violations += 1
    assert checked >= 180  # two roles x 49 elitist generations x two runs, minus invalids
    assert violations == 0
    print(f"ACCEPTANCE 4 PASS: elitism held in {checked} half-steps across both environments")


def test_criterion_5_pareto_and_nash_oracle_equivalence():
    rng = np.random.default_rng(55)
    for _ in range(200):
        rows = int(rng.integers(1, 9))
        columns = int(rng.integers(1, 9))
        cells = (rng.integers(0, 10, size=(rows, columns)) / 2.0).tolist()
        matrix = PayoffMatrix(
            context="x",
            attacker_ids=tuple(f"a{i}" for i in range(rows)),
            defender_ids=tuple(f"d{j}" for j in range(columns)),
            cells=tuple(tuple(row) for row in cells),
        )
        got = {
            (matrix.attacker_ids.index(a), matrix.defender_ids.index(d))
            for a, d in pure_nash_pairs(matrix)
        }
        assert got == set(nash_oracle(cells))
        points = [(row[0], row[-1]) for row in cells]  # (score, cost) per row
        assert pareto_front(points) == pareto_oracle(points, ("max", "min"))
    print("ACCEPTANCE 5 PASS: pareto_front and pure_nash_pairs match oracles on 200 matrices")


def test_criterion_6_ddos_degenerate_cases():
    scenario = path_scenario(budget=10_000)
    defenses = (
        DdosDefense("shortest-path"),
        DdosDefense("flooding"),
        DdosDefense("p2p-ring", ring_successors=2),
    )
    for defense in defenses:
        assert ddos_engage(DdosAttack(()), defense, scenario).attacker_score == 0.0
        total = DdosAttack(
            tuple(DdosAction(node, 0, scenario.horizon) for node in scenario.nodes)
        )
        assert ddos_engage(total, defense, scenario).attacker_score == 1.0
    rng = np.random.default_rng(66)
    graphs = 0
    while graphs < 100:
        n = int(rng.integers(4, 10))
        nodes = tuple(f"n{i}" for i in range(n))
        edges = {(nodes[i - 1], nodes[i]) for i in range(1, n)}
        for _ in range(int(rng.integers(0, n))):
            a, b = (int(x) for x in rng.integers(0, n, size=2))
            if a != b:
                edges.add((nodes[min(a, b)], nodes[max(a, b)]))
        adjacency = oracle_neighbours(nodes, edges)
        enabled = {node for node in nodes if rng.random() >= 0.35}
        components = components_by_union_find(nodes, tuple(edges), enabled)
        for source in nodes:
            for destination in nodes:
                delivered, _ = flood(adjacency, enabled, source, destination)
                expected = any(source in g and destination in g for g in components)
                assert delivered == expected
        graphs += 1
    print("ACCEPTANCE 6 PASS: empty/full attacks exact; flooding matched components on 100 graphs")


def test_criterion_7_contagion_degenerate_cases():
    # zero-strength attack: no delay in any of 1000 trials
    scenario = small_contagion(trials=1000)
    silent = ContagionAttack((ContagionPlan(0, 0.0, 10, 3),))
    shield = ContagionDefense(mission_placement=(0, 1), tap_sensitivity=(0.5, 0.5, 0.5))
    delays, _ = simulate_trials(silent, shield, scenario.network, scenario.mc, Key(70))
    assert delays == [0.0] * 1000

    # sensitivity 1 on a fully infected single-device enclave: cleanse on
    # each infected tick, at ticks 0, 3, 6 and 9 of every trial
    network = SegmentedNetwork(
        enclave_sizes=(1, 2), links=((0, 1),), spread_rate=0.0, cross_rate=0.0, cleanse_duration=2
    )
    mc = MonteCarloConfig(
        trials=500, horizon=12,
        delay_per_infected_tick=1.0, delay_per_cleanse=1.0,
    )
    blast = ContagionAttack((ContagionPlan(0, 1.0, 12, 1),))
    alert = ContagionDefense(mission_placement=(0,), tap_sensitivity=(1.0, 0.0))
    assert simulate_trials(blast, alert, network, mc, Key(71)) == ([4.0] * 500, [4] * 500)

    # standard error of the mean delay shrinks like 1/sqrt(trials) within 2x
    noisy = ContagionAttack((ContagionPlan(0, 0.5, 3, 2), ContagionPlan(1, 0.4, 2, 2)))
    porous = ContagionDefense(mission_placement=(0, 1), tap_sensitivity=(0.3, 0.3, 0.3))
    spread = small_contagion(trials=1, spread_rate=0.4, cross_rate=0.1)
    standard_errors = {}
    for count in (10, 100, 1000):
        mc_n = MonteCarloConfig(
            trials=count, horizon=15,
            delay_per_infected_tick=1.0, delay_per_cleanse=4.0,
        )
        means = []
        for repeat in range(12):
            delays, _ = simulate_trials(noisy, porous, spread.network, mc_n, Key(72, count, repeat))
            means.append(statistics.fmean(delays))
        standard_errors[count] = statistics.stdev(means)
    for small, large in ((10, 100), (100, 1000)):
        ratio = standard_errors[small] / standard_errors[large]
        expected = (large / small) ** 0.5
        assert expected / 2 <= ratio <= expected * 2, standard_errors
    print("ACCEPTANCE 7 PASS: zero-attack zero delay; instant cleanse; SE shrinks ~1/sqrt(trials)")


def test_criterion_8_arms_race_smoke(tmp_path):
    config_text = f"""\
[experiment]
environment = ddos
attack_grammar = {data_path("grammars", "ddos_attack.bnf")}
defense_grammar = {data_path("grammars", "ddos_defense.bnf")}
scenario = {data_path("scenarios", "ring9.scenario")}
repetitions = 1

[evolution]
generations = 30
attacker_population = 20
defender_population = 20
mutation_rate = 0.1
crossover_rate = 0.8
selection = tournament:3
structure = one-vs-one
secondary_weight = 0.05

[genotype]
min_length = 8
max_length = 64
"""
    config = tmp_path / "smoke.cfg"
    config.write_text(config_text)
    store_dir = tmp_path / "store"
    disagreement_seeds = []
    for seed in range(5):
        started = time.monotonic()
        assert (
            main(["run", "--config", str(config), "--store", str(store_dir), "--seed", str(seed), "--quiet"])
            == 0
        )
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"seed {seed} took {elapsed:.1f}s"
        # evolution is actually moving: the attacker best-fitness trajectory varies
        run = ResultsStore(store_dir).load_all()[-1]
        attacker_bests = {
            step["best_fitness"] for step in run.half_steps if step["phase"] == "attacker"
        }
        assert len(attacker_bests) > 1, f"flat attacker trajectory for seed {seed}"
        # ESTABLO over the accumulated store (champions are cached across runs)
        out_dir = tmp_path / f"reports-{seed}"
        assert (
            main(["establo", "--store", str(store_dir), "--out", str(out_dir), "--quiet"]) == 0
        )
        summary = (out_dir / "summary.txt").read_text().splitlines()
        tops = {}
        block = None
        for line in summary:
            if line.startswith("["):
                block = line
            elif "top by meu:" in line:
                tops.setdefault(block, {})["meu"] = line.split()[3]
            elif "top by best-worst:" in line:
                tops.setdefault(block, {})["best-worst"] = line.split()[3]
        if any(val["meu"] != val["best-worst"] for val in tops.values()):
            disagreement_seeds.append(seed)
    assert disagreement_seeds, "MEU and best-worst never disagreed in 5 seeds"
    print(
        "ACCEPTANCE 8 PASS: five 30-gen N=20 runs under 60s, non-constant trajectories, "
        f"criteria disagreed at seeds {disagreement_seeds}"
    )


def test_criterion_9_rank_affine_invariance():
    rng = np.random.default_rng(99)
    scales = (0.5, 2.0, 3.5)
    shifts = (-2.0, 0.0, 1.5)
    for _ in range(50):
        rows = int(rng.integers(1, 7))
        columns = int(rng.integers(1, 7))
        cells = rng.integers(0, 12, size=(rows, columns)) / 2.0
        base = PayoffMatrix(
            context="x",
            attacker_ids=tuple(f"a{i}" for i in range(rows)),
            defender_ids=tuple(f"d{j}" for j in range(columns)),
            cells=tuple(tuple(float(v) for v in row) for row in cells),
        )
        scale = scales[int(rng.integers(0, 3))]
        shift = shifts[int(rng.integers(0, 3))]
        transformed = PayoffMatrix(
            context="x",
            attacker_ids=base.attacker_ids,
            defender_ids=base.defender_ids,
            cells=tuple(tuple(scale * v + shift for v in row) for row in base.cells),
        )
        original = [
            (r.entry_id, r.role, r.meu_rank, r.best_worst_rank, r.combined_rank)
            for r in rank(base)
        ]
        rescaled = [
            (r.entry_id, r.role, r.meu_rank, r.best_worst_rank, r.combined_rank)
            for r in rank(transformed)
        ]
        assert original == rescaled
    print("ACCEPTANCE 9 PASS: rank orderings invariant under positive affine rescaling, 50 matrices")
