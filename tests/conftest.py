import zlib
from pathlib import Path

import pytest

from coevarena.data import data_path
from coevarena.engagement import EngagementOutcome
from coevarena.envs.contagion import ContagionScenario, MonteCarloConfig, SegmentedNetwork
from coevarena.envs.ddos import NetworkScenario, Task


def path_scenario(horizon=12, tasks=None, budget=100):
    """Five-node path n0-n1-n2-n3-n4; disabling n2 splits it."""
    return NetworkScenario(
        nodes=("n0", "n1", "n2", "n3", "n4"),
        edges=(("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n4")),
        tasks=tasks
        or (
            Task("n0", "n4", 0, horizon - 1, 2),
            Task("n0", "n1", 0, horizon - 1, 2),
        ),
        horizon=horizon,
        message_cost=1.0,
        attack_budget=budget,
    )


def small_contagion(
    trials=5,
    horizon=15,
    spread_rate=0.3,
    cross_rate=0.05,
    cleanse_duration=2,
    sizes=(3, 3, 3),
    links=((0, 1), (1, 2)),
    mission_devices=2,
):
    network = SegmentedNetwork(
        enclave_sizes=sizes,
        links=links,
        spread_rate=spread_rate,
        cross_rate=cross_rate,
        cleanse_duration=cleanse_duration,
    )
    mc = MonteCarloConfig(
        trials=trials,
        horizon=horizon,
        delay_per_infected_tick=1.0,
        delay_per_cleanse=4.0,
    )
    return ContagionScenario(network=network, mc=mc, mission_devices=mission_devices)


class ScriptedEnvironment:
    """Zero-sum stand-in environment: score is a pure function of the sentences.

    cost_fn, when given, maps (attack, defense) to (attacker_cost, defender_cost).
    """

    environment_id = "scripted"

    def __init__(self, score_fn=None, cost_fn=None):
        self.score_fn = score_fn or (lambda attack, defense: 0.0)
        self.cost_fn = cost_fn

    def engage(self, attack, defense, key):
        value = float(self.score_fn(attack, defense))
        costs = {}
        if self.cost_fn is not None:
            attacker_cost, defender_cost = self.cost_fn(attack, defense)
            costs = {"attacker_cost": attacker_cost, "defender_cost": defender_cost}
        return EngagementOutcome(
            attacker_score=value,
            defender_score=-value,
            costs=costs,
        )


def hash_score(attack, defense):
    return zlib.crc32(f"{attack.text}|{defense.text}".encode()) / 2**32


def hash_costs(attack, defense):
    return (
        zlib.crc32(f"cost|{attack.text}".encode()) / 2**32,
        zlib.crc32(f"cost|{defense.text}|{attack.text}".encode()) / 2**32,
    )


SMALL_CONTAGION_SCENARIO = """\
[enclaves]
sizes = 3 3 3
links = 0-1 1-2

[contagion]
spread_rate = 0.3
cross_rate = 0.05
cleanse_duration = 2

[mission]
horizon = 15
mission_devices = 2
delay_per_infected_tick = 1.0
delay_per_cleanse = 4.0

[simulation]
trials = 5
"""

SMALL_DDOS_SCENARIO = """\
[network]
nodes = n0 n1 n2 n3 n4
edges = n0-n1 n1-n2 n2-n3 n3-n4 n4-n0

[mission]
horizon = 12
tasks =
    n0 n2 0 10 2
    n1 n4 0 11 2

[costs]
message_cost = 1.0
node_cost = 0.1
attack_budget = 30
"""


def write_experiment_config(
    directory: Path,
    environment: str,
    scenario_path: Path,
    *,
    name="exp.cfg",
    seed=5,
    repetitions=1,
    generations=3,
    population=4,
    structure="one-vs-one",
    selection="tournament:3",
    min_length=6,
    max_length=24,
    store=None,
) -> Path:
    if environment == "ddos":
        attack = data_path("grammars", "ddos_attack.bnf")
        defense = data_path("grammars", "ddos_defense.bnf")
    else:
        attack = data_path("grammars", "contagion_attack.bnf")
        defense = data_path("grammars", "contagion_defense.bnf")
    store_line = f"store = {store}\n" if store else ""
    config = f"""\
[experiment]
environment = {environment}
attack_grammar = {attack}
defense_grammar = {defense}
scenario = {scenario_path}
repetitions = {repetitions}
seed = {seed}
{store_line}
[evolution]
generations = {generations}
attacker_population = {population}
defender_population = {population}
mutation_rate = 0.15
crossover_rate = 0.8
selection = {selection}
structure = {structure}

[genotype]
min_length = {min_length}
max_length = {max_length}
codon_max = 65536
"""
    path = directory / name
    path.write_text(config, encoding="utf-8")
    return path


@pytest.fixture
def ddos_scenario_file(tmp_path):
    path = tmp_path / "ring5.scenario"
    path.write_text(SMALL_DDOS_SCENARIO, encoding="utf-8")
    return path


@pytest.fixture
def contagion_scenario_file(tmp_path):
    path = tmp_path / "tiny.scenario"
    path.write_text(SMALL_CONTAGION_SCENARIO, encoding="utf-8")
    return path
