import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevarena.data import data_path
from coevarena.engagement import InterpretError, ScenarioError, read_clauses, read_scenario
from coevarena.envs import ENVIRONMENTS, contagion, ddos
from coevarena.grammar import (
    CONSUME_ALWAYS,
    CONSUME_ON_CHOICE,
    Genotype,
    MappingConfig,
    MappingFailure,
    load_grammar,
    map_genotype,
)

DEVICE = re.compile(r"^d(\d+)$")
ENCLAVE = re.compile(r"^e(\d+)$")
PLACE = ("place", DEVICE, "in", ENCLAVE)
TAP = ("tap", ENCLAVE, "at", float)
HIT = ("hit", ENCLAVE, "for", int)


@pytest.mark.parametrize(
    "text, templates, expected",
    [
        ("", (PLACE, TAP), [[], []]),
        ("hit e1 for 3 hit e0 for 12", (HIT,), [[(1, 3), (0, 12)]]),
        ("place d1 in e2 tap e0 at 0.5", (PLACE, TAP), [[(1, 2)], [(0, 0.5)]]),
        ("tap e3 at 1", (PLACE, TAP), [[], [(3, 1.0)]]),
        ("place d1 in", (PLACE, TAP), InterpretError),  # cut short
        ("place d1 in e2 tap e0", (PLACE, TAP), InterpretError),  # cut short
        ("place d1 at e2", (PLACE,), InterpretError),  # wrong literal
        ("hit e1 for 2.5", (HIT,), InterpretError),  # bad int
        ("tap e1 at high", (TAP,), InterpretError),  # bad float
        ("place x1 in e2", (PLACE,), InterpretError),  # bad index token
        ("place d1 in e2 e3", (PLACE, TAP), InterpretError),  # leftover
        ("hit e1 for 3 noop", (HIT,), InterpretError),  # leftover
        ("tap e0 at 0.5 place d1 in e2", (PLACE, TAP), InterpretError),  # out of order
    ],
)
def test_read_clauses(text, templates, expected):
    if expected is InterpretError:
        with pytest.raises(InterpretError):
            read_clauses(tuple(text.split()), *templates)
    else:
        assert read_clauses(tuple(text.split()), *templates) == expected


@pytest.mark.parametrize(
    "text",
    [
        None,  # no file
        "no section header\n",
        "[costs]\nbudget = 3\n",  # no [network] section
        "[network]\nnodes = a b\n[costs]\nbudget = many\n",  # bad cast
    ],
)
def test_read_scenario_raises_scenario_error(tmp_path, text):
    path = tmp_path / "net.scenario"
    if text is not None:
        path.write_text(text)

    def build(parser):
        return parser.get("network", "nodes"), parser.getint("costs", "budget")

    with pytest.raises(ScenarioError):
        read_scenario(path, build)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "environment_id, scenario, field",
    [
        ("ddos", "ring9", "message_cost"),
        ("contagion", "star", "delay_per_infected_tick"),
        ("contagion", "star", "delay_per_cleanse"),
    ],
)
def test_cost_or_delay_must_be_finite_and_nonnegative(
    tmp_path, environment_id, scenario, field, value
):
    text = data_path("scenarios", f"{scenario}.scenario").read_text()
    edited, count = re.subn(rf"^{field} = .*$", f"{field} = {value}", text, flags=re.M)
    assert count == 1
    path = tmp_path / f"{scenario}.scenario"
    path.write_text(edited)
    with pytest.raises(ScenarioError, match=field):
        ENVIRONMENTS[environment_id].from_file(path)


def _shipped_scenarios():
    """Each environment's shipped scenarios: every file loads in exactly one."""
    paths = sorted(data_path("scenarios").glob("*.scenario"))
    loaded = {}
    for environment_id, factory in ENVIRONMENTS.items():
        for path in paths:
            try:
                loaded.setdefault(environment_id, []).append(factory.from_file(path).scenario)
            except ScenarioError:
                pass
    assert sum(map(len, loaded.values())) == len(paths)
    return loaded


SHIPPED = _shipped_scenarios()
GRAMMARS = {
    (environment_id, role): load_grammar(data_path("grammars", f"{environment_id}_{name}.bnf"))
    for environment_id in ENVIRONMENTS
    for role, name in enumerate(("attack", "defense"))
}
INTERPRETERS = {
    "ddos": (ddos.interpret_attack, ddos.interpret_defense),
    "contagion": (
        lambda strategy, scenario: contagion.interpret_attack(
            strategy, scenario.network, scenario.mc.horizon
        ),
        lambda strategy, scenario: contagion.interpret_defense(
            strategy, scenario.network, scenario.mission_devices
        ),
    ),
}


@settings(max_examples=200, deadline=None)
@given(
    environment_id=st.sampled_from(sorted(ENVIRONMENTS)),
    role=st.sampled_from([0, 1]),
    codons=st.lists(st.integers(0, 65535), min_size=1, max_size=48),
    policy=st.sampled_from([CONSUME_ON_CHOICE, CONSUME_ALWAYS]),
)
def test_shipped_grammars_derive_interpretable_sentences(environment_id, role, codons, policy):
    grammar = GRAMMARS[environment_id, role]
    try:
        strategy = map_genotype(Genotype(tuple(codons)), grammar, MappingConfig(codon_policy=policy))
    except MappingFailure:
        return
    for scenario in SHIPPED[environment_id]:
        INTERPRETERS[environment_id][role](strategy, scenario)
