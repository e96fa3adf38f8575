import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coevarena.engagement import InterpretError, ScenarioError
from coevarena.engine.rng import Key
from coevarena.envs import ddos
from coevarena.envs.ddos import (
    ROUTINGS,
    DdosAction,
    DdosAttack,
    DdosDefense,
    DdosEnvironment,
    NetworkScenario,
    Task,
    distances,
    engage,
    flood,
    interpret_attack,
    interpret_defense,
    load_scenario,
    ring_route,
)
from coevarena.grammar import Strategy

from conftest import path_scenario
from oracles import components_by_union_find, oracle_ddos_engage, oracle_neighbours, oracle_ring_route


def strategy(text: str) -> Strategy:
    return Strategy(tuple(text.split()))


SCENARIO = path_scenario()
ALL_DEFENSES = (
    DdosDefense("shortest-path"),
    DdosDefense("flooding"),
    DdosDefense("p2p-ring", ring_successors=1),
    DdosDefense("p2p-ring", ring_successors=2),
)


class TestInterpretAttack:
    def test_single_clause(self):
        attack = interpret_attack(strategy("disable n3 at 0 for 5"), SCENARIO)
        assert attack.actions == (DdosAction("n3", 0, 5),)

    def test_noop_is_empty(self):
        assert interpret_attack(strategy("noop"), SCENARIO).actions == ()

    def test_tick_beyond_horizon_clamps(self):
        attack = interpret_attack(strategy("disable n1 at 99 for 2"), SCENARIO)
        assert attack.actions[0].start == SCENARIO.horizon - 1

    def test_node_index_clamps(self):
        attack = interpret_attack(strategy("disable n97 at 0 for 2"), SCENARIO)
        assert attack.actions[0].node == "n4"

    def test_budget_trims_in_sentence_order(self):
        scenario = path_scenario(budget=10)
        attack = interpret_attack(
            strategy("disable n0 at 0 for 6 disable n1 at 0 for 6 disable n2 at 0 for 6"),
            scenario,
        )
        assert [a.duration for a in attack.actions] == [6, 4]
        assert attack.total_duration() == 10

    def test_garbage_raises(self):
        with pytest.raises(InterpretError):
            interpret_attack(strategy("route shortest"), SCENARIO)
        with pytest.raises(InterpretError):
            interpret_attack(strategy("disable n1 at x for 2"), SCENARIO)


class TestInterpretDefense:
    def test_protocols(self):
        assert interpret_defense(strategy("route shortest"), SCENARIO).routing == "shortest-path"
        assert interpret_defense(strategy("route flooding"), SCENARIO).routing == "flooding"
        ring = interpret_defense(strategy("route ring 3"), SCENARIO)
        assert ring.routing == "p2p-ring"
        assert ring.ring_successors == 3

    def test_successor_count_clamps(self):
        assert interpret_defense(strategy("route ring 99"), SCENARIO).ring_successors == 4

    def test_garbage_raises(self):
        with pytest.raises(InterpretError):
            interpret_defense(strategy("disable n1 at 0 for 2"), SCENARIO)
        with pytest.raises(InterpretError):
            interpret_defense(strategy("route ring"), SCENARIO)

    def test_successor_count_that_is_not_a_number_raises(self):
        with pytest.raises(InterpretError, match="bad successor count 'x'"):
            interpret_defense(strategy("route ring x"), SCENARIO)


class TestRouting:
    ADJ = SCENARIO.adjacency
    ALL = set(SCENARIO.nodes)

    def test_distances_hops(self):
        assert distances(self.ADJ, self.ALL, "n0") == {"n0": 0, "n1": 1, "n2": 2, "n3": 3, "n4": 4}
        assert distances(self.ADJ, self.ALL, "n2") == {"n0": 2, "n1": 1, "n2": 0, "n3": 1, "n4": 2}

    def test_distances_blocked(self):
        assert distances(self.ADJ, self.ALL - {"n2"}, "n0") == {"n0": 0, "n1": 1}
        assert distances(self.ADJ, self.ALL - {"n1", "n3"}, "n2") == {"n2": 0}

    def test_disabled_source_has_no_shortest_path(self):
        shortest = DdosDefense("shortest-path")
        enabled = frozenset(self.ALL - {"n0"})
        for destination in ("n4", "n0"):
            task = Task("n0", destination, 0, 0, 1)
            assert ddos._route(shortest, SCENARIO, enabled, task) == (False, 0.0)
        assert ddos._route(shortest, SCENARIO, enabled, Task("n1", "n4", 0, 0, 1)) == (True, 3.0)

    def test_flood_cost_counts_component_edges(self):
        delivered, edges = flood(self.ADJ, self.ALL, "n0", "n4")
        assert delivered and edges == 4
        delivered, edges = flood(self.ADJ, self.ALL - {"n2"}, "n0", "n4")
        assert not delivered and edges == 1  # n0-n1 only

    def test_ring_route_hop_counts(self):
        order = sorted(self.ALL)
        assert ring_route(order, self.ALL, "n0", "n3", 1) == 3
        assert ring_route(order, self.ALL, "n0", "n3", 2) == 2
        assert ring_route(order, self.ALL, "n0", "n3", 4) == 1

    def test_ring_route_wraps_clockwise(self):
        order = sorted(self.ALL)
        # n3 -> n4 -> n0: clockwise over the wrap point
        assert ring_route(order, self.ALL, "n3", "n0", 1) == 2

    def test_ring_route_skips_disabled_with_farther_successor(self):
        order = sorted(self.ALL)
        assert ring_route(order, self.ALL - {"n1"}, "n0", "n3", 1) is None
        assert ring_route(order, self.ALL - {"n1"}, "n0", "n3", 2) == 2  # n0 -> n2 -> n3

    def test_ring_route_never_passes_destination(self):
        order = sorted(self.ALL)
        # with k=4 a single hop lands exactly on the target, never beyond
        assert ring_route(order, self.ALL, "n0", "n1", 4) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_ring_route_equals_recursive_oracle(self, data):
        n = data.draw(st.integers(1, 12))
        order = [f"n{i:02d}" for i in range(n)]
        enabled = frozenset(data.draw(st.sets(st.sampled_from(order))))
        source, destination = data.draw(st.sampled_from(order)), data.draw(st.sampled_from(order))
        successors = data.draw(st.integers(1, n + 1))
        assert ring_route(order, enabled, source, destination, successors) == oracle_ring_route(
            order, enabled, source, destination, successors
        )

    def test_ring_route_on_a_ring_deeper_than_the_recursion_limit(self):
        order = [f"n{i:04d}" for i in range(1500)]
        assert ring_route(order, frozenset(order), order[0], order[-1], 1) == 1499


class TestEngage:
    def test_no_attack_completes_everything(self):
        for defense in ALL_DEFENSES:
            outcome = engage(DdosAttack(()), defense, SCENARIO)
            assert outcome.attacker_score == 0.0
            assert outcome.defender_score == 1.0

    def test_total_denial_scores_one(self):
        actions = tuple(DdosAction(n, 0, SCENARIO.horizon) for n in SCENARIO.nodes)
        scenario = path_scenario(budget=1000)
        for defense in ALL_DEFENSES:
            outcome = engage(DdosAttack(actions), defense, scenario)
            assert outcome.attacker_score == 1.0

    def test_path_split_under_flooding_disrupts_long_task(self):
        # disabling n2 splits {n0,n1} from {n3,n4}: the n0->n4 task dies,
        # the n0->n1 task survives -> half the tasks disrupted.
        attack = DdosAttack((DdosAction("n2", 0, SCENARIO.horizon),))
        outcome = engage(attack, DdosDefense("flooding"), SCENARIO)
        assert outcome.attacker_score == 0.5
        components = components_by_union_find(
            SCENARIO.nodes, SCENARIO.edges, set(SCENARIO.nodes) - {"n2"}
        )
        assert not any({"n0", "n4"} <= group for group in components)
        assert any({"n0", "n1"} <= group for group in components)

    def test_constant_sum_primary_scores(self):
        rng = np.random.default_rng(8)
        scenario = path_scenario(budget=1000)
        for _ in range(25):
            count = int(rng.integers(0, 4))
            actions = tuple(
                DdosAction(
                    scenario.nodes[int(rng.integers(0, 5))],
                    int(rng.integers(0, scenario.horizon)),
                    int(rng.integers(1, 6)),
                )
                for _ in range(count)
            )
            defense = ALL_DEFENSES[int(rng.integers(0, len(ALL_DEFENSES)))]
            outcome = engage(DdosAttack(actions), defense, scenario)
            assert outcome.attacker_score + outcome.defender_score == 1.0

    def test_monotone_in_disabled_nodes(self):
        # supersets of whole-horizon disable actions never help delivery
        scenario = path_scenario(budget=10_000)
        for defense in ALL_DEFENSES:
            scores = {}
            for subset_bits in range(32):
                nodes = [scenario.nodes[i] for i in range(5) if subset_bits >> i & 1]
                attack = DdosAttack(
                    tuple(DdosAction(n, 0, scenario.horizon) for n in nodes)
                )
                scores[subset_bits] = engage(attack, defense, scenario).attacker_score
            for small, large in itertools.combinations(range(32), 2):
                if small & large == small:
                    assert scores[small] <= scores[large], (defense.routing, small, large)

    def test_flooding_equals_component_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(4, 9))
            nodes = tuple(f"n{i}" for i in range(n))
            edges = {(nodes[i - 1], nodes[i]) for i in range(1, n)}
            for _ in range(int(rng.integers(0, n))):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    edge = (nodes[min(a, b)], nodes[max(a, b)])
                    edges.add(edge)
            adjacency = oracle_neighbours(nodes, edges)
            disabled = {node for node in nodes if rng.random() < 0.3}
            enabled = set(nodes) - disabled
            components = components_by_union_find(nodes, tuple(edges), enabled)
            for source in nodes:
                for destination in nodes:
                    delivered, _ = flood(adjacency, enabled, source, destination)
                    expected = any(
                        source in group and destination in group for group in components
                    )
                    assert delivered == expected

    def test_pure_function_and_costs(self):
        attack = DdosAttack((DdosAction("n2", 2, 6),))
        first = engage(attack, DdosDefense("flooding"), SCENARIO)
        second = engage(attack, DdosDefense("flooding"), SCENARIO)
        assert first == second
        assert first.costs["attacker_cost"] == 6 / SCENARIO.attack_budget
        assert 0.0 <= first.costs["defender_cost"] <= 1.0


def add_links(draw, nodes, edges, most):
    """edges with up to most more links between nodes drawn, none repeated."""
    n = len(nodes)
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=most)):
        if a != b and (nodes[b], nodes[a]) not in edges:
            edges.add((nodes[a], nodes[b]))
    return edges


@st.composite
def scenarios(draw):
    """A connected scenario: a tree with up to n more links."""
    n = draw(st.integers(2, 7))
    # listed out of id order, so the ring order differs from the node order
    nodes = tuple(draw(st.permutations([f"n{i}" for i in range(n)])))
    edges = {(nodes[draw(st.integers(0, i - 1))], nodes[i]) for i in range(1, n)}
    return draw(scenarios_on(nodes, add_links(draw, nodes, edges, n)))


@st.composite
def chorded_cycles(draw):
    """A connected scenario: a cycle of 5 to 12 nodes with up to 3 chords.

    Most pairs of nodes are joined by paths of several lengths, so a route
    search that does not visit nodes nearest first finds a longer one.
    """
    n = draw(st.integers(5, 12))
    nodes = tuple(draw(st.permutations([f"n{i}" for i in range(n)])))
    edges = {(nodes[i], nodes[(i + 1) % n]) for i in range(n)}
    return draw(scenarios_on(nodes, add_links(draw, nodes, edges, 3)))


@st.composite
def scenarios_on(draw, nodes, edges):
    """A scenario on the graph of nodes and edges, with its tasks, horizon and costs drawn."""
    horizon = draw(st.integers(1, 14))
    tasks = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, horizon))
        tasks.append(
            Task(
                draw(st.sampled_from(nodes)),
                draw(st.sampled_from(nodes)),
                start,
                draw(st.integers(start, horizon)),
                draw(st.integers(1, 4)),
            )
        )
    return NetworkScenario(
        nodes=nodes,
        edges=tuple(sorted(edges)),
        tasks=tuple(tasks),
        horizon=horizon,
        message_cost=draw(st.floats(0.0, 5.0)),
        attack_budget=draw(st.integers(1, 12)),
    )


@st.composite
def attacks(draw, scenario):
    """An interpreted attack on scenario.

    Clauses name few nodes and early ticks, so windows overlap; the budget is
    often smaller than the durations asked for, so clauses get trimmed or
    dropped.
    """
    clauses = [
        f"disable n{draw(st.integers(0, len(scenario.nodes)))} "
        f"at {draw(st.integers(0, scenario.horizon))} for {draw(st.integers(1, 6))}"
        for _ in range(draw(st.integers(0, 4)))
    ]
    return interpret_attack(strategy(" ".join(clauses) or "noop"), scenario)


@st.composite
def defenses(draw, scenario):
    routing = draw(st.sampled_from(ROUTINGS))
    return DdosDefense(routing, ring_successors=draw(st.integers(1, len(scenario.nodes) - 1)))


@st.composite
def ddos_cases(draw):
    """A connected scenario, an interpreted attack and a defense for it."""
    scenario = draw(scenarios() | chorded_cycles())
    return draw(attacks(scenario)), draw(defenses(scenario)), scenario


@st.composite
def warm_cases(draw):
    """One scenario and at least 8 (attack, defense) pairs to engage in order on it.

    The pairs reuse a few attacks and defenses, so later engagements meet
    route table rows that earlier ones filled, under the same and under other
    defenses.
    """
    scenario = draw(scenarios() | chorded_cycles())
    attack_pool = draw(st.lists(attacks(scenario), min_size=1, max_size=4))
    defense_pool = draw(st.lists(defenses(scenario), min_size=1, max_size=4))
    pairs = st.tuples(st.sampled_from(attack_pool), st.sampled_from(defense_pool))
    return scenario, draw(st.lists(pairs, min_size=8, max_size=16))


# A five-node cycle in which a depth-first walk from n0 reaches n2 the long way round.
CYCLE = NetworkScenario(
    nodes=("n0", "n1", "n2", "n3", "n4"),
    edges=(("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n0", "n4"), ("n4", "n3")),
    tasks=(Task("n0", "n2", 0, 0, 1),),
    horizon=1,
    message_cost=1.0,
    attack_budget=1,
)


class TestFastSimulator:
    @settings(max_examples=400, deadline=None)
    @given(ddos_cases())
    @example((DdosAttack(()), DdosDefense("shortest-path"), CYCLE))
    def test_equals_per_tick_oracle(self, case):
        attack, defense, scenario = case
        outcome = engage(attack, defense, scenario)
        expected = oracle_ddos_engage(attack, defense, scenario)
        # dataclass equality compares every score, cost and telemetry float with ==
        assert outcome == expected
        # a second call reuses the scenario's cached facts
        assert engage(attack, defense, scenario) == expected


class TestRouteTable:
    @settings(max_examples=300, deadline=None)
    @given(warm_cases())
    def test_warm_table_equals_oracle(self, case):
        scenario, pairs = case
        for attack, defense in pairs:
            # dataclass equality compares every score, cost and telemetry float with ==
            assert engage(attack, defense, scenario) == oracle_ddos_engage(attack, defense, scenario)

    def test_same_disabled_sets_route_nothing(self, monkeypatch):
        routed = []
        route = ddos._route

        def counting(*args):
            routed.append(args)
            return route(*args)

        monkeypatch.setattr(ddos, "_route", counting)
        scenario = path_scenario()
        shortest = DdosDefense("shortest-path")
        attack = DdosAttack((DdosAction("n2", 3, 4),))
        engage(attack, shortest, scenario)
        # every task under the two disabled sets met: none, then {n2}
        assert len(routed) == 2 * len(scenario.tasks)
        # other actions, the same disabled sets at the same ticks
        split = DdosAttack((DdosAction("n2", 3, 2), DdosAction("n2", 5, 2)))
        assert engage(split, shortest, scenario) == engage(attack, shortest, scenario)
        assert len(routed) == 2 * len(scenario.tasks)
        # another defense routes afresh
        engage(attack, DdosDefense("flooding"), scenario)
        assert len(routed) == 4 * len(scenario.tasks)

    def test_fresh_scenario_has_an_empty_table(self):
        used = path_scenario()
        engage(DdosAttack((DdosAction("n2", 3, 4),)), DdosDefense("flooding"), used)
        assert used.routes
        fresh = path_scenario()
        assert fresh == used
        assert fresh.routes == {}


class TestOutcomeMemo:
    @pytest.fixture
    def simulations(self, monkeypatch):
        """Counts the calls DdosEnvironment makes to the module-level simulator."""
        calls = []
        simulate = ddos.engage

        def counting(*args):
            calls.append(args)
            return simulate(*args)

        monkeypatch.setattr(ddos, "engage", counting)
        return calls

    def test_repeated_pair_simulates_once(self, simulations):
        environment = DdosEnvironment(SCENARIO)
        attack, defense = strategy("disable n2 at 3 for 4"), strategy("route flooding")
        first = environment.engage(attack, defense, Key(0))
        second = environment.engage(attack, defense, Key(0))
        assert len(simulations) == 1
        assert second == first
        assert first == DdosEnvironment(SCENARIO).engage(attack, defense, Key(0))

    def test_hit_ignores_rng(self, simulations):
        environment = DdosEnvironment(SCENARIO)
        attack, defense = strategy("disable n1 at 0 for 6"), strategy("route ring 2")
        first = environment.engage(attack, defense, Key(1))
        assert environment.engage(attack, defense, Key(99)) is first
        assert len(simulations) == 1

    def test_never_builds_a_stream(self, monkeypatch):
        def unbuildable(key):
            raise AssertionError("the ddos environment built a random stream")

        monkeypatch.setattr(Key, "seed_sequence", unbuildable)
        environment = DdosEnvironment(SCENARIO)
        attack, defense = strategy("disable n2 at 3 for 4"), strategy("route shortest")
        first = environment.engage(attack, defense, Key(5))
        assert environment.engage(attack, defense, Key(6)) is first

    def test_environments_do_not_share_outcomes(self, simulations):
        attack, defense = strategy("disable n2 at 0 for 12"), strategy("route shortest")
        key = Key(2)
        wide = DdosEnvironment(path_scenario(budget=100)).engage(attack, defense, key)
        tight = DdosEnvironment(path_scenario(budget=4)).engage(attack, defense, key)
        assert len(simulations) == 2
        assert wide.attacker_score == 0.5 and wide.costs["attacker_cost"] == 12 / 100
        assert tight.attacker_score == 0.0 and tight.costs["attacker_cost"] == 4 / 4


class TestScenarioLoading:
    def test_small_scenario_round_trip(self, ddos_scenario_file):
        scenario = load_scenario(ddos_scenario_file)
        assert scenario.nodes == ("n0", "n1", "n2", "n3", "n4")
        assert scenario.horizon == 12
        assert len(scenario.tasks) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.scenario")

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ScenarioError):
            NetworkScenario(
                nodes=("a", "b", "c"),
                edges=(("a", "b"),),
                tasks=(Task("a", "b", 0, 5, 1),),
                horizon=10,
                message_cost=1.0,
                attack_budget=5,
            )

    @pytest.mark.parametrize("repeat", [("b", "a"), ("a", "b")])
    def test_link_given_twice_rejected(self, repeat):
        with pytest.raises(ScenarioError, match="a-b|b-a"):
            NetworkScenario(
                nodes=("a", "b", "c"),
                edges=(("a", "b"), ("b", "c"), repeat),
                tasks=(Task("a", "c", 0, 5, 1),),
                horizon=10,
                message_cost=1.0,
                attack_budget=5,
            )

    def test_task_window_validated(self):
        with pytest.raises(ScenarioError):
            NetworkScenario(
                nodes=("a", "b"),
                edges=(("a", "b"),),
                tasks=(Task("a", "b", 8, 4, 1),),
                horizon=10,
                message_cost=1.0,
                attack_budget=5,
            )

    def test_environment_adapter(self, ddos_scenario_file):
        environment = DdosEnvironment.from_file(ddos_scenario_file)
        outcome = environment.engage(strategy("noop"), strategy("route shortest"), Key(0))
        assert outcome.attacker_score == 0.0
