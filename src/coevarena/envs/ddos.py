"""Discrete-time P2P mission simulator under node-disabling attacks.

Attacks disable servers for time windows; the defense picks a routing
protocol (shortest path, flooding, or a peer-to-peer ring overlay). Each tick
every active task emits one message attempt, which succeeds when the protocol
finds a route over the currently enabled nodes. The attacker scores the
fraction of tasks it disrupted; the defender scores the fraction completed.
An attack sentence is clauses of the one template ``_ACTION``, read by
``engagement.read_clauses``; a defense names one of three alternatives and is
read by hand. Shortest paths, flooding and the scenario's connectivity check
all walk one BFS, ``distances``.

The simple languages here are fully deterministic: no random stream is ever
built for an engagement, and both memos here are pure. Each NetworkScenario
keeps a route table, defense -> disabled set -> (delivered, message cost) of
each task, that every simulation on it fills and reads; a simulation adds at
most 2 x (attack actions) + 1 rows, and no (defense, node subset) gets two.
DdosEnvironment memoises each outcome by its (attack sentence, defense
sentence) pair for as long as the environment lives, and hands the same
outcome object to every caller of that pair; a caller that changes an
outcome's costs or telemetry copies them first.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from ..engagement import EngagementOutcome, InterpretError, ScenarioError, check_links, clamp
from ..engagement import check_amounts, dash_pairs, read_clauses, read_scenario
from ..engine.rng import Key
from ..grammar import Strategy

ROUTINGS = ("shortest-path", "flooding", "p2p-ring")

_NODE_TOKEN = re.compile(r"^n(\d+)$")
_ACTION = ("disable", _NODE_TOKEN, "at", int, "for", int)


@dataclass(frozen=True)
class Task:
    source: str
    destination: str
    start: int
    deadline: int
    required_deliveries: int


@dataclass(frozen=True)
class NetworkScenario:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    tasks: tuple[Task, ...]
    horizon: int
    message_cost: float
    attack_budget: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ScenarioError("horizon must be >= 1")
        if self.attack_budget < 1:
            raise ScenarioError("attack budget must be >= 1")
        check_amounts(self, "message_cost")
        if len(set(self.nodes)) != len(self.nodes) or not self.nodes:
            raise ScenarioError("nodes must be non-empty and unique")
        known = set(self.nodes)
        check_links(self.edges, known, "edge")
        if not self.tasks:
            raise ScenarioError("scenario needs at least one task")
        for task in self.tasks:
            if task.source not in known or task.destination not in known:
                raise ScenarioError(f"task references unknown node: {task}")
            if not 0 <= task.start <= task.deadline <= self.horizon:
                raise ScenarioError(f"task window out of range: {task}")
            if task.required_deliveries < 1:
                raise ScenarioError(f"task needs >= 1 delivery: {task}")
        if len(distances(self.adjacency, known, self.nodes[0])) != len(self.nodes):
            raise ScenarioError("graph must be connected at t=0")

    # What engage reads on every call, each built once; engage fills the route table.
    @cached_property
    def adjacency(self) -> dict[str, list[str]]:
        adjacency: dict[str, list[str]] = {node: [] for node in self.nodes}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        return adjacency

    @cached_property
    def active_tasks(self) -> list[list[int]]:
        """The indices of the tasks whose window holds tick t, for each tick t."""
        return [
            [i for i, task in enumerate(self.tasks) if task.start <= t <= task.deadline]
            for t in range(self.horizon)
        ]

    @cached_property
    def routes(self) -> dict[DdosDefense, dict[frozenset[str], list[tuple[bool, float]]]]:
        return {}

    @cached_property
    def flood_upper(self) -> float:
        """Message cost of flooding every edge on every tick of every task window."""
        return (
            self.message_cost
            * len(self.edges)
            * sum(task.deadline - task.start + 1 for task in self.tasks)
        )


@dataclass(frozen=True)
class DdosAction:
    node: str
    start: int
    duration: int


@dataclass(frozen=True)
class DdosAttack:
    actions: tuple[DdosAction, ...]

    def total_duration(self) -> int:
        return sum(action.duration for action in self.actions)


@dataclass(frozen=True)
class DdosDefense:
    routing: str
    ring_successors: int = 2

    def __post_init__(self):
        if self.routing not in ROUTINGS:
            raise ValueError(f"unknown routing protocol {self.routing!r}")
        if self.ring_successors < 1:
            raise ValueError("ring successor count must be >= 1")


def _task(line: str) -> Task:
    fields = line.split()
    if len(fields) != 5:
        raise ScenarioError(f"task line needs 'src dst start deadline deliveries': {line!r}")
    return Task(fields[0], fields[1], *map(int, fields[2:]))


def load_scenario(path: str | Path) -> NetworkScenario:
    def build(parser) -> NetworkScenario:
        return NetworkScenario(
            nodes=tuple(parser.get("network", "nodes").split()),
            edges=dash_pairs(parser.get("network", "edges"), str),
            tasks=tuple(map(_task, parser.get("mission", "tasks").strip().splitlines())),
            horizon=parser.getint("mission", "horizon"),
            message_cost=parser.getfloat("costs", "message_cost"),
            attack_budget=parser.getint("costs", "attack_budget"),
        )

    return read_scenario(path, build)


def interpret_attack(strategy: Strategy, scenario: NetworkScenario) -> DdosAttack:
    """Turn an attack sentence into concrete disable actions.

    Out-of-range node and tick tokens are clamped into range. Durations are
    trimmed in sentence order so the total never exceeds the scenario budget.
    """
    if strategy.sentence == ("noop",):
        return DdosAttack(actions=())
    actions: list[DdosAction] = []
    remaining = scenario.attack_budget
    (clauses,) = read_clauses(strategy.sentence, _ACTION)
    for index, tick, duration in clauses:
        duration = min(max(duration, 1), remaining)
        if duration > 0:
            node = scenario.nodes[clamp(index, 0, len(scenario.nodes) - 1)]
            actions.append(DdosAction(node, clamp(tick, 0, scenario.horizon - 1), duration))
            remaining -= duration
    return DdosAttack(actions=tuple(actions))


def interpret_defense(strategy: Strategy, scenario: NetworkScenario) -> DdosDefense:
    tokens = strategy.sentence
    if tokens == ("route", "shortest"):
        return DdosDefense(routing="shortest-path")
    if tokens == ("route", "flooding"):
        return DdosDefense(routing="flooding")
    if tokens[:2] == ("route", "ring") and len(tokens) == 3:
        try:
            successors = int(tokens[2])
        except ValueError as exc:
            raise InterpretError(f"bad successor count {tokens[2]!r}") from exc
        successors = clamp(successors, 1, max(len(scenario.nodes) - 1, 1))
        return DdosDefense(routing="p2p-ring", ring_successors=successors)
    raise InterpretError(f"not a defense sentence: {strategy.text!r}")


def distances(adjacency, enabled, source) -> dict[str, int]:
    """Hop counts from source to every node it reaches over enabled nodes."""
    distance = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor in enabled and neighbor not in distance:
                distance[neighbor] = distance[node] + 1
                queue.append(neighbor)
    return distance


def flood(adjacency, enabled, source, destination) -> tuple[bool, int]:
    """Flood the source's enabled component.

    Returns (delivered, enabled edges inside the flooded component). The
    flood cost is paid whether or not the destination was reachable.
    """
    if source not in enabled:
        return False, 0
    component = distances(adjacency, enabled, source)
    ends = sum(1 for node in component for neighbor in adjacency[node] if neighbor in component)
    return destination in component, ends // 2


def ring_route(ring_order, enabled, source, destination, successors) -> int | None:
    """Hop count over the sorted-id ring, or None.

    Every hop goes to one of the node's `successors` clockwise ring neighbors
    and must strictly reduce clockwise distance to the destination (no
    passing). Hops are explored farthest-first with backtracking, so delivery
    is exactly reachability in the progress graph and disabling more nodes
    can never help the mission. An explicit stack lets a ring of any size route.
    """
    if source not in enabled or destination not in enabled:
        return None
    if source == destination:
        return 0
    size = len(ring_order)
    position = {node: i for i, node in enumerate(ring_order)}
    target = position[destination]

    def hops(at: int):  # `at` and the positions one hop on from it, farthest first
        farthest = min(successors, (target - at) % size)
        return at, ((at + jump) % size for jump in range(farthest, 0, -1))

    # Depth-first with backtracking: a position whose hops all failed is dead.
    stack, dead = [hops(position[source])], set()
    while stack:
        for candidate in stack[-1][1]:
            if candidate == target:
                return len(stack)
            if candidate not in dead and ring_order[candidate] in enabled:
                stack.append(hops(candidate))
                break
        else:
            dead.add(stack.pop()[0])
    return None


def _route(
    defense: DdosDefense, scenario: NetworkScenario, enabled: frozenset[str], task: Task
) -> tuple[bool, float]:
    """(delivered, message cost) of one attempt at task over the enabled nodes."""
    if defense.routing == "flooding":
        delivered, flooded = flood(scenario.adjacency, enabled, task.source, task.destination)
        return delivered, flooded * scenario.message_cost
    if defense.routing == "shortest-path":
        reached = distances(scenario.adjacency, enabled, task.source) if task.source in enabled else {}
        hops = reached.get(task.destination)
    else:
        hops = ring_route(
            sorted(scenario.nodes), enabled, task.source, task.destination, defense.ring_successors
        )
    return hops is not None, hops * scenario.message_cost if hops is not None else 0.0


def engage(
    attack: DdosAttack,
    defense: DdosDefense,
    scenario: NetworkScenario,
) -> EngagementOutcome:
    """Simulate the mission under attack. Pure and deterministic.

    The disabled set changes only where an action starts or ends, so it is
    rebuilt only there, and its row of the scenario's route table is routed
    the first time any simulation meets it. Costs are summed one attempt at a
    time in (tick, task) order.
    """
    boundaries = {0}.union(*((a.start, a.start + a.duration) for a in attack.actions))
    table = scenario.routes.setdefault(defense, {})

    tasks = scenario.tasks
    deliveries = [0] * len(tasks)
    completed = [False] * len(tasks)
    attempts = 0
    total_deliveries = 0
    message_cost_total = 0.0

    for t, active in enumerate(scenario.active_tasks):
        if t in boundaries:
            disabled = frozenset(
                a.node for a in attack.actions if a.start <= t < a.start + a.duration
            )
            row = table.get(disabled)
            if row is None:
                enabled = frozenset(scenario.nodes) - disabled
                row = table[disabled] = [_route(defense, scenario, enabled, task) for task in tasks]
        for index in active:
            if completed[index]:
                continue
            attempts += 1
            success, cost = row[index]
            message_cost_total += cost
            if success:
                deliveries[index] += 1
                total_deliveries += 1
                if deliveries[index] >= tasks[index].required_deliveries:
                    completed[index] = True

    disrupted = sum(1 for done in completed if not done)
    attacker_score = disrupted / len(tasks)
    return EngagementOutcome(
        attacker_score=attacker_score,
        defender_score=1.0 - attacker_score,
        costs={
            "attacker_cost": attack.total_duration() / scenario.attack_budget,
            "defender_cost": (
                message_cost_total / scenario.flood_upper if scenario.flood_upper > 0 else 0.0
            ),
        },
        telemetry={
            "tasks_completed": float(len(tasks) - disrupted),
            "attempts": float(attempts),
            "deliveries": float(total_deliveries),
        },
    )


class DdosEnvironment:
    """Engine-facing adapter: interprets sentences, then runs the simulator.

    Outcomes are memoised per environment by (attack sentence, defense
    sentence): a repeated pair returns the outcome object of its first
    engagement. The key is never used. Callers that change its costs or
    telemetry copy them first.
    """

    environment_id = "ddos"

    def __init__(self, scenario: NetworkScenario):
        self.scenario = scenario
        self._attack_cache: dict[tuple[str, ...], DdosAttack] = {}
        self._defense_cache: dict[tuple[str, ...], DdosDefense] = {}
        self._outcomes: dict[tuple[tuple[str, ...], tuple[str, ...]], EngagementOutcome] = {}

    @classmethod
    def from_file(cls, path: str | Path) -> "DdosEnvironment":
        return cls(load_scenario(path))

    def engage(self, attack: Strategy, defense: Strategy, key: Key) -> EngagementOutcome:
        pair = (attack.sentence, defense.sentence)
        if pair not in self._outcomes:
            if attack.sentence not in self._attack_cache:
                self._attack_cache[attack.sentence] = interpret_attack(attack, self.scenario)
            if defense.sentence not in self._defense_cache:
                self._defense_cache[defense.sentence] = interpret_defense(defense, self.scenario)
            self._outcomes[pair] = engage(
                self._attack_cache[attack.sentence],
                self._defense_cache[defense.sentence],
                self.scenario,
            )
        return self._outcomes[pair]
