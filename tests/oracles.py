"""Independent reference implementations the test suite checks against.

These deliberately re-derive results with different algorithms and data
structures than the package:

- grammar mapping: list-rewriting instead of a stack;
- connectivity: union-find instead of BFS;
- dominance and best responses: full pairwise scans;
- the contagion Monte Carlo: one generator per spawned child, one draw call
  per tick and sets of infected slots, instead of sibling-seeded rows of one
  block, pre-scanned events and a bitmask. It writes each tick's attacks out
  from the plans itself: instance i of a plan of count c covers the plan's
  duration from tick ``i * horizon // c``, cut at the horizon;
- the ddos simulator: a fresh route for every task on every tick instead of a
  route table kept on the scenario, over neighbour sets it builds itself.
  Shortest paths grow one level of frontier sets at a time instead of walking
  a BFS queue, a flood is the source's union-find component at one message
  per edge inside it, and ring routes go by recursion instead of an explicit
  stack. Both simulator oracles take only the dataclasses from the modules
  they check;
- the engagement log: a reader of the raw file that decodes each genotype
  with int.from_bytes, derives its sentence with the mapping oracle and puts
  the genotypes and sentences back on every record;
- keyed random streams: numpy's own encoding of a list of ints instead of an
  array of 32-bit words;
- the engine's draws: numpy's own Generator, drawing a tournament's entrants
  and a genotype's codons as one array each, with the one draw it lacks,
  ``hits``, as a loop of ``random`` calls.

The reference loop, ``oracle_run_alternating``, builds every stream from its
own full key and keeps each role's population as plain lists.
"""

from __future__ import annotations

import base64
import json
import math
import statistics
import zlib
from pathlib import Path

import numpy as np

from coevarena.engagement import EngagementOutcome
from coevarena.engine.config import SelectionScheme
from coevarena.engine.loop import Champion, Cohort, Engagement, HalfStepStats
from coevarena.engine.pairing import pair
from coevarena.engine.variation import crossover, mutate
from coevarena.envs.contagion import ContagionAttack, ContagionDefense, MonteCarloConfig, SegmentedNetwork
from coevarena.envs.ddos import DdosAttack, DdosDefense, NetworkScenario
from coevarena.grammar import CONSUME_ON_CHOICE, Genotype, Grammar, MappingConfig, Strategy, load_grammar

ORACLE_FAILED = "failed"


def _oracle_encode(part) -> int:
    if isinstance(part, bool):
        raise TypeError("bool key parts are ambiguous")
    if isinstance(part, int):
        if part < 0:
            raise ValueError(f"key part {part} is negative")
        return part
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"cannot key a random stream on {type(part).__name__}")


def oracle_seed_sequence(master_seed: int, *key) -> np.random.SeedSequence:
    """The keyed stream as a list of ints, each str part as its crc32, that
    numpy itself splits into 32-bit words."""
    entropy = [_oracle_encode(master_seed)] + [_oracle_encode(part) for part in key]
    return np.random.SeedSequence(entropy)


class OracleGenerator(np.random.Generator):
    """numpy's Generator plus ``Stream.hits``, drawn one ``random()`` per index."""

    def hits(self, n, p):
        for i in range(n):
            if self.random() < p:
                yield i


def oracle_select(members, fitnesses, scheme: SelectionScheme, gen: np.random.Generator):
    """Tournaments draw their k entrants as one array; ties go to the lowest index."""
    n = len(members)
    rank = sorted(range(n), key=lambda i: (-fitnesses[i], i))
    if scheme.kind == "tournament":
        winners = [min(gen.integers(0, n, size=scheme.size), key=rank.index) for _ in range(n)]
    else:
        elite = rank[: math.ceil(scheme.fraction * n)]
        winners = [elite[gen.integers(0, len(elite))] for _ in range(n)]
    return [members[i] for i in winners]


def oracle_random_genotype(gen: np.random.Generator, min_length, max_length, codon_max) -> Genotype:
    length = gen.integers(min_length, max_length + 1)
    return Genotype(tuple(gen.integers(0, codon_max, size=length).tolist()))


def oracle_map(genotype: Genotype, grammar: Grammar, cfg: MappingConfig):
    """Trace the leftmost derivation by rewriting an explicit symbol list.

    Returns (sentence tuple, codons_used, wraps_used, decisions) on success or
    ORACLE_FAILED. decisions records (codon position consumed, alternative
    count) for every codon-consuming expansion.
    """
    symbols = [("nt", grammar.start)]
    cursor = wraps = used = steps = 0
    decisions: list[tuple[int, int]] = []
    while True:
        target = None
        for position, (kind, _) in enumerate(symbols):
            if kind == "nt":
                target = position
                break
        if target is None:
            return tuple(text for _, text in symbols), used, wraps, decisions
        steps += 1
        if steps > cfg.max_derivation_steps:
            return ORACLE_FAILED
        alternatives = grammar.productions[symbols[target][1]]
        if len(alternatives) == 1 and cfg.codon_policy == CONSUME_ON_CHOICE:
            choice = 0
        else:
            if cursor >= len(genotype.codons):
                if wraps >= cfg.max_wraps:
                    return ORACLE_FAILED
                wraps += 1
                cursor = 0
            decisions.append((cursor, len(alternatives)))
            codon = genotype.codons[cursor]
            cursor += 1
            used += 1
            choice = codon % len(alternatives)
        replacement = [
            ("nt" if symbol.is_nonterminal else "t", symbol.text)
            for symbol in alternatives[choice]
        ]
        symbols[target : target + 1] = replacement


class OracleKey:
    """A stream named by its full key: master seed, then every part.

    The reference loop builds each stream it draws from, and each engagement
    key it hands an environment, through this one class. Child i of a sibling
    block and engagement k are keys that end in i or k, built as numpy encodes
    the list of ints, never spawned or made by ``Key.child``; so comparing the
    reference loop with the package's checks the prefix-child rule and
    ``Key.child`` end to end. An environment may call ``seed_sequence`` on it.
    """

    def __init__(self, master_seed: int, *parts):
        self.master_seed, self.parts = master_seed, parts

    def seed_sequence(self) -> np.random.SeedSequence:
        return oracle_seed_sequence(self.master_seed, *self.parts)

    def generator(self) -> OracleGenerator:
        return OracleGenerator(np.random.PCG64(self.seed_sequence()))


_ORACLE_AGGREGATES = {"mean": statistics.fmean, "max": max, "min": min, "median": statistics.median}


def oracle_run_alternating(cfg, attack_grammar: Grammar, defense_grammar: Grammar, environment):
    """The alternating loop as ``engine/loop.py``'s module docstring and
    ``champion`` describe it, one plain step after another.

    Returns (cohorts, half-steps, (attacker champion, defender champion)), in
    the loop's own record types. Selection and mapping are the oracles'; the
    variation and pairing operators are the package's, drawing from numpy's
    Generator on each stream's full key.
    """
    seed = cfg.master_seed
    grammars = {"attacker": attack_grammar, "defender": defense_grammar}
    other = {"attacker": "defender", "defender": "attacker"}

    def derive(role, genotype):
        mapped = oracle_map(genotype, grammars[role], cfg.mapping)
        return None if mapped == ORACLE_FAILED else Strategy(mapped[0])

    def score(outcome, role):
        return outcome.attacker_score if role == "attacker" else outcome.defender_score

    def cost(outcome, role):
        return float(outcome.costs.get(f"{role}_cost", 0.0))

    def aggregate(outcomes, role, aggregation):
        effective = [score(o, role) - cfg.secondary_weight * cost(o, role) for o in outcomes]
        return float(_ORACLE_AGGREGATES[aggregation](effective))

    # Each role's latest population: members, strategies, fitness (None before
    # its first half-step) and the outcomes behind each scored member.
    latest = {}
    cohorts = []
    for role in ("attacker", "defender"):
        limits = cfg.limits
        members = [
            oracle_random_genotype(
                OracleKey(seed, "init", role, i).generator(),
                limits.min_length,
                limits.max_length,
                limits.codon_max,
            )
            for i in range(cfg.population_size(role))
        ]
        strategies = [derive(role, member) for member in members]
        cohorts.append(Cohort(0, role, list(members)))
        latest[role] = {"members": members, "strategies": strategies, "fitness": None, "outcomes": {}}

    half_steps = []
    for generation in range(1, cfg.generations + 1):
        for role in ("attacker", "defender"):
            own, opponent = latest[role], latest[other[role]]
            n, m = cfg.population_size(role), len(opponent["members"])
            attacking = role == "attacker"

            # breed: the incumbent is the role's best; select, cross, mutate, map
            if own["fitness"] is None:
                incumbent, parents = None, own["members"]
            else:
                incumbent = own["fitness"].index(max(own["fitness"]))
                select_stream = OracleKey(seed, "select", generation, role).generator()
                parents = oracle_select(own["members"], own["fitness"], cfg.selection, select_stream)
            children = []
            for slot in range(0, n - 1, 2):
                cross_stream = OracleKey(seed, "cross", generation, role, slot).generator()
                children += crossover(
                    parents[slot], parents[slot + 1], cfg.crossover_rate, cross_stream, cfg.limits
                )
            if n % 2 == 1:
                children.append(parents[n - 1])
            children = [
                mutate(
                    child,
                    cfg.mutation_rate,
                    OracleKey(seed, "mutate", generation, role, i).generator(),
                    cfg.limits,
                )
                for i, child in enumerate(children)
            ]
            strategies = [derive(role, child) for child in children]
            unmapped = sum(1 for strategy in strategies if strategy is None)
            cohort = Cohort(generation, role, list(children))
            cohorts.append(cohort)

            # job list: the candidate pairs, then the incumbent against each opponent
            sizes = (n, m) if attacking else (m, n)
            pair_stream = OracleKey(seed, "pair", generation, role).generator()
            jobs = [
                ("candidate", k, int(a), int(d))
                for k, (a, d) in enumerate(pair(cfg.structure, *sizes, pair_stream))
            ]
            if incumbent is not None:
                for j in range(m):
                    a, d = (incumbent, j) if attacking else (j, incumbent)
                    jobs.append(("incumbent", j, a, d))

            # engage pass, skipping a job with a member that failed to map
            candidate_outcomes, incumbent_outcomes = {}, []
            for kind, k, a, d in jobs:
                mine, theirs = (a, d) if attacking else (d, a)
                own_strategy = (strategies if kind == "candidate" else own["strategies"])[mine]
                opponent_strategy = opponent["strategies"][theirs]
                if own_strategy is None or opponent_strategy is None:
                    continue
                attack, defense = (
                    (own_strategy, opponent_strategy) if attacking else (opponent_strategy, own_strategy)
                )
                word = "engage" if kind == "candidate" else "elite"
                outcome = environment.engage(attack, defense, OracleKey(seed, word, generation, role, k))
                cohort.engagements.append(Engagement(kind, k, a, d, outcome))
                if kind == "candidate":
                    candidate_outcomes.setdefault(mine, []).append(outcome)
                else:
                    incumbent_outcomes.append(outcome)

            # score, then swap the incumbent in for the worst newcomer if strictly better
            fitness = [
                aggregate(candidate_outcomes[i], role, cfg.aggregation)
                if i in candidate_outcomes
                else cfg.invalid_fitness
                for i in range(n)
            ]
            incumbent_fitness = (
                aggregate(incumbent_outcomes, role, cfg.aggregation) if incumbent_outcomes else None
            )
            members, outcomes = list(children), dict(candidate_outcomes)
            worst = fitness.index(min(fitness))
            if incumbent_fitness is not None and incumbent_fitness > fitness[worst]:
                cohort.replaced = worst
                members[worst] = own["members"][incumbent]
                strategies[worst] = own["strategies"][incumbent]
                outcomes[worst] = incumbent_outcomes
                fitness[worst] = incumbent_fitness
            latest[role] = {
                "members": members, "strategies": strategies, "fitness": fitness, "outcomes": outcomes
            }

            scored = [fitness[i] for i in sorted(outcomes)] or [cfg.invalid_fitness]
            best = fitness.index(max(fitness))
            best_costs = [cost(o, role) for o in outcomes.get(best, [])]
            half_steps.append(
                HalfStepStats(
                    generation=generation,
                    phase=role,
                    best_id=best,
                    best_fitness=fitness[best],
                    mean_fitness=statistics.fmean(scored),
                    fitness_variance=statistics.pvariance(scored),
                    incumbent_fitness=incumbent_fitness,
                    best_genotype=members[best],
                    best_sentence=strategies[best].sentence if strategies[best] else None,
                    best_cost=statistics.fmean(best_costs) if best_costs else None,
                    invalid_count=unmapped,
                )
            )

    def champion(role):
        side = latest[role]
        evaluated = sorted(side["outcomes"])
        if not evaluated:
            index, concept_score = 0, cfg.invalid_fitness
        elif cfg.solution_concept == "pareto":
            # the first nondominated (mean score, mean cost) point, by index
            points = [
                (
                    statistics.fmean([score(o, role) for o in side["outcomes"][i]]),
                    statistics.fmean([cost(o, role) for o in side["outcomes"][i]]),
                )
                for i in evaluated
            ]
            first = pareto_oracle(points, ("max", "min"))[0]
            index, concept_score = evaluated[first], points[first][0]
        else:
            aggregation = "min" if cfg.solution_concept == "best-worst" else "mean"
            scores = [aggregate(side["outcomes"][i], role, aggregation) for i in evaluated]
            first = scores.index(max(scores))
            index, concept_score = evaluated[first], scores[first]
        strategy = side["strategies"][index]
        return Champion(
            role=role,
            index=index,
            genotype=side["members"][index],
            sentence=strategy.sentence if strategy else None,
            fitness=side["fitness"][index],
            concept_score=concept_score,
        )

    return cohorts, half_steps, (champion("attacker"), champion("defender"))


def random_grammar_text(rng, max_nonterminals=5) -> str:
    """Random small grammar; may be unproductive or heavily recursive."""
    count = int(rng.integers(1, max_nonterminals + 1))
    names = [f"nt{i}" for i in range(count)]
    terminals = ["a", "b", "c", "d", "x", "y", "+", "*"]
    lines = []
    for name in names:
        alternatives = []
        for _ in range(int(rng.integers(1, 5))):
            symbols = []
            for _ in range(int(rng.integers(1, 5))):
                if rng.random() < 0.35:
                    symbols.append(f"<{names[int(rng.integers(0, count))]}>")
                else:
                    symbols.append(terminals[int(rng.integers(0, len(terminals)))])
            alternatives.append(" ".join(symbols))
        lines.append(f"<{name}> ::= " + " | ".join(alternatives))
    return "\n".join(lines)


def components_by_union_find(nodes, edges, enabled):
    """Connected components of the enabled subgraph, as frozensets."""
    parent = {node: node for node in nodes if node in enabled}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[str, set[str]] = {}
    for node in parent:
        groups.setdefault(find(node), set()).add(node)
    return [frozenset(group) for group in groups.values()]


def pareto_oracle(points, directions) -> list[int]:
    """Nondominated indices via a from-scratch pairwise scan."""
    def beats(p, q):
        strictly = False
        for a, b, d in zip(p, q, directions):
            if d == "min":
                a, b = -a, -b
            if a < b:
                return False
            if a > b:
                strictly = True
        return strictly

    keep = []
    for i, p in enumerate(points):
        if all(not beats(q, p) for j, q in enumerate(points) if j != i):
            keep.append(i)
    return keep


def nash_oracle(cells, attacker_direction="max", defender_direction="min"):
    """Pure Nash cells by scanning every rival cell, no precomputed optima."""
    rows, columns = len(cells), len(cells[0])
    pairs = []
    for i in range(rows):
        for j in range(columns):
            value = cells[i][j]
            if attacker_direction == "max":
                attacker_ok = all(value >= cells[i2][j] for i2 in range(rows))
            else:
                attacker_ok = all(value <= cells[i2][j] for i2 in range(rows))
            if defender_direction == "max":
                defender_ok = all(value >= cells[i][j2] for j2 in range(columns))
            else:
                defender_ok = all(value <= cells[i][j2] for j2 in range(columns))
            if attacker_ok and defender_ok:
                pairs.append((i, j))
    return pairs


def oracle_simulate_trials(
    attack: ContagionAttack,
    defense: ContagionDefense,
    network: SegmentedNetwork,
    mc: MonteCarloConfig,
    rng: np.random.SeedSequence,
) -> tuple[list[float], list[int]]:
    """Run mc.trials independent trials, one spawned sub-stream each, and
    return each trial's delay and detections as two lists."""
    sizes = network.enclave_sizes
    n = len(sizes)
    mission_count = [0] * n
    for enclave in defense.mission_placement:
        mission_count[enclave] += 1

    def covers(plan, instance, t):
        # instance i of a plan of count c starts at tick i * horizon // c
        start = instance * mc.horizon // plan.count
        return start <= t < start + plan.duration

    per_tick_attacks = [
        [
            (plan.enclave, plan.strength)
            for plan in attack.plans
            for instance in range(plan.count)
            if covers(plan, instance, t)
        ]
        for t in range(mc.horizon)
    ]
    total_devices = sum(sizes)
    draws_per_tick = [
        2 * len(per_tick_attacks[t]) + 2 * total_devices + 4 * len(network.links) + n
        for t in range(mc.horizon)
    ]
    enclave_base = []
    offset = 0
    for size in sizes:
        enclave_base.append(offset)
        offset += 2 * size

    delays: list[float] = []
    detections: list[int] = []
    for child in rng.spawn(mc.trials):
        gen = np.random.Generator(np.random.PCG64(child))
        infected: list[set[int]] = [set() for _ in range(n)]
        offline_until = [0] * n
        delay = 0.0
        detected = 0
        for t in range(mc.horizon):
            draws = gen.random(draws_per_tick[t])
            online = [t >= offline_until[e] for e in range(n)]

            def infect(enclave: int, pick: float) -> bool:
                susceptible = [s for s in range(sizes[enclave]) if s not in infected[enclave]]
                if not susceptible:
                    return False
                infected[enclave].add(susceptible[int(pick * len(susceptible))])
                return True

            # 1. scheduled attacks attempt initial compromise
            cursor = 0
            for enclave, strength in per_tick_attacks[t]:
                attempt, pick = draws[cursor], draws[cursor + 1]
                cursor += 2
                if online[enclave] and attempt < strength:
                    infect(enclave, pick)
            # 2. intra-enclave spread (snapshot of infectors; draws indexed by slot)
            intra_base = cursor
            for e in range(n):
                if online[e] and infected[e]:
                    for slot in sorted(infected[e]):
                        spread, pick = (
                            draws[intra_base + enclave_base[e] + 2 * slot],
                            draws[intra_base + enclave_base[e] + 2 * slot + 1],
                        )
                        if spread < network.spread_rate:
                            infect(e, pick)
            cursor = intra_base + 2 * total_devices
            # 3. cross-enclave seeding, one chance per link direction
            for a, b in network.links:
                for src, dst in ((a, b), (b, a)):
                    seeded, pick = draws[cursor], draws[cursor + 1]
                    cursor += 2
                    if online[src] and online[dst] and infected[src] and seeded < network.cross_rate:
                        infect(dst, pick)
            # 4. detection and cleansing
            cleansed_now = []
            for e in range(n):
                trip = draws[cursor]
                cursor += 1
                if online[e] and infected[e]:
                    if trip < defense.tap_sensitivity[e] * (len(infected[e]) / sizes[e]):
                        cleansed_now.append(e)
            for e in cleansed_now:
                infected[e].clear()
                offline_until[e] = t + 1 + network.cleanse_duration
                detected += 1
            for e in range(n):
                assert online[e] or not infected[e], "offline enclave gained an infection"
            # 5. delay accrual
            infected_mission = sum(
                sum(1 for slot in infected[e] if slot < mission_count[e]) for e in range(n)
            )
            delay += infected_mission * mc.delay_per_infected_tick
            delay += sum(
                mc.delay_per_cleanse for e in cleansed_now if mission_count[e] > 0
            )
        delays.append(delay)
        detections.append(detected)
    return delays, detections


def oracle_ring_route(ring_order, enabled, source, destination, successors) -> int | None:
    """Hop count over the sorted-id ring by recursive farthest-first search, or None.

    The recursion is as deep as the path, so a ring of about a thousand nodes
    or more can exceed Python's recursion limit.
    """
    if source not in enabled or destination not in enabled:
        return None
    if source == destination:
        return 0
    size = len(ring_order)
    position = {node: i for i, node in enumerate(ring_order)}
    target = position[destination]
    memo: dict[str, int | None] = {}

    def search(node: str) -> int | None:
        if node == destination:
            return 0
        if node in memo:
            return memo[node]
        remaining = (target - position[node]) % size
        for jump in range(min(successors, remaining), 0, -1):
            candidate = ring_order[(position[node] + jump) % size]
            if candidate in enabled:
                tail = search(candidate)
                if tail is not None:
                    memo[node] = tail + 1
                    return tail + 1
        memo[node] = None
        return None

    return search(source)


def oracle_neighbours(nodes, edges) -> dict[str, set[str]]:
    """Each node's set of neighbours over the undirected edges."""
    neighbours = {node: set() for node in nodes}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    return neighbours


def oracle_hops(neighbours, enabled, source, destination) -> int | None:
    """Hop count of a shortest path over enabled nodes, found by growing the
    set of nodes reached one level at a time, or None."""
    if source not in enabled:
        return None
    reached, frontier, hops = {source}, {source}, 0
    while destination not in frontier:
        frontier = {n for node in frontier for n in neighbours[node] if n in enabled} - reached
        if not frontier:
            return None
        reached |= frontier
        hops += 1
    return hops


def oracle_ddos_engage(
    attack: DdosAttack,
    defense: DdosDefense,
    scenario: NetworkScenario,
) -> EngagementOutcome:
    """Simulate the mission, routing every active task afresh on every tick.

    Neighbour sets, ring order and the flood cost bound are rebuilt on every
    call. A shortest path is ``oracle_hops``; a flood reaches the source's
    union-find component and costs one message per edge inside it.
    """
    horizon = scenario.horizon
    disabled_at: list[set[str]] = [set() for _ in range(horizon)]
    for action in attack.actions:
        for t in range(action.start, min(action.start + action.duration, horizon)):
            disabled_at[t].add(action.node)

    neighbours = oracle_neighbours(scenario.nodes, scenario.edges)
    ring_order = sorted(scenario.nodes)
    all_nodes = set(scenario.nodes)

    deliveries = [0] * len(scenario.tasks)
    completed = [False] * len(scenario.tasks)
    attempts = 0
    total_deliveries = 0
    message_cost_total = 0.0

    for t in range(horizon):
        enabled = all_nodes - disabled_at[t]
        for index, task in enumerate(scenario.tasks):
            if completed[index] or t < task.start or t > task.deadline:
                continue
            attempts += 1
            if defense.routing == "shortest-path":
                hops = oracle_hops(neighbours, enabled, task.source, task.destination)
                success = hops is not None
                cost = hops * scenario.message_cost if success else 0.0
            elif defense.routing == "flooding":
                components = components_by_union_find(scenario.nodes, scenario.edges, enabled)
                flooded = next((group for group in components if task.source in group), frozenset())
                success = task.destination in flooded
                count = sum(1 for a, b in scenario.edges if a in flooded and b in flooded)
                cost = count * scenario.message_cost
            else:
                hops = oracle_ring_route(
                    ring_order, enabled, task.source, task.destination, defense.ring_successors
                )
                success = hops is not None
                cost = hops * scenario.message_cost if success else 0.0
            message_cost_total += cost
            if success:
                deliveries[index] += 1
                total_deliveries += 1
                if deliveries[index] >= task.required_deliveries:
                    completed[index] = True

    disrupted = sum(1 for done in completed if not done)
    attacker_score = disrupted / len(scenario.tasks)
    flood_upper = (
        scenario.message_cost
        * len(scenario.edges)
        * sum(task.deadline - task.start + 1 for task in scenario.tasks)
    )
    return EngagementOutcome(
        attacker_score=attacker_score,
        defender_score=1.0 - attacker_score,
        costs={
            "attacker_cost": sum(action.duration for action in attack.actions) / scenario.attack_budget,
            "defender_cost": message_cost_total / flood_upper if flood_upper > 0 else 0.0,
        },
        telemetry={
            "tasks_completed": float(len(scenario.tasks) - disrupted),
            "attempts": float(attempts),
            "deliveries": float(total_deliveries),
        },
    )


def decode_genotype(text: str, width: int) -> list[int]:
    """The codons of a stored genotype: base64 of little-endian unsigned integers of width bytes."""
    packed = base64.b64decode(text, validate=True)
    return [int.from_bytes(packed[i: i + width], "little") for i in range(0, len(packed), width)]


def stored_sentence(run_dir):
    """A function of (role, a stored genotype's codons) giving the genotype's
    sentence as text, or None if it fails to map: oracle_map under the run
    directory's grammar copy of the role and the manifest's mapping settings."""
    run_dir = Path(run_dir)
    config = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["config"]
    mapping = MappingConfig(
        **{key: config[key] for key in ("max_wraps", "codon_policy", "max_derivation_steps")}
    )
    copies = {"attacker": "attack.bnf", "defender": "defense.bnf"}
    grammars = {role: load_grammar(run_dir / name) for role, name in copies.items()}

    def sentence(role, codons):
        mapped = oracle_map(Genotype(tuple(codons)), grammars[role], mapping)
        return None if mapped == ORACLE_FAILED else " ".join(mapped[0])

    return sentence


def v1_engagements(run_dir) -> list[dict]:
    """The engagement records of a stored run as format 1 wrote them, less run.

    The rows of the stored format 6 log get back their kind's name from the
    header's kinds, a row that refers to an outcome gets back the values of
    the row that first wrote them, and each row gets back its defender score
    by the header's rule, its costs and telemetry dicts from the header's keys,
    and each genotype its codon list and the sentence ``stored_sentence``
    derives from it.
    Each record gets back both individuals' genotype and sentence. A candidate
    row's own individual comes from its half-step's population line
    (``[phase, generation, replaced, *genotypes]``), an incumbent row's from
    the role's population before the half-step, and the opponent from the
    other role's latest population. After a half-step's rows, its incumbent
    takes the replaced slot of its population.
    """
    lines = (Path(run_dir) / "engagements.jsonl").read_text(encoding="utf-8").splitlines()
    sentence = stored_sentence(run_dir)
    header = json.loads(lines[0])
    columns, costs, telemetry = header["columns"], header["cost_keys"], header["telemetry_keys"]
    costs_at, telemetry_at = len(columns), len(columns) + len(costs)
    outcome_at = columns.index("attacker_score")
    defender_score = {"negated": lambda a: -a, "one_minus": lambda a: 1.0 - a}[header["defender_score"]]
    outcomes = []  # the outcome values of each row that wrote them, in order
    half_steps = []
    for line in lines[1:]:
        item = json.loads(line)
        if isinstance(item[0], str):
            phase, generation, replaced, *genotypes = item
            population = {"phase": phase, "generation": generation, "replaced": replaced, "genotypes": genotypes}
            half_steps.append((population, []))
        else:
            if len(item) == outcome_at + 1 and len(item) != telemetry_at + len(telemetry):
                item = item[:outcome_at] + outcomes[item[outcome_at]]
            else:
                assert len(item) == telemetry_at + len(telemetry)
                outcomes.append(item[outcome_at:])
            item[0] = header["kinds"][item[0]]
            row = dict(zip(columns, item))
            row["defender_score"] = defender_score(row["attacker_score"])
            row["costs"] = dict(zip(costs, item[costs_at:telemetry_at]))
            row["telemetry"] = dict(zip(telemetry, item[telemetry_at:]))
            half_steps[-1][1].append(row)
    latest = {}  # role -> [(genotype, sentence)] after its latest swap
    records = []
    for population, rows in half_steps:
        role = population["phase"]
        other = "defender" if role == "attacker" else "attacker"
        genotypes = [decode_genotype(text, header["codon_bytes"]) for text in population["genotypes"]]
        bred = [(genotype, sentence(role, genotype)) for genotype in genotypes]
        before = latest.get(role)
        incumbent = None
        for row in rows:
            if row["kind"] == "candidate":
                own = bred[row[f"{role}_id"]]
            else:
                incumbent = row[f"{role}_id"]
                own = before[incumbent]
            individuals = {role: own, other: latest[other][row[f"{other}_id"]]}
            record = {"record": "engagement", "generation": population["generation"], "phase": role}
            record.update(row)
            for side in ("attacker", "defender"):
                record[f"{side}_genotype"], record[f"{side}_sentence"] = individuals[side]
            records.append(record)
        if population["replaced"] is not None:
            bred[population["replaced"]] = before[incumbent]
        latest[role] = bred
    return records
