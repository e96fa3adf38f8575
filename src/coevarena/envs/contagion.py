"""Monte Carlo malware-contagion simulator over an enclave-segmented network.

The defender places mission devices into enclaves and tunes per-enclave tap
sensitivities; the attacker schedules per-enclave attack plans (strength,
duration, repetitions). Each trial walks the tick loop: attack seeding,
intra-enclave spread, cross-enclave seeding, detection-and-cleanse, then
delay accrual. ``simulate_trials`` returns each trial's mission delay and
count of tap cleanses; the attacker's score is the mean delay (which it
wants high), the defender's its negation. Sentences are read by
``engagement.read_clauses``: an attack as ``_PLAN`` clauses, a defense as
``_PLACEMENT`` clauses and then ``_TAP`` clauses.

Random draws are consumed on a fixed, state-independent schedule (always
drawn, conditionally used), so reusing a trial's stream across parameter
variations yields exact common-random-number coupling. Trial i's stream is
child i of the engagement key's SeedSequence. One engagement draws all its
trials as one block, a row per trial: the children's PCG64 states come from
``Key.sibling_states`` at once, and each row is one ``random`` call,
which yields the same numbers as drawing the trial tick by tick. The block
is then scanned with numpy into one event int per trial and tick, a bit per
spread, cross, tap or attack hit. The tick loop acts on the hits of infected
slots and enclaves (``live``) and on attack hits; a quiet tick only adds delay.
"""

from __future__ import annotations

import itertools
import re
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..engagement import EngagementOutcome, ScenarioError, check_amounts, check_links, clamp
from ..engagement import dash_pairs, read_clauses, read_scenario
from ..engine.fitness import population_variance
from ..engine.rng import Key, fill_random
from ..grammar import Strategy

_ENCLAVE_TOKEN = re.compile(r"^e(\d+)$")
_DEVICE_TOKEN = re.compile(r"^d(\d+)$")
_PLAN = ("hit", _ENCLAVE_TOKEN, "strength", float, "for", int, "x", int)
_PLACEMENT = ("place", _DEVICE_TOKEN, "in", _ENCLAVE_TOKEN)
_TAP = ("tap", _ENCLAVE_TOKEN, "at", float)


@dataclass(frozen=True)
class SegmentedNetwork:
    enclave_sizes: tuple[int, ...]
    links: tuple[tuple[int, int], ...]
    spread_rate: float
    cross_rate: float
    cleanse_duration: int

    def __post_init__(self):
        if not self.enclave_sizes or any(size < 1 for size in self.enclave_sizes):
            raise ScenarioError("every enclave needs at least one device")
        for rate_name in ("spread_rate", "cross_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ScenarioError(f"{rate_name} must be in [0, 1]")
        if self.cleanse_duration < 0:
            raise ScenarioError("cleanse_duration must be >= 0")
        check_links(self.links, range(len(self.enclave_sizes)), "inter-enclave link")


@dataclass(frozen=True)
class MonteCarloConfig:
    trials: int
    horizon: int
    delay_per_infected_tick: float
    delay_per_cleanse: float

    def __post_init__(self):
        if self.trials < 1:
            raise ScenarioError("trials must be >= 1")
        if self.horizon < 1:
            raise ScenarioError("horizon must be >= 1")
        check_amounts(self, "delay_per_infected_tick", "delay_per_cleanse")


@dataclass(frozen=True)
class ContagionScenario:
    network: SegmentedNetwork
    mc: MonteCarloConfig
    mission_devices: int

    def __post_init__(self):
        if self.mission_devices < 0:
            raise ScenarioError("mission_devices must be >= 0")
        if self.mission_devices > sum(self.network.enclave_sizes):
            raise ScenarioError("more mission devices than device slots")


@dataclass(frozen=True)
class ContagionPlan:
    enclave: int
    strength: float
    duration: int
    count: int


@dataclass(frozen=True)
class ContagionAttack:
    plans: tuple[ContagionPlan, ...]

    def total_effort(self) -> float:
        return sum(plan.strength * plan.duration * plan.count for plan in self.plans)


@dataclass(frozen=True)
class ContagionDefense:
    mission_placement: tuple[int, ...]  # device index -> enclave index
    tap_sensitivity: tuple[float, ...]  # one per enclave


def load_scenario(path: str | Path) -> ContagionScenario:
    def build(parser) -> ContagionScenario:
        return ContagionScenario(
            network=SegmentedNetwork(
                enclave_sizes=tuple(int(s) for s in parser.get("enclaves", "sizes").split()),
                links=dash_pairs(parser.get("enclaves", "links"), int),
                spread_rate=parser.getfloat("contagion", "spread_rate"),
                cross_rate=parser.getfloat("contagion", "cross_rate"),
                cleanse_duration=parser.getint("contagion", "cleanse_duration"),
            ),
            mc=MonteCarloConfig(
                trials=parser.getint("simulation", "trials"),
                horizon=parser.getint("mission", "horizon"),
                delay_per_infected_tick=parser.getfloat("mission", "delay_per_infected_tick"),
                delay_per_cleanse=parser.getfloat("mission", "delay_per_cleanse"),
            ),
            mission_devices=parser.getint("mission", "mission_devices"),
        )

    return read_scenario(path, build)


def interpret_attack(strategy: Strategy, network: SegmentedNetwork, horizon: int) -> ContagionAttack:
    (plans,) = read_clauses(strategy.sentence, _PLAN)
    last = len(network.enclave_sizes) - 1
    return ContagionAttack(
        plans=tuple(
            ContagionPlan(
                enclave=clamp(enclave, 0, last),
                strength=clamp(strength, 0.0, 1.0),
                duration=clamp(duration, 1, horizon),
                count=clamp(count, 1, horizon),
            )
            for enclave, strength, duration, count in plans
        )
    )


def interpret_defense(
    strategy: Strategy, network: SegmentedNetwork, mission_devices: int
) -> ContagionDefense:
    """Parse placements and taps; unplaced devices default to enclave 0,
    unmentioned taps to 0. Devices overflowing an enclave's capacity spill to
    the lowest-id enclave with room."""
    placements, taps = read_clauses(strategy.sentence, _PLACEMENT, _TAP)
    n = len(network.enclave_sizes)
    desired = [0] * mission_devices
    if mission_devices > 0:
        for device, enclave in placements:
            desired[clamp(device, 0, mission_devices - 1)] = clamp(enclave, 0, n - 1)
    sensitivity = [0.0] * n
    for enclave, level in taps:
        sensitivity[clamp(enclave, 0, n - 1)] = clamp(level, 0.0, 1.0)

    free = list(network.enclave_sizes)
    placement = []
    spill = []
    for device, enclave in enumerate(desired):
        if free[enclave] > 0:
            free[enclave] -= 1
            placement.append(enclave)
        else:
            placement.append(-1)
            spill.append(device)
    for device in spill:
        enclave = min(e for e in range(n) if free[e] > 0)
        free[enclave] -= 1
        placement[device] = enclave
    return ContagionDefense(
        mission_placement=tuple(placement), tap_sensitivity=tuple(sensitivity)
    )


def _bitmasks(hits: np.ndarray) -> list[int]:
    """Each row of the bool array ``hits``, its last axis a multiple of 8 long,
    as an int, bit j set where the row is True at j. Rows pack into little-endian
    64-bit words, and a row longer than 64 joins its words into one int."""
    packed = np.packbits(hits, bitorder="little").reshape(-1, hits.shape[-1] // 8)
    words = -(-packed.shape[1] // 8)
    padded = np.zeros((len(packed), 8 * words), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    parts = padded.view("<u8")
    masks = parts[:, 0].tolist()
    for k in range(1, words):
        masks = [mask | word << 64 * k for mask, word in zip(masks, parts[:, k].tolist())]
    return masks


def simulate_trials(
    attack: ContagionAttack,
    defense: ContagionDefense,
    network: SegmentedNetwork,
    mc: MonteCarloConfig,
    key: Key,
) -> tuple[list[float], list[int]]:
    """``(delays, detections)``: each of mc.trials trials' mission delay and
    tap cleanses; trial i draws from child i of ``key.seed_sequence().spawn(mc.trials)``.

    The trials' draws are one ``(trials, total_draws)`` block: row i is
    filled by ``rng.fill_random`` from child i's PCG64 state, which
    ``key.sibling_states`` gives. Before the tick loop, the block gives each
    trial and tick one event int: a bit per spread, cross, tap and attack
    draw below its rate, sensitivity or strength. So the loop tests the tap
    rule ``u < s * (c / size)`` with c infected slots only for those taps.

    The loop holds the infected slots of the whole network in one int,
    enclave e from bit ``sum(sizes[:e])``, and each enclave's susceptible
    slots in a sorted list, so "the k-th susceptible slot" is a list pop.
    ``live`` holds the link and tap bits of infected enclaves, ``full`` the
    slot, inward link and attack bits of enclaves with no room. A tick whose
    event has no bit of ``(infected | live | attacks) & ~full`` is quiet: it
    only adds the delay term of the last tick that acted. An offline enclave
    has no infected slot and an empty susceptible list until it is back
    online, so nothing reaches it. Every tick's draws stay in the block, so
    the draw offsets never depend on the trial's state.
    """
    sizes = network.enclave_sizes
    n = len(sizes)
    trials = mc.trials
    horizon = mc.horizon
    first_slot = [0, *itertools.accumulate(sizes)]
    slots = first_slot[-1]
    enclave_masks = [((1 << size) - 1) << first for size, first in zip(sizes, first_slot)]
    enclave_of = [e for e, size in enumerate(sizes) for _ in range(size)]
    all_slots = [list(range(size)) for size in sizes]
    mission_count = [defense.mission_placement.count(e) for e in range(n)]
    # mission devices occupy the lowest slots of their enclave
    mission_mask = sum(((1 << count) - 1) << first for count, first in zip(mission_count, first_slot))
    directed = [pair for a, b in network.links for pair in ((a, b), (b, a))]
    sensitivity = defense.tap_sensitivity
    tapped = [e for e in range(n) if sensitivity[e] > 0]  # a zero tap never trips
    # an event int holds the spread hits in bits [0, slots), the cross hits in
    # [slots, taps_from), the taps that could trip in [taps_from, hits_from) and
    # then the attack hits, each attack in a lane of its enclave
    taps_from = slots + len(directed)
    hits_from = taps_from + len(tapped)
    cross_mask = ((1 << len(directed)) - 1) << slots
    live_bits = [0] * n  # enclave e's outward links and tap, which act while e is infected
    fill_bits = [*enclave_masks]  # and its slots, inward links and lanes, idle while e is full
    for bit, (source, target) in enumerate(directed, slots):
        live_bits[source] |= 1 << bit
        fill_bits[target] |= 1 << bit
    for bit, e in enumerate(tapped, taps_from):
        live_bits[e] |= 1 << bit

    # each tick's attacks as (enclave, strength), each plan's instances evenly spaced
    windows: list[list[tuple[int, float]]] = [[] for _ in range(horizon)]
    for plan in attack.plans:
        for instance in range(plan.count):
            start = (instance * horizon) // plan.count
            for t in range(start, min(start + plan.duration, horizon)):
                windows[t].append((plan.enclave, plan.strength))
    # per tick: its attacks as (enclave, lane, draw offset of the pick), and the draw
    # offsets of its spread block, which the cross draws and then the tap draws follow
    schedule = []
    spread_at = []
    attack_draws = []  # (tick, lane, draw offset, strength) of every attack
    lane_of = {}  # (e, j) -> the lane of a tick's (j + 1)-th attack on enclave e
    offset = 0
    for t, attacks in enumerate(windows):
        spread = offset + 2 * len(attacks)
        aims = []
        targets = []  # the tick's attacked enclaves so far
        for at, (e, strength) in zip(range(offset, spread, 2), attacks):
            lane = lane_of.setdefault((e, targets.count(e)), len(lane_of))
            targets.append(e)
            fill_bits[e] |= 1 << hits_from + lane
            aims.append((e, lane, at + 1))
            attack_draws.append((t, lane, at, strength))
        schedule.append((t, aims, spread + 1, spread + 2 * slots + 1, spread + 2 * taps_from))
        spread_at.append(spread)
        offset = spread + 2 * taps_from + n
    lanes = len(lane_of)
    hits_mask = ((1 << lanes) - 1) << hits_from

    block = np.empty((trials, offset))
    fill_random(block, key.sibling_states(range(trials)))

    columns = [*range(0, 2 * taps_from, 2), *(2 * taps_from + e for e in tapped)]
    limits = [network.spread_rate] * slots + [network.cross_rate] * len(directed)
    limits += [sensitivity[e] for e in tapped]
    # each draw's limit, 0.0 for draws that are no event (picks, zero taps); and
    # each tick's event draws, unused lanes and byte padding reading a pick draw
    ceiling = np.zeros(offset)
    pad = [1] * (-(len(columns) + lanes) % 8 + lanes)
    index = np.array(spread_at)[:, None] + np.array(columns + pad, dtype=np.int64)
    ceiling[index[:, : len(columns)]] = limits
    for t, lane, at, strength in attack_draws:
        index[t, len(columns) + lane] = at
        ceiling[at] = strength
    events = _bitmasks(np.take(block < ceiling, index, axis=1))

    rest = 1 + network.cleanse_duration
    per_infected_tick = mc.delay_per_infected_tick
    per_cleanse = mc.delay_per_cleanse

    delays, detections = [], []
    for trial, row in enumerate(block):
        draws = row.data
        infected = live = 0  # live: the live bits of every enclave with an infected slot
        full = 0  # the fill bits of every enclave with no susceptible slot left
        watch = hits_mask  # the event bits that can change the trial
        susceptible = [*map(list.copy, all_slots)]
        offline: list[tuple[int, int]] = []  # (back-online tick, enclave), oldest first
        delay = term = 0.0  # term: the infected-mission delay of one tick
        detected = 0
        for step, event in zip(schedule, events[trial * horizon : (trial + 1) * horizon]):
            if not event & watch:
                delay += term
                continue
            t, aims, spread_pick, cross_pick, tap_at = step
            while offline and offline[0][0] <= t:
                e = offline.pop(0)[1]
                susceptible[e] = all_slots[e].copy()
            # 1. scheduled attacks that hit attempt initial compromise
            if hits := event >> hits_from:
                for e, lane, pick in aims:
                    free = susceptible[e]
                    if hits >> lane & 1 and free:
                        infected |= 1 << first_slot[e] + free.pop(int(draws[pick] * len(free)))
                        live |= live_bits[e]
                        if not free:
                            full |= fill_bits[e]
            # 2. intra-enclave spread from the slots infected before it, in
            # enclaves with a susceptible slot left (pick draws indexed by slot)
            spreading = infected & event & ~full
            while spreading:
                low = spreading & -spreading
                spreading ^= low
                slot = low.bit_length() - 1
                e = enclave_of[slot]
                free = susceptible[e]
                pick = draws[spread_pick + 2 * slot]
                infected |= 1 << first_slot[e] + free.pop(int(pick * len(free)))
                if not free:
                    full |= fill_bits[e]
                    spreading &= ~full
            cleanse = 0  # added after the infected-tick term, as sum() would add it
            if event & live:  # else no link seeds and no tap trips
                # 3. cross-enclave seeding, one chance per link direction
                pending = event & cross_mask
                while crossing := pending & live & ~full:
                    low = crossing & -crossing
                    pending &= -(low << 1)  # the links after this one
                    link = low.bit_length() - 1 - slots
                    e = directed[link][1]
                    free = susceptible[e]
                    if free:
                        pick = draws[cross_pick + 2 * link]
                        infected |= 1 << first_slot[e] + free.pop(int(pick * len(free)))
                        live |= live_bits[e]
                        if not free:
                            full |= fill_bits[e]
                # 4. detection and cleansing; a tap reads only its own
                # enclave, so each one cleanses as soon as it trips
                tapping = (event & live) >> taps_from
                while tapping:
                    low = tapping & -tapping
                    tapping ^= low
                    e = tapped[low.bit_length() - 1]
                    count = (infected & enclave_masks[e]).bit_count()
                    if draws[tap_at + e] < sensitivity[e] * (count / sizes[e]):
                        infected &= ~enclave_masks[e]
                        full &= ~fill_bits[e]
                        live &= ~live_bits[e]
                        susceptible[e] = []
                        offline.append((t + rest, e))
                        detected += 1
                        if mission_count[e]:
                            cleanse += per_cleanse
            # 5. delay accrual
            term = (infected & mission_mask).bit_count() * per_infected_tick
            delay += term
            delay += cleanse
            watch = (infected | live | hits_mask) & ~full
        delays.append(delay)
        detections.append(detected)
    return delays, detections


def engage(
    attack: ContagionAttack,
    defense: ContagionDefense,
    network: SegmentedNetwork,
    mc: MonteCarloConfig,
    key: Key,
) -> EngagementOutcome:
    delays, detections = simulate_trials(attack, defense, network, mc, key)
    mean_delay = statistics.fmean(delays)
    effort_upper = mc.horizon * len(network.enclave_sizes)
    return EngagementOutcome(
        attacker_score=mean_delay,
        defender_score=-mean_delay,
        costs={
            "attacker_cost": attack.total_effort() / effort_upper,
            "defender_cost": 0.0,
        },
        telemetry={
            "delay_variance": population_variance(delays),
            "detections": float(sum(detections)),
        },
    )


class ContagionEnvironment:
    """Engine-facing adapter: interprets sentences, then runs the trials."""

    environment_id = "contagion"

    def __init__(self, scenario: ContagionScenario):
        self.scenario = scenario
        self._attack_cache: dict[tuple[str, ...], ContagionAttack] = {}
        self._defense_cache: dict[tuple[str, ...], ContagionDefense] = {}

    @classmethod
    def from_file(cls, path: str | Path) -> "ContagionEnvironment":
        return cls(load_scenario(path))

    def engage(self, attack: Strategy, defense: Strategy, key: Key) -> EngagementOutcome:
        scenario = self.scenario
        if attack.sentence not in self._attack_cache:
            self._attack_cache[attack.sentence] = interpret_attack(
                attack, scenario.network, scenario.mc.horizon
            )
        if defense.sentence not in self._defense_cache:
            self._defense_cache[defense.sentence] = interpret_defense(
                defense, scenario.network, scenario.mission_devices
            )
        return engage(
            self._attack_cache[attack.sentence],
            self._defense_cache[defense.sentence],
            scenario.network,
            scenario.mc,
            key,
        )
