"""Monte Carlo malware-contagion simulator over an enclave-segmented network.

The defender places mission devices into enclaves and tunes per-enclave tap
sensitivities; the attacker schedules per-enclave attack plans (strength,
duration, repetitions). Each trial walks the tick loop: attack seeding,
intra-enclave spread, cross-enclave seeding, detection-and-cleanse, then
delay accrual. The attacker's score is the mean mission delay over trials
(which it wants high); the defender's score is its negation.

Random draws are consumed on a fixed, state-independent schedule (always
drawn, conditionally used), so reusing a trial's stream across parameter
variations yields exact common-random-number coupling. A trial's whole
schedule is drawn in one call; PCG64 yields the same numbers as drawing it
tick by tick.
"""

from __future__ import annotations

import re
import statistics
from configparser import ConfigParser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..engagement import EngagementOutcome, InterpretError, ScenarioError
from ..engine.rng import Key
from ..grammar import Strategy

_ENCLAVE_TOKEN = re.compile(r"^e(\d+)$")
_DEVICE_TOKEN = re.compile(r"^d(\d+)$")


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
        n = len(self.enclave_sizes)
        for a, b in self.links:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ScenarioError(f"bad inter-enclave link {a}-{b}")


@dataclass(frozen=True)
class MonteCarloConfig:
    trials: int
    horizon: int
    base_mission_duration: float
    delay_per_infected_tick: float
    delay_per_cleanse: float

    def __post_init__(self):
        if self.trials < 1:
            raise ScenarioError("trials must be >= 1")
        if self.horizon < 1:
            raise ScenarioError("horizon must be >= 1")


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


@dataclass(frozen=True)
class TrialResult:
    delay: float
    detections: int
    first_infected_tick: int | None
    first_cleanse_tick: int | None


def load_scenario(path: str | Path) -> ContagionScenario:
    parser = ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ScenarioError(f"cannot read scenario file {path}")
    try:
        links = []
        for token in parser.get("enclaves", "links").split():
            a, dash, b = token.partition("-")
            if not dash:
                raise ScenarioError(f"bad link token {token!r}")
            links.append((int(a), int(b)))
        network = SegmentedNetwork(
            enclave_sizes=tuple(int(s) for s in parser.get("enclaves", "sizes").split()),
            links=tuple(links),
            spread_rate=parser.getfloat("contagion", "spread_rate"),
            cross_rate=parser.getfloat("contagion", "cross_rate"),
            cleanse_duration=parser.getint("contagion", "cleanse_duration"),
        )
        mc = MonteCarloConfig(
            trials=parser.getint("simulation", "trials"),
            horizon=parser.getint("mission", "horizon"),
            base_mission_duration=parser.getfloat("mission", "base_duration"),
            delay_per_infected_tick=parser.getfloat("mission", "delay_per_infected_tick"),
            delay_per_cleanse=parser.getfloat("mission", "delay_per_cleanse"),
        )
        return ContagionScenario(
            network=network,
            mc=mc,
            mission_devices=parser.getint("mission", "mission_devices"),
        )
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"malformed scenario {path}: {exc}") from exc


def _clamp(value, low, high):
    return max(low, min(high, value))


def interpret_attack(strategy: Strategy, network: SegmentedNetwork, horizon: int) -> ContagionAttack:
    tokens = strategy.sentence
    plans: list[ContagionPlan] = []
    i = 0
    while i < len(tokens):
        clause = tokens[i : i + 8]
        if (
            len(clause) != 8
            or clause[0] != "hit"
            or clause[2] != "strength"
            or clause[4] != "for"
            or clause[6] != "x"
        ):
            raise InterpretError(f"not an attack plan clause: {' '.join(clause)!r}")
        enclave_match = _ENCLAVE_TOKEN.match(clause[1])
        if enclave_match is None:
            raise InterpretError(f"bad enclave token {clause[1]!r}")
        try:
            strength = float(clause[3])
            duration = int(clause[5])
            count = int(clause[7])
        except ValueError as exc:
            raise InterpretError(f"bad numeric token in {' '.join(clause)!r}") from exc
        plans.append(
            ContagionPlan(
                enclave=_clamp(int(enclave_match.group(1)), 0, len(network.enclave_sizes) - 1),
                strength=_clamp(strength, 0.0, 1.0),
                duration=max(1, min(duration, horizon)),
                count=max(1, min(count, horizon)),
            )
        )
        i += 8
    return ContagionAttack(plans=tuple(plans))


def interpret_defense(
    strategy: Strategy, network: SegmentedNetwork, mission_devices: int
) -> ContagionDefense:
    """Parse placements and taps; unplaced devices default to enclave 0,
    unmentioned taps to 0. Devices overflowing an enclave's capacity spill to
    the lowest-id enclave with room."""
    tokens = list(strategy.sentence)
    n = len(network.enclave_sizes)
    desired = [0] * mission_devices
    sensitivity = [0.0] * n
    i = 0
    while i < len(tokens) and tokens[i] == "place":
        clause = tokens[i : i + 4]
        if len(clause) != 4 or clause[2] != "in":
            raise InterpretError(f"not a placement clause: {' '.join(clause)!r}")
        device_match = _DEVICE_TOKEN.match(clause[1])
        enclave_match = _ENCLAVE_TOKEN.match(clause[3])
        if device_match is None or enclave_match is None:
            raise InterpretError(f"bad placement tokens: {' '.join(clause)!r}")
        if mission_devices > 0:
            device = _clamp(int(device_match.group(1)), 0, mission_devices - 1)
            desired[device] = _clamp(int(enclave_match.group(1)), 0, n - 1)
        i += 4
    while i < len(tokens) and tokens[i] == "tap":
        clause = tokens[i : i + 4]
        if len(clause) != 4 or clause[2] != "at":
            raise InterpretError(f"not a tap clause: {' '.join(clause)!r}")
        enclave_match = _ENCLAVE_TOKEN.match(clause[1])
        if enclave_match is None:
            raise InterpretError(f"bad tap tokens: {' '.join(clause)!r}")
        try:
            level = float(clause[3])
        except ValueError as exc:
            raise InterpretError(f"bad sensitivity {clause[3]!r}") from exc
        sensitivity[_clamp(int(enclave_match.group(1)), 0, n - 1)] = _clamp(level, 0.0, 1.0)
        i += 4
    if i != len(tokens):
        raise InterpretError(f"trailing tokens in defense sentence: {tokens[i:]!r}")

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


def _attack_windows(attack: ContagionAttack, horizon: int):
    """Per-tick list of (enclave, strength) attack instances, evenly spaced."""
    per_tick: list[list[tuple[int, float]]] = [[] for _ in range(horizon)]
    for plan in attack.plans:
        for instance in range(plan.count):
            start = (instance * horizon) // plan.count
            for t in range(start, min(start + plan.duration, horizon)):
                per_tick[t].append((plan.enclave, plan.strength))
    return per_tick


def simulate_trials(
    attack: ContagionAttack,
    defense: ContagionDefense,
    network: SegmentedNetwork,
    mc: MonteCarloConfig,
    rng: np.random.SeedSequence,
) -> list[TrialResult]:
    """Run mc.trials independent trials, one spawned sub-stream each.

    Each enclave's infected slots are an int bitmask and its susceptible
    slots a sorted list, so "the k-th susceptible slot" is a list pop. A tick
    with no infection and no scheduled attack changes nothing and is skipped;
    its draws stay in the schedule, so every later offset is unchanged.
    """
    sizes = network.enclave_sizes
    n = len(sizes)
    mission_count = [0] * n
    for enclave in defense.mission_placement:
        mission_count[enclave] += 1
    # mission devices occupy the lowest slots of their enclave
    mission_masks = [(e, (1 << count) - 1) for e, count in enumerate(mission_count) if count]
    per_tick_attacks = _attack_windows(attack, mc.horizon)
    directed = [pair for a, b in network.links for pair in ((a, b), (b, a))]
    # per tick: draw offset of its attacks, of each enclave's spread block,
    # of the cross links and of the taps
    ticks = []
    offset = 0
    for t, attacks in enumerate(per_tick_attacks):
        spread_base = []
        cross = offset + 2 * len(attacks)
        for size in sizes:
            spread_base.append(cross)
            cross += 2 * size
        taps = cross + 2 * len(directed)
        ticks.append((t, offset, attacks, spread_base, cross, taps))
        offset = taps + n
    total_draws = offset
    spread_rate = network.spread_rate
    cross_rate = network.cross_rate
    sensitivity = defense.tap_sensitivity
    tapped = [e for e in range(n) if sensitivity[e] > 0]  # a zero tap never trips
    rest = 1 + network.cleanse_duration
    per_infected_tick = mc.delay_per_infected_tick
    per_cleanse = mc.delay_per_cleanse
    enclaves = range(n)
    all_online = [True] * n
    slots_of: dict[int, tuple[int, ...]] = {}

    results: list[TrialResult] = []
    for child in rng.spawn(mc.trials):
        draws = np.random.Generator(np.random.PCG64(child)).random(total_draws).data
        infected = [0] * n
        susceptible = [list(range(size)) for size in sizes]
        offline_until = [0] * n
        back_online = 0
        delay = 0.0
        detections = 0
        first_infected = None
        first_cleanse = None
        for t, cursor, attacks, spread_base, cross, taps in ticks:
            if not attacks and not any(infected):
                continue
            if t >= back_online:
                online = all_online
            else:
                online = [t >= until for until in offline_until]
            # 1. scheduled attacks attempt initial compromise
            for enclave, strength in attacks:
                if online[enclave] and draws[cursor] < strength and susceptible[enclave]:
                    free = susceptible[enclave]
                    infected[enclave] |= 1 << free.pop(int(draws[cursor + 1] * len(free)))
                    if first_infected is None:
                        first_infected = t
                cursor += 2
            # 2. intra-enclave spread (snapshot of infectors; draws indexed by slot)
            for e in enclaves:
                mask = infected[e]
                free = susceptible[e]
                if mask and free and online[e]:
                    slots = slots_of.get(mask)
                    if slots is None:
                        slots = slots_of[mask] = tuple(
                            s for s in range(mask.bit_length()) if mask >> s & 1
                        )
                    base = spread_base[e]
                    for slot in slots:
                        at = base + 2 * slot
                        if draws[at] < spread_rate:
                            infected[e] |= 1 << free.pop(int(draws[at + 1] * len(free)))
                            if not free:
                                break
            # 3. cross-enclave seeding, one chance per link direction
            cursor = cross
            for src, dst in directed:
                if (
                    infected[src]
                    and online[src]
                    and online[dst]
                    and draws[cursor] < cross_rate
                    and susceptible[dst]
                ):
                    # an infected source implies an earlier attack infection,
                    # so first_infected is already set
                    free = susceptible[dst]
                    infected[dst] |= 1 << free.pop(int(draws[cursor + 1] * len(free)))
                cursor += 2
            # 4. detection and cleansing
            cleansed_now = [
                e
                for e in tapped
                if infected[e]
                and online[e]
                and draws[taps + e] < sensitivity[e] * (infected[e].bit_count() / sizes[e])
            ]
            if cleansed_now:
                for e in cleansed_now:
                    infected[e] = 0
                    susceptible[e] = list(range(sizes[e]))
                    offline_until[e] = back_online = t + rest
                    detections += 1
                if first_cleanse is None:
                    first_cleanse = t
            # 5. delay accrual
            infected_mission = 0
            for e, mask in mission_masks:
                infected_mission += (infected[e] & mask).bit_count()
            delay += infected_mission * per_infected_tick
            if cleansed_now:
                delay += sum(per_cleanse for e in cleansed_now if mission_count[e] > 0)
        results.append(
            TrialResult(
                delay=delay,
                detections=detections,
                first_infected_tick=first_infected,
                first_cleanse_tick=first_cleanse,
            )
        )
    return results


def engage(
    attack: ContagionAttack,
    defense: ContagionDefense,
    network: SegmentedNetwork,
    mc: MonteCarloConfig,
    rng: np.random.SeedSequence,
) -> EngagementOutcome:
    trials = simulate_trials(attack, defense, network, mc, rng)
    delays = [trial.delay for trial in trials]
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
            "delay_variance": statistics.pvariance(delays),
            "detections": float(sum(trial.detections for trial in trials)),
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
            key.seed_sequence(),
        )
