import hashlib
import json
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevarena.data import data_path
from coevarena.engagement import InterpretError, ScenarioError
from coevarena.engine.rng import Key
from coevarena.envs.contagion import (
    ContagionAttack,
    ContagionDefense,
    ContagionEnvironment,
    ContagionPlan,
    MonteCarloConfig,
    SegmentedNetwork,
    engage,
    interpret_attack,
    interpret_defense,
    load_scenario,
    simulate_trials,
)
from coevarena.grammar import Strategy

from conftest import small_contagion
from oracles import oracle_simulate_trials


def strategy(text: str) -> Strategy:
    return Strategy(tuple(text.split()))


def plan(enclave=0, strength=1.0, duration=5, count=1):
    return ContagionPlan(enclave=enclave, strength=strength, duration=duration, count=count)


def defense(placement=(0, 0), sensitivity=None, n_enclaves=3):
    return ContagionDefense(
        mission_placement=tuple(placement),
        tap_sensitivity=tuple(sensitivity or [0.0] * n_enclaves),
    )


class TestInterpret:
    NETWORK = small_contagion().network

    def test_attack_clauses(self):
        attack = interpret_attack(
            strategy("hit e1 strength 0.5 for 3 x 2 hit e0 strength 1.0 for 1 x 1"),
            self.NETWORK,
            horizon=15,
        )
        assert attack.plans == (
            ContagionPlan(1, 0.5, 3, 2),
            ContagionPlan(0, 1.0, 1, 1),
        )

    def test_attack_clamps(self):
        attack = interpret_attack(
            strategy("hit e9 strength 7 for 99 x 99"), self.NETWORK, horizon=15
        )
        assert attack.plans == (ContagionPlan(2, 1.0, 15, 15),)

    def test_attack_garbage(self):
        with pytest.raises(InterpretError):
            interpret_attack(strategy("place d0 in e1"), self.NETWORK, horizon=15)

    def test_defense_clauses(self):
        parsed = interpret_defense(
            strategy("place d0 in e2 place d1 in e1 tap e0 at 0.5 tap e2 at 1.0"),
            self.NETWORK,
            mission_devices=2,
        )
        assert parsed.mission_placement == (2, 1)
        assert parsed.tap_sensitivity == (0.5, 0.0, 1.0)

    def test_defense_defaults(self):
        parsed = interpret_defense(
            strategy("place d1 in e1 tap e1 at 0.25"), self.NETWORK, mission_devices=2
        )
        assert parsed.mission_placement == (0, 1)  # d0 defaults to enclave 0

    def test_defense_last_placement_wins(self):
        parsed = interpret_defense(
            strategy("place d0 in e1 place d0 in e2 tap e0 at 0.0"),
            self.NETWORK,
            mission_devices=1,
        )
        assert parsed.mission_placement == (2,)

    def test_defense_overflow_spills_to_lowest_free_enclave(self):
        network = SegmentedNetwork(
            enclave_sizes=(1, 1, 4),
            links=((0, 1), (1, 2)),
            spread_rate=0.0,
            cross_rate=0.0,
            cleanse_duration=1,
        )
        parsed = interpret_defense(
            strategy("place d0 in e0 place d1 in e0 place d2 in e0 tap e0 at 0.0"),
            network,
            mission_devices=3,
        )
        assert parsed.mission_placement == (0, 1, 2)

    def test_defense_garbage(self):
        with pytest.raises(InterpretError):
            interpret_defense(strategy("tap e0 at 0.5 place d0 in e1"), self.NETWORK, 1)


class TestEngageDegenerate:
    def test_zero_strength_means_zero_delay_every_trial(self):
        scenario = small_contagion(trials=50)
        attack = ContagionAttack((plan(strength=0.0, duration=10, count=3),))
        delays, _ = simulate_trials(attack, defense(), scenario.network, scenario.mc, Key(4))
        assert delays == [0.0] * 50
        outcome = engage(attack, defense(), scenario.network, scenario.mc, Key(4))
        assert outcome.attacker_score == 0.0

    def test_single_device_mission_enclave_closed_form(self):
        # strength-1 attack at tick 0 on a 1-device enclave holding the only
        # mission device; nothing spreads, nothing is detected: the device is
        # infected for the whole horizon.
        network = SegmentedNetwork(
            enclave_sizes=(1, 2),
            links=((0, 1),),
            spread_rate=0.0,
            cross_rate=0.0,
            cleanse_duration=1,
        )
        mc = MonteCarloConfig(
            trials=40,
            horizon=12,
            delay_per_infected_tick=1.5,
            delay_per_cleanse=7.0,
        )
        attack = ContagionAttack((plan(enclave=0, strength=1.0, duration=12, count=1),))
        shields = defense(placement=(0,), sensitivity=(0.0, 0.0), n_enclaves=2)
        delays, _ = simulate_trials(attack, shields, network, mc, Key(1))
        assert delays == [12 * 1.5] * 40

    def test_full_sensitivity_cleanses_on_first_infected_tick(self):
        network = SegmentedNetwork(
            enclave_sizes=(1, 2),
            links=((0, 1),),
            spread_rate=0.0,
            cross_rate=0.0,
            cleanse_duration=2,
        )
        mc = MonteCarloConfig(
            trials=60,
            horizon=12,
            delay_per_infected_tick=1.0,
            delay_per_cleanse=3.0,
        )
        attack = ContagionAttack((plan(enclave=0, strength=1.0, duration=12, count=1),))
        shields = defense(placement=(0,), sensitivity=(1.0, 0.0), n_enclaves=2)
        # the device is infected and cleansed at ticks 0, 3, 6 and 9 (offline
        # for 2 ticks after each), so it is never infected at a tick's end
        assert simulate_trials(attack, shields, network, mc, Key(2)) == ([4 * 3.0] * 60, [4] * 60)


class TestRandomnessContracts:
    def test_same_seed_same_trajectories(self):
        scenario = small_contagion(trials=8)
        attack = ContagionAttack((plan(strength=0.6, duration=4, count=2),))
        shields = defense(sensitivity=(0.4, 0.2, 0.1))
        first = simulate_trials(attack, shields, scenario.network, scenario.mc, Key(11))
        second = simulate_trials(attack, shields, scenario.network, scenario.mc, Key(11))
        assert first == second

    def test_common_random_numbers_spread_zero_vs_positive(self):
        # with shared streams and no detection, zero spread is dominated
        # trial by trial by any positive spread rate
        base = small_contagion(trials=30, spread_rate=0.0, cross_rate=0.0)
        attack = ContagionAttack((plan(enclave=0, strength=0.7, duration=4, count=2),))
        shields = defense(placement=(0, 0), sensitivity=(0.0, 0.0, 0.0))
        zero, _ = simulate_trials(attack, shields, base.network, base.mc, Key(3))
        for rate in (0.2, 0.5, 1.0):
            risen = small_contagion(trials=30, spread_rate=rate, cross_rate=0.0)
            high, _ = simulate_trials(attack, shields, risen.network, risen.mc, Key(3))
            assert all(lo <= hi for lo, hi in zip(zero, high))

    def test_mean_delay_nondecreasing_in_spread_rate(self):
        attack = ContagionAttack((plan(enclave=0, strength=0.5, duration=3, count=2),))
        shields = defense(placement=(0, 1), sensitivity=(0.0, 0.0, 0.0))
        means = []
        for rate in (0.0, 0.25, 0.5, 1.0):
            scenario = small_contagion(trials=150, spread_rate=rate, cross_rate=0.05)
            delays, _ = simulate_trials(attack, shields, scenario.network, scenario.mc, Key(9))
            means.append(statistics.fmean(delays))
        assert means == sorted(means)

    def test_offline_enclaves_cannot_spread_outward(self):
        # cleansing the only infected enclave stops cross seeding: with full
        # sensitivity and instant detection, enclave 1 never sees infections
        network = SegmentedNetwork(
            enclave_sizes=(2, 2),
            links=((0, 1),),
            spread_rate=1.0,
            cross_rate=1.0,
            cleanse_duration=3,
        )
        mc = MonteCarloConfig(
            trials=40, horizon=10,
            delay_per_infected_tick=1.0, delay_per_cleanse=0.0,
        )
        attack = ContagionAttack((plan(enclave=0, strength=1.0, duration=1, count=1),))
        shields = ContagionDefense(mission_placement=(1,), tap_sensitivity=(1.0, 1.0))
        delays, _ = simulate_trials(attack, shields, network, mc, Key(21))
        # mission device sits in enclave 1; cross seeding from 0 is cut the
        # same tick it starts because sensitivity-1 detection fires first... the
        # seeded infection in 1 is itself cleansed within a tick of arriving.
        for delay in delays:
            assert delay <= mc.horizon  # never the full blow-up of 2 devices x horizon


@st.composite
def contagion_cases(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=6)))
    n = len(sizes)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    links = tuple(p for p in pairs if draw(st.booleans()))
    rate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    network = SegmentedNetwork(
        enclave_sizes=sizes,
        links=links,
        spread_rate=draw(rate),
        cross_rate=draw(rate),
        cleanse_duration=draw(st.integers(0, 4)),
    )
    mc = MonteCarloConfig(
        trials=draw(st.integers(1, 6)),
        horizon=draw(st.integers(1, 30)),
        delay_per_infected_tick=draw(st.floats(0.0, 3.0)),
        delay_per_cleanse=draw(st.floats(0.0, 10.0)),
    )
    plans = tuple(
        ContagionPlan(
            enclave=draw(st.integers(0, n - 1)),
            strength=draw(rate),
            duration=draw(st.integers(1, mc.horizon)),
            count=draw(st.integers(1, mc.horizon)),
        )
        for _ in range(draw(st.integers(0, 4)))
    )
    mission_devices = draw(st.integers(0, sum(sizes)))
    free = list(sizes)
    placement = []
    for _ in range(mission_devices):
        enclave = draw(st.sampled_from([e for e in range(n) if free[e] > 0]))
        free[enclave] -= 1
        placement.append(enclave)
    shields = ContagionDefense(
        mission_placement=tuple(placement),
        tap_sensitivity=tuple(draw(rate) for _ in range(n)),
    )
    return ContagionAttack(plans), shields, network, mc, draw(st.integers(0, 2**32 - 1))


@st.composite
def wide_contagion_cases(draw):
    if draw(st.booleans()):
        sizes, links = (40, 30), ((0, 1),)
    else:
        sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=9, max_size=9)))
        links = tuple((a, b) for a in range(9) for b in range(a + 1, 9))
    rate = st.floats(0.05, 1.0)
    network = SegmentedNetwork(
        enclave_sizes=sizes,
        links=links,
        spread_rate=draw(rate),
        cross_rate=draw(rate),
        cleanse_duration=draw(st.integers(0, 3)),
    )
    mc = MonteCarloConfig(
        trials=draw(st.integers(1, 4)),
        horizon=draw(st.integers(1, 20)),
        delay_per_infected_tick=1.0,
        delay_per_cleanse=draw(st.floats(0.0, 10.0)),
    )
    n = len(sizes)
    plans = tuple(
        ContagionPlan(
            enclave=draw(st.integers(0, n - 1)),
            strength=draw(rate),
            duration=draw(st.integers(1, mc.horizon)),
            count=draw(st.integers(1, mc.horizon)),
        )
        for _ in range(draw(st.integers(1, 4)))
    )
    # whole enclaves may hold mission devices, so the mission mask can pass bit 64
    placement = tuple(e for e in range(n) for _ in range(sizes[e]) if draw(st.booleans()))
    shields = ContagionDefense(
        mission_placement=placement,
        tap_sensitivity=tuple(draw(st.sampled_from([0.0, 0.3, 1.0])) for _ in range(n)),
    )
    return ContagionAttack(plans), shields, network, mc, draw(st.integers(0, 2**32 - 1))


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(contagion_cases())
    def test_matches_scalar_loop(self, case):
        attack, shields, network, mc, seed = case
        fast = simulate_trials(attack, shields, network, mc, Key(seed))
        slow = oracle_simulate_trials(attack, shields, network, mc, Key(seed).seed_sequence())
        assert fast == slow

    @settings(max_examples=25, deadline=None)
    @given(wide_contagion_cases())
    def test_matches_scalar_loop_past_one_mask_word(self, case):
        # more than 64 slots (sizes (40, 30)) or more than 64 directed links
        # (a 9-enclave clique has 72), so an event int spans several words
        attack, shields, network, mc, seed = case
        fast = simulate_trials(attack, shields, network, mc, Key(seed))
        slow = oracle_simulate_trials(attack, shields, network, mc, Key(seed).seed_sequence())
        assert fast == slow

    def test_shipped_networks_golden_digest(self):
        # sha256 of engagement outcomes computed with the per-tick scalar loop
        # before the bitmask rewrite, re-taken on the same outcomes without the
        # telemetry keys that repeated other fields; catches drift even if the
        # oracle changes
        attacks = (
            "hit e0 strength 0.8 for 5 x 3 hit e2 strength 0.5 for 10 x 2",
            "hit e1 strength 1.0 for 40 x 1 hit e3 strength 0.3 for 2 x 8",
        )
        defenses = (
            "place d0 in e1 place d1 in e2 place d2 in e0 tap e0 at 0.3 tap e1 at 0.6 tap e2 at 0.1",
            "place d3 in e3 tap e0 at 1.0 tap e1 at 0.9 tap e3 at 0.05",
        )
        records = []
        for network in ("star", "twotier", "chain", "clique"):
            environment = ContagionEnvironment.from_file(data_path("scenarios", f"{network}.scenario"))
            for i, attack in enumerate(attacks):
                for j, shields in enumerate(defenses):
                    outcome = environment.engage(
                        strategy(attack), strategy(shields), Key(17, i, j)
                    )
                    records.append(
                        {
                            "network": network,
                            "attacker_score": outcome.attacker_score,
                            "costs": outcome.costs,
                            "telemetry": outcome.telemetry,
                        }
                    )
        digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
        assert digest == "f9d04ad5fd950ddd90a6fb0309558671a34efdfd9958e197ae5841f28fde4d32"


def matches_oracle(attack, shields, network, mc, seed=0):
    """simulate_trials' result, once it is checked to equal the oracle's."""
    fast = simulate_trials(attack, shields, network, mc, Key(seed))
    assert fast == oracle_simulate_trials(attack, shields, network, mc, Key(seed).seed_sequence())
    return fast


class TestEventGating:
    """Ticks where the loop's view of which events can act changes within
    the tick, and a long run of ticks where none can."""

    @pytest.mark.parametrize("links, delay", [(((1, 2), (0, 1)), 18.0), (((0, 1), (1, 2)), 22.0)])
    def test_a_source_infected_by_a_cross_hit_fires_only_later_links(self, links, delay):
        # Every cross draw hits. With 1-2 listed first, enclave 1 is infected
        # by link 0->1 after its link 1->2 had its turn, so 2 waits a tick:
        # 3, 7 and 8 slots infected at the ends of ticks 0, 1 and 2. Listed
        # last, 1->2 and then 2->1 fire in tick 0: 5, 8 and 9.
        network = SegmentedNetwork((3, 3, 3), links, spread_rate=0.0, cross_rate=1.0, cleanse_duration=1)
        mc = MonteCarloConfig(trials=4, horizon=3, delay_per_infected_tick=1.0, delay_per_cleanse=0.0)
        attack = ContagionAttack((plan(enclave=0, strength=1.0, duration=1),))
        shields = defense(placement=(0, 0, 0, 1, 1, 1, 2, 2, 2))
        assert matches_oracle(attack, shields, network, mc) == ([delay] * 4, [0] * 4)

    def test_tap_reads_an_enclave_a_cross_hit_seeded_in_the_same_tick(self):
        # Enclave 1 is seeded from 0 at ticks 0 and 3 and its full tap trips
        # each time, so its mission device is never infected at a tick's end.
        network = SegmentedNetwork((3, 1), ((0, 1),), spread_rate=0.0, cross_rate=1.0, cleanse_duration=2)
        mc = MonteCarloConfig(trials=4, horizon=4, delay_per_infected_tick=1.0, delay_per_cleanse=5.0)
        attack = ContagionAttack((plan(enclave=0, strength=1.0, duration=1),))
        shields = defense(placement=(1,), sensitivity=(0.0, 1.0), n_enclaves=2)
        assert matches_oracle(attack, shields, network, mc) == ([10.0] * 4, [2] * 4)

    def test_attacks_on_a_filled_and_on_an_offline_enclave_change_nothing(self):
        # Two plans hit the 1-slot enclave 0 every tick: the first fills it,
        # the second finds no room, and its full tap takes it offline until
        # tick 3. Two more plans share ticks on enclave 1.
        network = SegmentedNetwork((1, 2), ((0, 1),), spread_rate=0.0, cross_rate=0.0, cleanse_duration=2)
        mc = MonteCarloConfig(trials=20, horizon=5, delay_per_infected_tick=1.0, delay_per_cleanse=0.5)
        attack = ContagionAttack(
            (plan(enclave=0, duration=5), plan(enclave=1, strength=0.5, duration=3, count=2),
             plan(enclave=0, duration=5), plan(enclave=1, strength=0.5, duration=2))
        )
        shields = defense(placement=(0, 1, 1), sensitivity=(1.0, 0.0), n_enclaves=2)
        _, detections = matches_oracle(attack, shields, network, mc, seed=3)
        assert detections == [2] * 20

    def test_quiet_ticks_add_the_delay_one_tick_at_a_time(self):
        # one infected mission device for 41 ticks: 40 of them quiet
        network = SegmentedNetwork((1, 1), ((0, 1),), spread_rate=0.0, cross_rate=0.0, cleanse_duration=1)
        mc = MonteCarloConfig(trials=3, horizon=41, delay_per_infected_tick=0.1, delay_per_cleanse=0.0)
        attack = ContagionAttack((plan(enclave=0, strength=1.0, duration=1),))
        delays, _ = matches_oracle(attack, defense(placement=(0,), n_enclaves=2), network, mc)
        expected = 0.0
        for _ in range(41):
            expected += 0.1
        assert expected != 41 * 0.1
        assert delays == [expected] * 3


class TestEngageOutcome:
    def test_scores_are_negatives(self):
        scenario = small_contagion(trials=10)
        attack = ContagionAttack((plan(strength=0.8, duration=4, count=2),))
        outcome = engage(attack, defense(), scenario.network, scenario.mc, Key(5))
        assert outcome.defender_score == -outcome.attacker_score
        assert set(outcome.telemetry) == {"delay_variance", "detections"}

    def test_attacker_cost_normalization(self):
        scenario = small_contagion()
        attack = ContagionAttack((plan(strength=0.5, duration=4, count=2),))
        outcome = engage(attack, defense(), scenario.network, scenario.mc, Key(5))
        assert outcome.costs["attacker_cost"] == (0.5 * 4 * 2) / (15 * 3)


class TestScenarioLoading:
    def test_round_trip(self, contagion_scenario_file):
        scenario = load_scenario(contagion_scenario_file)
        assert scenario.network.enclave_sizes == (3, 3, 3)
        assert scenario.mc.trials == 5
        assert scenario.mission_devices == 2

    def test_bad_rate_rejected(self):
        with pytest.raises(ScenarioError):
            SegmentedNetwork((2, 2), ((0, 1),), spread_rate=1.5, cross_rate=0.0, cleanse_duration=1)

    @pytest.mark.parametrize("repeat", [(1, 0), (0, 1)])
    def test_link_given_twice_rejected(self, repeat):
        with pytest.raises(ScenarioError, match="0-1|1-0"):
            SegmentedNetwork((2, 2, 2), ((0, 1), (1, 2), repeat), 0.5, 0.5, cleanse_duration=1)

    def test_environment_adapter(self, contagion_scenario_file):
        environment = ContagionEnvironment.from_file(contagion_scenario_file)
        outcome = environment.engage(
            strategy("hit e0 strength 1.0 for 3 x 1"),
            strategy("place d0 in e0 tap e0 at 0.5"),
            Key(7),
        )
        assert outcome.attacker_score >= 0.0
