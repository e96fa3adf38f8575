"""Keyed random streams: the same streams as numpy's list encoding, built only
where an environment draws from them."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coevarena.cli import load_experiment_config
from coevarena.data import data_path
from coevarena.engine import rng as streams
from coevarena.engine.loop import run_alternating
from coevarena.engine.rng import Key
from coevarena.envs import ContagionEnvironment, load_environment
from coevarena.establo import CompendiumEntry, cross_tournament
from coevarena.grammar import Strategy, load_grammar

from oracles import oracle_seed_sequence

WIDE_INTS = st.integers(0, 2**96 - 1)
KEY_PARTS = st.lists(st.one_of(st.integers(0, 2**32), WIDE_INTS, st.text(max_size=12)), max_size=6)


def draws(seed_sequence: np.random.SeedSequence) -> np.ndarray:
    return np.random.default_rng(seed_sequence).random(64)


class TestKeyMatchesListEntropy:
    @settings(max_examples=150, deadline=None)
    @given(master_seed=WIDE_INTS, parts=KEY_PARTS)
    @example(master_seed=0, parts=[0])
    @example(master_seed=2**32 - 1, parts=[2**32, "engage", 0])
    @example(master_seed=2**64, parts=[""])
    def test_same_pool_and_children(self, master_seed, parts):
        built = Key(master_seed, *parts).seed_sequence()
        oracle = oracle_seed_sequence(master_seed, *parts)
        assert np.array_equal(built.generate_state(8), oracle.generate_state(8))
        for child, oracle_child in zip(built.spawn(30), oracle.spawn(30), strict=True):
            assert np.array_equal(draws(child), draws(oracle_child))


class TestKeyValidation:
    @pytest.mark.parametrize(
        "part, error",
        [(True, TypeError), (False, TypeError), (-1, ValueError), (1.0, TypeError), (None, TypeError)],
    )
    def test_bad_part_raises_what_the_list_builder_raises(self, part, error):
        for args in ((part,), (3, part), (3, "cell", part, 0)):
            with pytest.raises(error):
                oracle_seed_sequence(*args)
            with pytest.raises(error):
                Key(*args)

    def test_key_is_immutable(self):
        key = Key(1, "cell", 0, 0)
        with pytest.raises(AttributeError):
            key.words = (0,)


def shipped_run(config_name: str, **changes):
    cfg = load_experiment_config(data_path("configs", config_name))
    return run_alternating(
        replace(cfg.evolution.with_seed(cfg.seed), **changes),
        load_grammar(cfg.attack_grammar),
        load_grammar(cfg.defense_grammar),
        load_environment(cfg.environment, cfg.scenario),
    )


def logged(record):
    return [(c.generation, c.phase, c.engagements) for c in record.cohorts]


# the key part the loop names each engagement kind's stream by
STREAM_OF_KIND = {"candidate": "engage", "incumbent": "elite"}


@pytest.fixture
def only_engagement_keys(monkeypatch):
    """Builds the loop's variation and pairing streams from the oracle, so that
    only engagement streams pass through Key.seed_sequence."""
    monkeypatch.setattr(
        streams,
        "generator",
        lambda seed, *parts: np.random.default_rng(oracle_seed_sequence(seed, *parts)),
    )


@pytest.fixture
def built_streams(only_engagement_keys, monkeypatch):
    """The words of every key whose stream is built, in build order."""
    built = []
    seed_sequence = Key.seed_sequence

    def counting(key):
        built.append(key.words)
        return seed_sequence(key)

    monkeypatch.setattr(Key, "seed_sequence", counting)
    return built


def compendium_entry(role: str, name: str, text: str) -> CompendiumEntry:
    sentence = tuple(text.split())
    return CompendiumEntry(
        entry_id=name,
        role=role,
        run_id="synthetic",
        algorithm="alternating",
        generation=0,
        sentence=sentence,
        strategy=Strategy(sentence, 0, 0),
    )


class TestStreamsBuiltOnlyWhereDrawn:
    def test_ddos_run_builds_no_engagement_stream(self, only_engagement_keys, monkeypatch):
        expected = logged(shipped_run("ddos_smoke.cfg", generations=3))

        def unbuildable(key):
            raise AssertionError("a ddos engagement built its random stream")

        monkeypatch.setattr(Key, "seed_sequence", unbuildable)
        assert logged(shipped_run("ddos_smoke.cfg", generations=3)) == expected

    def test_contagion_run_builds_one_stream_per_logged_engagement(self, built_streams):
        record = shipped_run(
            "contagion_star.cfg", generations=1, attacker_population=3, defender_population=3
        )
        expected = [
            Key(record.master_seed, STREAM_OF_KIND[e.kind], c.generation, c.phase, e.pair_index).words
            for c in record.cohorts
            for e in c.engagements
        ]
        assert expected
        assert Counter(built_streams) == Counter(expected)

    def test_contagion_cross_tournament_builds_one_stream_per_cell(self, built_streams):
        entries = [
            compendium_entry("attacker", "A0", "hit e0 strength 0.8 for 5 x 3"),
            compendium_entry("attacker", "A1", "hit e1 strength 1.0 for 4 x 1"),
            compendium_entry("defender", "D0", "place d0 in e1 tap e0 at 0.3"),
            compendium_entry("defender", "D1", "place d0 in e2 tap e1 at 0.9"),
            compendium_entry("defender", "D2", "place d0 in e0"),
        ]
        environment = ContagionEnvironment.from_file(data_path("scenarios", "star.scenario"))
        cross_tournament(entries, environment, seed=5, context="star")
        assert Counter(built_streams) == Counter(
            Key(5, "cell", i, j).words for i in range(2) for j in range(3)
        )
