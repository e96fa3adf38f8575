"""Keyed random streams: the same streams as numpy's list encoding, the same
draws as numpy's Generator, built only where they are drawn from."""

import copy
import itertools
import math
import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coevarena import CompetitionStructure, SelectionScheme, crossover, mutate, pair, select
from coevarena.cli import load_experiment_config
from coevarena.data import data_path
from coevarena.engine import rng as streams
from coevarena.engine.loop import run_alternating
from coevarena.engine.rng import Key, Stream
from coevarena.envs import ContagionEnvironment, load_environment
from coevarena.establo import CompendiumEntry, cross_tournament
from coevarena.grammar import Genotype, GenotypeLimits, Strategy, load_grammar, random_genotype

from oracles import OracleGenerator, oracle_random_genotype, oracle_seed_sequence, oracle_select

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


WORDS = st.integers(0, 2**32 - 1)


class TestSiblingStates:
    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.one_of(
            st.lists(WORDS, min_size=1, max_size=3),  # zero-padded to the pool size
            st.lists(WORDS, min_size=4, max_size=4),
            st.lists(WORDS, min_size=5, max_size=9),
            st.lists(st.one_of(WORDS, WIDE_INTS), min_size=1, max_size=4),  # 64 bits and more
        ),
        n=st.integers(0, 40),
    )
    @example(parts=[0], n=1)
    @example(parts=[2**32 - 1] * 4, n=30)
    @example(parts=[2**64, 2**96 - 1], n=30)
    def test_states_are_numpys_children(self, parts, n):
        key = Key(*parts)
        expected = [np.random.PCG64(child).state["state"] for child in key.seed_sequence().spawn(n)]
        assert [{"state": state, "inc": inc} for state, inc in key.sibling_states(range(n))] == expected

    def test_ranges_of_one_length_keep_their_own_indices(self):
        """The index half of the mix is kept per word count and range: ranges
        of one length but another start or step, and the first again, each
        give their own children."""
        key = Key(11, "mutate", 2, "defender")
        children = key.seed_sequence().spawn(20)
        for indices in (range(0, 10), range(10, 20), range(0, 20, 2), range(0, 10)):
            expected = [np.random.PCG64(children[i]).state["state"] for i in indices]
            assert [{"state": s, "inc": inc} for s, inc in key.sibling_states(indices)] == expected, indices


KEYS = st.builds(lambda seed, parts: Key(seed, *parts), WIDE_INTS, KEY_PARTS)
# span edges: one value draws nothing, 2**32 - 1 and 2**32 sit either side of
# the raw 32-bit half, and wider spans take a whole word
SPANS = st.one_of(
    st.sampled_from([1, 2, 65536, 2**32 - 1, 2**32, 2**32 + 1]),
    st.integers(3, 100),
    st.integers(1, 2**63),
)
CODON_MAXES = st.one_of(st.sampled_from([1, 2, 65536, 2**32, 2**32 + 1, 2**63]), st.integers(1, 2**63))


def numpy_generator(key: Key) -> OracleGenerator:
    return OracleGenerator(np.random.PCG64(key.seed_sequence()))


def stream(key: Key) -> Stream:
    return streams.generator(*key.words)


# (master seed, prefix parts) of four words or more, the sibling rule's
# condition, with master seeds and generations of 2**32 and more among them
SIBLING_PREFIXES = st.tuples(
    st.one_of(WORDS, st.integers(2**32, 2**96 - 1)),
    st.lists(
        st.one_of(WORDS, st.integers(2**32, 2**64), st.text(max_size=8)), min_size=3, max_size=5
    ),
)


@st.composite
def sibling_picks(draw, max_n=64):
    """A sibling prefix, a block size n and one index i below n."""
    seed, prefix = draw(SIBLING_PREFIXES)
    n = draw(st.integers(1, max_n))
    return seed, prefix, n, draw(st.integers(0, n - 1))


@st.composite
def calls(draw):
    name = draw(st.sampled_from(["random", "integers", "permutation"]))
    if name == "random":
        return (name,)
    if name == "permutation":
        return (name, draw(st.integers(0, 40)))
    span = draw(SPANS)
    low = draw(st.integers(0, 2**63 - span))
    return (name, low, low + span)


@st.composite
def genotypes_and_limits(draw, count=1):
    min_length = draw(st.integers(1, 8))
    limits = GenotypeLimits(min_length, draw(st.integers(min_length, 12)), draw(CODON_MAXES))
    codons = st.integers(0, limits.codon_max - 1)
    sized = st.lists(codons, min_size=limits.min_length, max_size=limits.max_length)
    return [Genotype(tuple(draw(sized))) for _ in range(count)], limits


class TestStreamMatchesGenerator:
    """Stream re-does numpy's Generator over PCG64's raw words; these fail if a
    numpy release changes the Generator's algorithms."""

    @settings(max_examples=300, deadline=None)
    @given(key=KEYS, sequence=st.lists(calls(), max_size=80))
    @example(key=Key(0), sequence=[("integers", 0, 10), ("random",), ("integers", 0, 10), ("permutation", 9)])
    @example(key=Key(1), sequence=[("integers", 0, 2**31 + 1)] * 40 + [("integers", 0, 2**63)] * 20)
    def test_call_for_call(self, key, sequence):
        built, oracle = stream(key), numpy_generator(key)
        for name, *args in sequence:
            expected = getattr(oracle, name)(*args)
            if name == "permutation":
                expected = expected.tolist()
            assert getattr(built, name)(*args) == expected, (name, args)

    def test_empty_span_raises_as_numpy_does(self):
        with pytest.raises(ValueError):
            numpy_generator(Key(0)).integers(3, 3)
        with pytest.raises(ValueError):
            stream(Key(0)).integers(3, 3)


def draw(generator, call):
    name, *args = call
    value = getattr(generator, name)(*args)
    return value.tolist() if isinstance(value, np.ndarray) else value


# the rates hits must treat exactly as random() < p: the ends, the least
# positive one, and the float neighbours either side of two common ones
HIT_RATES = [0.0, 2**-53, 0.1, 0.25, 0.5, 1.0] + [
    math.nextafter(p, toward) for p in (0.1, 0.5) for toward in (0.0, 1.0)
]


class TestStreamHits:
    """Stream.hits yields what OracleGenerator.hits yields, one random() per
    index, with other draws made between its yields."""

    @settings(max_examples=300, deadline=None)
    @given(
        key=KEYS,
        before=st.lists(calls(), max_size=4),
        n=st.integers(0, 200),
        p=st.sampled_from(HIT_RATES),
        between=st.lists(st.lists(calls(), max_size=3), max_size=40),
    )
    # n above one 64-word block, so a refill lands inside the scan
    @example(key=Key(0), before=[], n=150, p=0.5, between=[[("integers", 0, 10)]] * 40)
    @example(key=Key(3), before=[("integers", 0, 2**16)], n=130, p=1.0, between=[[("random",)]] * 40)
    def test_yield_for_yield(self, key, before, n, p, between):
        built, oracle = stream(key), numpy_generator(key)
        for call in before:
            assert draw(built, call) == draw(oracle, call)
        pairs = itertools.zip_longest(built.hits(n, p), oracle.hits(n, p))
        for k, (got, expected) in enumerate(pairs):
            assert got == expected, (k, p)
            for call in between[k] if k < len(between) else ():
                assert draw(built, call) == draw(oracle, call)
        assert built.random() == oracle.random()
        assert built.integers(0, 2**32) == oracle.integers(0, 2**32)

    @pytest.mark.parametrize("p", HIT_RATES)
    def test_words_either_side_of_the_limit(self, p):
        # the raw words whose random() sits on either side of p
        edge = math.ceil(p * 2**53) << 11
        near = (0, edge - 2049, edge - 2048, edge - 1, edge, edge + 2047, 2**64 - 1)
        words = [w for w in near if 0 <= w < 2**64]
        built = Stream(0, 1)
        built._words.extend(reversed(words))
        expected = [i for i, w in enumerate(words) if (w >> 11) * 2**-53 < p]
        assert list(built.hits(len(words), p)) == expected

    @pytest.mark.parametrize("p", [-0.5, -math.inf, 1.5, math.inf, math.nan])
    def test_rates_outside_the_unit_interval(self, p):
        built, oracle = stream(Key(7)), numpy_generator(Key(7))
        assert list(built.hits(100, p)) == list(oracle.hits(100, p))
        assert built.random() == oracle.random()


class TestEngineDrawsMatchGenerator:
    """Each variation, pairing and init operator draws from a Stream what it
    drew from numpy's Generator on the same key."""

    @settings(max_examples=100, deadline=None)
    @given(
        key=KEYS,
        fitnesses=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=1, max_size=12),
        scheme=st.one_of(
            st.builds(lambda k: SelectionScheme("tournament", size=k), st.integers(1, 5)),
            st.builds(lambda f: SelectionScheme("truncation", fraction=f), st.floats(0.01, 1.0)),
        ),
    )
    def test_select(self, key, fitnesses, scheme):
        members = [Genotype((i,)) for i in range(len(fitnesses))]
        expected = oracle_select(members, fitnesses, scheme, numpy_generator(key))
        assert select(members, fitnesses, scheme, stream(key)) == expected

    @settings(max_examples=100, deadline=None)
    @given(key=KEYS, drawn=genotypes_and_limits(), rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    def test_mutate(self, key, drawn, rate):
        (genotype,), limits = drawn
        expected = mutate(genotype, rate, numpy_generator(key), limits)
        assert mutate(genotype, rate, stream(key), limits) == expected

    @settings(max_examples=100, deadline=None)
    @given(key=KEYS, drawn=genotypes_and_limits(count=2), rate=st.sampled_from([0.0, 0.8, 1.0]))
    def test_crossover(self, key, drawn, rate):
        (a, b), limits = drawn
        expected = crossover(a, b, rate, numpy_generator(key), limits)
        assert crossover(a, b, rate, stream(key), limits) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        pick=sibling_picks(),
        drawn=genotypes_and_limits(),
        rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    )
    def test_mutate_from_sibling_stream(self, pick, drawn, rate):
        seed, prefix, n, i = pick
        (genotype,), limits = drawn
        expected = mutate(genotype, rate, numpy_generator(Key(seed, *prefix, i)), limits)
        assert mutate(genotype, rate, streams.siblings(seed, *prefix, children=range(n))[i], limits) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        pick=sibling_picks(),
        drawn=genotypes_and_limits(count=2),
        rate=st.sampled_from([0.0, 0.8, 1.0]),
    )
    def test_crossover_from_sibling_stream(self, pick, drawn, rate):
        seed, prefix, n, i = pick
        (a, b), limits = drawn
        expected = crossover(a, b, rate, numpy_generator(Key(seed, *prefix, i)), limits)
        assert crossover(a, b, rate, streams.siblings(seed, *prefix, children=range(n))[i], limits) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        key=KEYS,
        structure=st.builds(lambda r: CompetitionStructure("tournament", rounds=r), st.integers(1, 3)),
        n_att=st.integers(1, 40),
        n_def=st.integers(1, 40),
    )
    def test_pair(self, key, structure, n_att, n_def):
        expected = pair(structure, n_att, n_def, numpy_generator(key))
        assert pair(structure, n_att, n_def, stream(key)) == expected

    @settings(max_examples=100, deadline=None)
    @given(key=KEYS, drawn=genotypes_and_limits())
    def test_random_genotype(self, key, drawn):
        _, limits = drawn
        args = (limits.min_length, limits.max_length, limits.codon_max)
        expected = oracle_random_genotype(numpy_generator(key), *args)
        assert random_genotype(stream(key), *args) == expected


class TestSiblingStreams:
    """siblings(seed, *prefix, children=range(n))[i] is the stream of Key(seed, *prefix, i)
    when the prefix has four words or more: the prefix-child rule."""

    @settings(max_examples=100, deadline=None)
    @given(prefix=SIBLING_PREFIXES, n=st.integers(0, 64), sequence=st.lists(calls(), max_size=20))
    @example(prefix=(2**32 + 5, ["mutate", 2**32 + 1, "attacker"]), n=64, sequence=[])
    @example(prefix=(0, ["cross", 1, "defender"]), n=1, sequence=[("permutation", 9)])
    def test_draws_are_the_childs_key_stream(self, prefix, n, sequence):
        seed, parts = prefix
        built = streams.siblings(seed, *parts, children=range(n))
        assert len(built) == n
        for i, sibling in enumerate(built):
            oracle = numpy_generator(Key(seed, *parts, i))
            for name, *args in sequence:
                expected = getattr(oracle, name)(*args)
                if name == "permutation":
                    expected = expected.tolist()
                assert getattr(sibling, name)(*args) == expected, (i, name, args)
            # more than three blocks of raw words, so the state jumps between blocks
            tail = [sibling.random() for _ in range(4 * 32 + 1)]
            assert tail == oracle.random(4 * 32 + 1).tolist(), i

    @settings(max_examples=50, deadline=None)
    @given(
        prefix=SIBLING_PREFIXES,
        start=st.integers(0, 8),
        stop=st.integers(0, 40),
        step=st.integers(2, 5),
    )
    @example(prefix=(0, ["cross", 1, "attacker"]), start=0, stop=19, step=2)
    @example(prefix=(3, ["cross", 2**32 + 1, "defender"]), start=2**32 - 5, stop=2**32, step=2)
    def test_stepped_range_gives_only_those_children(self, prefix, start, stop, step):
        """The crossover block seeds one stream per slot pair, range(0, n - 1, 2)."""
        seed, parts = prefix
        children = range(start, stop, step)
        built = streams.siblings(seed, *parts, children=children)
        assert len(built) == len(children)
        for i, sibling in zip(children, built):
            expected = numpy_generator(Key(seed, *parts, i)).random(40).tolist()
            assert [sibling.random() for _ in range(40)] == expected, i

    def test_short_prefix_is_refused(self):
        with pytest.raises(ValueError, match="at least 4 words"):
            streams.siblings(7, "mutate", 1, children=range(3))
        # words, not parts, count: a 64-bit master seed is two
        assert len(streams.siblings(2**32, "mutate", 1, children=range(3))) == 3

    def test_short_prefix_childs_differ_from_the_index_key(self):
        """Why: a child's entropy pads the prefix to four words before its
        index, so child i of a three-word key is not Key(*prefix, i)."""
        prefix = Key(7, "mutate", 1)
        for i, child in enumerate(prefix.seed_sequence().spawn(3)):
            assert not np.array_equal(draws(child), draws(Key(7, "mutate", 1, i).seed_sequence()))
        four = Key(7, "mutate", 1, "attacker")
        for i, child in enumerate(four.seed_sequence().spawn(3)):
            assert np.array_equal(draws(child), draws(four.child(i).seed_sequence()))

    @settings(max_examples=100, deadline=None)
    @given(key=KEYS, i=st.integers(0, 2**32 - 1))
    @example(key=Key(0), i=0)
    @example(key=Key(2**64, "engage", 3, "defender"), i=2**32 - 1)
    def test_child_appends_one_word(self, key, i):
        assert key.child(i).words == Key(*key.words, i).words == (*key.words, i)

    @pytest.mark.parametrize(
        "i, error",
        [(-1, ValueError), (2**32, ValueError), (True, TypeError), (1.0, TypeError), ("1", TypeError)],
    )
    def test_child_refuses_what_is_not_one_word(self, i, error):
        with pytest.raises(error):
            Key(3, "engage", 1, "attacker").child(i)

    def test_fill_random_rows_are_the_childrens_draws(self):
        key = Key(5, "cell", 0, 1)
        block = np.empty((30, 70))
        streams.fill_random(block, key.sibling_states(range(30)))
        for row, child in zip(block, key.seed_sequence().spawn(30), strict=True):
            assert row.tolist() == np.random.default_rng(child).random(70).tolist()


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

    @settings(max_examples=100, deadline=None)
    @given(key=KEYS)
    @example(key=Key(3, "engage", 1, "attacker", 4))
    def test_pickle_and_copy_round_trip(self, key):
        for twin in (pickle.loads(pickle.dumps(key)), copy.copy(key), copy.deepcopy(key)):
            assert type(twin) is Key
            assert twin.words == key.words
            assert twin.seed_sequence().entropy.tolist() == key.seed_sequence().entropy.tolist()


class TestKeyIsAValue:
    """A key is the words it names: keys of the same words are one value."""

    PARTS = (3, "engage", 1, "attacker")

    def test_same_parts_are_equal_and_hash_alike(self):
        first, second = Key(*self.PARTS), Key(*self.PARTS)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1

    @pytest.mark.parametrize(
        "parts",
        [(4, "engage", 1, "attacker"), (3, "engage", 1, "defender"), (3, "engage", 1), (3, "engage", 1, "attacker", 0)],
    )
    def test_different_parts_differ(self, parts):
        assert Key(*parts) != Key(*self.PARTS)

    @settings(max_examples=100, deadline=None)
    @given(parts=KEY_PARTS, i=WORDS)
    def test_child_is_the_key_of_its_parts_and_index(self, parts, i):
        assert Key(7, *parts).child(i) == Key(7, *parts, i)

    @settings(max_examples=100, deadline=None)
    @given(key=KEYS)
    def test_pickled_or_copied_key_equals_its_source(self, key):
        for twin in (pickle.loads(pickle.dumps(key)), copy.copy(key), copy.deepcopy(key)):
            assert twin == key and hash(twin) == hash(key)


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


def oracle_stream(seed, *parts):
    return OracleGenerator(np.random.PCG64(oracle_seed_sequence(seed, *parts)))


@pytest.fixture
def only_engagement_keys(monkeypatch):
    """Builds the loop's init, selection, variation and pairing streams, single
    and sibling, from the oracle, so that only engagement streams pass through
    Key.seed_sequence and Key.sibling_states."""
    monkeypatch.setattr(streams, "generator", oracle_stream)
    monkeypatch.setattr(
        streams,
        "siblings",
        lambda seed, *prefix, children: [oracle_stream(seed, *prefix, i) for i in children],
    )


# the two ways a key's stream is built: as its SeedSequence, or as the PCG64
# states of that SeedSequence's spawned children
BUILDERS = ("seed_sequence", "sibling_states")


@pytest.fixture
def built_streams(only_engagement_keys, monkeypatch):
    """The words of every key whose stream is built, in build order."""
    built = []
    for name in BUILDERS:

        def counting(key, *args, _build=getattr(Key, name)):
            built.append(key.words)
            return _build(key, *args)

        monkeypatch.setattr(Key, name, counting)
    return built


def compendium_entry(role: str, name: str, text: str) -> CompendiumEntry:
    return CompendiumEntry(
        entry_id=name,
        role=role,
        run_id="synthetic",
        algorithm="alternating",
        generation=0,
        strategy=Strategy(tuple(text.split())),
    )


class TestStreamsBuiltOnlyWhereDrawn:
    def test_ddos_run_builds_no_engagement_stream(self, only_engagement_keys, monkeypatch):
        expected = logged(shipped_run("ddos_smoke.cfg", generations=3))

        def unbuildable(key, *args):
            raise AssertionError("a ddos engagement built its random stream")

        for name in BUILDERS:
            monkeypatch.setattr(Key, name, unbuildable)
        assert logged(shipped_run("ddos_smoke.cfg", generations=3)) == expected

    def test_contagion_run_builds_one_stream_per_logged_engagement(self, built_streams):
        record = shipped_run(
            "contagion_star.cfg", generations=1, attacker_population=3, defender_population=3
        )
        expected = [
            Key(record.config.master_seed, STREAM_OF_KIND[e.kind], c.generation, c.phase, e.pair_index).words
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
