import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevarena.grammar import (
    CONSUME_ALWAYS,
    DuplicateRuleError,
    Genotype,
    GrammarSyntaxError,
    MappingConfig,
    MappingFailure,
    Strategy,
    UndefinedNonterminalError,
    load_grammar,
    map_genotype,
    parse_bnf,
    random_genotype,
)

from oracles import ORACLE_FAILED, oracle_map, random_grammar_text


class TestParseBnf:
    def test_single_rule(self):
        grammar = parse_bnf("<s> ::= a")
        assert grammar.start == "s"
        assert set(grammar.productions) == {"s"}
        assert grammar.terminals == {"a"}
        assert [[sym.text for sym in alt] for alt in grammar.productions["s"]] == [["a"]]

    def test_file_order_preserved(self):
        grammar = parse_bnf("<s> ::= a | <t>\n<t> ::= b")
        assert len(grammar.productions["s"]) == 2
        assert len(grammar.productions["t"]) == 1
        first, second = grammar.productions["s"]
        assert first[0].text == "a" and not first[0].is_nonterminal
        assert second[0].text == "t" and second[0].is_nonterminal

    def test_undefined_nonterminal(self):
        with pytest.raises(UndefinedNonterminalError) as err:
            parse_bnf("<s> ::= <u>")
        assert err.value.name == "u"

    def test_duplicate_rule(self):
        with pytest.raises(DuplicateRuleError):
            parse_bnf("<s> ::= a\n<s> ::= b")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(GrammarSyntaxError) as err:
            parse_bnf("<s> ::= a\nnot a rule")
        assert err.value.line == 2

    def test_comments_and_blank_lines(self):
        grammar = parse_bnf("# heading\n\n<s> ::= a  # trailing\n")
        assert grammar.terminals == {"a"}

    def test_trailing_pipe_continuation(self):
        grammar = parse_bnf("<s> ::= a |\n        b | c\n")
        assert len(grammar.productions["s"]) == 3

    def test_dangling_pipe_is_error(self):
        with pytest.raises(GrammarSyntaxError):
            parse_bnf("<s> ::= a |")

    def test_quoted_terminals(self):
        grammar = parse_bnf('<s> ::= "two words" | \'#\'')
        assert "two words" in grammar.terminals
        assert "#" in grammar.terminals

    def test_empty_alternative_rejected(self):
        with pytest.raises(GrammarSyntaxError):
            parse_bnf("<s> ::= a | | b")

    def test_malformed_reference_rejected(self):
        with pytest.raises(GrammarSyntaxError):
            parse_bnf("<s> ::= <u")

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("<s>::=a|b", {"s": ["a", "b"]}),
            ("<s> ::= <t>|'x y'\n<t>::=a", {"s": ["<t>", "x y"], "t": ["a"]}),
            ("<s> ::= '#' \"a#\" a#b | c", {"s": ["# a# a"]}),
            ("<s> ::= a '|'\n<t> ::= b", {"s": ["a |"], "t": ["b"]}),
            ("<s> ::= a |\n\n# a note\n   \n  b # c\n<t> ::= d", {"s": ["a", "b"], "t": ["d"]}),
            ("<s> ::= a ::= b | x::=y", {"s": ["a ::= b", "x::=y"]}),
            ("<s> ::= a\n<t> ::= 'b", (GrammarSyntaxError, 2)),
            ("<s> ::= a\n<t> ::= b ''", (GrammarSyntaxError, 2)),
            ("<s> ::= a\n<t> ::= b |\n\n# c\n", (GrammarSyntaxError, 2)),
            ("<s> ::= a\n<t> ::= b |\n  c |\n", (GrammarSyntaxError, 2)),
            ("<s> ::= a | | b\n<t> ::= ''", (GrammarSyntaxError, 1)),
            ("<s> ::= a\n<s> ::= 'b\n<t> ::= ''", (DuplicateRuleError, 2)),
            ("<s> ::= <u>\n<t> ::= <v>", (UndefinedNonterminalError, 1)),
            ("# only a comment\n\n", (GrammarSyntaxError, 1)),
        ],
    )
    def test_lexical_rules(self, text, expected):
        if isinstance(expected, tuple):
            error, line = expected
            with pytest.raises(error) as err:
                parse_bnf(text)
            assert type(err.value) is error and err.value.line == line
            return
        grammar = parse_bnf(text)
        shape = {
            name: [" ".join(f"<{s.text}>" if s.is_nonterminal else s.text for s in alt) for alt in alts]
            for name, alts in grammar.productions.items()
        }
        assert shape == expected
        assert grammar.start == next(iter(expected))

    @pytest.mark.parametrize(
        "text, error, line",
        [
            ("<s> ::= a |\n", GrammarSyntaxError, 1),
            ("<s> ::= a\n<s> ::= b\n", DuplicateRuleError, 2),
            ("<s> ::= <u>\n", UndefinedNonterminalError, 1),
        ],
    )
    def test_load_grammar_names_the_file(self, tmp_path, text, error, line):
        path = tmp_path / "bad.bnf"
        path.write_text(text)
        with pytest.raises(error) as err:
            load_grammar(path)
        assert type(err.value) is error and err.value.line == line
        assert str(err.value).startswith(f"grammar file {path}: line {line}: ")


class TestMapping:
    def test_zero_mod_two_picks_first(self):
        grammar = parse_bnf("<s> ::= a | b")
        assert map_genotype(Genotype((0,)), grammar).sentence == ("a",)
        assert map_genotype(Genotype((1,)), grammar).sentence == ("b",)

    def test_hand_traced_expression(self):
        # <e> -> <e> + <e> (codon 0), leftmost <e> -> x (1), last <e> -> x (1):
        # it reads three codons, so two fail without a wrap
        grammar = parse_bnf("<e> ::= <e> + <e> | x")
        no_wraps = MappingConfig(max_wraps=0)
        assert map_genotype(Genotype((0, 1, 1)), grammar, no_wraps).sentence == ("x", "+", "x")
        with pytest.raises(MappingFailure):
            map_genotype(Genotype((0, 1)), grammar, no_wraps)

    def test_wrap_exhaustion_fails(self):
        grammar = parse_bnf("<e> ::= <e> <e> | x")
        with pytest.raises(MappingFailure):
            map_genotype(Genotype((0,)), grammar, MappingConfig(max_wraps=2))

    def test_wrapping_reuses_codons(self):
        # [0,1,1]: <s> expands, <a> -> u, <s> -> <a>, then the cursor wraps
        # and codon 0 resolves the last <a> to t.
        grammar = parse_bnf("<s> ::= <a> <s> | <a>\n<a> ::= t | u")
        genotype = Genotype((0, 1, 1))
        assert map_genotype(genotype, grammar, MappingConfig(max_wraps=1)).sentence == ("u", "t")
        with pytest.raises(MappingFailure):  # the fourth codon needs the wrap
            map_genotype(genotype, grammar, MappingConfig(max_wraps=0))

    def test_unit_production_consumes_no_codon_on_choice_policy(self):
        # without wraps one codon suffices on choice; always spends one more on the unit rule
        grammar = parse_bnf("<s> ::= <t>\n<t> ::= a | b")
        lazy = MappingConfig(max_wraps=0, codon_policy="consume-on-choice")
        eager = MappingConfig(max_wraps=0, codon_policy=CONSUME_ALWAYS)
        assert map_genotype(Genotype((1,)), grammar, lazy).sentence == ("b",)
        with pytest.raises(MappingFailure):
            map_genotype(Genotype((1,)), grammar, eager)
        assert map_genotype(Genotype((1, 0)), grammar, eager).sentence == ("a",)

    def test_step_budget_fails(self):
        grammar = parse_bnf("<e> ::= <e> <e> | x")
        with pytest.raises(MappingFailure):
            map_genotype(Genotype((0, 0, 0, 0)), grammar, MappingConfig(max_wraps=50, max_derivation_steps=10))

    def test_mapping_is_pure(self):
        grammar = parse_bnf("<e> ::= <e> + <e> | x | y")
        genotype = Genotype((4, 1, 2, 7, 5))
        first = map_genotype(genotype, grammar)
        second = map_genotype(genotype, grammar)
        assert first == second


class TestAgainstOracle:
    def test_random_grammars_match_oracle(self):
        rng = np.random.default_rng(2024)
        cfg = MappingConfig(max_wraps=2, max_derivation_steps=200)
        for _ in range(300):
            grammar = parse_bnf(random_grammar_text(rng))
            genotype = Genotype(tuple(int(c) for c in rng.integers(0, 2**16, size=rng.integers(1, 24))))
            expected = oracle_map(genotype, grammar, cfg)
            if expected is ORACLE_FAILED:
                with pytest.raises(MappingFailure):
                    map_genotype(genotype, grammar, cfg)
            else:
                assert map_genotype(genotype, grammar, cfg).sentence == expected[0]

    def test_mod_rule_shifting_codon_by_alternative_count(self):
        # Raising a consumed codon by a multiple of its decision's alternative
        # count must not change the derivation.
        rng = np.random.default_rng(7)
        grammar = parse_bnf("<s> ::= <t> <s> | <t>\n<t> ::= a | b | c | d")
        cfg = MappingConfig(max_wraps=0, max_derivation_steps=100)
        checked = 0
        for _ in range(200):
            genotype = Genotype(tuple(int(c) for c in rng.integers(0, 64, size=rng.integers(2, 10))))
            traced = oracle_map(genotype, grammar, cfg)
            if traced is ORACLE_FAILED:
                continue
            sentence, _, _, decisions = traced
            for position, count in decisions:
                bumped = list(genotype.codons)
                bumped[position] += count * int(rng.integers(1, 4))
                assert map_genotype(Genotype(tuple(bumped)), grammar, cfg).sentence == sentence
                checked += 1
        assert checked > 50


@st.composite
def genotypes(draw, max_len=16, codon_max=256):
    length = draw(st.integers(1, max_len))
    return Genotype(tuple(draw(st.lists(st.integers(0, codon_max - 1), min_size=length, max_size=length))))


PROPERTY_GRAMMAR = parse_bnf(
    "<s> ::= <a> <s> | <a> | stop\n<a> ::= left <s> right | tick | tock | <b>\n<b> ::= u | v"
)


class TestProperties:
    @given(genotypes())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_stability(self, genotype):
        cfg = MappingConfig(max_wraps=1, max_derivation_steps=300)
        try:
            first = map_genotype(genotype, PROPERTY_GRAMMAR, cfg)
        except MappingFailure:
            with pytest.raises(MappingFailure):
                map_genotype(genotype, PROPERTY_GRAMMAR, cfg)
            return
        assert map_genotype(genotype, PROPERTY_GRAMMAR, cfg) == first

    @given(genotypes(), st.lists(st.integers(0, 255), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_prefix_property_consume_always(self, genotype, suffix):
        cfg = MappingConfig(max_wraps=0, codon_policy=CONSUME_ALWAYS, max_derivation_steps=300)
        try:
            base = map_genotype(genotype, PROPERTY_GRAMMAR, cfg)
        except MappingFailure:
            return
        extended = Genotype(genotype.codons + tuple(suffix))
        assert map_genotype(extended, PROPERTY_GRAMMAR, cfg).sentence == base.sentence

    @given(genotypes(), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_larger_wrap_budget_keeps_the_sentence(self, genotype, wraps):
        # a derivation that maps within a wrap budget reads no codon past it
        cfg = MappingConfig(max_wraps=wraps, max_derivation_steps=300)
        try:
            strategy = map_genotype(genotype, PROPERTY_GRAMMAR, cfg)
        except MappingFailure:
            return
        larger = MappingConfig(max_wraps=wraps + 1, max_derivation_steps=300)
        assert map_genotype(genotype, PROPERTY_GRAMMAR, larger) == strategy
        assert set(strategy.sentence) <= PROPERTY_GRAMMAR.terminals


class TestGenotype:
    def test_negative_codon_is_named(self):
        with pytest.raises(ValueError, match=r"^codon -1 is negative$"):
            Genotype((3, -1, -2))

    def test_empty_is_rejected(self):
        with pytest.raises(ValueError, match="at least one codon"):
            Genotype(())


class TestRandomGenotype:
    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            genotype = random_genotype(rng, 5, 5, 10)
            assert len(genotype) == 5
            assert all(0 <= c < 10 for c in genotype.codons)

    def test_determinism(self):
        a = random_genotype(np.random.default_rng(99), 1, 8, 2**16)
        b = random_genotype(np.random.default_rng(99), 1, 8, 2**16)
        assert a == b

    def test_length_distribution_uniform(self):
        # chi-squared against uniform over lengths 1..8; critical value for
        # 7 degrees of freedom at the 0.999 level is 24.32.
        rng = np.random.default_rng(31337)
        draws = 10_000
        counts = [0] * 8
        for _ in range(draws):
            counts[len(random_genotype(rng, 1, 8, 2**16)) - 1] += 1
        expected = draws / 8
        statistic = sum((c - expected) ** 2 / expected for c in counts)
        assert statistic < 24.32

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            random_genotype(np.random.default_rng(0), 3, 2, 10)

    def test_strategy_text_joins_tokens(self):
        strategy = Strategy(("a", "b"))
        assert strategy.text == "a b"
