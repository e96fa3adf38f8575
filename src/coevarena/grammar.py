"""BNF grammars and the integer-vector rewriting that turns genotypes into sentences.

Grammar files are UTF-8 text, one rule per line::

    # comment to end of line
    <attack>  ::= noop | <actions>
    <actions> ::= <action> | <action> <actions>

Each physical line is read once, under these lexical rules:

- ``'...'`` or ``"..."`` is a quoted terminal: not empty, ended on the line
  it starts, and free to hold whitespace, ``|``, ``#``, ``::=`` or ``<>``.
- ``#`` outside a quoted terminal starts a comment to the end of the line.
- ``|`` separates alternatives. A rule whose comment-free text, stripped, ends
  in ``|`` continues on the next line that is not blank or comment-only.
- Any other run of characters up to whitespace, ``|``, a quote or ``#`` is a
  bare symbol: ``<name>`` references a nonterminal; without ``<`` or ``>`` it
  is a terminal.

A rule splits at the first ``::=`` of its first line's comment-free text: a
``<name>`` before it, the alternatives after it. A later ``::=`` is a
terminal. Errors carry the number of the line where their rule starts. The
first rule's left-hand side is the start symbol and rule / alternative order
is exactly file order, so alternative indices are stable.

Rewriting is the usual leftmost derivation driven by integer codons: at a
nonterminal with k alternatives the next codon modulo k picks the alternative.
The codon cursor wraps back to the start of the genotype when exhausted, a
bounded number of times.
"""

import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .engine.rng import Stream

CONSUME_ALWAYS = "consume-always"
CONSUME_ON_CHOICE = "consume-on-choice"
CODON_POLICIES = (CONSUME_ALWAYS, CONSUME_ON_CHOICE)


class GrammarError(Exception):
    """Base class for problems with a grammar file."""


class GrammarSyntaxError(GrammarError):
    """Malformed rule text. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UndefinedNonterminalError(GrammarError):
    """A rule references a nonterminal that is never defined."""

    def __init__(self, name: str, line: int):
        super().__init__(f"line {line}: nonterminal <{name}> is referenced but never defined")
        self.name = name
        self.line = line


class DuplicateRuleError(GrammarError):
    """The same nonterminal has two rule lines."""

    def __init__(self, name: str, line: int):
        super().__init__(f"line {line}: nonterminal <{name}> is defined twice")
        self.name = name
        self.line = line


class MappingFailure(Exception):
    """A genotype could not be rewritten to a terminal-only sentence.

    Raised when the derivation still contains nonterminals after the wrap
    budget or the expansion budget is spent. How the individual is punished is
    the caller's decision, not the grammar's.
    """


class Symbol(NamedTuple):
    text: str
    is_nonterminal: bool


@dataclass(frozen=True)
class Genotype:
    """A variable-length vector of non-negative integer codons."""

    codons: tuple[int, ...]

    def __post_init__(self):
        if len(self.codons) == 0:
            raise ValueError("genotype must hold at least one codon")
        if min(self.codons) < 0:
            first = next(c for c in self.codons if c < 0)
            raise ValueError(f"codon {first} is negative")

    def __len__(self) -> int:
        return len(self.codons)


@dataclass(frozen=True)
class GenotypeLimits:
    """Length and codon bounds enforced by initialization and variation."""

    min_length: int = 8
    max_length: int = 64
    codon_max: int = 2**16

    def __post_init__(self):
        if not 1 <= self.min_length <= self.max_length:
            raise ValueError("need 1 <= min_length <= max_length")
        # codon draws follow numpy's int64 integers(), whose exclusive high is at most 2**63
        if not 1 <= self.codon_max <= 2**63:
            raise ValueError("need 1 <= codon_max <= 2**63")


@dataclass(frozen=True)
class MappingConfig:
    """Bounds on the rewriting process.

    max_wraps counts restarts of the codon cursor; max_derivation_steps bounds
    total nonterminal expansions; codon_policy decides whether a codon is
    consumed at single-alternative rules.
    """

    max_wraps: int = 2
    codon_policy: str = CONSUME_ON_CHOICE
    max_derivation_steps: int = 10_000

    def __post_init__(self):
        if self.max_wraps < 0:
            raise ValueError("max_wraps must be >= 0")
        if self.max_derivation_steps < 1:
            raise ValueError("max_derivation_steps must be >= 1")
        if self.codon_policy not in CODON_POLICIES:
            raise ValueError(f"unknown codon policy {self.codon_policy!r}")


@dataclass(frozen=True)
class Strategy:
    """A derived sentence: the terminals of a genotype's derivation, in order."""

    sentence: tuple[str, ...]

    @property
    def text(self) -> str:
        return " ".join(self.sentence)


@dataclass(frozen=True)
class Grammar:
    start: str
    productions: dict[str, tuple[tuple[Symbol, ...], ...]]
    terminals: frozenset[str]


# A comment, "|", quoted terminal (closing quote possibly missing) or bare symbol
_TOKEN = re.compile(r"""\s*(#.*|\||'[^']*'?|"[^"]*"?|[^\s|'"#]+)""")


def _rules(text: str):
    """Yield (line, head, tokens) per rule, in file order: the number of its
    first line, the stripped text before that line's first ``::=`` (None
    without one) and every token after it, "|" included, up to the rule's last line."""
    rule = None
    continued = False
    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = [match for match in _TOKEN.finditer(raw) if match[1][0] != "#"]
        if not tokens:
            continue
        rest = 0
        if not continued:
            if rule is not None:
                yield rule
            head, split, _ = raw[: tokens[-1].end()].partition("::=")
            rest = len(head) + 3
            rule = (number, head.strip() if split else None, [])
        # a bare token that holds the "::=" keeps the part after it
        rule[2].extend(match[1][max(rest - match.start(1), 0) :] for match in tokens if match.end() > rest)
        continued = tokens[-1][1] == "|"
    if continued:
        raise GrammarSyntaxError(rule[0], "rule ends with a dangling '|'")
    if rule is not None:
        yield rule


def parse_bnf(text: str) -> Grammar:
    """Parse BNF source text into a Grammar.

    Raises GrammarSyntaxError, DuplicateRuleError or UndefinedNonterminalError
    with the offending line number.
    """
    productions: dict[str, tuple[tuple[Symbol, ...], ...]] = {}
    rule_lines: dict[str, int] = {}
    for line, head, tokens in _rules(text):
        if head is None:
            raise GrammarSyntaxError(line, "expected '<name> ::= alternatives'")
        if not (head.startswith("<") and head.endswith(">") and len(head) > 2):
            raise GrammarSyntaxError(line, f"left-hand side {head!r} is not a <nonterminal>")
        name = head[1:-1]
        if any(ch.isspace() or ch in "<>" for ch in name):
            raise GrammarSyntaxError(line, f"invalid nonterminal name {name!r}")
        if name in productions:
            raise DuplicateRuleError(name, line)
        alternatives: list[list[Symbol]] = [[]]
        for token in tokens:
            if token == "|":
                alternatives.append([])
            elif token[0] in "'\"":
                if len(token) == 1 or token[-1] != token[0]:
                    raise GrammarSyntaxError(line, "unterminated quoted terminal")
                if len(token) == 2:
                    raise GrammarSyntaxError(line, "empty quoted terminal")
                alternatives[-1].append(Symbol(token[1:-1], False))
            elif token.startswith("<") and token.endswith(">") and len(token) > 2:
                alternatives[-1].append(Symbol(token[1:-1], True))
            elif "<" in token or ">" in token:
                raise GrammarSyntaxError(line, f"malformed nonterminal reference {token!r}")
            else:
                alternatives[-1].append(Symbol(token, False))
        if not all(alternatives):
            raise GrammarSyntaxError(line, "empty alternative (epsilon rules are not supported)")
        productions[name] = tuple(tuple(alt) for alt in alternatives)
        rule_lines[name] = line
    if not productions:
        raise GrammarSyntaxError(1, "grammar has no rules")
    terminals = set()
    for name, alternatives in productions.items():
        for alt in alternatives:
            for sym in alt:
                if sym.is_nonterminal:
                    if sym.text not in productions:
                        raise UndefinedNonterminalError(sym.text, rule_lines[name])
                else:
                    terminals.add(sym.text)
    return Grammar(
        start=next(iter(productions)),
        productions=productions,
        terminals=frozenset(terminals),
    )


def load_grammar(path: str | Path) -> Grammar:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GrammarError(f"grammar file {path} is not UTF-8 text: {exc}") from exc
    try:
        return parse_bnf(text)
    except GrammarError as exc:
        exc.args = (f"grammar file {path}: {exc}",)
        raise


def map_genotype(genotype: Genotype, grammar: Grammar, cfg: MappingConfig = MappingConfig()) -> Strategy:
    """Rewrite a genotype into a Strategy via leftmost derivation.

    Pure function: identical inputs always give identical output. Raises
    MappingFailure when the wrap or expansion budget runs out.
    """
    codons = genotype.codons
    cursor = wraps = steps = 0
    sentence: list[str] = []
    stack: list[Symbol] = [Symbol(grammar.start, True)]
    while stack:
        sym = stack.pop()
        if not sym.is_nonterminal:
            sentence.append(sym.text)
            continue
        steps += 1
        if steps > cfg.max_derivation_steps:
            raise MappingFailure("derivation step budget exhausted")
        alternatives = grammar.productions[sym.text]
        if len(alternatives) == 1 and cfg.codon_policy == CONSUME_ON_CHOICE:
            choice = 0
        else:
            if cursor >= len(codons):
                if wraps >= cfg.max_wraps:
                    raise MappingFailure("codon supply exhausted")
                wraps += 1
                cursor = 0
            choice = codons[cursor] % len(alternatives)
            cursor += 1
        stack.extend(reversed(alternatives[choice]))
    return Strategy(tuple(sentence))


def random_genotype(rng: "Stream", min_length: int, max_length: int, codon_max: int) -> Genotype:
    """Uniform random genotype: length in [min_length, max_length], codons in [0, codon_max)."""
    if not 1 <= min_length <= max_length:
        raise ValueError("need 1 <= min_length <= max_length")
    length = rng.integers(min_length, max_length + 1)
    return Genotype(tuple(rng.integers(0, codon_max) for _ in range(length)))
