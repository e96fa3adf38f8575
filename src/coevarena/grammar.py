"""BNF grammars and the integer-vector rewriting that turns genotypes into sentences.

Grammar files are UTF-8 text with one rule per logical line::

    # comment to end of line
    <attack>  ::= noop | <actions>
    <actions> ::= <action> | <action> <actions>

The left-hand side is a ``<name>`` nonterminal, ``::=`` separates it from the
alternatives, and ``|`` separates alternatives. Symbols are whitespace
separated: ``<name>`` references a nonterminal, anything else is a terminal
token. Terminals may be quoted (``'...'`` or ``"..."``) to include whitespace,
``|``, ``#`` or angle brackets. A line whose last symbol is ``|`` continues on
the next line. The first rule's left-hand side is the start symbol and rule /
alternative order is exactly file order, so alternative indices are stable.

Rewriting is the usual leftmost derivation driven by integer codons: at a
nonterminal with k alternatives the next codon modulo k picks the alternative.
The codon cursor wraps back to the start of the genotype when exhausted, a
bounded number of times.
"""

from __future__ import annotations

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
        for c in self.codons:
            if c < 0:
                raise ValueError(f"codon {c} is negative")

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
    """A derived sentence plus the bookkeeping of how it was derived."""

    sentence: tuple[str, ...]
    codons_used: int
    wraps_used: int

    @property
    def text(self) -> str:
        return " ".join(self.sentence)


@dataclass(frozen=True)
class Grammar:
    start: str
    productions: dict[str, tuple[tuple[Symbol, ...], ...]]
    nonterminals: frozenset[str]
    terminals: frozenset[str]


def _strip_comment(line: str) -> str:
    """Drop everything from an unquoted # to the end of the line."""
    out = []
    quote = None
    for ch in line:
        if quote is not None:
            out.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            out.append(ch)
        elif ch == "#":
            break
        else:
            out.append(ch)
    return "".join(out)


def _logical_lines(text: str):
    """Yield (line_number, text) pairs after comment stripping and | continuation."""
    pending: list[str] = []
    pending_line = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw).strip()
        if not stripped and not pending:
            continue
        if not pending:
            pending_line = number
        pending.append(stripped)
        joined = " ".join(pending).strip()
        if joined.endswith("|"):
            continue
        if joined:
            yield pending_line, joined
        pending = []
    if pending and " ".join(pending).strip():
        raise GrammarSyntaxError(pending_line, "rule ends with a dangling '|'")


def _split_alternatives(rhs: str, line: int) -> list[list[Symbol]]:
    alternatives: list[list[Symbol]] = [[]]
    i = 0
    while i < len(rhs):
        ch = rhs[i]
        if ch.isspace():
            i += 1
        elif ch == "|":
            alternatives.append([])
            i += 1
        elif ch in "'\"":
            end = rhs.find(ch, i + 1)
            if end < 0:
                raise GrammarSyntaxError(line, "unterminated quoted terminal")
            if end == i + 1:
                raise GrammarSyntaxError(line, "empty quoted terminal")
            alternatives[-1].append(Symbol(rhs[i + 1 : end], False))
            i = end + 1
        else:
            j = i
            while j < len(rhs) and not rhs[j].isspace() and rhs[j] not in "|'\"":
                j += 1
            token = rhs[i:j]
            if token.startswith("<") and token.endswith(">") and len(token) > 2:
                alternatives[-1].append(Symbol(token[1:-1], True))
            elif "<" in token or ">" in token:
                raise GrammarSyntaxError(line, f"malformed nonterminal reference {token!r}")
            else:
                alternatives[-1].append(Symbol(token, False))
            i = j
    return alternatives


def parse_bnf(text: str) -> Grammar:
    """Parse BNF source text into a Grammar.

    Raises GrammarSyntaxError, DuplicateRuleError or UndefinedNonterminalError
    with the offending line number.
    """
    productions: dict[str, tuple[tuple[Symbol, ...], ...]] = {}
    rule_lines: dict[str, int] = {}
    start = None
    for line, content in _logical_lines(text):
        head, sep, rhs = content.partition("::=")
        if not sep:
            raise GrammarSyntaxError(line, "expected '<name> ::= alternatives'")
        head = head.strip()
        if not (head.startswith("<") and head.endswith(">") and len(head) > 2):
            raise GrammarSyntaxError(line, f"left-hand side {head!r} is not a <nonterminal>")
        name = head[1:-1]
        if any(ch.isspace() or ch in "<>" for ch in name):
            raise GrammarSyntaxError(line, f"invalid nonterminal name {name!r}")
        if name in productions:
            raise DuplicateRuleError(name, line)
        alternatives = _split_alternatives(rhs, line)
        for alt in alternatives:
            if not alt:
                raise GrammarSyntaxError(line, "empty alternative (epsilon rules are not supported)")
        productions[name] = tuple(tuple(alt) for alt in alternatives)
        rule_lines[name] = line
        if start is None:
            start = name
    if start is None:
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
        start=start,
        productions=productions,
        nonterminals=frozenset(productions),
        terminals=frozenset(terminals),
    )


def load_grammar(path: str | Path) -> Grammar:
    return parse_bnf(Path(path).read_text(encoding="utf-8"))


def map_genotype(genotype: Genotype, grammar: Grammar, cfg: MappingConfig = MappingConfig()) -> Strategy:
    """Rewrite a genotype into a Strategy via leftmost derivation.

    Pure function: identical inputs always give identical output. Raises
    MappingFailure when the wrap or expansion budget runs out.
    """
    codons = genotype.codons
    cursor = 0
    wraps = 0
    used = 0
    steps = 0

    def next_codon() -> int:
        nonlocal cursor, wraps, used
        if cursor >= len(codons):
            if wraps >= cfg.max_wraps:
                raise MappingFailure("codon supply exhausted")
            wraps += 1
            cursor = 0
        value = codons[cursor]
        cursor += 1
        used += 1
        return value

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
            choice = next_codon() % len(alternatives)
        stack.extend(reversed(alternatives[choice]))
    return Strategy(
        sentence=tuple(sentence),
        codons_used=used,
        wraps_used=wraps,
    )


def random_genotype(rng: Stream, min_length: int, max_length: int, codon_max: int) -> Genotype:
    """Uniform random genotype: length in [min_length, max_length], codons in [0, codon_max)."""
    if not 1 <= min_length <= max_length:
        raise ValueError("need 1 <= min_length <= max_length")
    length = rng.integers(min_length, max_length + 1)
    return Genotype(tuple(rng.integers(0, codon_max) for _ in range(length)))
