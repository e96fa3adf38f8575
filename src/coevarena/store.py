"""Directory-per-run results store.

Layout::

    <root>/index.jsonl            one line per run directory: its dir and run_id
    <root>/<dir>/manifest.json    config echo, seed, file hashes, timestamp
    <root>/<dir>/engagements.jsonl  header, then population lines and engagement rows
    <root>/<dir>/halfsteps.jsonl  header, then one HalfStepStats record per half-step
    <root>/<dir>/attack.bnf, defense.bnf, scenario.cfg   verbatim input copies

engagements.jsonl starts with a header object that carries ``run``,
``format_version``, ``columns`` (the fixed fields of a row: kind, pair index,
the two ids and the attacker's score), ``kinds`` (the engagement kinds a row's
kind indexes), ``cost_keys`` and ``telemetry_keys`` (the sorted keys of the
run's first outcome's costs and telemetry), ``defender_score`` (the name of
the SCORE_RULES rule that gives every defender score of the run from its
attacker score) and ``codon_bytes`` (2, 4 or 8, the fewest that hold every
codon below the run's ``codon_max``; the log states it so that its genotypes
decode without the manifest, and loading checks it against the config echo).
Then come the two initial populations (generation 0, attacker first) and, for
each half-step of generations 1 to the config's, attacker before defender, its
population line followed by its engagement rows. A population line is a
JSON array whose first value is a string: ``[phase, generation, replaced,
*genotypes]``, replaced the slot the incumbent took in the elitism swap, or
null (always before generation 2, which no incumbent precedes), and each
genotype one base64 string of its codons as little-endian unsigned integers
of ``codon_bytes`` bytes. It holds the population the half-step bred, before
the swap. It holds no sentences: an individual's
sentence is its genotype mapped under the run directory's grammar copy
(``StoredRun.input_path``) and the config echo's mapping settings, and a
half-step line's ``invalid_count`` says how many of its cohort failed to map
(generation 0 has no half-step line, so its failures show only by mapping).
An engagement row is a JSON array of values only whose first value is an int:
the kind's index in ``kinds``, the pair index and the two ids, then its
outcome. The first row with given outcome values writes them: the attacker's
score, the costs in ``cost_keys`` order, then the telemetry in
``telemetry_keys`` order, so the row has the header's full width. A later row
with the same values writes only n, the 0-based order in which those values
first appeared in the run, so the row has 5 values; an outcome of the
attacker's score alone is written in every row, as n would be as wide. Its
ids index the populations as ``coevarena.engine.loop.Engagement`` describes,
and it takes its generation and phase from the population line before it,
which is of generation 1 or later: generation 0 plays no engagements.
Every outcome of a run has the header's keys, and its defender score is the
header's rule of its attacker score, bit for bit; add_run refuses a run with
one that does not, and a run holding a NaN or infinite value, which its reader
would refuse.

Runs only ever append. add_run writes a run into ``<root>/<dir>.partial/``,
renames it to ``<dir>`` and only then appends its index line, so a failed
write leaves neither a run directory nor an index line. The engagement log
and halfsteps files are free of timestamps, so identical config and seed
reproduce them byte for byte; the manifest carries the only timestamp.

A run stored in format 1, 2, 3, 4 or 5 does not load: its manifest, or its log's
header, names another format_version.

Loading a run checks each record (index line, manifest, half-step line) once,
against the one description of its keys here; CorruptRecord names what fails.
One line reader, which names each line, reads index.jsonl, halfsteps.jsonl
and engagements.jsonl. halfsteps.jsonl starts with its run's header, then
holds one half-step per line: generations 1 to the config echo's, in order,
each attacker before defender.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import shutil
import struct
import sys
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterator

from .engagement import EngagementOutcome
from .engine.config import ATTACKER, DEFENDER, EvolutionConfig, opposite
from .engine.loop import CANDIDATE, INCUMBENT, Engagement, HalfStepStats, RunRecord
from .engine.pairing import pair_count

FORMAT_VERSION = 6

# The fixed fields of an engagement row: the Engagement's but its outcome, then
# the attacker's score. Its costs and telemetry follow, keyed by the header.
ENGAGEMENT_COLUMNS = (*(name for name in Engagement._fields if name != "outcome"), "attacker_score")
# Where a row's outcome starts: its values, or n, the order in which they first appeared.
_OUTCOME_AT = len(Engagement._fields) - 1

# The engagement kinds, in the order a row's kind indexes them.
ENGAGEMENT_KINDS = (CANDIDATE, INCUMBENT)

# Each rule that gives a defender score from its attacker score, by the name a
# log's header gives it: contagion's (and any zero-sum environment's) and ddos's.
SCORE_RULES = {"negated": lambda score: -score, "one_minus": lambda score: 1.0 - score}

# The struct code of a little-endian unsigned codon of each stored width in bytes.
_CODON_FORMATS = {2: "H", 4: "I", 8: "Q"}


# The manifest entry of each input file, and the name of its verbatim copy.
STORED_INPUTS = {
    "attack_grammar": "attack.bnf",
    "defense_grammar": "defense.bnf",
    "scenario": "scenario.cfg",
}

# The JSON values each type in a record description admits, 'halfstep' only that
# string; a bool is no number, and a float is finite: no NaN, no infinity and no
# int beyond a float's range (an int compares with a float without overflow).
_FLOAT_MAX = sys.float_info.max
_JSON_CHECKS = {
    "int": lambda v: type(v) is int,
    "str": lambda v: type(v) is str,
    "float": lambda v: type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX,
    "float | None": lambda v: v is None or _JSON_CHECKS["float"](v),
    "Genotype": lambda v: type(v) is list and v != [] and all(type(c) is int and c >= 0 for c in v),
    "tuple[str, ...] | None": lambda v: v is None or type(v) is list and all(type(w) is str for w in v),
    "'halfstep'": lambda v: v == "halfstep",
    "'negated' | 'one_minus'": lambda v: type(v) is str and v in SCORE_RULES,
    "list[str]": lambda v: type(v) is list and all(type(w) is str for w in v),
}

# One description per stored record: each key its reader reads, with the JSON
# type it holds or the description of the object it holds. A half-step line of
# halfsteps.jsonl is marked "halfstep" and holds every HalfStepStats field.
_INDEX_ENTRY = {"dir": "str", "run_id": "str"}
_MANIFEST = {
    "run_id": "str",
    "environment": "str",
    "algorithm_label": "str",
    "seed": "int",
    "config": {},  # EvolutionConfig.from_dict checks its keys
    **{key: {"sha256": "str"} for key in STORED_INPUTS},
}
_HALFSTEP = {"record": "'halfstep'", **{f.name: f.type for f in fields(HalfStepStats)}}
_ENGAGEMENTS_HEADER = {
    "cost_keys": "list[str]",
    "telemetry_keys": "list[str]",
    "defender_score": "'negated' | 'one_minus'",
}


class CorruptRecord(Exception):
    """A stored run is unreadable or fails its integrity checks."""


class EmptyStore(Exception):
    """The store holds no runs."""


class UnknownRun(Exception):
    """No stored run matches the given reference."""


def _read_text(path: Path) -> str:
    """path's text; CorruptRecord naming it if it cannot be read or is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorruptRecord(f"{path} is unreadable: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptRecord(f"{path} is not UTF-8 text: {exc}") from exc


def _lines(path: Path) -> Iterator[tuple[str, object]]:
    """(where, value) of each non-blank line of the JSON-lines file at path,
    where naming the file and line; CorruptRecord naming a line that does not parse."""
    for number, line in enumerate(_read_text(path).splitlines(), 1):
        if line.strip():
            where = f"{path} line {number}"
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorruptRecord(f"{where} does not parse: {exc.msg} (column {exc.colno})") from exc
            yield where, value


def _log_header(run_id: str) -> dict:
    """The header both logs start with; engagements.jsonl's adds its row layout and codon width."""
    return {"record": "header", "format_version": FORMAT_VERSION, "run": run_id}


def _engagements_header(run_id: str, width: int) -> dict:
    """engagements.jsonl's header but its outcome keys: what the run and this format fix."""
    return {
        **_log_header(run_id),
        "columns": list(ENGAGEMENT_COLUMNS),
        "kinds": list(ENGAGEMENT_KINDS),
        "codon_bytes": width,
    }


def codon_bytes(codon_max: int) -> int:
    """The fewest bytes, of 2, 4 or 8, that hold every codon below codon_max (at most 2**63)."""
    return next(width for width in _CODON_FORMATS if codon_max <= 256**width)


def encode_genotype(codons, width: int) -> str:
    """codons as one base64 string of little-endian unsigned integers of width bytes."""
    packed = struct.pack(f"<{len(codons)}{_CODON_FORMATS[width]}", *codons)
    return base64.b64encode(packed).decode("ascii")


def _derives(rule, outcome: EngagementOutcome) -> bool:
    """Whether rule gives outcome's defender score from its attacker score, bit for bit."""
    return float(rule(outcome.attacker_score)).hex() == float(outcome.defender_score).hex()


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# Refuses NaN and infinity, which the reader refuses too.
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def _check(value, description: dict, where: str):
    """value, if it is an object holding each key of description as a value of
    the key's type, or as an object checked against the key's own description;
    else CorruptRecord naming where and the key. {} admits any object."""
    if type(value) is not dict:
        raise CorruptRecord(f"{where} is not an object")
    for key, kind in description.items():
        if key not in value:
            raise CorruptRecord(f"{where} lacks key {key!r}")
        if type(kind) is dict:
            _check(value[key], kind, f"{where} key {key!r}")
        elif not _JSON_CHECKS[kind](value[key]):
            raise CorruptRecord(f"{where} key {key!r} is not {kind}: {value[key]!r}")
    return value


@dataclass
class StoredRun:
    """A loaded run: its manifest and half-step lines, checked, and its config echo, loaded."""

    run_dir: Path
    manifest: dict
    config: EvolutionConfig
    half_steps: list[dict]

    def input_path(self, key: str) -> Path:
        """The run directory's copy of the input file the manifest records under key.

        Raises CorruptRecord unless the copy's sha256 is the one the manifest
        records, so every read of a stored input is a verified one.
        """
        path = self.run_dir / STORED_INPUTS[key]
        actual, expected = sha256_file(path), self.manifest[key]["sha256"]
        if actual != expected:
            raise CorruptRecord(f"{path}: sha256 {actual} does not match recorded {expected}")
        return path

    def engagement_records(self) -> Iterator[dict]:
        """Each engagement row as a dict of its columns, defender score, costs,
        telemetry, generation and phase, its kind named, its outcome's values read
        from the row that first wrote them and its defender score the header's rule
        of its attacker score. Raises CorruptRecord naming the line unless the
        header is this run's, in this format, with the config echo's codon width,
        and holds what _ENGAGEMENTS_HEADER describes; each population line holds a
        role, an int generation, a replaced slot that is null or an id (null
        before generation 2, which no incumbent precedes), and a string genotype
        for each member of the role's population, and the lines
        are generation 0's and then those of generations 1 to the config echo's,
        in order, each attacker before defender (a log that ends before the last
        is one CorruptRecord naming the file), each genotype the base64 of the
        echo's ``min_length`` to ``max_length`` codons of the header's width, each
        below its ``codon_max``; and each row comes after a population line of
        generation 1 or later and holds a kind index into ENGAGEMENT_KINDS, a
        pair index and two ids that are non-negative ints, each id below its
        role's population size in the config echo, the pair index below the
        echo's ``pair_count`` and, in an incumbent row, of generation 2 or
        later, equal to the opponent's id, and either the header's full width of
        values, each outcome value a finite JSON number, or 5, the last the index
        of outcome values already written."""
        path = self.run_dir / "engagements.jsonl"
        lines = _lines(path)
        where, header = next(lines, (f"{path} line 1", None))
        min_length, max_length, codon_max = astuple(self.config.limits)
        codon_width = codon_bytes(codon_max)
        codon_format = _CODON_FORMATS[codon_width]
        own = _engagements_header(self.manifest["run_id"], codon_width)
        if type(header) is not dict or {key: header.get(key) for key in own} != own:
            raise CorruptRecord(f"{where} is not this run's header {own!r}: {header!r}")
        _check(header, _ENGAGEMENTS_HEADER, where)
        cost_keys, telemetry_keys = header["cost_keys"], header["telemetry_keys"]
        defender_score = SCORE_RULES[header["defender_score"]]
        width = len(ENGAGEMENT_COLUMNS) + len(cost_keys) + len(telemetry_keys)
        telemetry_at = 2 + len(cost_keys)  # in an outcome's values, after both scores and the costs
        outcome_names = [*ENGAGEMENT_COLUMNS[_OUTCOME_AT:], *cost_keys, *telemetry_keys]
        # each distinct outcome's scores, costs and telemetry, in order of first appearance
        outcomes: list[list] = []
        # a row's pair index numbers a half-step's jobs; each id indexes its role's population
        sizes = {ATTACKER: self.config.attacker_population, DEFENDER: self.config.defender_population}
        pairs = pair_count(self.config.structure, *sizes.values())
        bounds = ((pairs, "pair count"), *((size, "population size") for size in sizes.values()))
        generations = self.config.generations
        order = ((g, role) for g in range(generations + 1) for role in (ATTACKER, DEFENDER))
        half_step = None
        for where, row in lines:
            if type(row) is list and row and type(row[0]) is str:
                phase, *rest = row
                if phase not in sizes:
                    raise CorruptRecord(f"{where} phase {phase!r} is not a role")
                size = sizes[phase]
                if len(rest) != 2 + size:
                    raise CorruptRecord(
                        f"{where} is not a population line of phase, generation, replaced "
                        f"and {size} genotypes"
                    )
                generation, replaced, *genotypes = rest
                if type(generation) is not int:
                    raise CorruptRecord(f"{where} generation {generation!r} is not an int")
                if replaced is not None and (type(replaced) is not int or not 0 <= replaced < size):
                    raise CorruptRecord(f"{where} replaced {replaced!r} is not null or an id below {size}")
                for genotype in genotypes:
                    if type(genotype) is not str:
                        raise CorruptRecord(f"{where} genotype {genotype!r} is not a string")
                expected = next(order, None)
                if expected is None:
                    raise CorruptRecord(
                        f"{where} is a population line past the config echo's {generations} generations"
                    )
                if (generation, phase) != expected:
                    raise CorruptRecord(
                        f"{where} is the population line of generation {generation} {phase}, "
                        f"not of generation {expected[0]} {expected[1]}"
                    )
                if replaced is not None and generation < 2:
                    message = f"replaced {replaced} is set, but generation {generation} has no incumbent"
                    raise CorruptRecord(f"{where} {message}")
                for genotype in genotypes:
                    try:
                        packed = base64.b64decode(genotype, validate=True)
                    except ValueError:  # binascii.Error, or a character outside ASCII
                        packed = b""
                    count, extra = divmod(len(packed), codon_width)
                    if not count or extra or max(struct.unpack(f"<{count}{codon_format}", packed)) >= codon_max:
                        raise CorruptRecord(
                            f"{where} genotype {genotype!r} is not base64 of one or more "
                            f"{codon_width}-byte codons below {codon_max}"
                        )
                    if not min_length <= count <= max_length:
                        message = f"is not of {min_length} to {max_length} codons: it holds {count}"
                        raise CorruptRecord(f"{where} genotype {genotype!r} {message}")
                half_step = {"generation": generation, "phase": phase}
                opponent = ENGAGEMENT_COLUMNS.index(f"{opposite(phase)}_id")
                continue
            if type(row) is not list or len(row) not in (width, _OUTCOME_AT + 1):
                raise CorruptRecord(
                    f"{where} is not a row of the header's {width} values or of "
                    f"{_OUTCOME_AT + 1} that refers to an outcome: {row!r}"
                )
            kind = row[0]
            if type(kind) is not int or not 0 <= kind < len(ENGAGEMENT_KINDS):
                raise CorruptRecord(f"{where} kind {kind!r} is not an index into the header's kinds")
            for name, value, (bound, what) in zip(ENGAGEMENT_COLUMNS[1:], row[1:_OUTCOME_AT], bounds):
                if type(value) is not int or value < 0:
                    raise CorruptRecord(f"{where} {name} {value!r} is not a non-negative int")
                if value >= bound:
                    raise CorruptRecord(f"{where} {name} {value} is not below the {what} {bound}")
            if half_step is None:
                raise CorruptRecord(f"{where} is a row before any population line")
            if half_step["generation"] == 0:
                raise CorruptRecord(f"{where} is a row of generation 0, which plays no engagements")
            if ENGAGEMENT_KINDS[kind] == INCUMBENT and half_step["generation"] == 1:
                raise CorruptRecord(f"{where} is an incumbent row of generation 1, which has no incumbent")
            if ENGAGEMENT_KINDS[kind] == INCUMBENT and row[1] != row[opponent]:
                opponent_id = f"{ENGAGEMENT_COLUMNS[opponent]} {row[opponent]}"
                raise CorruptRecord(f"{where} incumbent pair_index {row[1]} is not its {opponent_id}")
            if len(row) == width:
                for name, value in zip(outcome_names, row[_OUTCOME_AT:]):
                    if not _JSON_CHECKS["float"](value):
                        raise CorruptRecord(f"{where} {name} {value!r} is not a JSON number")
                attacker_score = row[_OUTCOME_AT]
                outcomes.append([attacker_score, defender_score(attacker_score), *row[_OUTCOME_AT + 1 :]])
                values = outcomes[-1]
            else:
                n = row[_OUTCOME_AT]
                if type(n) is not int or not 0 <= n < len(outcomes):
                    raise CorruptRecord(
                        f"{where} refers to outcome {n!r}, but {len(outcomes)} are written before it"
                    )
                values = outcomes[n]
            yield {
                **half_step,
                **dict(zip(ENGAGEMENT_COLUMNS, [ENGAGEMENT_KINDS[kind], *row[1:_OUTCOME_AT]])),
                "attacker_score": values[0],
                "defender_score": values[1],
                "costs": dict(zip(cost_keys, values[2:telemetry_at])),
                "telemetry": dict(zip(telemetry_keys, values[telemetry_at:])),
            }
        missing = next(order, None)
        if missing is not None:
            generation, phase = missing
            raise CorruptRecord(f"{path} ends before the population line of generation {generation} {phase}")


class ResultsStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    def entries(self) -> list[dict]:
        if not self.index_path.exists():
            return []
        return [_check(entry, _INDEX_ENTRY, where) for where, entry in _lines(self.index_path)]

    def _unique_dir_name(self, run_id: str) -> str:
        """run_id, or else run_id__2, __3, ...: the first name taken by neither a
        run directory nor a partial one."""
        name = run_id
        counter = 2
        while (self.root / name).exists() or (self.root / f"{name}.partial").exists():
            name = f"{run_id}__{counter}"
            counter += 1
        return name

    def add_run(
        self,
        record: RunRecord,
        manifest: dict,
        attack_grammar_path: str | Path,
        defense_grammar_path: str | Path,
        scenario_path: str | Path,
    ) -> str:
        """Store one run, atomically (see the module docstring); return its directory name."""
        dir_name = self._unique_dir_name(record.run_id)
        entry = {"dir": dir_name, "run_id": record.run_id}
        self.root.mkdir(parents=True, exist_ok=True)
        partial = self.root / f"{dir_name}.partial"
        partial.mkdir()
        try:
            sources = (attack_grammar_path, defense_grammar_path, scenario_path)
            self._write_run(partial, record, manifest, sources)
            partial.rename(self.root / dir_name)
        except BaseException:
            shutil.rmtree(partial, ignore_errors=True)
            raise

        with self.index_path.open("a", encoding="utf-8") as handle:
            handle.write(_dump(entry) + "\n")
        return dir_name

    @staticmethod
    def _write_run(run_dir: Path, record: RunRecord, manifest: dict, sources) -> None:
        """Write the run's input copies, manifest, engagement log and half-steps into run_dir."""
        for source, copy_name in zip(sources, STORED_INPUTS.values()):
            shutil.copyfile(source, run_dir / copy_name)

        (run_dir / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

        outcomes = (e.outcome for cohort in record.cohorts for e in cohort.engagements)
        # A run with no engagement takes the first rule.
        first = next(outcomes, EngagementOutcome(0.0, -0.0))
        cost_keys, telemetry_keys = sorted(first.costs), sorted(first.telemetry)
        rule = next((name for name, derive in SCORE_RULES.items() if _derives(derive, first)), None)
        derive = SCORE_RULES.get(rule)
        # An outcome of one value is written in every row: n would be as wide.
        refers = bool(cost_keys or telemetry_keys)
        width = codon_bytes(record.config.limits.codon_max)
        header = {
            **_engagements_header(record.run_id, width),
            "cost_keys": cost_keys,
            "telemetry_keys": telemetry_keys,
            "defender_score": rule,
        }
        kind_index = {kind: i for i, kind in enumerate(ENGAGEMENT_KINDS)}
        with (run_dir / "engagements.jsonl").open("w", encoding="utf-8") as handle:
            handle.write(_dump(header) + "\n")
            encoded: dict[int, str] = {}  # id(outcome) -> its values, encoded
            written: dict[str, int] = {}  # encoded values -> the order they first appeared in
            for cohort in record.cohorts:
                genotypes = (encode_genotype(m.codons, width) for m in cohort.members)
                handle.write(_dump([cohort.phase, cohort.generation, cohort.replaced, *genotypes]) + "\n")
                for kind, k, a, d, outcome in cohort.engagements:
                    # An environment may return one outcome for many engagements,
                    # so each is checked and encoded once.
                    if id(outcome) not in encoded:
                        costs, telemetry = outcome.costs, outcome.telemetry
                        keyed = sorted(costs) == cost_keys and sorted(telemetry) == telemetry_keys
                        if not keyed or derive is None or not _derives(derive, outcome):
                            engagement = (
                                f"generation {cohort.generation} {cohort.phase} {kind} engagement {k} "
                                f"(attacker {a}, defender {d})"
                            )
                            if not keyed:
                                raise ValueError(
                                    f"{engagement} has cost keys {sorted(costs)} and telemetry keys "
                                    f"{sorted(telemetry)}, not the run's {cost_keys} and {telemetry_keys}"
                                )
                            rules = " or ".join(map(repr, [rule] if rule else SCORE_RULES))
                            raise ValueError(
                                f"{engagement} has defender score {outcome.defender_score!r}, which is "
                                f"not {rules} of its attacker score {outcome.attacker_score!r}, bit for "
                                "bit: every outcome of a run follows the rule its first outcome follows"
                            )
                        values = (
                            outcome.attacker_score,
                            *(costs[key] for key in cost_keys),
                            *(telemetry[key] for key in telemetry_keys),
                        )
                        encoded[id(outcome)] = _dump(values)[1:-1]
                    values = encoded[id(outcome)]
                    n = written.get(values)
                    if n is None:
                        written[values] = len(written)
                    if n is None or not refers:
                        handle.write(f"[{kind_index[kind]},{k},{a},{d},{values}]\n")
                    else:
                        handle.write(f"[{kind_index[kind]},{k},{a},{d},{n}]\n")

        with (run_dir / "halfsteps.jsonl").open("w", encoding="utf-8") as handle:
            handle.write(_dump(_log_header(record.run_id)) + "\n")
            for step in record.half_steps:
                # vars gives asdict's keys without deep-copying every codon.
                fields = {**vars(step), "best_genotype": step.best_genotype.codons}
                handle.write(_dump({"record": "halfstep", **fields}) + "\n")

    def load(self, run_ref: str) -> StoredRun:
        entries = self.entries()
        match = next((e for e in entries if e["dir"] == run_ref), None)
        if match is None:
            match = next((e for e in entries if e["run_id"] == run_ref), None)
        if match is None:
            raise UnknownRun(f"no run {run_ref!r} in store {self.root}")
        return self._load_dir(match["dir"])

    def load_all(self) -> list[StoredRun]:
        entries = self.entries()
        if not entries:
            raise EmptyStore(f"store {self.root} holds no runs")
        return [self._load_dir(entry["dir"]) for entry in entries]

    def _load_dir(self, dir_name: str) -> StoredRun:
        """Read one run directory. Raises CorruptRecord naming the file, and the
        line or key, unless the manifest is in FORMAT_VERSION, holds what
        _MANIFEST describes and a config echo that loads, and halfsteps.jsonl,
        read by the one line reader _lines, starts with the manifest run's
        header and holds only half-steps after it, each as _HALFSTEP says, of
        generations 1 to the config echo's in order, attacker before defender,
        with a best_genotype, best_id and invalid_count within the echo's limits
        and, in generation 1, a null incumbent_fitness."""
        run_dir = self.root / dir_name
        manifest_path = run_dir / "manifest.json"
        halfsteps_path = run_dir / "halfsteps.jsonl"
        try:
            manifest = json.loads(_read_text(manifest_path))
        except json.JSONDecodeError as exc:
            raise CorruptRecord(f"run directory {run_dir} is unreadable: {exc}") from exc
        if type(manifest) is dict and manifest.get("format_version") != FORMAT_VERSION:
            raise CorruptRecord(
                f"{run_dir}: stored in format_version {manifest.get('format_version')!r}, but this "
                f"coevarena reads format_version {FORMAT_VERSION}; re-run its config to store it again"
            )
        _check(manifest, _MANIFEST, manifest_path)
        try:
            config = EvolutionConfig.from_dict(manifest["config"])
        except (KeyError, ValueError) as exc:
            message = f"{manifest_path} key 'config' does not load: {type(exc).__name__} {exc}"
            raise CorruptRecord(message) from exc
        lines = _lines(halfsteps_path)
        header = _log_header(manifest["run_id"])
        where, first = next(lines, (f"{halfsteps_path} line 1", None))
        if first != header:
            raise CorruptRecord(f"{where} is not this run's header {header!r}: {first!r}")
        steps = {where: _check(step, _HALFSTEP, where) for where, step in lines}
        # At most one more expected half-step than found: a huge echo builds no huge list.
        found = [(step["generation"], step["phase"]) for step in steps.values()]
        order = ((g, role) for g in range(1, config.generations + 1) for role in (ATTACKER, DEFENDER))
        if found != list(itertools.islice(order, len(found) + 1)):
            raise CorruptRecord(f"{halfsteps_path} is not generations 1 to {config.generations} in order")
        min_length, max_length, codon_max = astuple(config.limits)
        for where, step in steps.items():
            codons, size = step["best_genotype"], config.population_size(step["phase"])
            if not min_length <= len(codons) <= max_length or max(codons) >= codon_max:
                limits = f"of {min_length} to {max_length} codons below {codon_max}"
                raise CorruptRecord(f"{where} key 'best_genotype' is not {limits}")
            for key, top in (("best_id", size - 1), ("invalid_count", size)):
                if not 0 <= step[key] <= top:
                    raise CorruptRecord(f"{where} key {key!r} {step[key]} is not from 0 to {top}")
            if step["generation"] == 1 and step["incumbent_fitness"] is not None:
                message = f"{step['incumbent_fitness']!r} is set, but generation 1 has no incumbent"
                raise CorruptRecord(f"{where} key 'incumbent_fitness' {message}")
        return StoredRun(run_dir, manifest, config, list(steps.values()))
