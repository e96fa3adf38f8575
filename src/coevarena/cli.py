"""Experiment runner: load configs, execute runs, manage the results store,
and drive the decision-support stage.

Subcommands: run, establo, inspect, validate-grammar. The store root comes
from --store, else the COEVARENA_STORE environment variable, else the config
file's [experiment] store entry.
"""

import argparse
import configparser
import hashlib
import json
import os
import sys
from collections import Counter
from configparser import ConfigParser
from dataclasses import MISSING, InitVar, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

from . import establo as establo_mod
from .engagement import InterpretError, ScenarioError
from .engine.config import EvolutionConfig, cast_entries
from .engine.loop import run_alternating
from .engine.pairing import StructureMismatch
from .envs import ENVIRONMENTS, load_environment
from .grammar import GenotypeLimits, GrammarError, MappingConfig, load_grammar
from .store import (
    ENGAGEMENT_KINDS,
    FORMAT_VERSION,
    STORED_INPUTS,
    CorruptRecord,
    EmptyStore,
    ResultsStore,
    UnknownRun,
    sha256_file,
)

STORE_ENV_VAR = "COEVARENA_STORE"


class ConfigError(Exception):
    """An experiment config is unusable; the message names the bad field."""


@dataclass
class ExperimentConfig:
    """The [experiment] section, with the run's evolution settings.

    Relative paths resolve against base_dir, the config file's directory, and
    evolution takes seed as its master_seed.
    """

    environment: str
    attack_grammar: Path
    defense_grammar: Path
    scenario: Path
    evolution: EvolutionConfig
    store: Path | None = None
    repetitions: int = 1
    seed: int = 0
    algorithm_label: str = "alternating"
    base_dir: InitVar[Path] = Path()

    def __post_init__(self, base_dir: Path):
        if self.environment not in ENVIRONMENTS:
            raise ValueError(f"unknown environment {self.environment!r}, known: {sorted(ENVIRONMENTS)}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Path) and not value.is_absolute():
                setattr(self, f.name, (base_dir / value).resolve())
        for key, path in self.inputs().items():
            if not path.is_file():
                raise ValueError(f"{key} is not a file: {path}")
        self.evolution = self.evolution.with_seed(self.seed)

    def inputs(self) -> dict[str, Path]:
        """Each input file under its STORED_INPUTS key."""
        return {key: getattr(self, key) for key in STORED_INPUTS}


def _section(parser: ConfigParser, section: str, schema: type, **fixed):
    """Build schema from the entries the file sets in section, cast, and the fixed fields.

    Fields set by neither keep their dataclass defaults; the file may not set a
    fixed field. An entry that names no other field, a value that does not
    cast, a missing required field and a value that fails schema's own checks
    are reported under section.
    """
    entries = parser[section] if parser.has_section(section) else {}
    try:
        for name in entries:
            if name in fixed:
                raise ValueError(f"{name}: unknown option")
        values = {**cast_entries(schema, entries), **fixed}
    except ValueError as exc:
        raise ConfigError(f"config [{section}] {exc}") from exc
    for f in fields(schema):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config [{section}] {f.name}: missing required entry")
    try:
        return schema(**values)
    except ValueError as exc:
        raise ConfigError(f"config [{section}]: {exc}") from exc


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    parser = ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file not found: {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's own messages span lines; the first one names the fault
        raise ConfigError(f"config file {path} does not parse: {str(exc).splitlines()[0]}") from exc
    evolution = _section(
        parser,
        "evolution",
        EvolutionConfig,
        master_seed=0,  # set from [experiment] seed
        limits=_section(parser, "genotype", GenotypeLimits),
        mapping=_section(parser, "mapping", MappingConfig),
    )
    return _section(
        parser, "experiment", ExperimentConfig, base_dir=path.parent, evolution=evolution
    )


# The champion archive's two options, at the values every shipped config set,
# before the archive was removed. They never changed a search, so the run id
# still hashes them: the same search keeps its id, and so do the establo
# entries keyed by it.
_RETIRED_ID_FIELDS = {"archive_capacity": 16, "archive_admission": "best-of-generation"}


def make_run_id(cfg: ExperimentConfig, seed: int) -> str:
    config_echo = {**cfg.evolution.to_dict(), **_RETIRED_ID_FIELDS}
    config_echo.pop("master_seed")
    payload = json.dumps(
        {
            "environment": cfg.environment,
            "algorithm_label": cfg.algorithm_label,
            "config": config_echo,
            **{key: sha256_file(path) for key, path in cfg.inputs().items()},
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:10]
    return f"{digest}-s{seed}"


def _resolve_store(args, cfg: ExperimentConfig | None = None) -> Path:
    if getattr(args, "store", None):
        return Path(args.store)
    env_value = os.environ.get(STORE_ENV_VAR)
    if env_value:
        return Path(env_value)
    if cfg is not None and cfg.store is not None:
        return cfg.store
    raise ConfigError(
        f"no store given: pass --store, set {STORE_ENV_VAR}, or add store to [experiment]"
    )


def cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    store = ResultsStore(_resolve_store(args, cfg))
    base_seed = args.seed if args.seed is not None else cfg.seed
    if base_seed < 0:
        raise ConfigError("--seed must be >= 0")
    attack_grammar = load_grammar(cfg.attack_grammar)
    defense_grammar = load_grammar(cfg.defense_grammar)
    for repetition in range(cfg.repetitions):
        seed = base_seed + repetition
        environment = load_environment(cfg.environment, cfg.scenario)
        record = run_alternating(
            cfg.evolution.with_seed(seed),
            attack_grammar,
            defense_grammar,
            environment,
            run_id=make_run_id(cfg, seed),
        )
        manifest = {
            "format_version": FORMAT_VERSION,
            "run_id": record.run_id,
            "seed": seed,
            "environment": cfg.environment,
            "algorithm_label": cfg.algorithm_label,
            "config": record.config.to_dict(),
            **{key: {"path": str(p), "sha256": sha256_file(p)} for key, p in cfg.inputs().items()},
            "created_at": datetime.now(timezone.utc).isoformat(),
        }
        dir_name = store.add_run(record, manifest, *cfg.inputs().values())
        if not args.quiet:
            print(f"{dir_name}")
            for champion in (record.best_attacker, record.best_defender):
                sentence = " ".join(champion.sentence) if champion.sentence else "<invalid>"
                print(f"  {champion.role} best [{champion.fitness:.6g}] {sentence!r}")
    return 0


def cmd_establo(args) -> int:
    if args.stride < 1:
        raise ConfigError("--stride must be >= 1")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    store = ResultsStore(_resolve_store(args))
    runs = store.load_all()
    environments = {run.manifest["environment"] for run in runs}
    if len(environments) != 1:
        raise ConfigError(f"store mixes environments {sorted(environments)}; establo needs one")
    environment_id = environments.pop()

    compendium = establo_mod.build_compendium(runs, args.filter, args.stride)
    for role in ("attacker", "defender"):
        if not any(entry.role == role for entry in compendium):
            raise EmptyStore(f"compendium holds no {role} entry after filtering")
    entries_by_id = {entry.entry_id: entry for entry in compendium}

    if args.scenario:
        contexts = [(path.stem, path) for path in map(Path, args.scenario)]
    else:
        hashes = {run.manifest["scenario"]["sha256"] for run in runs}
        if len(hashes) != 1:
            raise ConfigError(
                "runs use different scenarios; pass --scenario to pick evaluation contexts"
            )
        contexts = [("same-run", runs[0].input_path("scenario"))]
    # Labels are file stems; payoff file names fold case, so two can collide.
    payoff_files: dict[str, Path] = {}
    for label, scenario_path in contexts:
        if not scenario_path.exists():
            raise ConfigError(f"--scenario: file not found: {scenario_path}")
        name = establo_mod.payoff_file_name(label)
        if name in payoff_files:
            raise ConfigError(f"--scenario: {payoff_files[name]} and {scenario_path} both write {name}")
        payoff_files[name] = scenario_path

    rankings = []
    matrices = []
    for label, scenario_path in contexts:
        environment = load_environment(environment_id, scenario_path)
        matrix = establo_mod.cross_tournament(compendium, environment, args.seed, label)
        matrices.append(matrix)
        rankings.extend(establo_mod.rank(matrix))
    written = establo_mod.emit_report(rankings, matrices, args.out, entries_by_id)
    if not args.quiet:
        print((Path(args.out) / "summary.txt").read_text(encoding="utf-8"), end="")
        print(f"wrote {len(written)} report files to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    store = ResultsStore(_resolve_store(args))
    run = store.load(args.run)
    kinds = Counter(record["kind"] for record in run.engagement_records())
    by_kind = ", ".join(f"{kinds[kind]} {kind}" for kind in ENGAGEMENT_KINDS)
    manifest = run.manifest
    completed = max((step["generation"] for step in run.half_steps), default=0)
    print(f"run         {manifest['run_id']}  (dir {run.run_dir.name})")
    print(f"environment {manifest['environment']}")
    print(f"seed        {manifest['seed']}")
    print(f"algorithm   {manifest['algorithm_label']}")
    print(f"generations {completed} of {run.config.generations} completed")
    print(f"engagements {kinds.total()} ({by_kind})")
    invalid = sum(step["invalid_count"] for step in run.half_steps)
    print(f"invalid     {invalid} bred individuals failed to map")
    for role in ("attacker", "defender"):
        steps = [s for s in run.half_steps if s["phase"] == role]
        if not steps:
            continue
        best = max(steps, key=lambda s: (s["best_fitness"], -s["generation"]))
        sentence = " ".join(best["best_sentence"]) if best["best_sentence"] else "<invalid>"
        print(f"best {role}: g{best['generation']} fitness {best['best_fitness']:.6g} {sentence!r}")
    print("trajectory (generation phase best_fitness mean variance):")
    for step in run.half_steps:
        print(
            f"  {step['generation']:4d} {step['phase']:8s} "
            f"{step['best_fitness']:.6g} {step['mean_fitness']:.6g} {step['fitness_variance']:.6g}"
        )
    return 0


def cmd_validate_grammar(args) -> int:
    grammar = load_grammar(args.grammar)
    alternatives = sum(len(alts) for alts in grammar.productions.values())
    print(
        f"OK: start <{grammar.start}>, {len(grammar.productions)} nonterminals, "
        f"{len(grammar.terminals)} terminals, {alternatives} alternatives"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coevarena",
        description="Coevolve grammar-defined attack and defense strategies in engagement simulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute configured runs and persist them")
    run_parser.add_argument("--config", required=True, help="experiment config file")
    run_parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    run_parser.add_argument("--store", default=None, help="results store root")
    run_parser.add_argument("--quiet", action="store_true")
    run_parser.set_defaults(func=cmd_run)

    establo_parser = sub.add_parser("establo", help="tournament and rank cached champions")
    establo_parser.add_argument("--store", default=None, help="results store root")
    establo_parser.add_argument("--filter", default="best-per-generation", choices=establo_mod.FILTERS)
    establo_parser.add_argument("--stride", type=int, default=5)
    establo_parser.add_argument(
        "--scenario", action="append", default=[], help="evaluation scenario (repeatable)"
    )
    establo_parser.add_argument("--seed", type=int, default=0, help="tournament seed")
    establo_parser.add_argument("--out", required=True, help="report output directory")
    establo_parser.add_argument("--quiet", action="store_true")
    establo_parser.set_defaults(func=cmd_establo)

    inspect_parser = sub.add_parser("inspect", help="summarize one stored run")
    inspect_parser.add_argument("run", help="run directory name or run id")
    inspect_parser.add_argument("--store", default=None, help="results store root")
    inspect_parser.set_defaults(func=cmd_inspect)

    validate_parser = sub.add_parser("validate-grammar", help="parse a grammar file and report")
    validate_parser.add_argument("grammar", help="path to a .bnf file")
    validate_parser.set_defaults(func=cmd_validate_grammar)
    return parser


_ERRORS = (
    ConfigError,
    GrammarError,
    ScenarioError,
    InterpretError,
    StructureMismatch,
    CorruptRecord,
    EmptyStore,
    UnknownRun,
    establo_mod.GrammarMismatch,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
