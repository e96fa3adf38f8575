import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import InitVar, dataclass, fields, replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import coevarena
import coevarena.store as store_module
from coevarena import CompetitionStructure, EvolutionConfig, SelectionScheme
from coevarena.cli import ConfigError, load_experiment_config, main
from coevarena.data import data_path
from coevarena.engagement import EngagementOutcome
from coevarena.engine.config import cast_entries
from coevarena.engine.loop import Cohort
from coevarena.grammar import GenotypeLimits, MappingConfig
from coevarena.store import (
    FORMAT_VERSION,
    CorruptRecord,
    ResultsStore,
    UnknownRun,
    codon_bytes,
    encode_genotype,
)

from conftest import SMALL_DDOS_SCENARIO, ScriptedEnvironment, write_experiment_config
from oracles import decode_genotype, v1_engagements


def run_cli(*argv):
    return main([str(a) for a in argv])


def point_inputs_at(config, **paths):
    """Rewrite the config's [experiment] file entries to the given paths."""
    text = config.read_text()
    for option, path in paths.items():
        text = re.sub(rf"^{option} = .*$", f"{option} = {path}", text, flags=re.M)
    config.write_text(text)


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    return err


def population_line(phase="attacker", generation=3, replaced=None, genotypes=("AAAA",) * 4) -> str:
    """A format 6 population line, by default one past the small ddos store's generations."""
    return json.dumps([phase, generation, replaced, *genotypes])


def replay_best_fitness(records, config):
    """Recompute each half-step's post-replacement best fitness from the
    engagement log alone (the inspect/trajectory oracle)."""
    assert config["aggregation"] == "mean"
    weight = config["secondary_weight"]
    sentinel = config["invalid_fitness"]
    sizes = {"attacker": config["attacker_population"], "defender": config["defender_population"]}
    grouped = defaultdict(list)
    for record in records:
        grouped[(record["generation"], record["phase"], record["kind"])].append(record)
    best = {}
    for generation, phase in sorted({(g, p) for g, p, _ in grouped}):
        per_individual = defaultdict(list)
        for record in grouped.get((generation, phase, "candidate"), []):
            own = record["attacker_id"] if phase == "attacker" else record["defender_id"]
            score = record[f"{phase}_score"] - weight * record["costs"].get(f"{phase}_cost", 0.0)
            per_individual[own].append(score)
        fitness = {
            i: statistics.fmean(per_individual[i]) if i in per_individual else sentinel
            for i in range(sizes[phase])
        }
        incumbent_records = grouped.get((generation, phase, "incumbent"), [])
        top = max(fitness.values())
        if incumbent_records:
            incumbent = statistics.fmean(
                r[f"{phase}_score"] - weight * r["costs"].get(f"{phase}_cost", 0.0)
                for r in incumbent_records
            )
            if incumbent > min(fitness.values()):
                top = max(top, incumbent)
        best[(generation, phase)] = top
    return best


class TestCmdRun:
    def test_repetitions_create_directories_and_index(self, tmp_path, ddos_scenario_file):
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file, repetitions=2)
        store_dir = tmp_path / "store"
        assert run_cli("run", "--config", config, "--store", store_dir, "--quiet") == 0
        store = ResultsStore(store_dir)
        entries = store.entries()
        assert len(entries) == 2
        assert {run.manifest["seed"] for run in store.load_all()} == {5, 6}
        for item in entries:
            assert (store_dir / item["dir"] / "engagements.jsonl").exists()
            assert (store_dir / item["dir"] / "manifest.json").exists()

    def test_same_config_same_seed_identical_logs(self, tmp_path, ddos_scenario_file):
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file)
        first, second = tmp_path / "s1", tmp_path / "s2"
        assert run_cli("run", "--config", config, "--store", first, "--quiet") == 0
        assert run_cli("run", "--config", config, "--store", second, "--quiet") == 0
        dir_one = ResultsStore(first).entries()[0]["dir"]
        dir_two = ResultsStore(second).entries()[0]["dir"]
        assert dir_one == dir_two
        log_one = (first / dir_one / "engagements.jsonl").read_bytes()
        log_two = (second / dir_two / "engagements.jsonl").read_bytes()
        assert log_one == log_two

    def test_rerun_into_same_store_appends_new_directory(self, tmp_path, ddos_scenario_file):
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file)
        store_dir = tmp_path / "store"
        run_cli("run", "--config", config, "--store", store_dir, "--quiet")
        run_cli("run", "--config", config, "--store", store_dir, "--quiet")
        entries = ResultsStore(store_dir).entries()
        assert len(entries) == 2
        assert entries[0]["run_id"] == entries[1]["run_id"]
        assert entries[0]["dir"] != entries[1]["dir"]

    def test_missing_grammar_is_config_error_naming_path(self, tmp_path, ddos_scenario_file, capsys):
        config_text = f"""\
[experiment]
environment = ddos
attack_grammar = /nowhere/else/missing.bnf
defense_grammar = {data_path("grammars", "ddos_defense.bnf")}
scenario = {ddos_scenario_file}
"""
        config = tmp_path / "bad.cfg"
        config.write_text(config_text)
        assert run_cli("run", "--config", config, "--store", tmp_path / "s") == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err
        assert "/nowhere/else/missing.bnf" in err
        assert "attack_grammar" in err

    def test_seed_override_changes_run_id(self, tmp_path, ddos_scenario_file):
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file)
        store_dir = tmp_path / "store"
        run_cli("run", "--config", config, "--store", store_dir, "--quiet")
        run_cli("run", "--config", config, "--store", store_dir, "--seed", 99, "--quiet")
        entries = ResultsStore(store_dir).entries()
        assert entries[0]["run_id"] != entries[1]["run_id"]
        assert entries[1]["run_id"].endswith("-s99")

    def test_store_env_var_is_fallback(self, tmp_path, ddos_scenario_file, monkeypatch):
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file)
        env_store = tmp_path / "env-store"
        monkeypatch.setenv("COEVARENA_STORE", str(env_store))
        assert run_cli("run", "--config", config, "--quiet") == 0
        assert len(ResultsStore(env_store).entries()) == 1

    def test_no_store_anywhere_fails(self, tmp_path, ddos_scenario_file, monkeypatch, capsys):
        monkeypatch.delenv("COEVARENA_STORE", raising=False)
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file)
        assert run_cli("run", "--config", config) == 1
        assert "store" in capsys.readouterr().err


class TestAtomicAddRun:
    @pytest.fixture
    def stored_once(self, tmp_path, ddos_scenario_file):
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file)
        store_dir = tmp_path / "store"
        assert run_cli("run", "--config", config, "--store", store_dir, "--quiet") == 0
        return config, store_dir

    @pytest.mark.parametrize("target, fail_at", [("copyfile", 2), ("dump", 5)])
    def test_failed_write_leaves_no_run_behind(self, stored_once, monkeypatch, capsys, target, fail_at):
        config, store_dir = stored_once
        store = ResultsStore(store_dir)
        before = sorted(p.name for p in store_dir.iterdir())
        index_before = store.index_path.read_bytes()
        owner, name = (store_module.shutil, "copyfile") if target == "copyfile" else (store_module, "_dump")
        original, calls = getattr(owner, name), []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == fail_at:
                raise OSError("disk full")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, failing)
        assert run_cli("run", "--config", config, "--store", store_dir, "--quiet") == 1
        assert "disk full" in assert_one_error_line(capsys)
        monkeypatch.undo()

        assert sorted(p.name for p in store_dir.iterdir()) == before
        assert store.index_path.read_bytes() == index_before
        assert [run.run_dir.name for run in store.load_all()] == [store.entries()[0]["dir"]]
        assert run_cli("run", "--config", config, "--store", store_dir, "--quiet") == 0
        assert len(store.load_all()) == 2

    def test_index_line_holds_only_dir_and_run_id(self, stored_once):
        config, store_dir = stored_once
        store = ResultsStore(store_dir)
        (run,) = store.load_all()
        (line,) = store.index_path.read_text(encoding="utf-8").splitlines()
        assert json.loads(line) == {"dir": run.run_dir.name, "run_id": run.manifest["run_id"]}

    def test_leftover_partial_directory_is_not_reused(self, stored_once):
        config, store_dir = stored_once
        run_id = ResultsStore(store_dir).entries()[0]["run_id"]
        (store_dir / f"{run_id}__2.partial").mkdir()
        assert run_cli("run", "--config", config, "--store", store_dir, "--quiet") == 0
        assert ResultsStore(store_dir).entries()[1]["dir"] == f"{run_id}__3"


def bare_config(tmp_path, scenario, evolution="", genotype="", mapping="", experiment=""):
    """A ddos config with seed 4 that sets nothing else but the given section lines.

    An [experiment] line replaces the entry of the option it sets.
    """
    options = {
        "environment": "ddos",
        "attack_grammar": data_path("grammars", "ddos_attack.bnf"),
        "defense_grammar": data_path("grammars", "ddos_defense.bnf"),
        "scenario": scenario,
        "seed": 4,
    }
    for line in experiment.splitlines():
        option, _, value = line.partition("=")
        options[option.strip()] = value.strip()
    lines = "".join(f"{option} = {value}\n" for option, value in options.items())
    path = tmp_path / "bare.cfg"
    path.write_text(
        f"[experiment]\n{lines}\n[evolution]\n{evolution}\n[genotype]\n{genotype}\n"
        f"[mapping]\n{mapping}\n",
        encoding="utf-8",
    )
    return path


BAD_EXPERIMENT_LINES = [
    "repetitions = 0",
    "seed = -1",
    "seed = x",
    "environment = nope",
    "colour = red",
    "attack_grammar =",
]


class TestRunUnderProfiler:
    def test_cprofile_module_run_exits_zero(self, tmp_path):
        # cProfile runs the module through runpy in a fresh namespace, so the
        # config schemas' module is not sys.modules["__main__"]
        src = str(Path(coevarena.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        command = [
            sys.executable, "-m", "cProfile", "-o", str(tmp_path / "run.prof"),
            "-m", "coevarena.cli", "run",
            "--config", str(data_path("configs", "ddos_smoke.cfg")),
            "--store", str(tmp_path / "store"),
        ]
        result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip()


class TestLoadExperimentConfig:
    def test_empty_sections_take_the_dataclass_defaults(self, tmp_path, ddos_scenario_file):
        path = bare_config(tmp_path, ddos_scenario_file)
        assert load_experiment_config(path).evolution == EvolutionConfig(master_seed=4)

    def test_bad_value_names_section_and_option(self, tmp_path, ddos_scenario_file):
        for section, option in (("evolution", "generations"), ("experiment", "seed")):
            path = bare_config(tmp_path, ddos_scenario_file, **{section: f"{option} = x\n"})
            with pytest.raises(ConfigError, match=rf"^config \[{section}\] {option}: bad value 'x'"):
                load_experiment_config(path)

    @pytest.mark.parametrize(
        "section, line, message",
        [
            ("genotype", "min_length = 0", "need 1 <= min_length <= max_length"),
            ("genotype", "codon_max = 36893488147419103232", r"need 1 <= codon_max <= 2\*\*63"),
            ("mapping", "max_wraps = -1", "max_wraps must be >= 0"),
            ("evolution", "generations = 0", "generations must be >= 1"),
            ("evolution", "secondary_weight = nan", "secondary_weight must be finite"),
            ("evolution", "secondary_weight = inf", "secondary_weight must be finite"),
            ("evolution", "invalid_fitness = nan", "invalid_fitness must be finite"),
            ("evolution", "invalid_fitness = inf", "invalid_fitness must be finite"),
            ("evolution", "invalid_fitness = -inf", "invalid_fitness must be finite"),
            ("experiment", "repetitions = 0", "repetitions must be >= 1"),
            ("experiment", "seed = -1", "seed must be >= 0"),
            ("experiment", "environment = nope", "unknown environment 'nope'"),
        ],
    )
    def test_failed_check_names_its_own_section(self, tmp_path, ddos_scenario_file, section, line, message):
        path = bare_config(tmp_path, ddos_scenario_file, **{section: line + "\n"})
        with pytest.raises(ConfigError, match=rf"^config \[{section}\]: {message}"):
            load_experiment_config(path)

    @pytest.mark.parametrize(
        "section, line",
        [
            ("experiment", "sead = 3"),
            ("evolution", "mutaton_rate = 0.9"),
            ("evolution", "archive_capacity = 16"),
            ("genotype", "max_lenght = 9"),
            ("mapping", "max_wrap = 1"),
            ("experiment", "colour = red"),
            ("evolution", "master_seed = 99"),
        ],
    )
    def test_unknown_option_names_section_and_option(self, tmp_path, ddos_scenario_file, section, line):
        path = bare_config(tmp_path, ddos_scenario_file, **{section: line + "\n"})
        option = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"^config \[{section}\] {option}: unknown option$"):
            load_experiment_config(path)

    def test_experiment_seed_overrides_evolution_master_seed(self, tmp_path, ddos_scenario_file):
        path = bare_config(tmp_path, ddos_scenario_file, experiment="seed = 9\n")
        assert load_experiment_config(path).evolution.master_seed == 9
        path = bare_config(tmp_path, ddos_scenario_file, "master_seed = 99\n", experiment="seed = 9\n")
        with pytest.raises(ConfigError, match=r"^config \[evolution\] master_seed: unknown option$"):
            load_experiment_config(path)

    @pytest.mark.parametrize("option", ["environment", "attack_grammar", "defense_grammar", "scenario"])
    def test_missing_required_entry_names_it(self, tmp_path, ddos_scenario_file, option):
        path = bare_config(tmp_path, ddos_scenario_file)
        path.write_text(re.sub(rf"^{option} = .*\n", "", path.read_text(), flags=re.M))
        with pytest.raises(ConfigError, match=rf"^config \[experiment\] {option}: missing required entry$"):
            load_experiment_config(path)

    def test_initvar_annotation_is_not_resolved(self):
        # typing.get_type_hints resolves every annotation of a schema. Python
        # 3.10 rejects an InitVar[Path] one, and no Python resolves a name
        # bound only for type checkers; neither is a field set by name.
        @dataclass
        class Schema:
            count: int = 1
            base_dir: InitVar[Path] = Path()
            checked: "InitVar[BoundOnlyForTypeCheckers]" = None

            def __post_init__(self, base_dir, checked):
                pass

        assert cast_entries(Schema, {"count": "3"}) == {"count": 3}
        with pytest.raises(ValueError, match="base_dir: unknown option"):
            cast_entries(Schema, {"base_dir": "x"})

    def test_empty_store_means_no_store(self, tmp_path, ddos_scenario_file):
        path = bare_config(tmp_path, ddos_scenario_file, experiment="store =\n")
        assert load_experiment_config(path).store is None

    def test_relative_paths_resolve_against_the_config_directory(self, tmp_path, ddos_scenario_file):
        lines = f"scenario = {ddos_scenario_file.name}\nstore = runs\n"
        cfg = load_experiment_config(bare_config(tmp_path, ddos_scenario_file, experiment=lines))
        assert cfg.scenario == ddos_scenario_file.resolve()
        assert cfg.store == (tmp_path / "runs").resolve()

    @pytest.mark.parametrize("line", BAD_EXPERIMENT_LINES)
    def test_bad_experiment_entry_is_one_error_line(self, tmp_path, ddos_scenario_file, capsys, line):
        config = bare_config(tmp_path, ddos_scenario_file, experiment=line)
        assert run_cli("run", "--config", config, "--store", tmp_path / "s") == 1
        assert "config [experiment]" in assert_one_error_line(capsys)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("[experiment]\n", "", 1),
            lambda text: text + "[experiment]\nseed = 5\n",
            lambda text: text.replace("seed = 4", "seed = 4 # \xe9").encode("latin-1"),
        ],
        ids=["no-section-header", "second-experiment", "not-utf8"],
    )
    def test_unreadable_config_is_one_error_line_naming_it(self, tmp_path, ddos_scenario_file, capsys, edit):
        config = bare_config(tmp_path, ddos_scenario_file)
        edited = edit(config.read_text(encoding="utf-8"))
        if isinstance(edited, bytes):
            config.write_bytes(edited)
        else:
            config.write_text(edited, encoding="utf-8")
        assert run_cli("run", "--config", config, "--store", tmp_path / "s") == 1
        err = assert_one_error_line(capsys)
        assert "ConfigError" in err and str(config) in err

    @pytest.mark.parametrize("text", ["one-vs-one:5", "all-vs-all:abc"])
    def test_structure_argument_for_a_kind_without_one_is_rejected(self, tmp_path, ddos_scenario_file, text):
        with pytest.raises(ValueError, match="takes no argument"):
            CompetitionStructure.parse(text)
        path = bare_config(tmp_path, ddos_scenario_file, f"structure = {text}\n")
        with pytest.raises(ConfigError, match=rf"^config \[evolution\] structure: bad value '{text}'"):
            load_experiment_config(path)

    @pytest.mark.parametrize(
        "build",
        [lambda: SelectionScheme("truncation", 0.5), lambda: CompetitionStructure("tournament", 2)],
        ids=["selection", "structure"],
    )
    def test_scheme_arguments_after_the_kind_are_keyword_only(self, build):
        with pytest.raises(TypeError, match="positional argument"):
            build()

    def test_dict_round_trip_with_every_field_set(self):
        cfg = EvolutionConfig(
            generations=3,
            attacker_population=9,
            defender_population=9,
            mutation_rate=0.3,
            crossover_rate=0.5,
            selection=SelectionScheme("truncation", fraction=0.25),
            structure=CompetitionStructure("spatial", grid_side=3, neighborhood=3),
            aggregation="median",
            solution_concept="pareto",
            secondary_weight=0.7,
            invalid_fitness=-5.0,
            master_seed=17,
            limits=GenotypeLimits(min_length=2, max_length=9, codon_max=100),
            mapping=MappingConfig(
                max_wraps=1, codon_policy="consume-always", max_derivation_steps=77
            ),
        )
        defaults = EvolutionConfig().to_dict()
        assert all(value != defaults[name] for name, value in cfg.to_dict().items())
        assert EvolutionConfig.from_dict(cfg.to_dict()) == cfg

    def test_manifest_missing_a_field_is_rejected(self):
        data = EvolutionConfig().to_dict()
        del data["max_wraps"]
        with pytest.raises(KeyError):
            EvolutionConfig.from_dict(data)


class TestCmdInspect:
    @pytest.fixture
    def store_with_run(self, tmp_path, ddos_scenario_file):
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file, generations=4)
        store_dir = tmp_path / "store"
        run_cli("run", "--config", config, "--store", store_dir, "--quiet")
        return store_dir

    def test_summary_contents(self, store_with_run, capsys):
        run_dir = ResultsStore(store_with_run).entries()[0]["dir"]
        assert run_cli("inspect", run_dir, "--store", store_with_run) == 0
        out = capsys.readouterr().out
        assert "seed        5" in out
        assert "generations 4 of 4 completed" in out
        records = list(ResultsStore(store_with_run).load(run_dir).engagement_records())
        candidates = sum(record["kind"] == "candidate" for record in records)
        totals = f"engagements {len(records)} ({candidates} candidate, {len(records) - candidates} incumbent)"
        assert totals in out.splitlines()
        trajectory_lines = [
            line for line in out.splitlines() if line.strip().startswith(tuple("0123456789"))
        ]
        assert len(trajectory_lines) == 8  # two half-steps per generation

    def test_unknown_run_fails(self, store_with_run, capsys):
        assert run_cli("inspect", "no-such-run", "--store", store_with_run) == 1
        assert "UnknownRun" in capsys.readouterr().err

    def test_trajectory_matches_log_replay(self, store_with_run):
        store = ResultsStore(store_with_run)
        run = store.load_all()[0]
        replayed = replay_best_fitness(list(run.engagement_records()), run.manifest["config"])
        for step in run.half_steps:
            assert replayed[(step["generation"], step["phase"])] == pytest.approx(
                step["best_fitness"], abs=1e-12
            )

    def test_format_1_run_is_rejected(self, store_with_run):
        store = ResultsStore(store_with_run)
        manifest_path = store_with_run / store.entries()[0]["dir"] / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps({**manifest, "format_version": 1}))
        message = rf"format_version 1, but this coevarena reads format_version {FORMAT_VERSION}; re-run its config"
        with pytest.raises(CorruptRecord, match=message):
            store.load_all()

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    def test_format_2_store_is_one_error_line(self, store_with_run, tmp_path, capsys, command):
        run_dir = store_with_run / ResultsStore(store_with_run).entries()[0]["dir"]
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps({**manifest, "format_version": 2}))
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", store_with_run, *args) == 1
        assert assert_one_error_line(capsys) == (
            f"error: CorruptRecord: {run_dir}: stored in format_version 2, but this coevarena "
            f"reads format_version {FORMAT_VERSION}; re-run its config to store it again\n"
        )

    def test_load_by_run_id(self, store_with_run):
        store = ResultsStore(store_with_run)
        run_id = store.entries()[0]["run_id"]
        assert store.load(run_id).manifest["run_id"] == run_id
        with pytest.raises(UnknownRun):
            store.load("missing")


class TestCmdEstablo:
    @pytest.fixture
    def populated_store(self, tmp_path, ddos_scenario_file):
        config = write_experiment_config(
            tmp_path, "ddos", ddos_scenario_file, generations=5, repetitions=2, seed=19
        )
        store_dir = tmp_path / "store"
        run_cli("run", "--config", config, "--store", store_dir, "--quiet")
        return store_dir

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    def test_torn_index_line_is_one_error_line(self, populated_store, tmp_path, capsys, command):
        with (populated_store / "index.jsonl").open("a", encoding="utf-8") as handle:
            handle.write('{"dir": "x", "run_')
        args = ["--out", tmp_path / "out"] if command == "establo" else ["x"]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        assert "CorruptRecord" in err and "index.jsonl line 3" in err

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    @pytest.mark.parametrize("line", ['{"run_id": "x"}', "[1]", "3", '{"dir": 3, "run_id": "x"}'])
    def test_index_line_that_is_not_an_entry_is_one_error_line(
        self, populated_store, tmp_path, capsys, command, line
    ):
        with (populated_store / "index.jsonl").open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        args = ["--out", tmp_path / "out"] if command == "establo" else ["x"]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        reason = {
            '{"run_id": "x"}': "lacks key 'dir'",
            "[1]": "is not an object",
            "3": "is not an object",
            '{"dir": 3, "run_id": "x"}': "key 'dir' is not str: 3",
        }[line]
        assert "CorruptRecord" in err and f"index.jsonl line 3 {reason}" in err

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda m: {**m, "config": {k: v for k, v in m["config"].items() if k != "max_wraps"}}, "'config'"),
            (lambda m: {**m, "config": [1]}, "'config'"),
            (lambda m: {**m, "config": {**m["config"], "selection": ["tournament", 3]}}, "'config'"),
            (lambda m: {**m, "config": {**m["config"], "structure": 5}}, "'config'"),
            (lambda m: {**m, "config": {**m["config"], "generations": float("inf")}}, "'config'"),
            (lambda m: {**m, "config": {**m["config"], "generations": 2.5}}, "'config'"),
            (lambda m: {**m, "config": {**m["config"], "mutation_rate": "0.1"}}, "'config'"),
            (lambda m: {**m, "config": {**m["config"], "attacker_population": True}}, "'config'"),
            (lambda m: [2], "is not an object"),
            (lambda m: {"format_version": store_module.FORMAT_VERSION}, "lacks key 'run_id'"),
            (lambda m: {k: v for k, v in m.items() if k != "environment"}, "'environment'"),
            (lambda m: {**m, "scenario": "x"}, "'scenario'"),
            (lambda m: {**m, "environment": ["ddos"]}, "key 'environment' is not str"),
            (lambda m: {**m, "algorithm_label": ["x"]}, "key 'algorithm_label' is not str"),
            (lambda m: {**m, "algorithm_label": None}, "key 'algorithm_label' is not str"),
            (lambda m: {**m, "run_id": [m["run_id"]]}, "key 'run_id' is not str"),
            (lambda m: {**m, "seed": "x"}, "key 'seed' is not int"),
        ],
        ids=[
            "no-max-wraps",
            "config-list",
            "selection-list",
            "structure-int",
            "generations-inf",
            "generations-fraction",
            "mutation-rate-string",
            "population-true",
            "list",
            "version-only",
            "no-environment",
            "bad-input",
            "environment-list",
            "label-list",
            "label-null",
            "run-id-list",
            "seed-string",
        ],
    )
    def test_corrupt_manifest_is_one_error_line(self, populated_store, tmp_path, capsys, command, edit, named):
        run_dir = populated_store / ResultsStore(populated_store).entries()[0]["dir"]
        manifest_path = run_dir / "manifest.json"
        manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        assert "CorruptRecord" in err and str(manifest_path) in err and named in err

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    @pytest.mark.parametrize("name", ["index.jsonl", "halfsteps.jsonl", "manifest.json"])
    def test_store_file_that_is_not_utf8_is_one_error_line(
        self, populated_store, tmp_path, capsys, command, name
    ):
        run_dir = populated_store / ResultsStore(populated_store).entries()[0]["dir"]
        path = populated_store / name if name == "index.jsonl" else run_dir / name
        if name == "manifest.json":
            path.write_bytes(b"\xff")
        else:
            with path.open("ab") as handle:
                handle.write(b"\xff\n")
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        assert "CorruptRecord" in err and f"{path} is not UTF-8 text" in err

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    @pytest.mark.parametrize("name", ["halfsteps.jsonl", "manifest.json"])
    def test_missing_store_file_is_one_error_line(self, populated_store, tmp_path, capsys, command, name):
        run_dir = populated_store / ResultsStore(populated_store).entries()[0]["dir"]
        (run_dir / name).unlink()
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        assert "CorruptRecord" in err and f"{run_dir / name} is unreadable" in err

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    def test_halfsteps_line_that_is_not_an_object_is_one_error_line(
        self, populated_store, tmp_path, capsys, command
    ):
        run_dir = populated_store / ResultsStore(populated_store).entries()[0]["dir"]
        with (run_dir / "halfsteps.jsonl").open("a", encoding="utf-8") as handle:
            handle.write("[1]\n")
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        lines = len((run_dir / "halfsteps.jsonl").read_text().splitlines())
        assert "CorruptRecord" in err and f"halfsteps.jsonl line {lines} is not an object" in err

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    @pytest.mark.parametrize(
        "edit, missing",
        [
            (lambda last: {"record": "halfstep"}, "generation"),
            (lambda last: {k: v for k, v in last.items() if k != "best_cost"}, "best_cost"),
        ],
        ids=["bare", "no-best-cost"],
    )
    def test_halfstep_line_without_a_field_is_one_error_line(
        self, populated_store, tmp_path, capsys, command, edit, missing
    ):
        run_dir = populated_store / ResultsStore(populated_store).entries()[0]["dir"]
        halfsteps = run_dir / "halfsteps.jsonl"
        last = json.loads(halfsteps.read_text().splitlines()[-1])
        with halfsteps.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(edit(last)) + "\n")
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        lines = len(halfsteps.read_text().splitlines())
        assert "CorruptRecord" in err and f"halfsteps.jsonl line {lines} lacks key '{missing}'" in err

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    @pytest.mark.parametrize(
        "key, value, annotation",
        [
            ("generation", "x", "int"),
            ("best_id", 1.0, "int"),
            ("phase", 3, "str"),
            ("best_fitness", True, "float"),
            ("mean_fitness", None, "float"),
            ("incumbent_fitness", "0.5", "float | None"),
            ("best_genotype", [], "Genotype"),
            ("best_genotype", [3, -1], "Genotype"),
            ("best_sentence", ["route", 2], "tuple[str, ...] | None"),
            ("best_cost", [1.0], "float | None"),
        ],
    )
    def test_halfstep_value_of_the_wrong_type_is_one_error_line(
        self, populated_store, tmp_path, capsys, command, key, value, annotation
    ):
        run_dir = populated_store / ResultsStore(populated_store).entries()[0]["dir"]
        halfsteps = run_dir / "halfsteps.jsonl"
        last = json.loads(halfsteps.read_text().splitlines()[-1])
        with halfsteps.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({**last, key: value}) + "\n")
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        lines = len(halfsteps.read_text().splitlines())
        assert "CorruptRecord" in err
        assert f"halfsteps.jsonl line {lines} key '{key}' is not {annotation}: {value!r}" in err

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    @pytest.mark.parametrize(
        "key, annotation",
        [
            ("best_fitness", "float"),
            ("mean_fitness", "float"),
            ("fitness_variance", "float"),
            ("incumbent_fitness", "float | None"),
            ("best_cost", "float | None"),
        ],
    )
    # Python's JSON reader takes NaN and Infinity, 1e999 as infinity and an int
    # of any size; none of them is a number a float holds.
    @pytest.mark.parametrize(
        "text", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400], ids=["NaN", "Infinity", "-Infinity", "1e999", "10**400"]
    )
    def test_halfstep_value_that_is_not_a_finite_float_is_one_error_line(
        self, populated_store, tmp_path, capsys, command, key, annotation, text
    ):
        run_dir = populated_store / ResultsStore(populated_store).entries()[0]["dir"]
        halfsteps = run_dir / "halfsteps.jsonl"
        lines = halfsteps.read_text().splitlines()
        lines[-1] = json.dumps({**json.loads(lines[-1]), key: "@"}).replace('"@"', text)
        halfsteps.write_text("\n".join(lines) + "\n")
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", populated_store, *args) == 1
        assert assert_one_error_line(capsys) == (
            f"error: CorruptRecord: {halfsteps} line {len(lines)} key {key!r} is not {annotation}: "
            f"{json.loads(text)!r}\n"
        )

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    @pytest.mark.parametrize(
        "key, value, reason",
        [
            # the populated store's genotypes hold 6 to 24 codons below 65536, its populations 4
            *(
                ("best_genotype", codons, "is not of 6 to 24 codons below 65536")
                for codons in ([0] * 5, [0] * 25, [0] * 5 + [65536])
            ),
            *(("best_id", value, f"{value} is not from 0 to 3") for value in (-1, 4, 999)),
            *(("invalid_count", value, f"{value} is not from 0 to 4") for value in (-500, 5)),
        ],
    )
    def test_halfstep_value_outside_the_config_echo_is_one_error_line(
        self, populated_store, tmp_path, capsys, command, key, value, reason
    ):
        run_dir = populated_store / ResultsStore(populated_store).entries()[0]["dir"]
        halfsteps = run_dir / "halfsteps.jsonl"
        lines = halfsteps.read_text().splitlines()
        lines[-1] = json.dumps({**json.loads(lines[-1]), key: value})
        halfsteps.write_text("\n".join(lines) + "\n")
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        assert err == f"error: CorruptRecord: {halfsteps} line {len(lines)} key {key!r} {reason}\n"

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda last: {**last, "record": 5}, "key 'record' is not 'halfstep': 5"),
            (lambda last: {**last, "record": "population"}, "key 'record' is not 'halfstep': 'population'"),
            (lambda last: {k: v for k, v in last.items() if k != "record"}, "lacks key 'record'"),
        ],
        ids=["record-5", "record-population", "no-record"],
    )
    def test_halfsteps_line_that_is_not_a_halfstep_is_one_error_line(
        self, populated_store, tmp_path, capsys, command, edit, reason
    ):
        run_dir = populated_store / ResultsStore(populated_store).entries()[0]["dir"]
        halfsteps = run_dir / "halfsteps.jsonl"
        lines = halfsteps.read_text().splitlines()
        lines[-1] = json.dumps(edit(json.loads(lines[-1])))
        halfsteps.write_text("\n".join(lines) + "\n")
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        assert "CorruptRecord" in err and f"halfsteps.jsonl line {len(lines)} {reason}" in err

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    def test_torn_halfsteps_line_is_one_error_line(self, populated_store, tmp_path, capsys, command):
        run_dir = populated_store / ResultsStore(populated_store).entries()[0]["dir"]
        halfsteps = run_dir / "halfsteps.jsonl"
        with halfsteps.open("a", encoding="utf-8") as handle:
            handle.write('{"record": "halfstep", "ph')
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        lines = len(halfsteps.read_text().splitlines())
        assert "CorruptRecord" in err and f"halfsteps.jsonl line {lines} does not parse" in err
        assert err == (
            f"error: CorruptRecord: {halfsteps} line {lines} does not parse: "
            "Unterminated string starting at (column 24)\n"
        )

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda steps: steps[:-1],
            lambda steps: [steps[1], steps[0], *steps[2:]],
            lambda steps: [*steps[:3], steps[2], *steps[3:]],
        ],
        ids=["last-deleted", "two-swapped", "one-repeated"],
    )
    def test_halfsteps_that_are_not_every_generation_in_order_are_one_error_line(
        self, populated_store, tmp_path, capsys, command, edit
    ):
        run_dir = populated_store / ResultsStore(populated_store).entries()[0]["dir"]
        halfsteps = run_dir / "halfsteps.jsonl"
        header, *steps = halfsteps.read_text().splitlines()
        halfsteps.write_text("".join(line + "\n" for line in (header, *edit(steps))))
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        assert err == f"error: CorruptRecord: {halfsteps} is not generations 1 to 5 in order\n"

    @pytest.mark.parametrize("command", ["establo", "inspect"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda header, steps: [{**header, "run": "other-run"}, *steps],
            lambda header, steps: [{**header, "format_version": 2}, *steps],
            lambda header, steps: [{**header, "record": "halfstep"}, *steps],
            lambda header, steps: [{**header, "columns": []}, *steps],
            lambda header, steps: steps,
            lambda header, steps: [],
        ],
        ids=["other-run", "other-version", "not-header", "extra-key", "no-header", "empty"],
    )
    def test_halfsteps_header_that_is_not_this_runs_is_one_error_line(
        self, populated_store, tmp_path, capsys, command, edit
    ):
        run_dir = populated_store / ResultsStore(populated_store).entries()[0]["dir"]
        halfsteps = run_dir / "halfsteps.jsonl"
        header, *steps = [json.loads(line) for line in halfsteps.read_text().splitlines()]
        halfsteps.write_text("".join(json.dumps(line) + "\n" for line in edit(header, steps)))
        args = ["--out", tmp_path / "out"] if command == "establo" else [run_dir.name]
        assert run_cli(command, "--store", populated_store, *args) == 1
        err = assert_one_error_line(capsys)
        assert "CorruptRecord" in err and "halfsteps.jsonl line 1 is not this run's header" in err

    def test_empty_store_fails(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert run_cli("establo", "--store", tmp_path / "empty", "--out", tmp_path / "out") == 1
        assert "EmptyStore" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--stride", 0), ("--seed", -1)])
    def test_bad_flag_is_one_error_line(self, populated_store, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "out"
        assert run_cli("establo", "--store", populated_store, "--out", out_dir, flag, value) == 1
        assert flag in assert_one_error_line(capsys)

    def test_role_that_never_maps_is_one_error_line(self, tmp_path, ddos_scenario_file, capsys):
        # Every derivation of <more> recurses forever, so no defender maps and
        # no half-step records a defender champion.
        unmappable = tmp_path / "unmappable.bnf"
        unmappable.write_text("<defense> ::= route shortest <more>\n<more> ::= x <more>\n")
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file, generations=2)
        point_inputs_at(config, defense_grammar=unmappable)
        store_dir = tmp_path / "store"
        assert run_cli("run", "--config", config, "--store", store_dir, "--quiet") == 0
        assert run_cli("establo", "--store", store_dir, "--out", tmp_path / "out") == 1
        err = assert_one_error_line(capsys)
        assert "EmptyStore" in err and "defender" in err

    def test_runs_on_stored_copies_after_originals_are_deleted(
        self, tmp_path, ddos_scenario_file
    ):
        inputs = {
            "attack_grammar": tmp_path / "attack-original.bnf",
            "defense_grammar": tmp_path / "defense-original.bnf",
        }
        shutil.copyfile(data_path("grammars", "ddos_attack.bnf"), inputs["attack_grammar"])
        shutil.copyfile(data_path("grammars", "ddos_defense.bnf"), inputs["defense_grammar"])
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file, generations=3)
        point_inputs_at(config, **inputs)
        store_dir = tmp_path / "store"
        assert run_cli("run", "--config", config, "--store", store_dir, "--quiet") == 0
        before, after = tmp_path / "before", tmp_path / "after"
        assert run_cli("establo", "--store", store_dir, "--out", before, "--quiet") == 0
        for path in (*inputs.values(), ddos_scenario_file):
            path.unlink()
        assert run_cli("establo", "--store", store_dir, "--out", after, "--quiet") == 0
        for name in ("rankings.csv", "payoff_same-run.csv", "summary.txt"):
            assert (before / name).read_bytes() == (after / name).read_bytes()

    def test_single_run_best_per_run_gives_one_by_one_matrix(self, tmp_path, ddos_scenario_file):
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file, generations=3)
        store_dir = tmp_path / "solo-store"
        run_cli("run", "--config", config, "--store", store_dir, "--quiet")
        out_dir = tmp_path / "solo-reports"
        assert (
            run_cli(
                "establo", "--store", store_dir, "--out", out_dir,
                "--filter", "best-per-run", "--quiet",
            )
            == 0
        )
        payoff = (out_dir / "payoff_same-run.csv").read_text().strip().splitlines()
        assert len(payoff) == 2  # header + one attacker row
        assert payoff[0].count(",") == 1  # one defender column

    def test_reports_written_and_store_untouched(self, populated_store, tmp_path):
        before = sorted(p.relative_to(populated_store) for p in populated_store.rglob("*"))
        index_bytes = (populated_store / "index.jsonl").read_bytes()
        out_dir = tmp_path / "reports"
        assert (
            run_cli(
                "establo", "--store", populated_store, "--out", out_dir,
                "--filter", "best-per-run", "--quiet",
            )
            == 0
        )
        assert (out_dir / "rankings.csv").exists()
        assert (out_dir / "payoff_same-run.csv").exists()
        assert (out_dir / "summary.txt").exists()
        after = sorted(p.relative_to(populated_store) for p in populated_store.rglob("*"))
        assert before == after
        assert (populated_store / "index.jsonl").read_bytes() == index_bytes

    def test_two_scenarios_two_contexts(self, populated_store, tmp_path, ddos_scenario_file):
        other = tmp_path / "alt.scenario"
        other.write_text(ddos_scenario_file.read_text().replace("horizon = 12", "horizon = 16"))
        out_dir = tmp_path / "reports2"
        assert (
            run_cli(
                "establo", "--store", populated_store, "--out", out_dir,
                "--scenario", ddos_scenario_file, "--scenario", other,
                "--stride", 2, "--quiet",
            )
            == 0
        )
        rows = (out_dir / "rankings.csv").read_text().splitlines()[1:]
        contexts = {line.split(",")[0] for line in rows}
        assert contexts == {ddos_scenario_file.stem, "alt"}
        assert (out_dir / f"payoff_{ddos_scenario_file.stem}.csv").exists()
        assert (out_dir / "payoff_alt.csv").exists()

    @pytest.mark.parametrize(
        "names, payoff_file",
        [(("net", "net"), "payoff_net.csv"), (("Ring", "ring"), "payoff_ring.csv")],
        ids=["same-stem", "case-only"],
    )
    def test_scenarios_writing_one_payoff_file_are_one_error_line(
        self, populated_store, tmp_path, ddos_scenario_file, capsys, names, payoff_file
    ):
        scenarios = [tmp_path / "a" / f"{names[0]}.scenario", tmp_path / "b" / f"{names[1]}.scenario"]
        for scenario in scenarios:
            scenario.parent.mkdir()
            shutil.copyfile(ddos_scenario_file, scenario)
        out_dir = tmp_path / "reports"
        argv = ["establo", "--store", populated_store, "--out", out_dir]
        assert run_cli(*argv, "--scenario", scenarios[0], "--scenario", scenarios[1]) == 1
        err = assert_one_error_line(capsys)
        assert "ConfigError" in err and payoff_file in err
        assert all(str(scenario) in err for scenario in scenarios)
        assert not out_dir.exists()

    def test_store_that_mixes_environments_is_one_error_line(
        self, populated_store, tmp_path, contagion_scenario_file, capsys
    ):
        config = write_experiment_config(
            tmp_path, "contagion", contagion_scenario_file, name="contagion.cfg", generations=1
        )
        assert run_cli("run", "--config", config, "--store", populated_store, "--quiet") == 0
        assert run_cli("establo", "--store", populated_store, "--out", tmp_path / "out") == 1
        err = assert_one_error_line(capsys)
        assert "ConfigError" in err and "store mixes environments ['contagion', 'ddos']" in err

    def test_runs_on_different_scenarios_without_scenario_are_one_error_line(
        self, populated_store, tmp_path, ddos_scenario_file, capsys
    ):
        other = tmp_path / "alt.scenario"
        other.write_text(ddos_scenario_file.read_text().replace("horizon = 12", "horizon = 16"))
        config = write_experiment_config(tmp_path, "ddos", other, name="alt.cfg")
        assert run_cli("run", "--config", config, "--store", populated_store, "--quiet") == 0
        assert run_cli("establo", "--store", populated_store, "--out", tmp_path / "out") == 1
        err = assert_one_error_line(capsys)
        assert "ConfigError" in err and "runs use different scenarios; pass --scenario" in err

    def test_edited_scenario_copy_is_one_error_line(self, shipped_runs, tmp_path, capsys):
        store_dir = tmp_path / "store"
        run_dir = shipped_runs["ddos_smoke.cfg", 11]
        shutil.copytree(run_dir.parent, store_dir)
        scenario = store_dir / run_dir.name / "scenario.cfg"
        text = scenario.read_text()
        assert "attack_budget = 24\n" in text
        scenario.write_text(text.replace("attack_budget = 24\n", "attack_budget = 25\n"))
        out_dir = tmp_path / "reports"
        assert run_cli("establo", "--store", store_dir, "--out", out_dir) == 1
        err = assert_one_error_line(capsys)
        assert "CorruptRecord" in err and "scenario.cfg" in err
        assert not out_dir.exists()

    def test_cli_matches_library_invocation(self, populated_store, tmp_path):
        from coevarena import establo as establo_mod
        from coevarena.envs import load_environment

        out_dir = tmp_path / "via-cli"
        assert (
            run_cli(
                "establo", "--store", populated_store, "--out", out_dir,
                "--stride", 2, "--seed", 77, "--quiet",
            )
            == 0
        )
        store = ResultsStore(populated_store)
        runs = store.load_all()
        compendium = establo_mod.build_compendium(runs, "best-per-generation", 2)
        scenario = runs[0].input_path("scenario")
        environment = load_environment("ddos", scenario)
        matrix = establo_mod.cross_tournament(compendium, environment, 77, "same-run")
        rankings = establo_mod.rank(matrix)
        lib_dir = tmp_path / "via-library"
        establo_mod.emit_report(rankings, [matrix], lib_dir, {e.entry_id: e for e in compendium})
        for name in ("rankings.csv", "payoff_same-run.csv", "rank_curves.jsonl", "summary.txt"):
            assert (out_dir / name).read_bytes() == (lib_dir / name).read_bytes()


class TestValidateGrammar:
    def test_valid_grammar(self, capsys):
        assert run_cli("validate-grammar", data_path("grammars", "ddos_attack.bnf")) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK: start <attack>")

    def test_invalid_grammar(self, tmp_path, capsys):
        bad = tmp_path / "bad.bnf"
        bad.write_text("<s> ::= <undefined>\n")
        assert run_cli("validate-grammar", bad) == 1
        assert "UndefinedNonterminal" in capsys.readouterr().err

    def test_grammar_that_is_not_utf8_is_one_error_line(self, tmp_path, ddos_scenario_file, capsys):
        bad = tmp_path / "bad.bnf"
        bad.write_bytes("<s> ::= caf\xe9\n".encode("latin-1"))
        assert run_cli("validate-grammar", bad) == 1
        err = assert_one_error_line(capsys)
        assert "GrammarError" in err and str(bad) in err
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file)
        point_inputs_at(config, attack_grammar=bad)
        assert run_cli("run", "--config", config, "--store", tmp_path / "s") == 1
        err = assert_one_error_line(capsys)
        assert "GrammarError" in err and str(bad) in err

    def test_grammar_syntax_error_names_the_file(self, tmp_path, ddos_scenario_file, capsys):
        bad = tmp_path / "dangling.bnf"
        bad.write_text("<s> ::= a |\n")
        expected = f"error: GrammarSyntaxError: grammar file {bad}: line 1: rule ends with a dangling '|'\n"
        assert run_cli("validate-grammar", bad) == 1
        assert assert_one_error_line(capsys) == expected
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file)
        point_inputs_at(config, attack_grammar=bad)
        assert run_cli("run", "--config", config, "--store", tmp_path / "s") == 1
        assert assert_one_error_line(capsys) == expected


class TestShippedData:
    def test_shipped_grammars_parse(self):
        for name in ("ddos_attack", "ddos_defense", "contagion_attack", "contagion_defense"):
            assert run_cli("validate-grammar", data_path("grammars", f"{name}.bnf")) == 0

    def test_shipped_scenarios_load(self):
        from coevarena.envs import load_environment

        load_environment("ddos", data_path("scenarios", "ring9.scenario"))
        for name in ("star", "chain", "clique", "twotier"):
            load_environment("contagion", data_path("scenarios", f"{name}.scenario"))

    def test_shipped_configs_run(self, tmp_path):
        # shrink the shipped smoke config so this stays a unit-scale test
        source = data_path("configs", "contagion_star.cfg").read_text()
        small = source.replace("generations = 10", "generations = 1").replace(
            "scenario = ../scenarios/star.scenario",
            f"scenario = {data_path('scenarios', 'star.scenario')}",
        ).replace(
            "attack_grammar = ../grammars/contagion_attack.bnf",
            f"attack_grammar = {data_path('grammars', 'contagion_attack.bnf')}",
        ).replace(
            "defense_grammar = ../grammars/contagion_defense.bnf",
            f"defense_grammar = {data_path('grammars', 'contagion_defense.bnf')}",
        ).replace("attacker_population = 8", "attacker_population = 3").replace(
            "defender_population = 8", "defender_population = 3"
        )
        config = tmp_path / "small.cfg"
        config.write_text(small)
        assert run_cli("run", "--config", config, "--store", tmp_path / "store", "--quiet") == 0

    def test_stored_config_echo_loads_as_the_run_config(self, shipped_runs):
        for (name, seed), run_dir in shipped_runs.items():
            run_config = load_experiment_config(data_path("configs", name)).evolution.with_seed(seed)
            assert ResultsStore(run_dir.parent).load(run_dir.name).config == run_config

    def test_shipped_config_logs_are_pinned(self, shipped_runs):
        # The deterministic outputs of both shipped configs, byte for byte. A
        # change to the log format must update these digests in the same change.
        expected = {
            ("ddos_smoke.cfg", 11): (
                "a8fb0351d5638a5d079ca188045e9e0306e42f50cba2f1f2eed9bbc49d797434",
                "efd6398029007896953f13c0b89009aab1fe231c610fb7ebca01a918e05afaa4",
            ),
            ("contagion_star.cfg", 7): (
                "ac4ba0f46f829c2f1922732bd281f800d2c31cc8260dadb78017e9d4950356bb",
                "ecdb84b0f1318cf5ac1c9112cdaec626a0ca814c0e9db23df7b16d0b10fb5788",
            ),
        }
        for key, digests in expected.items():
            actual = tuple(
                hashlib.sha256((shipped_runs[key] / log).read_bytes()).hexdigest()
                for log in ("engagements.jsonl", "halfsteps.jsonl")
            )
            assert actual == digests, key

    def test_shipped_config_logs_rebuild_the_format_1_records(self, shipped_runs):
        # sha256 of the format 1 engagement records of both shipped configs,
        # with run and the telemetry keys cleanses, mean_delay,
        # mission_duration, trials, tasks_total, node_cost and message_cost
        # removed. The format 6 log, with kind names, referred outcomes,
        # defender scores, costs, telemetry and genotypes put back, and each
        # sentence derived from its genotype, must match.
        expected = {
            ("ddos_smoke.cfg", 11): "de421434855e3d612605ea4fec0e44f6ae1a6bf0cd65a805430cde2946458b4b",
            ("contagion_star.cfg", 7): "dff4af542356fd7b856594708e36899baf8ef1b083f3bad49118202b955df7f3",
        }
        for key, expected_digest in expected.items():
            digest = hashlib.sha256()
            for record in v1_engagements(shipped_runs[key]):
                digest.update((json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode())
            assert digest.hexdigest() == expected_digest, key

    def test_shipped_config_logs_read_back_as_the_run_in_memory(self, shipped_records):
        for key, (run_dir, record) in shipped_records.items():
            expected = [
                {
                    "generation": cohort.generation,
                    "phase": cohort.phase,
                    "kind": kind,
                    "pair_index": k,
                    "attacker_id": a,
                    "defender_id": d,
                    "attacker_score": outcome.attacker_score,
                    "defender_score": outcome.defender_score,
                    "costs": outcome.costs,
                    "telemetry": outcome.telemetry,
                }
                for cohort in record.cohorts
                for kind, k, a, d, outcome in cohort.engagements
            ]
            stored = ResultsStore(run_dir.parent).load(run_dir.name)
            assert list(stored.engagement_records()) == expected, key
            lines = [json.loads(line) for line in (run_dir / "engagements.jsonl").read_text().splitlines()]
            assert lines[0]["codon_bytes"] == 2
            populations = [line for line in lines[1:] if type(line[0]) is str]
            genotypes = [[decode_genotype(text, 2) for text in line[3:]] for line in populations]
            assert genotypes == [[list(m.codons) for m in cohort.members] for cohort in record.cohorts], key
            assert [line[:3] for line in populations] == [
                [cohort.phase, cohort.generation, cohort.replaced] for cohort in record.cohorts
            ], key
        # Each Cohort field is compared above, so a field the log does not hold fails here.
        assert [f.name for f in fields(Cohort)] == ["generation", "phase", "members", "engagements", "replaced"]

    def test_each_distinct_outcome_is_written_once(self, shipped_records):
        run_dir, record = shipped_records["ddos_smoke.cfg", 11]
        distinct = {
            (
                o.attacker_score,
                o.defender_score,
                *(o.costs[key] for key in sorted(o.costs)),
                *(o.telemetry[key] for key in sorted(o.telemetry)),
            )
            for cohort in record.cohorts
            for *_, o in cohort.engagements
        }
        lines = (run_dir / "engagements.jsonl").read_text(encoding="utf-8").splitlines()
        rows = [row for row in map(json.loads, lines) if type(row) is list and type(row[0]) is int]
        assert Counter(map(len, rows)) == {10: len(distinct), 5: len(rows) - len(distinct)}

    def test_inspect_totals_are_the_pinned_work_counts(self, shipped_runs, capsys):
        # tests/test_work_counts.py pins these counts on each run in memory;
        # its map_failures also count generation 0, which has none here.
        expected = {
            ("ddos_smoke.cfg", 11): [
                "engagements 2360 (1200 candidate, 1160 incumbent)",
                "invalid     0 bred individuals failed to map",
            ],
            ("contagion_star.cfg", 7): [
                "engagements 300 (156 candidate, 144 incumbent)",
                "invalid     4 bred individuals failed to map",
            ],
        }
        for key, lines in expected.items():
            run_dir = shipped_runs[key]
            assert run_cli("inspect", run_dir.name, "--store", run_dir.parent) == 0
            out = capsys.readouterr().out.splitlines()
            assert all(line in out for line in lines), (key, out)

    def test_inspect_refuses_a_row_of_values_of_the_wrong_types(self, shipped_runs, tmp_path, capsys):
        run_dir = shipped_runs["ddos_smoke.cfg", 11]
        store_dir = Path(shutil.copytree(run_dir.parent, tmp_path / "store"))
        log = store_dir / run_dir.name / "engagements.jsonl"
        with log.open("a", encoding="utf-8") as handle:
            handle.write('[0,"x",null,99,"a",{},[],1,2,3]\n')
        number = len(log.read_text(encoding="utf-8").splitlines())
        assert run_cli("inspect", run_dir.name, "--store", store_dir) == 1
        assert assert_one_error_line(capsys) == (
            f"error: CorruptRecord: {log} line {number} pair_index 'x' is not a non-negative int\n"
        )


    def test_inspect_refuses_a_row_naming_a_member_outside_the_population(
        self, shipped_runs, tmp_path, capsys
    ):
        run_dir = shipped_runs["ddos_smoke.cfg", 11]
        store_dir = Path(shutil.copytree(run_dir.parent, tmp_path / "store"))
        log = store_dir / run_dir.name / "engagements.jsonl"
        with log.open("a", encoding="utf-8") as handle:
            handle.write("[0,0,0,99,0]\n")
        number = len(log.read_text(encoding="utf-8").splitlines())
        assert run_cli("inspect", run_dir.name, "--store", store_dir) == 1
        assert assert_one_error_line(capsys) == (
            f"error: CorruptRecord: {log} line {number} defender_id 99 is not below the population size 20\n"
        )

    @pytest.mark.parametrize(
        "row, message",
        [
            # a candidate job past the 20 pairs of a one-vs-one half-step
            ("[0,99999,0,0,0]", "pair_index 99999 is not below the pair count 20"),
            # the last half-step is the defender's: incumbent job j plays attacker j
            ("[1,5,3,0,0]", "incumbent pair_index 5 is not its attacker_id 3"),
        ],
    )
    def test_inspect_refuses_a_row_naming_a_job_that_does_not_exist(
        self, shipped_runs, tmp_path, capsys, row, message
    ):
        run_dir = shipped_runs["ddos_smoke.cfg", 11]
        store_dir = Path(shutil.copytree(run_dir.parent, tmp_path / "store"))
        log = store_dir / run_dir.name / "engagements.jsonl"
        with log.open("a", encoding="utf-8") as handle:
            handle.write(row + "\n")
        number = len(log.read_text(encoding="utf-8").splitlines())
        assert run_cli("inspect", run_dir.name, "--store", store_dir) == 1
        assert assert_one_error_line(capsys) == f"error: CorruptRecord: {log} line {number} {message}\n"

    def test_inspect_refuses_a_row_after_a_generation_0_population_line(self, shipped_runs, tmp_path, capsys):
        # generation 0 is evaluated by no engagement: its rows would be counted
        # as engagements no half-step played
        run_dir = shipped_runs["ddos_smoke.cfg", 11]
        store_dir = Path(shutil.copytree(run_dir.parent, tmp_path / "store"))
        log = store_dir / run_dir.name / "engagements.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines()
        first_row = next(line for line in lines if line.startswith("[") and not line.startswith('["'))
        log.write_text("\n".join([*lines[:2], first_row, *lines[2:]]) + "\n", encoding="utf-8")
        assert run_cli("inspect", run_dir.name, "--store", store_dir) == 1
        assert assert_one_error_line(capsys) == (
            f"error: CorruptRecord: {log} line 3 is a row of generation 0, which plays no engagements\n"
        )

    def test_inspect_refuses_a_genotype_that_does_not_decode(self, shipped_runs, tmp_path, capsys):
        run_dir = shipped_runs["ddos_smoke.cfg", 11]
        store_dir = Path(shutil.copytree(run_dir.parent, tmp_path / "store"))
        log = store_dir / run_dir.name / "engagements.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines()
        defenders = json.loads(lines[2])
        assert defenders[:3] == ["defender", 0, None]
        defenders[3] = "!!!"
        log.write_text("\n".join([*lines[:2], json.dumps(defenders), *lines[3:]]) + "\n", encoding="utf-8")
        assert run_cli("inspect", run_dir.name, "--store", store_dir) == 1
        assert assert_one_error_line(capsys) == (
            f"error: CorruptRecord: {log} line 3 genotype '!!!' is not base64 of one or more "
            "2-byte codons below 65536\n"
        )


    def test_inspect_refuses_a_genotype_of_too_few_codons(self, shipped_runs, tmp_path, capsys):
        run_dir = shipped_runs["ddos_smoke.cfg", 11]
        store_dir = Path(shutil.copytree(run_dir.parent, tmp_path / "store"))
        log = store_dir / run_dir.name / "engagements.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines()
        defenders = json.loads(lines[2])
        assert defenders[:3] == ["defender", 0, None]
        defenders[3] = encode_genotype([0], 2)
        log.write_text("\n".join([*lines[:2], json.dumps(defenders), *lines[3:]]) + "\n", encoding="utf-8")
        assert run_cli("inspect", run_dir.name, "--store", store_dir) == 1
        assert assert_one_error_line(capsys) == (
            f"error: CorruptRecord: {log} line 3 genotype 'AAA=' is not of 8 to 64 codons: it holds 1\n"
        )


    @pytest.mark.parametrize(
        "name, find, change, message",
        [
            *(
                (
                    "engagements.jsonl",
                    lambda lines, g=g: next(i for i, line in enumerate(lines) if line.startswith(f'["attacker",{g},')),
                    lambda line, g=g: line.replace(f'["attacker",{g},null,', f'["attacker",{g},3,'),
                    f"replaced 3 is set, but generation {g} has no incumbent",
                )
                for g in (0, 1)
            ),
            # generation 1's first row, an attacker's, made an incumbent row
            # whose pair index is its defender id
            (
                "engagements.jsonl",
                lambda lines: next(i for i, line in enumerate(lines) if line.startswith('["attacker",1,')) + 1,
                lambda line: json.dumps([1, json.loads(line)[3], *json.loads(line)[2:]]),
                "is an incumbent row of generation 1, which has no incumbent",
            ),
            (
                "halfsteps.jsonl",
                lambda lines: 1,
                lambda line: json.dumps({**json.loads(line), "incumbent_fitness": 0.5}),
                "key 'incumbent_fitness' 0.5 is set, but generation 1 has no incumbent",
            ),
        ],
        ids=["replaced-generation-0", "replaced-generation-1", "incumbent-row", "incumbent-fitness"],
    )
    def test_inspect_refuses_elitism_before_generation_2(
        self, shipped_runs, tmp_path, capsys, name, find, change, message
    ):
        # A role has no incumbent before its second half-step, so generations 0
        # and 1 hold no swap, incumbent row or incumbent fitness.
        run_dir = shipped_runs["ddos_smoke.cfg", 11]
        store_dir = Path(shutil.copytree(run_dir.parent, tmp_path / "store"))
        path = store_dir / run_dir.name / name
        lines = path.read_text(encoding="utf-8").splitlines()
        at = find(lines)
        edited = change(lines[at])
        assert edited != lines[at]
        path.write_text("\n".join([*lines[:at], edited, *lines[at + 1 :]]) + "\n", encoding="utf-8")
        assert run_cli("inspect", run_dir.name, "--store", store_dir) == 1
        assert assert_one_error_line(capsys) == f"error: CorruptRecord: {path} line {at + 1} {message}\n"


class TestEngagementLogFormat:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), codon_max=st.sampled_from([1, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**63]))
    def test_genotype_round_trip(self, data, codon_max):
        width = codon_bytes(codon_max)
        assert width == {1: 2, 2**16: 2, 2**16 + 1: 4, 2**32: 4, 2**32 + 1: 8, 2**63: 8}[codon_max]
        codons = data.draw(
            st.lists(st.integers(0, codon_max - 1), min_size=1, max_size=40)
            | st.just([codon_max - 1]),
            label="codons",
        )
        text = encode_genotype(codons, width)
        assert len(text) == 4 * math.ceil(len(codons) * width / 3)
        assert decode_genotype(text, width) == codons

    def test_outcome_with_other_keys_is_refused_and_nothing_is_left(self, tmp_path):
        class ShiftingKeys(ScriptedEnvironment):
            """Telemetry 'first' on the first engagement, 'later' on every other."""

            calls = 0

            def engage(self, attack, defense, key):
                outcome = super().engage(attack, defense, key)
                self.calls += 1
                name = "first" if self.calls == 1 else "later"
                return replace(outcome, telemetry={name: 1.0})

        grammar = coevarena.parse_bnf("<s> ::= a | b")
        cfg = EvolutionConfig(generations=1, attacker_population=3, defender_population=3)
        record = coevarena.run_alternating(cfg, grammar, grammar, ShiftingKeys())
        (first, second, *_) = record.cohorts[2].engagements
        inputs = [tmp_path / name for name in ("a.bnf", "d.bnf", "s.cfg")]
        for path in inputs:
            path.write_text("", encoding="utf-8")
        store = ResultsStore(tmp_path / "store")
        message = (
            f"generation 1 attacker candidate engagement 1 (attacker {second.attacker_id}, "
            f"defender {second.defender_id}) has cost keys [] and telemetry keys ['later'], "
            "not the run's [] and ['first']"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            store.add_run(record, {}, *inputs)
        assert first.outcome.telemetry == {"first": 1.0}
        assert [p.name for p in store.root.iterdir()] == []

    @pytest.mark.parametrize(
        "scores, bad",
        [
            # the first outcome follows no rule: 0.0 is not -(0.0), bit for bit
            ({0: (0.0, 0.0)}, 0),
            ({0: (0.5, 2.0)}, 0),
            # the first follows 'negated', the third 'one_minus'
            ({2: (0.25, 0.75)}, 2),
        ],
    )
    def test_outcome_that_follows_no_rule_of_the_run_is_refused_and_nothing_is_left(self, tmp_path, scores, bad):
        class Scripted(ScriptedEnvironment):
            """Scores call n as scores says, every other call 0.25 to -0.25; telemetry 'call' n."""

            calls = 0

            def engage(self, attack, defense, key):
                a, d = scores.get(self.calls, (0.25, -0.25))
                self.calls += 1
                return EngagementOutcome(a, d, telemetry={"call": float(self.calls - 1)})

        grammar = coevarena.parse_bnf("<s> ::= a | b")
        cfg = EvolutionConfig(generations=1, attacker_population=3, defender_population=3)
        record = coevarena.run_alternating(cfg, grammar, grammar, Scripted())
        cohort, engagement = next(
            (cohort, e) for cohort in record.cohorts for e in cohort.engagements if e.outcome.telemetry["call"] == bad
        )
        inputs = [tmp_path / name for name in ("a.bnf", "d.bnf", "s.cfg")]
        for path in inputs:
            path.write_text("", encoding="utf-8")
        store = ResultsStore(tmp_path / "store")
        a, d = scores[bad]
        rules = "'negated' or 'one_minus'" if bad == 0 else "'negated'"
        message = (
            f"generation {cohort.generation} {cohort.phase} {engagement.kind} engagement "
            f"{engagement.pair_index} (attacker {engagement.attacker_id}, defender {engagement.defender_id}) "
            f"has defender score {d!r}, which is not {rules} of its attacker score {a!r}, bit for bit"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            store.add_run(record, {}, *inputs)
        assert [p.name for p in store.root.iterdir()] == []

    def test_outcome_of_one_value_is_written_in_every_row(self, tmp_path):
        # ScriptedEnvironment scores every engagement 0.0 to -0.0 and charges
        # nothing. With no cost or telemetry a reference would be as wide as the
        # attacker's score, so every row writes it; the defender's score reads
        # back as -0.0, bit for bit.
        grammar = coevarena.parse_bnf("<s> ::= a | b")
        cfg = EvolutionConfig(generations=2, attacker_population=3, defender_population=3)
        record = coevarena.run_alternating(cfg, grammar, grammar, ScriptedEnvironment())
        inputs = [tmp_path / name for name in ("a.bnf", "d.bnf", "s.cfg")]
        for path in inputs:
            path.write_text("<s> ::= a | b\n", encoding="utf-8")
        manifest = {
            "format_version": FORMAT_VERSION,
            "run_id": record.run_id,
            "seed": cfg.master_seed,
            "environment": ScriptedEnvironment.environment_id,
            "algorithm_label": "alternating",
            "config": record.config.to_dict(),
            **{key: {"sha256": store_module.sha256_file(p)} for key, p in zip(store_module.STORED_INPUTS, inputs)},
        }
        store = ResultsStore(tmp_path / "store")
        run = store.load(store.add_run(record, manifest, *inputs))
        header, *items = map(json.loads, (run.run_dir / "engagements.jsonl").read_text().splitlines())
        assert header["defender_score"] == "negated"
        rows = [item for item in items if type(item[0]) is int]
        assert len(rows) == sum(len(cohort.engagements) for cohort in record.cohorts) > 0
        assert all(row[4:] == [0.0] and type(row[4]) is float for row in rows)
        scores = {(r["attacker_score"].hex(), r["defender_score"].hex()) for r in run.engagement_records()}
        assert scores == {("0x0.0p+0", "-0x0.0p+0")}

    @pytest.mark.parametrize(
        "row",
        ["[]", "[0,0,0,0]", "[0,0,0,0,0,0]", "[0,0,0,0,0,0,0,0,0]", "[0,0,0,0,0,0,0,0,0,0,0]", "5", '"x"',
         '{"record": "population", "generation": 3, "phase": "attacker"}'],
    )
    def test_row_that_is_not_the_headers_is_one_corrupt_record(self, tmp_path, row):
        log, records = edited_records(tmp_path, lambda lines: [*lines, row])
        number = len(log.read_text().splitlines())
        with pytest.raises(CorruptRecord, match=re.escape(f"{log} line {number} is not a row of the header's 10 values")):
            list(records)

    @pytest.mark.parametrize("reference", ["next", -1, 0.0, "0", True, None])
    def test_reference_to_no_written_outcome_is_one_corrupt_record(self, tmp_path, reference):
        def edit(lines):
            written = sum(type(row[0]) is int and len(row) == 10 for row in map(json.loads, lines[1:]))
            n = written if reference == "next" else reference
            return [*lines, json.dumps([0, 0, 0, 0, n])]

        log, records = edited_records(tmp_path, edit)
        number = len(log.read_text().splitlines())
        with pytest.raises(CorruptRecord, match=re.escape(f"{log} line {number} refers to outcome")):
            list(records)

    def test_first_row_that_refers_to_an_outcome_is_one_corrupt_record(self, tmp_path):
        # Line 5 is the log's first row: no outcome is written before it.
        def edit(lines):
            assert all(type(json.loads(line)[0]) is str for line in lines[1:4])
            assert type(json.loads(lines[4])[0]) is int
            return [*lines[:4], json.dumps([*json.loads(lines[4])[:4], 0]), *lines[5:]]

        log, records = edited_records(tmp_path, edit)
        message = f"{log} line 5 refers to outcome 0, but 0 are written before it"
        with pytest.raises(CorruptRecord, match=re.escape(message)):
            list(records)

    @pytest.mark.parametrize("kind", [2, -1, 0.5, True, None])
    @pytest.mark.parametrize("shape", ["values", "reference"])
    def test_kind_that_is_not_an_index_into_kinds_is_one_corrupt_record(self, tmp_path, kind, shape):
        def edit(lines):
            row = json.loads(lines[4]) if shape == "values" else [0, 0, 0, 0, 0]
            return [*lines, json.dumps([kind, *row[1:]])]

        log, records = edited_records(tmp_path, edit)
        number = len(log.read_text().splitlines())
        message = f"{log} line {number} kind {kind!r} is not an index into the header's kinds"
        with pytest.raises(CorruptRecord, match=re.escape(message)):
            list(records)

    @pytest.mark.parametrize("at, name", [(1, "pair_index"), (2, "attacker_id"), (3, "defender_id")])
    @pytest.mark.parametrize("value", [-1, 0.0, "0", True, None])
    @pytest.mark.parametrize("shape", ["values", "reference"])
    def test_id_that_is_not_a_non_negative_int_is_one_corrupt_record(self, tmp_path, at, name, value, shape):
        def edit(lines):
            row = json.loads(lines[4]) if shape == "values" else [0, 0, 0, 0, 0]
            row[at] = value
            return [*lines, json.dumps(row)]

        log, records = edited_records(tmp_path, edit)
        number = len(log.read_text().splitlines())
        message = f"{log} line {number} {name} {value!r} is not a non-negative int"
        with pytest.raises(CorruptRecord, match=re.escape(message)):
            list(records)

    @pytest.mark.parametrize("at, name", [(2, "attacker_id"), (3, "defender_id")])
    @pytest.mark.parametrize("value", [4, 99])
    @pytest.mark.parametrize("shape", ["values", "reference"])
    def test_id_outside_the_population_is_one_corrupt_record(self, tmp_path, at, name, value, shape):
        # the small store's populations are 4 a side, so ids 0 to 3
        def edit(lines):
            row = json.loads(lines[4]) if shape == "values" else [0, 0, 0, 0, 0]
            row[at] = value
            return [*lines, json.dumps(row)]

        log, records = edited_records(tmp_path, edit)
        number = len(log.read_text().splitlines())
        message = f"{log} line {number} {name} {value} is not below the population size 4"
        with pytest.raises(CorruptRecord, match=re.escape(message)):
            list(records)

    @pytest.mark.parametrize("shape", ["values", "reference"])
    def test_candidate_pair_index_past_the_pair_count_is_one_corrupt_record(self, tmp_path, shape):
        # the small store's one-vs-one half-steps have 4 pairs, so pair indices 0 to 3
        def edit(lines):
            row = json.loads(lines[4]) if shape == "values" else [0, 0, 0, 0, 0]
            return [*lines, json.dumps([0, 4, *row[2:]])]

        log, records = edited_records(tmp_path, edit)
        number = len(log.read_text().splitlines())
        message = f"{log} line {number} pair_index 4 is not below the pair count 4"
        with pytest.raises(CorruptRecord, match=re.escape(message)):
            list(records)

    @pytest.mark.parametrize("phase, opponent", [("attacker", "defender_id"), ("defender", "attacker_id")])
    def test_incumbent_pair_index_other_than_its_opponent_id_is_one_corrupt_record(
        self, tmp_path, phase, opponent
    ):
        # Incumbent job j plays opponent j. After the phase's last population line
        # (line `population`), job 2 against opponent 2 loads; against opponent 1 it does not.
        def incumbent_row(theirs):
            return json.dumps([1, 2, 0, theirs, 0] if phase == "attacker" else [1, 2, theirs, 0, 0])

        population = None

        def edit(lines):
            nonlocal population
            population = max(i for i, line in enumerate(lines) if line.startswith(f'["{phase}",')) + 1
            return [*lines[:population], incumbent_row(2), incumbent_row(1), *lines[population:]]

        log, records = edited_records(tmp_path, edit)
        message = f"{log} line {population + 2} incumbent pair_index 2 is not its {opponent} 1"
        with pytest.raises(CorruptRecord, match=re.escape(message)):
            list(records)

    @pytest.mark.parametrize("at", [4, 5, 6, 9])
    # json.dumps writes NaN and the infinities as NaN, Infinity and -Infinity, which json.loads reads
    @pytest.mark.parametrize("value", ["0.5", True, None, [], {}, math.nan, math.inf, -math.inf])
    def test_outcome_value_that_is_not_a_number_is_one_corrupt_record(self, tmp_path, at, value):
        def edit(lines):
            row = json.loads(lines[4])
            row[at] = value
            return [*lines, json.dumps(row)]

        log, records = edited_records(tmp_path, edit)
        header = json.loads(log.read_text().splitlines()[0])
        name = [*header["columns"][4:], *header["cost_keys"], *header["telemetry_keys"]][at - 4]
        number = len(log.read_text().splitlines())
        message = f"{log} line {number} {name} {value!r} is not a JSON number"
        with pytest.raises(CorruptRecord, match=re.escape(message)):
            list(records)

    def test_attacker_score_beyond_a_float_is_one_corrupt_record(self, tmp_path):
        # the small store is ddos's: its defender scores are 1.0 - a, and a JSON
        # int of 400 digits is no float
        def edit(lines):
            row = json.loads(lines[4])
            return [*lines, json.dumps([*row[:4], 10**400, *row[5:]])]

        log, records = edited_records(tmp_path, edit)
        number = len(log.read_text().splitlines())
        message = f"{log} line {number} attacker_score {10**400!r} is not a JSON number"
        with pytest.raises(CorruptRecord, match=re.escape(message)):
            list(records)

    def test_run_holding_a_non_finite_value_is_refused_and_nothing_is_left(self, tmp_path):
        # An infinite attacker cost is a row value, and with a secondary weight
        # it gives a -inf fitness: the reader would refuse both.
        grammar = coevarena.parse_bnf("<s> ::= a | b")
        cfg = EvolutionConfig(generations=1, attacker_population=3, defender_population=3, secondary_weight=0.5)
        environment = ScriptedEnvironment(cost_fn=lambda attack, defense: (math.inf, 0.0))
        record = coevarena.run_alternating(cfg, grammar, grammar, environment)
        assert record.half_steps[0].best_fitness == -math.inf
        inputs = [tmp_path / name for name in ("a.bnf", "d.bnf", "s.cfg")]
        for path in inputs:
            path.write_text("", encoding="utf-8")
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            store.add_run(record, {}, *inputs)
        assert [p.name for p in store.root.iterdir()] == []

    @pytest.mark.parametrize(
        "edit, number, message",
        [
            (lambda lines: [lines[0], *lines[4:]], 2, "is a row before any population line"),
            # appended: the small store's populations are 4 a side, its generations 0 to 2
            *(
                (lambda lines, line=line: [*lines, line], -1, message)
                for line, message in [
                    ('["attacker"]', "is not a population line of phase, generation, replaced and 4 genotypes"),
                    (population_line(genotypes=["AAAA"] * 5), "replaced and 4 genotypes"),
                    (population_line(phase="candidate"), "phase 'candidate' is not a role"),
                    *((population_line(generation=g), f"generation {g!r} is not an int") for g in ["3", 3.0, True, None]),
                    *(
                        (population_line(replaced=r), f"replaced {r!r} is not null or an id below 4")
                        for r in ["0", -1, 4, True, 0.5]
                    ),
                    *(
                        (population_line(genotypes=["AAAA", "AAAA", "AAAA", g]), f"genotype {g!r} is not a string")
                        for g in [5, None, []]
                    ),
                    (population_line(), "is a population line past the config echo's 2 generations"),
                ]
            ),
        ],
    )
    def test_population_line_out_of_place_is_one_corrupt_record(self, tmp_path, edit, number, message):
        log, records = edited_records(tmp_path, edit)
        number = number if number > 0 else len(log.read_text().splitlines())
        with pytest.raises(CorruptRecord, match=re.escape(f"{log} line {number} ") + ".*" + re.escape(message)):
            list(records)

    # not base64; 0 bytes; 3 and 1 bytes, no whole number of 2-byte codons;
    # a character outside ASCII; a line break, which validate=True refuses
    @pytest.mark.parametrize("genotype", ["!!!", "AAA", "", "AAAA", "AA==", "\u00e9AA=", "AAA=\n"])
    def test_genotype_that_does_not_decode_is_one_corrupt_record(self, tmp_path, genotype):
        def edit(lines):
            defenders = json.loads(lines[2])  # generation 0's, in place
            defenders[3] = genotype
            return [*lines[:2], json.dumps(defenders), *lines[3:]]

        log, records = edited_records(tmp_path, edit)
        message = f"{log} line 3 genotype {genotype!r} is not base64 of one or more 2-byte codons below 65536"
        with pytest.raises(CorruptRecord, match=re.escape(message)):
            list(records)

    # the small store's genotypes hold 6 to 24 codons
    @pytest.mark.parametrize("length", [5, 25])
    def test_genotype_of_a_length_outside_the_limits_is_one_corrupt_record(self, tmp_path, length):
        genotype = encode_genotype([7] * length, 2)

        def edit(lines):
            attackers = json.loads(lines[1])
            attackers[3] = genotype
            return [lines[0], json.dumps(attackers), *lines[2:]]

        log, records = edited_records(tmp_path, edit)
        message = f"{log} line 2 genotype {genotype!r} is not of 6 to 24 codons: it holds {length}"
        with pytest.raises(CorruptRecord, match=re.escape(message)):
            list(records)

    def test_genotype_of_a_codon_at_or_above_codon_max_is_one_corrupt_record(self, tmp_path):
        # the echo's codon_max cut to 1000 keeps the 2-byte width; the run's
        # codons were drawn below 65536, so the half-steps' best genotypes are
        # cut below 1000 too, and the small store's genotypes hold 6 codons or more
        def edit(lines):
            attackers = json.loads(lines[1])
            attackers[3] = encode_genotype([999] * 6, 2)
            attackers[4] = encode_genotype([0] * 5 + [1000], 2)
            return [lines[0], json.dumps(attackers), *lines[2:]]

        log, _ = edited_records(tmp_path, edit)
        manifest_path = log.parent / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps({**manifest, "config": {**manifest["config"], "codon_max": 1000}}))
        halfsteps = log.parent / "halfsteps.jsonl"
        header, *steps = map(json.loads, halfsteps.read_text().splitlines())
        for step in steps:
            step["best_genotype"] = [codon % 1000 for codon in step["best_genotype"]]
        halfsteps.write_text("".join(json.dumps(line) + "\n" for line in (header, *steps)))
        records = ResultsStore(log.parent.parent).load(log.parent.name).engagement_records()
        genotype = encode_genotype([0] * 5 + [1000], 2)
        message = f"{log} line 2 genotype {genotype!r} is not base64 of one or more 2-byte codons below 1000"
        with pytest.raises(CorruptRecord, match=re.escape(message)):
            list(records)

    @pytest.mark.parametrize(
        "edit, at, message",
        [
            # blocks[i] is population line i and its rows: generations 0, 1 and 2, attacker first
            (lambda b: [*b[:4], [b[4][0].replace('["attacker",2,', '["attacker",7,'), *b[4][1:]], *b[5:]], 4,
             "is the population line of generation 7 attacker, not of generation 2 attacker"),
            (lambda b: [b[1], b[0], *b[2:]], 0,
             "is the population line of generation 0 defender, not of generation 0 attacker"),
            (lambda b: [*b[:4], b[3][:1], *b[4:]], 4,
             "is the population line of generation 1 defender, not of generation 2 attacker"),
            (lambda b: [*b[:3], *b[4:]], 3,
             "is the population line of generation 2 attacker, not of generation 1 defender"),
            (lambda b: [*b, b[5][:1]], 6, "is a population line past the config echo's 2 generations"),
            (lambda b: b[:5], None, "ends before the population line of generation 2 defender"),
        ],
    )
    def test_population_lines_out_of_order_are_one_corrupt_record(self, tmp_path, edit, at, message):
        # A lost, repeated or swapped population line, each with or without its
        # rows, or one whose generation moved: the reader names the first line
        # that is not the next population line, or the log that ends before it.
        def edit_blocks(lines):
            starts = [i for i, line in enumerate(lines) if line.startswith('["')]
            blocks = [lines[start:end] for start, end in zip(starts, [*starts[1:], len(lines)])]
            assert len(blocks) == 6 and all(len(block) == 1 for block in blocks[:2])
            return [lines[0], *(line for block in edit(blocks) for line in block)]

        log, records = edited_records(tmp_path, edit_blocks)
        numbers = [n for n, line in enumerate(log.read_text().splitlines(), 1) if line.startswith('["')]
        where = f"{log} ends" if at is None else f"{log} line {numbers[at]} is"
        with pytest.raises(CorruptRecord, match=re.escape(where) + " " + re.escape(message.split(" ", 1)[1])):
            list(records)

    @pytest.mark.parametrize(
        "edit, message",
        [
            *(
                (edit, "is not this run's header")
                for edit in [
                    lambda header: {"record": "halfstep"},
                    lambda header: {"format_version": 2},
                    lambda header: {"run": "other-s1"},
                    lambda header: {"codon_bytes": 4},
                    lambda header: {"kinds": ["incumbent", "candidate"]},
                    lambda header: {"columns": header["columns"][::-1]},
                    lambda header: {"columns": [*header["columns"], "defender_score"]},
                ]
            ),
            # ... drops the key
            (lambda header: {"defender_score": ...}, "lacks key 'defender_score'"),
            *(
                (lambda header, rule=rule: {"defender_score": rule},
                 f"key 'defender_score' is not 'negated' | 'one_minus': {rule!r}")
                for rule in ["minus_one", "", None, 1, ["one_minus"], {}]
            ),
        ],
    )
    def test_header_that_is_not_the_runs_is_one_corrupt_record(self, tmp_path, edit, message):
        def edit_header(lines):
            header = {**json.loads(lines[0]), **edit(json.loads(lines[0]))}
            return [json.dumps({key: value for key, value in header.items() if value is not ...}), *lines[1:]]

        log, records = edited_records(tmp_path, edit_header)
        with pytest.raises(CorruptRecord, match=re.escape(f"{log} line 1 {message}")):
            list(records)

    def test_another_runs_log_is_one_corrupt_record(self, tmp_path, ddos_scenario_file):
        config = write_experiment_config(tmp_path, "ddos", ddos_scenario_file, repetitions=2)
        store_dir = tmp_path / "store"
        assert run_cli("run", "--config", config, "--store", store_dir, "--quiet") == 0
        store = ResultsStore(store_dir)
        first, second = (store_dir / entry["dir"] for entry in store.entries())
        logs = [(run_dir / "engagements.jsonl").read_bytes() for run_dir in (first, second)]
        (first / "engagements.jsonl").write_bytes(logs[1])
        (second / "engagements.jsonl").write_bytes(logs[0])
        for run_dir in (first, second):
            records = store.load(run_dir.name).engagement_records()
            message = f"{run_dir / 'engagements.jsonl'} line 1 is not this run's header"
            with pytest.raises(CorruptRecord, match=re.escape(message)):
                list(records)


@pytest.fixture(scope="module")
def shipped_records(tmp_path_factory):
    """(run directory, RunRecord add_run stored there) of each shipped config at its pinned seed."""
    runs, records = {}, []
    add_run = ResultsStore.add_run

    def keep(store, record, *args):
        records.append(record)
        return add_run(store, record, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ResultsStore, "add_run", keep)
        for name, seed in (("ddos_smoke.cfg", 11), ("contagion_star.cfg", 7)):
            store_dir = tmp_path_factory.mktemp("shipped") / name
            config = data_path("configs", name)
            assert run_cli("run", "--config", config, "--seed", seed, "--store", store_dir, "--quiet") == 0
            runs[name, seed] = store_dir / ResultsStore(store_dir).entries()[0]["dir"], records[-1]
    return runs


@pytest.fixture(scope="module")
def shipped_runs(shipped_records):
    """The run directory of each shipped config at its pinned seed."""
    return {key: run_dir for key, (run_dir, _) in shipped_records.items()}


@functools.cache
def small_ddos_store():
    """(holder, store directory, run directory name, locations) of one stored
    two-generation ddos run, built once per test process. The holder removes
    the directory when the process exits.

    A location is (file name, line index, key path) of one JSON value in the
    index line, the manifest, a halfsteps.jsonl line or an engagements.jsonl
    line but a row; of a list, only its first item is one, but of a population
    line its first four: phase, generation, replaced and a genotype.
    """
    holder = tempfile.TemporaryDirectory(prefix="coevarena-small-store-")
    root = Path(holder.name)
    scenario = root / "ring5.scenario"
    scenario.write_text(SMALL_DDOS_SCENARIO, encoding="utf-8")
    config = write_experiment_config(root, "ddos", scenario, generations=2)
    store_dir = root / "store"
    assert run_cli("run", "--config", config, "--store", store_dir, "--quiet") == 0

    def paths(value, path=()):
        yield path
        first = 4 if path == () else 1
        items = value.items() if type(value) is dict else enumerate(value[:first]) if type(value) is list else ()
        for key, item in items:
            yield from paths(item, (*path, key))

    run_dir = ResultsStore(store_dir).entries()[0]["dir"]
    locations = []
    for name in ("index.jsonl", "manifest.json", "halfsteps.jsonl", "engagements.jsonl"):
        for number, document in enumerate(json_documents(store_file(store_dir, run_dir, name))):
            value = json.loads(document)
            if type(value) is not list or type(value[0]) is str:
                locations.extend((name, number, path) for path in paths(value))
    return holder, store_dir, run_dir, locations


def edited_records(tmp_path: Path, edit):
    """(log path, engagement_records()) of a copy of the small ddos store whose
    engagements.jsonl lines are edit(lines)."""
    _, source, run_dir, _ = small_ddos_store()
    store_dir = Path(shutil.copytree(source, tmp_path / "store"))
    log = store_dir / run_dir / "engagements.jsonl"
    lines = edit(log.read_text(encoding="utf-8").splitlines())
    log.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return log, ResultsStore(store_dir).load(run_dir).engagement_records()


def store_file(store_dir: Path, run_dir: str, name: str) -> Path:
    return store_dir / name if name == "index.jsonl" else store_dir / run_dir / name


def json_documents(path: Path) -> list[str]:
    """The JSON documents of a store file: the manifest's one, or one per line."""
    text = path.read_text(encoding="utf-8")
    return [text] if path.name == "manifest.json" else text.splitlines()


@settings(max_examples=450, deadline=None)
@given(
    location=st.deferred(lambda: st.sampled_from(small_ddos_store()[3])),
    value=st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 2**70),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=3),
        st.lists(st.integers(0, 3), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
        st.sampled_from([1e999, -1e999, math.nan]),
    ),
)
@example(location=("manifest.json", 0, ("environment",)), value=["ddos"])
def test_no_stored_value_gives_a_traceback(location, value):
    # One stored value replaced by a value of another type, or by a
    # non-finite one: inspect and establo each exit 0, or exit 1 with one
    # error line, and never end in a traceback.
    _, source, run_dir, _ = small_ddos_store()
    name, number, path = location
    documents = json_documents(store_file(source, run_dir, name))
    document = json.loads(documents[number])
    parent, old = None, document
    for key in path:
        parent, old = old, old[key]
    assume(type(value) is not type(old) or type(value) is float and not math.isfinite(value))
    if parent is None:
        document = value
    else:
        parent[path[-1]] = value
    documents[number] = json.dumps(document)
    with tempfile.TemporaryDirectory() as scratch:
        store_dir = Path(shutil.copytree(source, Path(scratch) / "store"))
        store_file(store_dir, run_dir, name).write_text("\n".join(documents) + "\n", encoding="utf-8")
        for argv in (["inspect", run_dir], ["establo", "--out", Path(scratch) / "out", "--quiet"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = run_cli(*argv, "--store", store_dir)
            lines = err.getvalue().splitlines()
            assert status == 0 or status == 1 and len(lines) == 1 and lines[0].startswith("error: "), (
                argv, lines
            )
