"""Each input check fed what a user would write: a scenario file through
load_scenario, a config file or flag through main, a grammar through
parse_bnf and a stored run through inspect or establo. Each case asserts the
error type and its whole message; on the command line, one ``error:`` line."""

import json
import shutil
from pathlib import Path

import pytest

from coevarena.cli import main
from coevarena.engagement import ScenarioError
from coevarena.envs import contagion, ddos
from coevarena.grammar import GrammarSyntaxError, parse_bnf
from coevarena.store import ResultsStore

from conftest import SMALL_CONTAGION_SCENARIO, SMALL_DDOS_SCENARIO, write_experiment_config


def one_error_line(capsys, argv) -> str:
    """The one stderr line of ``main(argv)``, which must exit 1."""
    assert main([str(arg) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    return err.rstrip("\n")


def written(path: Path, text: str, old: str, new: str) -> Path:
    """path holding text with its one occurrence of old replaced by new."""
    assert text.count(old) == 1, old
    path.write_text(text.replace(old, new), encoding="utf-8")
    return path


def task(source, destination, start, deadline, deliveries):
    return repr(ddos.Task(source, destination, start, deadline, deliveries))


DDOS_TASKS = "tasks =\n    n0 n2 0 10 2\n    n1 n4 0 11 2\n"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("horizon = 12", "horizon = 0", "horizon must be >= 1"),
        ("attack_budget = 30", "attack_budget = 0", "attack budget must be >= 1"),
        ("nodes = n0 n1 n2 n3 n4", "nodes = n0 n1 n2 n3 n3", "nodes must be non-empty and unique"),
        (DDOS_TASKS, "tasks =\n", "scenario needs at least one task"),
        ("n1 n4 0 11 2", "n1 n9 0 11 2", f"task references unknown node: {task('n1', 'n9', 0, 11, 2)}"),
        ("n1 n4 0 11 2", "n1 n4 0 11 0", f"task needs >= 1 delivery: {task('n1', 'n4', 0, 11, 0)}"),
        ("n1 n4 0 11 2", "n1 n4 0 11", "task line needs 'src dst start deadline deliveries': 'n1 n4 0 11'"),
        ("n4-n0", "n4n0", "bad pair token 'n4n0'"),
        ("n4-n0", "n4-n9", "bad edge n4-n9"),
    ],
)
def test_ddos_scenario_check(tmp_path, old, new, message):
    path = written(tmp_path / "net.scenario", SMALL_DDOS_SCENARIO, old, new)
    with pytest.raises(ScenarioError) as caught:
        ddos.load_scenario(path)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("sizes = 3 3 3", "sizes = 3 0 3", "every enclave needs at least one device"),
        ("cleanse_duration = 2", "cleanse_duration = -1", "cleanse_duration must be >= 0"),
        ("trials = 5", "trials = 0", "trials must be >= 1"),
        ("horizon = 15", "horizon = 0", "horizon must be >= 1"),
        ("mission_devices = 2", "mission_devices = -1", "mission_devices must be >= 0"),
        ("mission_devices = 2", "mission_devices = 10", "more mission devices than device slots"),
        ("links = 0-1 1-2", "links = 0-1 12", "bad pair token '12'"),
        ("links = 0-1 1-2", "links = 0-1 1-3", "bad inter-enclave link 1-3"),
    ],
)
def test_contagion_scenario_check(tmp_path, old, new, message):
    path = written(tmp_path / "net.scenario", SMALL_CONTAGION_SCENARIO, old, new)
    with pytest.raises(ScenarioError) as caught:
        contagion.load_scenario(path)
    assert str(caught.value) == message


@pytest.fixture
def config(tmp_path):
    """A runnable ddos experiment config whose store is under tmp_path."""
    scenario = tmp_path / "net.scenario"
    scenario.write_text(SMALL_DDOS_SCENARIO, encoding="utf-8")
    return write_experiment_config(tmp_path, "ddos", scenario, store=tmp_path / "store")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("selection = tournament:3", "selection = tournament:0",
         "[evolution] selection: bad value 'tournament:0' (tournament size must be >= 1)"),
        ("selection = tournament:3", "selection = truncation:1.5",
         "[evolution] selection: bad value 'truncation:1.5' (truncation fraction must be in (0, 1])"),
        ("selection = tournament:3", "selection = roulette",
         "[evolution] selection: bad value 'roulette' (unknown selection scheme 'roulette')"),
        ("structure = one-vs-one", "structure = tournament:0",
         "[evolution] structure: bad value 'tournament:0' (tournament rounds must be >= 1)"),
        ("structure = one-vs-one", "structure = spatial:0x3",
         "[evolution] structure: bad value 'spatial:0x3' (spatial grid side must be >= 1)"),
        ("structure = one-vs-one", "structure = ring",
         "[evolution] structure: bad value 'ring' (unknown competition structure 'ring')"),
        ("[genotype]", "[mapping]\nmax_derivation_steps = 0\n\n[genotype]",
         "[mapping]: max_derivation_steps must be >= 1"),
    ],
)
def test_config_check(capsys, config, old, new, message):
    written(config, config.read_text(encoding="utf-8"), old, new)
    assert one_error_line(capsys, ["run", "--config", config]) == f"error: ConfigError: config {message}"


def test_config_file_not_found(capsys, tmp_path):
    missing = tmp_path / "missing.cfg"
    assert one_error_line(capsys, ["run", "--config", missing]) == (
        f"error: ConfigError: config file not found: {missing}"
    )


def test_negative_seed_flag(capsys, config):
    assert one_error_line(capsys, ["run", "--config", config, "--seed", "-1"]) == (
        "error: ConfigError: --seed must be >= 0"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("a ::= b", "line 1: left-hand side 'a' is not a <nonterminal>"),
        ("<s> ::= c\n<a b> ::= c", "line 2: invalid nonterminal name 'a b'"),
        ("<a<b> ::= c", "line 1: invalid nonterminal name 'a<b'"),
    ],
)
def test_grammar_check(text, message):
    with pytest.raises(GrammarSyntaxError) as caught:
        parse_bnf(text)
    assert str(caught.value) == message


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """(store directory, run directory) of one stored one-generation ddos run."""
    root = tmp_path_factory.mktemp("stored")
    scenario = root / "net.scenario"
    scenario.write_text(SMALL_DDOS_SCENARIO, encoding="utf-8")
    config = write_experiment_config(root, "ddos", scenario, generations=1)
    assert main(["run", "--config", str(config), "--store", str(root / "store"), "--quiet"]) == 0
    store = root / "store"
    return store, store / ResultsStore(store).entries()[0]["dir"]


@pytest.fixture
def store_copy(stored, tmp_path):
    """(store directory, run directory) of a copy of the stored run."""
    store, run_dir = stored
    copy = Path(shutil.copytree(store, tmp_path / "store"))
    return copy, copy / run_dir.name


def edit_manifest(run_dir: Path, edit) -> Path:
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def test_stored_negative_master_seed(capsys, store_copy):
    store, run_dir = store_copy
    path = edit_manifest(run_dir, lambda manifest: manifest["config"].update(master_seed=-1))
    assert one_error_line(capsys, ["inspect", run_dir.name, "--store", store]) == (
        f"error: CorruptRecord: {path} key 'config' does not load: ValueError master_seed must be >= 0"
    )


def test_stored_unknown_environment(capsys, store_copy, tmp_path):
    store, run_dir = store_copy
    edit_manifest(run_dir, lambda manifest: manifest.update(environment="bogus"))
    argv = ["establo", "--store", store, "--out", tmp_path / "reports"]
    assert one_error_line(capsys, argv) == (
        "error: ScenarioError: unknown environment 'bogus'; known: ['contagion', 'ddos']"
    )


def test_stored_manifest_that_does_not_parse(capsys, store_copy):
    store, run_dir = store_copy
    (run_dir / "manifest.json").write_text('{"run_id": ', encoding="utf-8")
    assert one_error_line(capsys, ["inspect", run_dir.name, "--store", store]) == (
        f"error: CorruptRecord: run directory {run_dir} is unreadable: "
        "Expecting value: line 1 column 12 (char 11)"
    )


def test_establo_scenario_not_found(capsys, stored, tmp_path):
    store, _ = stored
    missing = tmp_path / "missing.scenario"
    argv = ["establo", "--store", store, "--scenario", missing, "--out", tmp_path / "reports"]
    assert one_error_line(capsys, argv) == f"error: ConfigError: --scenario: file not found: {missing}"
