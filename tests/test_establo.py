import hashlib
import json
import shutil

import numpy as np
import pytest

from coevarena.cli import main
from coevarena.data import data_path
from coevarena.engine.rng import Key
from coevarena.establo import (
    CompendiumEntry,
    GrammarMismatch,
    PayoffMatrix,
    _select_champions,
    build_compendium,
    cross_tournament,
    emit_report,
    pure_nash_pairs,
    rank,
)
from coevarena.grammar import Strategy
from coevarena.store import CorruptRecord, ResultsStore

from conftest import ScriptedEnvironment, hash_score, write_experiment_config
from oracles import nash_oracle, pareto_oracle


@pytest.fixture
def ddos_store(tmp_path, ddos_scenario_file):
    config = write_experiment_config(
        tmp_path, "ddos", ddos_scenario_file, generations=6, population=4, repetitions=2, seed=41
    )
    store_dir = tmp_path / "store"
    assert main(["run", "--config", str(config), "--store", str(store_dir), "--quiet"]) == 0
    return store_dir


def entry(role, name, sentence_text, algorithm="alternating", generation=1):
    return CompendiumEntry(
        entry_id=name,
        role=role,
        run_id="synthetic",
        algorithm=algorithm,
        generation=generation,
        strategy=Strategy(tuple(sentence_text.split())),
    )


def matrix_of(cells, context="ctx"):
    return PayoffMatrix(
        context=context,
        attacker_ids=tuple(f"A{i}" for i in range(len(cells))),
        defender_ids=tuple(f"D{j}" for j in range(len(cells[0]))),
        cells=tuple(tuple(float(v) for v in row) for row in cells),
    )


class TestBuildCompendium:
    def test_best_per_generation_stride_bounds(self, ddos_store):
        runs = ResultsStore(ddos_store).load_all()
        entries = build_compendium(runs, "best-per-generation", stride=1)
        per_run_role = {}
        for item in entries:
            per_run_role.setdefault((item.run_id, item.role), []).append(item)
        # <= 6 per run and role; duplicates collapse
        assert all(len(group) <= 6 for group in per_run_role.values())
        strided = build_compendium(runs, "best-per-generation", stride=5)
        assert all(item.generation in (1, 6) for item in strided)

    def test_best_per_run_is_single_entry(self, ddos_store):
        runs = ResultsStore(ddos_store).load_all()
        entries = build_compendium(runs, "best-per-run", stride=1)
        seen_roles = {}
        for item in entries:
            key = (item.run_id, item.role)
            assert key not in seen_roles
            seen_roles[key] = item

    def test_pareto_per_run_matches_oracle(self, ddos_store):
        runs = ResultsStore(ddos_store).load_all()
        entries = build_compendium(runs, "pareto-per-run", stride=1)
        chosen = {
            (item.run_id, item.role): sorted(
                e.generation for e in entries if (e.run_id, e.role) == (item.run_id, item.role)
            )
            for item in entries
        }
        for run in runs:
            run_id = run.manifest["run_id"]
            for role in ("attacker", "defender"):
                steps = [
                    s
                    for s in run.half_steps
                    if s["phase"] == role and s["best_sentence"] is not None
                ]
                points = [
                    (s["best_fitness"], s["best_cost"] if s["best_cost"] is not None else 0.0)
                    for s in steps
                ]
                front = {steps[i]["generation"] for i in pareto_oracle(points, ("max", "min"))}
                picked = set(chosen.get((run_id, role), []))
                # dedup may drop front members whose sentence already appeared
                assert picked <= front

    def test_pareto_per_run_reads_a_null_best_cost_as_zero(self):
        # A best with no outcomes logs a null best_cost. Read as 0.0, g1's
        # (1.0, 0.0) dominates g2's (0.5, 0.5); read as 1.0, the two trade off.
        steps = [
            {"generation": 1, "best_sentence": ["a"], "best_fitness": 1.0, "best_cost": None},
            {"generation": 2, "best_sentence": ["b"], "best_fitness": 0.5, "best_cost": 0.5},
        ]
        assert _select_champions(steps, "pareto-per-run", stride=1) == [steps[0]]

    def test_pareto_per_run_reads_a_stored_null_best_cost_as_zero(self, ddos_store):
        # The same two points as above, as the only usable defender half-steps
        # of a stored run: A "route flooding" (codon 1), B "route shortest" (0).
        store = ResultsStore(ddos_store)
        run = store.load_all()[0]
        run_dir, length = run.run_dir, run.config.limits.min_length
        halfsteps = run_dir / "halfsteps.jsonl"
        header, *steps = [json.loads(line) for line in halfsteps.read_text().splitlines()]
        a, b, *rest = [s for s in steps if s["phase"] == "defender"]
        a.update(best_genotype=[1] * length, best_sentence=["route", "flooding"], best_fitness=1.0, best_cost=None)
        b.update(best_genotype=[0] * length, best_sentence=["route", "shortest"], best_fitness=0.5, best_cost=0.5)
        for step in rest:
            step["best_sentence"] = None
        halfsteps.write_text("".join(json.dumps(line) + "\n" for line in (header, *steps)))
        entries = build_compendium([store.load(run_dir.name)], "pareto-per-run", stride=1)
        assert [e.strategy.sentence for e in entries if e.role == "defender"] == [("route", "flooding")]

    def test_sentences_deduplicate(self, ddos_store):
        runs = ResultsStore(ddos_store).load_all()
        entries = build_compendium(runs, "best-per-generation", stride=1)
        seen = set()
        for item in entries:
            key = (item.role, item.strategy.sentence)
            assert key not in seen
            seen.add(key)

    def test_tampered_sentence_raises_grammar_mismatch(self, ddos_store):
        store = ResultsStore(ddos_store)
        run = store.load_all()[0]
        halfsteps = run.run_dir / "halfsteps.jsonl"
        lines = halfsteps.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record.get("record") == "halfstep" and record["best_sentence"]:
                record["best_sentence"] = ["bogus", "tokens"]
                lines[i] = json.dumps(record, sort_keys=True, separators=(",", ":"))
                break
        halfsteps.write_text("\n".join(lines) + "\n")
        with pytest.raises(GrammarMismatch):
            build_compendium(store.load_all(), "best-per-generation", stride=1)

    def test_genotype_that_no_longer_maps_raises_grammar_mismatch(self, ddos_store):
        # Codon 1 picks <actions> and then "<action> <actions>" at every
        # choice, so the attack grammar never finishes and wrapping runs out.
        store = ResultsStore(ddos_store)
        run = store.load_all()[0]
        halfsteps = run.run_dir / "halfsteps.jsonl"
        header, *steps = [json.loads(line) for line in halfsteps.read_text().splitlines()]
        step = next(s for s in steps if s["phase"] == "attacker" and s["best_sentence"])
        step["best_genotype"] = [1] * run.config.limits.min_length
        halfsteps.write_text("".join(json.dumps(line) + "\n" for line in (header, *steps)))
        with pytest.raises(GrammarMismatch, match="recorded genotype no longer maps"):
            build_compendium(store.load_all(), "best-per-generation", stride=1)

    def test_tampered_grammar_copy_raises_corrupt_record(self, ddos_store):
        store = ResultsStore(ddos_store)
        run = store.load_all()[0]
        grammar_copy = run.run_dir / "attack.bnf"
        grammar_copy.write_text(grammar_copy.read_text() + "\n# tampered\n")
        with pytest.raises(CorruptRecord):
            build_compendium(store.load_all(), "best-per-generation", stride=1)


class TestCrossTournament:
    ENTRIES = [
        entry("attacker", "A0", "jab hook"),
        entry("attacker", "A1", "feint"),
        entry("defender", "D0", "block"),
        entry("defender", "D1", "parry dodge"),
        entry("defender", "D2", "brace"),
    ]

    def test_cell_count_and_shape(self):
        matrix = cross_tournament(self.ENTRIES, ScriptedEnvironment(hash_score), seed=3, context="ctx")
        assert matrix.attacker_ids == ("A0", "A1")
        assert matrix.defender_ids == ("D0", "D1", "D2")
        assert len(matrix.cells) == 2 and all(len(row) == 3 for row in matrix.cells)

    def test_rerun_identical(self):
        first = cross_tournament(self.ENTRIES, ScriptedEnvironment(hash_score), seed=3, context="ctx")
        second = cross_tournament(self.ENTRIES, ScriptedEnvironment(hash_score), seed=3, context="ctx")
        assert first == second

    def test_single_cell_equals_direct_engagement(self):
        one_each = [self.ENTRIES[0], self.ENTRIES[2]]
        environment = ScriptedEnvironment(hash_score)
        matrix = cross_tournament(one_each, environment, seed=9, context="ctx")
        direct = environment.engage(one_each[0].strategy, one_each[1].strategy, Key(9, "cell", 0, 0))
        assert matrix.cells[0][0] == direct.attacker_score

    def test_needs_both_roles(self):
        with pytest.raises(ValueError):
            cross_tournament([self.ENTRIES[0]], ScriptedEnvironment(), seed=0, context="ctx")


class TestRank:
    def test_two_by_two_hand_example(self):
        # Attacker A scores [1,3], B scores [2,2]: MEU ties at 2 -> A first by
        # id; worst cases (minima) 1 vs 2 -> B first; combined ties -> A first.
        # Defender d1 concedes [1,2], d2 concedes [3,2]: d1 is better on the
        # mean (1.5 vs 2.5) and on the worst case (maxima, 2 vs 3).
        matrix = PayoffMatrix(
            context="ctx",
            attacker_ids=("A", "B"),
            defender_ids=("d1", "d2"),
            cells=((1.0, 3.0), (2.0, 2.0)),
        )
        rows = {r.entry_id: r for r in rank(matrix)}
        assert rows["A"].meu_score == 2.0 and rows["B"].meu_score == 2.0
        assert rows["A"].meu_rank == 1 and rows["B"].meu_rank == 2
        assert rows["A"].best_worst_score == 1.0 and rows["B"].best_worst_score == 2.0
        assert rows["B"].best_worst_rank == 1 and rows["A"].best_worst_rank == 2
        assert rows["A"].combined_rank == 1 and rows["B"].combined_rank == 2
        assert (rows["d1"].meu_score, rows["d2"].meu_score) == (1.5, 2.5)
        assert (rows["d1"].best_worst_score, rows["d2"].best_worst_score) == (2.0, 3.0)
        for criterion in ("meu_rank", "best_worst_rank", "combined_rank"):
            assert (getattr(rows["d1"], criterion), getattr(rows["d2"], criterion)) == (1, 2)

    def test_single_entry_ranks_one(self):
        matrix = matrix_of([[5.0]])
        for row in rank(matrix):
            assert row.meu_rank == row.best_worst_rank == row.combined_rank == 1

    def test_rank_one_under_both_is_rank_one_combined(self):
        matrix = matrix_of([[9.0, 9.0], [1.0, 1.0], [5.0, 2.0]])
        rows = {r.entry_id: r for r in rank(matrix) if r.role == "attacker"}
        assert rows["A0"].meu_rank == 1 and rows["A0"].best_worst_rank == 1
        assert rows["A0"].combined_rank == 1

    def test_ranks_are_permutations(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rows_n = int(rng.integers(1, 7))
            cols_n = int(rng.integers(1, 7))
            cells = rng.integers(0, 50, size=(rows_n, cols_n)) / 10.0
            rows = rank(matrix_of(cells.tolist()))
            for role, count in (("attacker", rows_n), ("defender", cols_n)):
                group = [r for r in rows if r.role == role]
                for criterion in ("meu_rank", "best_worst_rank", "combined_rank"):
                    assert sorted(getattr(r, criterion) for r in group) == list(range(1, count + 1))

    def test_defender_side_ranks_by_minimizing_cells(self):
        matrix = matrix_of([[3.0, 1.0], [4.0, 0.0]])
        rows = {r.entry_id: r for r in rank(matrix) if r.role == "defender"}
        # defender D1 concedes less on average and in the worst case
        assert rows["D1"].meu_rank == 1
        assert rows["D1"].best_worst_rank == 1

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            rank(PayoffMatrix(context="c", attacker_ids=(), defender_ids=(), cells=()))


class TestPureNash:
    def test_matching_pennies_has_no_pure_equilibrium(self):
        assert pure_nash_pairs(matrix_of([[1.0, -1.0], [-1.0, 1.0]])) == []

    def test_constant_matrix_returns_every_cell(self):
        pairs = pure_nash_pairs(matrix_of([[2.0, 2.0], [2.0, 2.0]]))
        assert len(pairs) == 4

    def test_dominant_strategies_single_pair(self):
        pairs = pure_nash_pairs(matrix_of([[3.0, 1.0], [2.0, 0.0]]))
        assert pairs == [("A0", "D1")]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            rows_n = int(rng.integers(1, 9))
            cols_n = int(rng.integers(1, 9))
            cells = (rng.integers(0, 6, size=(rows_n, cols_n)) / 2.0).tolist()
            matrix = matrix_of(cells)
            got = {
                (matrix.attacker_ids.index(a), matrix.defender_ids.index(d))
                for a, d in pure_nash_pairs(matrix)
            }
            assert got == set(nash_oracle(cells))


class TestEmitReport:
    ENTRIES = {
        **{name: entry("attacker", name, f"jab {name}") for name in ("A0", "A1")},
        **{name: entry("defender", name, f"block {name}") for name in ("D0", "D1")},
    }

    def make_rankings(self, context="ctx"):
        matrix = matrix_of([[2.0, 0.5], [1.0, 1.5]], context=context)
        return rank(matrix), matrix

    def test_row_count_matches_entries(self, tmp_path):
        rankings, matrix = self.make_rankings()
        emit_report(rankings, [matrix], tmp_path, self.ENTRIES)
        lines = (tmp_path / "rankings.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + 2 attackers + 2 defenders

    def test_two_contexts_two_series_per_role(self, tmp_path):
        rankings_a, matrix_a = self.make_rankings("same-run")
        rankings_b, matrix_b = self.make_rankings("unseen")
        emit_report(rankings_a + rankings_b, [matrix_a, matrix_b], tmp_path, self.ENTRIES)
        series = [json.loads(line) for line in (tmp_path / "rank_curves.jsonl").read_text().splitlines()]
        assert {(s["context"], s["role"]) for s in series} == {
            ("same-run", "attacker"),
            ("same-run", "defender"),
            ("unseen", "attacker"),
            ("unseen", "defender"),
        }

    def test_reemission_is_byte_identical(self, tmp_path):
        rankings, matrix = self.make_rankings()
        first_dir, second_dir = tmp_path / "one", tmp_path / "two"
        emit_report(rankings, [matrix], first_dir, self.ENTRIES)
        emit_report(rankings, [matrix], second_dir, self.ENTRIES)
        for name in ("rankings.csv", "payoff_ctx.csv", "rank_curves.jsonl", "summary.txt"):
            assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()

    def test_reused_directory_holds_one_report_set(self, tmp_path):
        for context in ("net", "ring9"):
            rankings, matrix = self.make_rankings(context)
            written = emit_report(rankings, [matrix], tmp_path, self.ENTRIES)
        assert sorted(tmp_path.iterdir()) == sorted(written)
        assert not (tmp_path / "payoff_net.csv").exists()

    def test_summary_names_top_entries(self, tmp_path):
        rankings, matrix = self.make_rankings()
        emit_report(rankings, [matrix], tmp_path, self.ENTRIES)
        text = (tmp_path / "summary.txt").read_text()
        assert "top by meu" in text and "top by best-worst" in text
        # A1's worst case (1.0) beats A0's (0.5); D1 concedes less on the mean.
        assert "top by best-worst: A1  jab A1" in text
        assert "top by meu:        D1  block D1" in text


def report_digests(out_dir):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out_dir.iterdir())
    }


class TestReportBytesArePinned:
    """sha256 of every report file. A rewrite of ranking or reporting must
    leave these bytes alone; a deliberate format change re-pins them."""

    def test_synthetic_entries_two_contexts_two_algorithms(self, tmp_path):
        # A0 and A2 hold the same row, so they tie under every criterion.
        entries = {
            "A0": entry("attacker", "A0", "jab low"),
            "A1": entry("attacker", "A1", "feint", algorithm="other"),
            "A2": entry("attacker", "A2", "hook"),
            "D0": entry("defender", "D0", "block", algorithm="other"),
            "D1": entry("defender", "D1", "parry dodge"),
            "D2": entry("defender", "D2", "brace"),
        }
        matrices = [
            PayoffMatrix("ring", ("A0", "A1", "A2"), ("D0", "D1", "D2"),
                         ((2.0, 0.5, 1.0), (1.0, 1.5, 1.0), (2.0, 0.5, 1.0))),
            PayoffMatrix("Star Net", ("A0", "A1", "A2"), ("D0", "D1", "D2"),
                         ((0.25, 3.0, 1.0), (1.0, 1.0, 1.0), (0.0, 2.0, 4.0))),
        ]
        rankings = [row for matrix in matrices for row in rank(matrix)]
        emit_report(rankings, matrices, tmp_path, entries)
        assert report_digests(tmp_path) == {
            "payoff_ring.csv": "353ce329b28ab75a31f0391c7c13eb04d0ae1cd73b2e3ab7e3e3cba8217c5a6b",
            "payoff_star-net.csv": "80563d6261ff0e2d999152ea723e9a2384e8e0d1d5fe678b4b129debb89bbead",
            "rank_curves.jsonl": "415d5ccfa3442754bf32c2cd1c7b2e5f0eb7bc2250bdad2212259909a31a0f3f",
            "rankings.csv": "a827145721377e21ee4fa5b6b8c5faf9e19111e713e273aef646d77a40ebaab9",
            "summary.txt": "0161a7dd6b30b89ab0b4c5b12c3757260311847bba78bc011f2c58198bc51802",
        }

    @pytest.fixture(scope="class")
    def two_algorithm_store(self, tmp_path_factory):
        """Two short ring9 runs stored under different algorithm labels."""
        directory = tmp_path_factory.mktemp("two-algorithms")
        scenario = directory / "ring9.scenario"
        shutil.copyfile(data_path("scenarios", "ring9.scenario"), scenario)
        store_dir = directory / "store"
        for seed, label in ((41, "alternating"), (42, "other")):
            config = write_experiment_config(
                directory, "ddos", scenario, name=f"{label}.cfg", generations=6, population=8, seed=seed
            )
            text = config.read_text()
            config.write_text(text.replace("[evolution]", f"algorithm_label = {label}\n\n[evolution]"))
            assert main(["run", "--config", str(config), "--store", str(store_dir), "--quiet"]) == 0
        return store_dir, scenario

    @pytest.mark.parametrize(
        "case",
        ["best-per-generation", "best-per-run", "pareto-per-run", "two-scenarios"],
    )
    def test_cli_over_a_ddos_store(self, two_algorithm_store, tmp_path, case):
        store_dir, scenario = two_algorithm_store
        if case == "two-scenarios":
            tight = tmp_path / "tight.scenario"
            tight.write_text(scenario.read_text().replace("attack_budget = 24", "attack_budget = 12"))
            flags = ["--scenario", scenario, "--scenario", tight]
        else:
            flags = ["--filter", case]
        out_dir = tmp_path / "reports"
        argv = ["establo", "--store", store_dir, "--out", out_dir, "--stride", 1, "--seed", 3, *flags]
        assert main([str(arg) for arg in [*argv, "--quiet"]]) == 0
        assert report_digests(out_dir) == self.CLI_DIGESTS[case]

    CLI_DIGESTS = {
        "best-per-generation": {
            "payoff_same-run.csv": "8551ccbae11f272488dbe345777beb38ff59dc354cf15d2b9425df393d25a3b0",
            "rank_curves.jsonl": "4a569567960175785238fabccaa1aed8643001e0ad343f4adacce138cbfae88d",
            "rankings.csv": "661756f396ef808a8b7bc471dfcfe1fd369574db5f9b06f25e85e48e8bda7db9",
            "summary.txt": "c5764f7503f53ffd75c2812d0fc3919973671607f9e55363dbe49eb1e4cc6e15",
        },
        "best-per-run": {
            "payoff_same-run.csv": "7eb46f84cb7f48fdfa6205d8161d56358047df3f711b8d198665bcbfbfd010f3",
            "rank_curves.jsonl": "6467121a517558a12fccacd21f9a5559c1ede5840ad17d11cd408a4b8ea77ad3",
            "rankings.csv": "43677d726be42ff3a1b2e204a4ebb7affc1bfad6d415ec671e6cd10337f82d31",
            "summary.txt": "4aa7c73f18c308651ac483a0d1a148931bce254f7eb66fe66a13cd59ccaf2b25",
        },
        "pareto-per-run": {
            "payoff_same-run.csv": "a0c5eba49ebb7d5878726324ea1c5dd7034a43b6d1187915938e64870a7af93d",
            "rank_curves.jsonl": "4b36792d2916d6f7af51774d1a44b22fdb4b1343ae4a2651e69509cd3bffdf1b",
            "rankings.csv": "5cf0a378ad4fa0aae1e15c4cde43117081dc35c8f7b807bbd1554557fde546a3",
            "summary.txt": "5c9ba5117cce6fe034c85e07f5ef8228625b24b1453d361c98788438469a37d5",
        },
        "two-scenarios": {
            "payoff_ring9.csv": "8551ccbae11f272488dbe345777beb38ff59dc354cf15d2b9425df393d25a3b0",
            "payoff_tight.csv": "00e09fe51d5b448280a98601ef39226023508858044d65e9150777ce197ebb6e",
            "rank_curves.jsonl": "1ae7de7a8e74c01ac6164e51e4cca8c6f9a048292c13509d6f7a8475d0eae25c",
            "rankings.csv": "b114521a3920bf20e02a22b994e56fc1f521566abffcc76972187fef284b257e",
            "summary.txt": "caf6dbb267eb5d05b3718d2e16da6ea7dfe2aeb5410198250a0c91f12b1cbb1f",
        },
    }
