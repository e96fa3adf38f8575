"""Cross-run decision support: filter champions into a compendium, tournament
them all against all, rank under multiple criteria, detect pure Nash cells,
and emit report files.

Per-generation champions are not comparable across runs (each was scored only
against its own opposing population), so this stage replays every compendium
attack against every compendium defense under one fixed scenario and seed
policy, then ranks the rows and columns of the resulting payoff matrix.
"""

from __future__ import annotations

import csv
import json
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .engagement import EngagementEnvironment
from .engine.fitness import pareto_front
from .engine.rng import Key
from .grammar import Genotype, MappingFailure, Strategy, load_grammar, map_genotype
from .store import StoredRun

FILTERS = ("best-per-generation", "best-per-run", "pareto-per-run")


class GrammarMismatch(Exception):
    """A recorded genotype no longer re-derives its recorded sentence."""


@dataclass(frozen=True)
class CompendiumEntry:
    entry_id: str
    role: str
    run_id: str
    algorithm: str
    generation: int
    strategy: Strategy


@dataclass(frozen=True)
class PayoffMatrix:
    context: str
    attacker_ids: tuple[str, ...]
    defender_ids: tuple[str, ...]
    cells: tuple[tuple[float, ...], ...]  # rows = attackers, columns = defenders


@dataclass(frozen=True)
class RankingRow:
    entry_id: str
    role: str
    context: str
    meu_score: float
    best_worst_score: float
    combined_score: float
    meu_rank: int
    best_worst_rank: int
    combined_rank: int


def _select_champions(steps: list[dict], compendium_filter: str, stride: int) -> list[dict]:
    usable = [step for step in steps if step["best_sentence"] is not None]
    if compendium_filter == "best-per-run":
        if not usable:
            return []
        return [max(usable, key=lambda s: (s["best_fitness"], -s["generation"]))]
    strided = [step for step in usable if (step["generation"] - 1) % stride == 0]
    if compendium_filter == "best-per-generation":
        return strided
    if compendium_filter == "pareto-per-run":
        points = [
            (step["best_fitness"], step["best_cost"] if step["best_cost"] is not None else 0.0)
            for step in strided
        ]
        return [strided[i] for i in pareto_front(points)]
    raise ValueError(f"unknown compendium filter {compendium_filter!r}")


def build_compendium(
    runs: Sequence[StoredRun],
    compendium_filter: str = "best-per-generation",
    stride: int = 5,
) -> list[CompendiumEntry]:
    """Filter cached run champions into compendium entries.

    Every entry's genotype is re-derived under the run's grammar and mapping
    settings and must reproduce the recorded sentence (GrammarMismatch
    otherwise). Identical sentences deduplicate to the earliest occurrence.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    entries: list[CompendiumEntry] = []
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for run in runs:
        manifest = run.manifest
        mapping = run.config.mapping
        for role, grammar_key in (("attacker", "attack_grammar"), ("defender", "defense_grammar")):
            grammar = load_grammar(run.input_path(grammar_key))
            steps = [step for step in run.half_steps if step["phase"] == role]
            for step in _select_champions(steps, compendium_filter, stride):
                where = f"{manifest['run_id']} {role} g{step['generation']}"
                recorded = tuple(step["best_sentence"])
                try:
                    strategy = map_genotype(Genotype(tuple(step["best_genotype"])), grammar, mapping)
                except MappingFailure as exc:
                    raise GrammarMismatch(f"{where}: recorded genotype no longer maps") from exc
                if strategy.sentence != recorded:
                    raise GrammarMismatch(
                        f"{where}: genotype derives {strategy.text!r}, "
                        f"record says {' '.join(recorded)!r}"
                    )
                if (role, recorded) in seen:
                    continue
                seen.add((role, recorded))
                entries.append(
                    CompendiumEntry(
                        entry_id=f"{manifest['run_id']}:{role}:g{step['generation']:03d}",
                        role=role,
                        run_id=manifest["run_id"],
                        algorithm=manifest["algorithm_label"],
                        generation=step["generation"],
                        strategy=strategy,
                    )
                )
    return entries


def cross_tournament(
    entries: Iterable[CompendiumEntry],
    environment: EngagementEnvironment,
    seed: int,
    context: str,
) -> PayoffMatrix:
    """All compendium attacks against all compendium defenses, one scenario.

    Cell (i, j) engages with the key Key(seed, "cell", i, j), so cells are
    reproducible individually and in parallel; an environment that draws
    random numbers builds that cell's stream from it, once.
    """
    attackers = sorted((e for e in entries if e.role == "attacker"), key=lambda e: e.entry_id)
    defenders = sorted((e for e in entries if e.role == "defender"), key=lambda e: e.entry_id)
    if not attackers or not defenders:
        raise ValueError("cross_tournament needs at least one attacker and one defender entry")
    cells = tuple(
        tuple(
            environment.engage(
                attacker.strategy, defender.strategy, Key(seed, "cell", i, j)
            ).attacker_score
            for j, defender in enumerate(defenders)
        )
        for i, attacker in enumerate(attackers)
    )
    return PayoffMatrix(
        context=context,
        attacker_ids=tuple(e.entry_id for e in attackers),
        defender_ids=tuple(e.entry_id for e in defenders),
        cells=cells,
    )


def _rank_ids(ids: Sequence[str], scores: Mapping[str, float], higher_is_better: bool) -> dict[str, int]:
    sign = -1.0 if higher_is_better else 1.0
    ordered = sorted(ids, key=lambda i: (sign * scores[i], i))
    return {entry_id: position + 1 for position, entry_id in enumerate(ordered)}


def _rank_side(
    ids: Sequence[str], vectors: Sequence[Sequence[float]], role: str, context: str
) -> list[RankingRow]:
    """Rank one side; vectors[k] holds ids[k]'s payoffs against every opponent."""
    maximizing = role == "attacker"
    meu = {i: statistics.fmean(vector) for i, vector in zip(ids, vectors)}
    best_worst = {i: (min(vector) if maximizing else max(vector)) for i, vector in zip(ids, vectors)}
    meu_rank = _rank_ids(ids, meu, maximizing)
    bw_rank = _rank_ids(ids, best_worst, maximizing)
    combined = {i: (meu_rank[i] + bw_rank[i]) / (2 * len(ids)) for i in ids}
    combined_rank = _rank_ids(ids, combined, higher_is_better=False)
    return [
        RankingRow(
            entry_id=i,
            role=role,
            context=context,
            meu_score=meu[i],
            best_worst_score=best_worst[i],
            combined_score=combined[i],
            meu_rank=meu_rank[i],
            best_worst_rank=bw_rank[i],
            combined_rank=combined_rank[i],
        )
        for i in sorted(ids)
    ]


def rank(matrix: PayoffMatrix) -> list[RankingRow]:
    """Rank both sides under MEU, best-worst, and their combination.

    Cells hold attacker scores, so attackers rank by maximizing and
    defenders by minimizing them. best-worst is each entry's worst case
    over its opponents; combined is the mean of the two normalized ranks
    (lower is better). Ties always break by entry id.
    """
    if not matrix.attacker_ids or not matrix.defender_ids:
        raise ValueError("cannot rank an empty payoff matrix")
    rows = _rank_side(matrix.attacker_ids, matrix.cells, "attacker", matrix.context)
    return rows + _rank_side(matrix.defender_ids, list(zip(*matrix.cells)), "defender", matrix.context)


def pure_nash_pairs(matrix: PayoffMatrix) -> list[tuple[str, str]]:
    """All cells where both sides are best responses to each other.

    Ties count as best responses: a cell qualifies when it is the maximum of
    its column (the attacker's best reply) and the minimum of its row (the
    defender's).
    """
    if not matrix.attacker_ids or not matrix.defender_ids:
        raise ValueError("cannot scan an empty payoff matrix")
    att_best = [max(column) for column in zip(*matrix.cells)]
    def_best = [min(row) for row in matrix.cells]
    pairs = []
    for i, attacker_id in enumerate(matrix.attacker_ids):
        for j, defender_id in enumerate(matrix.defender_ids):
            value = matrix.cells[i][j]
            if value == att_best[j] and value == def_best[i]:
                pairs.append((attacker_id, defender_id))
    return pairs


# summary.txt's criteria: the label it prints and the RankingRow rank it reads.
_CRITERIA = (("meu", "meu_rank"), ("best-worst", "best_worst_rank"), ("combined", "combined_rank"))


def payoff_file_name(context: str) -> str:
    """The report file a context's payoff matrix goes to; contexts can share one."""
    slug = re.sub(r"[^A-Za-z0-9]+", "-", context).strip("-").lower() or "context"
    return f"payoff_{slug}.csv"


def emit_report(
    rankings: Sequence[RankingRow],
    matrices: Sequence[PayoffMatrix],
    out_dir: str | Path,
    entries: Mapping[str, CompendiumEntry],
) -> list[Path]:
    """Write ranking CSV, payoff CSVs, plot data, and a text summary.

    entries maps every ranked entry id to its compendium entry. Re-emission
    over identical inputs is byte-identical: no timestamps, all orderings
    fixed. Payoff CSVs that an earlier emission left in out_dir are removed,
    so the directory holds one report set.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Each (context, role)'s rows in combined-rank order; contexts and roles sorted.
    groups: dict[tuple[str, str], list[RankingRow]] = {}
    for row in sorted(rankings, key=lambda r: (r.context, r.role, r.combined_rank)):
        groups.setdefault((row.context, row.role), []).append(row)

    ranking_path = out / "rankings.csv"
    with ranking_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "context", "role", "entry_id", "algorithm",
                "meu_score", "meu_rank",
                "best_worst_score", "best_worst_rank",
                "combined_score", "combined_rank",
            ]
        )
        for group in groups.values():
            for row in group:
                writer.writerow(
                    [
                        row.context, row.role, row.entry_id, entries[row.entry_id].algorithm,
                        repr(row.meu_score), row.meu_rank,
                        repr(row.best_worst_score), row.best_worst_rank,
                        repr(row.combined_score), row.combined_rank,
                    ]
                )
    written = [ranking_path]

    for matrix in matrices:
        matrix_path = out / payoff_file_name(matrix.context)
        with matrix_path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["attacker\\defender", *matrix.defender_ids])
            for attacker_id, cells in zip(matrix.attacker_ids, matrix.cells):
                writer.writerow([attacker_id, *(repr(v) for v in cells)])
        written.append(matrix_path)
    for stale in out.glob("payoff_*.csv"):
        if stale not in written:
            stale.unlink()

    # One series per (context, role, source algorithm): entries sorted by
    # combined rank, y = combined score. Feed this to external plotting.
    curves_path = out / "rank_curves.jsonl"
    with curves_path.open("w", encoding="utf-8") as handle:
        for (context, role), group in groups.items():
            series: dict[str, list[RankingRow]] = {}
            for row in group:
                series.setdefault(entries[row.entry_id].algorithm, []).append(row)
            for algorithm, members in sorted(series.items()):
                record = {
                    "context": context,
                    "role": role,
                    "algorithm": algorithm,
                    "entry_ids": [r.entry_id for r in members],
                    "combined_scores": [r.combined_score for r in members],
                }
                handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    written.append(curves_path)

    summary_path = out / "summary.txt"
    lines = []
    for (context, role), group in groups.items():
        lines.append(f"[{context}] {role}")
        for label, rank_of in _CRITERIA:
            top = min(group, key=lambda r: getattr(r, rank_of))
            text = entries[top.entry_id].strategy.text
            lines.append(f"  top by {label + ':':<11} {top.entry_id}  {text}")
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(summary_path)
    return written
