"""One repetition of a benchmark workload, run in its own process.

    python3 bench/rep.py --workload NAME --seed N --mode MODE --store DIR [--out DIR] [--smoke]

MODE is one of
  timed   run the workload untraced and report its timings and outcome,
          with the reference kernel of calibrate.py timed after every part,
  traced  the same under the span recorder in spans.py,
  setup   stop at the first engagement and report only the set-up time,
  store   build the champion store an establo workload reads (untimed).

The last line of standard output is one JSON object. Times are
``time.perf_counter()`` readings, which on Linux share one monotonic clock
across processes, so the parent can measure set-up from the moment it
spawned this process.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "src" / "coevarena" / "data" / "configs"


@dataclass(frozen=True)
class Workload:
    """What one repetition runs. Seeds are ``seeds_per_rep * seed + i``."""

    kind: str  # "arms-race" or "establo"
    config: str  # shipped config the runs (or the establo store's runs) use
    seeds_per_rep: int
    generations: int | None = None  # None keeps the config's own value
    networks: tuple[str, ...] = ()  # establo evaluation contexts
    champions_per_role: int = 0  # establo: latest champions kept per role
    seeds_per_part: int = 1  # arms races: consecutive seeds timed as one part


# A run's time depends on the strategies its seed evolves: contagion runs of
# the shipped 10 generations took 7 to 13 s per seed on a shared 2-vCPU VM, ddos runs
# 0.9 to 1.6 s. Invocations with different seeds are compared, so each
# repetition averages over several seeds. Contagion runs are cut to 1
# generation, about 0.4 s each with a seed-to-seed spread near 10 %, so that
# 16 independent seeds fit in one repetition about eight seconds long; they are
# timed four to a part, so that the reference kernel runs about every 1.5 s,
# as it does between ddos seeds. The establo store holds eight such runs, one
# champion per role from each; it is rebuilt in every invocation, untimed.
WORKLOADS = {
    "ddos-arms-race": Workload("arms-race", "ddos_smoke.cfg", seeds_per_rep=6),
    "contagion-arms-race": Workload(
        "arms-race", "contagion_star.cfg", seeds_per_rep=16, generations=1,
        seeds_per_part=4,
    ),
    "contagion-establo-crossnet": Workload(
        "establo", "contagion_star.cfg", seeds_per_rep=8, generations=1,
        networks=("star", "twotier", "chain", "clique"), champions_per_role=8,
    ),
}

# Reduced sizes for the benchmark's self-tests.
SMOKE = {
    "ddos-arms-race": dataclasses.replace(
        WORKLOADS["ddos-arms-race"], seeds_per_rep=2, generations=3
    ),
    "contagion-arms-race": dataclasses.replace(
        WORKLOADS["contagion-arms-race"], seeds_per_rep=1, generations=1
    ),
    "contagion-establo-crossnet": dataclasses.replace(
        WORKLOADS["contagion-establo-crossnet"], seeds_per_rep=2, generations=1,
        networks=("star", "chain"), champions_per_role=2,
    ),
}


class SetupDone(Exception):
    """Raised at the first engagement of a set-up-only repetition."""


def arm_first_engagement(environment, marks: dict, stop: bool):
    """Note the time of the environment's first engage call, then step aside.

    The hook is an instance attribute that deletes itself, so later calls go
    straight to the class's own (possibly traced) method.
    """

    def first(*args, **kwargs):
        marks.setdefault("first_engagement", time.perf_counter())
        del environment.engage
        if stop:
            raise SetupDone
        return environment.engage(*args, **kwargs)

    environment.engage = first


@contextmanager
def _timed(tracer, marks: dict):
    """The timed phase: a root span when traced.

    Inside it the workload wraps each part (a seed's run, or a context's
    tournament) in ``_part``.
    """
    span = tracer.span("bench.timed") if tracer is not None else nullcontext(-1)
    with span as root:
        yield root
    marks["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def _part(marks: dict):
    """Append the block's duration to ``marks["parts"]``.

    A timed repetition then runs the reference kernel and appends its time to
    ``marks["kernels"]``; after the first part it runs it once more first, so
    that no kernel time is a cold start. Traced and set-up repetitions leave
    the kernel out.
    """
    started = time.perf_counter()
    yield
    marks["parts"].append(time.perf_counter() - started)
    if marks.get("mode") == "timed":
        import calibrate

        if len(marks["parts"]) == 1:
            calibrate.kernel_s()
        marks["kernels"].append(calibrate.kernel_s())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _experiment(workload: Workload):
    from coevarena.cli import load_experiment_config

    cfg = load_experiment_config(CONFIGS / workload.config)
    if workload.generations is not None:
        cfg = dataclasses.replace(
            cfg, evolution=dataclasses.replace(cfg.evolution, generations=workload.generations)
        )
    return cfg


def arms_race(workload: Workload, seeds: list[int], store_root: Path, marks: dict, tracer=None):
    """Run then store every seed, as ``coevarena run`` does; timed as a whole."""
    from datetime import datetime, timezone

    from coevarena.cli import make_run_id
    from coevarena.engine import loop
    from coevarena.envs import load_environment
    from coevarena.grammar import load_grammar
    from coevarena.store import FORMAT_VERSION, ResultsStore, sha256_file

    cfg = _experiment(workload)
    attack_grammar = load_grammar(cfg.attack_grammar)
    defense_grammar = load_grammar(cfg.defense_grammar)
    store = ResultsStore(store_root)
    stop = marks.get("mode") == "setup"
    champions = {}
    dirs = {}

    def run_and_store(seed: int):
        environment = load_environment(cfg.environment, cfg.scenario)
        if "first_engagement" not in marks:
            arm_first_engagement(environment, marks, stop)
        record = loop.run_alternating(
            cfg.evolution.with_seed(seed), attack_grammar, defense_grammar, environment,
            run_id=make_run_id(cfg, seed),
        )
        manifest = {
            "format_version": FORMAT_VERSION,
            "run_id": record.run_id,
            "seed": seed,
            "environment": cfg.environment,
            "algorithm_label": cfg.algorithm_label,
            "config": record.config.to_dict(),
            "attack_grammar": {"path": str(cfg.attack_grammar), "sha256": sha256_file(cfg.attack_grammar)},
            "defense_grammar": {"path": str(cfg.defense_grammar), "sha256": sha256_file(cfg.defense_grammar)},
            "scenario": {"path": str(cfg.scenario), "sha256": sha256_file(cfg.scenario)},
            "created_at": datetime.now(timezone.utc).isoformat(),
        }
        dirs[seed] = store.add_run(
            record, manifest, cfg.attack_grammar, cfg.defense_grammar, cfg.scenario
        )
        champions[seed] = [
            [c.role, c.index, c.fitness, c.concept_score, list(c.sentence) if c.sentence else None]
            for c in (record.best_attacker, record.best_defender)
        ]

    with _timed(tracer, marks) as root:
        for first in range(0, len(seeds), workload.seeds_per_part):
            with _part(marks):
                for seed in seeds[first: first + workload.seeds_per_part]:
                    run_and_store(seed)
    return _check_runs(cfg, store, dirs, champions), root


def _check_runs(cfg, store, dirs: dict, champions: dict) -> dict:
    """Digest, exact counts and sanity checks of the stored runs.

    The digest covers what a run decides, not how the log lays it out: the
    ordered scores and costs of every stored engagement record, each
    half-step's best fitness and best sentence, and both champions. It leaves
    out the half-step mean and variance of fitness.
    """
    zero_sum = {"ddos": lambda a, d: d == 1.0 - a, "contagion": lambda a, d: d == -a}
    per_seed = {}
    counts = {"engagements": 0, "candidates": 0, "log_bytes": 0, "bytes_written": 0}
    for seed, dir_name in dirs.items():
        run = store.load(dir_name)
        digest = hashlib.sha256()
        records = candidates = 0
        for record in run.engagement_records():
            a, d = record["attacker_score"], record["defender_score"]
            if not zero_sum[cfg.environment](a, d):
                raise AssertionError(f"seed {seed}: scores {a}, {d} break the zero-sum rule")
            digest.update(json.dumps([a, d, record["costs"]], sort_keys=True).encode())
            records += 1
            candidates += record.get("kind") == "candidate"
        steps = [[s["generation"], s["phase"], s["best_fitness"], s["best_sentence"]] for s in run.half_steps]
        if len(steps) != 2 * cfg.evolution.generations or records == 0:
            raise AssertionError(f"seed {seed}: {len(steps)} half-steps, {records} engagements")
        digest.update(json.dumps([steps, champions[seed]], sort_keys=True).encode())
        log = run.run_dir / "engagements.jsonl"
        per_seed[str(seed)] = {
            "digest": digest.hexdigest(),
            "engagements_sha256": _sha256(log),
            "halfsteps_sha256": _sha256(run.run_dir / "halfsteps.jsonl"),
        }
        counts["engagements"] += records
        counts["candidates"] += candidates
        counts["log_bytes"] += log.stat().st_size
        counts["bytes_written"] += _tree_bytes(run.run_dir)
    return {"seeds": per_seed, "counts": counts, "work": counts["engagements"]}


def _latest_champions(compendium, role: str, keep: int):
    """The ``keep`` latest-generation entries of one role, ties by entry id."""
    entries = [e for e in compendium if e.role == role]
    return sorted(entries, key=lambda e: (-e.generation, e.entry_id))[:keep]


def establo(workload: Workload, seed: int, store_root: Path, out: Path, marks: dict, tracer=None):
    """Tournament and rank stored champions on every network, as ``coevarena establo --scenario`` does."""
    from coevarena import establo as establo_mod
    from coevarena.data import data_path
    from coevarena.envs import load_environment
    from coevarena.store import ResultsStore

    runs = ResultsStore(store_root).load_all()
    compendium = establo_mod.build_compendium(runs, "best-per-generation", 1)
    entries = [
        entry
        for role in ("attacker", "defender")
        for entry in _latest_champions(compendium, role, workload.champions_per_role)
    ]
    entries_by_id = {entry.entry_id: entry for entry in entries}
    stop = marks.get("mode") == "setup"
    rankings, matrices = [], []
    with _timed(tracer, marks) as root:
        for network in workload.networks:
            with _part(marks):
                environment = load_environment("contagion", data_path("scenarios", f"{network}.scenario"))
                if "first_engagement" not in marks:
                    arm_first_engagement(environment, marks, stop)
                matrix = establo_mod.cross_tournament(entries, environment, seed, network)
                matrices.append(matrix)
                rankings.extend(establo_mod.rank(matrix))
        with _part(marks):
            written = establo_mod.emit_report(rankings, matrices, out, entries_by_id)
    return _check_tournament(matrices, rankings, written), root


def _check_tournament(matrices, rankings, written) -> dict:
    """Digest of the payoff cells and rankings, plus sanity checks."""
    cells = 0
    for matrix in matrices:
        shape = (len(matrix.attacker_ids), len(matrix.defender_ids))
        if len(matrix.cells) != shape[0] or any(len(row) != shape[1] for row in matrix.cells):
            raise AssertionError(f"{matrix.context}: payoff matrix is not {shape}")
        cells += shape[0] * shape[1]
    groups: dict[tuple[str, str], list] = {}
    for row in rankings:
        groups.setdefault((row.context, row.role), []).append(row)
    for key, rows in groups.items():
        expected = list(range(1, len(rows) + 1))
        for criterion in ("meu_rank", "best_worst_rank", "combined_rank"):
            if sorted(getattr(row, criterion) for row in rows) != expected:
                raise AssertionError(f"{key}: {criterion} is not a permutation of 1..{len(rows)}")
    payload = [
        [[m.context, m.attacker_ids, m.defender_ids, m.cells] for m in matrices],
        [dataclasses.astuple(row) for row in rankings],
    ]
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    reports = {path.name: _sha256(path) for path in written}
    return {
        "seeds": {"tournament": {"digest": digest, **reports}},
        "counts": {"cells": cells},
        "work": cells,
    }


def build_store(workload: Workload, seeds: list[int], store_root: Path) -> dict:
    """The store an establo workload reads (untimed), and its log bytes per record."""
    from coevarena.store import ResultsStore

    arms_race(workload, seeds, store_root, {"mode": "store", "parts": []})
    records = log_bytes = 0
    for run in ResultsStore(store_root).load_all():
        records += sum(1 for _ in run.engagement_records())
        log_bytes += (run.run_dir / "engagements.jsonl").stat().st_size
    return {"engagements": records, "log_bytes": log_bytes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "traced", "setup", "store"))
    parser.add_argument("--store", required=True, help="results store the runs write or establo reads")
    parser.add_argument("--out", help="establo report directory")
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for self-tests")
    args = parser.parse_args(argv)
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    store = Path(args.store)

    sys.path.insert(0, str(ROOT / "src"))
    import coevarena

    if not Path(coevarena.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported coevarena from {coevarena.__file__}, not from {ROOT / 'src'}")

    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()

    seeds = [workload.seeds_per_rep * args.seed + i for i in range(workload.seeds_per_rep)]
    marks = {"mode": args.mode, "parts": [], "kernels": []}
    try:
        if args.mode == "store":
            print(json.dumps(build_store(workload, seeds, store)))
            return 0
        if workload.kind == "arms-race":
            outcome, root = arms_race(workload, seeds, store, marks, tracer)
        else:
            outcome, root = establo(workload, args.seed, store, Path(args.out), marks, tracer)
    except SetupDone:
        print(json.dumps({"first_engagement": marks["first_engagement"]}))
        return 0
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        "first_engagement": marks["first_engagement"],
        "wall_s": sum(marks["parts"]),
        "parts": marks["parts"],
        "kernels": marks["kernels"],
        "peak_rss_mb": marks["peak_rss_mb"],
        "tracer_loaded": "spans" in sys.modules,
        **outcome,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(root)
        result["missing"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
