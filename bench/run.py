"""Benchmark of coevarena's arms races and its establo decision-support stage.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. Every repetition runs in its own child
process (bench/rep.py) on the code under ``src/``, one at a time. With
``--trace 0`` the benchmark repeats the workload as often as fits in
``--seconds`` (at least twice) and reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced repetition and reports the
per-layer metrics and the tracing overhead. Each repetition's outcome digest
and log hashes must equal the first repetition's. The last line of standard
output is the result JSON; the line before it holds the details (quartiles,
exact counts, digests, lines of code in ``src/``). bench/README.md lists the
metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from rep import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REPS = 2
SETUP_SAMPLES = 12
DEADLINE_S = 170.0  # a run must end within 180 s


class Runner:
    """Spawns repetitions of one workload and keeps what they report."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict | None = None

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, mode: str, store: Path, out: Path | None = None) -> dict | None:
        """Run rep.py once; None (and a recorded failure) unless it succeeds."""
        self.attempted += mode != "store"
        command = [
            sys.executable, str(BENCH / "rep.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--mode", mode, "--store", str(store),
        ]
        if out is not None:
            command += ["--out", str(out)]
        if self.args.smoke:
            command.append("--smoke")
        spawned = time.perf_counter()
        try:
            # On timeout, run() kills the child and waits for it.
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} repetition ran out of time")
        if done.returncode != 0:
            return self._fail(f"{mode} repetition exited {done.returncode}: {done.stderr.strip()[-2000:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if "first_engagement" in result:
            result["setup_s"] = result["first_engagement"] - spawned
        return result

    def _fail(self, message: str) -> None:
        print(message, file=sys.stderr)
        self.failures.append(message)
        return None

    def repetition(self, mode: str) -> dict | None:
        """One timed or traced repetition, checked against the first one."""
        establo = WORKLOADS[self.args.workload].kind == "establo"
        store = self.work / "store" if establo else self.work / "runs"
        out = self.work / "report" if establo else None
        try:
            result = self.child(mode, store, out)
        finally:
            shutil.rmtree(out if establo else store, ignore_errors=True)
        if result is None:
            return None
        if result["tracer_loaded"] != (mode == "traced"):
            return self._fail(f"{mode} repetition: tracer loaded = {result['tracer_loaded']}")
        if self.reference is None:
            self.reference = result["seeds"]
        elif result["seeds"] != self.reference:
            return self._fail(f"{mode} repetition: outcome digest or log hashes differ from the first")
        return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def src_lines() -> int:
    """Non-blank lines of Python under src/, the size the ROADMAP tracks."""
    return sum(
        1
        for path in (ROOT / "src").rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def setup_samples(runner: Runner, establo: bool) -> tuple[list[float], list[float]]:
    """Set-up times of set-up-only repetitions, each followed by the kernel."""
    store = runner.work / ("store" if establo else "runs")
    out = runner.work / "report" if establo else None
    setups: list[float] = []
    kernels: list[float] = []
    calibrate.kernel_s()  # warm
    for _ in range(SETUP_SAMPLES):
        if runner.remaining() < 10:
            break
        probe = runner.child("setup", store, out)
        if probe is not None:
            setups.append(probe["setup_s"])
            kernels.append(calibrate.kernel_s())
    return setups, kernels


def end_to_end(runner: Runner, timed: list[dict], store_facts: dict | None) -> tuple[dict, dict]:
    setups, setup_kernels = setup_samples(runner, store_facts is not None)
    walls = [r["wall_s"] for r in timed]
    # Each part of the timed phase (a seed's run, a context's tournament) is
    # scaled to the reference host's speed by the kernel timed around it, and
    # takes its median over the repetitions; adj_wall_s is their sum.
    adjusted = [calibrate.adjusted(r["parts"], r["kernels"]) for r in timed]
    adj_wall = sum(statistics.median(part) for part in zip(*adjusted))
    facts = store_facts or timed[0]["counts"]
    metrics = {
        "setup_s": (statistics.median(calibrate.adjusted(setups, setup_kernels)), "s"),
        "adj_wall_s": (adj_wall, "s"),
        "adj_engagements_per_s": (timed[0]["work"] / adj_wall, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
        "log_bytes_per_engagement": (facts["log_bytes"] / facts["engagements"], "B"),
    }
    details = {
        "wall_s": quartiles(walls),
        "wall_values": walls,
        "part_values": [r["parts"] for r in timed],
        "kernel_values": [r["kernels"] for r in timed],
        "adjusted_part_values": adjusted,
        "setup_values": setups,
        "setup_kernel_values": setup_kernels,
        "counts": timed[0]["counts"],
    }
    return metrics, details


def per_layer(untraced: dict, traced: dict) -> tuple[dict, dict]:
    layers = traced["layers"]
    counts = traced["counts"]
    empty = {"calls": 0, "failed": 0, "self_s": 0.0, "total_s": 0.0,
             "median_s": 0.0, "p99_s": 0.0, "distinct": 0, "count": 0}

    def layer(name: str) -> dict:
        return layers.get(name, empty)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    wall = layer("bench.timed")["total_s"]
    simulate = layer("envs.contagion.simulate")["total_s"]
    cross = layer("establo.cross_tournament")["total_s"]
    pairs = layer("engine.pairing.pair")["count"]
    metrics = {
        "grammar.map_us": (layer("grammar.map")["median_s"] * 1e6, "us"),
        "grammar.maps": (layer("grammar.map")["calls"], "count"),
        "grammar.map_failures": (layer("grammar.map")["failed"], "count"),
        "grammar.map_fail_ratio": (ratio(layer("grammar.map")["failed"], layer("grammar.map")["calls"]), "ratio"),
        "engine.variation.select_us": (layer("engine.variation.select")["median_s"] * 1e6, "us"),
        "engine.variation.crossover_us": (layer("engine.variation.crossover")["median_s"] * 1e6, "us"),
        "engine.variation.mutate_us": (layer("engine.variation.mutate")["median_s"] * 1e6, "us"),
        "engine.pairing.pair_us": (layer("engine.pairing.pair")["median_s"] * 1e6, "us"),
        "engine.fitness.assign_us": (layer("engine.fitness.assign")["median_s"] * 1e6, "us"),
        "engine.loop.self_ms": (layer("engine.loop.run")["self_s"] * 1e3, "ms"),
        "engine.loop.skipped_pairs": (pairs - counts.get("candidates", 0) if pairs else 0, "count"),
        "envs.ddos.engage_us": (layer("envs.ddos.engage")["median_s"] * 1e6, "us"),
        "envs.ddos.engage_p99_us": (layer("envs.ddos.engage")["p99_s"] * 1e6, "us"),
        "envs.ddos.engagements": (layer("envs.ddos.engage")["calls"], "count"),
        "envs.ddos.distinct_pairs": (layer("envs.ddos.engage")["distinct"], "count"),
        "envs.ddos.distinct_pair_ratio": (
            ratio(layer("envs.ddos.engage")["distinct"], layer("envs.ddos.engage")["calls"]), "ratio"
        ),
        "envs.ddos.interpret_calls": (layer("envs.ddos.interpret")["calls"], "count"),
        "envs.ddos.simulations": (layer("envs.ddos.simulate")["calls"], "count"),
        "envs.contagion.engage_us": (layer("envs.contagion.engage")["median_s"] * 1e6, "us"),
        "envs.contagion.simulate_share": (ratio(simulate, wall), "ratio"),
        "envs.contagion.trial_tick_us": (
            ratio(simulate, layer("envs.contagion.engage")["count"]) * 1e6, "us"
        ),
        "envs.contagion.trial_ticks": (layer("envs.contagion.engage")["count"], "count"),
        "store.add_run_ms": (layer("store.add_run")["median_s"] * 1e3, "ms"),
        "store.bytes_written": (counts.get("bytes_written", 0), "B"),
        "store.load_all_ms": (layer("store.load_all")["total_s"] * 1e3, "ms"),
        "establo.build_compendium_ms": (layer("establo.build_compendium")["total_s"] * 1e3, "ms"),
        "establo.cross_tournament_ms": (cross * 1e3, "ms"),
        "establo.cells": (counts.get("cells", 0), "count"),
        "establo.cells_per_s": (ratio(counts.get("cells", 0), cross), "1/s"),
        "establo.rank_ms": (layer("establo.rank")["total_s"] * 1e3, "ms"),
        "establo.emit_report_ms": (layer("establo.emit_report")["total_s"] * 1e3, "ms"),
        "bench.self_ms": (layer("bench.timed")["self_s"] * 1e3, "ms"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced["wall_s"], "s"),
        "trace.overhead_s": (wall - untraced["wall_s"], "s"),
        "trace.self_sum_s": (sum(item["self_s"] for item in layers.values()), "s"),
        "src.loc": (src_lines(), "lines"),
    }
    details = {"layers": layers, "missing": traced["missing"], "counts": counts}
    return metrics, details


def measure(args, runner: Runner) -> tuple[dict, dict] | None:
    store_facts = None
    if WORKLOADS[args.workload].kind == "establo":
        store_facts = runner.child("store", runner.work / "store")
        if store_facts is None:
            return None
    measuring = time.perf_counter()
    timed: list[dict] = []
    took = 0.0  # the last repetition, spawn to exit
    # Past the minimum, start a repetition only if it should end within --seconds.
    while len(timed) < (1 if args.trace else MIN_REPS) or (
        not args.trace and time.perf_counter() - measuring + took <= args.seconds
    ):
        if runner.remaining() < 2 * took + 5:
            break
        began = time.perf_counter()
        result = runner.repetition("timed")
        took = time.perf_counter() - began
        if result is not None:
            timed.append(result)
        elif len(runner.failures) >= MIN_REPS:
            break
    if not timed:
        return None
    if not args.trace:
        return end_to_end(runner, timed, store_facts)
    traced = runner.repetition("traced")
    return per_layer(timed[0], traced) if traced is not None else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "coevarena" / "__init__.py").is_file():
        print(f"no coevarena sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(args, work)
    try:
        measured = measure(args, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if measured is None:
        print("no repetition completed", file=sys.stderr)
        return 1
    metrics, details = measured
    failed = len(runner.failures)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "src_loc": src_lines(),
        "failures": runner.failures, "digests": runner.reference, **details,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
