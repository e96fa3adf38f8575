"""Self-tests of the benchmark at reduced size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Outcome digests of the smoke sizes at seed 0. They do not depend on the log
# layout or on the half-step fitness mean and variance, so they change only
# when a run decides something else.
SMOKE_DIGESTS = {
    "ddos-arms-race": {
        "0": "a7f23665bd2ab7590b98e984beaeff4cb016f37f5ab2fa6db3771782ace16480",
        "1": "884df759a505cb83139f32f047374eab708315955f0f6363bbc709880752c08d",
    },
    "contagion-arms-race": {
        "0": "eff68a8dee005ffb7325247766648a7df6bf18458fc264b5265cccde242ef319",
    },
    "contagion-establo-crossnet": {
        "tournament": "68141e56caacb8b397b6ac793ead4ef4a3f10b7c78c040b192ee4434622ae079",
    },
}

# A layer counter each workload must drive above zero in its traced run.
BUSY_LAYER = {
    "ddos-arms-race": "envs.ddos.engagements",
    "contagion-arms-race": "envs.contagion.trial_ticks",
    "contagion-establo-crossnet": "establo.cells",
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload):
    untraced = bench(workload, 0)
    assert untraced.returncode == 0, untraced.stderr
    *_, details, result = untraced.stdout.strip().splitlines()
    result, details = json.loads(result), json.loads(details)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert all(len(k) == len(p) for k, p in zip(details["kernel_values"], details["part_values"]))
    assert details["src_loc"] > 0
    digests = {seed: entry["digest"] for seed, entry in details["digests"].items()}
    for seed, digest in SMOKE_DIGESTS[workload].items():
        assert digests[seed] == digest

    traced = bench(workload, 1)
    assert traced.returncode == 0, traced.stderr
    *_, details, result = traced.stdout.strip().splitlines()
    result, details = json.loads(result), json.loads(details)
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert details["missing"] == []
    assert metrics[BUSY_LAYER[workload]] > 0
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-6)


def test_untraced_repetition_imports_no_tracer(tmp_path):
    done = subprocess.run(
        [sys.executable, "bench/rep.py", "--workload", "ddos-arms-race", "--seed", "0",
         "--mode", "timed", "--store", str(tmp_path / "store"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["tracer_loaded"] is False


def test_tracer_wraps_and_restores_every_target():
    originals = {}
    for module_name, path, *_ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        originals[(module_name, path)] = (owner, attr, vars(owner)[attr])

    tracer = spans.Tracer()
    tracer.install(spans.TARGETS + (("coevarena.grammar", "no_such_function", "x", None, None),))
    assert tracer.missing == ["coevarena.grammar.no_such_function"]
    for owner, attr, original in originals.values():
        assert getattr(owner, attr).__wrapped__ is original
    tracer.restore()
    for owner, attr, original in originals.values():
        assert vars(owner)[attr] is original


def test_adjusted_scales_each_part_by_the_kernels_around_it():
    ref = calibrate.REFERENCE_S
    parts = [1.0, 2.0, 3.0]
    assert calibrate.adjusted(parts, [ref] * 3) == pytest.approx(parts)
    # Part 0 has only the kernel after it; later parts the mean of both sides.
    assert calibrate.adjusted(parts, [2 * ref, 2 * ref, 4 * ref]) == pytest.approx(
        [0.5, 1.0, 1.0]
    )
    with pytest.raises(ValueError):
        calibrate.adjusted(parts, [ref] * 2)


def test_kernel_is_independent_of_the_program():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, calibrate; t = calibrate.kernel_s(); "
         "assert t > 0 and not any(m.startswith('coevarena') for m in sys.modules)"],
        cwd=BENCH, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_self_times_add_up_to_the_root():
    def leaf():
        time.sleep(0.002)

    def branch():
        space.leaf()
        space.leaf()

    space = types.SimpleNamespace(leaf=leaf, branch=branch)
    tracer = spans.Tracer()
    tracer.wrap(space, "leaf", "leaf", count=lambda result: 1)
    tracer.wrap(space, "branch", "branch")
    space.leaf()  # outside the root: counted, but not in self times
    with tracer.span("root") as root:
        space.branch()
        space.leaf()
    tracer.restore()
    assert space.leaf is leaf and space.branch is branch

    layers = tracer.summary(root)
    assert layers["leaf"]["calls"] == 4 and layers["leaf"]["count"] == 4
    assert layers["branch"]["calls"] == 1
    root_span = tracer.spans[root]
    inside = layers["root"]["self_s"] + layers["branch"]["self_s"] + layers["leaf"]["self_s"]
    assert inside == pytest.approx(root_span.duration, rel=1e-9)
    assert layers["leaf"]["total_s"] > layers["leaf"]["self_s"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("ddos-arms-race", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
