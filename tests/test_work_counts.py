"""The work both shipped configs do at their own seeds: genotype mappings and
mapping failures, engagements by kind and simulator calls.

The logs pin what a run decides; these counts pin how much work it takes to
decide it, so a change that maps, engages or simulates more often shows here
even when the logs stay the same. Each count comes from wrapping the name its
caller looks up, as the benchmark's tracer does."""

from collections import Counter

import pytest

from coevarena import run_alternating
from coevarena.cli import load_experiment_config
from coevarena.data import data_path
from coevarena.engine import loop
from coevarena.envs import contagion, ddos, load_environment
from coevarena.grammar import MappingFailure, load_grammar


def _counted(monkeypatch, module, name, counts, key):
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        try:
            return inner(*args, **kwargs)
        except MappingFailure:
            counts["map_failures"] += 1
            raise

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize(
    "config, expected",
    [
        (
            "ddos_smoke.cfg",
            {"maps": 1240, "map_failures": 0, "candidate": 1200, "incumbent": 1160, "simulations": 542},
        ),
        (
            "contagion_star.cfg",
            {"maps": 176, "map_failures": 4, "candidate": 156, "incumbent": 144, "simulations": 300},
        ),
    ],
)
def test_shipped_config_work_is_pinned(monkeypatch, config, expected):
    cfg = load_experiment_config(data_path("configs", config))
    counts = Counter({key: 0 for key in expected})
    _counted(monkeypatch, loop, "map_genotype", counts, "maps")
    _counted(monkeypatch, ddos, "engage", counts, "simulations")
    _counted(monkeypatch, contagion, "simulate_trials", counts, "simulations")
    record = run_alternating(
        cfg.evolution.with_seed(cfg.seed),
        load_grammar(cfg.attack_grammar),
        load_grammar(cfg.defense_grammar),
        load_environment(cfg.environment, cfg.scenario),
    )
    counts.update(e.kind for cohort in record.cohorts for e in cohort.engagements)
    assert dict(counts) == expected
