"""In-memory span recorder for the traced repetition.

The tracer replaces public callables of coevarena, at the names their callers
look up at call time, with wrappers that record one span per call: name,
start, end, parent span and whether the call raised. Self time of a span is
its duration minus the time its direct children cover, so the self times of
every span under a root add up to the root's duration.

Only the traced repetition imports this module; every other repetition runs
the program unwrapped.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    failed: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


def _ddos_pair(env, attack, defense, rng):
    return attack.sentence, defense.sentence


def _contagion_trial_ticks(result, env, attack, defense, rng):
    return env.scenario.mc.trials * env.scenario.mc.horizon


def _pairs(result, *args, **kwargs):
    return len(result)


# (module, attribute path, span name, distinct-key function, count function).
# A key function receives the call's arguments; a count function receives the
# result and the arguments, and adds its return value to the span's counter.
TARGETS = (
    ("coevarena.engine.loop", "run_alternating", "engine.loop.run", None, None),
    ("coevarena.engine.loop", "map_genotype", "grammar.map", None, None),
    ("coevarena.engine.loop", "select", "engine.variation.select", None, None),
    ("coevarena.engine.loop", "crossover", "engine.variation.crossover", None, None),
    ("coevarena.engine.loop", "mutate", "engine.variation.mutate", None, None),
    ("coevarena.engine.loop", "pair", "engine.pairing.pair", None, _pairs),
    ("coevarena.engine.loop", "assign_fitness", "engine.fitness.assign", None, None),
    ("coevarena.envs.ddos", "DdosEnvironment.engage", "envs.ddos.engage", _ddos_pair, None),
    ("coevarena.envs.ddos", "engage", "envs.ddos.simulate", None, None),
    ("coevarena.envs.ddos", "interpret_attack", "envs.ddos.interpret", None, None),
    ("coevarena.envs.ddos", "interpret_defense", "envs.ddos.interpret", None, None),
    (
        "coevarena.envs.contagion", "ContagionEnvironment.engage", "envs.contagion.engage",
        None, _contagion_trial_ticks,
    ),
    ("coevarena.envs.contagion", "simulate_trials", "envs.contagion.simulate", None, None),
    ("coevarena.envs.contagion", "interpret_attack", "envs.contagion.interpret", None, None),
    ("coevarena.envs.contagion", "interpret_defense", "envs.contagion.interpret", None, None),
    ("coevarena.store", "ResultsStore.add_run", "store.add_run", None, None),
    ("coevarena.store", "ResultsStore.load_all", "store.load_all", None, None),
    ("coevarena.establo", "map_genotype", "grammar.map", None, None),
    ("coevarena.establo", "build_compendium", "establo.build_compendium", None, None),
    ("coevarena.establo", "cross_tournament", "establo.cross_tournament", None, None),
    ("coevarena.establo", "rank", "establo.rank", None, None),
    ("coevarena.establo", "emit_report", "establo.emit_report", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.keys: dict[str, set] = defaultdict(set)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, bool, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, False))
        self._stack.append(index)
        return index

    def _close(self, index: int, failed: bool):
        span = self.spans[index]
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of code; yields the span's index."""
        index = self._open(name)
        failed = True
        try:
            yield index
            failed = False
        finally:
            self._close(index, failed)

    def wrap(self, owner, attr: str, name: str, key=None, count=None):
        """Replace ``owner.attr`` with a recording wrapper until restore()."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if key is not None:
                tracer.keys[name].add(key(*args, **kwargs))
            if count is not None:
                tracer.counts[name] += count(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = original
        self._saved.append((owner, attr, attr in vars(owner), vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def install(self, targets=TARGETS):
        """Wrap every target that exists; record the ones that do not."""
        for module_name, path, name, key, count in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self.wrap(owner, attr, name, key, count)

    def restore(self):
        """Put back every wrapped attribute, most recent first."""
        while self._saved:
            owner, attr, owned, original = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def summary(self, root: int) -> dict[str, dict]:
        """Per span name: calls, failures, total, median and p99 duration, self time.

        Only spans inside the root (the root included) add to self times, so
        their sum is the root's duration. Spans outside it, such as set-up
        work before the timed phase, still report their durations.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        inside = _descendants(self.spans, root)
        durations: dict[str, list[float]] = defaultdict(list)
        layers: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            layer = layers.setdefault(span.name, {"calls": 0, "failed": 0, "self_s": 0.0})
            layer["calls"] += 1
            layer["failed"] += span.failed
            durations[span.name].append(span.duration)
            if index in inside:
                layer["self_s"] += span.duration - child_time[index]
        for name, layer in layers.items():
            layer["total_s"] = sum(durations[name])
            layer["median_s"] = statistics.median(durations[name])
            layer["p99_s"] = percentile(durations[name], 99)
            layer["distinct"] = len(self.keys.get(name, ()))
            layer["count"] = self.counts.get(name, 0)
        return layers


def _descendants(spans: list[Span], root: int) -> set[int]:
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index].parent in inside:
            inside.add(index)
    return inside


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]
