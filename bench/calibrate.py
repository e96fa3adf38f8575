"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a share of a machine whose other tenants change how
fast the same code runs, by a quarter or more over tens of seconds, in both
directions. A timed repetition therefore runs this kernel after every part of
its timed phase (a seed's run, a context's tournament) and scales each part by
the reference time over the kernel time measured around it. The kernel mixes
the kinds of work coevarena does: interpreter loops, small tuples, lists and
dicts, JSON encoding and decoding with hashing, small numpy draws and set
bookkeeping. It imports nothing from coevarena, so no change to the program
changes it, and it runs with the garbage collector off, so the program's heap
does not change it either.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import time

import numpy as np

# The kernel's median time on the reference host (a shared 2-vCPU Xeon
# virtual machine, Python 3.11), so adjusted times read as seconds on that
# host at its usual speed.
REFERENCE_S = 0.070


def _arithmetic() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


def _containers() -> int:
    rng = random.Random(1)
    counts: dict[int, int] = {}
    items: list[tuple[int, list[int]]] = []
    for i in range(25_000):
        key = rng.randrange(5000)
        counts[key] = counts.get(key, 0) + 1
        items.append((key, [i]))
        if len(items) > 2000:
            items = items[1000:]
    return len(counts)


def _records() -> str:
    records = [{"a": i, "b": [i, i * 0.5, str(i)], "c": {"x": i % 7}} for i in range(3000)]
    text = "\n".join(json.dumps(record, sort_keys=True) for record in records)
    assert len([json.loads(line) for line in text.splitlines()]) == len(records)
    return hashlib.sha256(text.encode()).hexdigest()


def _draws() -> int:
    infected_total = 0
    for child in np.random.SeedSequence(5).spawn(20):
        gen = np.random.Generator(np.random.PCG64(child))
        infected: list[set[int]] = [set() for _ in range(5)]
        for _ in range(15):
            draws = gen.random(60)
            for enclave in range(5):
                susceptible = [s for s in range(20) if s not in infected[enclave]]
                if susceptible and draws[enclave] < 0.5:
                    infected[enclave].add(susceptible[int(draws[enclave + 5] * len(susceptible))])
                if len(infected[enclave]) > 15:
                    infected[enclave].clear()
        infected_total += sum(len(group) for group in infected)
    return infected_total


def kernel_s() -> float:
    """Seconds the kernel takes now, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _arithmetic()
        _containers()
        _records()
        _draws()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def adjusted(parts: list[float], kernels: list[float]) -> list[float]:
    """Each part's time at the reference host's speed.

    ``kernels[i]`` was measured right after part ``i``; a part is scaled by
    the mean of the kernels on either side of it.
    """
    if len(kernels) != len(parts):
        raise ValueError(f"{len(parts)} parts but {len(kernels)} kernel times")
    return [
        part * REFERENCE_S / statistics.mean(kernels[max(0, i - 1): i + 1])
        for i, part in enumerate(parts)
    ]
