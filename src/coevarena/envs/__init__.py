"""Engagement environments and the registry the CLI uses to build them."""

from __future__ import annotations

from pathlib import Path

from ..engagement import EngagementEnvironment, ScenarioError
from .contagion import ContagionEnvironment
from .ddos import DdosEnvironment

ENVIRONMENTS = {factory.environment_id: factory for factory in (DdosEnvironment, ContagionEnvironment)}


def load_environment(environment_id: str, scenario_path: str | Path) -> EngagementEnvironment:
    try:
        factory = ENVIRONMENTS[environment_id]
    except KeyError:
        raise ScenarioError(
            f"unknown environment {environment_id!r}; known: {sorted(ENVIRONMENTS)}"
        ) from None
    return factory.from_file(scenario_path)

