"""The built-in rules: one fixed table, looked up by ``rule_id``.

Two families, four rules, each targeting a failure mode this repo has
actually shipped fixes for (see CHANGES.md PRs 6–9):

========================  ====================================================
``unseeded-random``       process-global / unseeded RNG in payload modules
``wall-clock``            ``time.time()`` & friends in payload modules
``set-iteration``         bare-set iteration order escaping into results
``registry-sync``         static CLI choice tuples vs runtime registries
========================  ====================================================
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.analysis.base import Rule
from repro.analysis.rules.determinism import (
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.analysis.rules.registry_sync import RegistrySyncRule

__all__ = [
    "RegistrySyncRule",
    "SetIterationRule",
    "UnseededRandomRule",
    "WallClockRule",
    "all_rules",
    "available_rules",
    "get_rule",
]

_RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        UnseededRandomRule(),
        WallClockRule(),
        SetIterationRule(),
        RegistrySyncRule(),
    )
}


def available_rules() -> Tuple[str, ...]:
    """Rule ids, sorted."""
    return tuple(sorted(_RULES))


def get_rule(rule_id: str) -> Rule:
    try:
        return _RULES[rule_id]
    except KeyError:
        raise ValueError(
            f"unknown rule {rule_id!r}; available: "
            f"{', '.join(available_rules())}"
        ) from None


def all_rules(only: Iterable[str] = ()) -> Tuple[Rule, ...]:
    """Every rule (or the *only* subset), id-sorted."""
    wanted = tuple(only) or tuple(_RULES)
    return tuple(get_rule(rule_id) for rule_id in sorted(wanted))
