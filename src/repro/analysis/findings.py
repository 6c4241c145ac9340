"""The :class:`Finding` record and per-line suppression directives.

A finding is one rule violation anchored to a file/line/column; the
engine sorts findings into a stable (path, line, col, rule) order so
lint output is deterministic run to run — the linter holds itself to
the same determinism bar it enforces.

Suppressions are per-line comments::

    value = time.time()  # reprolint: disable=wall-clock -- cache metadata

    # reprolint: disable=set-iteration -- sorted by the caller
    for name in names:

An inline directive suppresses findings on its own line; a directive on
a comment-only line suppresses findings on the next line (for
statements too long to carry the comment).  ``disable=all`` suppresses
every rule.  Text after ``--`` is the human justification and is kept
out of the rule-id list.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Mapping

__all__ = [
    "Finding",
    "SUPPRESS_ALL",
    "parse_suppressions",
]

#: Wildcard rule id accepted in ``disable=`` lists.
SUPPRESS_ALL = "all"

_DIRECTIVE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\- ]+)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a concrete source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str = field(compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return f"{self.location()}: {self.rule_id}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def parse_suppressions(source: str) -> Mapping[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule ids suppressed on them."""
    table: Dict[int, List[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        ids = []
        for token in match.group(1).split(","):
            # "--" starts the justification; drop it and everything after.
            token = token.split("--")[0].strip()
            if token:
                ids.append(token)
        if not ids:
            continue
        # A comment-only line guards the statement on the next line.
        target = lineno + 1 if text.strip().startswith("#") else lineno
        table.setdefault(target, []).extend(ids)
    return {line: frozenset(ids) for line, ids in table.items()}
