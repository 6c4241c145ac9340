"""The :class:`Rule` protocol.

Each concrete rule has a stable ``rule_id`` (the id users write in
``# reprolint: disable=`` comments).  The built-in rules form one fixed
table in :mod:`repro.analysis.rules`, which the engine reads through
:func:`~repro.analysis.rules.all_rules`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Iterator

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.project import ModuleInfo, Project

__all__ = ["Rule"]


class Rule:
    """One named invariant checked against the parse tree.

    Subclasses set ``rule_id``/``description`` and override
    :meth:`check_module` (called once per parsed file) and/or
    :meth:`check_project` (called once per lint run, for cross-file
    invariants like registry mirrors).  Both yield :class:`Finding`\\ s;
    the engine applies suppressions afterwards, so rules never need to
    read comments.
    """

    rule_id: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def check_module(
        self, module: "ModuleInfo", project: "Project"
    ) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "Project") -> Iterator[Finding]:
        return iter(())

    def finding(
        self, module: "ModuleInfo", line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=module.display_path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
        )

