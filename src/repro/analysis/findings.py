"""Structured findings emitted by the analysis rules.

A :class:`Finding` pins one rule violation to a file/line/column so it
can be rendered as a compiler-style diagnostic, serialized to JSON for
CI, or matched against ``# repro: noqa[RULE-ID]`` suppression comments
by the engine.  Every finding fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    column: int
    rule_id: str
    message: str

    def render(self) -> str:
        """Compiler-style one-line diagnostic."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule_id} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (for ``--format=json`` / CI)."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule_id,
            "message": self.message,
        }
