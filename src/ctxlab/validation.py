"""Violation reports returned by the check_* operations.

A report is empty iff the checked object satisfies every invariant the
check covers.  Violations carry a dotted ``kind`` naming the invariant
breached (e.g. ``"category.assoc"``, ``"net.locality"``) plus a free-form
message locating the offending instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, message: str) -> None:
        self.violations.append(Violation(kind, message))

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [{"kind": v.kind, "message": v.message} for v in self.violations],
        }

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)
