"""Violation reports returned by the check_* operations.

A report is empty iff the checked object satisfies every invariant the
check covers.  Violations carry a dotted ``kind`` naming the invariant
breached (e.g. ``"category.assoc"``, ``"net.locality"``) plus a free-form
message locating the offending instance.  ``whole_number`` reads the
sizes and indices of JSON specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError


def whole_number(value, what: str, least: int | None = None) -> int:
    """``value`` as an int, or InputError naming ``what`` and the value:
    it must be a number equal to its integer part (Python takes JSON
    ``true`` for 1, so booleans are refused), and at least ``least``."""
    try:
        whole = not isinstance(value, bool) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or (least is not None and value < least):
        bound = "" if least is None else f" of at least {least}"
        raise InputError(f"{what} must be a whole number{bound}, got {value!r}")
    return int(value)


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
