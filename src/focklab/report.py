"""The CheckReport record every check yields, and its q formatter."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class CheckReport:
    """One verification result.

    status is one of pass/fail/error ("error": the check raised, see details);
    residual and tolerance are strings so exact rationals and decimal floats
    both round-trip through JSON.  A check never sets elapsed_ms: the runner
    (checks.run_entry) stamps it with the milliseconds since the previous
    report of the same entry, so a suite's reports add up to its run time.
    """

    id: str
    case_id: str = ""
    q: list[str] = field(default_factory=list)
    status: str = "pass"
    residual: str = "0"
    tolerance: str = "0"
    elapsed_ms: float = 0.0
    details: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "case_id": self.case_id,
            "q": list(self.q),
            "status": self.status,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "elapsed_ms": self.elapsed_ms,
            "details": self.details,
        }


def q_strings(q) -> list[str]:
    return [str(Fraction(x)) for x in q]
