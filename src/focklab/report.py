"""The CheckReport record every check yields, and its one constructor."""

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
    Checks build their reports with check_report.
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


def check_report(
    stem: str, case=None, q=None, suffix: str = "", failure: str | None = None, *,
    residual: str | None = None, tolerance: str = "0", details: str = "",
    case_in_id: bool = True, q_in_id: bool = True,
) -> CheckReport:
    """The report of a check of `case` (a CaseDescriptor) at `q`, failing on `failure`.

    The id is <stem>[.<case label>][.<q joined by _>]<suffix>, and case_id
    and q are filled from the same case and q; case_in_id / q_in_id keep
    either out of the id of a report whose stem or suffix already names it.
    The report fails exactly when `failure` names what broke (empty or None:
    it passes), and its residual is that text, or "0" on a pass.  A float
    check, whose residual is a measurement, passes it as `residual`; a
    failing report whose residual reads "0" is refused.
    """
    parts = [stem]
    if case is not None and case_in_id:
        parts.append(case.label)
    if q is not None and q_in_id:
        parts.append("_".join(q_strings(q)))
    rep_id = ".".join(parts) + suffix
    residual = residual if residual is not None else failure or "0"
    if failure and residual == "0":
        raise ValueError(f"{rep_id} fails with residual 0")
    return CheckReport(
        id=rep_id, case_id=case.label if case is not None else "",
        q=q_strings(q) if q is not None else [],
        status="fail" if failure else "pass", residual=residual,
        tolerance=tolerance, details=details,
    )


def terms_failure(residual) -> str | None:
    """The failure of an exact identity whose residual polynomial must vanish:
    its number of terms, or None when it is zero."""
    return None if residual.is_zero() else f"{len(residual.terms)} terms"
