"""The four workloads: pinned operations and the checks on their outputs.

Every option a workload depends on is written out here rather than taken
from a focklab default, so a changed default (``--jobs``, ``--trunc``,
``--precision``) cannot silently change what a workload measures.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

# Options handed to cli.run_suites.  The engine seed (translate sampling in
# structure, evaluation points in bernstein) is pinned to the CLI default:
# the structure check's sampling heuristic is seed-sensitive (seed 13 draws
# only four distinct translates for case 1 and reports inconclusive), so a
# varying seed would make the benchmark fail at random rather than show a
# defect steadily.
VERIFY_OPTS = {
    "seed": 7,
    "precision": 12,
    "trunc": 6,
    "m_max": 5,
    "strict_integrality": True,
    "case": None,
    "q": None,
}

PROFILE_GRID = 30000
SERIES_CASE5_M = 400
# Case (1), q=0 crosses Python's 4300-digit int->str limit at m=801, so this
# export raises ValueError while writing the CSV: a known failure kept on
# purpose so that it shows in the failure count until it is fixed.
SERIES_CASE1_M = 810


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a suite through cli.run_suites or a cli.main call."""

    label: str
    suite: str = ""
    argv: tuple[str, ...] = ()
    kind: str = ""  # export kind: "profile" or "series"
    rows: int = 0   # expected data rows of an export


def _profile(case: str, *flags: str) -> Op:
    label = "weight-profile." + case + "".join("." + f for f in flags[1::2])
    argv = ("export", "weight-profile", "--case", case, *flags, "--q", "0",
            "--grid", str(PROFILE_GRID), "--precision", "12", "--format", "csv")
    return Op(label, argv=argv, kind="profile", rows=PROFILE_GRID)


def _series(case: str, q: str, m: int) -> Op:
    label = f"kernel-coeffs.{case}.{q.replace(',', '_')}.m{m}"
    argv = ("kernel-coeffs", "--case", case, "--q", q, "-m", str(m), "--format", "csv")
    return Op(label, argv=argv, kind="series", rows=m + 1)


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "verify-exact": tuple(Op(f"suite.{s}", suite=s)
                          for s in ("structure", "bernstein", "sl2", "tables")),
    "verify-operators": (Op("suite.operators", suite="operators"),),
    # bergman runs after meijer in one process, so it reuses the evaluator cache
    "verify-analytic": (Op("suite.meijer", suite="meijer"), Op("suite.bergman", suite="bergman")),
    "export-stream": (
        _profile("1"),
        _profile("5"),
        _profile("9", "--variant", "a"),
        _series("5", "1,1,1,1", SERIES_CASE5_M),
        _series("1", "0", SERIES_CASE1_M),
    ),
}


# Workloads whose operations share no state, so any order gives the same outputs.
ORDER_FREE = ("verify-exact", "export-stream")


def operations(workload: str, seed: int) -> list[Op]:
    """The workload's operations in the order the seed picks.

    verify-analytic keeps meijer before bergman, whose evaluator-cache hits
    are part of what it measures.
    """
    ops = list(WORKLOADS[workload])
    if workload in ORDER_FREE:
        random.Random(seed).shuffle(ops)
    return ops


def export_path(out_dir: Path, op: Op) -> Path:
    return out_dir / f"{op.label}.csv"


def operation_count(workload: str) -> int:
    """Operations one pass attempts: expected check ids, or exports."""
    if workload in EXPECTED["check_ids"]:
        return sum(count for _, count in EXPECTED["check_ids"][workload].values())
    return len(WORKLOADS[workload])


# -- output checks ---------------------------------------------------------------


def check(workload: str, records: list[dict], out_dir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, mismatches) for one pass's operation records."""
    if workload in EXPECTED["check_ids"]:
        return check_suites(workload, records)
    return check_exports(workload, records, out_dir)


_DIM_G = re.compile(r"dimG=(\d+) \(expected (\d+),")


def check_suites(workload: str, records: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, mismatches) for a verify workload.

    Every expected check is one operation; an id may repeat (the per-alpha
    Bernstein reports do), so the expected ids are a multiset.  A check
    fails when it is missing, when its status is not pass, or when a
    structure row's dimG disagrees with the table.  A check missing because
    its suite raised counts as failed; one missing from a suite that
    returned, or one not expected at all, is also a mismatch.
    """
    expected = EXPECTED["check_ids"][workload]
    dim_g = EXPECTED["structure_dim_g"]
    seen: dict[str, list[dict]] = {}
    for r in records:
        for c in r["checks"]:
            seen.setdefault(c["id"], []).append(c)
    raised_suites = {r["op"].split(".", 1)[1] for r in records if r["error"]}
    attempted = failed = 0
    mismatches: list[str] = []
    for cid in sorted(set(expected) | set(seen)):
        suite, count = expected.get(cid, ("", 0))
        got = seen.get(cid, [])
        attempted += max(count, len(got))
        missing, extra = max(count - len(got), 0), max(len(got) - count, 0)
        failed += missing + extra
        if missing and suite not in raised_suites:
            mismatches.append(f"{cid}: {len(got)} of {count} reports")
        if extra:
            mismatches.append(f"{cid}: {len(got)} reports, expected {count}")
        for i, c in enumerate(got[:count]):
            problem = ""
            if c["status"] != "pass":
                problem = f"{cid}: status {c['status']}"
            elif cid in dim_g:
                # repeated structure ids (case 2 for p = 2, 3, 4) keep table order
                want = dim_g[cid][i]
                m = _DIM_G.search(c["details"])
                if not m or int(m.group(1)) != want or int(m.group(2)) != want:
                    problem = f"{cid}: dimG mismatch in {c['details']!r}"
            if problem:
                failed += 1
                mismatches.append(problem)
    return attempted, failed, mismatches


def check_exports(workload: str, records: list[dict], out_dir: Path) -> tuple[int, int, list[str]]:
    """Every export is one operation; it fails when it raised, returned a
    non-zero exit code or wrote a wrong CSV (the last two are mismatches)."""
    by_label = {r["op"]: r for r in records}
    failed, mismatches = 0, []
    for op in WORKLOADS[workload]:
        r = by_label.get(op.label)
        if r is None:
            problems = [f"{op.label}: not run"]
        elif r["error"]:
            failed += 1
            continue
        elif r["rc"] != 0:
            problems = [f"{op.label}: exit code {r['rc']}"]
        else:
            problems = check_export(op, export_path(out_dir, op))
        failed += bool(problems)
        mismatches += problems
    return len(WORKLOADS[workload]), failed, mismatches


def check_export(op: Op, path: Path) -> list[str]:
    """Problems with one export's CSV; empty when it is correct."""
    if not path.is_file():
        return [f"{op.label}: no output file"]
    lines = path.read_text().splitlines()
    if op.kind == "profile":
        return _check_profile(op, lines)
    return _check_series(op, lines)


def _check_profile(op: Op, lines: list[str]) -> list[str]:
    if len(lines) != op.rows + 2 or lines[0] != "u,G":
        return [f"{op.label}: {len(lines)} lines, expected {op.rows + 2}"]
    footer = lines[-1]
    if not footer.startswith("# sign-change brackets: ["):
        return [f"{op.label}: missing bracket footer"]
    brackets = footer.count("(")
    if brackets == 0:
        return [f"{op.label}: no sign-change bracket"]
    us, gs = [], []
    for line in lines[1:-1]:
        u, g = line.split(",")
        us.append(float(u))
        gs.append(float(g))
    if any(b <= a for a, b in zip(us, us[1:])):
        return [f"{op.label}: grid not increasing"]
    changes = sum(1 for a, b in zip(gs, gs[1:]) if a != 0.0 and b != 0.0 and (a > 0) != (b > 0))
    if changes != brackets:
        return [f"{op.label}: {brackets} brackets but {changes} sign changes in the data"]
    return []


def _check_series(op: Op, lines: list[str]) -> list[str]:
    if len(lines) != op.rows + 1 or lines[0] != "m,c_m_num,c_m_den":
        return [f"{op.label}: {len(lines)} lines, expected {op.rows + 1}"]
    if lines[1] != "0,1,1":
        return [f"{op.label}: c_0 row is {lines[1]!r}, expected '0,1,1'"]
    for m, line in enumerate(lines[1:]):
        parts = line.split(",")
        # digit strings only: c_m > 0, compared without int() so long
        # coefficients are not subject to the int-string digit limit here
        if (len(parts) != 3 or parts[0] != str(m) or not parts[1].isdigit()
                or not parts[2].isdigit() or parts[1] == "0" or parts[2] == "0"):
            return [f"{op.label}: bad row {m}"]
    return []
