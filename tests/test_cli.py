"""CLI: catalog dumps, suite orchestration, CSV exports, exit codes."""

import json
import subprocess
import sys
import time

import pytest

from focklab import checks, kernel
from focklab.cli import main
from focklab.jordan import build_case
from focklab.report import CheckReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_catalog_all_cases(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    code, _ = run(capsys, "catalog", "--json", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    ids = [c["case_id"] for c in payload["cases"]]
    assert sorted(set(ids)) == list(range(1, 12))  # includes the infeasible (11)


def test_catalog_case5(capsys):
    code, out = run(capsys, "catalog", "--case", "5")
    assert code == 0
    payload = json.loads(out)
    case = payload["cases"][0]
    assert case["expected_g"] == "so(8,C)" and case["expected_g_dim"] == 28
    assert len(case["factors"]) == 4


def test_catalog_parametrized(capsys):
    code, out = run(capsys, "catalog", "--case", "2", "--p", "6")
    assert code == 0
    case = json.loads(out)["cases"][0]
    assert case["factors"][0]["dim"] == 6


def test_usage_error_exit_2(capsys):
    assert main(["verify", "nonsense"]) == 2
    assert main(["export", "cm"]) == 2  # missing --case


@pytest.mark.parametrize("argv", [("verify", "sl2", "--q", "x"),
                                  ("export", "cm", "--case", "1", "--q", "1/0")])
def test_malformed_q_is_a_usage_error(argv, capsys):
    assert main(list(argv)) == 2
    assert "invalid --q" in capsys.readouterr().err


def test_export_cm_row_count(capsys):
    code, out = run(capsys, "export", "cm", "--case", "1", "--q", "0", "-m", "20")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[0] == "m,c_m_num,c_m_den"
    assert len(lines) == 22  # header + 21 rows
    assert lines[1] == "0,1,1"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int<->str digit limit")
def test_export_long_series_beyond_digit_limit(tmp_path, capsys):
    # at m = 200 the case (1) denominators run past 800 digits
    coeffs = kernel.c_sequence(build_case(1), (0,), m_max=200).coeffs
    assert len(str(coeffs[-1].denominator)) > 640
    texts = {}
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for fmt in ("csv", "json"):
            path = tmp_path / f"cm.{fmt}"
            code, _ = run(capsys, "kernel-coeffs", "--case", "1", "--q", "0", "-m", "200",
                          "--format", fmt, "-o", str(path))
            assert code == 0
            assert sys.get_int_max_str_digits() == 640  # restored after the export
            texts[fmt] = path.read_text()
    finally:
        sys.set_int_max_str_digits(previous)
    want = [(m, c.numerator, c.denominator) for m, c in enumerate(coeffs)]
    assert [tuple(map(int, l.split(","))) for l in texts["csv"].splitlines()[1:]] == want
    assert [(r["m"], r["num"], r["den"]) for r in json.loads(texts["json"])["coeffs"]] == want


def test_export_weight_profile_contains_sign_change(capsys):
    code, out = run(
        capsys, "export", "weight-profile", "--case", "1", "--q", "0", "--grid", "60"
    )
    assert code == 0
    vals = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:-1]]
    assert any(a * b < 0 for a, b in zip(vals, vals[1:]))
    assert "sign-change brackets" in out


@pytest.mark.parametrize("argv", [
    ("export", "weight-profile", "--case", "1", "--q", "0", "--grid", "1"),
    ("export", "weight-profile", "--case", "1", "--q", "0", "--grid", "0"),
    ("export", "weight-profile", "--case", "1", "--q", "0", "--grid", "-4"),
    ("weight-scan", "--case", "1", "--q", "0", "--grid", "1"),
    ("weight-scan", "--case", "1", "--q", "0", "--grid", "0"),
])
def test_grid_below_two_is_a_usage_error(argv, capsys):
    assert main(list(argv)) == 2
    assert "--grid must be at least 2" in capsys.readouterr().err


def test_export_moments(capsys):
    code, out = run(
        capsys, "export", "moments", "--case", "5", "--q", "0,0,0,0", "-m", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,trapezoid,closed_form,rel_err,err_bound"
    assert len(lines) == 4
    m2 = lines[3].split(",")
    assert abs(float(m2[2]) - 108.0) < 1e-9  # Gamma(4)^3 / Gamma(3)
    assert abs(float(m2[1]) - 108.0) <= float(m2[4]) < 1e-10 * 108.0


def test_export_moments_fails_when_a_moment_misses_its_bound(monkeypatch, capsys):
    # off by 1e-12, within any tolerance but outside the trapezoid's bound
    real = kernel.MeijerEvaluator.moment_closed
    monkeypatch.setattr(kernel.MeijerEvaluator, "moment_closed",
                        lambda self, m: real(self, m) * (1 + 1e-12))
    code = main(["export", "moments", "--case", "5", "--q", "0,0,0,0", "-m", "2"])
    out, err = capsys.readouterr()
    assert code == 1 and len(out.strip().splitlines()) == 4
    assert "miss their error bounds" in err


def test_admissible_q_case11(capsys):
    code, out = run(capsys, "admissible-q", "--case", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible"][0]["feasible"] is False


def test_verify_tables_suite(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(capsys, "verify", "tables", "--json", str(path), "--jobs", "1")
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert all(c["status"] == "pass" for c in payload["checks"])
    ids = [c["id"] for c in payload["checks"]]
    assert ids == sorted(ids)


def test_verify_report_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(capsys, "verify", "tables", "--json", str(p1), "--jobs", "1")[0] == 0
    assert run(capsys, "verify", "tables", "--json", str(p2), "--jobs", "1")[0] == 0
    j1, j2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    for c in j1["checks"] + j2["checks"]:
        c["elapsed_ms"] = 0
    assert j1 == j2


def test_weight_scan_command(capsys):
    code, out = run(capsys, "weight-scan", "--case", "1", "--q", "0", "--grid", "80")
    assert code == 0
    assert "weight.sign.1.0" in out


def test_single_q_component_expands(capsys):
    # the free parameter alone determines the full q vector
    code, out = run(capsys, "export", "moments", "--case", "5", "--q", "0", "-m", "1")
    assert code == 0
    rows = out.strip().splitlines()
    assert abs(float(rows[1].split(",")[2]) - 1.0) < 1e-12
    assert abs(float(rows[2].split(",")[2]) - 8.0) < 1e-12


def test_parallel_jobs_deterministic():
    from focklab.cli import run_suites

    opts = {"precision": 12, "trunc": 4, "m_max": 2}
    seq = run_suites(["tables", "sl2"], opts, jobs=1)
    par = run_suites(["tables", "sl2"], opts, jobs=2)
    strip = lambda cs: [{**c.to_dict(), "elapsed_ms": 0} for c in cs]
    assert strip(seq) == strip(par)


@pytest.mark.parametrize("suite", ["tables", "sl2", "meijer", "bernstein"])
def test_every_report_carries_its_own_time(suite, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(capsys, "verify", suite, "--json", str(path), "--jobs", "1")[0] == 0
    reports = json.loads(path.read_text())["checks"]
    assert reports
    assert [c["id"] for c in reports if not c["elapsed_ms"] > 0] == []


def test_suite_reports_add_up_to_its_run_time():
    checks.registry()
    t0 = time.perf_counter()
    reports = checks.run_suite("meijer", {})
    wall_ms = (time.perf_counter() - t0) * 1000
    assert reports and all(r.status == "pass" for r in reports)
    # disjoint intervals inside the run: at most its wall time, never cumulative
    assert 0.95 * wall_ms <= sum(r.elapsed_ms for r in reports) <= wall_ms + 1e-6


def test_entry_that_raises_keeps_the_reports_it_yielded(capsys):
    def run_two_then_raise(opts):
        yield CheckReport(id="x.first")
        yield CheckReport(id="x.second")
        raise ZeroDivisionError("injected")

    entry = checks.Entry("tables", "x", None, None, run_two_then_raise)
    reports = checks.run_entry(entry, {})
    assert [(r.id, r.status) for r in reports] == [
        ("x.first", "pass"), ("x.second", "pass"), ("x", "error")]
    assert reports[2].details == "ZeroDivisionError: injected"
    assert all(r.elapsed_ms > 0 for r in reports)
    assert "ZeroDivisionError: injected" in capsys.readouterr().err


def test_meijer_command_fails_on_a_wrong_moment(monkeypatch, capsys):
    assert run(capsys, "meijer", "--case", "1", "--q", "0")[0] == 0
    real = kernel.MeijerEvaluator.moment_closed
    monkeypatch.setattr(kernel.MeijerEvaluator, "moment_closed",
                        lambda self, m: real(self, m) * 1.01)
    code, out = run(capsys, "meijer", "--case", "1", "--q", "0")
    assert code == 1 and "[FAIL] meijer.moment.1.0.0" in out


@pytest.mark.parametrize("argv", [("operators", "--case", "2"), ("sl2", "--case", "12")])
def test_verify_empty_selection_exit_2(argv, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", *argv, "--jobs", "1", "--json", str(path)]) == 2
    assert "no check" in capsys.readouterr().err
    assert json.loads(path.read_text())["checks"] == []


def test_verify_case_filter_applies_to_every_suite(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run(capsys, "verify", "tables", "--case", "5", "--json", str(path), "--jobs", "1")
    assert code == 0
    reports = json.loads(path.read_text())["checks"]
    assert reports and {c["case_id"] for c in reports} == {"5"}


def test_verify_q_filter_takes_the_free_parameter(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run(capsys, "verify", "sl2", "--case", "5", "--q", "1",
                  "--json", str(path), "--jobs", "1")
    assert code == 0
    assert [c["id"] for c in json.loads(path.read_text())["checks"]] == ["sl2.pm.5.1_1_1_1"]


def test_raising_check_reports_error_and_run_goes_on(tmp_path, capsys, monkeypatch):
    real = kernel.q0_reduction_check

    def raise_on_case5(case):
        if case.case_id == 5:
            raise ZeroDivisionError("injected")
        return real(case)

    monkeypatch.setattr(kernel, "q0_reduction_check", raise_on_case5)
    path = tmp_path / "report.json"
    code, out = run(capsys, "verify", "tables", "--json", str(path), "--jobs", "1")
    assert code == 1
    reports = json.loads(path.read_text())["checks"]
    bad = [c for c in reports if c["status"] != "pass"]
    assert [(c["id"], c["status"]) for c in bad] == [("kernel.q0reduction.5.0_0_0_0", "error")]
    assert bad[0]["details"] == "ZeroDivisionError: injected"
    assert len(reports) == 110  # every other entry still ran
    assert "1 errors" in out


def test_registry_is_built_lazily():
    # solving the feasible q of every case costs more than importing the CLI
    code = ("import focklab.cli, focklab.checks as c; "
            "print(c.registry.cache_info().currsize, c.feasible_pairs.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "0"]


def test_kernel_cm_fails_when_the_series_is_off(monkeypatch):
    entries = [e for e in checks.select(("meijer",)) if e.name == "kernel.cm"]
    assert len(entries) == len(checks.feasible_pairs())
    run_all = lambda: [r.status for e in entries for r in checks.run_entry(e, {})]
    assert set(run_all()) == {"pass"}
    real = kernel.kernel_eval
    # off by 1e-9 relative, except at u = 0, where every series is exactly 1
    monkeypatch.setattr(kernel, "kernel_eval",
                        lambda case, q, u, **kw: real(case, q, u, **kw) * (1 + 1e-9 * (u != 0)))
    assert set(run_all()) == {"fail"}


def _modules_after_suites(*suites: str) -> set[str]:
    """The modules a fresh interpreter holds after running the suites, all passing."""
    code = ("import sys; from focklab import checks; "
            f"reports = [r for s in {suites!r} for r in checks.run_suite(s, {{'trunc': 3}})]; "
            "assert reports and all(r.status == 'pass' for r in reports); "
            "print(' '.join(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return set(out.split())


def test_operators_suite_imports_neither_numpy_nor_scipy():
    modules = _modules_after_suites("operators")
    assert "focklab.fock" in modules and not {"numpy", "scipy"} & modules


def test_meijer_then_bergman_imports_no_scipy():
    modules = _modules_after_suites("meijer", "bergman")
    assert "numpy" in modules and "scipy" not in modules
