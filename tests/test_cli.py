"""CLI: catalog dumps, suite orchestration, CSV exports, exit codes."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from focklab import checks, cli, fock, kernel, sl2
from focklab.cli import build_parser, main
from focklab.jordan import build_case
from focklab.report import CheckReport, check_report


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
    assert main(["kernel-coeffs"]) == 2  # missing --case


@pytest.mark.parametrize("argv", [("verify", "sl2", "--q", "x"),
                                  ("kernel-coeffs", "--case", "1", "--q", "1/0")])
def test_malformed_q_is_a_usage_error(argv, capsys):
    assert main(list(argv)) == 2
    assert "invalid --q" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("kernel-coeffs", "--case", "99"),
    ("catalog", "--case", "99"),
    ("catalog", "--case", "0"),  # not "every case"
    ("admissible-q", "--p", "4"),  # --p needs --case
    ("kernel-coeffs", "--case", "9", "--variant", "z"),
    ("weight-scan", "--case", "2", "--p", "1"),
    ("catalog", "--case", "1", "--p", "5"),  # case 1 has no family parameter
    ("meijer", "--case", "9", "--p", "3"),
    ("kernel-coeffs", "--case", "2", "--variant", "b"),
    ("meijer", "--case", "11"),  # case 11 has no admissible q
    ("weight-scan", "--case", "11"),
    ("export", "weight-profile", "--case", "11"),
    ("kernel-coeffs", "--case", "1", "--q", "0,1"),
    ("kernel-coeffs", "--case", "1", "--q", "1"),  # q1/4 is no half-integer
    ("kernel-coeffs", "--case", "1", "--q", "-1"),
    ("weight-scan", "--case", "1", "--q", "1"),
    ("export", "moments", "--case", "1", "--format", "json"),
    ("export", "weight-profile", "--case", "1", "--format", "json"),
    # flags a command never reads
    ("catalog", "--case", "1", "--q", "5", "--precision", "3"),
    ("admissible-q", "--case", "1", "--precision", "3"),
    ("kernel-coeffs", "--case", "1", "--q", "0", "-m", "2", "--precision", "1", "--grid", "5"),
    ("verify", "sl2", "--case", "2", "--p", "4"),  # verify selects by case number alone
    ("verify", "meijer", "--case", "9", "--variant", "b"),
    ("export", "moments", "--case", "1", "--q", "0", "--grid", "5"),
    ("export", "weight-profile", "--case", "1", "--q", "0", "-m", "7"),
    ("meijer", "--case", "1", "--q", "0", "--moments", "5"),  # the count is -m/--m-max
    ("export", "cm", "--case", "1"),
    ("catalog", "--case", "10", "--d", "8"),
    ("verify", "tables", "--jobs", "0"),
    ("verify", "tables", "--jobs", "-3"),
], ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
def test_bad_case_q_or_format_is_a_usage_error(argv, capsys):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ("export", "moments", "--case", "1", "--precision", "x"),
    ("export", "weight-profile", "--case", "1", "--precision", "0"),
    ("meijer", "--case", "1", "--precision", "x"),
    ("weight-scan", "--case", "1", "--precision", "0"),
    ("export", "moments", "--case", "1", "--precision", "0"),
    ("meijer", "--case", "1", "--precision", "-20"),
], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv if a != "--precision"))
def test_precision_below_1_or_malformed_is_a_usage_error(argv, capsys):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and "Traceback" not in captured.err
    assert "--precision" in captured.err


@pytest.mark.parametrize("argv", [
    ("verify", "meijer", "--precision", "13"),
    ("verify", "tables", "--m-max", "9"),
    ("verify", "tables", "--precision", "x"),
    ("verify", "tables", "--precision", "0"),
    ("verify", "meijer", "--m-max", "-1"),
], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
def test_verify_takes_neither_precision_nor_m_max(argv, capsys):
    # the check matrix fixes the moment count and the precision
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith("unrecognized arguments: " + " ".join(argv[2:]))


def test_kernel_coeffs_row_count(capsys):
    code, out = run(capsys, "kernel-coeffs", "--case", "1", "--q", "0", "-m", "20")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[0] == "m,c_m_num,c_m_den"
    assert len(lines) == 22  # header + 21 rows
    assert lines[1] == "0,1,1"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int<->str digit limit")
def test_export_long_series_beyond_digit_limit(tmp_path, capsys):
    # at m = 200 the case (1) denominators run past 800 digits
    coeffs = kernel.c_sequence(build_case(1), (0,), m_max=200)
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


@pytest.mark.parametrize("argv, flag", [
    (("meijer", "--case", "5", "--q", "0", "--m-max", "-1"), "--m-max"),
    (("export", "moments", "--case", "5", "--q", "0", "-m", "-2"), "--m-max"),
    (("kernel-coeffs", "--case", "1", "--q", "0", "-m", "-3"), "--m-max"),
    (("kernel-coeffs", "--case", "1", "--q", "0", "--m-max", "-1"), "--m-max"),
])
def test_negative_count_is_a_usage_error(argv, flag, capsys):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert f"{flag} must be at least 0" in captured.err and captured.out == ""


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
    real = kernel.MellinSymbol.at
    monkeypatch.setattr(kernel.MellinSymbol, "at",
                        lambda self, s, precision: real(self, s, precision) * (1 + 1e-12))
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

    seq = run_suites(["tables", "sl2"], {}, jobs=1)
    par = run_suites(["tables", "sl2"], {}, jobs=2)
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
    reports = checks.run_suite("meijer")
    wall_ms = (time.perf_counter() - t0) * 1000
    assert reports and all(r.status == "pass" for r in reports)
    # disjoint intervals inside the run: at most its wall time, never cumulative
    assert 0.95 * wall_ms <= sum(r.elapsed_ms for r in reports) <= wall_ms + 1e-6


def test_entry_that_raises_keeps_the_reports_it_yielded(capsys):
    def run_two_then_raise():
        yield CheckReport(id="x.first")
        yield CheckReport(id="x.second")
        raise ZeroDivisionError("injected")

    entry = checks.Entry("tables", "x", None, None, run_two_then_raise)
    reports = checks.run_entry(entry)
    assert [(r.id, r.status) for r in reports] == [
        ("x.first", "pass"), ("x.second", "pass"), ("x", "error")]
    assert reports[2].details == "ZeroDivisionError: injected"
    assert all(r.elapsed_ms > 0 for r in reports)
    assert "ZeroDivisionError: injected" in capsys.readouterr().err


def test_check_report_fails_exactly_when_it_names_a_failure():
    case = build_case(5)
    rep = check_report("x.check", case, (0, F(1, 2), 0, 0), ".2")
    assert (rep.id, rep.case_id, rep.q) == ("x.check.5.0_1/2_0_0.2", "5", ["0", "1/2", "0", "0"])
    assert (rep.status, rep.residual) == ("pass", "0")
    rep = check_report("x.check", case, (0,), failure="3 terms", q_in_id=False)
    assert (rep.id, rep.q, rep.status, rep.residual) == ("x.check.5", ["0"], "fail", "3 terms")
    assert check_report("x", failure="", residual="1e-13").status == "pass"
    with pytest.raises(ValueError, match="fails with residual 0"):
        check_report("x", failure="broke", residual="0")


def test_meijer_command_fails_on_a_wrong_moment(monkeypatch, capsys):
    assert run(capsys, "meijer", "--case", "1", "--q", "0")[0] == 0
    real = kernel.MellinSymbol.at
    monkeypatch.setattr(kernel.MellinSymbol, "at",
                        lambda self, s, precision: real(self, s, precision) * 1.01)
    code, out = run(capsys, "meijer", "--case", "1", "--q", "0")
    assert code == 1 and "[FAIL] meijer.moment.1.0.0" in out


def test_meijer_command_passes_on_log_term_and_large_b_weights(capsys):
    # log-term weights (merged poles) and case 10d, whose moment integrand
    # peaks near u = e^7 at m = 12
    for argv in (("--case", "2", "--p", "2", "--q", "0"), ("--case", "3", "--q", "0,0"),
                 ("--case", "10", "--variant", "d"),
                 ("--case", "10", "--variant", "d", "--q", "1,9", "-m", "12")):
        code, out = run(capsys, "meijer", *argv)
        assert code == 0 and "[FAIL]" not in out, (argv, out)
    assert "[PASS] meijer.moment.10d.1_9.12 " in out


@pytest.mark.parametrize("argv, expected", [
    (("export", "moments", "--case", "1", "--q", "0", "-m", "5", "--precision", "13",
      "-o", "moments.csv"), ()),
    (("weight-scan", "--case", "10", "--variant", "d"), ("  1 sign changes  ", "exact: ")),
], ids=["moments-p13", "scan-10d"])
def test_odd_precision_runs_and_the_10d_scan_pass(argv, expected, tmp_path, capsys):
    # odd precision gives contour tables of their own; case 10d's weight dips
    # into its roundoff floor, which the scan must not count as sign changes
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    code, out = run(capsys, *argv)
    assert code == 0, out
    for text in expected:
        assert text in out, out


@pytest.mark.parametrize("argv", [
    ("export", "weight-profile", "--case", "9", "--variant", "a", "--q", "0", "--grid", "30000",
     "-o", "profile.csv"),
    ("kernel-coeffs", "--case", "1", "--q", "0", "-m", "810", "-o", "series.csv"),
], ids=["profile-30000", "series-810"])
def test_long_exports_exit_0(argv, tmp_path, capsys):
    # the c_m at m = 810 run past the 4300-digit int-string limit
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    assert main(argv) == 0


def test_every_operator_relation_report_names_its_proved_range(tmp_path):
    assert main(["verify", "operators", "--jobs", "1", "--json", str(tmp_path / "ops.json")]) == 0
    checks = json.loads((tmp_path / "ops.json").read_text())["checks"]
    proofs = [c for c in checks
              if c["id"].startswith("fock.comm.") and c["id"] != "fock.comm.11.forced"]
    assert len(proofs) == 8, [c["id"] for c in proofs]
    # one proof path for all eight, the eta0 = 1 pairs 5.0_0_0_0 and 4.1_0_0 included
    for c in proofs:
        assert c["status"] == "pass", c
        assert c["details"] == "kappa=1/A; all m >= 1 (no pole on a kept block); 7 groups", c
    for c in checks:
        assert not c["id"].startswith("fock.comm.") or "columns" not in c["details"], c
    sigma2 = [c for c in checks if c["id"].startswith("fock.sigma2.")]
    assert len(sigma2) == 7, [c["id"] for c in sigma2]
    for c in sigma2:
        assert c["status"] == "pass" and "all m >= 0" in c["details"], c
    cyclic = [c for c in checks if c["id"].startswith("fock.cyclic.")]
    assert len(cyclic) == 4, [c["id"] for c in cyclic]
    for c in cyclic:
        assert c["status"] == "pass" and "all m >= 0" in c["details"], c


def test_negative_controls_quote_what_broke(tmp_path):
    assert main(["verify", "sl2", "--jobs", "1", "--json", str(tmp_path / "sl2.json")]) == 0
    assert main(["verify", "operators", "--case", "11", "--jobs", "1",
                 "--json", str(tmp_path / "ops11.json")]) == 0
    checks = {c["id"]: c for f in ("sl2.json", "ops11.json")
              for c in json.loads((tmp_path / f).read_text())["checks"]}
    for cid in ("sl2.pm.11.forced", "sl2.lemma35.2-2.unequal-b", "fock.comm.11.forced"):
        assert checks[cid]["status"] == "pass" and checks[cid]["residual"] != "0", checks[cid]


@pytest.mark.parametrize("entry,module,name", [
    pytest.param("sl2.pm.forced", sl2, "pm_identity_check", id="sl2.pm.forced"),
    pytest.param("fock.comm.forced", fock, "commutator_check", id="fock.comm.forced"),
])
def test_a_raising_forced_control_reports_under_its_own_id(entry, module, name, monkeypatch):
    # the error report of a control forced onto case (11) carries the id,
    # case and q of the report the control gives when it runs
    (e,) = [e for e in checks.registry() if e.name == entry]
    (rep,) = checks.run_entry(e)

    def raising(*args):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(module, name, raising)
    (err,) = checks.run_entry(e)
    assert (err.status, err.details) == ("error", "ZeroDivisionError: injected")
    assert (err.id, err.case_id, err.q) == (rep.id, rep.case_id, rep.q) == (
        entry.replace(".forced", ".11.forced"), "11", ["0", "0"])


def _perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves the module's annotations
    spec.loader.exec_module(module)
    return module


def test_benchmark_command_lines_parse(tmp_path):
    # parse only: each export runs as its argv plus the -o the benchmark appends
    parser = build_parser()
    for workload, ops in _perfbench_workloads().WORKLOADS.items():
        for op in ops:
            if op.suite:
                assert op.suite in checks.SUITES, (workload, op.label)
            else:
                args = parser.parse_args([*op.argv, "-o", str(tmp_path / "out.csv")])
                assert args.fn is cli.cmd_export, op


@pytest.mark.parametrize("workload", ["verify-exact", "verify-operators", "verify-analytic"])
def test_benchmark_check_ids_match_the_suites(workload, tmp_path):
    # the benchmark pins each verify workload's check ids and counts; a
    # renamed, added or dropped id must show here before it shows there
    w = _perfbench_workloads()
    records = [{"op": op.label, "error": None, "rc": None,
                "checks": [c.to_dict() for c in cli.run_suites([op.suite], w.VERIFY_OPTS, jobs=1)]}
               for op in w.operations(workload, 0)]
    assert w.check(workload, records, tmp_path) == (w.operation_count(workload), 0, [])


@pytest.mark.parametrize("argv", [("operators", "--case", "2"), ("sl2", "--case", "12"),
                                  ("tables", "--case", "0")])
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
    # importing the CLI builds no registry and solves no feasible q
    code = ("import focklab.cli, focklab.checks as c; "
            "print(c.registry.cache_info().currsize, c.feasible_pairs.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "0"]


@pytest.mark.parametrize("upper, lower0, first", [
    (None, F(-1, 2), "c_1"),  # (m - 1/2) < 0 at m = 0
    (F(-121, 2), F(-119, 2), "c_61"),  # the two negative factors part at m = 60
], ids=["lower-half", "past-50"])
def test_kernel_cm_fails_on_a_nonpositive_coefficient(monkeypatch, upper, lower0, first):
    # a parameter shifted below zero makes some c_m <= 0; kernel.cm scans up
    # to where every factor is positive and names the first one
    real = kernel.SpectralParams.c_step.fget

    def c_step(sp):
        up, low = real(sp)
        return (up if upper is None else (upper,)), (lower0, *low[1:])

    monkeypatch.setattr(kernel.SpectralParams, "c_step", property(c_step))
    (entry,) = [e for e in checks.select(("meijer",))
                if e.name == "kernel.cm" and e.case.label == "1" and e.q == (0,)]
    (report,) = checks.run_entry(entry)
    assert report.status == "fail" and report.residual == f"{first} <= 0", report


def test_kernel_cm_solves_the_spectral_parameters_once(monkeypatch):
    real = kernel.spectral_params
    calls = []
    monkeypatch.setattr(kernel, "spectral_params", lambda *args: calls.append(args) or real(*args))
    entries = [e for e in checks.select(("meijer",)) if e.name == "kernel.cm"]
    assert len(entries) == 36
    for entry in entries:
        calls.clear()
        (report,) = checks.run_entry(entry)
        assert report.status == "pass" and len(calls) == 1, (report.id, len(calls))


@pytest.mark.parametrize("argv, sha256", [
    (("--case", "1", "--q", "0", "-m", "810"),
     "cafc445b82b37f4447c2f384476a68d5b58531b5c0c75b2d9954bb4af868fb67"),
    (("--case", "1", "--q", "0", "-m", "810", "--format", "json"),
     "6442b1379b35bd8df80fe61c42fba42174d93ec8002ec70feae504079e9ff8e8"),
    (("--case", "5", "--q", "1,1,1,1", "-m", "400"),
     "c91b3af4c5167cd0e5c8942186776e83c24b5d3a1c74bd0c46238c3f1e29d83b"),
], ids=["case1-csv", "case1-json", "case5-csv"])
def test_kernel_coeffs_exports_are_pinned(capsys, argv, sha256):
    # any moved digit of any exported c_m changes the digest
    code, out = run(capsys, "kernel-coeffs", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def _modules_after_suites(*suites: str) -> set[str]:
    """The modules a fresh interpreter holds after running the suites, all passing."""
    code = ("import sys; from focklab import checks; "
            f"reports = [r for s in {suites!r} for r in checks.run_suite(s)]; "
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


def _threads_after_cli_then_numpy(**env) -> list[str]:
    """OPENBLAS_NUM_THREADS and the thread count of a fresh interpreter after
    `import focklab.cli` and then `import numpy`, with no BLAS thread variable
    in its environment but those of `env`."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in blas_vars}
    code = ("import os, focklab.cli, numpy; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**base, **env}).stdout
    return out.split()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or len(os.sched_getaffinity(0)) < 2,
                    reason="one usable core or no /proc/self/task: no OpenBLAS worker to count")
@pytest.mark.parametrize("env, expected", [
    ({}, ["1", "1"]),  # held to the main thread: no code calls BLAS
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "2"]),  # an explicit setting wins
], ids=["default", "explicit"])
def test_the_cli_holds_openblas_to_one_thread(env, expected):
    assert _threads_after_cli_then_numpy(**env) == expected
