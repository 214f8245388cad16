"""Benchmark for focklab: end-to-end metrics per workload, per-layer spans on request.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 30 --trace 0

Each pass of a workload runs in a fresh child process (child.py) through the
CLI's own entry points, single process and jobs=1, as a closed loop: the next
operation starts when the previous one ends, and the next pass when the
previous pass has been checked.  Passes repeat while another one fits in
--seconds (at least one runs).  The parent times each pass from outside and
checks every output.

--trace 0 reports, as medians over the passes:
  wall_s       child ready -> last output checked
  cpu_s        child user+sys time (wait4 rusage), includes its start-up
  setup_s      spawn -> focklab imported and ready, median over extra
               start-only probes and every pass
  peak_rss_mb  child maxrss
  ok_ratio     (attempted - failed) / attempted over all passes; the
               failure ratio itself is printed above the JSON line
--trace 1 runs one untraced pass, then traced passes, and reports the
per-layer metrics of tracer.PER_LAYER plus trace.wall_s and
trace.overhead_s (traced minus untraced wall_s).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  An operation that raises counts as failed and the pass goes on;
`correct` is false only when some output that was produced is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads  # the script's directory is on sys.path
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Start-only probes before and after the passes, so setup_s samples more
# than one moment of a machine whose speed drifts over seconds.
SETUP_PROBES = 4
RUN_LIMIT_S = 165.0  # a run must exit within 180 s, whatever --seconds says

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)
TRACE_ROWS = PER_LAYER + (
    ("report.elapsed_zero.count", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Child:
    ready: bool
    setup_s: float
    t_ready: float
    rc: int
    cpu_s: float
    rss_mb: float


@dataclass
class Pass:
    traced: bool
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    attempted: int
    failed: int
    mismatches: list[str]
    layers: dict = field(default_factory=dict)
    elapsed_zero: int = 0


def spawn(child_args: list[str], deadline: float) -> Child:
    """Start child.py, wait for it and return its timings and rusage."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}  # str hashing, so set orders repeat
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *child_args],
        stdout=subprocess.PIPE, cwd=ROOT, env=env,
    )
    killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        t_ready = time.perf_counter()
        proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return Child(
        ready=line == b"ready\n",
        setup_s=t_ready - t0,
        t_ready=t_ready,
        rc=proc.returncode,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def probe(deadline: float) -> float:
    child = spawn(["--probe"], deadline)
    if not child.ready or child.rc != 0:
        raise RuntimeError(f"focklab did not start (exit code {child.rc})")
    return child.setup_s


def run_pass(workload: str, seed: int, traced: bool, deadline: float) -> Pass:
    out_dir = OUT / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_path = out_dir / "result.json"
    child = spawn(
        ["--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
         "--result", str(result_path), "--out-dir", str(out_dir)],
        deadline,
    )
    if child.ready and child.rc == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
        attempted, failed, mismatches = workloads.check(workload, result["ops"], out_dir)
        layers = result.get("layers", {})
        zeros = sum(c["elapsed_ms"] == 0 for r in result["ops"] for c in r["checks"])
    else:
        attempted = failed = workloads.operation_count(workload)
        mismatches = [f"child exited with code {child.rc}"]
        layers, zeros = {}, 0
    wall = time.perf_counter() - child.t_ready
    return Pass(traced, child.setup_s, wall, child.cpu_s, child.rss_mb,
                attempted, failed, mismatches, layers, zeros)


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "focklab" / "cli.py").is_file():
        print(f"no focklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        probe(deadline)  # compiles bytecode; not counted
        setups = [probe(deadline) for _ in range(SETUP_PROBES)]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and bool(passes)  # traced runs start untraced
        t0 = time.perf_counter()
        passes.append(run_pass(args.workload, args.seed, traced, deadline))
        now = time.perf_counter()
        last = now - t0
        wants_more = now - start + last <= args.seconds or (args.trace and len(passes) < 2)
        if not wants_more or now + 1.5 * last > deadline:
            break
    setups += [probe(deadline) for _ in range(SETUP_PROBES)]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    mismatches = [m for p in passes for m in p.mismatches]
    plain = [p for p in passes if not p.traced]
    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        values = {name: median([p.layers.get(name, 0) for p in traced_passes])
                  for name, _ in PER_LAYER}
        values["report.elapsed_zero.count"] = median([p.elapsed_zero for p in traced_passes])
        values["trace.wall_s"] = median([p.wall_s for p in traced_passes])
        values["trace.overhead_s"] = values["trace.wall_s"] - median([p.wall_s for p in plain])
        rows = TRACE_ROWS
    else:
        values = {
            "wall_s": median([p.wall_s for p in plain]),
            "cpu_s": median([p.cpu_s for p in plain]),
            "setup_s": median(setups + [p.setup_s for p in plain]),
            "peak_rss_mb": median([p.rss_mb for p in plain]),
            "ok_ratio": (attempted - failed) / attempted,
        }
        rows = END_TO_END

    for m in mismatches[:20]:
        print(f"MISMATCH {m}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed")
    print("pass wall_s: " + " ".join(f"{p.wall_s:.3f}{'(traced)' if p.traced else ''}" for p in passes))
    print(f"fail_ratio = {failed / attempted:.6f} ratio")
    for name, unit in rows:
        print(f"{name} = {values[name]} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in rows}
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
