"""One pass of a workload in a fresh process, started by run.py.

The child imports focklab from the checkout's ``src``, optionally installs
the tracer, writes ``ready`` on stdout and then runs the workload's
operations back to back.  Each operation's outcome (checks, return code or
exception) goes to the JSON file named by ``--result``; the parent times the
pass and checks the outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import focklab  # noqa: E402
from focklab import cli  # noqa: E402  (imports every layer module)

import workloads  # noqa: E402


def run_op(op: workloads.Op, opts: dict, out_dir: Path) -> dict:
    record = {"op": op.label, "error": None, "rc": None, "checks": []}
    try:
        if op.suite:
            record["checks"] = [c.to_dict() for c in cli.run_suites([op.suite], opts, jobs=1)]
        else:
            record["rc"] = cli.main([*op.argv, "-o", str(workloads.export_path(out_dir, op))])
    except Exception as exc:  # a raising operation is a failure; the pass goes on
        record["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return record


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", default="")
    ap.add_argument("--out-dir", default="")
    ap.add_argument("--probe", action="store_true", help="stop once ready")
    args = ap.parse_args()

    if not Path(focklab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"focklab imported from {focklab.__file__}, not this checkout", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(focklab)
    print("ready", flush=True)
    if args.probe:
        return 0
    sys.stdout = sys.stderr  # stdout carries only the ready line

    out_dir = Path(args.out_dir)
    records = [run_op(op, workloads.VERIFY_OPTS, out_dir)
               for op in workloads.operations(args.workload, args.seed)]
    result = {"ops": records}
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer, focklab.kernel)
        tracer.write(out_dir / f"{args.workload}.spans.npz")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
