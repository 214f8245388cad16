"""In-memory span tracer installed around focklab's public functions.

The tracer lives entirely in the benchmark: it replaces each public function
of a focklab layer module, in every focklab module namespace that holds it,
with a wrapper that records one span (name, start, end, parent).  Spans stay
in flat arrays while the workload runs and are written out once at the end.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("polyalg", "linalg", "jordan", "structure", "bernstein", "sl2",
          "fock", "kernel", "cli")

# Methods traced on the classes the layers pass around: the ones a PER_LAYER
# metric names.  Untraced methods count as self time of their caller.
METHODS = {
    "polyalg.MultiPoly": ("__mul__", "shift", "eval"),
    "linalg.FractionSpan": ("add",),
    "fock.OperatorMatrix": ("apply",),
    "kernel.MeijerEvaluator": ("__init__", "eval", "moment"),
}


class Tracer:
    """Span store plus the counters that are only visible at a call boundary."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, span_name: str, on_return=None):
        nid = self._intern(span_name)
        start, end, parent, name, stack = (
            self.start, self.end, self.parent, self.name, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function and the METHODS of the layer modules.

        A function imported by name into another module (``int_rank`` in
        ``structure``, ``apply_diff_op`` in ``bernstein``) is replaced there
        too, so calls through either name are traced.
        """
        modules = {m: getattr(package, m) for m in LAYERS}
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if name == package.__name__ or name.startswith(package.__name__ + ".")]
        # registries such as cli.SUITES hold functions too
        namespaces += [v for ns in namespaces for v in ns.values() if isinstance(v, dict)]
        hooks = self._hooks()
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                span = f"{short}.{attr}"
                new = self.wrap(obj, span, hooks.get(span))
                for ns in namespaces:
                    for k, v in list(ns.items()):
                        if v is obj:
                            ns[k] = new
        for qual, names in METHODS.items():
            short, cls_name = qual.split(".")
            cls = getattr(modules[short], cls_name)
            for attr in names:
                span = f"{qual}.{attr}"
                setattr(cls, attr, self.wrap(vars(cls)[attr], span, hooks.get(span)))

    def _hooks(self) -> dict:
        """Return-value counters, keyed by span name."""

        def int_rank_rows(args, result):
            rows = args[0]
            self.count("linalg.int_rank.rows", len(rows) if hasattr(rows, "__len__") else 0)

        def translate_rank(args, result):
            self.count("structure.translate_span_dim.rank", result[0])

        def span_add(args, result):
            self.count("linalg.span_add.accepted", 1 if result else 0)

        def evaluator_built(args, result):
            ev = args[0]
            self.count("kernel.contour_nodes", sum(len(ct["nodes"]) for ct in ev.contours))

        return {
            "linalg.int_rank": int_rank_rows,
            "structure.translate_span_dim": translate_rank,
            "linalg.FractionSpan.add": span_add,
            "kernel.MeijerEvaluator.__init__": evaluator_built,
        }

    # -- results --------------------------------------------------------------

    def arrays(self):
        import numpy as np

        return (np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.name, dtype=np.int64))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        import numpy as np

        start, end, parent, name = self.arrays()
        dur = end - start
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        incl = np.bincount(name, weights=dur, minlength=n)
        excl = np.bincount(name, weights=self_time, minlength=n)
        return {
            nm: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(excl[i])}
            for i, nm in enumerate(self.names)
        }

    def child_calls(self, parent_span: str, child_span: str) -> int:
        """Number of child_span spans opened directly inside parent_span."""
        import numpy as np

        if parent_span not in self._ids or child_span not in self._ids:
            return 0
        _, _, parent, name = self.arrays()
        kids = (name == self._ids[child_span]) & (parent >= 0)
        return int(np.count_nonzero(name[parent[kids]] == self._ids[parent_span]))

    def write(self, path) -> None:
        """Write every span as a compressed npz: names, start, end, parent, name."""
        import numpy as np

        start, end, parent, name = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), start=start, end=end,
                            parent=parent, name=name)


SUITES = ("tables", "bernstein", "sl2", "operators", "meijer", "bergman", "structure")

# (metric, unit) in report order; run.py adds the report.* and trace.* rows.
PER_LAYER = tuple(
    [(f"cli.suite.{s}.s", "s") for s in SUITES]
    + [
        ("cli.export.s", "s"),
        ("polyalg.shift.calls", "count"), ("polyalg.shift.s", "s"),
        ("linalg.int_rank.calls", "count"), ("linalg.int_rank.s", "s"),
        ("linalg.int_rank.rows", "count"),
        ("structure.translate_span_dim.s", "s"),
        ("structure.translate_rows.useful_ratio", "ratio"),
        ("linalg.int_rank_mod.s", "s"), ("linalg.frac_nullspace.s", "s"),
        ("structure.structure_algebra.s", "s"),
        ("jordan.q_polynomial.calls", "count"), ("jordan.q_polynomial.s", "s"),
        ("jordan.determinant_poly.s", "s"),
        ("polyalg.mul.calls", "count"), ("polyalg.mul.s", "s"),
        ("polyalg.apply_diff_op.s", "s"), ("polyalg.apply_symbol_at_point.s", "s"),
        ("polyalg.eval.calls", "count"),
        ("bernstein.verify_bernstein_identity.s", "s"),
        ("bernstein.a_ratio.calls", "count"), ("bernstein.a_ratio.s", "s"),
        ("bernstein.pochhammer.calls", "count"), ("bernstein.pochhammer.s", "s"),
        ("sl2.pm_identity_check.s", "s"),
        ("sl2.solve_eta0.calls", "count"), ("sl2.solve_eta0.s", "s"),
        ("fock.op_build.calls", "count"), ("fock.op_build.s", "s"),
        ("fock.apply.calls", "count"), ("fock.apply.s", "s"),
        ("fock.commutator_check.s", "s"), ("fock.cyclicity_check.s", "s"),
        ("fock.reproducing_check.s", "s"),
        ("linalg.span_add.calls", "count"), ("linalg.span_add.s", "s"),
        ("linalg.span_add.accept_ratio", "ratio"),
        ("kernel.evaluator_build.calls", "count"), ("kernel.evaluator_build.s", "s"),
        ("kernel.contour_nodes", "count"),
        ("kernel.evaluator_cache.hit_ratio", "ratio"),
        ("kernel.eval.calls", "count"), ("kernel.eval.s", "s"),
        ("kernel.sign_scan.s", "s"),
        ("kernel.c_sequence.s", "s"),
        ("kernel.c_closed.calls", "count"), ("kernel.c_closed.s", "s"),
        ("kernel.moment.calls", "count"), ("kernel.moment.s", "s"),
        ("kernel.bergman_norm_case1.s", "s"),
        ("trace.spans", "count"),
    ]
)


def layer_metrics(tracer: Tracer, kernel_module) -> dict[str, float]:
    """The PER_LAYER values of one traced pass.  Times are self time except
    the inclusive ``cli.*`` rows; a layer the workload never entered reads 0."""
    s = tracer.summary()

    def get(field, *spans):
        return sum(s[x][field] for x in spans if x in s)

    def ratio(num, den):
        return num / den if den else 0.0

    op_builds = [n for n in s if n.startswith("fock.op_") or n == "fock.dk_action"]
    cache = kernel_module._evaluator_cached.cache_info()
    shifts_sampled = tracer.child_calls("structure.translate_span_dim", "polyalg.MultiPoly.shift")
    c = tracer.counters
    m = {f"cli.suite.{x}.s": get("incl_s", f"cli.suite_{x}") for x in SUITES}
    m.update({
        "cli.export.s": get("incl_s", "cli.cmd_export"),
        "polyalg.shift.calls": get("calls", "polyalg.MultiPoly.shift"),
        "polyalg.shift.s": get("self_s", "polyalg.MultiPoly.shift"),
        "linalg.int_rank.calls": get("calls", "linalg.int_rank"),
        "linalg.int_rank.s": get("self_s", "linalg.int_rank"),
        "linalg.int_rank.rows": c.get("linalg.int_rank.rows", 0),
        "structure.translate_span_dim.s": get("self_s", "structure.translate_span_dim"),
        "structure.translate_rows.useful_ratio": ratio(
            c.get("structure.translate_span_dim.rank", 0), shifts_sampled),
        "linalg.int_rank_mod.s": get("self_s", "linalg.int_rank_mod"),
        "linalg.frac_nullspace.s": get("self_s", "linalg.frac_nullspace"),
        "structure.structure_algebra.s": get("self_s", "structure.structure_algebra"),
        "jordan.q_polynomial.calls": get("calls", "jordan.q_polynomial"),
        "jordan.q_polynomial.s": get("self_s", "jordan.q_polynomial"),
        "jordan.determinant_poly.s": get("self_s", "jordan.determinant_poly"),
        "polyalg.mul.calls": get("calls", "polyalg.MultiPoly.__mul__"),
        "polyalg.mul.s": get("self_s", "polyalg.MultiPoly.__mul__"),
        "polyalg.apply_diff_op.s": get("self_s", "polyalg.apply_diff_op"),
        "polyalg.apply_symbol_at_point.s": get("self_s", "polyalg.apply_symbol_at_point"),
        "polyalg.eval.calls": get("calls", "polyalg.MultiPoly.eval"),
        "bernstein.verify_bernstein_identity.s": get("self_s", "bernstein.verify_bernstein_identity"),
        "bernstein.a_ratio.calls": get("calls", "bernstein.a_ratio"),
        "bernstein.a_ratio.s": get("self_s", "bernstein.a_ratio"),
        "bernstein.pochhammer.calls": get("calls", "bernstein.pochhammer"),
        "bernstein.pochhammer.s": get("self_s", "bernstein.pochhammer"),
        "sl2.pm_identity_check.s": get("self_s", "sl2.pm_identity_check"),
        "sl2.solve_eta0.calls": get("calls", "sl2.solve_eta0"),
        "sl2.solve_eta0.s": get("self_s", "sl2.solve_eta0"),
        "fock.op_build.calls": get("calls", *op_builds),
        "fock.op_build.s": get("self_s", *op_builds),
        "fock.apply.calls": get("calls", "fock.OperatorMatrix.apply"),
        "fock.apply.s": get("self_s", "fock.OperatorMatrix.apply"),
        "fock.commutator_check.s": get("self_s", "fock.commutator_check"),
        "fock.cyclicity_check.s": get("self_s", "fock.cyclicity_check"),
        "fock.reproducing_check.s": get("self_s", "fock.reproducing_check"),
        "linalg.span_add.calls": get("calls", "linalg.FractionSpan.add"),
        "linalg.span_add.s": get("self_s", "linalg.FractionSpan.add"),
        "linalg.span_add.accept_ratio": ratio(
            c.get("linalg.span_add.accepted", 0), get("calls", "linalg.FractionSpan.add")),
        "kernel.evaluator_build.calls": get("calls", "kernel.MeijerEvaluator.__init__"),
        "kernel.evaluator_build.s": get("self_s", "kernel.MeijerEvaluator.__init__"),
        "kernel.contour_nodes": c.get("kernel.contour_nodes", 0),
        "kernel.evaluator_cache.hit_ratio": ratio(cache.hits, cache.hits + cache.misses),
        "kernel.eval.calls": get("calls", "kernel.MeijerEvaluator.eval"),
        "kernel.eval.s": get("self_s", "kernel.MeijerEvaluator.eval"),
        "kernel.sign_scan.s": get("self_s", "kernel.sign_scan"),
        "kernel.c_sequence.s": get("self_s", "kernel.c_sequence"),
        "kernel.c_closed.calls": get("calls", "kernel.c_closed"),
        "kernel.c_closed.s": get("self_s", "kernel.c_closed"),
        "kernel.moment.calls": get("calls", "kernel.MeijerEvaluator.moment"),
        "kernel.moment.s": get("self_s", "kernel.MeijerEvaluator.moment"),
        "kernel.bergman_norm_case1.s": get("self_s", "kernel.bergman_norm_case1"),
        "trace.spans": len(tracer.start),
    })
    return m
