"""Per-layer trace of homocalc, taken from outside the package.

``Tracer.install()`` replaces every public homocalc function at every module
binding that callers resolve through (``convexsets.project`` as well as
``fcalc.feasible_point`` and ``homocalc.saddle_build``), so calls made
inside the package are caught too, and wraps the ``oracle`` of each
PHFunction the benchmark built or that ``builtin()`` returns.  Each call
records a span (function, parent span, start, end, operation).  Self times
are derived afterwards: a span's duration minus the durations of its direct
children.  ``uninstall()`` puts every original back.

The layers are the modules of ``src/homocalc``; a function belongs to the
module that defines it.
"""

import functools
import json
import types
from array import array
from time import perf_counter

import numpy as np

import homocalc

_MODULES = ("convexsets", "homog", "lattice", "fcalc", "verify", "cli", "errors")
CHECKS = (
    "check_engine_vs_oracle",
    "check_interchange",
    "check_rep_independence",
    "check_continuous_agreement",
    "check_sublattice_invariance",
    "check_saddle",
    "negative_controls",
)

# per-layer metric -> (unit, better); see README.md for what each should move
PER_LAYER = {
    "homog.eval_family.calls": ("count", "lower"),
    "homog.eval_family.self_ms": ("ms", "lower"),
    "homog.family_terms": ("count", "lower"),
    "homog.oracle.self_ms": ("ms", "lower"),
    "fcalc.fc_semicontinuous.self_ms": ("ms", "lower"),
    "fcalc.fc_sublinear.self_ms": ("ms", "lower"),
    "fcalc.fc_superlinear.self_ms": ("ms", "lower"),
    "fcalc.fc_saddle.self_ms": ("ms", "lower"),
    "fcalc.saddle_eval.calls": ("count", "lower"),
    "fcalc.saddle_build.self_ms": ("ms", "lower"),
    "fcalc.cols": ("count", "higher"),
    "fcalc.cols_per_call": ("count", "higher"),
    "convexsets.support.calls": ("count", "lower"),
    "convexsets.support.self_ms": ("ms", "lower"),
    "convexsets.support_batch.self_ms": ("ms", "lower"),
    "convexsets.project.calls": ("count", "lower"),
    "convexsets.project.self_ms": ("ms", "lower"),
    "convexsets.feasible_point.calls": ("count", "lower"),
    "convexsets.feasible_point.self_ms": ("ms", "lower"),
    "lattice.common_refinement.self_ms": ("ms", "lower"),
    "lattice.pieces": ("count", "lower"),
    **{f"verify.{c}.self_ms": ("ms", "lower") for c in CHECKS},
    "verify.cases": ("count", "higher"),
    "cli.main.self_ms": ("ms", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}

# self-time metrics that add up more than one function (a thin public
# wrapper and the function it forwards to)
_SELF_GROUPS = {
    "homog.eval_family.self_ms": ("homog.eval_family", "homog.eval_family_detailed"),
    "fcalc.fc_semicontinuous.self_ms": ("fcalc.fc_semicontinuous", "fcalc.fc_semicontinuous_detailed"),
}
_CALL_METRICS = {
    "homog.eval_family.calls": "homog.eval_family_detailed",
    "fcalc.saddle_eval.calls": "fcalc.saddle_eval",
    "convexsets.support.calls": "convexsets.support",
    "convexsets.project.calls": "convexsets.project",
    "convexsets.feasible_point.calls": "convexsets.feasible_point",
}
_LIFTS = ("fcalc.fc_semicontinuous_detailed", "fcalc.fc_sublinear", "fcalc.fc_superlinear", "fcalc.fc_saddle")
# functions whose return value feeds a count (or, for builtin, gets its oracle wrapped)
_WATCHED = {*_LIFTS, "homog.eval_family_detailed", "lattice.common_refinement", "verify.default_suite", "homog.builtin"}


def _targets():
    return [homocalc] + [getattr(homocalc, m) for m in _MODULES]


def refuse_if_installed():
    """Raise if any trace wrapper is in place: timed phases run untraced."""
    for mod in _targets():
        if any(hasattr(v, "__wrapped_by_bench__") for v in vars(mod).values()):
            raise RuntimeError(f"trace wrappers are installed in {mod.__name__} during a timed phase")


def _columns(element):
    return element.values.size if hasattr(element, "values") else element.coords.size


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = {"homog.family_terms": 0, "fcalc.cols": 0, "lattice.pieces": 0, "verify.cases": 0}
        self.current_op = -1
        self._stack = [-1]
        self._patches = []
        self._oracles = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _on_return(self, name, out):
        if name == "homog.eval_family_detailed":
            self.counts["homog.family_terms"] += out[1]
        elif name in _LIFTS:
            self.counts["fcalc.cols"] += _columns(out[0] if isinstance(out, tuple) else out)
        elif name == "lattice.common_refinement":
            self.counts["lattice.pieces"] += out[1].shape[1]
        elif name == "verify.default_suite":
            self.counts["verify.cases"] += sum(r.cases for r in out)
        elif name == "homog.builtin":
            self.wrap_oracle(out)

    def _wrap(self, name, f):
        fid = self._id(name)
        fn, parent, op, t0, t1, stack = self.fn, self.parent, self.op, self.t0, self.t1, self._stack
        watch = name in _WATCHED

        @functools.wraps(f)
        def traced(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1])
            op.append(self.current_op)
            t1.append(0.0)
            stack.append(idx)
            t0.append(perf_counter())
            try:
                out = f(*args, **kwargs)
            finally:
                t1[idx] = perf_counter()
                stack.pop()
            if watch:
                self._on_return(name, out)
            return out

        traced.__wrapped_by_bench__ = f
        return traced

    def wrap_oracle(self, h):
        if h.oracle is None or hasattr(h.oracle, "__wrapped_by_bench__"):
            return
        self._oracles.append((h, h.oracle))
        h.oracle = self._wrap("homog.oracle", h.oracle)

    def install(self, functions=()):
        for mod in _targets():
            for attr, value in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith("homocalc.")
                ):
                    continue
                name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                self._patches.append((mod, attr, value))
                setattr(mod, attr, self._wrap(name, value))
        for h in functions:
            self.wrap_oracle(h)

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        for h, oracle in reversed(self._oracles):
            h.oracle = oracle
        self._patches.clear()
        self._oracles.clear()

    def per_function(self, factors):
        """{name: (calls, total_ms, self_ms)} per operation, speed-corrected.

        factors[k] is operation k's speed factor; spans outside any
        operation (op == -1) are dropped.
        """
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        keep = op >= 0
        scale = np.asarray(factors, dtype=float)[op[keep]] * 1e3 / len(factors)
        fk = fn[keep]
        width = len(self.names)
        calls = np.bincount(fk, minlength=width) / len(factors)
        total = np.bincount(fk, weights=dur[keep] * scale, minlength=width)
        self_ms = np.bincount(fk, weights=(dur - child)[keep] * scale, minlength=width)
        return {n: (float(calls[i]), float(total[i]), float(self_ms[i])) for i, n in enumerate(self.names)}

    def edges(self):
        """{"caller -> callee": calls} over the whole trace; "<op>" is the benchmark."""
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        caller = np.where(parent >= 0, fn[np.maximum(parent, 0)], -1)
        pairs, calls = np.unique(np.stack([caller, fn]), axis=1, return_counts=True)
        names = self.names + ["<op>"]  # index -1 is the benchmark itself
        return {f"{names[p]} -> {names[c]}": int(k) for (p, c), k in zip(pairs.T, calls)}


def layer_metrics(tracer, factors, stdout_bytes):
    """The per-layer metrics named in PER_LAYER (trace.overhead_ms excepted)."""
    per = tracer.per_function(factors)
    ops = len(factors)

    def self_of(*names):
        return sum(per.get(n, (0, 0, 0))[2] for n in names)

    out = {}
    for metric in PER_LAYER:
        if metric in _SELF_GROUPS:
            out[metric] = self_of(*_SELF_GROUPS[metric])
        elif metric in _CALL_METRICS:
            out[metric] = per.get(_CALL_METRICS[metric], (0, 0, 0))[0]
        elif metric in tracer.counts:
            out[metric] = tracer.counts[metric] / ops
        elif metric.endswith(".self_ms"):
            out[metric] = self_of(metric[: -len(".self_ms")])
    lift_calls = sum(per.get(n, (0, 0, 0))[0] for n in _LIFTS)
    out["fcalc.cols_per_call"] = out["fcalc.cols"] / lift_calls if lift_calls else 0.0
    out["cli.stdout_bytes"] = stdout_bytes / ops
    return out


def write_trace(path, tracer, factors, metrics):
    doc = {
        "operations": len(factors),
        "metrics": metrics,
        "functions": {
            n: {"calls": c, "total_ms": t, "self_ms": s}
            for n, (c, t, s) in sorted(tracer.per_function(factors).items())
            if c
        },
        "edges": dict(sorted(tracer.edges().items())),
        "spans": len(tracer.fn),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
