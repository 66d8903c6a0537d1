"""Spans around coxfold's public entry points, and their aggregation.

In a traced child, ``Recorder.install`` wraps every function listed in
``ENTRY_POINTS`` in each coxfold module namespace that binds it, so a
call made through ``coxfold.family.equal_in_group`` is caught as well as
one made through ``coxfold.coxeter.equal_in_group``.  Spans are kept in
memory and written out when the child ends.  In the parent,
``layer_metrics`` turns the spans of one pass into per-layer counts and
self times.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

# module -> public entry points that the benchmark's commands reach, wrapped
# there; "Class.method" wraps a method.  Per-letter helpers such as
# homotopy_sites are left alone.
ENTRY_POINTS = {
    "coxfold.coxeter": (
        "CoxeterMatrix.load",
        "tits_closure",
        "is_identity",
        "equal_in_group",
        "reduce_word",
        "is_reduced",
        "kappa",
        "find_almost_relator",
    ),
    "coxfold.family": (
        "ExampleFamily.verify",
        "ExampleFamily.x_words",
        "ExampleFamily.witness_expressions",
    ),
    "coxfold.graphs": (
        "load_graph",
        "save_graph",
        "quotient_graph",
        "fold_once",
        "_fold_candidate",
        "compose_traces",
        "identity_trace",
        "fold",
        "is_folded",
        "betti",
        "components",
        "euler",
        "graph_to_dot",
    ),
    "coxfold.decomposition": (
        "load_decomposition",
        "validate_special",
        "check_tame",
        "complexity",
        "potential",
        "omega_neighborhood",
        "decomposition_to_dot",
    ),
    "coxfold.cli": ("main",),
}

LAYERS = ("cli", "family", "coxeter", "graphs", "decomposition")

# (span name, statistic) pairs reported per layer; statistic is "s"
# (inclusive seconds) or "calls".
REPORTED = (
    ("coxeter.equal_in_group", "calls"),
    ("coxeter.equal_in_group", "s"),
    ("coxeter.reduce_word", "calls"),
    ("coxeter.reduce_word", "s"),
    ("coxeter.is_identity", "calls"),
    ("coxeter.is_identity", "s"),
    ("coxeter.tits_closure", "s"),
    ("coxeter.kappa", "s"),
    ("coxeter.find_almost_relator", "s"),
    ("family.verify", "s"),
    ("graphs.fold_once", "calls"),
    ("graphs.fold_once", "s"),
    ("graphs.quotient_graph", "s"),
    ("graphs.fold_candidate", "s"),
    ("graphs.compose_traces", "s"),
    ("graphs.fold", "calls"),
    ("graphs.fold", "s"),
    ("graphs.load_graph", "s"),
    ("graphs.save_graph", "s"),
    ("decomposition.load_decomposition", "s"),
    ("decomposition.validate_special", "s"),
    ("decomposition.check_tame", "s"),
    ("decomposition.complexity", "s"),
    ("decomposition.potential", "calls"),
    ("decomposition.omega_neighborhood", "calls"),
    ("cli.main", "s"),
)


def span_name(module: str, attr: str) -> str:
    """``coxfold.graphs`` + ``_fold_candidate`` -> ``graphs.fold_candidate``;
    a method keeps only its own name."""
    return module.split(".")[-1] + "." + attr.split(".")[-1].lstrip("_")


class Recorder:
    """Collects spans ``[name, start, end, parent, outcome, count]``; count
    is the number of certificate steps for ``family.verify``, else None."""

    def __init__(self) -> None:
        self.spans: list[Optional[list]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counts_steps = name == "family.verify"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outcome, count = "error", None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                outcome = "ok"
                if counts_steps:
                    count = len(result.steps)
                return result
            except Exception as exc:
                outcome = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, outcome, count]

        return wrapper

    def install(self) -> None:
        """Rebind every entry point in every loaded coxfold module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("coxfold")]
        for module_name, attrs in ENTRY_POINTS.items():
            module = sys.modules[module_name]
            for attr in attrs:
                name = span_name(module_name, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(jobs_spans: Iterable[list[list]]) -> dict[str, float]:
    """Per-layer counts and times summed over the jobs of one pass.

    ``name.s`` is inclusive time summed over the spans of that name not
    nested in another span of the same name; ``layer.self_s`` is the time
    of the layer's spans minus the time covered by their child spans.
    ``coxeter.indeterminate`` counts Indeterminate raised out of the
    outermost coxeter span, and ``coxeter.decided_ratio`` is returns over
    those outermost calls (1 when there were none).
    """
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    outer_cox = decided = indeterminate = 0
    for job_spans in jobs_spans:
        child_time = [0.0] * len(job_spans)
        for name, t0, t1, parent, _, _ in job_spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, parent, outcome, count) in enumerate(job_spans):
            calls[name] += 1
            if count is not None:
                counts[name] += count
            self_s[layer_of(name)] += (t1 - t0) - child_time[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(job_spans[p][0])
                p = job_spans[p][3]
            if name not in ancestors:
                inclusive[name] += t1 - t0
            if layer_of(name) == "coxeter" and not any(layer_of(a) == "coxeter" for a in ancestors):
                outer_cox += 1
                decided += outcome == "ok"
                indeterminate += outcome == "Indeterminate"
    out: dict[str, float] = {}
    for name, stat in REPORTED:
        source = {"s": inclusive, "calls": calls}[stat]
        out[f"{name}.{stat}"] = source.get(name, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["family.steps"] = counts.get("family.verify", 0)
    out["coxeter.indeterminate"] = indeterminate
    out["coxeter.decided_ratio"] = decided / outer_cox if outer_cox else 1.0
    out["coxeter.outer_calls"] = outer_cox
    return out
