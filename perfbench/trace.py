"""Spans around prodvec's public API, recorded from outside the program.

``Tracer`` wraps every function exported by ``prodvec/__init__.py`` and
``prodvec.cli.main`` at every ``prodvec.*`` module attribute bound to it,
so calls made through names imported into another module (``mpstate``
calls ``solve`` and ``verdict`` that way) are caught too.  Only the public
API is wrapped: code behind it may be reshaped freely.

Spans are kept in memory.  A span's self time is its duration minus that
of its direct children.  Per-layer metrics are derived after the run from
the spans and from the arguments and results kept for a few functions.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

from oracles import vanishing_count

# Functions whose (args, kwargs, result) the metrics need.
_KEEP = {
    "solvability.reduce",
    "solvability.verdict",
    "truncpoly.expand_product",
    "signmat.classify_vanishing",
    "solver.solve",
    "mpstate.is_ppt",
}

MODULES = ("cli", "solvability", "truncpoly", "signmat", "solver", "mpstate")

# Spans each workload must hit at least once in a traced pass.
EXPECTED = {
    "solve": ("cli.main", "solver.random_instance", "solver.solve"),
    "decide": ("cli.main", "solvability.verdict", "truncpoly.expand_product"),
    "signmat": (
        "cli.main",
        "signmat.permanent",
        "signmat.invariants",
        "signmat.equivalent",
        "signmat.canonical_form",
        "signmat.classify_vanishing",
    ),
    "edge": ("cli.main", "mpstate.edge_analysis", "mpstate.is_ppt", "solver.solve"),
}

# Basis tags of verdicts that rest on the sign product.
_PRODUCT_BASES = {
    "critical-top-coefficient",
    "underdetermined-nonvanishing",
    "nonvanishing-certificate",
}


class Span:
    __slots__ = ("label", "op", "parent", "start", "end", "child", "data")

    def __init__(self, label, op, parent):
        self.label = label
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.child = 0.0  # summed duration of direct children
        self.data = None

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self, pv):
        self.spans: list[Span] = []
        self.op = None  # identifier shared by the spans of one operation
        self._stack: list[Span] = []
        targets = [pv.cli.main] + [
            obj for obj in map(vars(pv).get, pv.__all__) if inspect.isfunction(obj)
        ]
        wrappers = {fn: self._wrap(fn) for fn in targets}
        self._patches = []
        for modname, mod in list(sys.modules.items()):
            if modname != "prodvec" and not modname.startswith("prodvec."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value, wrappers[value]))

    def _wrap(self, fn):
        label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        keep = label in _KEEP
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(label, self.op, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
            if keep:
                span.data = (args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def fired(self) -> set[str]:
        return {s.label for s in self.spans}


def _by_label(spans):
    out = defaultdict(list)
    for s in spans:
        out[s.label].append(s)
    return out


def _ms(spans) -> float:
    return 1e3 * sum(s.self_time for s in spans)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    by = _by_label(spans)
    roots = [s for s in spans if s.parent is None]
    total = sum(s.end - s.start for s in roots) or math.inf
    m: dict[str, float] = {}

    module_self = defaultdict(float)
    for s in spans:
        module_self[s.label.split(".", 1)[0]] += s.self_time
    for mod in MODULES:
        m[f"{mod}.self_frac"] = module_self[mod] / total
    m["cli.self_ms"] = 1e3 * module_self["cli"]

    verdicts = by["solvability.verdict"]
    m["solvability.verdict.calls"] = len(verdicts)
    m["solvability.verdict.self_ms"] = _ms(verdicts)
    m["solvability.reduce.merged"] = sum(
        len(_arg(s, 0, "spec").constraints) - len(s.data[2].constraints)
        for s in by["solvability.reduce"]
    )
    expands = by["truncpoly.expand_product"]
    on_product = sum(1 for s in verdicts if s.data[2].basis in _PRODUCT_BASES)
    m["solvability.expansion_used_frac"] = on_product / len(expands) if expands else 0.0

    m["truncpoly.expand_product.calls"] = len(expands)
    m["truncpoly.expand_product.self_ms"] = _ms(expands)
    m["truncpoly.ring_cells"] = sum(math.prod(_arg(s, 2, "dims")) for s in expands)
    m["truncpoly.terms_out"] = sum(_nonzero_terms(s.data[2]) for s in expands)
    m["truncpoly.zero_frac"] = (
        sum(1 for s in expands if _nonzero_terms(s.data[2]) == 0) / len(expands) if expands else 0.0
    )

    m["signmat.permanent.calls"] = len(by["signmat.permanent"])
    m["signmat.permanent.self_ms"] = _ms(by["signmat.permanent"])
    m["signmat.canonical_form.calls"] = len(by["signmat.canonical_form"])
    m["signmat.canonical_form.self_ms"] = _ms(by["signmat.canonical_form"])
    classify = by["signmat.classify_vanishing"]
    m["signmat.classify_vanishing.self_ms"] = _ms(classify)
    sweep = found = classes = 0
    for s in classify:
        n = _arg(s, 0, "n")
        normalized = _arg(s, 1, "mode", "exhaustive") == "normalized-search"
        sweep += 1 << ((n - 1) ** 2 if normalized else n * n)
        found += vanishing_count(n, normalized)
        if normalized:  # only this mode canonicalizes
            classes += len(s.data[2])
    canon_in_classify = sum(
        1 for s in by["signmat.canonical_form"]
        if s.parent is not None and s.parent.label == "signmat.classify_vanishing"
    )
    m["signmat.sweep_patterns"] = sweep
    m["signmat.vanishing_found"] = found
    m["signmat.classes_per_canonical"] = classes / canon_in_classify if canon_in_classify else 0.0
    m["signmat.equivalent.calls"] = len(by["signmat.equivalent"])
    m["signmat.invariants.self_ms"] = _ms(by["signmat.invariants"])

    solves = by["solver.solve"]
    restarts = sum(s.data[2].restarts_used for s in solves)
    m["solver.solve.calls"] = len(solves)
    m["solver.solve.self_ms"] = _ms(solves)
    m["solver.restarts"] = restarts
    m["solver.restart_us"] = 1e3 * _ms(solves) / restarts if restarts else 0.0
    m["solver.solutions_per_restart"] = (
        sum(s.data[2].distinct_count for s in solves) / restarts if restarts else 0.0
    )
    m["solver.random_instance.self_ms"] = _ms(by["solver.random_instance"])

    ppt = by["mpstate.is_ppt"]
    m["mpstate.edge_analysis.calls"] = len(by["mpstate.edge_analysis"])
    m["mpstate.edge_analysis.self_ms"] = _ms(by["mpstate.edge_analysis"])
    m["mpstate.is_ppt.self_ms"] = _ms(ppt)
    m["mpstate.rank_profile.self_ms"] = _ms(by["mpstate.rank_profile"])
    m["mpstate.range_complement.self_ms"] = _ms(by["mpstate.range_complement"])
    m["mpstate.partial_transpose.calls"] = len(by["mpstate.partial_transpose"])
    m["mpstate.ppt_frac"] = sum(1 for s in ppt if s.data[2][0]) / len(ppt) if ppt else 0.0
    return m


def _arg(span, pos, name, default=None):
    args, kwargs, _ = span.data
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _nonzero_terms(poly) -> int:
    """Nonzero coefficients of a ring element: a sparse ``coeffs`` map or a dense array."""
    coeffs = getattr(poly, "coeffs", poly)
    return len(coeffs) if isinstance(coeffs, dict) else int(np.count_nonzero(coeffs))
