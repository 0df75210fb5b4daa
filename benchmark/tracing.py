"""Spans around calls into the public functions of each wordcones module.

The wrappers are installed from outside the library: every attribute of a
``wordcones`` module that holds one of the traced functions is replaced by a
wrapper, so calls through a name imported into another module (``regions``
imports ``solve_inequalities`` directly, ``lusztig`` imports ``extreme_rays``)
are seen as well.  Leaving the ``Tracer`` context puts the original function
objects back, and ``installed_wrappers`` counts any wrapper left behind, which
is how an untraced run proves it measures the library as shipped.

A span is ``[name, start_ns, end_ns, parent, op, counts]``: ``parent`` is the
index of the enclosing traced call (-1 at the top), ``op`` the index of the
benchmark operation that caused it, ``counts`` a small dict read off the
call's arguments and result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Optional

_MARK = "_wordcones_bench_span"


def _lp_counts(args, result):
    return {"rows": len(args[0]), "infeasible": result is None}


def _rays_counts(args, result):
    return {"rays": len(result[1])}


def _len_counts(key):
    return lambda args, result: {key: len(result)}


def _regions_counts(args, result):
    return {"regions": len(result.regions)}


# (module, attribute, counts read off the call).  "RegionAtlas.x" is a method.
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("polyhedra", "solve_inequalities", _lp_counts),
    ("polyhedra", "double_description", _rays_counts),
    ("polyhedra", "irredundant_h", None),
    ("polyhedra", "subtract_full_dim", _len_counts("pieces")),
    ("polyhedra", "cone_from_rays", None),
    ("polyhedra", "cone_equal", None),
    ("regions", "default_move_path", None),
    ("regions", "enumerate_cells", _len_counts("cells")),
    ("regions", "transition_atlas", _regions_counts),
    ("regions", "match_spanned_regions", None),
    ("regions", "orthant_restriction_analysis", None),
    ("regions", "simplicial_decomposition", None),
    ("regions", "evaluate_along", None),
    ("regions", "RegionAtlas.region_containing", None),
    ("words", "class_canonical", None),
    ("words", "positive_root_order", None),
    ("lusztig", "spanning_rays", None),
    ("chambers", "chamber_sets", None),
    ("quivers", "quivers_for_word", None),
    ("rectangles", "spanning_vectors", None),
)

LP = "polyhedra.solve_inequalities"

# Span names whose directly issued LPs are reported as ``<caller>.lp_calls``.
# transition_atlas issues its own LPs only in the same-matrix merge, so its
# share is reported under the name of that step.
LP_CALLERS = {
    "regions.enumerate_cells": "regions.enumerate_cells",
    "regions.transition_atlas": "regions.merge",
    "polyhedra.irredundant_h": "polyhedra.irredundant_h",
    "polyhedra.subtract_full_dim": "polyhedra.subtract_full_dim",
    "regions.match_spanned_regions": "regions.match_spanned_regions",
    "regions.orthant_restriction_analysis": "regions.orthant_restriction_analysis",
    "regions.simplicial_decomposition": "regions.simplicial_decomposition",
    "polyhedra.cone_equal": "polyhedra.cone_equal",
}


# Totals read off the span counts: metric -> (span name, count key).
RESULT_COUNTS = {
    "polyhedra.double_description.rays_out": ("polyhedra.double_description", "rays"),
    "polyhedra.subtract_full_dim.pieces_out": ("polyhedra.subtract_full_dim", "pieces"),
    "regions.enumerate_cells.cells": ("regions.enumerate_cells", "cells"),
    "regions.transition_atlas.regions": ("regions.transition_atlas", "regions"),
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "wordcones" or name.startswith("wordcones."))]


def _method_owner(module: str, attr: str):
    owner, _, method = attr.partition(".")
    return getattr(sys.modules[f"wordcones.{module}"], owner), method


def installed_wrappers() -> int:
    """Number of traced names that currently hold a wrapper instead of the
    library's own function object."""
    found = 0
    for mod in _library_modules():
        found += sum(1 for v in vars(mod).values() if hasattr(v, _MARK))
    for module, attr, _ in TARGETS:
        if "." in attr:
            cls, method = _method_owner(module, attr)
            found += hasattr(vars(cls)[method], _MARK)
    return found


class Tracer:
    """Records spans while entered; every patched name is restored on exit.

    The names to patch are found once, when the tracer is made (with no
    wrapper installed), so entering and leaving is cheap enough to do around
    each single operation.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, Callable]] = []  # owner, key, original, wrapper
        modules = _library_modules()
        for module, attr, counts in TARGETS:
            name = span_name(module, attr)
            if "." in attr:
                cls, method = _method_owner(module, attr)
                orig = vars(cls)[method]
                self._sites.append((cls, method, orig, self._wrap(name, orig, counts)))
                continue
            orig = getattr(sys.modules[f"wordcones.{module}"], attr)
            wrapper = self._wrap(name, orig, counts)
            self._sites += [(mod, key, orig, wrapper) for mod in modules
                            for key, value in vars(mod).items() if value is orig]

    def _wrap(self, name: str, fn: Callable, counts: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        setattr(wrapper, _MARK, name)
        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, orig, _ in self._sites:
            setattr(owner, key, orig)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start_ns", "end_ns",
                                            "parent", "op", "counts"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run prints."""
    out = []
    for module, attr, _ in TARGETS:
        name = span_name(module, attr)
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [(f"{LP}.infeasible_frac", "ratio", "lower"), (f"{LP}.rows_mean", "rows", "lower")]
    out += [(name, "count", "lower") for name in RESULT_COUNTS]
    out += [(f"{caller}.lp_calls", "count", "lower")
            for caller in LP_CALLERS.values()]
    out += [("trace.ops", "count", "higher"), ("trace.untraced_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower")]
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, inclusive and self seconds, LP attribution and the
    result counts, all from the recorded spans."""
    names = [span_name(m, a) for m, a, _ in TARGETS]
    calls = dict.fromkeys(names, 0)
    incl = dict.fromkeys(names, 0)
    child = [0] * len(spans)
    totals: dict[tuple[str, str], int] = {}
    lp_by_caller = dict.fromkeys(LP_CALLERS.values(), 0)
    for name, start, end, parent, _, counts in spans:
        dur = end - start
        calls[name] += 1
        incl[name] += dur
        if parent >= 0:
            child[parent] += dur
        for key, value in (counts or {}).items():
            totals[name, key] = totals.get((name, key), 0) + value
        if name == LP and parent >= 0 and spans[parent][0] in LP_CALLERS:
            lp_by_caller[LP_CALLERS[spans[parent][0]]] += 1
    self_ns = dict.fromkeys(names, 0)
    for (name, start, end, *_), inner in zip(spans, child):
        self_ns[name] += end - start - inner
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = incl[name] / 1e9
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    lps = calls[LP]
    out[f"{LP}.infeasible_frac"] = totals.get((LP, "infeasible"), 0) / lps if lps else 0.0
    out[f"{LP}.rows_mean"] = totals.get((LP, "rows"), 0) / lps if lps else 0.0
    for metric, key in RESULT_COUNTS.items():
        out[metric] = totals.get(key, 0)
    for caller, n in lp_by_caller.items():
        out[f"{caller}.lp_calls"] = n
    return out
