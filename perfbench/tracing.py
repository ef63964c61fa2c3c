"""Span tracing of the phylotope layers, installed from outside the package.

A Tracer wraps every public module-level function of each phylotope module,
plus the three lattice helpers that idp_check calls per degree, and rebinds
the wrapper wherever a module holds the original by name. Each call records
one span: name, start, end, parent span and case id. Spans stay in memory
until the pass ends. CyclotomicInt addition and multiplication are counted
without spans, since they run hundreds of thousands of times.

layer_metrics turns the spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "phylotope"

# Span record layout.
NAME, START, END, PARENT, CASE, DEGREE, COUNT = range(7)

# Module-level helpers of phylotope.lattice that idp_check calls once per
# degree. A helper that no longer exists simply records no span.
DEGREE_HELPERS = ("_dilate_array", "_undecomposable", "_undecomposable_py")

DILATE_DEGREES = range(1, 9)
DECOMP_DEGREES = range(2, 9)


def _count_of(name, args, result):
    """The work count a span carries, read from its arguments or result."""
    if name == "lattice._dilate_array":
        return len(result)
    if name in ("lattice._undecomposable", "lattice._undecomposable_py"):
        return len(args[0])
    if name == "lattice.facet_description":
        return len(result.inequalities)
    if name == "lattice.decompose":
        return result.examined
    if name == "polytope.build_polytope":
        return len(result.vertices)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {"cyclotomic.mul.calls": 0, "cyclotomic.add.calls": 0}
        self.case = None
        self._stack = []
        self._degree = None   # degree of the latest _dilate_array call

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "lattice._dilate_array":
                self._degree = args[1] if len(args) > 1 else kwargs.get("n")
            rec = [name, clock(), None, stack[-1] if stack else -1,
                   self.case, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if name.startswith("lattice._"):
                rec[DEGREE] = self._degree
            try:
                rec[COUNT] = _count_of(name, args, result)
            except (AttributeError, IndexError, TypeError):
                pass
            return result
        return traced

    def count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    def install(self):
        """Wrap the package's public functions and count cyclotomic ring
        operations. Call once per process, after importing the package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith(PACKAGE + ".") and m is not None]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    continue
                helper = short == "lattice" and attr in DEGREE_HELPERS
                # a generator's call returns before its work is done
                if (attr.startswith("_") and not helper) or \
                        inspect.isgeneratorfunction(obj):
                    continue
                wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules + [sys.modules[PACKAGE]]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        cyc = getattr(sys.modules.get(PACKAGE + ".cyclotomic"),
                      "CyclotomicInt", None)
        if cyc is not None:
            for key, names in (("cyclotomic.mul.calls", ("__mul__", "__rmul__")),
                               ("cyclotomic.add.calls", ("__add__", "__radd__"))):
                counted = self.count(key, getattr(cyc, names[0]))
                for attr in names:
                    setattr(cyc, attr, counted)


def self_times(spans) -> list:
    """Per span: its duration minus the part of its interval that the union
    of its children's intervals covers."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted((spans[c][START], spans[c][END])
                             for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def _outermost(spans) -> list:
    """Whether each span has no ancestor of the same name, so recursive
    calls are timed once."""
    out = []
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


# Per-layer metric -> spans whose outermost durations it sums.
SECONDS = {
    "lattice.dilate.s": ("lattice._dilate_array",),
    "lattice.decomp.packed.s": ("lattice._undecomposable",),
    "lattice.decomp.fallback.s": ("lattice._undecomposable_py",),
    "lattice.facet_description.s": ("lattice.facet_description",),
    "lattice.spanned_lattice.s": ("lattice.spanned_lattice",),
    "lattice.decompose.s": ("lattice.decompose",),
    "lattice.fiber_product.s": ("lattice.fiber_product",),
    "trees.glue.s": ("trees.glue",),
    "polytope.build_polytope.s": ("polytope.build_polytope",),
    "polytope.project_orbits.s": ("polytope.project_orbits",),
    "polytope.vertex_file_text.s": ("polytope.vertex_file_text",),
    "fourier.params_to_matrices.s": ("fourier.params_to_matrices",),
    "fourier.raw_leaf_tensor.s": ("fourier.raw_leaf_tensor",),
    "fourier.socket_coordinates.s": ("fourier.socket_coordinates",),
    "fourier.monomial_socket_vector.s": ("fourier.monomial_socket_vector",),
    "verify.run_checks.s": ("verify.run_checks",),
    "groups.parse_group_spec.s": ("groups.parse_group_spec",),
    "trees.parse_newick.s": ("trees.parse_newick",),
}
# Per-layer metric -> spans whose work counts it sums.
COUNTS = {
    "lattice.dilate.points": ("lattice._dilate_array",),
    "lattice.decomp.points": ("lattice._undecomposable",
                              "lattice._undecomposable_py"),
    "lattice.facet_description.facets": ("lattice.facet_description",),
    "lattice.decompose.examined": ("lattice.decompose",),
    "polytope.build_polytope.vertices": ("polytope.build_polytope",),
}
DECOMP_SPANS = COUNTS["lattice.decomp.points"]


def layer_metric_names() -> list:
    return (list(SECONDS) + list(COUNTS)
            + [f"lattice.dilate.d{n}.s" for n in DILATE_DEGREES]
            + [f"lattice.decomp.d{n}.s" for n in DECOMP_DEGREES]
            + ["lattice.idp_check.self_s",
               "cyclotomic.mul.calls", "cyclotomic.add.calls"])


def layer_metrics(spans, counts) -> dict:
    """Per-layer metric values from one traced pass; a layer the pass never
    entered reads 0."""
    out = dict.fromkeys(layer_metric_names(), 0)
    outer = _outermost(spans)
    selfs = self_times(spans)
    for metric, names in SECONDS.items():
        out[metric] = sum(s[END] - s[START] for s, top in zip(spans, outer)
                          if top and s[NAME] in names)
    for metric, names in COUNTS.items():
        out[metric] = sum(s[COUNT] or 0 for s in spans if s[NAME] in names)
    for s, top in zip(spans, outer):
        if not top:
            continue
        if s[NAME] == "lattice._dilate_array" and s[DEGREE] in DILATE_DEGREES:
            out[f"lattice.dilate.d{s[DEGREE]}.s"] += s[END] - s[START]
        elif s[NAME] in DECOMP_SPANS and s[DEGREE] in DECOMP_DEGREES:
            out[f"lattice.decomp.d{s[DEGREE]}.s"] += s[END] - s[START]
    out["lattice.idp_check.self_s"] = sum(
        t for s, t in zip(spans, selfs) if s[NAME] == "lattice.idp_check")
    for key in ("cyclotomic.mul.calls", "cyclotomic.add.calls"):
        out[key] = counts.get(key, 0)
    return out
