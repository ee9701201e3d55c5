"""Outside-in tracer for the transdolbeault layers.

``Tracer.install`` replaces the layers' functions by span-recording wrappers,
binding each wrapper at every module attribute that held the original (so a
``from .linalg import kernel`` in ``cohomology`` is traced too), and replaces
``GaussianRational`` arithmetic by counting wrappers. ``uninstall`` restores
every original. Spans are kept in flat arrays and written once by ``dump``.
"""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import sys
import time
from array import array
from pathlib import Path

import transdolbeault
from transdolbeault.scalars import GaussianRational

LAYERS = (
    "scalars", "linalg", "lie", "acs", "flag", "forms",
    "cohomology", "homogeneous", "catalog", "schema", "cli",
)

# Functions that get a span, per layer; every package lru_cache is added to these.
SPANNED = {
    "linalg": (
        "_rref_inplace", "solve_in_rows", "kernel", "induced_map_on_quotient",
        "quotient_representatives", "Subspace.reduce",
    ),
    "lie": ("bracket",),
    "acs": ("split_10_01", "nijenhuis_image"),
    "flag": ("derived_flag", "classify"),
    "forms": (
        "bigraded_frame", "component_operators", "BigradedFrame.d_blocks",
        "BigradedFrame.d_flat", "verify_d2_relations",
    ),
    "cohomology": (
        "transverse_module", "_restricted_del_bar", "transverse_dolbeault",
        "_mu_bar_presentations", "mu_bar_cohomology", "_cw_pipeline",
        "generalized_dolbeault", "compare_p0",
    ),
    "homogeneous": (
        "validate_pair", "invariance_check", "minimal_homogeneous_check", "fibration_report",
    ),
    "catalog": ("catalog_get", "random_acs"),
    "schema": ("load_entry_file", "dumps_canonical"),
    "cli": ("execute",),
}

# Span name used for linalg._rref_inplace, the one elimination kernel.
ELIM = "linalg.elim"

# GaussianRational methods counted (not spanned: tens of millions of calls).
SCALAR_OPS = {
    "__bool__": "bool",
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "addsub", "__radd__": "addsub", "__sub__": "addsub", "__rsub__": "addsub",
    "__truediv__": "div", "__rtruediv__": "div",
}


def package_modules():
    """Every module of the transdolbeault package, imported."""
    mods = [transdolbeault]
    for info in pkgutil.iter_modules(transdolbeault.__path__):
        mods.append(importlib.import_module(f"transdolbeault.{info.name}"))
    return mods


def discover_lru_caches():
    """{"module.qualname": cached callable} for every lru_cache defined in the package."""
    found = {}
    for mod in package_modules():
        short = mod.__name__.rpartition(".")[2]
        for attr, val in vars(mod).items():
            if hasattr(val, "cache_info") and getattr(val, "__module__", None) == mod.__name__:
                found[f"{short}.{attr}"] = val
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                for mattr, mval in vars(val).items():
                    if hasattr(mval, "cache_info"):
                        found[f"{short}.{attr}.{mattr}"] = mval
    return found


def declared_lru_caches():
    """Names of functions decorated with lru_cache/cache in the package source (by AST)."""
    names = set()
    root = Path(transdolbeault.__file__).parent
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        prefix = "" if path.stem == "__init__" else path.stem

        def visit(node, qual):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(_is_cache_decorator(d) for d in child.decorator_list):
                        names.add(".".join(filter(None, (prefix, *qual, child.name))))
                    visit(child, qual + (child.name,))
                elif isinstance(child, ast.ClassDef):
                    visit(child, qual + (child.name,))

        visit(tree, ())
    return names


def _is_cache_decorator(node):
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name in ("lru_cache", "cache")


def clear_caches():
    for fn in discover_lru_caches().values():
        fn.cache_clear()


def _max_bits(rows):
    bits = 0
    for row in rows:
        for x in row:
            for f in (x.re, x.im):
                if f:
                    bits = max(bits, f.numerator.bit_length(), f.denominator.bit_length())
    return bits


class Tracer:
    """Spans and counters of one traced pass; install() before, uninstall() after."""

    def __init__(self):
        self.op = -1
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patched = []
        self.scalar = {slot: [0, 0] for slot in SCALAR_OPS.values()}
        self.elim = {"calls": 0, "cells": 0, "zero_input_calls": 0, "rank": 0, "min_dim": 0,
                     "max_bits": 0}
        self.constraint_cells = 0
        self.flag_stages = 0
        self._caches = {}

    # -- installation ------------------------------------------------------------

    def install(self):
        mods = package_modules()
        self._caches = discover_lru_caches()
        targets = {}
        for layer, names in SPANNED.items():
            for qual in names:
                targets[f"{layer}.{qual}"] = qual
        for full in self._caches:
            targets.setdefault(full, full.partition(".")[2])
        for full, qual in targets.items():
            layer = full.partition(".")[0]
            owner = sys.modules[f"transdolbeault.{layer}"]
            cls_name, _, attr = qual.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            orig = vars(owner)[attr]
            wrapper = self._wrap(full, orig)
            if cls_name:
                self._patch(owner, attr, wrapper)
            else:
                for mod in mods:
                    for name, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, name, wrapper)
        for attr, slot in SCALAR_OPS.items():
            self._patch(GaussianRational, attr, self._count(slot, vars(GaussianRational)[attr]))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, full, orig):
        if full == "linalg._rref_inplace":
            wrapper = self._elim_stats(self._spanned(ELIM, orig))
        elif full == "linalg.kernel":
            wrapper = self._kernel_stats(self._spanned(full, orig))
        elif full == "flag.derived_flag":
            wrapper = self._flag_stats(self._spanned(full, orig), orig)
        else:
            wrapper = self._spanned(full, orig)
        if hasattr(orig, "cache_info"):
            wrapper.cache_info = orig.cache_info
            wrapper.cache_clear = orig.cache_clear
        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", full)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, name, fn):
        nid = self._name_id(name)
        s_name, s_op, s_parent = self.span_name, self.span_op, self.span_parent
        s_start, s_end, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(s_start)
            s_name.append(nid)
            s_op.append(tracer.op)
            s_parent.append(stack[-1])
            s_end.append(0.0)
            stack.append(sid)
            s_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                s_end[sid] = clock()
                stack.pop()

        return wrapper

    def _elim_stats(self, spanned):
        # stats are taken outside the span, so linalg.elim.self_s is the elimination alone
        st = self.elim

        def wrapper(mat):
            rows = len(mat)
            cols = len(mat[0]) if rows else 0
            zero = not any(x.re or x.im for row in mat for x in row)
            ech, pivots = spanned(mat)
            st["calls"] += 1
            st["cells"] += rows * cols
            st["zero_input_calls"] += zero
            st["rank"] += len(pivots)
            st["min_dim"] += min(rows, cols)
            st["max_bits"] = max(st["max_bits"], _max_bits(ech))
            return ech, pivots

        return wrapper

    def _kernel_stats(self, spanned):
        module_id = self._name_id("cohomology.transverse_module")
        tracer = self

        def wrapper(m, ncols=None):
            parent = tracer._stack[-1]
            if m and parent >= 0 and tracer.span_name[parent] == module_id:
                tracer.constraint_cells += len(m) * len(m[0])
            return spanned(m, ncols)

        return wrapper

    def _flag_stats(self, spanned, cached):
        tracer = self

        def wrapper(algebra, acs):
            misses = cached.cache_info().misses
            result = spanned(algebra, acs)
            if cached.cache_info().misses > misses:
                tracer.flag_stages += len(result.stages)
            return result

        return wrapper

    def _count(self, slot, orig):
        counter = self.scalar[slot]
        if slot == "bool":
            def wrapper(x):
                r = orig(x)
                counter[0] += 1
                if not r:
                    counter[1] += 1
                return r
        else:
            def wrapper(x, y):
                counter[0] += 1
                return orig(x, y)
        return wrapper

    # -- results -----------------------------------------------------------------

    def stats(self):
        """Per span name: calls, self seconds and inclusive seconds (no wrapped function recurses)."""
        n = len(self.span_start)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            rec["total_s"] += dur[i]
        return out

    def report_shares(self):
        """Share of report wall time inside each span name (report = first cli.execute of an op)."""
        execute = self._name_ids.get("cli.execute")
        root = array("q", [0]) * len(self.span_start)
        report_roots = {}
        for i, p in enumerate(self.span_parent):
            root[i] = i if p < 0 else root[p]
            if p < 0 and self.span_name[i] == execute:
                report_roots.setdefault(self.span_op[i], i)
        roots = set(report_roots.values())
        base = sum(self.span_end[i] - self.span_start[i] for i in roots)
        shares = {}
        for i in range(len(self.span_start)):
            if root[i] in roots and i not in roots:
                name = self.names[self.span_name[i]]
                shares[name] = shares.get(name, 0.0) + self.span_end[i] - self.span_start[i]
        return {name: t / base for name, t in shares.items()} if base else {}

    def cache_stats(self):
        infos = [fn.cache_info() for fn in self._caches.values()]
        hits = sum(i.hits for i in infos)
        lookups = hits + sum(i.misses for i in infos)
        return sum(i.currsize for i in infos), (hits / lookups if lookups else 0.0)

    def dump(self, path, meta):
        """Write every span once: [name, op, parent span, start, end] rows."""
        rows = zip(self.span_name, self.span_op, self.span_parent, self.span_start, self.span_end)
        doc = {"meta": meta, "names": self.names,
               "columns": ["name", "op", "parent", "start", "end"],
               "spans": [list(r) for r in rows]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def layer_metrics(tracer, overhead_ratio):
    """The per-layer metrics of a traced pass: {name: (value, unit)}."""
    st = tracer.stats()
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}

    def span(name, key):
        return st.get(name, zero)[key]

    out = {}
    calls_and_self = (
        "linalg.solve_in_rows", "linalg.kernel", "linalg.induced_map_on_quotient",
        "linalg.quotient_representatives", "linalg.Subspace.reduce",
        "forms.bigraded_frame", "forms.component_operators",
        "forms.BigradedFrame.d_blocks", "forms.BigradedFrame.d_flat", "lie.bracket",
        "catalog.random_acs",
    )
    self_only = (
        "cohomology.transverse_module", "cohomology._restricted_del_bar",
        "cohomology._mu_bar_presentations", "cohomology._cw_pipeline", "cohomology.compare_p0",
        "forms.verify_d2_relations", "acs.split_10_01", "acs.nijenhuis_image",
        "flag.derived_flag", "homogeneous.validate_pair", "homogeneous.invariance_check",
        "homogeneous.minimal_homogeneous_check", "homogeneous.fibration_report", "cli.execute",
    )
    sc = tracer.scalar
    out["scalars.bool.calls"] = (sc["bool"][0], "count")
    out["scalars.bool.zero_ratio"] = (sc["bool"][1] / sc["bool"][0] if sc["bool"][0] else 0.0,
                                      "ratio")
    for slot in ("mul", "addsub", "div"):
        out[f"scalars.{slot}.calls"] = (sc[slot][0], "count")
    el = tracer.elim
    out[f"{ELIM}.calls"] = (el["calls"], "count")
    out[f"{ELIM}.cells"] = (el["cells"], "count")
    out[f"{ELIM}.self_s"] = (span(ELIM, "self_s"), "s")
    out[f"{ELIM}.zero_input_calls"] = (el["zero_input_calls"], "count")
    out[f"{ELIM}.rank_ratio"] = (el["rank"] / el["min_dim"] if el["min_dim"] else 0.0, "ratio")
    out[f"{ELIM}.max_bits"] = (el["max_bits"], "bits")
    for name in calls_and_self:
        out[f"{name}.calls"] = (span(name, "calls"), "count")
        out[f"{name}.self_s"] = (span(name, "self_s"), "s")
    for name in self_only:
        out[f"{name}.self_s"] = (span(name, "self_s"), "s")
    out["cohomology.transverse_module.constraint_cells"] = (tracer.constraint_cells, "count")
    out["cohomology.transverse_module.report_share"] = (
        tracer.report_shares().get("cohomology.transverse_module", 0.0), "ratio")
    out["cohomology.transverse_dolbeault.total_s"] = (
        span("cohomology.transverse_dolbeault", "total_s"), "s")
    out["cohomology.generalized_dolbeault.total_s"] = (
        span("cohomology.generalized_dolbeault", "total_s"), "s")
    out["flag.stages"] = (tracer.flag_stages, "count")
    out["catalog.catalog_get.calls"] = (span("catalog.catalog_get", "calls"), "count")
    out["catalog.self_s"] = (span("catalog.catalog_get", "self_s")
                             + span("catalog.random_acs", "self_s"), "s")
    out["schema.load_entry_file.calls"] = (span("schema.load_entry_file", "calls"), "count")
    out["schema.self_s"] = (span("schema.load_entry_file", "self_s")
                            + span("schema.dumps_canonical", "self_s"), "s")
    entries, hit_ratio = tracer.cache_stats()
    out["cache.entries"] = (entries, "count")
    out["cache.hit_ratio"] = (hit_ratio, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
