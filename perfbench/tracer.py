"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper, in every
warpfill module that holds a reference to it (and on the class, for
methods); ``uninstall`` puts the originals back, so untraced timings run the
library untouched.  Each call appends one span: name, start, end, parent
span and operation id.  Spans stay in flat arrays in memory and are written
out once, at the end.  Work counts are added up at the same boundaries.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# span name -> (module, attribute path)
TRACED = {
    "warp_engine.solve_geodesic": ("warp_engine", "solve_geodesic"),
    "warp_engine.path_length": ("warp_engine", "path_length"),
    "warp_engine.path_point_at_arclength": ("warp_engine", "path_point_at_arclength"),
    "warp_engine.warp_eval": ("warp_engine", "WarpedSpace.f", "WarpedSpace.g"),
    "numerics.adaptive_gauss": ("numerics", "adaptive_gauss"),
    "warp_functions.SmoothWarpFunction.d": ("warp_functions", "SmoothWarpFunction.d"),
    "warp_functions.build_fg": ("warp_functions", "build_fg"),
    "model_spaces.torus_distance": ("model_spaces", "torus_distance"),
    "model_spaces.torus_systole": ("model_spaces", "torus_systole"),
    "model_spaces.comparison_triangle": ("model_spaces", "comparison_triangle"),
    "curvature_lab.cat_test": ("curvature_lab", "cat_test"),
    "curvature_lab.curvature_scan": ("curvature_lab", "curvature_scan"),
    "curvature_lab.sectional_terms": ("curvature_lab", "sectional_terms"),
    "curvature_lab.fd_sectional": ("curvature_lab", "fd_sectional"),
    "filling_topology.classify": ("filling_topology", "classify"),
    "filling_topology.two_pi_check": ("filling_topology", "two_pi_check"),
}
COUNTS = (
    "warp_engine.solve_geodesic.newton_steps",
    "warp_engine.solve_geodesic.segments",
    "warp_engine.warp_eval.points",
    "warp_functions.SmoothWarpFunction.d.points",
    "numerics.adaptive_gauss.integrand_calls",
)
# accuracy figures of the replayed rounds (0 on a workload without them)
ACCURACY = {
    "warp_engine.solve_geodesic.max_abs_error": ("length", "lower"),
    "warp_engine.solve_geodesic.median_abs_error": ("length", "lower"),
    "curvature_lab.cat_test.max_violation": ("length", "lower"),
    "curvature_lab.curvature_scan.empirical_kappa": ("curvature", "higher"),
}


def per_layer_metrics():
    """name -> (unit, better) of every per-layer metric, in BENCHMARK.json order."""
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.inclusive_s"] = ("s", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update({name: ("count", "lower") for name in COUNTS})
    out.update(ACCURACY)
    out["trace.overhead_s"] = ("s", "lower")
    return out


def per_layer_units():
    return {name: unit for name, (unit, _) in per_layer_metrics().items()}


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = -1          # operation id stamped on new spans; -1 is set-up
        self._stack = []
        self._saved = []      # (owner, attribute, original)

    # -- recording ---------------------------------------------------------
    def _wrap(self, code, fn, after=None, wrap_args=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_of.append(code)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op_of.append(tracer.op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            if wrap_args is not None:
                args = wrap_args(args)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, key, amount):
        self.counts[key] += amount

    def _hooks(self, name):
        """(after, wrap_args) for the spans that also count work."""
        if name == "warp_engine.solve_geodesic":
            def after(args, res):
                self._count("warp_engine.solve_geodesic.newton_steps", res.iterations)
                self._count("warp_engine.solve_geodesic.segments", len(res.path.vertices) - 1)
            return after, None
        if name == "warp_engine.warp_eval":
            return (lambda args, out: self._count("warp_engine.warp_eval.points", np.size(args[1]))), None
        if name == "warp_functions.SmoothWarpFunction.d":
            return (lambda args, out: self._count(
                "warp_functions.SmoothWarpFunction.d.points", np.size(args[1]))), None
        if name == "numerics.adaptive_gauss":
            def wrap_args(args):
                fn = args[0]

                def counted(x):
                    self.counts["numerics.adaptive_gauss.integrand_calls"] += 1
                    return fn(x)

                return (counted, *args[1:])
            return None, wrap_args
        return None, None

    # -- patching ------------------------------------------------------------
    def install(self):
        if self._saved:
            return
        homes = {m: importlib.import_module(f"warpfill.{m}") for m, *_ in TRACED.values()}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "warpfill" or key.startswith("warpfill.")]
        for code, (mod_name, *attrs) in enumerate(TRACED.values()):
            name = self.names[code]
            after, wrap_args = self._hooks(name)
            home = homes[mod_name]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(code, original, after, wrap_args))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(code, original, after, wrap_args)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        self._saved.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------
    def summary(self):
        """calls, inclusive and self seconds per traced name over every
        recorded span, plus the work counts."""
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for code, name in enumerate(self.names):
            sel = name_of == code
            out[f"{name}.calls"] = int(sel.sum())
            out[f"{name}.inclusive_s"] = float(dur[sel].sum())
            out[f"{name}.self_s"] = float((dur[sel] - child[sel]).sum())
        out.update(self.counts)
        return out

    def dump(self, path):
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
