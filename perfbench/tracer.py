"""Trace recorder for the benchmark's traced run.

The recorder wraps public functions and methods of ``roughcayley`` from the
outside; nothing under ``src/`` knows about it.  Calls at layer boundaries
become spans (name, start, end, parent, run id); hot per-call methods such
as ``distance`` and ``neighbors`` only bump counters, because a span per
call would cost more than the call.  Spans stay in memory and are written
out once the workload has finished.

A span's self time is its duration minus the time covered by its direct
child spans.  The benchmark opens one root span per workload stage, so the
self time of the stage spans is the time spent outside every wrapped layer
(``trace.unattributed_s``).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

from roughcayley import actions, cli, folner, graphs, growth, nets, spaces

# module-level functions that open a span named "<module>.<function>"
SPAN_FUNCTIONS = {
    nets: ["greedy_net", "group_ball_lattice", "horocyclic_lattice",
           "sample_probes", "verify_quasilattice"],
    graphs: ["build_graph", "certify_qi"],
    actions: ["quasi_action", "certify_axioms", "orbit_map_qi",
              "quasi_conjugacy_defect"],
    growth: ["ball_sizes", "classify_growth", "compare_growth"],
}

# CLI subcommands, grouped into one span name per command group
CLI_SPANS = {
    "cmd_lattice_build": "cli.lattice_build",
    "cmd_graph_build": "cli.graph_build",
    "cmd_qaction_certify": "cli.qaction",
    "cmd_qaction_orbit_qi": "cli.qaction",
    "cmd_qaction_conjugacy": "cli.qaction",
    "cmd_growth_run": "cli.growth",
    "cmd_growth_classify": "cli.growth",
    "cmd_growth_compare": "cli.growth",
    "cmd_folner_scan": "cli.folner_scan",
}

MODEL_CLASSES = [spaces.ZdModel, spaces.FreeGroupModel, spaces.HeisenbergModel,
                 spaces.EuclideanModel, spaces.HyperbolicPlaneModel]
GRAPH_CLASSES = [graphs.RoughGraph, graphs.CayleyGraph, graphs.HorocyclicGraph]

# what a span keeps from its call's result, for the per-layer ratios
RESULT_INFO = {
    "nets.greedy_net": lambda lat: {"candidates": lat.certificates["n_candidates"]},
    "graphs.build_graph": lambda g: {"edges": g.n_edges()},
    "graphs.certify_qi": lambda qi: {"pairs": qi.sample_size},
}


def folner_span_name(graph, c, family, *args, **kwargs):
    """Span name of a ``folner_scan`` call, chosen by graph kind and family."""
    if isinstance(graph, graphs.RoughGraph):
        return "folner.scan.greedy" if family == "greedy_improved" \
            else "folner.scan.finite"
    if isinstance(graph, graphs.HorocyclicGraph):
        return "folner.scan.horocyclic"
    if isinstance(graph, graphs.CayleyGraph) and isinstance(
            graph.space, (spaces.ZdModel, spaces.HeisenbergModel)):
        return "folner.scan.packed"
    return "folner.scan.implicit"


class Recorder:
    """Spans and counters of one traced workload run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []        # [id, name, start, end, parent, counts, info]
        self.counts = defaultdict(int)
        self.nearest_queries = set()
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        span = [len(self.spans), name, time.perf_counter(), None,
                self._stack[-1][0] if self._stack else None,
                dict(self.counts), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        start = span[5]
        span[5] = {k: v - start.get(k, 0) for k, v in self.counts.items()
                   if v != start.get(k, 0)}
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = self._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(span)
        info = RESULT_INFO.get(name)
        if info is not None:
            span[6] = info(out)
        return out

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn):
        rec = self
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec.call(name_of(*args, **kwargs) if name_of else name,
                            fn, *args, **kwargs)
        return wrapper

    def _counted(self, key, fn, size=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1 if size is None else size(*args)
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr, make):
        """Replace a module function everywhere the package has bound it,
        so re-exports and ``from .x import f`` call sites see the wrapper."""
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "roughcayley" or name.startswith("roughcayley."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch_method(self, cls, attr, make):
        self._patch(cls, attr, make(cls.__dict__[attr]))

    def install(self):
        for module, names in SPAN_FUNCTIONS.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in names:
                self._patch_function(
                    module, attr,
                    lambda f, n=f"{layer}.{attr}": self._spanned(n, f))
        for attr, name in CLI_SPANS.items():
            self._patch_function(cli, attr,
                                 lambda f, n=name: self._spanned(n, f))
        self._patch_function(folner, "folner_scan",
                             lambda f: self._spanned(folner_span_name, f))
        self._patch_function(folner, "c_boundary",
                             lambda f: self._counted("c_boundary", f))

        # distance oracle: scalar calls plus points passed to vectorised
        # overrides (the base-class fallback loops over ``distance``)
        self._patch_method(spaces.SpaceModel, "distance",
                           lambda f: self._counted("distance", f))
        for cls in MODEL_CLASSES:
            self._patch_method(cls, "enumerate_window",
                               lambda f: self._spanned("spaces.enumerate_window", f))
            if "distances_from" in cls.__dict__:
                self._patch_method(
                    cls, "distances_from",
                    lambda f: self._counted("distance", f,
                                            size=lambda s, x, pts: len(pts)))
        for cls in GRAPH_CLASSES:
            self._patch_method(cls, "neighbors",
                               lambda f: self._counted("neighbors", f))
        self._patch_method(graphs.RoughGraph, "border_depths",
                           lambda f: self._spanned("graphs.border_depths", f))

        # candidate tests of edge construction besides ``distance``
        self._patch_method(nets.QuasiLattice, "contains_point",
                           lambda f: self._counted("pair_tests", f))
        self._patch(graphs, "hyperbolic_distance_arrays", self._counted(
            "pair_tests", graphs.hyperbolic_distance_arrays,
            size=lambda u, a, us, as_: len(us)))

        queries = self.nearest_queries
        near = actions.NearestIndex.__call__

        def nearest(index, q):
            self.counts["nearest"] += 1
            queries.add(q)
            return near(index, q)
        self._patch(actions.NearestIndex, "__call__", nearest)

        # serialization: model objects to and from JSON, plus the JSON
        # encoding the CLI does around them
        for cls in (nets.QuasiLattice, graphs.RoughGraph):
            self._patch(cls, "to_json", self._spanned(
                "serialize.dump", cls.__dict__["to_json"]))
            self._patch(cls, "from_json", classmethod(self._spanned(
                "serialize.load", cls.__dict__["from_json"].__func__)))
        self._patch(cli, "json", _TracedJson(self))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Summed self time per span name."""
        covered = defaultdict(float)
        for sid, name, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        out = defaultdict(float)
        for sid, name, t0, t1, parent, _, _ in self.spans:
            out[name] += (t1 - t0) - covered[sid]
        return out

    def totals(self, name, key, source="counts"):
        """Sum of a span count or result field over all spans called ``name``."""
        col = 5 if source == "counts" else 6
        return sum((s[col] or {}).get(key, 0) for s in self.spans
                   if s[1] == name)

    def write(self, path):
        rows = [{"id": sid, "name": name, "start": t0, "end": t1,
                 "parent": parent, "run": self.run_id, "counts": counts,
                 "info": info}
                for sid, name, t0, t1, parent, counts, info in self.spans]
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "counters": dict(self.counts),
                       "spans": rows}, fh)


class _TracedJson:
    """Stands in for the ``json`` module inside ``roughcayley.cli`` so that
    file encoding and decoding get spans and byte counts."""

    def __init__(self, rec):
        self._rec = rec
        self.dumps = json.dumps
        self.loads = json.loads

    def dump(self, obj, fh, **kwargs):
        fh.flush()
        before = os.fstat(fh.fileno()).st_size
        self._rec.call("serialize.dump", json.dump, obj, fh, **kwargs)
        fh.flush()
        self._rec.counts["json_bytes"] += os.fstat(fh.fileno()).st_size - before

    def load(self, fh, **kwargs):
        self._rec.counts["json_bytes"] += os.fstat(fh.fileno()).st_size
        return self._rec.call("serialize.load", json.load, fh, **kwargs)


# per-layer self-time metrics: "<span name>.s"
SELF_TIME_SPANS = [
    "spaces.enumerate_window", "nets.greedy_net", "nets.verify_quasilattice",
    "graphs.build_graph", "graphs.certify_qi", "graphs.border_depths",
    "actions.certify_axioms", "actions.orbit_map_qi",
    "actions.quasi_conjugacy_defect", "growth.ball_sizes",
    "growth.classify_growth", "growth.compare_growth", "folner.scan.finite",
    "folner.scan.greedy", "folner.scan.packed", "folner.scan.horocyclic",
    "folner.scan.implicit", "serialize.load", "serialize.dump",
    "cli.lattice_build", "cli.graph_build", "cli.qaction", "cli.growth",
    "cli.folner_scan",
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec):
    """Per-layer metrics of one traced run; ratios state their base."""
    self_s = rec.self_times()
    out = {f"{name}.s": self_s.get(name, 0.0) for name in SELF_TIME_SPANS}
    counts = rec.counts
    out["spaces.distance.calls"] = counts["distance"]
    out["nets.greedy_net.dist_per_candidate"] = _ratio(
        rec.totals("nets.greedy_net", "distance"),
        rec.totals("nets.greedy_net", "candidates", "info"))
    out["graphs.build_graph.tests_per_edge"] = _ratio(
        rec.totals("graphs.build_graph", "distance")
        + rec.totals("graphs.build_graph", "pair_tests"),
        rec.totals("graphs.build_graph", "edges", "info"))
    out["graphs.certify_qi.admit_ratio"] = _ratio(
        rec.totals("graphs.certify_qi", "pairs", "info"),
        rec.totals("graphs.certify_qi", "distance"))
    out["graphs.neighbors.calls"] = counts["neighbors"]
    out["graphs.border_depths.calls"] = sum(
        1 for s in rec.spans if s[1] == "graphs.border_depths")
    out["actions.nearest.calls"] = counts["nearest"]
    out["actions.nearest.distinct_ratio"] = _ratio(
        len(rec.nearest_queries), counts["nearest"])
    out["folner.c_boundary.calls"] = counts["c_boundary"]
    out["serialize.bytes"] = counts["json_bytes"]
    out["trace.unattributed_s"] = sum(
        v for k, v in self_s.items() if k.startswith("stage."))
    return out
