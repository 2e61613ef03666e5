"""The benchmark's three workloads.

Each workload replays what the acceptance suite (``tests/test_acceptance.py``)
asks of the library, as one caller running its stages back to back.  The
seed flows into every sampled computation: ``sample_probes``,
``certify_qi``, ``certify_axioms``, ``orbit_map_qi``,
``quasi_conjugacy_defect`` and the CLI's ``--seed``.  Sizes are chosen so
that one pass takes a few seconds on a 2-core machine; RATIONALE.md says
why each workload exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import math
import sys
import time
import traceback

from roughcayley import cli, folner, graphs, growth, nets, spaces

import gate as g

# exact growth values the classifier is scored against (Bass-Guivarc'h
# degree; log 3 for the exponential rate of the free group of rank 2)
DEGREE_Z2, DEGREE_Z3, DEGREE_HEISENBERG = 2.0, 3.0, 4.0
RATE_F2 = math.log(3.0)

QI_PAIRS = 1000
PROBES = 1000


# glibc's malloc_trim hands the heap's free pages back to the system; other
# C libraries lack it
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
if _malloc_trim is not None:
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int


class Runner:
    """Times each stage of one workload pass and gates its output."""

    def __init__(self, gate, recorder=None, calibrator=None):
        self.gate = gate
        self.recorder = recorder
        self.calibrator = calibrator
        self.stage_s = {}
        self.growth_err = {}

    def stage(self, name, fn, check):
        """Run ``fn`` as stage ``name``; only the call itself is timed.

        Each stage starts from a collected heap, as a separate CLI call
        would: otherwise whether a full collection of earlier stages'
        garbage lands in a stage, and how much freed memory the allocator
        still holds, vary with the seed and from pass to pass, and move the
        stage's time and the pass's peak memory.
        """
        gc.collect()
        if _malloc_trim is not None:
            _malloc_trim(0)
        t0 = time.perf_counter()
        try:
            if self.recorder is not None:
                out = self.recorder.call(f"stage.{name}", fn)
            else:
                out = fn()
        except Exception as exc:  # a raising stage is a failed operation
            self.stage_s[name] = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.gate.fail(name, f"raised {type(exc).__name__}: {exc}")
            return None
        self.stage_s[name] = time.perf_counter() - t0
        with self.gate.stage(name):
            check(out)
        if self.calibrator is not None:
            self.calibrator.sample()
        return out

    def cli(self, name, argv, check):
        """Run one CLI invocation in-process; a non-zero exit fails it."""
        def invoke():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()

        def checked(out):
            rc, text = out
            self.gate.require(rc == 0, f"exit code {rc}")
            if rc == 0:
                check(text)
        return self.stage(name, invoke, checked)

    def growth(self, name, kind, estimate, expected_kind, exact):
        """Gate a growth verdict's kind and record its estimate's error."""
        g.check_growth_kind(self.gate, kind, expected_kind)
        if estimate is not None:
            self.growth_err[name] = abs(estimate - exact)


# ---------------------------------------------------------------------------
# z2-cli: the end-to-end CLI pipeline on Z^2 nets (criteria 3-7, 9)

Z2_DELTA = 3             # separation (and density radius) of the main net
Z2_RADIUS = 80           # window of the delta-3 net
Z2_GROWTH_M = 9          # deepest safe hop radius in that window
Z2_CONJ_RADIUS = 35      # window of the delta-2 net (criterion 6)
Z2_QI_SOURCES = 25
Z2_BOX_SIZES = "2..10"
Z2_GREEDY_RADIUS = 40    # window of the small net for greedy_improved


def setup_z2_cli():
    return {}


def run_z2_cli(run, ctx, seed, tmp):
    gate = run.gate
    path = {n: str(tmp / n) for n in (
        "net3.json", "net2.json", "graph3.json", "axioms.json", "orbit.json",
        "conj.json", "series_graph.csv", "series_z2.csv", "series_z3.csv",
        "folner_boxes.json", "net_small.json", "graph_small.json",
        "folner_greedy.json")}
    seed_args = ["--seed", str(seed)]

    def lattice_check(name, n_probes):
        def check(text):
            doc = g.read_cli_json(gate, path[name], seed)
            gate.same("points", doc["points"])
            g.check_density(gate, doc["certificates"]["density"],
                            doc["density_radius_r"], n_probes)
        return check

    run.cli("lattice_build_delta3", seed_args + [
        "lattice", "build", "--space", "zd", "--d", "2",
        "--radius", str(Z2_RADIUS), "--delta", str(Z2_DELTA),
        "--probes", str(PROBES), "--out", path["net3.json"]],
        lattice_check("net3.json", PROBES))
    run.cli("lattice_build_delta2", seed_args + [
        "lattice", "build", "--space", "zd", "--d", "2",
        "--radius", str(Z2_CONJ_RADIUS), "--delta", "2",
        "--probes", str(PROBES), "--out", path["net2.json"]],
        lattice_check("net2.json", PROBES))

    def graph_check(text):
        doc = g.read_cli_json(gate, path["graph3.json"], seed)
        gate.same("points", doc["lattice"]["points"])
        gate.same("edges", doc["edges"])
    run.cli("graph_build", seed_args + [
        "graph", "build", "--lattice", path["net3.json"],
        "--out", path["graph3.json"]], graph_check)

    def axioms_check(text):
        doc = g.read_cli_json(gate, path["axioms.json"], seed)
        gate.require(doc["identity_defect"] <= Z2_DELTA + g.TOL,
                     f"identity defect {doc['identity_defect']} > r")
        gate.require(all(g.finite(doc[k]) for k in (
            "per_s_qi_defect", "associativity_defect", "orbit_diameter")),
            "non-finite axiom defect")
    run.cli("qaction_certify", seed_args + [
        "qaction", "certify", "--lattice", path["net3.json"],
        "--out", path["axioms.json"]], axioms_check)

    def orbit_check(text):
        doc = g.read_cli_json(gate, path["orbit.json"], seed)
        gate.require(doc["stable"] is True, "orbit map reported unstable")
    run.cli("qaction_orbit_qi", seed_args + [
        "qaction", "orbit-qi", "--lattice", path["net3.json"],
        "--out", path["orbit.json"]], orbit_check)

    def conj_check(text):
        doc = g.read_cli_json(gate, path["conj.json"], seed)
        gate.require(g.finite(doc["defect"]) and doc["defect"] >= 0,
                     f"quasi-conjugacy defect {doc['defect']}")
    run.cli("qaction_conjugacy", seed_args + [
        "qaction", "conjugacy", "--lattice", path["net2.json"],
        "--lattice2", path["net3.json"], "--out", path["conj.json"]],
        conj_check)

    def series_check(name):
        return lambda text: g.check_series(gate, g.read_series_csv(path[name]))
    run.cli("growth_run_graph", seed_args + [
        "growth", "run", "--graph", path["graph3.json"],
        "--max-m", str(Z2_GROWTH_M), "--out", path["series_graph.csv"]],
        series_check("series_graph.csv"))
    run.cli("growth_run_z2", seed_args + [
        "growth", "run", "--space", "zd", "--d", "2", "--max-m", "25",
        "--out", path["series_z2.csv"]], series_check("series_z2.csv"))
    run.cli("growth_run_z3", seed_args + [
        "growth", "run", "--space", "zd", "--d", "3", "--max-m", "15",
        "--out", path["series_z3.csv"]], series_check("series_z3.csv"))

    for series, exact in (("series_graph.csv", DEGREE_Z2),
                          ("series_z2.csv", DEGREE_Z2),
                          ("series_z3.csv", DEGREE_Z3)):
        def classify_check(text, series=series, exact=exact):
            verdict = json.loads(text)
            run.growth(series, verdict["class"], verdict["estimate"],
                       "polynomial", exact)
        run.cli(f"growth_classify_{series[:-4]}", seed_args + [
            "growth", "classify", "--series", path[series]], classify_check)

    def compare_check(text):
        verdict = json.loads(text)
        gate.require(verdict["equivalent"] is True,
                     "Z^2 and its net graph not growth-equivalent")
        gate.same("verdict", verdict)
    run.cli("growth_compare", seed_args + [
        "growth", "compare", "--a", path["series_z2.csv"],
        "--b", path["series_graph.csv"]], compare_check)

    def doc_check(name):
        """For outputs that do not depend on the seed: the whole document."""
        return lambda text: gate.same("doc", g.read_cli_json(gate, path[name], seed))
    run.cli("folner_scan_boxes", seed_args + [
        "folner", "scan", "--graph", path["graph3.json"], "--epsilon", "0.1",
        "--family", "boxes", "--sizes", Z2_BOX_SIZES,
        "--out", path["folner_boxes.json"]], doc_check("folner_boxes.json"))
    run.cli("lattice_build_small", seed_args + [
        "lattice", "build", "--space", "zd", "--d", "2",
        "--radius", str(Z2_GREEDY_RADIUS), "--delta", str(Z2_DELTA),
        "--probes", "0", "--out", path["net_small.json"]],
        doc_check("net_small.json"))
    run.cli("graph_build_small", seed_args + [
        "graph", "build", "--lattice", path["net_small.json"],
        "--out", path["graph_small.json"]], doc_check("graph_small.json"))
    run.cli("folner_scan_greedy", seed_args + [
        "folner", "scan", "--graph", path["graph_small.json"],
        "--epsilon", "0.05", "--family", "greedy_improved", "--sizes", "1..20",
        "--out", path["folner_greedy.json"]], doc_check("folner_greedy.json"))

    # certify_qi has no CLI command: load the graph file and call it directly
    def load_graph():
        with open(path["graph3.json"]) as fh:
            return graphs.RoughGraph.from_json(json.load(fh))
    graph = run.stage("load_graph", load_graph,
                      lambda gr: g.check_graph(gate, gr))
    run.stage("certify_qi", lambda: graphs.certify_qi(
        graph, n_pairs=QI_PAIRS, n_sources=Z2_QI_SOURCES, seed=seed),
        lambda qi: g.check_qi(gate, qi, QI_PAIRS))


# ---------------------------------------------------------------------------
# heisenberg: word-metric oracle and packed Folner engine (criteria 3, 8, 9)

H_NET_RADIUS = 6
H_GRAPH_RADIUS = 8
H_QI_SOURCES, H_QI_NODES = 30, 300
H_GROWTH_M = 12
H_FOLNER_RADII = [10, 20, 25]


def setup_heisenberg():
    heis = spaces.HeisenbergModel()
    z2 = spaces.ZdModel(2)
    return {"heis": heis, "cayley_heis": graphs.CayleyGraph(heis),
            "cayley_z2": graphs.CayleyGraph(z2)}


def run_heisenberg(run, ctx, seed, tmp):
    gate = run.gate
    heis = ctx["heis"]
    run.stage("greedy_net", lambda: nets.greedy_net(
        heis, spaces.BallWindow(H_NET_RADIUS), 2.0),
        lambda lat: g.check_lattice(gate, lat))
    graph = run.stage("build_graph", lambda: graphs.build_graph(
        nets.group_ball_lattice(heis, H_GRAPH_RADIUS)),
        lambda gr: g.check_graph(gate, gr))
    run.stage("certify_qi", lambda: graphs.certify_qi(
        graph, n_pairs=QI_PAIRS, n_sources=H_QI_SOURCES,
        max_nodes_per_source=H_QI_NODES, seed=seed),
        lambda qi: g.check_qi(gate, qi, QI_PAIRS))
    series = run.stage("ball_sizes", lambda: growth.ball_sizes(
        heis, m_max=H_GROWTH_M), lambda s: g.check_series(gate, s.values))
    run.stage("classify_growth", lambda: growth.classify_growth(series),
              lambda v: run.growth("heisenberg", v.kind, v.estimate,
                                   "polynomial", DEGREE_HEISENBERG))
    run.stage("folner_heisenberg_balls", lambda: folner.folner_scan(
        ctx["cayley_heis"], 1, "metric_balls", 0.2, H_FOLNER_RADII),
        lambda rep: g.check_folner(gate, rep))
    run.stage("folner_z2_boxes", lambda: folner.folner_scan(
        ctx["cayley_z2"], 1, "boxes", 0.1, range(2, 46)),
        lambda rep: g.check_folner(gate, rep))


# ---------------------------------------------------------------------------
# hyperbolic-free: the non-amenable side (criteria 1-3, 7-9)

HORO_U, HORO_N = (-20.0, 20.0), (-3, 3)
HORO_GRAPH_U = (-30.0, 30.0)
HORO_QI_SOURCES, HORO_QI_NODES = 150, 600
HORO_BALLS, HORO_BOXES = [1, 2], [1, 2, 3]
F2_RADIUS = 9
F2_FOLNER_RADII = range(1, 8)


def setup_hyperbolic_free():
    f2 = spaces.FreeGroupModel(2)
    return {"f2": f2, "horo": graphs.HorocyclicGraph(),
            "cayley_f2": graphs.CayleyGraph(f2)}


def run_hyperbolic_free(run, ctx, seed, tmp):
    gate = run.gate
    lat = run.stage("horocyclic_lattice", lambda: nets.horocyclic_lattice(
        HORO_U, HORO_N), lambda lat: g.check_lattice(gate, lat))
    probes = run.stage("sample_probes", lambda: nets.sample_probes(
        lat.space, lat.window, PROBES, 1.2, seed),
        lambda p: gate.require(len(p) == PROBES, f"{len(p)} probes"))

    def density_check(out):
        cert, profile = out
        g.check_density(gate, cert, lat.density_radius_r, PROBES)
        # paper-derived multiplicity bound (criterion 2)
        gate.require(profile.at(1.0) <= 27, f"multiplicity {profile.at(1.0)}")
    run.stage("verify_quasilattice", lambda: nets.verify_quasilattice(
        lat, probes, [1.0], seed=seed), density_check)

    horo_graph = run.stage("build_graph_h2", lambda: graphs.build_graph(
        nets.horocyclic_lattice(HORO_GRAPH_U, HORO_N)),
        lambda gr: g.check_graph(gate, gr))
    run.stage("certify_qi_h2", lambda: graphs.certify_qi(
        horo_graph, n_pairs=QI_PAIRS, n_sources=HORO_QI_SOURCES,
        max_nodes_per_source=HORO_QI_NODES, seed=seed),
        lambda qi: g.check_qi(gate, qi, QI_PAIRS))
    run.stage("folner_horo_balls", lambda: folner.folner_scan(
        ctx["horo"], 1, "metric_balls", 0.05, HORO_BALLS),
        lambda rep: g.check_folner(gate, rep))
    run.stage("folner_horo_boxes", lambda: folner.folner_scan(
        ctx["horo"], 1, "boxes", 0.05, HORO_BOXES),
        lambda rep: g.check_folner(gate, rep))

    f2 = ctx["f2"]
    free_graph = run.stage("build_graph_f2", lambda: graphs.build_graph(
        nets.group_ball_lattice(f2, F2_RADIUS)),
        lambda gr: g.check_graph(gate, gr))
    run.stage("certify_qi_f2", lambda: graphs.certify_qi(
        free_graph, n_pairs=QI_PAIRS, seed=seed),
        lambda qi: g.check_qi(gate, qi, QI_PAIRS))
    group_series = run.stage("ball_sizes_f2", lambda: growth.ball_sizes(
        f2, m_max=F2_RADIUS), lambda s: g.check_series(gate, s.values))
    graph_series = run.stage("ball_sizes_f2_graph", lambda: growth.ball_sizes(
        free_graph, free_graph.lattice.index_of(()), F2_RADIUS),
        lambda s: g.check_series(gate, s.values))

    def compare_check(v):
        gate.require(v.equivalent, "F2 and its ball graph not growth-equivalent")
        gate.same("verdict", [v.equivalent, v.constants])
    run.stage("compare_growth", lambda: growth.compare_growth(
        group_series, graph_series), compare_check)
    run.stage("classify_growth", lambda: growth.classify_growth(graph_series),
              lambda v: run.growth("free2", v.kind, v.estimate,
                                   "exponential", RATE_F2))
    run.stage("folner_free_balls", lambda: folner.folner_scan(
        ctx["cayley_f2"], 1, "metric_balls", 0.4, F2_FOLNER_RADII),
        lambda rep: g.check_folner(gate, rep))


WORKLOADS = {
    "z2-cli": (setup_z2_cli, run_z2_cli),
    "heisenberg": (setup_heisenberg, run_heisenberg),
    "hyperbolic-free": (setup_hyperbolic_free, run_hyperbolic_free),
}
