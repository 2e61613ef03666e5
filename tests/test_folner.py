import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roughcayley import (
    BallWindow,
    BoxWindow,
    CayleyGraph,
    EuclideanModel,
    FreeGroupModel,
    HeisenbergModel,
    HorocyclicGraph,
    RoughGraph,
    ZdModel,
    build_graph,
    c_boundary,
    folner_ratio,
    folner_scan,
    greedy_net,
    group_ball_lattice,
)
import roughcayley
from roughcayley import folner
from roughcayley.errors import (
    BorderError,
    DomainError,
    UndefinedRatioError,
    WindowTooSmallError,
)
from roughcayley.folner import (
    FolnerReport,
    _FreeEngine,
    _GraphEngine,
    _packed_boundary,
    _packed_closure,
    _packed_engine,
    _uniq,
)

from conftest import make_even_lattice
from oracles import (
    bfs_ball_depths,
    distance_table,
    literal_c_boundary,
    local_boundary,
    packed_bfs_balls,
    reference_greedy_scan,
    set_within,
    sorted_code_boundary,
    sorted_code_closure,
)


@pytest.fixture(scope="module")
def z_line():
    # unit integer lattice with nearest-neighbour edges
    return build_graph(group_ball_lattice(ZdModel(1), 20), threshold=1.0)


def test_z_line_boundary_example(z_line):
    g = z_line
    lat = g.lattice
    A = [lat.index_of((k,)) for k in range(-10, 11)]
    boundary = c_boundary(g, A, 1)
    assert sorted(g.point(i) for i in boundary) == [(-11,), (-10,), (10,), (11,)]
    assert folner_ratio(g, A, 1) == pytest.approx(4 / 21)


def test_folner_ratio_counts_each_vertex_once():
    g = build_graph(group_ball_lattice(ZdModel(1), 20))
    A = [g.lattice.index_of((k,)) for k in range(-5, 6)]
    assert folner_ratio(g, A, 1) == pytest.approx(8 / 11)
    assert folner_ratio(g, A + A, 1) == folner_ratio(g, A, 1)


def test_empty_set_semantics(z_line):
    assert c_boundary(z_line, [], 1) == []
    with pytest.raises(UndefinedRatioError):
        folner_ratio(z_line, [], 1)


def test_single_vertex_ratio(z_line):
    lat = z_line.lattice
    assert folner_ratio(z_line, [lat.index_of((0,))], 1) >= 1.0


def test_boundary_monotone_in_c(z_line):
    lat = z_line.lattice
    A = [lat.index_of((k,)) for k in range(-8, 9)]
    b1 = set(c_boundary(z_line, A, 1))
    b2 = set(c_boundary(z_line, A, 2))
    assert b1 <= b2


def test_boundary_complement_symmetry(z_line):
    g = z_line
    lat = g.lattice
    A = [lat.index_of((k,)) for k in range(-6, 7)]
    comp = [i for i in range(g.n) if i not in set(A)]
    interior = {i for i in range(g.n)
                if abs(g.point(i)[0]) <= 17}  # depth > c from the border
    ours = set(c_boundary(g, A, 2)) & interior
    theirs = set(literal_c_boundary(g, comp, 2)) & interior
    assert ours == theirs


def test_boundary_preconditions(z_line):
    lat = z_line.lattice
    with pytest.raises(BorderError):
        c_boundary(z_line, [lat.index_of((20,))], 1)


@pytest.mark.parametrize("graph", [CayleyGraph(ZdModel(2)), HorocyclicGraph()],
                         ids=["cayley", "horocyclic"])
def test_c_boundary_and_ratio_take_finite_graphs_only(graph):
    # (0, 0) is a vertex of both graphs
    for score in (c_boundary, folner_ratio):
        with pytest.raises(DomainError, match="folner_scan"):
            score(graph, [(0, 0)], 1)


@pytest.mark.parametrize("ids", [[-20, -19], [44], [0, 41]])
def test_c_boundary_rejects_ids_outside_the_graph(z_line, ids):
    # z_line has vertices 0..40; numpy would wrap -20 onto vertex 21
    with pytest.raises(DomainError):
        c_boundary(z_line, ids, 1)


@pytest.mark.parametrize("ids", [[-20, -19], [44], [0, 41]])
def test_folner_ratio_rejects_ids_outside_the_graph(z_line, ids):
    with pytest.raises(DomainError):
        folner_ratio(z_line, ids, 1)


@pytest.mark.parametrize("center", [-1, -20, 41])
def test_folner_scan_rejects_center_outside_the_graph(z_line, center):
    with pytest.raises(DomainError):
        folner_scan(z_line, 1, "metric_balls", 0.1, [1, 2], center=center)


def test_matches_literal_double_loop():
    rng = np.random.default_rng(17)
    graphs = [
        build_graph(group_ball_lattice(ZdModel(1), 12), threshold=1.0),
        build_graph(make_even_lattice(30)),
        build_graph(group_ball_lattice(ZdModel(2), 7)),
    ]
    tables = [distance_table(g) for g in graphs]
    checked = 0
    while checked < 6:
        k = rng.integers(0, len(graphs))
        g = graphs[k]
        c = int(rng.integers(1, 3))
        depths = g.border_depths()
        deep = [i for i in range(g.n) if depths[i] > c]
        if len(deep) < 2:
            continue
        size = int(rng.integers(1, max(2, len(deep) // 2)))
        A = sorted(int(v) for v in rng.choice(deep, size=size, replace=False))
        assert c_boundary(g, A, c) == literal_c_boundary(g, A, c, tables[k])
        checked += 1


@pytest.fixture(scope="module")
def z2_net_graph():
    # 213 vertices; 33 lie deeper than 1 from the border, one deeper than 2
    return build_graph(greedy_net(ZdModel(2), BallWindow(24), 3.0))


@pytest.fixture(scope="module")
def z2_net_table(z2_net_graph):
    return distance_table(z2_net_graph)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 2), st.sets(st.integers(0, 10 ** 6), min_size=1,
                                  max_size=40))
def test_c_boundary_matches_literal_on_net_graph(z2_net_graph, z2_net_table,
                                                 c, picks):
    g = z2_net_graph
    depths = g.border_depths()
    deep = [i for i in range(g.n) if depths[i] > c]
    A = sorted({deep[k % len(deep)] for k in picks})
    assert c_boundary(g, A, c) == literal_c_boundary(g, A, c, z2_net_table)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 62, 2 ** 62), max_size=60),
       st.integers(0, 3))
def test_uniq_matches_np_unique(values, repeat):
    arr = np.asarray(values * (repeat + 1), dtype=np.int64)
    assert np.array_equal(_uniq(arr), np.unique(arr))


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
@pytest.mark.parametrize("c", [1, 2])
def test_packed_heisenberg_ball_boundary_matches_sets(radius, c):
    heis = HeisenbergModel()
    cay = CayleyGraph(heis)
    ball = set(bfs_ball_depths(heis, radius))
    (_, size, boundary, _), = folner_scan(cay, c, "metric_balls", 1e-9,
                                          [radius]).entries
    assert size == len(ball)
    assert boundary == len(local_boundary(cay, ball, c))


def test_translation_invariance_on_implicit_lattice():
    cay = CayleyGraph(ZdModel(2))
    box = {(x, y) for x in range(-4, 5) for y in range(-4, 5)}
    shifted = {(x + 3, y + 5) for x, y in box}
    r1 = len(local_boundary(cay, box, 1)) / len(box)
    r2 = len(local_boundary(cay, shifted, 1)) / len(shifted)
    assert r1 == r2


def test_free_group_closed_form_ratios():
    cay = CayleyGraph(FreeGroupModel(2))
    report = folner_scan(cay, 1, "metric_balls", 0.4, range(1, 7))
    for desc, size, boundary, ratio in report.entries:
        j = int(desc.split(":")[1])
        assert size == 2 * 3 ** j - 1
        expected = 16 * 3 ** (j - 1)
        assert boundary == expected
        assert ratio == expected / size
    assert not report.achieved
    entry5 = report.entries[4]
    assert entry5[2] >= entry5[1] / 2  # tree boundary dominance at radius 5


@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.integers(1, 3), threshold=st.integers(1, 2), c=st.integers(1, 2),
       radius=st.integers(0, 4))
def test_free_engine_matches_python_sets(k, threshold, c, radius):
    """Ball and c-boundary sizes on shortlex ranks equal those of the set
    walk on the implicit Cayley graph of a free group."""
    # keep the set walk, out to word length (radius + 2c) * threshold, small
    assume((radius + 2 * c) * threshold <= {1: 12, 2: 7, 3: 5}[k])
    cay = CayleyGraph(FreeGroupModel(k), threshold)
    engine = _packed_engine(cay, (radius + 2 * c + 1) * threshold)
    assert isinstance(engine, _FreeEngine)
    A = set_within(cay, {()}, radius)
    packed = engine.ball(radius * threshold)
    assert len(packed) == len(A)
    assert sum(map(len, _packed_boundary(engine, packed, c * threshold))) \
        == len(local_boundary(cay, A, c))


@pytest.mark.parametrize("space, r_max", [
    (ZdModel(1), 30), (ZdModel(2), 20), (ZdModel(3), 12),
    (HeisenbergModel(), 25),
    (FreeGroupModel(1), 20), (FreeGroupModel(2), 10), (FreeGroupModel(3), 7),
], ids=["zd1", "zd2", "zd3", "heisenberg", "free1", "free2", "free3"])
def test_engine_balls_match_the_packed_bfs(space, r_max):
    engine = _packed_engine(CayleyGraph(space), r_max + 1)
    origin = (0 if isinstance(engine, _FreeEngine)
              else engine.pack([space.identity()])[0])
    for r, ball in enumerate(packed_bfs_balls(engine, origin, r_max)):
        assert np.array_equal(engine.ball(r), ball)


def test_free_group_boxes_still_rejected():
    with pytest.raises(DomainError, match="box candidates"):
        folner_scan(CayleyGraph(FreeGroupModel(2)), 1, "boxes", 0.1, [1, 2])


def test_free_engine_declines_when_ranks_overflow_int64():
    # the ball of radius L in F2 has 2 * 3^L - 1 words: L = 39 fits int64
    f2 = CayleyGraph(FreeGroupModel(2))
    assert isinstance(_packed_engine(f2, 39), _FreeEngine)
    assert _packed_engine(f2, 40) is None
    assert _packed_engine(CayleyGraph(FreeGroupModel(1000)), 10) is None


def test_implicit_scan_sizes_its_engine_by_each_scanned_radius():
    """The ranks of F_1000 overflow int64 past word length 5.  A scan that
    stops at radius 0 needs words of length 3 only; one that starts at
    radius 5 raises at once, with no fallback walk over element sets."""
    cay = CayleyGraph(FreeGroupModel(1000))
    report = folner_scan(cay, 1, "metric_balls", 1e9, [0, 5])
    assert report.entries == (("ball:0", 1, 2001, 2001.0),)
    with pytest.raises(DomainError, match="no exact engine"):
        folner_scan(cay, 1, "metric_balls", 1e9, [5])


def test_packed_engine_matches_python_sets():
    cay = CayleyGraph(ZdModel(2))
    report = folner_scan(cay, 1, "boxes", 1e-9, [4])
    desc, size, boundary, _ = report.entries[0]
    box = {(x, y) for x in range(-4, 5) for y in range(-4, 5)}
    assert size == len(box)
    assert boundary == len(local_boundary(cay, box, 1))
    heis = CayleyGraph(HeisenbergModel())
    rep_b = folner_scan(heis, 1, "metric_balls", 1e-9, [3])
    ball = rep_b.entries[0]
    dist = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    for _ in range(3):
        nxt = []
        for p in frontier:
            for q in heis.neighbors(p):
                if q not in dist:
                    dist[q] = 1
                    nxt.append(q)
        frontier = nxt
    assert ball[1] == len(dist) == 53
    assert ball[2] == len(local_boundary(heis, set(dist), 1))


def _horocyclic_box(j):
    return {(m, n) for n in range(-j, j + 1)
            for w in [math.floor(math.exp(j - n) + 1e-9)]
            for m in range(-w, w + 1)}


@pytest.mark.parametrize("hg, family, size, vertices", [
    (HorocyclicGraph(), "metric_balls", 1,
     lambda hg: set_within(hg, {(0, 0)}, 1)),
    (HorocyclicGraph(), "boxes", 1, lambda hg: _horocyclic_box(1)),
    (HorocyclicGraph(), "boxes", 2, lambda hg: _horocyclic_box(2)),
    # no hop changes the level, but the box spans five of them
    (HorocyclicGraph(0.5), "boxes", 2, lambda hg: _horocyclic_box(2)),
], ids=["ball1", "box1", "box2", "box2-level-hops-0"])
def test_horocyclic_engine_matches_python_sets(hg, family, size, vertices):
    A = vertices(hg)
    (_, n, boundary, _), = folner_scan(hg, 1, family, 1e-9, [size]).entries
    assert n == len(A)
    assert boundary == len(local_boundary(hg, A, 1))


@pytest.mark.parametrize("c, family, pinned", [
    (1, "metric_balls", {1: (69, 1276), 2: (1277, 22156)}),
    (1, "boxes", {1: (23, 495), 2: (173, 3095), 3: (1277, 22112)}),
    (2, "metric_balls", {1: (69, 22225)}),
    (2, "boxes", {1: (23, 8657), 2: (173, 53729)}),
])
def test_horocyclic_scan_sizes_are_pinned(c, family, pinned):
    report = folner_scan(HorocyclicGraph(), c, family, 1e-9, list(pinned))
    assert {int(d.split(":")[1]): (n, b) for d, n, b, _ in report.entries} \
        == pinned


def test_horocyclic_c2_ball_scan_peaks_under_150_mb():
    """The radius-2 ball of the horocyclic graph has a 2-boundary of 385,294
    vertices; in a fresh interpreter the scan peaks well under 150 MB,
    where expanding each closure step as one array peaked at 270 MB.  The
    child reads its own high-water mark, VmHWM: Linux carries the spawning
    process's peak over into the child's ``ru_maxrss``."""
    script = (
        "import json\n"
        "from roughcayley import HorocyclicGraph, folner_scan\n"
        "report = folner_scan(HorocyclicGraph(), 2, 'metric_balls', 1e-9,"
        " [1, 2])\n"
        "peak = [int(line.split()[1]) for line in open('/proc/self/status')"
        " if line.startswith('VmHWM:')]\n"
        "print(json.dumps([report.entries, *peak]))\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(roughcayley.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    entries, peak_kib = json.loads(out)
    assert entries == [["ball:1", 69, 22225, 22225 / 69],
                       ["ball:2", 1277, 385294, 385294 / 1277]]
    assert peak_kib < 150 * 1024


@pytest.mark.parametrize("graph, c, radius, hop", [
    (CayleyGraph(FreeGroupModel(2), 2), 2, 2, 2),
    (CayleyGraph(HeisenbergModel()), 2, 3, 1),
    (HorocyclicGraph(), 2, 1, 1),
], ids=["free2-threshold2", "heisenberg", "horocyclic"])
def test_boundary_closures_stay_inside_the_c_neighbourhood(graph, c, radius,
                                                           hop, monkeypatch):
    """No expansion of either closure reads more codes than |N_c(A)|: the
    inner closure grows only inside it, not outward from the outer shell.
    Each closure expands only the codes its previous step added, so no
    code reaches ``expand`` twice within one closure."""
    engine = _packed_engine(graph, (radius + 2 * c + 1) * hop)
    A = engine.ball(radius * hop)
    grown = _packed_closure(engine, A, c * hop)
    (_, _, expected, _), = folner_scan(graph, c, "metric_balls", 1e-9,
                                       [radius]).entries
    expand, closures = engine.expand, []

    def closure(*args, **kwargs):
        closures.append([])
        return _packed_closure(*args, **kwargs)

    def counted(arr):
        closures[-1].append(arr.copy())
        return expand(arr)

    monkeypatch.setattr(folner, "_packed_closure", closure)
    engine.expand = counted
    assert sum(map(len, _packed_boundary(engine, A, c * hop))) == expected
    assert len(closures) == 2
    read = [len(arr) for passed in closures for arr in passed]
    assert read and max(read) <= len(grown)
    for passed in closures:
        codes = np.concatenate(passed)
        assert len(np.unique(codes)) == len(codes)


# graph, ball radius the sets are drawn from, hops per unit of c, the most
# codes drawn in each of two ways, and the largest c; at c = 3 the reference
# takes seconds on the default horocyclic graph, so the graph with threshold
# 2, which still hops across levels, takes c = 3
_CLOSURE_CASES = {
    "z2": (lambda: CayleyGraph(ZdModel(2)), 6, 1, 40, 3),
    "z3": (lambda: CayleyGraph(ZdModel(3)), 3, 1, 40, 3),
    "heisenberg": (lambda: CayleyGraph(HeisenbergModel()), 4, 1, 40, 3),
    "free2-threshold2": (lambda: CayleyGraph(FreeGroupModel(2), 2),
                         2, 2, 10, 3),
    "horocyclic": (lambda: HorocyclicGraph(), 2, 1, 8, 2),
    "horocyclic-threshold2": (lambda: HorocyclicGraph(2.0), 2, 1, 40, 3),
    "finite": (lambda: build_graph(greedy_net(ZdModel(2), BallWindow(14), 2),
                                   threshold=3.0), 6, 1, 40, 3),
}


@functools.lru_cache(maxsize=None)
def _closure_case(name, c):
    """A case's engine, the sorted codes of its ball, and its hop."""
    graph, radius, hop = _CLOSURE_CASES[name][:3]
    graph = graph()
    if isinstance(graph, RoughGraph):
        engine = _GraphEngine(graph,
                              graph.deepest_vertex(graph.border_depths()))
    else:
        engine = _packed_engine(graph, (radius + 2 * c + 1) * hop)
    return engine, engine.ball(radius * hop), hop


@settings(derandomize=True, max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_CLOSURE_CASES)), c=st.integers(1, 3),
       picks=st.lists(st.integers(0, 2 ** 20), max_size=40),
       run=st.tuples(st.integers(0, 2 ** 20), st.integers(0, 40)))
def test_mask_closures_match_the_sorted_code_reference(name, c, picks, run):
    """The mask closures give the codes, in order and dtype, of the routine
    that re-sorts the whole set at every step, for sets of scattered codes
    and a run of consecutive ones inside an engine ball; horocyclic codes
    with m < 0 are negative."""
    most, c_max = _CLOSURE_CASES[name][3:]
    assume(c <= c_max)
    engine, ball, hop = _closure_case(name, c)
    start, length = run[0] % len(ball), min(run[1], most)
    A = ball[np.unique(np.concatenate([
        np.asarray(picks[:most], dtype=np.int64) % len(ball),
        np.arange(start, min(start + length, len(ball)))]).astype(np.intp))]
    steps = c * hop
    got = (_packed_closure(engine, A, steps),
           *_packed_boundary(engine, A, steps))
    want = (sorted_code_closure(engine, A, steps),
            *sorted_code_boundary(engine, A, steps))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("graph", [
    lambda: build_graph(group_ball_lattice(ZdModel(2), 12), threshold=1.0),
    lambda: CayleyGraph(ZdModel(2)),
    lambda: CayleyGraph(HeisenbergModel()),
    lambda: CayleyGraph(FreeGroupModel(2)),
    lambda: HorocyclicGraph(),
], ids=["finite", "zd", "heisenberg", "free", "horocyclic"])
@pytest.mark.parametrize("family", ["metric_balls", "boxes"])
def test_negative_candidate_sizes_are_domain_errors(graph, family):
    with pytest.raises(DomainError, match="negative candidate size -1"):
        folner_scan(graph(), 1, family, 0.1, [-1, 2])


def test_scan_achieved_and_early_stop(z_line):
    report = folner_scan(z_line, 1, "metric_balls", 0.3, range(1, 18))
    assert report.achieved
    # stops at the first radius k with 4/(2k+1) < 0.3, i.e. k = 7
    assert report.entries[-1][0] == "ball:7"
    assert report.best_ratio == pytest.approx(4 / 15)


def test_scan_window_too_small(z_line):
    with pytest.raises(WindowTooSmallError):
        folner_scan(z_line, 25, "metric_balls", 0.1, [1, 2, 3])


def test_greedy_improved_does_not_worsen():
    g = build_graph(group_ball_lattice(ZdModel(2), 12), threshold=1.0)
    balls = folner_scan(g, 1, "metric_balls", 1e-9, range(1, 7))
    improved = folner_scan(g, 1, "greedy_improved", 1e-9, range(1, 7))
    assert improved.best_ratio <= balls.best_ratio + 1e-12


@pytest.fixture(scope="module")
def greedy_graphs(z2_net_graph):
    return {
        "z2_ball12": build_graph(group_ball_lattice(ZdModel(2), 12),
                                 threshold=1.0),
        "z2_net24": z2_net_graph,
        "z1_ball40": build_graph(group_ball_lattice(ZdModel(1), 40),
                                 threshold=1.0),
    }


@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("name", ["z2_ball12", "z2_net24", "z1_ball40"])
def test_greedy_improved_matches_reference_hill_climb(greedy_graphs, name, c):
    g = greedy_graphs[name]
    schedule = range(0, 12)
    expected = reference_greedy_scan(g, c, schedule)
    if not expected:
        with pytest.raises(WindowTooSmallError):
            folner_scan(g, c, "greedy_improved", 1e-9, schedule)
        return
    report = folner_scan(g, c, "greedy_improved", 1e-9, schedule)
    assert list(report.entries) == expected


@pytest.mark.parametrize("lattice", [
    lambda: greedy_net(ZdModel(2), BallWindow(40), 3.0),
    lambda: greedy_net(EuclideanModel(2),
                       BoxWindow((-6.0, -6.0), (6.0, 6.0), 0.25), 1.0),
], ids=["z2", "r2"])
def test_finite_box_matches_the_coordinate_loop(lattice):
    g = build_graph(lattice())
    for center in (0, g.n // 2, g.deepest_vertex(g.border_depths())):
        c0 = g.point(center)
        for n in range(10):
            assert _GraphEngine(g, center).box(n).tolist() == [
                i for i, p in enumerate(g.lattice.points)
                if max(abs(v - w) for v, w in zip(p, c0)) <= n + 1e-9]


def test_finite_scans_compute_border_depths_once(monkeypatch):
    g = build_graph(group_ball_lattice(ZdModel(2), 12), threshold=1.0)
    depths = RoughGraph.border_depths
    calls = [0]

    def counted(self):
        calls[0] += 1
        return depths(self)

    monkeypatch.setattr(RoughGraph, "border_depths", counted)
    for family in ("greedy_improved", "boxes"):
        calls[0] = 0
        folner_scan(g, 1, family, 1e-9, range(1, 9))
        assert calls[0] == 1, family


def test_report_invariants():
    with pytest.raises(DomainError):
        FolnerReport(c=1.0, family="boxes", entries=(("box:1", 9, 8, 8 / 9),),
                     best_ratio=0.5, epsilon_target=1.0, achieved=True)
    with pytest.raises(DomainError):
        FolnerReport(c=1.0, family="boxes", entries=(("box:1", 9, 8, 8 / 9),),
                     best_ratio=8 / 9, epsilon_target=1.0, achieved=False)


def test_greedy_improved_rejected_on_implicit():
    with pytest.raises(DomainError):
        folner_scan(CayleyGraph(ZdModel(2)), 1, "greedy_improved", 0.1, [2])

@pytest.mark.parametrize("c", [1, 2])
def test_heisenberg_box_boundaries_match_the_literal_boundary(c):
    """Box n of the Heisenberg group is |a|, |b| <= n, |c| <= max(1, n^2);
    boxes 0 and 1 have word length at most 4, so in the word ball of radius
    4 + 2c (threshold-1 edges) their c-boundaries are those of the whole
    Cayley graph, read off the all-pairs table."""
    heis = HeisenbergModel()
    g = build_graph(group_ball_lattice(heis, 4 + 2 * c), threshold=1.0)
    table = distance_table(g)
    report = folner_scan(CayleyGraph(heis), c, "boxes", 1e-9, [0, 1])
    for n, (desc, size, boundary, ratio) in enumerate(report.entries):
        h = max(1, n * n)
        box = [g.lattice.index_of((a, b, z)) for a in range(-n, n + 1)
               for b in range(-n, n + 1) for z in range(-h, h + 1)]
        literal = literal_c_boundary(g, box, c, table)
        assert (desc, size, boundary) == (f"box:{n}", len(box), len(literal))
        assert ratio == len(literal) / len(box)


@pytest.mark.parametrize("c", [0, 0.5, 0.999, math.nan, math.inf, -1])
def test_boundary_constants_below_one_or_not_finite_are_domain_errors(
        z_line, c):
    """Below c = 1 every c-boundary is empty, so a scan would pass any
    graph, the free group and the horocyclic graph among them."""
    for graph in (CayleyGraph(FreeGroupModel(2)), HorocyclicGraph(), z_line):
        with pytest.raises(DomainError, match="finite number >= 1"):
            folner_scan(graph, c, "metric_balls", 0.1, [1, 2])
    with pytest.raises(DomainError, match="finite number >= 1"):
        c_boundary(z_line, [20], c)
    with pytest.raises(DomainError, match="finite number >= 1"):
        folner_ratio(z_line, [20], c)
    assert folner_ratio(z_line, [20], 1) == 3.0
