import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughcayley import (
    BallWindow,
    BoxWindow,
    CayleyGraph,
    EuclideanModel,
    FreeGroupModel,
    H2Window,
    HOROCYCLIC_SEPARATION,
    HeisenbergModel,
    HorocyclicGraph,
    HyperbolicPlaneModel,
    QuasiLattice,
    RoughGraph,
    ZdModel,
    ball_sizes,
    build_graph,
    c_boundary,
    certify_qi,
    default_threshold,
    edge_csv,
    folner_scan,
    graph_distance,
    graph_stats,
    greedy_net,
    group_ball_lattice,
    horocyclic_lattice,
    to_dot,
)
from roughcayley.errors import (
    BorderError,
    CertificationError,
    DisconnectedGraphError,
    DomainError,
    SchemaError,
    UnreachableError,
)
from roughcayley.graphs import (
    _bfs_arrays,
    _pairs,
    _qi_sample,
    component_sizes,
)
from roughcayley.spaces import _row_keys, csr_layers

from conftest import make_even_lattice
from oracles import (
    bfs_layers,
    distance_table,
    free_reduce,
    graph_distances_from,
    literal_c_boundary,
    literal_qi_pairs,
    naive_ball_sizes,
    naive_edges,
    reference_greedy_scan,
)


def test_even_graph_threshold_and_degrees():
    g = build_graph(make_even_lattice(10))
    assert g.threshold == 4.0
    i0 = g.lattice.index_of((0,))
    assert sorted(g.point(j) for j in g.neighbors(i0)) == [(-4,), (-2,), (2,), (4,)]
    assert g.degree_bound_M == 4


def test_horocyclic_adjacent_pair():
    lat = horocyclic_lattice((-20.0, 20.0), (-3, 3))
    g = build_graph(lat)
    assert abs(g.threshold - 3.14) <= 1e-12
    h2 = lat.space
    d = h2.distance((0.0, 1.0), (1.0, 1.0))
    assert abs(d - HOROCYCLIC_SEPARATION) <= 1e-9
    i, j = lat.index_of((0.0, 1.0)), lat.index_of((1.0, 1.0))
    assert j in g.neighbors(i)


def test_single_point_graph():
    e2 = EuclideanModel(2)
    lat = QuasiLattice(space=e2, window=BoxWindow((-1.0, -1.0), (1.0, 1.0), 1.0),
                       points=[(0.0, 0.0)], separation_delta=1.0,
                       density_radius_r=1.0, construction="greedy")
    g = build_graph(lat)
    assert g.n == 1 and g.n_edges() == 0
    assert component_sizes(g) == [1]


def test_graph_distances():
    g = build_graph(make_even_lattice(24))
    i0 = g.lattice.index_of((0,))
    i4 = g.lattice.index_of((4,))
    i20 = g.lattice.index_of((20,))
    assert graph_distance(g, i0, i4) == 1
    assert graph_distance(g, i0, i20) == 5
    assert graph_distance(g, i0, i0) == 0


def test_tall_horocyclic_column_distance():
    lat = horocyclic_lattice((-20.0, 20.0), (-3, 10))
    g = build_graph(lat)
    i = lat.index_of((0.0, 1.0))
    j = lat.index_of((0.0, math.exp(10)))
    d_graph = graph_distance(g, i, j)
    assert d_graph <= 10
    assert d_graph >= 10 / 3.14


def test_unreachable_error():
    g = build_graph(make_even_lattice(10))
    with pytest.raises(UnreachableError):
        # fabricate a second component by clearing adjacency
        broken = RoughGraph(lattice=g.lattice, threshold=g.threshold,
                            adjacency=[[] for _ in range(g.n)],
                            degree_bound_M=0)
        graph_distance(broken, 0, 1)


def test_certify_even_graph_numbers(even_graph_100):
    g = even_graph_100
    cert = certify_qi(g, n_pairs=400, seed=1)
    assert cert.C == 4.0 and cert.r == 2.0
    i0, i20 = g.lattice.index_of((0,)), g.lattice.index_of((20,))
    dg = graph_distance(g, i0, i20)
    assert dg == 5
    assert 20.0 <= 4.0 * dg
    assert dg <= 20.0 + 1.0 + 1.0


def _scattered_r2_lattice():
    """600 seeded uniform points of a 30 x 30 box: no two slacks tie, so
    the source pool is cut inside a run of distinct slacks."""
    rng = np.random.default_rng(7)
    return QuasiLattice(
        space=EuclideanModel(2),
        window=BoxWindow((0.0, 0.0), (30.0, 30.0), 1.0),
        points=[tuple(p) for p in rng.uniform(0.0, 30.0, (600, 2)).tolist()],
        separation_delta=0.01, density_radius_r=1.5, construction="greedy")


# the graphs of the acceptance criteria, with the benchmark's certify_qi
# settings where it has them, and one whose slacks never tie
QI_GRAPHS = {
    "r2-scattered": (_scattered_r2_lattice, {}),
    "z1-even": (lambda: make_even_lattice(100), {}),
    "z2-delta3": (lambda: greedy_net(ZdModel(2), BallWindow(80), 3.0),
                  {"n_sources": 25}),
    "horocyclic": (lambda: horocyclic_lattice((-30.0, 30.0), (-3, 3)),
                   {"n_sources": 150, "max_nodes": 600}),
    "f2-ball9": (lambda: group_ball_lattice(FreeGroupModel(2), 9), {}),
    "heisenberg-ball8": (lambda: group_ball_lattice(HeisenbergModel(), 8),
                         {"n_sources": 30, "max_nodes": 300}),
}


@pytest.mark.parametrize("name", list(QI_GRAPHS))
def test_qi_sample_matches_literal_loop(name):
    lattice, kw = QI_GRAPHS[name]
    g = build_graph(lattice())
    for seed in (0, 1, 5001):
        expected = literal_qi_pairs(g, seed=seed, **kw)
        S, T, D, DG = _qi_sample(g, 1000, kw.get("n_sources", 50),
                                 kw.get("max_nodes", 4000), seed)
        assert list(zip(S.tolist(), T.tolist(), DG.tolist())) == \
            [(s, t, dg) for s, t, _, dg in expected]
        assert np.allclose(D, [d for _, _, d, _ in expected],
                           rtol=0.0, atol=1e-11)
        assert certify_qi(g, seed=seed, n_sources=kw.get("n_sources", 50),
                          max_nodes_per_source=kw.get("max_nodes", 4000)
                          ).sample_size == len(expected) == 1000


def test_certify_qi_without_admissible_pairs_samples_none():
    # the Z^1 ball of radius 2: no two vertices both clear d/2 + c + r
    g = build_graph(group_ball_lattice(ZdModel(1), 2))
    assert literal_qi_pairs(g) == []
    assert certify_qi(g).sample_size == 0


def _rewired(graph, keep, extra=()):
    """The graph with only the edges ``keep`` accepts, plus ``extra``."""
    pts = graph.lattice.points
    adjacency = [[j for j in nbrs if keep(pts[i], pts[j])]
                 for i, nbrs in enumerate(graph.adjacency)]
    for i, j in extra:
        adjacency[i].append(j)
        adjacency[j].append(i)
    return RoughGraph(lattice=graph.lattice, threshold=graph.threshold,
                      adjacency=[sorted(a) for a in adjacency],
                      degree_bound_M=graph.degree_bound_M)


@pytest.mark.parametrize("broken", ["wall", "shortcut"])
def test_certify_qi_raises_the_literal_witness(broken):
    g = build_graph(group_ball_lattice(ZdModel(2), 12))
    if broken == "wall":
        # no edge crosses x = 1/2 below |y| = 8: the detour breaks
        # d_graph <= d + c + 1
        g = _rewired(g, lambda p, q: (p[0] <= 0) == (q[0] <= 0)
                     or abs(p[1]) >= 8)
    else:
        # one edge of length 10 breaks d <= (2r + c + 1) d_graph
        ends = (g.lattice.index_of((-5, 0)), g.lattice.index_of((5, 0)))
        g = _rewired(g, lambda p, q: True, [ends])
    for seed in (0, 1, 2):
        with pytest.raises(CertificationError) as want:
            literal_qi_pairs(g, seed=seed)
        with pytest.raises(CertificationError) as got:
            certify_qi(g, seed=seed)
        assert str(got.value) == str(want.value)
        assert got.value.witness == want.value.witness
        assert ("exceeds ambient" in str(got.value)) == (broken == "wall")


def test_group_ball_graph_inequalities_exhaustive():
    z2 = ZdModel(2)
    lat = group_ball_lattice(z2, 8)
    g = build_graph(lat)
    assert g.threshold == 2.0
    slacks = lat.slacks()
    for i in range(g.n):
        dist = graph_distances_from(g, i)
        pi = g.point(i)
        for j in range(i + 1, g.n):
            d = z2.distance(pi, g.point(j))
            need = d / 2.0 + 1.0
            if slacks[i] < need or slacks[j] < need:
                continue
            assert d <= 2.0 * dist[j]
            assert dist[j] <= d + 2.0


def test_degree_bounded_by_multiplicity():
    from roughcayley import verify_quasilattice

    for lat in (make_even_lattice(12), group_ball_lattice(ZdModel(2), 8)):
        g = build_graph(lat)
        space = lat.space
        interior = [p for p in lat.points
                    if space.boundary_slack(lat.window, p) >= g.threshold]
        _, profile = verify_quasilattice(lat, interior, [g.threshold])
        M = profile.at(g.threshold)
        for p in interior:
            assert len(g.neighbors(lat.index_of(p))) <= M
    # the horocyclic window is thinner than the threshold, so bound the
    # windowed degrees by the multiplicity of the full infinite lattice
    lat = horocyclic_lattice((-20.0, 20.0), (-3, 3))
    g = build_graph(lat)
    hg = HorocyclicGraph()
    M_inf = max(len(hg.neighbors((m, n))) + 1
                for m in range(-6, 7) for n in range(-3, 4))
    assert g.degree_bound_M <= M_inf


def test_adjacency_symmetric_irreflexive():
    g = build_graph(horocyclic_lattice((-10.0, 10.0), (-2, 2)))
    for i in range(g.n):
        assert i not in g.neighbors(i)
        for j in g.neighbors(i):
            assert i in g.neighbors(j)


def test_rebuild_from_serialized_lattice_identical_edges():
    lat = horocyclic_lattice((-15.0, 15.0), (-2, 2))
    g = build_graph(lat)
    lat2 = QuasiLattice.from_json(json.loads(json.dumps(lat.to_json())))
    g2 = build_graph(lat2)
    assert sorted(g.edges()) == sorted(g2.edges())
    g3 = RoughGraph.from_json(json.loads(json.dumps(g.to_json())))
    assert sorted(g3.edges()) == sorted(g.edges())
    assert g3.threshold == g.threshold


@pytest.mark.parametrize("space,window,delta,threshold", [
    (ZdModel(2), BallWindow(20), 3.0, None),
    (ZdModel(2), BallWindow(12), 1.0, 2.0),
    (ZdModel(3), BallWindow(6), 2.0, None),
    (EuclideanModel(2), BoxWindow((-3.0, -3.0), (3.0, 3.0), 0.5), 1.2, None),
    # a 0.5 grid at threshold 1.5: distances tie exactly at the threshold
    # and every point lies on a cell boundary of the grid of side 1.5
    (EuclideanModel(2), BoxWindow((-3.0, -3.0), (3.0, 3.0), 0.5), 0.5, 1.5),
    (EuclideanModel(2), BoxWindow((-3.0, -3.0), (3.0, 3.0), 0.75), 1.5, 3.0),
    # a net of a 0.25 grid at threshold 1: axis neighbours tie exactly
    (EuclideanModel(2), BoxWindow((-5.0, -5.0), (5.0, 5.0), 0.25), 1.0, 1.0),
], ids=["zd2", "zd2-unit", "zd3", "r2", "r2-tied", "r2-tied-net",
        "r2-tied-quarter"])
def test_grid_edges_match_all_pairs_oracle(space, window, delta, threshold):
    lattice = greedy_net(space, window, delta)
    if threshold is None:
        threshold = default_threshold(lattice)
    graph = build_graph(lattice, threshold=threshold)
    assert graph.adjacency == naive_edges(lattice, threshold)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_row_keys_are_equal_iff_rows_are(data):
    """Int64 codes where the column ranges allow them, raw bytes where a
    code would overflow: a query row and a key row have equal keys iff
    they are equal, also for a query outside the keys' ranges."""
    width = data.draw(st.integers(1, 3))
    dtype = data.draw(st.sampled_from([np.int8, np.int64]))  # int8: words

    def rows():
        bound = 100 if dtype is np.int8 else data.draw(
            st.sampled_from([3, 1 << 62]))
        return data.draw(st.lists(st.lists(
            st.integers(-bound, bound), min_size=width, max_size=width),
            min_size=1, max_size=8))

    K = np.array(rows(), dtype=dtype)
    Q = np.array(rows() + K.tolist(), dtype=dtype)
    keys, key = _row_keys(K)
    equal = (Q[:, None, :] == K[None, :, :]).all(axis=2)
    assert ((key(Q)[:, None] == keys[None, :]) == equal).all()


def test_grid_edges_of_far_points_fall_back_to_byte_keys():
    """Cells too far apart for an int64 code are bisected as raw bytes, and
    the graph keeps the same edges."""
    z2 = ZdModel(2)
    points = [(x + (1 << 40), y - (1 << 40)) for x in range(-6, 7, 2)
              for y in range(-6, 7, 2)]
    lattice = QuasiLattice(space=z2, window=BallWindow(1 << 42), points=points,
                           separation_delta=2.0, density_radius_r=2.0,
                           construction="greedy")
    cells = np.floor(lattice.coords() / 5.0).astype(np.int64)
    assert _row_keys(cells)[0].dtype.kind == "V"
    graph = build_graph(lattice, threshold=5.0)
    assert graph.adjacency == naive_edges(lattice, 5.0)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(k=st.integers(0, 3), radius=st.integers(0, 4),
       threshold=st.sampled_from([1.0, 2.0, 2.5, 3.0]))
def test_group_ball_edges_match_all_pairs_oracle(k, radius, threshold):
    """Edges found by array products and bisection, on word balls of the
    free groups of rank 1 to 3 (k) and of the Heisenberg group (k = 0)."""
    space = FreeGroupModel(k) if k else HeisenbergModel()
    lattice = group_ball_lattice(space, min(radius, {0: 3, 1: 4, 2: 4, 3: 3}[k]))
    graph = build_graph(lattice, threshold=threshold)
    assert graph.adjacency == naive_edges(lattice, threshold)


def _model_points(data, model):
    """A model and a strategy for its points: small integer boxes, floats on
    a quarter grid or anywhere in a box, half-plane points over a range of
    log a, and reduced words of length up to 4."""
    if model.startswith("zd"):
        d = int(model[2:])
        return ZdModel(d), st.tuples(*[st.integers(-6, 6)] * d)
    if model == "heisenberg":
        return HeisenbergModel(), st.tuples(
            st.integers(-3, 3), st.integers(-3, 3), st.integers(-6, 6))
    if model.startswith("free"):
        k = int(model[4:])
        letters = st.sampled_from([g for g in range(-k, k + 1) if g])
        return FreeGroupModel(k), st.lists(letters, max_size=6).map(
            free_reduce).filter(lambda w: len(w) <= 4)
    coord = st.one_of(st.integers(-12, 12).map(lambda v: v / 4.0),
                      st.floats(-3.0, 3.0))
    if model == "r2":
        return EuclideanModel(2), st.tuples(coord, coord)
    log_a = st.one_of(st.integers(-4, 4).map(lambda v: v / 2.0),
                      st.floats(-2.0, 2.0))
    return HyperbolicPlaneModel(), st.tuples(coord, log_a.map(math.exp))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(),
       model=st.sampled_from(["zd1", "zd2", "zd3", "r2", "h2", "heisenberg",
                              "free2", "free3"]),
       threshold=st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]))
def test_candidates_of_queries_match_brute_force(data, model, threshold):
    """Every (query, point) pair at most threshold + 1e-9 apart comes once,
    with the distance a full scan gives, also for repeated points, queries
    equal to points and words longer than every point; no pair comes
    twice."""
    space, point = _model_points(data, model)
    queries = data.draw(st.lists(point, min_size=1, max_size=12))
    points = data.draw(st.lists(point, max_size=25))
    if points and data.draw(st.booleans()):
        queries += data.draw(st.lists(st.sampled_from(points), max_size=4))
    Q, X = space.coords(queries), space.coords(points)
    found = {}
    for I, J, D in _pairs(space, X, threshold)(Q):
        for i, j, d in zip(I.tolist(), J.tolist(), D.tolist()):
            assert (i, j) not in found
            found[i, j] = d
    for i, q in enumerate(queries):
        dist = space.distances_from(q, X)
        for j in np.flatnonzero(dist <= threshold + 1e-9).tolist():
            assert found.get((i, j)) == dist[j], (q, points[j])


@pytest.mark.parametrize("space", [ZdModel(2), HeisenbergModel(),
                                   FreeGroupModel(2)],
                         ids=["zd2", "heisenberg", "free2"])
def test_a_point_listed_twice_gets_the_edges_of_each_copy(space):
    """Each copy of a repeated lattice point is joined to the other and to
    every neighbour, by the group-ball builder as by the grid one."""
    ball = group_ball_lattice(space, 3)
    lattice = QuasiLattice(space, ball.window, ball.points + ball.points[2:5],
                           1.0, 0.0, "group_ball")
    graph = build_graph(lattice)
    assert graph.adjacency == naive_edges(lattice, graph.threshold)
    assert len(ball.points) in graph.neighbors(2)   # the copy of point 2


@pytest.mark.parametrize("make,n,edges", [
    (lambda: horocyclic_lattice((-6.0, 6.0), (-2, 2)), 141, 1639),
    (lambda: greedy_net(HyperbolicPlaneModel(),
                        H2Window(-3.0, 3.0, -1.5, 1.5), 0.8), 45, 350),
], ids=["horocyclic", "greedy"])
def test_h2_edges_match_all_pairs_oracle(make, n, edges):
    """Edges found by u-windows in rows of log a, on the horocyclic lattice
    and on a greedy net of the hyperbolic plane."""
    lattice = make()
    graph = build_graph(lattice)
    assert (graph.n, graph.n_edges()) == (n, edges)
    assert graph.adjacency == naive_edges(lattice, graph.threshold)


@pytest.mark.parametrize("space,points", [
    (EuclideanModel(1), [(-2e-10,), (1.0000000003,)]),
    (HyperbolicPlaneModel(), [(0.0, math.exp(-2e-10)),
                              (0.0, math.exp(1.0000000003))]),
], ids=["r1", "h2"])
def test_an_edge_within_the_tolerance_across_two_cell_borders(space, points):
    """Two points 1 + 5e-10 apart, so joined at threshold 1 by the 1e-9
    tolerance, whose coordinate (or log a) sits on either side of two cell
    borders of side 1: the cells are widened so that the pair still
    comes."""
    assert abs(space.distance(*points) - (1.0 + 5e-10)) < 1e-15
    X = space.coords(points)
    pairs = {(i, j) for I, J, _ in _pairs(space, X, 1.0)(X)
             for i, j in zip(I.tolist(), J.tolist())}
    assert {(0, 1), (1, 0)} <= pairs


def test_h2_edges_at_a_threshold_past_the_range_of_exp():
    """Past about 709, e^threshold overflows a float: every u is then in
    reach, and every pair is an edge."""
    lattice = horocyclic_lattice((-4.0, 4.0), (-1, 1))
    graph = build_graph(lattice, threshold=1000.0)
    assert graph.n_edges() == graph.n * (graph.n - 1) // 2


def test_heisenberg_net_edges_match_all_pairs_oracle():
    lattice = greedy_net(HeisenbergModel(), BallWindow(5), 2.0)
    graph = build_graph(lattice)
    assert graph.adjacency == naive_edges(lattice, graph.threshold)


@pytest.mark.parametrize("edge", [[-1, 0], [0, 7], [0, 1.0], [True, 0]])
def test_graph_json_rejects_edge_ids_outside_the_vertices(edge):
    doc = build_graph(group_ball_lattice(ZdModel(1), 3)).to_json()
    assert len(doc["lattice"]["points"]) == 7
    doc["edges"].append(edge)
    with pytest.raises(SchemaError, match="vertex ids in range\\(7\\)"):
        RoughGraph.from_json(doc)


def test_slacks_built_once_and_read_only():
    lat = group_ball_lattice(ZdModel(2), 4)
    slacks = lat.slacks()
    assert lat.slacks() is slacks
    assert slacks.tolist() == [lat.space.boundary_slack(lat.window, p)
                               for p in lat.points]
    with pytest.raises(ValueError):
        slacks[0] = 0.0


def test_disconnected_graph_error():
    e1 = EuclideanModel(1)
    lat = QuasiLattice(space=e1,
                       window=BoxWindow((0.0,), (100.0,), 1.0),
                       points=[(0.0,), (100.0,)],
                       separation_delta=1.0, density_radius_r=0.25,
                       construction="greedy")
    with pytest.raises(DisconnectedGraphError) as err:
        build_graph(lat)
    assert err.value.component_sizes == [1, 1]


def test_threshold_override():
    lat = group_ball_lattice(ZdModel(1), 10)
    g = build_graph(lat, threshold=1.0)
    assert g.threshold == 1.0
    i0 = lat.index_of((0,))
    assert sorted(g.point(j) for j in g.neighbors(i0)) == [(-1,), (1,)]
    assert default_threshold(lat) == 2.0


def test_nan_threshold_is_a_domain_error():
    """Every distance test against NaN fails, so the graph would have no
    edges and be reported as disconnected."""
    with pytest.raises(DomainError, match="edge threshold is NaN"):
        build_graph(group_ball_lattice(ZdModel(2), 4), threshold=math.nan)


@pytest.mark.parametrize("threshold", [math.inf, -math.inf])
def test_infinite_threshold_is_a_domain_error(threshold):
    """An infinite threshold would join every pair, and ``Infinity`` is no
    JSON number."""
    with pytest.raises(DomainError, match="^edge threshold is infinite$"):
        build_graph(group_ball_lattice(ZdModel(2), 4), threshold=threshold)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_graph_file_threshold_that_is_not_finite_is_a_schema_error(threshold):
    """Read back with a NaN threshold, a graph would have no border vertex
    (every slack < NaN is false), so a growth series over a window-cut
    ball would come out truncated instead of raising ``BorderError``."""
    graph = build_graph(greedy_net(ZdModel(2), BallWindow(12), 3.0))
    with pytest.raises(BorderError):
        ball_sizes(graph, None, 30)
    doc = json.loads(json.dumps(graph.to_json()))
    doc["threshold"] = threshold
    with pytest.raises(SchemaError, match="^threshold must be finite, got "
                                          + re.escape(repr(threshold))):
        RoughGraph.from_json(doc)


def _tolerance_lattice(space, window, points):
    return QuasiLattice(space, window, points, 1.0, 0.0, "greedy")


@pytest.mark.parametrize("make,threshold", [
    (lambda: greedy_net(ZdModel(2), BallWindow(12), 3.0), None),
    (lambda: group_ball_lattice(FreeGroupModel(2), 5), None),
    (lambda: group_ball_lattice(FreeGroupModel(2), 0), None),
    (lambda: group_ball_lattice(HeisenbergModel(), 0), None),
    (lambda: greedy_net(HeisenbergModel(), BallWindow(4), 2.0), None),
    (lambda: greedy_net(EuclideanModel(2),
                        BoxWindow((-3.0, -3.0), (3.0, 3.0), 0.25), 0.7), None),
    (lambda: horocyclic_lattice((-6.0, 6.0), (-2, 2)), None),
    (lambda: greedy_net(HyperbolicPlaneModel(),
                        H2Window(-3.0, 3.0, -1.5, 1.5, 0.2), 0.8), None),
    # edges 1 + 5e-10 long, kept at threshold 1 by the 1e-9 tolerance
    (lambda: _tolerance_lattice(EuclideanModel(1),
                                BoxWindow((-1.0,), (2.0,), 1.0),
                                [(-2e-10,), (1.0000000003,)]), 1.0),
    (lambda: _tolerance_lattice(HyperbolicPlaneModel(),
                                H2Window(-1.0, 1.0, -1.0, 2.0),
                                [(0.0, math.exp(-2e-10)),
                                 (0.0, math.exp(1.0000000003))]), 1.0),
], ids=["zd2-net", "f2-ball", "f2-identity", "heis-identity", "heis-net",
        "e2-net", "horocyclic", "h2-net", "e1-tolerance", "h2-tolerance"])
def test_every_built_graph_reads_back(make, threshold):
    """A graph file checks each edge against its threshold with the edge
    builders' own distances, so every graph ``build_graph`` writes reads
    back, ties at the tolerance included."""
    graph = build_graph(make(), threshold)
    back = RoughGraph.from_json(json.loads(json.dumps(graph.to_json())))
    assert back.adjacency == graph.adjacency
    assert back.threshold == graph.threshold


@pytest.mark.parametrize("threshold", [-1.0, -1e-300])
def test_graph_file_threshold_below_0_is_a_schema_error(threshold):
    """Read back with threshold -1, the radius-12 net graph had no border
    vertex (every slack < -1 is false), so its growth series came out cut
    short at 59 instead of raising ``BorderError``."""
    doc = json.loads(json.dumps(build_graph(
        greedy_net(ZdModel(2), BallWindow(12), 3.0)).to_json()))
    doc["threshold"] = threshold
    with pytest.raises(SchemaError, match="^threshold must be >= 0, got "
                                          + re.escape(repr(threshold))):
        RoughGraph.from_json(doc)


@pytest.mark.parametrize("make,threshold,message", [
    (lambda: greedy_net(ZdModel(2), BallWindow(12), 3.0), 6.5,
     r"edge \[\d+, \d+\] has length [78]\.0, above the threshold 6\.5"),
    (lambda: group_ball_lattice(FreeGroupModel(2), 3), 0.0,
     r"edge \[0, 1\] has length 1\.0, above the threshold 0\.0"),
    (lambda: _tolerance_lattice(HyperbolicPlaneModel(),
                                H2Window(-1.0, 1.0, -1.0, 2.0),
                                [(0.0, math.exp(-2e-10)),
                                 (0.0, math.exp(1.0000000003))]), 0.9999999,
     r"edge \[0, 1\] has length 1\.0000000005\d*, above the threshold"),
], ids=["zd2-net", "f2-ball", "h2"])
def test_graph_file_edge_longer_than_its_threshold_is_a_schema_error(
        make, threshold, message):
    """An edge more than 1e-9 longer than the file's threshold."""
    graph = build_graph(make())
    doc = json.loads(json.dumps(graph.to_json()))
    doc["threshold"] = threshold
    with pytest.raises(SchemaError, match="^" + message):
        RoughGraph.from_json(doc)


def test_exports():
    g = build_graph(make_even_lattice(6))
    dot = to_dot(g)
    assert dot.startswith("graph rough {") and "v0 --" in dot or " -- " in dot
    assert '\\"model\\": \\"zd\\"' in dot or "model" in dot
    csv = edge_csv(g)
    lines = csv.strip().splitlines()
    assert lines[0] == "i,j,d"
    assert len(lines) - 1 == g.n_edges()
    stats = graph_stats(g)
    assert stats["vertices"] == g.n and stats["components"] == 1


def bfs_distances(g, source, max_nodes=None):
    """The vertex -> hops map of ``_bfs_arrays`` in discovery order, and the
    depth of its last layer."""
    ids, depths = _bfs_arrays(g, source, max_nodes)
    return dict(zip(ids.tolist(), depths.tolist())), int(depths[-1])


def test_bfs_distance_cap_keeps_exact_layers():
    g = build_graph(make_even_lattice(60))
    src = g.lattice.index_of((0,))
    full, _ = bfs_distances(g, src)
    capped, depth = bfs_distances(g, src, max_nodes=20)
    assert depth >= 1
    for v, d in capped.items():
        assert full[v] == d
    assert all(d <= depth for d in capped.values())


def test_implicit_cayley_graph_neighbors():
    cay = CayleyGraph(ZdModel(2))
    nbrs = sorted(cay.neighbors((0, 0)))
    assert nbrs == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    cay2 = CayleyGraph(ZdModel(1), threshold=2)
    assert sorted(cay2.neighbors((0,))) == [(-2,), (-1,), (1,), (2,)]


@pytest.mark.parametrize("space, threshold", [
    (ZdModel(2), 0), (FreeGroupModel(2), 0), (HeisenbergModel(), -2)])
def test_cayley_graph_threshold_below_one_is_a_domain_error(space, threshold):
    with pytest.raises(DomainError, match="threshold"):
        CayleyGraph(space, threshold)


@pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan])
def test_implicit_graph_threshold_that_is_not_finite_is_a_domain_error(
        threshold):
    """Not a bare ``OverflowError`` or ``ValueError`` from the int or floor
    of the threshold, nor from cosh past 710."""
    with pytest.raises(DomainError, match="threshold"):
        CayleyGraph(ZdModel(2), threshold)
    for t in (threshold, 1000.0):
        with pytest.raises(DomainError, match="threshold"):
            HorocyclicGraph(t)


def test_implicit_horocyclic_matches_rough_graph():
    hg = HorocyclicGraph()
    lat = horocyclic_lattice((-40.0, 40.0), (-3, 3))
    g = build_graph(lat)
    # near the window centre the windowed graph agrees with the infinite one
    for v in [(0, 0), (1, 0), (-2, 1), (5, -1)]:
        u, a = hg.point(v)
        i = lat.index_of((u, a))
        windowed = {g.point(j) for j in g.neighbors(i)}
        implicit = {hg.point(w) for w in hg.neighbors(v)}
        inside = {p for p in implicit if lat.contains_point(p)}
        assert windowed == inside

# ---------------------------------------------------------------------------
# graph walks against the oracles on random small graphs

UNREACHED = np.iinfo(np.int64).max


@st.composite
def small_graphs(draw, max_n=10, pairs_per_vertex=2):
    """A RoughGraph on n <= max_n vertices with arbitrary (possibly
    disconnected) edges, from up to ``pairs_per_vertex`` n drawn pairs.
    The points are Z^1 integers 0..n-1 in a permuted order inside
    BallWindow(n), so a point's slack is n minus its value and the
    threshold, from 0 to n + 1, makes anything from no vertex to every
    vertex a border vertex."""
    n = draw(st.integers(1, max_n))
    values = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=pairs_per_vertex * n))
    adjacency = [set() for _ in range(n)]
    for i, j in pairs:
        if i != j:
            adjacency[i].add(j)
            adjacency[j].add(i)
    lattice = QuasiLattice(space=ZdModel(1), window=BallWindow(n),
                           points=[(v,) for v in values], separation_delta=1.0,
                           density_radius_r=0.0, construction="test")
    return RoughGraph(lattice=lattice,
                      threshold=float(draw(st.integers(0, n + 1))),
                      adjacency=[sorted(a) for a in adjacency])


# at most one pair per vertex: isolated vertices (first, inside and last in
# id order, where CSR rows are empty) and edgeless graphs are common
SPARSE_GRAPHS = small_graphs(max_n=12, pairs_per_vertex=1)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(small_graphs() | SPARSE_GRAPHS)
def test_components_and_distances_match_oracle(g):
    table = distance_table(g)
    sizes, seen = [], set()
    for s in range(g.n):
        if s not in seen:
            component = set(np.flatnonzero(table[s] < UNREACHED).tolist())
            seen |= component
            sizes.append(len(component))
    assert component_sizes(g) == sizes
    for i in range(g.n):
        for j in range(g.n):
            if table[i, j] == UNREACHED:
                with pytest.raises(UnreachableError):
                    graph_distance(g, i, j)
            else:
                assert graph_distance(g, i, j) == table[i, j]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_graphs())
def test_bfs_distances_match_oracle_order_and_cap(g):
    for source in range(g.n):
        fifo = list(graph_distances_from(g, source).items())
        dist, depth = bfs_distances(g, source)
        assert list(dist.items()) == fifo
        assert depth == max(d for _, d in fifo)
        for cap in range(g.n + 1):
            # stop after the first complete layer whose running count
            # exceeds the cap, or at the last layer
            stop = next((k for k in range(depth + 1)
                         if sum(d <= k for _, d in fifo) > cap), depth)
            capped, capped_depth = bfs_distances(g, source, max_nodes=cap)
            assert capped_depth == stop
            assert list(capped.items()) == [(v, d) for v, d in fifo
                                            if d <= stop]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(small_graphs() | SPARSE_GRAPHS)
def test_border_depths_match_oracle(g):
    border = g.border_vertices()
    depths = g.border_depths()
    assert depths.dtype == np.int64
    # a vertex that reaches no border vertex, as on a graph with no border,
    # reads UNREACHED
    expected = distance_table(g)[border].min(axis=0, initial=UNREACHED)
    assert depths.tolist() == expected.tolist()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_graphs())
def test_graph_ball_sizes_match_oracle(g):
    depths = g.border_depths()
    for x0 in range(g.n):
        for m_max in range(4):
            # a component without border vertices (depth UNREACHED) is
            # never cut
            if m_max <= depths[x0]:
                assert ball_sizes(g, x0, m_max).values == \
                    naive_ball_sizes(g, x0, m_max)
            else:
                with pytest.raises(BorderError):
                    ball_sizes(g, x0, m_max)


def test_vertices_that_reach_no_border_are_never_cut():
    # Z^1 ball 10 at threshold 1 less the edges (-3, -2) and (2, 3): the
    # path -2..2 reaches no border vertex
    g = build_graph(group_ball_lattice(ZdModel(1), 10), threshold=1.0)
    idx = {p: i for i, p in enumerate(g.lattice.points)}
    cut = [{idx[(-3,)], idx[(-2,)]}, {idx[(2,)], idx[(3,)]}]
    doc = g.to_json()
    doc["edges"] = [e for e in doc["edges"] if set(e) not in cut]
    h, o = RoughGraph.from_json(doc), idx[(0,)]
    assert h.border_depths()[o] == UNREACHED
    assert ball_sizes(h, o, 3).values == (1, 3, 5, 5)
    assert c_boundary(h, [o], 1) == sorted(idx[(v,)] for v in (-1, 0, 1))
    report = folner_scan(h, 1, "metric_balls", 1e-9, [0, 1, 2, 3], center=o)
    assert report.entries == (("ball:0", 1, 3, 3.0), ("ball:1", 3, 4, 4 / 3),
                              ("ball:2", 5, 0, 0.0))


# ---------------------------------------------------------------------------
# the array walk and the engine boundary against the set walk and the oracles


@settings(derandomize=True, max_examples=120, deadline=None)
@given(small_graphs() | SPARSE_GRAPHS, st.data())
def test_csr_layers_match_bfs_layers(g, data):
    """Layer by layer and in order, from unsorted, repeated or no sources."""
    indptr, indices = g.csr()
    assert g.csr()[1] is indices
    assert indptr.dtype == indices.dtype == np.int32
    assert not (indptr.flags.writeable or indices.flags.writeable)
    assert [indices[indptr[v]:indptr[v + 1]].tolist()
            for v in range(g.n)] == g.adjacency
    sources = data.draw(st.lists(st.integers(0, g.n - 1), max_size=6))
    assert [layer.tolist() for layer in csr_layers(indptr, indices, sources)] \
        == list(bfs_layers(g.neighbors, sources))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(SPARSE_GRAPHS, st.integers(1, 3), st.data())
def test_c_boundary_matches_literal_on_sparse_graphs(g, c, data):
    # threshold 0 leaves no border vertex, so every set may be scored
    g = RoughGraph(lattice=g.lattice, threshold=0.0, adjacency=g.adjacency)
    A = data.draw(st.sets(st.integers(0, g.n - 1)))
    assert c_boundary(g, A, c) == literal_c_boundary(g, A, c)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(SPARSE_GRAPHS, st.integers(1, 2))
def test_greedy_scan_matches_reference_on_sparse_graphs(g, c):
    g = RoughGraph(lattice=g.lattice, threshold=0.0, adjacency=g.adjacency)
    schedule = range(0, 4)
    report = folner_scan(g, c, "greedy_improved", 0.0, schedule)
    assert list(report.entries) == reference_greedy_scan(g, c, schedule)
