import json
import math

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
    HOROCYCLIC_SEPARATION,
    HorocyclicGraph,
    QuasiLattice,
    RoughGraph,
    ZdModel,
    ball_sizes,
    build_graph,
    certify_qi,
    default_threshold,
    edge_csv,
    graph_distance,
    graph_stats,
    group_ball_lattice,
    horocyclic_lattice,
    to_dot,
    word_ball,
)
from roughcayley.errors import (
    BorderError,
    DisconnectedGraphError,
    UnreachableError,
)
from roughcayley.graphs import bfs_distances, component_sizes

from conftest import make_even_lattice
from oracles import distance_table, graph_distances_from, naive_ball_sizes


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
def small_graphs(draw):
    """A RoughGraph on n <= 10 vertices with arbitrary (possibly
    disconnected) edges.  The points are Z^1 integers 0..n-1 in a permuted
    order inside BallWindow(n), so a point's slack is n minus its value and
    the threshold, from 0 to n + 1, makes anything from no vertex to every
    vertex a border vertex."""
    n = draw(st.integers(1, 10))
    values = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_graphs())
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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_graphs())
def test_border_depths_match_oracle(g):
    border = g.border_vertices()
    depths = g.border_depths()
    assert depths.dtype == np.int64
    if border:
        nearest = distance_table(g)[border].min(axis=0)
        expected = np.where(nearest == UNREACHED, -1, nearest)
    else:
        expected = np.full(g.n, UNREACHED)
    assert depths.tolist() == expected.tolist()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_graphs())
def test_graph_ball_sizes_match_oracle(g):
    depths = g.border_depths()
    for x0 in range(g.n):
        for m_max in range(4):
            # a component without border vertices (depth -1) is never cut
            if depths[x0] < 0 or m_max <= depths[x0]:
                assert ball_sizes(g, x0, m_max).values == \
                    naive_ball_sizes(g, x0, m_max)
            else:
                with pytest.raises(BorderError):
                    ball_sizes(g, x0, m_max)
