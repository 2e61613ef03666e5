"""The validation boundary: every point a caller hands to the library is
checked once, with the model's own exception, while library loops over
trusted points (lattice points, computed products) run unchecked."""

import pytest

from roughcayley import (
    BallWindow,
    BoxWindow,
    CayleyGraph,
    EuclideanModel,
    FreeGroupModel,
    HeisenbergModel,
    HyperbolicPlaneModel,
    NearestIndex,
    QuasiAction,
    QuasiLattice,
    RoughGraph,
    ZdModel,
    build_graph,
    certify_axioms,
    certify_qi,
    greedy_net,
    group_ball_lattice,
    horocyclic_lattice,
    orbit_map_qi,
    quasi_action,
    quasi_conjugacy_defect,
)
from roughcayley.errors import (
    DomainError,
    ModelMismatchError,
    UnsupportedOperationError,
)

# (model, a valid point, a malformed point, the error it raises)
MODELS = [
    (ZdModel(2), (1, -2), (1, 2, 3), ModelMismatchError),
    (FreeGroupModel(2), (1, 2), (1, -1), DomainError),
    (HeisenbergModel(), (1, 2, -3), (1, 2), ModelMismatchError),
    (EuclideanModel(2, additive_group=True), (0.5, 1.0), (0.5,),
     ModelMismatchError),
    (HyperbolicPlaneModel(), (0.5, 2.0), (0.5, -1.0), DomainError),
]
IDS = [m[0].model_id for m in MODELS]


def small_lattice(space):
    if isinstance(space, ZdModel):
        return greedy_net(space, BallWindow(6), 2.0)
    if isinstance(space, EuclideanModel):
        return greedy_net(space, BoxWindow((-3.0, -3.0), (3.0, 3.0), 0.5), 1.0)
    if isinstance(space, HyperbolicPlaneModel):
        return horocyclic_lattice((-4.0, 4.0), (-1, 1))
    return group_ball_lattice(space, 3)


@pytest.mark.parametrize("space,good,bad,exc", MODELS, ids=IDS)
def test_public_methods_reject_malformed_points(space, good, bad, exc):
    for call in (lambda: space.distance(bad, good),
                 lambda: space.distance(good, bad),
                 lambda: space.multiply(bad, good),
                 lambda: space.multiply(good, bad),
                 lambda: space.inverse(bad),
                 lambda: space.coarse_geodesic(bad, good),
                 lambda: space.coarse_geodesic(good, bad)):
        with pytest.raises(exc):
            call()
    # the valid point passes every public method
    space.distance(good, good)
    space.inverse(space.multiply(good, good))


def test_group_error_precedes_point_check():
    e2 = EuclideanModel(2)
    for call in (lambda: e2.multiply((0.0,), (1.0, 1.0)),
                 lambda: e2.inverse((0.0,)),
                 lambda: e2.identity()):
        with pytest.raises(UnsupportedOperationError):
            call()


@pytest.mark.parametrize("space,good,bad,exc", MODELS, ids=IDS)
def test_quasi_lattice_rejects_malformed_point_at_construction(space, good,
                                                               bad, exc):
    lat = small_lattice(space)
    with pytest.raises(exc):
        QuasiLattice(space=space, window=lat.window,
                     points=lat.points[:3] + [bad],
                     separation_delta=lat.separation_delta,
                     density_radius_r=lat.density_radius_r,
                     construction="greedy")


@pytest.mark.parametrize("space,good,bad,exc", MODELS, ids=IDS)
def test_nearest_index_rejects_malformed_query(space, good, bad, exc):
    index = NearestIndex(small_lattice(space))
    with pytest.raises(exc):
        index(bad)


@pytest.mark.parametrize("space,good,bad,exc", MODELS[:3], ids=IDS[:3])
def test_cayley_graph_rejects_malformed_vertex(space, good, bad, exc):
    graph = CayleyGraph(space)
    assert len(graph.neighbors(good)) == len(space.generators())
    with pytest.raises(exc):
        graph.neighbors(bad)


@pytest.mark.parametrize("space,good,bad,exc", MODELS, ids=IDS)
def test_greedy_net_rejects_malformed_candidate(space, good, bad, exc):
    lat = small_lattice(space)
    with pytest.raises(exc):
        greedy_net(space, lat.window, 1.0,
                   enumeration=lat.points[:3] + [bad])


def test_rough_graph_from_json_rejects_unreduced_word():
    obj = build_graph(group_ball_lattice(FreeGroupModel(2), 2)).to_json()
    RoughGraph.from_json(obj)
    obj["lattice"]["points"][-1]["w"] = [1, -1]
    with pytest.raises(DomainError):
        RoughGraph.from_json(obj)


def test_graph_and_certifier_check_each_point_once(monkeypatch):
    """Building and certifying the F2 ball-9 graph validates each lattice
    point once, at lattice construction, not once per distance or product."""
    f2 = FreeGroupModel(2)
    check = FreeGroupModel.check_point
    calls = [0]

    def counted(self, x):
        calls[0] += 1
        return check(self, x)

    monkeypatch.setattr(FreeGroupModel, "check_point", counted)
    n_sources = 50
    lat = group_ball_lattice(f2, 9)
    certify_qi(build_graph(lat), n_sources=n_sources, seed=0)
    assert calls[0] <= len(lat) + n_sources


def test_quasi_action_certifiers_check_each_query_once(monkeypatch):
    """Certifying the axioms and the orbit map of a Z^2 net validates each
    distinct nearest-point query once, plus one psi(x) per distinct lattice
    point x of each batch; loops over the public ``act`` validated every
    product and psi(x) on every call (about 400k calls on the Z^2 ball-80
    net at group radius 8)."""
    z2 = ZdModel(2)
    qa = quasi_action(z2, greedy_net(z2, BallWindow(60), 3.0))
    calls, targets, queries = [0], [0], set()
    check = ZdModel.check_point
    nearest = NearestIndex.__call__
    act_many = QuasiAction.act_many

    def counted_check(self, x):
        calls[0] += 1
        return check(self, x)

    def recorded_nearest(self, q):
        queries.add(q)
        return nearest(self, q)

    def counted_act_many(self, S, X):
        targets[0] += len(set(map(tuple, X.tolist())))
        return act_many(self, S, X)

    monkeypatch.setattr(ZdModel, "check_point", counted_check)
    monkeypatch.setattr(NearestIndex, "__call__", recorded_nearest)
    monkeypatch.setattr(QuasiAction, "act_many", counted_act_many)
    certify_axioms(qa, group_radius=6, seed=0)
    orbit_map_qi(qa, radii=(5, 10), seed=0)
    assert calls[0] <= len(queries) + targets[0]
    assert targets[0] < len(qa.lattice)


@pytest.mark.parametrize("x0", [(1.5, 0), (1, 0, 0), [0, 0]])
def test_orbit_map_rejects_malformed_base_point(x0):
    """A caller's base point is checked before it becomes an int64 row, so
    a float is not truncated to a lattice point."""
    z2 = ZdModel(2)
    qa = quasi_action(z2, greedy_net(z2, BallWindow(20), 2.0))
    with pytest.raises(ModelMismatchError):
        orbit_map_qi(qa, x0=x0, radii=(2,))


def test_batched_maps_check_their_results():
    """Results of a caller's phi12, and of a quasi-action's own phi and
    psi, are checked before they enter a point array."""
    z2 = ZdModel(2)
    lat = greedy_net(z2, BallWindow(30), 2.0)
    qa = quasi_action(z2, lat)
    with pytest.raises(ModelMismatchError):
        quasi_conjugacy_defect(qa, qa, phi12=lambda x: (x[0] + 0.5, x[1]),
                               group_radius=2, n_targets=2)
    nearest = qa.phi
    for phi, psi in ((lambda g: (*nearest(g), 0), qa.psi),
                     (nearest, lambda x: (float(x[0]), x[1]))):
        bad = QuasiAction(z2, lat, phi, psi)
        with pytest.raises(ModelMismatchError):
            bad.act_many(z2.coords([(1, 0)]), z2.coords([lat.points[0]]))
    # the public act raises the same way
    with pytest.raises(ModelMismatchError):
        QuasiAction(z2, lat, nearest, lambda x: (float(x[0]), x[1])).act(
            (1, 0), lat.points[0])
