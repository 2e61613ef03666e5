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
    QuasiLattice,
    RoughGraph,
    ZdModel,
    build_graph,
    certify_qi,
    greedy_net,
    group_ball_lattice,
    horocyclic_lattice,
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
