import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughcayley import (
    BallWindow,
    BoxWindow,
    EuclideanModel,
    FreeGroupModel,
    H2Window,
    HOROCYCLIC_SEPARATION,
    HeisenbergModel,
    HyperbolicPlaneModel,
    MultiplicityProfile,
    QuasiLattice,
    SpaceModel,
    ZdModel,
    greedy_net,
    group_ball_lattice,
    horocyclic_lattice,
    sample_probes,
    verify_quasilattice,
)
from roughcayley.errors import (
    BorderError,
    DomainError,
    ModelMismatchError,
    SchemaError,
    WindowTooSmallError,
)

from conftest import make_even_lattice
from oracles import (
    bfs_ball_depths,
    first_copy_greedy_net,
    free_reduce,
    literal_quasilattice_certificate,
    pairwise_min_distance,
    scalar_greedy_net,
    shortlex_ball,
)


def test_greedy_on_explicit_enumeration():
    z1 = ZdModel(1)
    order = [(0,)]
    for k in range(1, 6):
        order += [(k,), (-k,)]
    net = greedy_net(z1, BallWindow(5), 2.0, enumeration=order)
    assert net.points == [(0,), (2,), (-2,), (4,), (-4,)]
    assert net.density_radius_r == 2.0


def test_greedy_net_rejects_an_enumerated_point_that_is_not_finite():
    """A NaN point of a caller's enumeration used to be kept, with NumPy
    cast warnings."""
    e2 = EuclideanModel(2)
    with pytest.raises(DomainError, match=r"^\(nan, 0\.0\) has a "):
        greedy_net(e2, BoxWindow((0.0, 0.0), (3.0, 3.0), 1.0), 1.0,
                   enumeration=[(0.0, 0.0), (math.nan, 0.0), (2.0, 0.0)])


def test_greedy_unit_grid_keeps_everything():
    e2 = EuclideanModel(2)
    window = BoxWindow((0.0, 0.0), (9.0, 9.0), 1.0)
    net = greedy_net(e2, window, 1.0)
    assert len(net) == 100


def test_greedy_hyperbolic_separated_and_dense():
    h2 = HyperbolicPlaneModel()
    window = H2Window(-5.0, 5.0, -2.0, 2.0, 0.25)
    net = greedy_net(h2, window, 0.5)
    assert pairwise_min_distance(h2, net.points) >= 0.5 - 1e-9
    for p in h2.enumerate_window(window):
        d = h2.distances_from(p, net.points).min()
        assert d <= 0.5 + 1e-9


@pytest.mark.parametrize("space,window,delta", [
    (HeisenbergModel(), BallWindow(5), 2.0),
    (HeisenbergModel(), BallWindow(6), 3.0),
    (HyperbolicPlaneModel(), H2Window(-5.0, 5.0, -2.0, 2.0, 0.25), 0.5),
    (ZdModel(2), BallWindow(15), 3.0),
    (ZdModel(3), BallWindow(7), 2.0),
    # grid points on the cell boundaries (multiples of delta), on both
    # sides of zero, and distances tied exactly at delta
    (EuclideanModel(2), BoxWindow((-3.0, -3.0), (3.0, 3.0), 0.5), 1.5),
    (EuclideanModel(2), BoxWindow((-3.0, -2.0), (3.0, 2.5), 0.25), 1.0),
])
def test_greedy_matches_plain_scalar_scan(space, window, delta):
    # the conflict pass keeps exactly the points a scalar scan keeps
    chosen = scalar_greedy_net(space, space.enumerate_window(window), delta)
    assert greedy_net(space, window, delta).points == chosen


# one small window per model, and a separation with ties at delta
NET_CASES = [
    (ZdModel(2), BallWindow(6), 2.0),
    (HeisenbergModel(), BallWindow(3), 2.0),
    (FreeGroupModel(2), BallWindow(3), 2.0),
    (EuclideanModel(2), BoxWindow((-2.0, -2.0), (2.0, 1.5), 0.5), 1.0),
    (HyperbolicPlaneModel(), H2Window(-2.0, 2.0, -1.0, 1.0, 0.25), 0.5),
]


@pytest.mark.parametrize("space,window,delta", [
    case for case in NET_CASES if case[0].tag != "euclidean"])
def test_greedy_keeps_the_first_copy_of_a_repeated_point(space, window,
                                                         delta):
    # a group ball pairs no point with a copy of itself; each later copy
    # must still be dropped, and block no point the first copy does not
    points = space.enumerate_window(window)
    for enumeration in (points[:10] + points, points + points[::3]):
        net = greedy_net(space, window, delta, enumeration=enumeration)
        assert net.points == scalar_greedy_net(space, enumeration, delta)
        assert net.certificates["n_candidates"] == len(enumeration)
    net = greedy_net(space, window, delta, enumeration=[])
    assert net.points == [] and net.certificates["vacuous"] is True


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(NET_CASES), st.randoms(use_true_random=False),
       st.integers(0, 40))
def test_greedy_matches_scalar_scan_on_shuffled_repeats(case, rnd, n_repeats):
    space, window, delta = case
    enumeration = space.enumerate_window(window)
    enumeration += [rnd.choice(enumeration) for _ in range(n_repeats)]
    rnd.shuffle(enumeration)
    net = greedy_net(space, window, delta, enumeration=enumeration)
    assert net.points == scalar_greedy_net(space, enumeration, delta)


@pytest.mark.parametrize("space,window,delta,enumeration", [
    (ZdModel(2), BallWindow(4), 2.0,
     [(0, 0), (1, 0), (0, 0), (2, 1), (1, 0), (-3, 1), (2, 1), (0, 2)]),
    # words of different lengths, so the rows are zero-padded
    (FreeGroupModel(2), BallWindow(4), 2.0,
     [(1,), (1, 2, 1), (), (1,), (-2, -1), (1, 2, 1), (2,), (), (-2, -1)]),
    (EuclideanModel(2), BoxWindow((-2.0, -2.0), (2.0, 2.0), 0.5), 0.7,
     [(-0.0, 0.0), (0.0, 0.0), (0, 1), (0.0, -0.0), (0.0, 1.0), (1.0, -0.0),
      (-0.0, 1.0), (1.0, 0.0), (-1.5, 0.5)]),
    (HyperbolicPlaneModel(), H2Window(-2.0, 2.0, -1.0, 1.0, 0.25), 0.5,
     [(0.0, 1.0), (-0.0, 1.0), (-0.0, 2.0), (0.0, 2.0), (1.0, 1.0),
      (0.0, 1.0), (-0.0, 0.5)]),
], ids=["zd2", "f2-padded", "e2-signed-zero", "h2-signed-zero"])
def test_greedy_net_drops_repeats_as_a_tuple_dict(space, window, delta,
                                                  enumeration):
    """A repeated point counts at its first copy, as under ``dict.fromkeys``
    over the tuples: -0.0 and 0.0 are one coordinate, and the copy kept is
    the first, sign of zero and all."""
    net = greedy_net(space, window, delta, enumeration=enumeration)
    assert repr(net.points) == repr(first_copy_greedy_net(space, enumeration,
                                                          delta))
    assert net.certificates["n_candidates"] == len(enumeration)


def test_greedy_is_deterministic():
    z2 = ZdModel(2)
    a = greedy_net(z2, BallWindow(12), 3.0)
    b = greedy_net(z2, BallWindow(12), 3.0)
    assert a.points == b.points


def test_greedy_maximality():
    z2 = ZdModel(2)
    net = greedy_net(z2, BallWindow(8), 2.0)
    chosen = set(net.points)
    for p in z2.enumerate_window(BallWindow(8)):
        if p not in chosen:
            assert min(z2.distance(p, q) for q in net.points) < 2.0


def test_greedy_rejects_nonpositive_delta():
    with pytest.raises(DomainError):
        greedy_net(ZdModel(1), BallWindow(3), 0.0)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_greedy_rejects_a_delta_that_is_not_finite(delta):
    """No separation is a NaN, and an infinite one would keep one point
    whose certificate no lattice file can hold."""
    with pytest.raises(DomainError, match="finite number > 0"):
        greedy_net(ZdModel(2), BallWindow(10), delta)


def test_horocyclic_level_zero_points():
    lat = horocyclic_lattice((-2.0, 2.0), (0, 0))
    assert lat.points == [(-2.0, 1.0), (-1.0, 1.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]


def test_horocyclic_separation_constant():
    lat = horocyclic_lattice((-8.0, 8.0), (-2, 2))
    h2 = lat.space
    observed = pairwise_min_distance(h2, lat.points)
    assert abs(observed - HOROCYCLIC_SEPARATION) <= 1e-9
    assert abs(lat.separation_delta - observed) <= 1e-9


def test_horocyclic_density_on_probes():
    lat = horocyclic_lattice((-20.0, 20.0), (-3, 3))
    probes = sample_probes(lat.space, lat.window, 200, 1.2, seed=42)
    cert, profile = verify_quasilattice(lat, probes, [1.0], seed=42)
    assert cert["max_min_distance"] <= 1.07
    assert profile.at(1.0) <= 24


@pytest.mark.parametrize("make", [
    lambda: greedy_net(ZdModel(2), BallWindow(30), 3.0),
    lambda: horocyclic_lattice((-20.0, 20.0), (-3, 3)),
], ids=["zd2_net", "h2_horocyclic"])
def test_verify_quasilattice_converts_the_lattice_once(monkeypatch, make):
    lat = make()
    coords = SpaceModel.coords
    calls = [0]

    def counted(self, points):
        calls[0] += points is lat.points
        return coords(self, points)

    monkeypatch.setattr(SpaceModel, "coords", counted)
    probes = sample_probes(lat.space, lat.window, 50, 1.2, seed=3)
    verify_quasilattice(lat, probes, [1.0], seed=3)
    for p in probes[:5]:
        lat.nearest(p)
    assert calls[0] == 1


def test_free_group_queries_check_no_lattice_point(monkeypatch):
    """Nearest-point queries and density probes on a free-group lattice
    measure distances to its trusted points by array, unchecked."""
    f2 = FreeGroupModel(2)
    lat = group_ball_lattice(f2, 6)
    probes = sample_probes(f2, lat.window, 20, 2.0, seed=4)
    checked = []
    check = FreeGroupModel.check_point
    monkeypatch.setattr(FreeGroupModel, "check_point",
                        lambda self, x: checked.append(x) or check(self, x))
    assert lat.nearest((1, 2, 1, 2, 1, 2, 1)) == \
        (lat.index_of((1, 2, 1, 2, 1, 2)), 1.0)
    cert, profile = verify_quasilattice(lat, probes, [1.0, 2.0], seed=4)
    assert cert["max_min_distance"] == 0.0 and profile.at(1.0) == 5
    assert not set(checked) & set(lat.points)


def test_probes_equal_to_lattice_points_are_not_checked():
    """A probe equal to a lattice point passes as it is, even written in
    floats; every other probe is checked, and the first bad one raises."""
    lat = group_ball_lattice(ZdModel(2), 6)
    cert, _ = verify_quasilattice(lat, [(1.0, 0), (0, 2)], [1.0])
    assert cert["max_min_distance"] == 0.0
    with pytest.raises(ModelMismatchError, match=r"^\(0\.5, 0\) is not a"):
        verify_quasilattice(lat, [(1.0, 0), (0.5, 0), (0, 9, 9)], [1.0])


@pytest.mark.parametrize("space", [ZdModel(2), FreeGroupModel(2)],
                         ids=["zd2", "free2"])
def test_verify_empty_lattice_has_no_nearby_point(space):
    lat = QuasiLattice(space, BallWindow(4), [], 1.0, 1.0, "greedy")
    cert, profile = verify_quasilattice(lat, [space.base_point], [1.0])
    assert cert["max_min_distance"] == math.inf
    assert profile.at(1.0) == 0


def test_verify_even_lattice_multiplicity():
    lat = make_even_lattice(10)
    probes = [(k,) for k in range(-8, 9)]
    cert, profile = verify_quasilattice(lat, probes, [2.0])
    # closed neighborhoods: an even probe k sees k-2, k, k+2; an odd one two
    assert profile.at(2.0) == 3
    assert cert["max_min_distance"] == 1.0
    _, odd_profile = verify_quasilattice(
        lat, [(k,) for k in range(-7, 8, 2)], [2.0])
    assert odd_profile.at(2.0) == 2


def test_verify_vacuous_and_border():
    lat = make_even_lattice(10)
    cert, profile = verify_quasilattice(lat, [], [1.0])
    assert cert["vacuous"] is True
    with pytest.raises(BorderError):
        verify_quasilattice(lat, [(10,)], [2.0])


def test_multiplicity_profile_monotone():
    lat = make_even_lattice(20)
    probes = [(k,) for k in range(-10, 11)]
    _, profile = verify_quasilattice(lat, probes, [1.0, 3.0, 5.0])
    ms = [m for _, m in profile.entries]
    assert ms == sorted(ms)
    with pytest.raises(DomainError):
        MultiplicityProfile(((1.0, 5), (2.0, 3)))


def test_group_ball_lattice_counts():
    z2 = ZdModel(2)
    lat = group_ball_lattice(z2, 8)
    assert lat.density_radius_r == 0.0
    interior = [p for p in lat.points if z2.boundary_slack(lat.window, p) >= 3]
    _, profile = verify_quasilattice(lat, interior, [1.0, 2.0, 3.0])
    for r in (1, 2, 3):
        assert profile.at(float(r)) == len(z2.enumerate_window(BallWindow(r)))


def test_greedy_density_certificate_below_delta():
    z2 = ZdModel(2)
    net = greedy_net(z2, BallWindow(10), 3.0)
    cert, _ = verify_quasilattice(net, z2.enumerate_window(BallWindow(10)), [])
    assert cert["max_min_distance"] <= net.separation_delta


def test_lattice_json_roundtrip():
    lat = horocyclic_lattice((-5.0, 5.0), (-1, 1))
    text = json.dumps(lat.to_json())
    back = QuasiLattice.from_json(json.loads(text))
    assert back.points == lat.points
    assert back.window == lat.window
    assert back.construction == "horocyclic"
    assert back.space == lat.space


@pytest.mark.parametrize("space,point", [
    (ZdModel(2), [2 ** 63, 0]), (ZdModel(2), [0, -2 ** 63 - 1]),
    (HeisenbergModel(), [0, 0, 2 ** 64])], ids=["zd-up", "zd-down", "heis"])
def test_lattice_file_coordinate_outside_int64_is_a_schema_error(space,
                                                                 point):
    """Only an int64 holds a point array row; 2^63 - 1 and -2^63 load."""
    doc = json.loads(json.dumps(group_ball_lattice(space, 2).to_json()))
    doc["points"][1]["x"] = point
    with pytest.raises(SchemaError, match="^a point coordinate is outside "
                                          "the range of int64$"):
        QuasiLattice.from_json(doc)
    doc["points"][1]["x"] = [2 ** 63 - 1] + [-2 ** 63] * (len(point) - 1)
    assert QuasiLattice.from_json(doc).coords()[1, 0] == 2 ** 63 - 1


def test_sample_probes_seeded():
    h2 = HyperbolicPlaneModel()
    w = H2Window(-20.0, 20.0, -3.0, 3.0)
    a = sample_probes(h2, w, 50, 1.2, seed=9)
    b = sample_probes(h2, w, 50, 1.2, seed=9)
    assert a == b
    assert all(h2.boundary_slack(w, p) >= 1.2 - 1e-9 for p in a)


def test_sample_probes_rejects_an_h2_window_too_narrow_at_every_height():
    """At the lowest admissible height the pad e^0.5 sinh(0.5) ~ 0.86
    already exceeds the u half-width 0.1, and the pad grows with the
    height: every draw was rejected, and the loop never ended."""
    with pytest.raises(WindowTooSmallError, match="u range"):
        sample_probes(HyperbolicPlaneModel(), H2Window(-0.1, 0.1, 0.0, 2.0),
                      3, 0.5, 0)


def test_sample_probes_rejects_an_h2_margin_whose_pad_overflows():
    """A log a range wider than twice the margin lets sinh(800) be
    reached; it overflows, and no probe could be placed."""
    with pytest.raises(DomainError, match="margin 800"):
        sample_probes(HyperbolicPlaneModel(),
                      H2Window(-1.0, 1.0, -1000.0, 1000.0), 3, 800.0, 0)


def test_nearest_lexicographic_tie():
    lat = make_even_lattice(10)
    idx, dist = lat.nearest((3,))
    assert lat.points[idx] == (2,) and dist == 1.0


def _ball_case(data, space, radius, lattice_radius):
    """A lattice in BallWindow(radius): a greedy net, the group ball or a
    sublist (repeats allowed) of N_lattice_radius(e); probes from the ball
    the multiplicity radii leave, and lattice points among them."""
    window = BallWindow(radius)
    kind = data.draw(st.sampled_from(["greedy", "ball", "sublist"]))
    if kind == "greedy":
        lat = greedy_net(space, window,
                         data.draw(st.sampled_from([1.0, 2.0, 3.0])))
    elif kind == "ball":
        lat = group_ball_lattice(space, radius)
    else:
        pool = space.enumerate_window(BallWindow(lattice_radius))
        lat = QuasiLattice(space, window, data.draw(st.lists(
            st.sampled_from(pool), max_size=40)), 1.0, 1.0, "greedy")
    r_list = data.draw(st.lists(st.sampled_from(
        [r for r in [0.0, 0.5, 1.0, 2.0, 3.0] if r <= radius]), max_size=3))
    inner = space.enumerate_window(
        BallWindow(int(radius - max(r_list, default=0.0))))
    probes = data.draw(st.lists(st.sampled_from(inner), min_size=1,
                                max_size=30))
    return lat, probes, r_list


def _exactness_case(data, model):
    if model == "zd":
        d = data.draw(st.integers(1, 3))
        return _ball_case(data, ZdModel(d), 8 - 2 * d, 6 - 2 * d)
    if model == "heisenberg":
        return _ball_case(data, HeisenbergModel(), 4, 3)
    if model == "free":
        # probe words may be longer than every lattice word
        return _ball_case(data, FreeGroupModel(2), 5, 2)
    r_list = data.draw(st.lists(st.sampled_from([0.5, 1.0, 1.5]),
                                max_size=3))
    margin = max(r_list, default=0.0)
    if model == "r2":
        space = EuclideanModel(2)
        window = BoxWindow((-3.0, -3.0), (3.0, 3.0), 0.5)
        lat = greedy_net(space, window, data.draw(
            st.sampled_from([0.5, 1.0, 1.3, 2.0])))
        coord = st.floats(-3.0 + margin, 3.0 - margin)
        probes = data.draw(st.lists(st.tuples(coord, coord), max_size=20))
    else:
        if data.draw(st.booleans()):
            lat = horocyclic_lattice((-6.0, 6.0), (-2, 2))
        else:
            lat = greedy_net(HyperbolicPlaneModel(),
                             H2Window(-3.0, 3.0, -1.5, 1.5, 0.5), 0.8)
        space, window = lat.space, lat.window
        probes = sample_probes(space, window, data.draw(st.integers(0, 20)),
                               margin, data.draw(st.integers(0, 99)))
    probes += [p for p in data.draw(st.lists(st.sampled_from(lat.points),
                                             max_size=5))
               if space.boundary_slack(window, p) >= margin]
    return lat, probes, r_list


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(),
       model=st.sampled_from(["zd", "r2", "h2", "heisenberg", "free"]))
def test_verify_quasilattice_matches_the_full_scan_oracle(data, model):
    """The candidate pass gives the certificate and profile of one full
    scan per probe, float for float, also where the lattice lists points
    twice, and whatever density radius r it claims: r = 0 sends probes to
    the full scan, 1e9 and inf scan every probe in full."""
    lat, probes, r_list = _exactness_case(data, model)
    r = data.draw(st.sampled_from([lat.density_radius_r, 0.0, 1e9, math.inf]))
    # a lattice file may list a point twice
    twice = data.draw(st.lists(st.sampled_from(lat.points), max_size=8)
                      if lat.points else st.just([]))
    lat = QuasiLattice(lat.space, lat.window, lat.points + twice,
                       lat.separation_delta, r, lat.construction)
    if data.draw(st.booleans()):
        probes = probes + probes[:3]
    cert, profile = verify_quasilattice(lat, probes, r_list, seed=7)
    want, want_profile = literal_quasilattice_certificate(lat, probes, r_list,
                                                          seed=7)
    assert repr(cert) == repr(want)
    assert repr(profile.entries) == repr(want_profile.entries)


@pytest.mark.parametrize("space,probe,error", [
    (ZdModel(2), (1.5, 2.7), ModelMismatchError),
    (ZdModel(2), (1, 2, 3), ModelMismatchError),
    (HyperbolicPlaneModel(), (0.0, -1.0), DomainError),
    (HyperbolicPlaneModel(), (0.0, 0.0), DomainError),
], ids=["zd2-float", "zd2-dimension", "h2-negative-a", "h2-zero-a"])
def test_verify_quasilattice_checks_probes(space, probe, error):
    """A probe that is no point of the model raises the model's error,
    where an unchecked Z^2 probe (1.5, 2.7) would be cast to (1, 2)."""
    if space.tag == "h2":
        lat = horocyclic_lattice((-6.0, 6.0), (-2, 2))
    else:
        lat = greedy_net(space, BallWindow(10), 2.0)
    with pytest.raises(error):
        verify_quasilattice(lat, [space.base_point, probe], [1.0])


@pytest.mark.parametrize("r_list", [[math.nan], [1.0, math.nan], [math.inf],
                                    [-math.inf, 1.0]])
def test_verify_quasilattice_rejects_a_radius_that_is_not_finite(r_list):
    lat = make_even_lattice(10)
    with pytest.raises(DomainError, match="multiplicity radius"):
        verify_quasilattice(lat, [(0,)], r_list)


@pytest.mark.parametrize("r_list", [[-1.0], [-0.5, 1.0]])
def test_verify_quasilattice_rejects_a_negative_radius(r_list):
    """A count within a negative radius is 0 for every probe, so it would
    read like a measured multiplicity."""
    lat = make_even_lattice(10)
    with pytest.raises(DomainError, match="finite number >= 0"):
        verify_quasilattice(lat, [(0,)], r_list)


@pytest.mark.parametrize("space,radii", [
    (ZdModel(1), range(7)), (ZdModel(2), range(7)), (ZdModel(3), range(7)),
    (HeisenbergModel(), range(7)), (FreeGroupModel(1), range(7)),
    (FreeGroupModel(2), range(10)), (FreeGroupModel(3), range(7)),
], ids=["zd1", "zd2", "zd3", "heis", "f1", "f2", "f3"])
def test_word_ball_lattices_equal_the_tuple_enumeration(space, radii):
    """A word-ball lattice, built from the model's ball array, has the
    points of the tuple enumeration in order, value and type (Python
    ints), and that array is the enumeration's ``space.coords`` in dtype,
    shape and values.  The enumerations are the shortlex layers of a free
    group and the lexicographic order of the BFS ball elsewhere."""
    for r in radii:
        lat = group_ball_lattice(space, r)
        expected = (shortlex_ball(space, r) if space.tag == "free_group"
                    else sorted(bfs_ball_depths(space, r)))
        assert lat.points == expected
        assert {type(v) for p in lat.points for v in p} <= {int}
        want, got = space.coords(expected), lat.coords()
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.array_equal(got, want)


def _lookup_lattices():
    """Lattices whose lookups go by sorted int64 codes (integer
    coordinates, one with repeated points) or by the bytes of float rows
    plus 0, which keys -0.0 as 0.0."""
    z2, f2 = ZdModel(2), FreeGroupModel(2)
    net = greedy_net(z2, BallWindow(12), 3.0)
    ball = group_ball_lattice(f2, 3)
    return {
        "zd2-net": net,
        "zd2-repeats": QuasiLattice(z2, net.window,
                                    net.points + net.points[::3], 3.0, 3.0,
                                    "greedy"),
        "heis": group_ball_lattice(HeisenbergModel(), 3),
        "f2-ball": ball,
        "f2-repeats": QuasiLattice(f2, ball.window,
                                   ball.points[::-2] + ball.points, 1.0, 0.0,
                                   "group_ball"),
        "e2": greedy_net(EuclideanModel(2),
                         BoxWindow((-2.0, -2.0), (2.0, 2.0), 0.5), 1.0),
    }


_LOOKUP_LATTICES = _lookup_lattices()
_VALUE = (st.integers(-15, 15) | st.booleans()
          | st.sampled_from([1.0, -0.0, 0.5, 2 ** 70, math.nan, math.inf,
                             np.int64(3), np.float64(-2.0)]))


def _queries(lat):
    """Lattice points, near misses and malformed tuples: words longer than
    the lattice's, coordinates outside its column ranges, bool
    coordinates, floats equal to ints."""
    members = st.sampled_from(lat.points)
    if lat.space.tag == "free_group":
        words = st.lists(st.sampled_from([-2, -1, 1, 2]), max_size=6).map(
            free_reduce)
        return members | words | st.lists(_VALUE, max_size=5).map(tuple)
    d = lat.space.d
    return members | st.lists(_VALUE, min_size=d - 1, max_size=d + 1).map(
        tuple) | members.map(lambda p: (True,) + p[1:] if p[0] == 1 else
                             (float(p[0]),) + p[1:])


@pytest.mark.parametrize("name", sorted(_LOOKUP_LATTICES))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_point_lookup_matches_a_tuple_dict(name, data):
    """``index_of`` and ``contains_point`` answer as a dict of the points
    (the last copy of a repeated point) does, for members and for
    non-members, which raise ``KeyError``; so does the lookup of a list
    of queries in one pass, which ``verify_quasilattice`` makes."""
    lat = _LOOKUP_LATTICES[name]
    oracle = {p: i for i, p in enumerate(lat.points)}
    q = data.draw(_queries(lat))
    assert lat.contains_point(q) is (q in oracle)
    if q in oracle:
        assert lat.index_of(q) == oracle[q]
    else:
        with pytest.raises(KeyError):
            lat.index_of(q)
    qs = data.draw(st.lists(_queries(lat), max_size=6))
    assert lat._find(qs) == [oracle.get(p, -1) for p in qs]


def _fresh(lat):
    return QuasiLattice(lat.space, lat.window, list(lat.points),
                        lat.separation_delta, lat.density_radius_r,
                        lat.construction)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data(),
       model=st.sampled_from(["zd", "r2", "h2", "heisenberg", "free"]))
def test_kept_sides_answer_as_a_fresh_lattice(data, model):
    """A lattice keeps its side of the candidate pairs per reach: asked at
    two multiplicity reaches in either order, then for nearest points, then
    again, it answers as a fresh lattice of the same points answers each
    question on its own."""
    lat, probes, r_list = _exactness_case(data, model)
    if not lat.points or not probes:
        return
    lists = [r_list, r_list[:-1]]
    if data.draw(st.booleans()):
        lists.reverse()
    Q = lat.space.coords(probes)
    for r in lists + [None] + lists[:1]:
        if r is None:
            got, want = lat.nearest_many(Q), _fresh(lat).nearest_many(Q)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            continue
        got = verify_quasilattice(lat, probes, r, seed=3)
        want = verify_quasilattice(_fresh(lat), probes, r, seed=3)
        assert repr(got[0]) == repr(want[0])
        assert repr(got[1].entries) == repr(want[1].entries)


def test_two_lattices_never_share_a_side():
    """Two lattices asked at one reach each keep a side of their own points,
    whether built by the library or from a list."""
    z2 = ZdModel(2)
    a = greedy_net(z2, BallWindow(10), 3.0)
    b = greedy_net(z2, BallWindow(10), 3.0, enumeration=list(reversed(
        z2.enumerate_window(BallWindow(10)))))
    c = QuasiLattice(z2, a.window, a.points[::2], 3.0, 3.0, "greedy")
    Q = z2.coords(z2.enumerate_window(BallWindow(8)))
    answers = [lat.nearest_many(Q) for lat in (a, b, c)]
    assert "_sides" not in vars(QuasiLattice)
    assert len({id(lat._sides) for lat in (a, b, c)}) == 3
    assert all(list(lat._sides) == [3.0] for lat in (a, b, c))
    for lat, got in zip((a, b, c), answers):
        want = _fresh(lat).nearest_many(Q)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
    assert not np.array_equal(answers[0][0], answers[1][0])


def test_group_ball_lattice_indexes_its_points_once(monkeypatch):
    """``_find`` and the group-ball side of ``nearest_many`` read one point
    index: ``_row_index`` runs on the lattice's points once between
    them."""
    from roughcayley import graphs, nets, spaces
    lat = group_ball_lattice(FreeGroupModel(2), 6)
    X, calls = lat.coords(), []
    row_index = spaces._row_index

    def counted(K):
        calls.append(K.shape == X.shape and np.array_equal(K, X))
        return row_index(K)
    for module in (graphs, nets, spaces):
        monkeypatch.setattr(module, "_row_index", counted)
    assert lat.index_of((1, 2)) == lat.points.index((1, 2))
    Q = X[::7]
    index, dist = lat.nearest_many(Q)
    assert np.array_equal(index, np.arange(0, len(X), 7))
    assert not dist.any()
    lat.nearest_many(FreeGroupModel(2).coords([(1, 2, 1, 2, 1, 2, 1)]))
    assert calls.count(True) == 1
