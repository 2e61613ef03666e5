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
    HeisenbergModel,
    HyperbolicPlaneModel,
    NearestIndex,
    QiConstants,
    ZdModel,
    greedy_net,
)
from roughcayley.errors import (
    DomainError,
    ModelMismatchError,
    OutOfWindowError,
    UnsupportedOperationError,
)
from roughcayley.serialize import point_from_json, point_to_json

from oracles import bfs_ball_depths, free_reduce

Z1, Z2 = ZdModel(1), ZdModel(2)
F2 = FreeGroupModel(2)
HEIS = HeisenbergModel()
E2 = EuclideanModel(2)
H2 = HyperbolicPlaneModel()


def random_points(space, rng, n):
    if isinstance(space, ZdModel):
        return [tuple(int(v) for v in rng.integers(-20, 21, space.d))
                for _ in range(n)]
    if isinstance(space, FreeGroupModel):
        pts = []
        for _ in range(n):
            w = ()
            for _ in range(int(rng.integers(0, 9))):
                g = int(rng.choice([-2, -1, 1, 2]))
                w = space.multiply(w, (g,))
            pts.append(w)
        return pts
    if isinstance(space, HeisenbergModel):
        pts = []
        for _ in range(n):
            p = space.identity()
            for _ in range(int(rng.integers(0, 9))):
                p = space.multiply(p, space.generators()[rng.integers(0, 4)])
            pts.append(p)
        return pts
    if isinstance(space, EuclideanModel):
        return [tuple(float(v) for v in rng.uniform(-10, 10, space.d))
                for _ in range(n)]
    return [(float(rng.uniform(-5, 5)), float(math.exp(rng.uniform(-2, 2))))
            for _ in range(n)]


@pytest.mark.parametrize("space,exact", [
    (Z1, True), (Z2, True), (F2, True), (HEIS, True), (E2, False), (H2, False),
])
def test_metric_axioms(space, exact):
    rng = np.random.default_rng(7)
    pts = random_points(space, rng, 30)
    tol = 0.0 if exact else 1e-9
    for _ in range(250):
        x, y, z = (pts[rng.integers(0, len(pts))] for _ in range(3))
        dxy = space.distance(x, y)
        assert dxy >= 0
        assert abs(dxy - space.distance(y, x)) <= tol
        if x == y:
            assert dxy <= tol
        assert space.distance(x, z) <= dxy + space.distance(y, z) + tol
    if exact:
        # distinct points of a discrete model are at word distance >= 1
        for x in pts[:10]:
            for y in pts[:10]:
                if x != y:
                    assert space.distance(x, y) >= 1


@pytest.mark.parametrize("space", [Z1, Z2, F2, HEIS])
def test_word_metric_matches_bfs_on_radius6_ball(space):
    depth = bfs_ball_depths(space, 6)
    e = space.identity()
    for w, d in depth.items():
        assert space.distance(e, w) == d


def test_heisenberg_distance_matches_bfs_around_radius12_ball():
    # every element of N_12(e) has its BFS depth, and every other point of a
    # box around the ball is farther than 12, in both distance paths
    depth = bfs_ball_depths(HEIS, 12)
    e = HEIS.identity()
    box = [(a, b, c) for a in range(-14, 15) for b in range(-14, 15)
           for c in range(-40, 41)]
    assert set(depth) <= set(box)
    scalar = [HEIS.distance(e, p) for p in box]
    assert HEIS.distances_from(e, box).tolist() == scalar
    for p, d in zip(box, scalar):
        assert d == depth[p] if p in depth else d > 12


def test_heisenberg_far_points():
    w = BallWindow(5)
    assert HEIS.window_contains(w, (40, 0, 0)) is False
    assert HEIS.window_contains(w, (0, 0, 60)) is False
    assert HEIS.boundary_slack(w, (40, 0, 0)) == -35.0
    assert HEIS.distance((0, 0, 0), (0, 0, 10 ** 6)) == 4000


def test_heisenberg_nearest_outside_window_is_out_of_window():
    phi = NearestIndex(greedy_net(HEIS, BallWindow(4), 2.0))
    with pytest.raises(OutOfWindowError):
        phi((40, 0, 0))


def test_heisenberg_vectorised_distance_near_large_squares():
    # 4c = (2m)^2 + 4 rounds down to a square past 2^53, so the float root
    # alone is one short
    e = HEIS.identity()
    pts = [(0, 0, m * m + k) for m in range(4 * 10 ** 8 - 20, 4 * 10 ** 8 + 20)
           for k in (-1, 0, 1)]
    assert HEIS.distances_from(e, pts).tolist() == \
        [HEIS.distance(e, p) for p in pts]
    assert HEIS.distance(e, (0, 0, 16 * 10 ** 16 + 1)) == 4 * 4 * 10 ** 8 + 2


# far points whose int64 arithmetic in distances_from stays exact, with
# 4 * area past 2^53 so the float square root needs its correction
_far = st.tuples(st.integers(-10 ** 8, 10 ** 8), st.integers(-10 ** 8, 10 ** 8),
                 st.integers(-10 ** 16, 10 ** 16))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_far, st.lists(_far, min_size=1, max_size=20))
def test_heisenberg_vectorised_distance_matches_scalar(x, points):
    assert HEIS.distances_from(x, points).tolist() == \
        [HEIS.distance(x, p) for p in points]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_far, _far, _far)
def test_heisenberg_left_invariance_far(g, x, y):
    d = HEIS.distance(x, y)
    assert HEIS.distance(HEIS.multiply(g, x), HEIS.multiply(g, y)) == d
    assert HEIS.distance(y, x) == d


_near = st.tuples(st.integers(-40, 40), st.integers(-40, 40),
                  st.integers(-2000, 2000))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_near, _near)
def test_heisenberg_geodesic_realises_distance(x, y):
    # a word of exactly the claimed length, one generator per step, along
    # which the distance to y drops by one each step
    ts, path = HEIS.coarse_geodesic(x, y)
    d = HEIS.distance(x, y)
    assert path[0] == x and path[-1] == y and len(path) == d + 1
    gens = HEIS.generators()
    for i, (p, q) in enumerate(zip(path, path[1:])):
        assert HEIS.multiply(HEIS.inverse(p), q) in gens
        assert HEIS.distance(q, y) == d - i - 1


_int = st.integers(-10 ** 6, 10 ** 6)
_real = st.floats(-1e3, 1e3, allow_nan=False)
# points of the five models; Heisenberg coordinates as large as int64 allows
BATCH_POINTS = {
    "zd2": (Z2, st.tuples(_int, _int)),
    "free_group2": (F2, st.lists(st.sampled_from([-2, -1, 1, 2]),
                                 max_size=8).map(free_reduce)),
    "heisenberg": (HEIS, _far),
    "euclidean2": (E2, st.tuples(_real, _real)),
    "h2": (H2, st.tuples(_real, st.floats(1e-3, 1e3))),
}


def _same_rows(batch, space, rows):
    """The batch equals ``space.coords(rows)`` bit for bit."""
    expected = space.coords(rows)
    if expected.dtype == object:
        return batch.tolist() == expected.tolist()
    return batch.dtype == expected.dtype and batch.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(BATCH_POINTS))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_batch_kernels_equal_scalar_kernels(name, data):
    space, points = BATCH_POINTS[name]
    pairs = data.draw(st.lists(st.tuples(points, points), min_size=1,
                               max_size=12))
    A = space.coords([a for a, _ in pairs])
    B = space.coords([b for _, b in pairs])
    assert _same_rows(space._mul_many(A, B), space,
                      [space._mul(a, b) for a, b in pairs])
    assert space._dist_many(A, B).tobytes() == \
        np.array([space._dist(a, b) for a, b in pairs]).tobytes()
    # a single row broadcasts against the other array
    a = pairs[0][0]
    assert _same_rows(space._mul_many(A[:1], B), space,
                      [space._mul(a, b) for _, b in pairs])
    assert space._dist_many(A[:1], B).tobytes() == \
        np.array([space._dist(a, b) for _, b in pairs]).tobytes()


def test_hyperbolic_distance_forms_agree():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = (float(rng.uniform(-10, 10)), float(math.exp(rng.uniform(-3, 3))))
        y = (float(rng.uniform(-10, 10)), float(math.exp(rng.uniform(-3, 3))))
        assert abs(H2.distance(x, y) - H2.distance_log_form(x, y)) <= 1e-9


def test_hyperbolic_examples():
    assert abs(H2.distance((0.0, 1.0), (0.0, math.e)) - 1.0) <= 1e-12
    assert Z2.distance((0, 0), (3, 4)) == 7
    assert F2.distance((), (1, 2, -1)) == 3
    assert HEIS.distance((0, 0, 0), (0, 0, 1)) == 4


@pytest.mark.parametrize("space,tol", [(Z2, 0.0), (F2, 0.0), (HEIS, 0.0), (H2, 1e-9)])
def test_left_invariance(space, tol):
    rng = np.random.default_rng(3)
    pts = random_points(space, rng, 12)
    for g in pts[:6]:
        for x in pts[:8]:
            for y in pts[:8]:
                lhs = space.distance(space.multiply(g, x), space.multiply(g, y))
                assert abs(lhs - space.distance(x, y)) <= tol


def test_group_law_examples():
    assert H2.multiply((1.0, 2.0), (3.0, 4.0)) == (7.0, 8.0)
    assert F2.multiply((1, 2), (-2, 1)) == (1, 1)
    assert Z2.multiply((3, -1), (-3, 1)) == (0, 0)
    assert Z2.inverse((3, -1)) == (-3, 1)
    # affine inverses to floating tolerance
    g = (0.7, 2.5)
    u, a = H2.multiply(g, H2.inverse(g))
    assert abs(u) <= 1e-12 and abs(a - 1.0) <= 1e-12
    # Heisenberg inverse and the commutator element
    x, y = (1, 0, 0), (0, 1, 0)
    comm = HEIS.multiply(HEIS.multiply(x, y),
                         HEIS.multiply(HEIS.inverse(x), HEIS.inverse(y)))
    assert comm == (0, 0, 1)


@pytest.mark.parametrize("k,radius", [(1, 6), (2, 4), (3, 3)])
def test_free_group_product_is_free_reduction(k, radius):
    space = FreeGroupModel(k)
    ball = space.enumerate_window(BallWindow(radius))
    for x in ball:
        for y in ball:
            assert space.multiply(x, y) == free_reduce(x + y)


@pytest.mark.parametrize("space", [Z1, Z2, F2, HEIS, E2, H2])
def test_coarse_geodesics(space):
    rng = np.random.default_rng(5)
    pts = random_points(space, rng, 10)
    c = space.coarse_constant_c
    for x in pts[:4]:
        for y in pts[4:8]:
            ts, path = space.coarse_geodesic(x, y)
            a = space.distance(x, y)
            assert path[0] == x and abs(ts[0]) <= 1e-9
            assert space.distance(path[-1], y) <= 1e-9
            assert abs(ts[-1] - a) <= 1e-9
            assert all(t2 - t1 <= 1.0 + 1e-9 for t1, t2 in zip(ts, ts[1:]))
            for i in range(0, len(ts), 3):
                for j in range(i, len(ts), 4):
                    gap = abs(ts[i] - ts[j])
                    d = space.distance(path[i], path[j])
                    assert gap - c - 1e-9 <= d <= gap + c + 1e-9


def test_vertical_geodesic_is_exact():
    ts, path = H2.coarse_geodesic((0.0, 1.0), (0.0, math.exp(2.0)))
    assert all(abs(u) <= 1e-12 for u, _ in path)
    mid = path[len(path) // 2]
    assert abs(mid[1] - math.e) <= 1e-9


def test_enumerate_windows():
    assert Z1.enumerate_window(BallWindow(2)) == [(-2,), (-1,), (0,), (1,), (2,)]
    ball1 = F2.enumerate_window(BallWindow(1))
    assert ball1 == [(), (-2,), (-1,), (1,), (2,)]
    for m in range(0, 7):
        assert len(F2.enumerate_window(BallWindow(m))) == 2 * 3 ** m - 1
    grid = E2.enumerate_window(BoxWindow((0.0, 0.0), (10.0, 10.0), 1.0))
    assert len(grid) == 121
    # empty or inverted windows enumerate to nothing
    assert E2.enumerate_window(BoxWindow((1.0, 1.0), (0.0, 0.0), 1.0)) == []
    h2pts = H2.enumerate_window(H2Window(-1.0, 1.0, 0.0, 0.0, 0.5))
    assert len(h2pts) == 5 and all(a == 1.0 for _, a in h2pts)


def test_heisenberg_ball_is_sorted_and_exact():
    pts = HEIS.enumerate_window(BallWindow(3))
    assert pts == sorted(pts)
    assert len(pts) == 53


def test_window_slack_and_membership():
    w = BallWindow(10)
    assert Z1.window_contains(w, (10,)) and not Z1.window_contains(w, (11,))
    assert Z1.boundary_slack(w, (4,)) == 6.0
    hw = H2Window(-20.0, 20.0, -3.0, 3.0)
    assert H2.window_contains(hw, (0.0, 1.0))
    assert abs(H2.boundary_slack(hw, (0.0, 1.0)) - 3.0) <= 1e-12
    # the u-edges are geodesics: slack there is asinh of the euclidean gap
    p = (18.0, 1.0)
    assert abs(H2.boundary_slack(hw, p) - math.asinh(2.0)) <= 1e-12


def test_point_validation_errors():
    with pytest.raises(ModelMismatchError):
        Z2.distance((0, 0), (0, 0, 0))
    with pytest.raises(DomainError):
        H2.distance((0.0, 1.0), (0.0, -1.0))
    with pytest.raises(DomainError):
        F2.check_point((1, -1))
    with pytest.raises(UnsupportedOperationError):
        E2.multiply((0.0, 0.0), (1.0, 1.0))
    flagged = EuclideanModel(2, additive_group=True)
    assert flagged.multiply((1.0, 2.0), (3.0, 4.0)) == (4.0, 6.0)


@pytest.mark.parametrize("space,pt", [
    (Z2, (3, -4)),
    (F2, (1, -2, 1)),
    (HEIS, (1, 2, -3)),
    (E2, (0.25, -1.5)),
    (H2, (0.1, 2.75)),
])
def test_point_serialization_roundtrip(space, pt):
    obj = point_to_json(space, pt)
    assert obj["model"] in {"zd", "free_group", "heisenberg", "euclidean", "h2"}
    assert point_from_json(space, obj) == pt


def test_h2_point_tag_shape():
    assert point_to_json(H2, (0.0, 1.0)) == {"model": "h2", "u": 0.0, "a": 1.0}


def test_qi_constants_validation():
    QiConstants(1.0, 0.0, 10, "sample")
    with pytest.raises(DomainError):
        QiConstants(0.5, 0.0, 10, "sample")
    with pytest.raises(DomainError):
        QiConstants(2.0, -1.0, 10, "sample")
