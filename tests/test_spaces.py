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
    HeisenbergModel,
    HyperbolicPlaneModel,
    NearestIndex,
    QiConstants,
    SpaceModel,
    ZdModel,
    greedy_net,
)
from roughcayley.errors import (
    DomainError,
    ModelMismatchError,
    OutOfWindowError,
    SchemaError,
    UnsupportedOperationError,
)
from roughcayley.spaces import _heis_length, space_from_json, window_from_json

from oracles import (
    REFERENCE_CHECK_POINT,
    REFERENCE_WINDOW_CONTAINS,
    bfs_ball_depths,
    free_reduce,
    heisenberg_balls_by_box,
    hyperbolic_distance_log_form,
    reference_free_geodesic,
    reference_zd_geodesic,
)

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


def _letter(k):
    return st.integers(1, k).flatmap(lambda g: st.sampled_from([g, -g]))


@pytest.mark.parametrize("space, point, walk", [
    *[(ZdModel(d), st.tuples(*[st.integers(-12, 12)] * d),
       reference_zd_geodesic) for d in (1, 2, 3)],
    *[(FreeGroupModel(k), st.lists(_letter(k), max_size=12).map(free_reduce),
       reference_free_geodesic) for k in (1, 2, 3)],
], ids=["zd1", "zd2", "zd3", "f1", "f2", "f3"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_word_geodesics_follow_the_reference_walks(space, point, walk, data):
    """The greedy descent along ``generators()`` gives the axis-by-axis
    walk on Z^d and the letters of x^-1 y on free groups: the same
    parameters and points, with int coordinates."""
    x, y = data.draw(point), data.draw(point)
    ts, path = space.coarse_geodesic(x, y)
    assert (ts, path) == walk(x, y)
    assert all(type(v) is int for p in path for v in p)


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
    return (batch.dtype == expected.dtype and batch.shape == expected.shape
            and batch.tobytes() == expected.tobytes())


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


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), ints=st.booleans())
def test_euclidean_batch_distances_equal_dist_bit_for_bit(data, d, ints):
    """R^d distances in arrays round as the scalar kernel does, on integer
    and on float rows for d = 1..4."""
    space = EuclideanModel(d)
    coord = _int if ints else st.floats(-1e6, 1e6, allow_nan=False)
    rows = st.tuples(*[coord] * d)
    pairs = data.draw(st.lists(st.tuples(rows, rows), min_size=1,
                               max_size=12))
    A = space.coords([a for a, _ in pairs])
    B = space.coords([b for _, b in pairs])
    assert space._dist_many(A, B).tobytes() == \
        np.array([space._dist(a, b) for a, b in pairs]).tobytes()
    x, ys = pairs[0][0], [b for _, b in pairs]
    assert space.distances_from(x, ys).tobytes() == \
        np.array([space._dist(x, y) for y in ys]).tobytes()


def test_euclidean_distance_sums_correctly_rounded_squares():
    # x ** 2 through the C library's pow is one unit in the last place off
    # x * x for these x on glibc; the distance squares by multiplication
    for x in (808.608567416492, 559.6125431042153, 6.8721725585465006,
              4.671361655122579):
        assert E2.distance((x, 1.0), (0.0, 0.0)) == math.sqrt(x * x + 1.0)


SLACK_WINDOWS = {
    "zd2": (Z2, BallWindow(10)),
    "free_group2": (F2, BallWindow(4)),
    "heisenberg": (HEIS, BallWindow(5)),
    "euclidean2": (E2, BoxWindow((-5.0, -5.0), (5.0, 5.0), 0.5)),
    "h2": (H2, H2Window(-3.0, 3.0, -1.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(SLACK_WINDOWS))
def test_boundary_slacks_equal_the_scalar_slacks(name):
    """On window points and on points inside and outside the window."""
    space, window = SLACK_WINDOWS[name]
    points = space.enumerate_window(window)[::7] + random_points(
        space, np.random.default_rng(3), 200)
    X = space.coords(points)
    expected = np.array([space.boundary_slack(window, p) for p in points],
                        dtype=float).tobytes()
    assert space.boundary_slacks(window, X).tobytes() == expected
    assert SpaceModel.boundary_slacks(space, window, X).tobytes() == expected


def _free_words(k):
    letters = [g for g in range(-k, k + 1) if g]
    return st.lists(st.sampled_from(letters), max_size=7).map(free_reduce)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(1, 3))
def test_free_group_array_kernels_equal_scalar_kernels(data, k):
    """Padded-word kernels of free groups of rank 1 to 3 against the scalar
    ones, with the empty word, arrays of different widths and rows padded
    wider than their longest word."""
    space, words = FreeGroupModel(k), _free_words(k)
    xs = data.draw(st.lists(words, min_size=1, max_size=8))
    ys = data.draw(st.lists(words | st.just(()), min_size=len(xs),
                            max_size=len(xs)))
    X, Y = space.coords(xs), space.coords(ys)
    assert X.dtype == np.int8 and space._points(X) == xs
    wide = np.pad(Y, ((0, 0), (0, data.draw(st.integers(0, 3)))))
    for A, B, pairs in ((X, Y, list(zip(xs, ys))), (X, wide, list(zip(xs, ys))),
                        (X[:1], Y, [(xs[0], y) for y in ys]),
                        (X, space.coords([()]), [(x, ()) for x in xs])):
        assert _same_rows(space._mul_many(A, B), space,
                          [space._mul(a, b) for a, b in pairs])
        assert space._dist_many(A, B).tolist() == \
            [space._dist(a, b) for a, b in pairs]
    p = data.draw(words)
    expected = [space._dist(p, y) for y in ys]
    assert space.distances_from(p, ys).tolist() == expected
    assert space.distances_from(p, wide).tolist() == expected


def test_hyperbolic_distance_forms_agree():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = (float(rng.uniform(-10, 10)), float(math.exp(rng.uniform(-3, 3))))
        y = (float(rng.uniform(-10, 10)), float(math.exp(rng.uniform(-3, 3))))
        assert abs(H2.distance(x, y)
                   - hyperbolic_distance_log_form(x, y)) <= 1e-9


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


def test_heisenberg_ball_matches_the_box_filter():
    for r, ball in enumerate(heisenberg_balls_by_box(40)):
        assert np.array_equal(HEIS._ball(r), ball), r


@pytest.mark.parametrize("space", [Z2, F2, HEIS], ids=["zd2", "f2", "heis"])
def test_negative_ball_radius_enumerates_nothing(space):
    assert space.enumerate_window(BallWindow(-2)) == []


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


def _outcome(check, *args):
    """The error type and message ``check`` raises, or None."""
    try:
        check(*args)
    except (ModelMismatchError, DomainError) as exc:
        return type(exc), str(exc)
    return None


# bools, ints past int64, floats with their specials and NumPy scalars, in
# tuples and lists of every length up to 4, and h2 heights <= 0
_COORD = (st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
          | st.sampled_from([0.0, -0.0, -1.0, 0, -1, np.int64(2), np.int8(-1),
                             np.float64(0.5), np.float64(-2.0),
                             np.float32(1.5), np.bool_(True)]))
_ANY_POINT = st.tuples(st.lists(_COORD, max_size=4), st.booleans()).map(
    lambda drawn: tuple(drawn[0]) if drawn[1] else drawn[0]) | st.tuples(
    _COORD, st.floats(max_value=0.0) | st.integers(max_value=0))
# free-group words with letter 0, letters past k = 2 and bool letters,
# words of good letters with unreduced pairs, and reduced words
_LETTERS = st.lists(st.sampled_from([-2, -1, 1, 2]), max_size=6)
_WORD = (st.lists(st.integers(-3, 3) | st.booleans()
                  | st.sampled_from([2 ** 70, 1.0, np.int64(1)]),
                  max_size=5).map(tuple)
         | _LETTERS.map(tuple) | _LETTERS.map(free_reduce))


def _points_of(space):
    """Any point, or twice as often a point of the model's own kind, so
    that lists pass whole or fail past their first point."""
    if space.tag == "free_group":
        own = _WORD
    else:
        coord = st.integers(-5, 5) | st.booleans() | (
            st.floats(0.1, 5.0) if space.coord_type is float else st.nothing())
        own = st.tuples(*[coord] * (space.d - 1), st.integers(1, 5) | coord)
    return st.one_of(_ANY_POINT, own, own)


@pytest.mark.parametrize("space", [Z1, Z2, ZdModel(3), HEIS, E2,
                                   EuclideanModel(3), H2, F2],
                         ids=["zd1", "zd2", "zd3", "heis", "e2", "e3", "h2",
                              "f2"])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_check_point_matches_the_reference_checks(space, data):
    """``check_points`` raises, with the same error and message, what each
    model's own check raised for the first bad point of a list, in input
    order, or nothing when every point passes; the one-point check is the
    reference check itself."""
    points = data.draw(st.lists(_points_of(space), max_size=6))
    outcomes = [_outcome(REFERENCE_CHECK_POINT[space.tag], space, x)
                for x in points]
    assert _outcome(space.check_points, points) == next(
        filter(None, outcomes), None)
    assert [_outcome(space.check_point, x) for x in points] == outcomes


@pytest.mark.parametrize("space,x", [
    (E2, (math.nan, 0.0)), (E2, (0.0, math.inf)), (E2, (-math.inf, 1)),
    (H2, (math.nan, 1.0)), (H2, (0.0, math.inf)), (H2, (math.inf, 1.0)),
], ids=["e2-nan", "e2-inf", "e2-minus-inf", "h2-nan-u", "h2-inf-a",
        "h2-inf-u"])
def test_coordinates_that_are_not_finite_are_no_points(space, x):
    """A NaN or infinite coordinate is no point of R^d or h2: the public
    kernels and every check reject it."""
    with pytest.raises(DomainError, match="has a coordinate that is not "
                                          "finite"):
        space.check_point(x)
    with pytest.raises(DomainError):
        space.distance(x, space.base_point)


# word lengths of the ball-window models, exact at any size: coordinates
# reach past 2^63, where Heisenberg points have no cap and no DomainError
_LENGTH = {"zd": lambda x: sum(map(abs, x)), "free_group": len,
           "heisenberg": lambda x: _heis_length(*x)}
_BIG = st.integers(-10, 10) | st.integers(-2 ** 80, 2 ** 80) | st.booleans()
_WINDOW_POINTS = {
    "zd1": (Z1, st.tuples(_BIG)),
    "zd3": (ZdModel(3), st.tuples(_BIG, _BIG, _BIG)),
    "f2": (F2, st.lists(st.sampled_from([-2, -1, 1, 2]),
                        max_size=40).map(free_reduce)),
    "heis": (HEIS, st.tuples(_BIG, _BIG, _BIG)),
}


@pytest.mark.parametrize("name", sorted(_WINDOW_POINTS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_window_contains_matches_the_reference_tests(name, data):
    """Ball membership as a slack >= -1e-9 is each model's own test, on
    radii at, next to and far from the point's word length."""
    space, points = _WINDOW_POINTS[name]
    x = data.draw(points)
    length = _LENGTH[space.tag](x)
    radius = data.draw(st.integers(-2, 2).map(lambda k: length + k)
                       | st.integers(-2, 60) | st.integers(2 ** 62, 2 ** 90))
    window = BallWindow(radius)
    assert space.window_contains(window, x) is \
        REFERENCE_WINDOW_CONTAINS[space.tag](space, window, x)


@pytest.mark.parametrize("space,pt", [
    (Z2, (3, -4)),
    (F2, (1, -2, 1)),
    (HEIS, (1, 2, -3)),
    (E2, (0.25, -1.5)),
    (H2, (0.1, 2.75)),
])
def test_point_serialization_roundtrip(space, pt):
    obj = space.point_to_json(pt)
    assert obj["model"] in {"zd", "free_group", "heisenberg", "euclidean", "h2"}
    assert space.point_from_json(obj) == pt


# the file format, pinned literally: one space and one point per model, one
# window per kind
JSON_FORMS = {
    "space-zd": (Z2, {"model": "zd", "d": 2}),
    "space-free_group": (F2, {"model": "free_group", "k": 2}),
    "space-heisenberg": (HEIS, {"model": "heisenberg"}),
    "space-euclidean": (E2, {"model": "euclidean", "d": 2,
                             "additive_group": False}),
    "space-h2": (H2, {"model": "h2"}),
    "point-zd": ((Z2, (3, -4)), {"model": "zd", "x": [3, -4]}),
    "point-free_group": ((F2, (1, -2, 1)), {"model": "free_group",
                                            "w": [1, -2, 1]}),
    "point-heisenberg": ((HEIS, (1, 2, -3)), {"model": "heisenberg",
                                              "x": [1, 2, -3]}),
    "point-euclidean": ((E2, (0.25, -1.5)), {"model": "euclidean",
                                             "x": [0.25, -1.5]}),
    "point-h2": ((H2, (0.0, 1.0)), {"model": "h2", "u": 0.0, "a": 1.0}),
    "window-ball": (BallWindow(5), {"kind": "ball", "radius": 5}),
    "window-box": (BoxWindow((-1.0, 0.0), (2.0, 3.5), 0.5),
                   {"kind": "box", "lo": [-1.0, 0.0], "hi": [2.0, 3.5],
                    "pitch": 0.5}),
    "window-h2box": (H2Window(-20.0, 20.0, -3.0, 3.0, 0.25),
                     {"kind": "h2box", "u": [-20.0, 20.0],
                      "log_a": [-3.0, 3.0], "pitch": 0.25}),
    "window-h2box-pitch-0": (H2Window(-1.0, 1.0, -1.0, 1.0, 0.0),
                             {"kind": "h2box", "u": [-1.0, 1.0],
                              "log_a": [-1.0, 1.0], "pitch": 0.0}),
}


@pytest.mark.parametrize("name", list(JSON_FORMS))
def test_json_literal_form(name):
    value, literal = JSON_FORMS[name]
    text = json.dumps(literal, sort_keys=True)
    if name.startswith("point"):
        space, pt = value
        assert json.dumps(space.point_to_json(pt), sort_keys=True) == text
        assert space.point_from_json(json.loads(text)) == pt
    else:
        assert json.dumps(value.to_json(), sort_keys=True) == text
        decode = space_from_json if name.startswith("space") else window_from_json
        assert decode(json.loads(text)) == value


@pytest.mark.parametrize("space,obj", [
    (Z2, {"model": "zd", "x": [1.5, 0]}),
    (Z2, {"model": "zd", "x": [1.0, 0]}),
    (Z2, {"model": "zd", "x": ["1", 0]}),
    (Z2, {"model": "zd", "x": [True, 0]}),
    (Z2, {"model": "zd", "x": 3}),
    (Z2, {"model": "zd"}),
    (Z2, {"model": "h2", "x": [1, 0]}),
    (Z2, [1, 0]),
    (HEIS, {"model": "heisenberg", "x": [1, 2, 0.5]}),
    (HEIS, {"model": "heisenberg", "x": [1, "2", 0]}),
    (HEIS, {"model": "heisenberg", "x": [False, 2, 0]}),
    (F2, {"model": "free_group", "w": [1, 2.0]}),
    (F2, {"model": "free_group", "w": ["1"]}),
    (F2, {"model": "free_group", "w": [True]}),
    (F2, {"model": "free_group", "x": [1]}),
    (E2, {"model": "euclidean", "x": [0.5, "1"]}),
    (E2, {"model": "euclidean", "x": [0.5, None]}),
    (H2, {"model": "h2", "u": 0.0}),
    (H2, {"model": "h2", "u": "0", "a": 1.0}),
])
def test_point_codec_rejects_malformed_points(space, obj):
    # integer coordinates must be JSON integers; nothing is rounded
    with pytest.raises(SchemaError):
        space.point_from_json(obj)


@pytest.mark.parametrize("obj", [
    {"d": 2},
    {"model": "zd"},
    {"model": "zd", "d": "x"},
    {"model": "zd", "d": 2.0},
    {"model": "free_group", "k": None},
    {"model": "euclidean", "d": 2},
    {"model": "lattice", "d": 2},
    {"model": ["zd"]},
    "zd",
])
def test_space_codec_rejects_malformed_spaces(obj):
    with pytest.raises(SchemaError):
        space_from_json(obj)


@pytest.mark.parametrize("obj", [
    {"radius": 3},
    {"kind": "ball"},
    {"kind": "ball", "radius": "3"},
    {"kind": "ball", "radius": 2.5},
    {"kind": "box", "lo": [0.0], "hi": [1.0]},
    {"kind": "box", "lo": [0.0], "hi": ["1"], "pitch": 0.5},
    {"kind": "h2box", "u": [0.0], "log_a": [-1.0, 1.0]},
    {"kind": "h2box", "u": [0.0, 1.0], "log_a": [-1.0, 1.0], "pitch": "x"},
    {"kind": "disc", "radius": 3},
    {"kind": "h2box", "u": [0.0, 1.0], "log_a": [-1.0, 1.0], "pitch": False},
])
def test_window_codec_rejects_malformed_windows(obj):
    with pytest.raises(SchemaError):
        window_from_json(obj)


@pytest.mark.parametrize("extra", [{}, {"pitch": None}])
def test_h2_window_pitch_defaults_only_when_absent_or_null(extra):
    obj = {"kind": "h2box", "u": [0.0, 1.0], "log_a": [-1.0, 1.0], **extra}
    assert window_from_json(obj).pitch == 0.25


@pytest.mark.parametrize("space, window", [
    (EuclideanModel(2), lambda pitch: BoxWindow((0.0, 0.0), (1.0, 1.0),
                                                pitch)),
    (HyperbolicPlaneModel(), lambda pitch: H2Window(-1.0, 1.0, -1.0, 1.0,
                                                    pitch)),
], ids=["box", "h2"])
@pytest.mark.parametrize("pitch", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_enumerate_window_rejects_a_pitch_that_is_not_positive_and_finite(
        space, window, pitch):
    """A zero pitch divides by zero, NaN has no grid and a negative one
    would enumerate nothing."""
    with pytest.raises(DomainError, match="window pitch must be a finite "
                                          "number > 0"):
        space.enumerate_window(window(pitch))


@pytest.mark.parametrize("space, window", [
    (EuclideanModel(2), BoxWindow((0.0,), (2.0,), 1.0)),
    (EuclideanModel(2), BoxWindow((0.0, 0.0), (2.0,), 1.0)),
    (EuclideanModel(1), BoxWindow((0.0, 0.0), (2.0, 2.0), 1.0)),
    (EuclideanModel(2), BallWindow(3)),
    (ZdModel(2), BoxWindow((0.0, 0.0), (2.0, 2.0), 1.0)),
    (HyperbolicPlaneModel(), BallWindow(3)),
    (FreeGroupModel(2), H2Window(0.0, 1.0, 0.0, 1.0)),
], ids=["e2-box1", "e2-corners-differ", "e1-box2", "e2-ball", "z2-box",
        "h2-ball", "f2-h2box"])
def test_enumerate_window_rejects_a_window_of_another_model(space, window):
    with pytest.raises(DomainError):
        space.enumerate_window(window)
    with pytest.raises(DomainError):
        space.check_window(window)


def test_qi_constants_validation():
    QiConstants(1.0, 0.0, 10, "sample")
    with pytest.raises(DomainError):
        QiConstants(0.5, 0.0, 10, "sample")
    with pytest.raises(DomainError):
        QiConstants(2.0, -1.0, 10, "sample")
