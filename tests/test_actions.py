import math
import re

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
    QuasiAction,
    ZdModel,
    certify_axioms,
    greedy_net,
    group_ball_lattice,
    horocyclic_lattice,
    orbit_map_qi,
    quasi_action,
    quasi_conjugacy_defect,
)
from roughcayley.actions import _pair_sample
from roughcayley.errors import (
    DomainError,
    ModelMismatchError,
    OutOfWindowError,
)
from roughcayley.nets import QuasiLattice
from roughcayley.spaces import _distinct_rows

from conftest import make_even_lattice
from oracles import (
    dict_distinct_rows,
    free_reduce,
    literal_axiom_certificate,
    literal_conjugacy_defect,
    literal_orbit_constants,
    naive_nearest,
    tuple_pair_sample,
)


@pytest.fixture(scope="module")
def even_action():
    lat = make_even_lattice(40)
    return quasi_action(lat.space, lat)


def test_phi_tie_break_and_fixed_points(even_action):
    qa = even_action
    assert qa.phi((3,)) == (2,)
    assert qa.phi((4,)) == (4,)
    assert qa.psi((4,)) == (4,)
    assert qa.phi((-3,)) == (-4,)  # lexicographic: -4 < -2


def test_nearest_matches_naive_oracle():
    z2 = ZdModel(2)
    net = greedy_net(z2, BallWindow(20), 3.0)
    phi = NearestIndex(net)
    rng = np.random.default_rng(13)
    for _ in range(200):
        q = (int(rng.integers(-14, 15)), 0)
        q = (q[0], int(rng.integers(-14 + abs(q[0]), 15 - abs(q[0]))))
        assert phi(q) == naive_nearest(z2, net.points, q)
    horo = horocyclic_lattice((-10.0, 10.0), (-2, 2))
    phi_h = NearestIndex(horo)
    assert phi_h((0.4, 1.1)) == naive_nearest(horo.space, horo.points, (0.4, 1.1))
    assert phi_h((0.4, 1.1)) == (0.0, 1.0)


_NEAREST_CASES = {}


def _nearest_case(name):
    # lattice, its index and the window's points, built once per model
    if name not in _NEAREST_CASES:
        if name == "h2":
            net = horocyclic_lattice((-10.0, 10.0), (-2, 2))
            space, window = net.space, net.window
        else:
            space, window, delta = {
                "zd2": (ZdModel(2), BallWindow(20), 3.0),
                "heisenberg": (HeisenbergModel(), BallWindow(5), 2.0),
                "zd3": (ZdModel(3), BallWindow(8), 2.0),
                "r2": (EuclideanModel(2),
                       BoxWindow((-6.0, -6.0), (6.0, 6.0), 0.5), 1.5),
                "f2": (FreeGroupModel(2), BallWindow(5), 2.0),
            }[name]
            net = greedy_net(space, window, delta)
        if name == "r2":
            # queries on a finer grid, with exact ties between net points
            window = BoxWindow(window.lo, window.hi, 0.25)
        _NEAREST_CASES[name] = (net, NearestIndex(net),
                                space.enumerate_window(window))
    return _NEAREST_CASES[name]


@pytest.mark.parametrize("name", ["zd2", "heisenberg", "zd3", "r2", "f2", "h2"])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_nearest_index_matches_naive_property(name, pick):
    net, phi, pool = _nearest_case(name)
    q = pool[pick % len(pool)]
    assert phi(q) == naive_nearest(net.space, net.points, q)


_MANY_CASES = {}


def _many_case(name):
    # a lattice and a pool of query points, built once per case; the pools
    # reach past the lattice windows, where no lattice point is near
    if name not in _MANY_CASES:
        if name == "zd2-net":
            lat = greedy_net(ZdModel(2), BallWindow(20), 3.0)
            pool = lat.space.enumerate_window(BallWindow(26))
        elif name == "zd3-ball":
            lat = group_ball_lattice(ZdModel(3), 4)
            pool = lat.space.enumerate_window(BallWindow(7))
        elif name == "heisenberg-ball":
            lat = group_ball_lattice(HeisenbergModel(), 3)
            pool = lat.space.enumerate_window(BallWindow(6))
        elif name == "f2-net":
            lat = greedy_net(FreeGroupModel(2), BallWindow(5), 2.0)
            pool = lat.space.enumerate_window(BallWindow(7))
        elif name == "r2-ties":
            # a pitch-1 grid queried on a pitch-0.25 grid: exact ties of
            # two and four points at every half-integer coordinate
            lat = greedy_net(EuclideanModel(2),
                             BoxWindow((-5.0, -5.0), (5.0, 5.0), 1.0), 1.0)
            pool = lat.space.enumerate_window(
                BoxWindow((-7.0, -7.0), (7.0, 7.0), 0.25))
        elif name == "r2-near-ties":
            # pitch 0.1 is no binary fraction: about one query in eight has
            # a second point within 1e-9 of its nearest, not at equal float
            lat = greedy_net(EuclideanModel(2),
                             BoxWindow((-2.0, -2.0), (2.0, 2.0), 0.1), 0.3)
            pool = lat.space.enumerate_window(
                BoxWindow((-2.5, -2.5), (2.5, 2.5), 0.05))
        elif name == "h2":
            lat = horocyclic_lattice((-10.0, 10.0), (-2, 2))
            pool = lat.space.enumerate_window(H2Window(-14.0, 14.0, -3.0, 3.0))
        else:
            # a lattice file understating r as 0 (and delta as 1) on a
            # delta = 6 net: most queries have no lattice point within
            # max(r, delta, 1) = 1, so the full scan answers them
            doc = greedy_net(ZdModel(2), BallWindow(20), 6.0).to_json()
            doc.update(density_radius_r=0.0, separation_delta=1.0)
            lat = QuasiLattice.from_json(doc)
            space = lat.space
            pool = space.enumerate_window(BallWindow(20))
            # every draw holds the query farthest from the lattice
            far = max(pool, key=lambda q: min(space.distance(q, p)
                                              for p in lat.points))
            pool = [far] + pool
        _MANY_CASES[name] = lat, pool
    return _MANY_CASES[name]


@pytest.mark.parametrize("name", ["zd2-net", "zd3-ball", "heisenberg-ball",
                                  "f2-net", "r2-ties", "r2-near-ties", "h2",
                                  "understated"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=30))
def test_nearest_many_matches_naive_property(name, picks):
    """Each row's answer is ``naive_nearest``'s, with its distance: pool
    points in and past the window, lattice points, and repeated rows."""
    lat, pool = _many_case(name)
    space = lat.space
    rows = [pool[0]] + [pool[i % len(pool)] for i in picks]
    rows += [lat.points[i % len(lat)] for i in picks[:3]] + rows[:2]
    index, dist = lat.nearest_many(space.coords(rows))
    assert len(index) == len(dist) == len(rows)
    for q, i, d in zip(rows, index.tolist(), dist.tolist()):
        assert lat.points[i] == naive_nearest(space, lat.points, q)
        assert d == pytest.approx(space.distance(q, lat.points[i]), abs=1e-12)
    if name == "understated":
        # no lattice point within max(r, delta, 1) = 1 of the first row
        assert dist[0] > 1.0 + 1e-9


_ACTION_CASES = {}


def _action_case(name):
    # a quasi-action, group elements of a ball and lattice points, built
    # once per model; border points let some rows escape the window
    if name not in _ACTION_CASES:
        if name == "zd2":
            space = ZdModel(2)
            lattice, radius = greedy_net(space, BallWindow(20), 3.0), 8
        elif name == "heisenberg":
            space = HeisenbergModel()
            lattice, radius = greedy_net(space, BallWindow(6), 2.0), 3
        else:
            space = FreeGroupModel(2)
            lattice, radius = group_ball_lattice(space, 5), 3
        _ACTION_CASES[name] = (quasi_action(space, lattice),
                               space.enumerate_window(BallWindow(radius)),
                               lattice.points)
    return _ACTION_CASES[name]


def _row_by_row(qa, S, X):
    """``act`` over the rows, or the error of the first row that raises."""
    try:
        return [qa.act(s, x) for s, x in zip(S, X)]
    except OutOfWindowError as exc:
        return exc


@pytest.mark.parametrize("name", ["zd2", "heisenberg", "free_group2"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
                min_size=1, max_size=25))
def test_act_many_matches_act_row_by_row_property(name, picks):
    qa, ball, points = _action_case(name)
    space = qa.group_space
    S = [ball[i % len(ball)] for i, _ in picks]
    X = [points[j % len(points)] for _, j in picks]
    coords = space.coords
    # the full rows, then a single row of S or of X broadcast to the other
    for S_rows, X_rows, S_arr, X_arr in (
            (S, X, coords(S), coords(X)),
            (S[:1] * len(X), X, coords(S[:1]), coords(X)),
            (S, X[:1] * len(S), coords(S), coords(X[:1]))):
        expected = _row_by_row(qa, S_rows, X_rows)
        if isinstance(expected, OutOfWindowError):
            # the first escaping row raises, with the same message
            with pytest.raises(OutOfWindowError, match=re.escape(str(expected))):
                qa.act_many(S_arr, X_arr)
        else:
            assert qa.act_many(S_arr, X_arr).tolist() == \
                coords(expected).tolist()


@pytest.mark.parametrize("name", ["zd2", "heisenberg", "free_group2"])
def test_act_many_of_no_rows_is_empty(name):
    qa, _, _ = _action_case(name)
    space = qa.group_space
    assert qa.act_many(space.coords([]), space.coords([])).shape[0] == 0


def test_act_many_escaping_row_raises(even_action):
    z1 = even_action.group_space
    S = z1.coords([(0,), (2,), (45,), (46,)])
    with pytest.raises(OutOfWindowError, match=r"\(45,\)"):
        even_action.act_many(S, z1.coords([(0,)]))
    assert even_action.act_many(S[:2], z1.coords([(0,)])).tolist() == \
        [[0], [2]]


def test_act_many_checks_each_phi_result_before_the_next_call():
    """A caller's phi is called once per distinct product, in row order, and
    each result is checked before the next call: the first bad answer raises
    and the later product is never mapped."""
    z2 = ZdModel(2)
    calls = []

    def phi(q):
        calls.append(q)
        if q == (1, 0):
            return (0.5, 0)
        raise OutOfWindowError(f"{q!r} is outside the window")

    qa = QuasiAction(z2, group_ball_lattice(z2, 3), phi, lambda x: x)
    with pytest.raises(ModelMismatchError):
        qa.act_many(z2.coords([(1, 0), (1, 0), (0, 1)]), z2.coords([(0, 0)]))
    assert calls == [(1, 0)]


def test_act_examples(even_action):
    qa = even_action
    assert qa.act((0,), (2,)) == (2,)     # e fixes lattice points
    assert qa.act((4,), (2,)) == (6,)     # exact translation
    assert qa.act((1,), (2,)) == (2,)     # lands on phi(3)


def test_act_window_escape(even_action):
    with pytest.raises(OutOfWindowError):
        even_action.act((45,), (0,))


def test_associativity_defect_values(even_action):
    qa = even_action
    z1 = qa.group_space
    d = z1.distance
    # genuine action when restricted to even translations
    for s in [(-4,), (-2,), (0,), (2,), (4,)]:
        for t in [(-4,), (0,), (2,)]:
            for x in [(-2,), (0,), (2,), (4,)]:
                st = z1.multiply(s, t)
                assert d(qa.act(s, qa.act(t, x)), qa.act(st, x)) == 0
    # the documented nonzero defect at s = t = 1, x = 2
    lhs = qa.act((1,), qa.act((1,), (2,)))
    rhs = qa.act((2,), (2,))
    assert d(lhs, rhs) == 2.0


def test_certificate_even_lattice(even_action):
    cert = certify_axioms(even_action, group_radius=6, n_targets=6, seed=0)
    assert cert.identity_defect == 0.0
    assert cert.associativity_defect == 2.0
    assert cert.per_s_qi_defect <= 2.0
    assert cert.orbit_diameter <= 4.0
    for (r1, w1), (r2, w2) in zip(cert.properness, cert.properness[1:]):
        assert r1 < r2 and w1 <= w2


def test_properness_witness_example(even_action):
    qa = even_action
    z1 = qa.group_space
    witnesses = [s for s in range(-20, 21)
                 if z1.distance(qa.act((s,), (0,)), (0,)) <= 4.0]
    assert set(witnesses) <= set(range(-5, 6))
    assert max(abs(s) for s in witnesses) == 5


def test_properness_witness_sets_nested(even_action):
    qa = even_action
    z1 = qa.group_space
    sets = []
    for R in (2.0, 4.0, 6.0):
        sets.append({s for s in range(-20, 21)
                     if z1.distance(qa.act((s,), (0,)), (0,)) <= R})
    assert sets[0] <= sets[1] <= sets[2]


def test_defect_is_order_invariant(even_action):
    qa = even_action
    z1 = qa.group_space
    pairs = [((s,), (t,)) for s in range(-3, 4) for t in range(-3, 4)]
    xs = [(-2,), (0,), (2,)]

    def worst(pair_order):
        return max(z1.distance(qa.act(s, qa.act(t, x)),
                               qa.act(z1.multiply(s, t), x))
                   for s, t in pair_order for x in xs)

    assert worst(pairs) == worst(list(reversed(pairs)))


def test_orbit_map_exact_isometries():
    z2 = ZdModel(2)
    qa = quasi_action(z2, group_ball_lattice(z2, 25))
    rep = orbit_map_qi(qa, radii=(5, 10), seed=0)
    for _, C, r, _ in rep.per_radius:
        assert C == 1.0 and r == 0.0
    assert rep.stable
    f2 = FreeGroupModel(2)
    qaf = quasi_action(f2, group_ball_lattice(f2, 8))
    repf = orbit_map_qi(qaf, radii=(4, 6, 8), seed=0)
    for _, C, r, _ in repf.per_radius:
        assert C == 1.0 and r == 0.0


def test_orbit_map_net_constants_bounded():
    z2 = ZdModel(2)
    net = greedy_net(z2, BallWindow(60), 3.0)
    qa = quasi_action(z2, net)
    rep = orbit_map_qi(qa, radii=(5, 10, 15), seed=0)
    assert rep.stable
    for _, C, r, _ in rep.per_radius:
        assert C <= 3.0 + 1e-9
        assert r <= 2 * 3.0 + 1e-9


def test_orbit_map_names_the_first_escaping_element(even_action):
    """The orbit of the sampled elements leaves the radius-40 window at
    radius 60; the error names the element a literal loop over the pairs,
    in order of first appearance, finds first (x0 = phi(e) = (0,))."""
    z1 = even_action.group_space
    first = next(g for m in (2, 60)
                 for s, t in tuple_pair_sample(z1, m, 25, 300, 3,
                                               ordered=False)
                 if s != t for g in (s, t) if abs(g[0]) > 40)
    with pytest.raises(OutOfWindowError) as exc:
        orbit_map_qi(even_action, radii=(2, 60), pair_core_cap=25,
                     n_extra_pairs=300, seed=3)
    assert str(exc.value) == f"{first!r} is outside the lattice window"


def test_conjugacy_identity_bounded_by_associativity(even_action):
    qa = even_action
    cert = certify_axioms(qa, group_radius=6, n_targets=6, seed=0)
    defect = quasi_conjugacy_defect(qa, qa, phi12=lambda x: x,
                                    group_radius=6, n_targets=6, seed=0)
    assert defect <= cert.associativity_defect


def test_conjugacy_even_vs_odd_offset():
    z1 = ZdModel(1)
    evens = make_even_lattice(40)
    odds = QuasiLattice(space=z1, window=BallWindow(40),
                        points=[(k,) for k in range(-39, 40, 2)],
                        separation_delta=2.0, density_radius_r=1.0,
                        construction="greedy")
    qa_e = quasi_action(z1, evens)
    qa_o = quasi_action(z1, odds)
    defect = quasi_conjugacy_defect(qa_e, qa_o, group_radius=10, seed=0)
    # downward tie-breaking makes the two nearest-point actions commute
    # exactly here; the generic bound is 2
    assert defect == 0.0


def test_quasi_action_needs_matching_model():
    z1, z2 = ZdModel(1), ZdModel(2)
    with pytest.raises(DomainError):
        quasi_action(z2, make_even_lattice(10))
    qa = quasi_action(z1, make_even_lattice(10))
    assert qa.group_space == z1


def _oracle_case(name):
    """(quasi-action, second action for conjugacy, then the certify_axioms,
    orbit_map_qi and quasi_conjugacy_defect arguments)."""
    if name == "zd2":
        z2 = ZdModel(2)
        return (quasi_action(z2, greedy_net(z2, BallWindow(40), 3.0)),
                quasi_action(z2, greedy_net(z2, BallWindow(30), 2.0)),
                dict(group_radius=6, n_targets=6, seed=3),
                dict(radii=(3, 6), seed=3),
                dict(group_radius=6, n_targets=6, seed=3))
    if name == "heisenberg":
        heis = HeisenbergModel()
        return (quasi_action(heis, greedy_net(heis, BallWindow(8), 2.0)),
                quasi_action(heis, group_ball_lattice(heis, 6)),
                dict(group_radius=1, n_targets=4, properness_radii=(1.0, 2.0),
                     properness_scan=4),
                dict(radii=(1, 2)), dict(group_radius=1, n_targets=4))
    f2 = FreeGroupModel(2)
    return (quasi_action(f2, group_ball_lattice(f2, 9)),
            quasi_action(f2, group_ball_lattice(f2, 8)),
            dict(group_radius=2, n_targets=4, properness_radii=(1.0, 2.0),
                 properness_scan=5),
            dict(radii=(2, 3)), dict(group_radius=2, n_targets=3))


@pytest.mark.parametrize("name", ["zd2", "heisenberg", "free_group2"])
def test_certificates_match_literal_loops(name):
    """On a Z^2 net, the Heisenberg ball-8 greedy net and an F2 ball
    lattice, the batched certifiers equal per-element loops over ``act``."""
    qa, qa2, axioms, orbit, conjugacy = _oracle_case(name)
    assert certify_axioms(qa, **axioms) == literal_axiom_certificate(qa, **axioms)
    assert orbit_map_qi(qa, **orbit).per_radius == \
        literal_orbit_constants(qa, **orbit)
    assert quasi_conjugacy_defect(qa, qa2, **conjugacy) == \
        literal_conjugacy_defect(qa, qa2, **conjugacy)


@pytest.mark.parametrize("make,group_radius", [
    (lambda: greedy_net(HeisenbergModel(), BallWindow(6), 2.0), 1),
    (lambda: group_ball_lattice(FreeGroupModel(2), 8), 2),
], ids=["heisenberg-net6", "f2-ball8"])
def test_axiom_targets_clear_the_properness_scan(make, group_radius):
    """The default properness scan (ceil(6 + 2r + 2) = 12 and 8 here) goes
    past 2 group_radius: the target margin covers it, so these small
    windows have no target instead of a scan that leaves the window."""
    lattice = make()
    qa = quasi_action(lattice.space, lattice)
    with pytest.raises(OutOfWindowError,
                       match="no lattice point clears the target margin"):
        certify_axioms(qa, group_radius=group_radius)


@pytest.mark.parametrize("r,radii", [(1e308, (2.0,)), (0.0, (math.inf,)),
                                     (1.0, (2.0, math.nan))])
def test_properness_scan_that_is_not_finite_is_a_domain_error(r, radii):
    """A density radius of 1e308 (2r overflows) or an infinite or NaN
    properness radius leaves the default scan max R + 2r + 2 without an
    integer radius: a ``DomainError``, where ``int`` raised
    ``OverflowError`` or ``ValueError``."""
    ball = group_ball_lattice(ZdModel(2), 6)
    lattice = QuasiLattice(ball.space, ball.window, ball.points, 1.0, r,
                           "group_ball")
    with pytest.raises(DomainError, match=r"^properness scan radius max "
                                          r"R \+ 2r \+ 2 = \w+ is not "
                                          r"finite$"):
        certify_axioms(quasi_action(lattice.space, lattice), group_radius=1,
                       properness_radii=radii)


def test_empty_radii_are_domain_errors(even_action):
    with pytest.raises(DomainError):
        orbit_map_qi(even_action, radii=())
    with pytest.raises(DomainError):
        orbit_map_qi(even_action, radii=(0, 0))
    with pytest.raises(DomainError):
        certify_axioms(even_action, group_radius=6, n_targets=6,
                       properness_radii=())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(space=st.sampled_from([ZdModel(2), HeisenbergModel(),
                              FreeGroupModel(2)]),
       radius=st.integers(0, 4), core_cap=st.integers(0, 400),
       n_extra=st.integers(0, 200), seed=st.integers(0, 2 ** 16))
def test_unordered_pair_samples_pair_distinct_elements(space, radius, core_cap,
                                                       n_extra, seed):
    """Core pairs are combinations of distinct ball elements and extra
    draws skip a repeated index, so no unordered pair is (s, s)."""
    S, T = _pair_sample(space, radius, core_cap, n_extra, seed,
                        ordered=False)
    assert all(s != t for s, t in zip(space._points(S), space._points(T)))


# small coordinate pools, so that rows repeat; 2^62 overflows the int64
# codes of Z^2 rows, which are then keyed by their bytes; the float models
# mix -0.0 and 0.0
_DISTINCT_POINTS = {
    "zd2": (ZdModel(2), st.tuples(*[st.sampled_from([0, 1, -1, 2 ** 62])] * 2)),
    "heis": (HeisenbergModel(), st.tuples(*[st.integers(-1, 1)] * 3)),
    "f2": (FreeGroupModel(2), st.lists(st.sampled_from([-2, -1, 1, 2]),
                                       max_size=3).map(free_reduce)),
    "e2": (EuclideanModel(2), st.tuples(*[st.sampled_from([0.0, -0.0,
                                                           1.5])] * 2)),
    "h2": (HyperbolicPlaneModel(), st.tuples(st.sampled_from([0.0, -0.0, 2.0]),
                                             st.sampled_from([0.5, 1.0]))),
}


@pytest.mark.parametrize("name", sorted(_DISTINCT_POINTS))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_distinct_rows_match_a_tuple_dict(name, data):
    """The distinct rows of a point array by sorted row keys are the keys
    of a dict of the points' tuples, in order and sign (the first of -0.0
    and 0.0), and so is each row's position among them; free-group rows
    are padded past their longest word."""
    space, point = _DISTINCT_POINTS[name]
    points = data.draw(st.lists(point, max_size=12))
    Q = space.coords(points)
    if name == "f2":
        pad = data.draw(st.integers(0, 2))
        Q = np.pad(Q, ((0, 0), (0, pad)))
    rows, inverse = _distinct_rows(Q)
    distinct, want = dict_distinct_rows(points)
    assert [repr(points[i]) for i in rows.tolist()] == list(map(repr,
                                                                distinct))
    assert inverse.tolist() == want


@settings(derandomize=True, max_examples=80, deadline=None)
@given(space=st.sampled_from([ZdModel(2), HeisenbergModel(),
                              FreeGroupModel(2)]),
       radius=st.integers(0, 4), core_cap=st.integers(0, 400),
       n_extra=st.integers(0, 60), seed=st.integers(0, 2 ** 16),
       ordered=st.booleans())
def test_pair_samples_match_the_tuple_sample(space, radius, core_cap,
                                             n_extra, seed, ordered):
    """The arrays (S, T) of ``_pair_sample`` hold, row for row, the tuple
    pairs the reference draws from tuple balls: core pairs alone where
    the core is the whole ball or no extra is asked for, else core pairs
    then extra draws."""
    S, T = _pair_sample(space, radius, core_cap, n_extra, seed, ordered)
    assert S.shape == T.shape
    assert list(zip(space._points(S), space._points(T))) == tuple_pair_sample(
        space, radius, core_cap, n_extra, seed, ordered)


def test_conjugacy_defect_over_a_sampled_element_set_matches_literal_loop():
    """A Z^2 word ball of radius 6 (85 elements) against 6 targets passes
    the cap of 200 core plus 100 extra pairs: the defect is taken over the
    radius-3 core and 100 seeded elements of the whole ball."""
    z2 = ZdModel(2)
    qa = quasi_action(z2, greedy_net(z2, BallWindow(40), 3.0))
    qa2 = quasi_action(z2, greedy_net(z2, BallWindow(30), 2.0))
    args = dict(group_radius=6, n_targets=6, pair_core_cap=200, n_extra=100,
                seed=5)
    assert z2.ball_sizes(6)[-1] * 6 > 200 + 100
    assert quasi_conjugacy_defect(qa, qa2, **args) == \
        literal_conjugacy_defect(qa, qa2, **args)


@pytest.mark.parametrize("sample,message", [
    (dict(group_radius=-1), "group radius must be >= 0, got -1"),
    (dict(n_targets=0), "need at least one target, got 0"),
    (dict(n_targets=-3), "need at least one target, got -3"),
], ids=["radius-negative", "targets-0", "targets-negative"])
def test_certificates_over_an_empty_sample_are_domain_errors(even_action,
                                                              sample,
                                                              message):
    """A certificate over no group element or no target would read like a
    perfect one (all defects 0)."""
    args = {"group_radius": 2, "n_targets": 3, **sample}
    with pytest.raises(DomainError, match=f"^{message}$"):
        certify_axioms(even_action, **args)
    with pytest.raises(DomainError, match=f"^{message}$"):
        quasi_conjugacy_defect(even_action, even_action, **args)
