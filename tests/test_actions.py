import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughcayley import (
    BallWindow,
    FreeGroupModel,
    HeisenbergModel,
    NearestIndex,
    ZdModel,
    certify_axioms,
    greedy_net,
    group_ball_lattice,
    horocyclic_lattice,
    orbit_map_qi,
    quasi_action,
    quasi_conjugacy_defect,
)
from roughcayley.errors import DomainError, OutOfWindowError
from roughcayley.nets import QuasiLattice

from conftest import make_even_lattice
from oracles import (
    literal_axiom_certificate,
    literal_conjugacy_defect,
    literal_orbit_constants,
    naive_nearest,
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
        space, window, delta = {
            "zd2": (ZdModel(2), BallWindow(20), 3.0),
            "heisenberg": (HeisenbergModel(), BallWindow(5), 2.0),
        }[name]
        net = greedy_net(space, window, delta)
        _NEAREST_CASES[name] = (net, NearestIndex(net),
                                space.enumerate_window(window))
    return _NEAREST_CASES[name]


@pytest.mark.parametrize("name", ["zd2", "heisenberg"])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_nearest_index_matches_naive_property(name, pick):
    net, phi, pool = _nearest_case(name)
    q = pool[pick % len(pool)]
    assert phi(q) == naive_nearest(net.space, net.points, q)


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


def test_act_many_escaping_row_raises(even_action):
    z1 = even_action.group_space
    S = z1.coords([(0,), (2,), (45,), (46,)])
    with pytest.raises(OutOfWindowError, match=r"\(45,\)"):
        even_action.act_many(S, z1.coords([(0,)]))
    assert even_action.act_many(S[:2], z1.coords([(0,)])).tolist() == \
        [[0], [2]]


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
        return (quasi_action(heis, greedy_net(heis, BallWindow(6), 2.0)),
                quasi_action(heis, group_ball_lattice(heis, 6)),
                dict(group_radius=1, n_targets=4, properness_radii=(1.0, 2.0),
                     properness_scan=6),
                dict(radii=(1, 2)), dict(group_radius=1, n_targets=4))
    f2 = FreeGroupModel(2)
    return (quasi_action(f2, group_ball_lattice(f2, 9)),
            quasi_action(f2, group_ball_lattice(f2, 8)),
            dict(group_radius=2, n_targets=4, properness_radii=(1.0, 2.0),
                 properness_scan=5),
            dict(radii=(2, 3)), dict(group_radius=2, n_targets=3))


@pytest.mark.parametrize("name", ["zd2", "heisenberg", "free_group2"])
def test_certificates_match_literal_loops(name):
    """On a Z^2 net, the Heisenberg ball-6 greedy net and an F2 ball
    lattice, the batched certifiers equal per-element loops over ``act``."""
    qa, qa2, axioms, orbit, conjugacy = _oracle_case(name)
    assert certify_axioms(qa, **axioms) == literal_axiom_certificate(qa, **axioms)
    assert orbit_map_qi(qa, **orbit).per_radius == \
        literal_orbit_constants(qa, **orbit)
    assert quasi_conjugacy_defect(qa, qa2, **conjugacy) == \
        literal_conjugacy_defect(qa, qa2, **conjugacy)


def test_empty_radii_are_domain_errors(even_action):
    with pytest.raises(DomainError):
        orbit_map_qi(even_action, radii=())
    with pytest.raises(DomainError):
        orbit_map_qi(even_action, radii=(0, 0))
    with pytest.raises(DomainError):
        certify_axioms(even_action, group_radius=6, n_targets=6,
                       properness_radii=())
