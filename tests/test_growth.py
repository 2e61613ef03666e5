import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughcayley import (
    BallWindow,
    FreeGroupModel,
    GrowthSeries,
    HeisenbergModel,
    QuasiLattice,
    RoughGraph,
    ZdModel,
    ball_sizes,
    build_graph,
    classify_growth,
    compare_growth,
    group_ball_lattice,
    horocyclic_lattice,
)
from roughcayley.errors import BorderError, DomainError, SchemaError

from conftest import make_even_lattice
from oracles import bfs_ball_depths, naive_ball_sizes


def oracle_ball_counts(space, m_max):
    depth = bfs_ball_depths(space, m_max)
    return tuple(sum(1 for d in depth.values() if d <= m)
                 for m in range(m_max + 1))


def test_group_ball_counts_against_bfs_oracle():
    assert ball_sizes(ZdModel(2), m_max=2).values == (1, 5, 13)
    assert ball_sizes(FreeGroupModel(2), m_max=2).values == (1, 5, 17)
    # free balls grow like (2k - 1)^m, so their BFS stops earlier
    for space, m in ((ZdModel(1), 10), (ZdModel(2), 10), (ZdModel(3), 10),
                     (HeisenbergModel(), 10), (FreeGroupModel(1), 10),
                     (FreeGroupModel(2), 8), (FreeGroupModel(3), 5)):
        assert ball_sizes(space, m_max=m).values == \
            oracle_ball_counts(space, m)


@pytest.mark.parametrize("space", [ZdModel(1), ZdModel(2), ZdModel(3),
                                   HeisenbergModel()],
                         ids=["zd1", "zd2", "zd3", "heisenberg"])
def test_ball_sizes_count_the_model_balls(space):
    assert space.ball_sizes(30) == tuple(len(space._ball(r))
                                         for r in range(31))


def test_heisenberg_ball_values():
    assert ball_sizes(HeisenbergModel(), m_max=6).values == \
        (1, 5, 17, 53, 135, 299, 593)


def test_zero_radius_series():
    assert ball_sizes(ZdModel(3), m_max=0).values == (1,)
    for space in (ZdModel(3), FreeGroupModel(2), HeisenbergModel()):
        assert ball_sizes(space, m_max=-1).values == (1,)


def test_graph_ball_sizes_match_naive_filter():
    g = build_graph(make_even_lattice(60))
    x0 = g.lattice.index_of((0,))
    series = ball_sizes(g, x0, 6)
    assert series.values == naive_ball_sizes(g, x0, 6)
    g2 = build_graph(group_ball_lattice(ZdModel(2), 6))
    assert g2.n <= 1000
    x0 = g2.lattice.index_of((0, 0))
    series2 = ball_sizes(g2, x0, 2)
    assert series2.values == naive_ball_sizes(g2, x0, 2)


@pytest.mark.parametrize("x0", [-1, -42, 41])
@pytest.mark.parametrize("m_max", [0, 3])
def test_graph_ball_sizes_reject_ids_outside_the_graph(x0, m_max):
    # 41 vertices; -1 used to wrap onto the last vertex (20,)
    g = build_graph(group_ball_lattice(ZdModel(1), 20))
    with pytest.raises(DomainError):
        ball_sizes(g, x0, m_max)


def test_graph_border_truncation_error():
    g = build_graph(make_even_lattice(20))
    x0 = g.lattice.index_of((0,))
    with pytest.raises(BorderError) as err:
        ball_sizes(g, x0, 50)
    assert err.value.max_safe is not None
    safe = err.value.max_safe
    assert ball_sizes(g, x0, safe).values[-1] >= 1


def test_graph_ball_without_border_is_counted_in_full():
    # a path 0-1-2 whose vertices are all deep, and a border vertex 3 on its
    # own: no window can cut a ball about vertex 0
    lattice = QuasiLattice(space=ZdModel(1), window=BallWindow(4),
                           points=[(0,), (1,), (-1,), (4,)],
                           separation_delta=1.0, density_radius_r=0.0,
                           construction="test")
    g = RoughGraph(lattice=lattice, threshold=1.0,
                   adjacency=[[1, 2], [0], [0], []])
    assert g.border_depths().tolist() == [np.iinfo(np.int64).max] * 3 + [0]
    for m_max in range(5):
        assert ball_sizes(g, 0, m_max).values == naive_ball_sizes(g, 0, m_max)
    assert ball_sizes(g, 0, 4).values == (1, 3, 3, 3, 3)
    with pytest.raises(BorderError):
        ball_sizes(g, 3, 1)


def test_classify_polynomial_quadratic():
    values = tuple(2 * m * m + 2 * m + 1 for m in range(31))
    v = classify_growth(GrowthSeries("oracle", None, values))
    assert v.kind == "polynomial"
    assert abs(v.estimate - 2.0) <= 0.2


def test_classify_exponential():
    values = tuple(2 * 3 ** m - 1 for m in range(13))
    v = classify_growth(GrowthSeries("oracle", None, values))
    assert v.kind == "exponential"
    assert abs(v.estimate - math.log(3)) <= 0.05


def test_classify_constant_series():
    v = classify_growth(GrowthSeries("oracle", None, (1,) * 12))
    assert v.kind == "polynomial"
    assert abs(v.estimate) <= 1e-12


def test_classify_short_series_inconclusive():
    v = classify_growth(GrowthSeries("oracle", None, (1, 3, 5)))
    assert v.kind == "inconclusive"
    assert "shorter" in v.diagnostics["reason"]


def test_classify_scale_invariant():
    base = tuple(2 * m * m + 2 * m + 1 for m in range(26))
    scaled = tuple(7 * v for v in base)
    a = classify_growth(base)
    b = classify_growth(scaled)
    assert a.kind == b.kind == "polynomial"
    assert abs(a.estimate - b.estimate) <= 1e-9
    base_e = tuple(2 * 3 ** m - 1 for m in range(13))
    assert classify_growth(tuple(3 * v for v in base_e)).kind == "exponential"


def zd_ball_counts(d, m_max):
    """Closed-form l1-ball counts of Z^d: sum_k 2^k C(d, k) C(m, k)."""
    return tuple(sum(2 ** k * math.comb(d, k) * math.comb(m, k)
                     for k in range(d + 1))
                 for m in range(m_max + 1))


def test_zd_closed_form_matches_ball_sizes():
    for d in (1, 2, 3):
        assert zd_ball_counts(d, 8) == oracle_ball_counts(ZdModel(d), 8)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_classify_zd_closed_form_degree(d):
    v = classify_growth(zd_ball_counts(d, 15))
    assert v.kind == "polynomial"
    assert abs(v.estimate - d) <= 0.2


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 6),
       st.lists(st.integers(0, 10 ** 6), min_size=7, max_size=30),
       st.floats(1e-6, 1e6))
def test_classify_invariant_under_rescaling(start, steps, c):
    values = [start]
    for step in steps:
        values.append(values[-1] + step)
    a = classify_growth(values)
    b = classify_growth([c * v for v in values])
    assert a.kind == b.kind
    if a.estimate is None:
        assert b.estimate is None
    else:
        assert abs(a.estimate - b.estimate) <= 1e-9


def test_compare_reflexive_and_symmetric():
    a = ball_sizes(ZdModel(2), m_max=20)
    same = compare_growth(a, a)
    assert same.equivalent and same.constants == (1, 1, 0)
    b = ball_sizes(FreeGroupModel(2), m_max=10)
    ab = compare_growth(a, b)
    ba = compare_growth(b, a)
    assert ab.equivalent == ba.equivalent is False


def test_compare_rejects_degenerate_overlap():
    a = ball_sizes(ZdModel(2), m_max=25)
    b = ball_sizes(FreeGroupModel(2), m_max=12)
    verdict = compare_growth(a, b)
    assert not verdict.equivalent
    assert verdict.constants is None


def test_series_validation():
    with pytest.raises(DomainError):
        GrowthSeries("bad", None, (2, 3))
    with pytest.raises(DomainError):
        GrowthSeries("bad", None, (1, 3, 2))


def test_series_csv_roundtrip():
    s = ball_sizes(ZdModel(2), m_max=6)
    text = s.to_csv()
    back = GrowthSeries.from_csv(text)
    assert back.values == s.values
    with pytest.raises(SchemaError):
        GrowthSeries.from_csv("m,count\n0,1\n2,5\n")
