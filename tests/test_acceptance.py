"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.  Expected series values and sandwich constants were
computed with the independent oracles in ``oracles.py`` before being frozen
here.
"""

import math
import time

import numpy as np
import pytest

from roughcayley import (
    BallWindow,
    CayleyGraph,
    FreeGroupModel,
    HeisenbergModel,
    HorocyclicGraph,
    ZdModel,
    ball_sizes,
    build_graph,
    certify_axioms,
    certify_qi,
    classify_growth,
    compare_growth,
    c_boundary,
    folner_scan,
    greedy_net,
    group_ball_lattice,
    horocyclic_lattice,
    orbit_map_qi,
    quasi_action,
    quasi_conjugacy_defect,
    sample_probes,
    verify_quasilattice,
)

from conftest import make_even_lattice
from oracles import literal_c_boundary, naive_ball_sizes


def note(line):
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def horo_lattice():
    return horocyclic_lattice((-20.0, 20.0), (-3, 3))


@pytest.fixture(scope="module")
def horo_graph():
    return build_graph(horocyclic_lattice((-30.0, 30.0), (-3, 3)))


@pytest.fixture(scope="module")
def net220():
    return greedy_net(ZdModel(2), BallWindow(220), 3.0)


@pytest.fixture(scope="module")
def net_graph(net220):
    return build_graph(net220)


@pytest.fixture(scope="module")
def free_graph():
    return build_graph(group_ball_lattice(FreeGroupModel(2), 10))


def test_criterion_01_horocyclic_density(horo_lattice):
    t0 = time.perf_counter()
    probes = sample_probes(horo_lattice.space, horo_lattice.window,
                           1000, 1.2, seed=2026)
    cert, _ = verify_quasilattice(horo_lattice, probes, [1.0], seed=2026)
    elapsed = time.perf_counter() - t0
    note(f"criterion 1: density <= {cert['max_min_distance']:.4f} over 1000 "
         f"probes in {elapsed:.2f}s")
    assert cert["n_probes"] == 1000
    assert cert["max_min_distance"] <= 1.07
    assert elapsed < 10.0


def test_criterion_02_horocyclic_multiplicity(horo_lattice):
    probes = sample_probes(horo_lattice.space, horo_lattice.window,
                           1000, 1.2, seed=2026)
    _, profile = verify_quasilattice(horo_lattice, probes, [1.0], seed=2026)
    bound = (2 * 1 + 1) * (2 * math.ceil(math.sqrt(2 * (math.e ** 2 - 1))) + 1)
    observed = profile.at(1.0)
    note(f"criterion 2: multiplicity M(1) observed {observed}, "
         f"paper-derived bound {bound}")
    assert bound == 27
    assert observed <= 24
    assert observed <= bound


def test_criterion_03_qi_inequalities(even_graph_100, net_graph, horo_graph,
                                      free_graph):
    cases = [
        ("zd(1) even", even_graph_100, dict(seed=11)),
        ("zd(2) delta-3 net", net_graph, dict(seed=12)),
        ("horocyclic", horo_graph,
         dict(seed=13, n_sources=200, max_nodes_per_source=2500)),
        ("free ball", free_graph, dict(seed=14)),
    ]
    for name, graph, kw in cases:
        cert = certify_qi(graph, n_pairs=1000, **kw)
        note(f"criterion 3 [{name}]: {cert.sample_size} interior pairs, "
             f"zero violations (C={cert.C:g}, r={cert.r:g})")
        assert cert.sample_size >= 1000


def test_criterion_04_quasi_action_axioms(net220):
    qa = quasi_action(net220.space, net220)
    certs = [certify_axioms(qa, group_radius=m, seed=0) for m in (5, 10, 15)]
    assoc = [c.associativity_defect for c in certs]
    note(f"criterion 4: associativity defects at radii 5/10/15 = {assoc}; "
         f"identity defect {certs[0].identity_defect:g} <= "
         f"{net220.density_radius_r:g}")
    assert assoc[0] == assoc[1] == assoc[2]
    for cert in certs:
        assert cert.identity_defect <= net220.density_radius_r
        radii = [r for r, _ in cert.properness]
        widths = [w for _, w in cert.properness]
        assert radii == sorted(radii)
        assert widths == sorted(widths)  # witness sets nested in R
    # the witness sets themselves nest: check explicitly at the smallest radius
    z2 = net220.space
    scan = z2.enumerate_window(BallWindow(8))
    x = qa.phi(z2.identity())
    sets = [{s for s in scan if z2.distance(qa.act(s, x), x) <= R}
            for R in (2.0, 4.0, 6.0)]
    assert sets[0] <= sets[1] <= sets[2]


def test_criterion_05_orbit_map_stability(net220, even_graph_100):
    z2 = net220.space
    rep_net = orbit_map_qi(quasi_action(z2, net220), radii=(5, 10, 15), seed=0)
    rows = {m: (C, r) for m, C, r, _ in rep_net.per_radius}
    note(f"criterion 5 [net]: per-radius constants {rep_net.per_radius}")
    assert rows[15][0] <= 1.10 * rows[10][0] + 1e-12
    assert rows[15][1] <= 1.10 * rows[10][1] + 1e-12
    assert rows[15][0] <= 3.0 + 1e-9

    lat_even = even_graph_100.lattice
    rep_even = orbit_map_qi(quasi_action(lat_even.space, lat_even),
                            radii=(5, 10, 15), seed=0)
    rows_e = {m: (C, r) for m, C, r, _ in rep_even.per_radius}
    note(f"criterion 5 [even]: per-radius constants {rep_even.per_radius}")
    assert rows_e[15][0] <= 1.10 * rows_e[10][0] + 1e-12
    assert rows_e[15][1] <= 1.10 * rows_e[10][1] + 1e-12

    exact_cases = [
        ("zd(2) ball", quasi_action(z2, group_ball_lattice(z2, 40)), (5, 10, 15)),
        ("free ball", quasi_action(FreeGroupModel(2),
                                   group_ball_lattice(FreeGroupModel(2), 8)),
         (4, 6, 8)),
    ]
    for name, qa, radii in exact_cases:
        rep = orbit_map_qi(qa, radii=radii, seed=0)
        note(f"criterion 5 [{name}]: per-radius constants {rep.per_radius}")
        for _, C, r, _ in rep.per_radius:
            assert C == 1.0 and r == 0.0


def test_criterion_06_uniqueness_quasi_conjugacy():
    z2 = ZdModel(2)
    net2 = greedy_net(z2, BallWindow(45), 2.0)
    net3 = greedy_net(z2, BallWindow(45), 3.0)
    qa2 = quasi_action(z2, net2)
    qa3 = quasi_action(z2, net3)
    d8 = quasi_conjugacy_defect(qa2, qa3, group_radius=8, seed=0)
    d12 = quasi_conjugacy_defect(qa2, qa3, group_radius=12, seed=0)
    note(f"criterion 6: conjugacy defect radius 8 -> {d8:g}, radius 12 -> {d12:g}")
    assert math.isfinite(d8) and math.isfinite(d12)
    assert d12 <= 1.10 * d8 + 1e-12


def test_criterion_07_same_growth(net_graph, free_graph):
    z2 = ZdModel(2)
    group_series = ball_sizes(z2, m_max=25)
    graph_series = ball_sizes(net_graph, None, 25)
    verdict = compare_growth(group_series, graph_series)
    note(f"criterion 7 [zd(2) vs net graph]: constants {verdict.constants}")
    assert verdict.equivalent
    assert all(v <= 8 for v in verdict.constants)

    f2 = FreeGroupModel(2)
    free_series = ball_sizes(f2, m_max=10)
    free_graph_series = ball_sizes(
        free_graph, free_graph.lattice.index_of(()), 10)
    verdict_f = compare_growth(free_series, free_graph_series)
    note(f"criterion 7 [free vs ball graph]: constants {verdict_f.constants}")
    assert verdict_f.equivalent
    assert all(v <= 8 for v in verdict_f.constants)

    cross = compare_growth(group_series, ball_sizes(f2, m_max=12))
    note(f"criterion 7 [zd(2) vs free]: equivalent={cross.equivalent}")
    assert not cross.equivalent


GROWTH_CASES = [
    ("zd1", lambda: ZdModel(1), 30, "polynomial", 1.0, 0.2),
    ("zd2", lambda: ZdModel(2), 25, "polynomial", 2.0, 0.2),
    ("zd3", lambda: ZdModel(3), 15, "polynomial", 3.0, 0.2),
    ("free2", lambda: FreeGroupModel(2), 12, "exponential", math.log(3), 0.05),
    ("heisenberg", lambda: HeisenbergModel(), 10, "polynomial", 4.0, 0.5),
]


@pytest.mark.parametrize("name,make,m_max,kind,target,tol",
                         GROWTH_CASES, ids=[c[0] for c in GROWTH_CASES])
def test_criterion_08_growth_classification(name, make, m_max, kind, target, tol):
    series = ball_sizes(make(), m_max=m_max)
    verdict = classify_growth(series)
    estimate = "none" if verdict.estimate is None else f"{verdict.estimate:.4f}"
    note(f"criterion 8 [{name}]: {verdict.kind} estimate={estimate} "
         f"(target {target:g} +- {tol:g})")
    assert verdict.kind == kind
    assert abs(verdict.estimate - target) <= tol


def test_criterion_09_amenability_dichotomy(free_graph):
    rep = folner_scan(CayleyGraph(ZdModel(2)), 1, "boxes", 0.1, range(2, 46))
    note(f"criterion 9 [zd(2)]: best ratio {rep.best_ratio:.4f} "
         f"(achieved={rep.achieved}, {rep.entries[-1][0]})")
    assert rep.achieved

    rep_h = folner_scan(CayleyGraph(HeisenbergModel()), 1, "metric_balls",
                        0.2, [10, 20, 30, 40, 42, 44])
    note(f"criterion 9 [heisenberg]: best ratio {rep_h.best_ratio:.4f} "
         f"(achieved={rep_h.achieved}, |A|={rep_h.entries[-1][1]})")
    assert rep_h.achieved

    rep_f = folner_scan(CayleyGraph(FreeGroupModel(2)), 1, "metric_balls",
                        0.4, range(1, 9))
    ratios = [e[3] for e in rep_f.entries]
    note(f"criterion 9 [free]: ratios {['%.3f' % r for r in ratios]} "
         f"(achieved={rep_f.achieved})")
    assert not rep_f.achieved
    assert len(rep_f.entries) == 8
    assert min(ratios) >= 0.5

    hg = HorocyclicGraph()
    rep_b = folner_scan(hg, 1, "metric_balls", 0.05, [1, 2])
    rep_x = folner_scan(hg, 1, "boxes", 0.05, [1, 2, 3, 4])
    sizes = [e[1] for e in rep_b.entries + rep_x.entries]
    ratios = [e[3] for e in rep_b.entries + rep_x.entries]
    note(f"criterion 9 [horocyclic]: sizes {sizes}, min ratio "
         f"{min(ratios):.3f} (achieved={rep_b.achieved or rep_x.achieved})")
    assert max(sizes) <= 10 ** 4
    assert max(sizes) >= 5000
    assert not rep_b.achieved and not rep_x.achieved
    assert min(ratios) >= 0.05


def test_criterion_10_oracle_equivalences(even_graph_100):
    x0 = even_graph_100.lattice.index_of((0,))
    assert even_graph_100.n <= 1000
    series = ball_sizes(even_graph_100, x0, 10)
    assert series.values == naive_ball_sizes(even_graph_100, x0, 10)

    g2 = build_graph(group_ball_lattice(ZdModel(2), 6))
    assert g2.n <= 1000
    x0 = g2.lattice.index_of((0, 0))
    assert ball_sizes(g2, x0, 2).values == naive_ball_sizes(g2, x0, 2)

    rng = np.random.default_rng(2026)
    graphs = [
        build_graph(group_ball_lattice(ZdModel(1), 15), threshold=1.0),
        build_graph(make_even_lattice(30)),
        build_graph(group_ball_lattice(ZdModel(2), 7)),
        build_graph(group_ball_lattice(FreeGroupModel(2), 4)),
    ]
    checked = 0
    while checked < 10:
        g = graphs[rng.integers(0, len(graphs))]
        c = int(rng.integers(1, 3))
        depths = g.border_depths()
        deep = [i for i in range(g.n) if depths[i] > c]
        if len(deep) < 2:
            continue
        size = int(rng.integers(1, max(2, min(len(deep) // 2, 40))))
        A = sorted(int(v) for v in rng.choice(deep, size=size, replace=False))
        assert c_boundary(g, A, c) == literal_c_boundary(g, A, c)
        checked += 1
    note("criterion 10: ball counts and c-boundaries match the literal "
         "definition oracles (2 windows, 10 random boundary instances)")
