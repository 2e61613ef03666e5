"""The benchmark's correctness gate counts perturbed outputs as failures."""

import copy
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from roughcayley import (  # noqa: E402
    CayleyGraph,
    QiConstants,
    ZdModel,
    build_graph,
    folner_scan,
    group_ball_lattice,
)

import gate as g  # noqa: E402
from workloads import Runner  # noqa: E402


def recorded(check, value):
    rec = g.Gate(expected=None)
    with rec.stage("stage"):
        check(rec, value)
    return rec.recorded


def gated(expected, check, value):
    gate = g.Gate(expected)
    with gate.stage("stage"):
        check(gate, value)
    return gate


def test_dropped_edge_is_a_failed_stage():
    graph = build_graph(group_ball_lattice(ZdModel(2), 6))
    expected = recorded(g.check_graph, graph)
    assert gated(expected, g.check_graph, graph).failed == 0

    perturbed = copy.deepcopy(graph)
    i, j = next(perturbed.edges())
    perturbed.adjacency[i].remove(j)
    perturbed.adjacency[j].remove(i)
    gate = gated(expected, g.check_graph, perturbed)
    assert (gate.attempted, gate.failed) == (1, 1)
    assert "edges differs" in gate.failures[0][1]


def test_changed_folner_boundary_is_a_failed_stage():
    report = folner_scan(CayleyGraph(ZdModel(2)), 1, "boxes", 0.1, range(2, 8))
    expected = recorded(g.check_folner, report)
    assert gated(expected, g.check_folner, report).failed == 0

    desc, size, boundary, ratio = report.entries[0]
    changed = dataclasses.replace(
        report, entries=((desc, size, boundary + 1, ratio),) + report.entries[1:])
    gate = gated(expected, g.check_folner, changed)
    assert (gate.attempted, gate.failed) == (1, 1)


def test_missed_invariants_and_raising_stages_are_counted():
    run = Runner(g.Gate(expected={}))
    short = QiConstants(C=2.0, r=2.0, sample_size=999, certified_over="test")
    run.stage("qi", lambda: short, lambda qi: g.check_qi(run.gate, qi, 1000))
    run.stage("kind", lambda: "exponential",
              lambda kind: run.growth("zd2", kind, 2.0, "polynomial", 2.0))
    run.stage("raises", lambda: 1 / 0, lambda out: None)
    run.stage("unrecorded", lambda: [1, 2],
              lambda out: run.gate.same("series", out))
    run.stage("passes", lambda: 1, lambda out: run.gate.require(out == 1, "one"))
    assert run.gate.attempted == 5
    assert [name for name, _ in run.gate.failures] == [
        "qi", "kind", "raises", "unrecorded"]
