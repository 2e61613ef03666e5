"""The benchmark's trace recorder (``perfbench/tracer.py``) patches names of
the library from the outside.  A refactor that drops or renames one of
them makes every traced benchmark run fail; this test fails first."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from roughcayley import cli, graphs, spaces

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_trace_recorder_patches_and_restores_every_name():
    tracer = load_tracer()
    owners = [module for name, module in sys.modules.items()
              if name == "roughcayley" or name.startswith("roughcayley.")]
    owners += [*tracer.MODEL_CLASSES, *tracer.GRAPH_CLASSES,
               graphs.QuasiLattice, tracer.spaces.SpaceModel,
               tracer.actions.NearestIndex]
    before = [dict(vars(owner)) for owner in owners]
    rec = tracer.Recorder("t")
    try:
        rec.install()
        patched = {(owner, attr) for owner, attr, _ in rec._patches}
        for name in [(graphs, "hyperbolic_distance_arrays"),
                     (graphs.RoughGraph, "neighbors"),
                     (graphs.RoughGraph, "border_depths"),
                     *((cls, "enumerate_window")
                       for cls in tracer.MODEL_CLASSES)]:
            assert name in patched
        assert graphs.hyperbolic_distance_arrays is not \
            tracer.spaces.hyperbolic_distance_arrays
    finally:
        rec.uninstall()
    for owner, names in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(names), owner
        assert all(now[key] is value for key, value in names.items()), owner


def test_trace_recorder_wraps_a_shared_method_once_per_class():
    """``HeisenbergModel.enumerate_window`` is a class-level alias of
    ``ZdModel``'s: the recorder gives each class its own wrapper and puts
    the one shared function back on both."""
    tracer = load_tracer()
    shared = vars(spaces.ZdModel)["enumerate_window"]
    assert vars(spaces.HeisenbergModel)["enumerate_window"] is shared
    rec = tracer.Recorder("t")
    try:
        rec.install()
        zd = vars(spaces.ZdModel)["enumerate_window"]
        heis = vars(spaces.HeisenbergModel)["enumerate_window"]
        assert zd is not heis and shared not in (zd, heis)
    finally:
        rec.uninstall()
    assert vars(spaces.ZdModel)["enumerate_window"] is shared
    assert vars(spaces.HeisenbergModel)["enumerate_window"] is shared


def test_traced_cli_runs_write_the_cli_layout(tmp_path, capsys):
    """The recorder swaps ``cli.json`` for a stand-in with only ``dump``,
    ``dumps``, ``load`` and ``loads``; the CLI's writer must get by with
    those, or every traced benchmark pass fails."""
    tracer = load_tracer()
    lattice, graph = tmp_path / "lat.json", tmp_path / "graph.json"
    rec = tracer.Recorder("t")
    try:
        rec.install()
        assert cli.main(["lattice", "build", "--space", "zd", "--d", "2",
                         "--radius", "10", "--delta", "2", "--probes", "20",
                         "--out", str(lattice)]) == 0
        assert cli.main(["graph", "build", "--lattice", str(lattice),
                         "--out", str(graph)]) == 0
    finally:
        rec.uninstall()
    assert not isinstance(cli.json, tracer._TracedJson)
    for path in (lattice, graph):
        raw = path.read_text()
        assert raw == json.dumps(json.loads(raw), sort_keys=True,
                                 indent=1) + "\n"


@pytest.mark.parametrize("space", [
    ["--horocyclic", "--n", "-2..2", "--u", "-8..8"],
    ["--space", "heisenberg", "--radius", "5", "--delta", "2"],
], ids=["horocyclic", "heisenberg"])
def test_traced_lattice_builds_certify_as_untraced_ones(tmp_path, capsys,
                                                        space):
    """The recorder replaces ``graphs.hyperbolic_distance_arrays`` and
    ``nets.verify_quasilattice``, which the density certificate reaches
    through the edge builders' candidate pairs: a traced ``lattice build
    --probes`` must still run and write the certificate an untraced one
    writes."""
    argv = ["--seed", "5", "lattice", "build", *space, "--probes", "200",
            "--margin", "1.5", "--R", "1,1.5"]
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli.main(argv + ["--out", str(plain)]) == 0
    tracer = load_tracer()
    rec = tracer.Recorder("t")
    try:
        rec.install()
        assert cli.main(argv + ["--out", str(traced)]) == 0
    finally:
        rec.uninstall()
    assert "nets.verify_quasilattice" in {span[1] for span in rec.spans}
    certificates = [json.loads(path.read_text())["certificates"]
                    for path in (plain, traced)]
    assert certificates[0] == certificates[1]
    assert certificates[0]["density"]["n_probes"] == 200


def test_traced_quasi_action_runs_write_what_untraced_ones_write(tmp_path,
                                                                 capsys):
    """The recorder replaces ``NearestIndex.__call__``, which the
    certifiers reach only for a caller's point: their batches go through
    ``NearestIndex.many``.  Traced ``qaction certify`` and ``qaction
    conjugacy`` runs must still exit 0 and write the untraced files."""
    nets = {}
    for delta in ("2", "3"):
        nets[delta] = tmp_path / f"net{delta}.json"
        assert cli.main(["lattice", "build", "--space", "zd", "--d", "2",
                         "--radius", "30", "--delta", delta, "--probes", "0",
                         "--out", str(nets[delta])]) == 0
    commands = {
        "certify": ["qaction", "certify", "--lattice", str(nets["3"]),
                    "--group-radius", "4"],
        "conjugacy": ["qaction", "conjugacy", "--lattice", str(nets["2"]),
                      "--lattice2", str(nets["3"]), "--group-radius", "4"],
    }
    tracer = load_tracer()
    for name, argv in commands.items():
        plain, traced = tmp_path / f"{name}.json", tmp_path / f"{name}-t.json"
        assert cli.main(["--seed", "3", *argv, "--out", str(plain)]) == 0
        rec = tracer.Recorder("t")
        try:
            rec.install()
            assert cli.main(["--seed", "3", *argv, "--out", str(traced)]) == 0
        finally:
            rec.uninstall()
        assert "cli.qaction" in {span[1] for span in rec.spans}
        assert traced.read_text() == plain.read_text()
