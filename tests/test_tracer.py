"""The benchmark's trace recorder (``perfbench/tracer.py``) patches names of
the library from the outside.  A refactor that drops or renames one of
them makes every traced benchmark run fail; this test fails first."""

import importlib.util
import json
import sys
from pathlib import Path

from roughcayley import cli, graphs

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
