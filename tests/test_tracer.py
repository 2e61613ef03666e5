"""The benchmark's trace recorder (``perfbench/tracer.py``) patches names of
the library from the outside.  A refactor that drops or renames one of
them makes every traced benchmark run fail; this test fails first."""

import importlib.util
import sys
from pathlib import Path

from roughcayley import graphs

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
