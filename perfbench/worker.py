"""One pass of one workload, in the fresh process ``run.py`` starts for it.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
       --run-id ID --launched T

``--launched`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start, imports and model
construction.  The last line of standard output is one JSON record.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from roughcayley import nets, spaces

import calibrate
import gate as g
import workloads

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"
TRACE_DIR = ROOT / ".perfbench_traces"

# reference point sets for the per-model distance timing: the windows the
# workloads use, sampled in seeded pairs on a fresh model (cold memo)
DISTANCE_REFS = {
    "zd2": (lambda: spaces.ZdModel(2),
            lambda m: nets.group_ball_lattice(m, workloads.Z2_RADIUS), 20000),
    "heisenberg": (spaces.HeisenbergModel,
                   lambda m: nets.group_ball_lattice(
                       m, workloads.H_GRAPH_RADIUS), 300),
    "h2": (spaces.HyperbolicPlaneModel,
           lambda m: nets.horocyclic_lattice(workloads.HORO_GRAPH_U,
                                             workloads.HORO_N), 20000),
    "free2": (lambda: spaces.FreeGroupModel(2),
              lambda m: nets.group_ball_lattice(m, workloads.F2_RADIUS), 20000),
}


def distance_us(seed):
    """Microseconds per ``distance`` call for each model."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, (make, lattice_of, n_pairs) in DISTANCE_REFS.items():
        points = lattice_of(make()).points
        idx = rng.integers(0, len(points), size=(n_pairs, 2))
        pairs = [(points[i], points[j]) for i, j in idx]
        model = make()
        t0 = time.perf_counter()
        for x, y in pairs:
            model.distance(x, y)
        out[f"spaces.dist_us.{name}"] = (time.perf_counter() - t0) / n_pairs * 1e6
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--launched", type=float, required=True)
    args = ap.parse_args(argv)

    setup, run_workload = workloads.WORKLOADS[args.workload]
    ctx = setup()
    setup_s = time.monotonic() - args.launched

    recorder = None
    if args.trace:
        import tracer
        recorder = tracer.Recorder(args.run_id)
    cal = calibrate.Calibrator()
    runner = workloads.Runner(g.Gate(g.load_expected(args.workload)), recorder,
                              cal)
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    cal.sample()
    try:
        if recorder is not None:
            recorder.install()
        try:
            run_workload(runner, ctx, args.seed, tmp)
        finally:
            if recorder is not None:
                recorder.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    gate = runner.gate
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": sum(runner.stage_s.values()),
        "setup_s": setup_s,
        "cal_s": cal.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "growth_err": max(runner.growth_err.values(), default=None),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
        "stages": runner.stage_s,
    }
    if recorder is not None:
        record["layers"] = tracer.layer_metrics(recorder)
        record["layers"].update(distance_us(args.seed))
        TRACE_DIR.mkdir(exist_ok=True)
        recorder.write(TRACE_DIR / f"{args.run_id}.json")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
