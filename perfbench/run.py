"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh
single-threaded process (``worker.py``), so the Heisenberg memo and the
lattice and nearest-point caches start cold, as in every CLI invocation.
Passes repeat back to back until ``--seconds`` have elapsed, and the result
is the median over passes.  ``wall_s`` and ``setup_s`` are rescaled to a
host of fixed speed by the calibration each pass takes between its stages
(``calibrate.py``); the measured values are printed beside them.  With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("z2-cli", "heisenberg", "hyperbolic-free")
HOST_SCALED = ("wall_s", "setup_s")   # see calibrate.py
MIN_PASSES = 3          # untraced passes per run (2 pairs in a traced run)
RUN_LIMIT_S = 170.0     # hard stop for a whole run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class BenchmarkError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("COARSE_SEED", None)   # would override the CLI's --seed
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_pass(workload, seed, trace, run_id, deadline):
    """One workload pass in a fresh process; returns its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--run-id", run_id]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd + ["--launched", repr(launched)],
                            stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"{run_id} did not finish in time")
    except BaseException:   # interrupted or terminated: leave no worker behind
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchmarkError(f"{run_id} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{run_id} printed no record")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds like an interrupted one, stopping its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "roughcayley" / "__init__.py").is_file():
        print(f"error: no roughcayley sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    min_passes = 2 if args.trace else MIN_PASSES
    try:
        # start another pass only if it is expected to end within --seconds
        while True:
            elapsed = time.monotonic() - start
            if len(plain) >= min_passes and (
                    elapsed * (len(plain) + 1) / len(plain) > args.seconds):
                break
            run_id = f"{args.workload}-seed{args.seed}-{len(plain)}"
            plain.append(run_pass(args.workload, args.seed, 0, run_id,
                                  deadline))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, 1,
                                       run_id + "-traced", deadline))
        if args.trace:
            metrics, unstable = per_layer(spec["per_layer"], plain, traced)
        else:
            metrics, unstable = end_to_end(spec["end_to_end"], plain), []
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    for r in passes:
        for stage, reason in r["failures"]:
            print(f"FAILED stage {stage} (seed {r['seed']}, trace "
                  f"{r['trace']}): {reason}")

    for name in unstable:
        print(f"FAILED trace count {name} differs between traced passes")
    failed += len(unstable)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} "
          f"untraced and {len(traced)} traced passes, medians")
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:<40} {value} {m['unit']}")
    print(f"  {'failed_frac':<40} {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} stages)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(spec, plain):
    """Medians over passes; times are rescaled to the reference host."""
    metrics = {}
    for m in spec:
        values = [r[m["name"]] for r in plain]
        if None in values:
            raise BenchmarkError(f"a pass measured no {m['name']}")
        if m["name"] in HOST_SCALED:
            print(f"  {m['name']}: measured {['%.4f' % v for v in values]}")
            values = [calibrate.reference_s(v, r["cal_s"])
                      for v, r in zip(values, plain)]
        lo, hi = quartiles(values)
        print(f"  {m['name']}: passes {['%.4f' % v for v in values]}, "
              f"quartiles {lo:.4f}..{hi:.4f}")
        metrics[m["name"]] = {"value": statistics.median(values),
                              "unit": m["unit"]}
    return metrics


def per_layer(spec, plain, traced):
    """Medians of traced passes; counts and ratios must repeat exactly."""
    metrics, unstable = {}, []
    for m in spec:
        name = m["name"]
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(r["wall_s"] for r in plain))
        else:
            values = [r["layers"][name] for r in traced]
            if m["unit"] in ("s", "us"):
                value = statistics.median(values)
            else:
                value = values[0]
                if len(set(values)) > 1:
                    unstable.append(name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, unstable


if __name__ == "__main__":
    sys.exit(main())
