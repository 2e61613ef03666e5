"""Record the digests of the seed-independent stage outputs into
``expected.json``.  Run from the repository root, only when the library's
outputs are meant to change:

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate as g
import workloads
from worker import SCRATCH


def main():
    expected = {}
    SCRATCH.mkdir(exist_ok=True)
    for name, (setup, run_workload) in workloads.WORKLOADS.items():
        runner = workloads.Runner(g.Gate(expected=None))
        tmp = tempfile.mkdtemp(dir=SCRATCH)
        try:
            run_workload(runner, setup(), 0, Path(tmp))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if runner.gate.failures:
            print(f"{name}: {runner.gate.failures}", file=sys.stderr)
            return 1
        expected[name] = runner.gate.recorded
        print(f"{name}: {len(runner.gate.recorded)} digests, "
              f"{runner.gate.attempted} stages")
    with open(g.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
