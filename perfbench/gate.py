"""Correctness gate for the benchmark's stages.

Outputs that do not depend on the seed (lattice points, edge lists, growth
series, Folner entries, seed-free CLI output files) are compared by SHA-256
digest against ``expected.json``, which was recorded from this code with
``record.py``.  Outputs that depend on the seed are held to the paper's
invariants instead.  A stage that raises, or whose output misses a check,
counts once as a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from pathlib import Path

TOL = 1e-9
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    """Counts stages attempted and failed; ``expected=None`` records digests."""

    def __init__(self, expected=None):
        self.expected = expected
        self.recorded = {}
        self.attempted = 0
        self.failures = []     # (stage, reason)
        self._stage = None
        self._problems = None

    @property
    def failed(self):
        return len(self.failures)

    @contextlib.contextmanager
    def stage(self, name):
        """Collect the checks of one stage; the stage fails if any misses."""
        self._stage, self._problems = name, []
        try:
            yield
        except Exception as exc:  # a checker crash is a miss, not a benchmark crash
            self._problems.append(f"check raised {type(exc).__name__}: {exc}")
        finally:
            self.attempted += 1
            if self._problems:
                self.failures.append((name, "; ".join(self._problems)))
            self._stage = self._problems = None

    def fail(self, name, reason):
        """Record a stage that could not produce an output at all."""
        self.attempted += 1
        self.failures.append((name, reason))

    def require(self, ok, what):
        if not ok:
            self._problems.append(what)

    def same(self, what, value):
        """The value must match the digest recorded for this stage."""
        key = f"{self._stage}:{what}"
        got = digest(value)
        if self.expected is None:
            self.recorded[key] = got
            return
        want = self.expected.get(key)
        if want is None:
            self._problems.append(f"no recorded digest for {what}")
        elif want != got:
            self._problems.append(f"{what} differs from the recorded output")


def load_expected(workload):
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)[workload]


# ---------------------------------------------------------------------------
# checks shared by the workloads (and exercised by the gate's own test)


def check_lattice(gate, lattice):
    gate.same("points", [list(p) for p in lattice.points])


def check_graph(gate, graph):
    check_lattice(gate, graph.lattice)
    gate.same("edges", [[i, j] for i, j in graph.edges()])


def check_series(gate, values):
    gate.same("series", list(values))


def check_folner(gate, report):
    gate.same("folner", {
        "entries": [[d, s, b] for d, s, b, _ in report.entries],
        "achieved": report.achieved,
    })


def check_qi(gate, qi, n_pairs):
    gate.require(qi.sample_size >= n_pairs,
                 f"certify_qi checked {qi.sample_size} < {n_pairs} pairs")


def check_density(gate, cert, r, n_probes):
    gate.require(cert["n_probes"] == n_probes,
                 f"density certificate over {cert['n_probes']} probes")
    gate.require(cert["max_min_distance"] <= r + TOL,
                 f"density {cert['max_min_distance']} exceeds r = {r}")


def check_growth_kind(gate, kind, expected):
    gate.require(kind == expected, f"growth verdict {kind}, expected {expected}")


def read_cli_json(gate, path, seed):
    """Load a CLI output file: it must be in the CLI's own layout and record
    the seed it ran with.  Returns the document without its config block."""
    raw = Path(path).read_text()
    doc = json.loads(raw)
    gate.require(raw == json.dumps(doc, sort_keys=True, indent=1) + "\n",
                 f"{Path(path).name} is not in the CLI's JSON layout")
    config = doc.pop("config")
    gate.require(config["seed"] == seed,
                 f"{Path(path).name} records seed {config['seed']}")
    return doc


def read_series_csv(path):
    values = []
    for line in Path(path).read_text().splitlines():
        if line and not line.startswith("#") and not line.startswith("m,"):
            values.append(int(line.split(",")[1]))
    return values


def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)
