"""Run a fixed matrix of ``roughcayley`` command lines and digest what they do.

Usage: ``python tests/cli_matrix.py [SRC]``

Each case runs ``python -m roughcayley.cli`` as a subprocess with SRC (by
default the ``src`` directory next to this file's ``tests``) on PYTHONPATH
and one fresh temporary directory as its working directory, so every path
a case writes or prints is relative; SRC itself is printed as ``<src>``
(in a traceback, say).  The script prints one line per case (exit code,
a short sha256 of the case, name), a tally of exit codes, and one sha256
over the case names, exit codes, stdout, stderr and every output file.
Two source trees that print the same digest behave the same on every case;
the short per-case hashes show which cases differ.

The cases: ten lattices (Z^2 greedy nets of radius 25 and 40 and the word
ball of radius 12, Heisenberg and F2 greedy nets and word balls, an R^2
box, an h2 net and the horocyclic lattice) through ``lattice build
--probes 150``, ``lattice verify``, ``graph build``, ``graph stats``,
``graph export`` (DOT and CSV) and ``growth run``; ``qaction certify`` and
``orbit-qi`` on the seven group lattices; one ``qaction conjugacy``;
``growth run --space zd``; ``folner scan`` with all three families, on the
horocyclic graph too, and ``folner ratio``; eleven graph files with a bad
edge list, two with a threshold that is not finite, one with a negative
threshold and one with an edge longer than its threshold, twelve lattice
files with a bad point (four with a NaN or infinite coordinate on R^2 and
h2), a point with a coordinate past int64 under ``lattice verify``,
``graph build``, ``qaction certify`` and ``growth run``, and a density
radius of 1e308 under ``qaction certify``; the probe-count, margin and
boundary-constant cases that ``lattice verify`` and ``folner`` must
reject or answer; and the empty certificate
samples, the construction parameters that are not finite, the negative
multiplicity radius, the window pitches and the edge thresholds that
``qaction``, ``lattice`` and ``graph build`` must reject.  The first
stage runs the chains, two at a time; the second runs every other case
on its own, two at a time.
Pytest does not collect this file.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

LATTICES = {
    "z2-r25": ["--space", "zd", "--d", "2", "--radius", "25", "--delta", "3"],
    "z2-r40": ["--space", "zd", "--d", "2", "--radius", "40", "--delta", "3"],
    "z2-ball12": ["--space", "zd", "--d", "2", "--group-ball",
                  "--radius", "12"],
    "heis-net": ["--space", "heisenberg", "--radius", "6", "--delta", "2"],
    "heis-ball": ["--space", "heisenberg", "--group-ball", "--radius", "5"],
    "f2-net": ["--space", "free_group", "--k", "2", "--radius", "6",
               "--delta", "2"],
    "f2-ball": ["--space", "free_group", "--k", "2", "--group-ball",
                "--radius", "6"],
    "r2-box": ["--space", "euclidean", "--d", "2", "--box", "-6..6,-6..6",
               "--delta", "1"],
    "h2-net": ["--space", "h2", "--u", "-10..10", "--log-a", "-2.5..2.5",
               "--delta", "1"],
    "horo": ["--horocyclic", "--n", "-3..3", "--u", "-20..20"],
}
GROUP_LATTICES = list(LATTICES)[:7]


def lattice_chain(name):
    """Build, verify, join, describe, export and grow one lattice; act on
    it if it is a group lattice."""
    lat, g = f"{name}.json", f"{name}.graph.json"
    cases = [
        ("build", ["lattice", "build", *LATTICES[name], "--probes", "150",
                   "--out", lat]),
        ("verify", ["lattice", "verify", "--lattice", lat, "--probes", "150",
                    "--margin", "2.2", "--R", "1,2",
                    "--out", f"{name}.verify.json"]),
        ("graph-build", ["graph", "build", "--lattice", lat, "--out", g]),
        ("graph-stats", ["graph", "stats", "--graph", g]),
        ("graph-export", ["graph", "export", "--graph", g,
                          "--dot", f"{name}.dot", "--csv", f"{name}.csv"]),
        ("growth", ["growth", "run", "--graph", g, "--max-m", "1",
                    "--out", f"{name}.growth.csv"]),
    ]
    if name in GROUP_LATTICES:
        cases += [
            ("certify", ["qaction", "certify", "--lattice", lat,
                         "--group-radius", "1", "--targets", "3",
                         "--out", f"{name}.certify.json"]),
            ("orbit-qi", ["qaction", "orbit-qi", "--lattice", lat,
                          "--radii", "1,2,3", "--out", f"{name}.orbit.json"]),
        ]
    return [(f"{name}:{label}", argv, None) for label, argv in cases]


def folner_chain():
    """Scans of the unit-threshold graph of the Z^2 word ball of radius
    12."""
    g = "unit.graph.json"
    cases = [
        ("unit:build", ["lattice", "build", "--space", "zd", "--d", "2",
                        "--group-ball", "--radius", "12", "--probes", "0",
                        "--out", "unit.json"]),
        ("unit:graph-build", ["graph", "build", "--lattice", "unit.json",
                              "--threshold", "1", "--out", g]),
    ]
    for family in ("boxes", "metric_balls", "greedy_improved"):
        cases.append((f"unit:scan-{family}", [
            "folner", "scan", "--graph", g, "--family", family,
            "--sizes", "1..5", "--epsilon", "0.3",
            "--out", f"unit.{family}.json", "--csv", f"unit.{family}.csv"]))
    cases += [
        ("unit:ratio", ["folner", "ratio", "--graph", g, "--ball", "4"]),
    ]
    return [(name, argv, None) for name, argv in cases]


def after_lattices():
    """Cases that read the lattice chains' files, each on its own."""
    cases = [
        ("conjugacy", ["qaction", "conjugacy", "--lattice", "z2-r25.json",
                       "--lattice2", "z2-ball12.json", "--group-radius", "2",
                       "--out", "conjugacy.json"], None),
        ("growth-space-zd", ["growth", "run", "--space", "zd", "--d", "2",
                             "--max-m", "20", "--out", "zd.growth.csv"], None),
        ("horo:scan-balls", ["folner", "scan", "--graph", "horo.graph.json",
                             "--family", "metric_balls", "--sizes", "1..2",
                             "--epsilon", "0.1", "--out", "horo.scan.json"],
         None),
    ]
    bad_edges = {
        "bool": [[True, 1]], "float": [[0, 1.0]], "n": [[0, "n"]],
        "negative": [[-1, 0]], "loop": [[0, 0]], "repeat": ["repeat"],
        "triple": [[0, 1, 2]], "int": [5], "string": ["ab"],
        "huge": [[0, 2 ** 70]], "two": [[0, "n"], [-1, 0]],
    }
    for label, extra in bad_edges.items():
        path = f"bad-edge-{label}.json"
        cases.append((f"bad-edge:{label}", ["graph", "stats", "--graph", path],
                      (_bad_edges, "z2-ball12.graph.json", path, extra)))
    bad_points = {
        "unreduced": ("f2-ball.json", {"model": "free_group", "w": [1, -1]}),
        "letter-5": ("f2-ball.json", {"model": "free_group", "w": [5]}),
        "letter-0": ("f2-ball.json", {"model": "free_group", "w": [0]}),
        "float": ("z2-ball12.json", {"model": "zd", "x": [0.5, 1]}),
        "three": ("z2-ball12.json", {"model": "zd", "x": [0, 1, 2]}),
        "h2-negative": ("horo.json", {"model": "h2", "u": 0.0, "a": -1.0}),
        "h2-zero": ("horo.json", {"model": "h2", "u": 0.0, "a": 0.0}),
        "tag": ("z2-ball12.json", {"model": "heisenberg", "x": [0, 1]}),
        "r2-nan": ("r2-box.json", {"model": "euclidean",
                                   "x": [float("nan"), 0.0]}),
        "r2-inf": ("r2-box.json", {"model": "euclidean",
                                   "x": [0.0, float("inf")]}),
        "h2-nan": ("h2-net.json", {"model": "h2", "u": float("nan"),
                                   "a": 1.0}),
        "h2-inf": ("h2-net.json", {"model": "h2", "u": 0.0,
                                   "a": float("inf")}),
    }
    for label, (source, point) in bad_points.items():
        path = f"bad-point-{label}.json"
        cases.append((f"bad-point:{label}",
                      ["graph", "build", "--lattice", path,
                       "--out", f"bad-point-{label}.graph.json"],
                      (_bad_point, source, path, point)))
    for label in ("nan", "inf"):
        path = f"bad-threshold-{label}.json"
        cases.append((f"bad-threshold:{label}",
                      ["graph", "stats", "--graph", path],
                      (_bad_threshold, "z2-ball12.graph.json", path,
                       float(label))))
    # a graph file threshold below 0 or below an edge's length; a lattice
    # coordinate past int64 under each reader; a density radius whose
    # double overflows the properness scan
    big = {"model": "zd", "x": [2 ** 63, 0]}
    cases += [
        ("bad-threshold:neg", ["growth", "run", "--graph", "neg.graph.json",
                               "--max-m", "8", "--out", "neg.growth.csv"],
         (_edit, "z2-r25.graph.json", "neg.graph.json", ["threshold"], -1.0)),
        ("bad-threshold:short", ["graph", "stats", "--graph",
                                 "short.graph.json"],
         (_edit, "z2-r25.graph.json", "short.graph.json", ["threshold"],
          1.0)),
        ("big-point:verify", ["lattice", "verify", "--lattice",
                              "big-verify.json"],
         (_edit, "z2-ball12.json", "big-verify.json", ["points", 1], big)),
        ("big-point:graph-build", ["graph", "build", "--lattice",
                                   "big-build.json", "--out",
                                   "big-build.graph.json"],
         (_edit, "z2-ball12.json", "big-build.json", ["points", 1], big)),
        ("big-point:certify", ["qaction", "certify", "--lattice",
                               "big-certify.json"],
         (_edit, "z2-ball12.json", "big-certify.json", ["points", 1], big)),
        ("big-point:growth", ["growth", "run", "--graph", "big.graph.json",
                              "--max-m", "1", "--out", "big.growth.csv"],
         (_edit, "z2-ball12.graph.json", "big.graph.json",
          ["lattice", "points", 1], big)),
        ("r-1e308:certify", ["qaction", "certify", "--lattice",
                             "r-1e308.json"],
         (_edit, "z2-r40.json", "r-1e308.json", ["density_radius_r"],
          1e308)),
    ]
    # lattice verify with no probes, a negative count and margins that are
    # negative or not finite on a ball, a box and an h2 window; folner with
    # boundary constants below 1 or not finite
    for name in ("z2-r25", "r2-box", "horo"):
        for label, flags in {"probes-0": ["--probes", "0"],
                             "probes-neg": ["--probes", "-5"],
                             "margin-nan": ["--margin", "nan"],
                             "margin-inf": ["--margin", "inf"],
                             "margin-neg": ["--margin", "-800"],
                             "margin-huge-neg": ["--margin=-1e308"]}.items():
            cases.append((f"{name}:verify-{label}",
                          ["lattice", "verify", "--lattice", f"{name}.json",
                           *flags, "--out", f"{name}.verify-{label}.json"],
                          None))
    g = "unit.graph.json"
    cases += [
        ("unit:scan-c-nan", ["folner", "scan", "--graph", g, "--c", "nan",
                             "--epsilon", "0.3", "--sizes", "1..3"], None),
        ("unit:scan-c-half", ["folner", "scan", "--graph", g, "--c", "0.5",
                              "--family", "metric_balls", "--epsilon", "0.1",
                              "--sizes", "1..2"], None),
        ("unit:ratio-c-nan", ["folner", "ratio", "--graph", g, "--ball", "4",
                              "--c", "nan"], None),
        ("f2-ball:scan-c-half", ["folner", "scan", "--graph",
                                 "f2-ball.graph.json", "--c", "0.5",
                                 "--family", "metric_balls", "--sizes",
                                 "1..2", "--epsilon", "0.1"], None),
    ]
    # certificates over an empty sample, construction parameters that are
    # not finite, a negative multiplicity radius and window pitches that
    # are no finite number > 0
    cases += [
        ("z2-r40:certify-radius-neg", ["qaction", "certify", "--lattice",
                                       "z2-r40.json", "--group-radius", "-1"],
         None),
        ("z2-r40:certify-targets-0", ["qaction", "certify", "--lattice",
                                      "z2-r40.json", "--targets", "0"], None),
        ("z2-r40:conjugacy-radius-neg", ["qaction", "conjugacy", "--lattice",
                                         "z2-r40.json", "--lattice2",
                                         "z2-ball12.json",
                                         "--group-radius", "-2"], None),
        ("z2-r40:graph-threshold-nan", ["graph", "build", "--lattice",
                                        "z2-r40.json", "--threshold", "nan",
                                        "--out", "z2-r40.nan.graph.json"],
         None),
        ("z2-r40:verify-R-neg", ["lattice", "verify", "--lattice",
                                 "z2-r40.json", "--R=-1"], None),
        ("z2-r40:graph-threshold-inf", ["graph", "build", "--lattice",
                                        "z2-r40.json", "--threshold", "inf",
                                        "--out", "z2-r40.inf.graph.json"],
         None),
    ]
    for delta in ("nan", "inf"):
        cases.append((f"build-delta-{delta}", [
            "lattice", "build", "--space", "zd", "--d", "2", "--radius", "10",
            "--delta", delta, "--out", f"delta-{delta}.json"], None))
    windows = {"box": ["--space", "euclidean", "--d", "2",
                       "--box", "0..1,0..1"],
               "h2": ["--space", "h2", "--u", "-1..1", "--log-a", "-1..1"]}
    for name, window in windows.items():
        for label, pitch in (("0", "0"), ("nan", "nan"), ("neg", "-1")):
            cases.append((f"build-{name}-pitch-{label}", [
                "lattice", "build", *window, "--delta", "1",
                f"--pitch={pitch}", "--out", f"{name}-pitch-{label}.json"],
                None))
    return [[case] for case in cases]


def _bad_edges(cwd, source, path, extra):
    doc = json.loads((cwd / source).read_text())
    n = len(doc["lattice"]["points"])
    for edge in extra:
        if edge == "repeat":
            edge = doc["edges"][0]
        elif isinstance(edge, list):
            edge = [n if v == "n" else v for v in edge]
        doc["edges"].append(edge)
    (cwd / path).write_text(json.dumps(doc))


def _bad_point(cwd, source, path, point):
    doc = json.loads((cwd / source).read_text())
    doc["points"][1] = point
    (cwd / path).write_text(json.dumps(doc))


def _bad_threshold(cwd, source, path, threshold):
    doc = json.loads((cwd / source).read_text())
    doc["threshold"] = threshold
    (cwd / path).write_text(json.dumps(doc))


def _edit(cwd, source, path, keys, value):
    doc = json.loads((cwd / source).read_text())
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    (cwd / path).write_text(json.dumps(doc))


def run_case(case, cwd, env, src):
    name, argv, prepare = case
    if prepare is not None:
        prepare[0](cwd, *prepare[1:])
    proc = subprocess.run([sys.executable, "-m", "roughcayley.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)
    return (proc.returncode, proc.stdout.replace(src, "<src>"),
            proc.stderr.replace(src, "<src>"))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="?",
                        default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    env.pop("COARSE_SEED", None)
    stages = [
        [lattice_chain(name) for name in LATTICES] + [folner_chain()],
        after_lattices(),
    ]
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)

        def run_chain(chain):
            for case in chain:
                results[case[0]] = run_case(case, cwd, env, src)

        for stage in stages:
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(run_chain, stage))
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    names = [case[0] for stage in stages for chain in stage for case in chain]
    total = hashlib.sha256()
    for name in names:
        code, out, err = results[name]
        one = hashlib.sha256(json.dumps([name, code, out, err]).encode())
        total.update(one.digest())
        print(f"{code}  {one.hexdigest()[:12]}  {name}")
    for name, data in files.items():
        total.update(hashlib.sha256(name.encode()).digest())
        total.update(hashlib.sha256(data).digest())
    tally = Counter(results[name][0] for name in names)
    print(f"{len(names)} cases, {len(files)} files; exit codes "
          + ", ".join(f"{code}: {n}" for code, n in sorted(tally.items())))
    print(f"sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
