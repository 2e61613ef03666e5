import json
import math

import pytest

from roughcayley.cli import main


def run(*argv):
    return main(list(argv))


def test_space_list(capsys):
    assert run("space", "list") == 0
    out = capsys.readouterr().out
    for name in ("zd", "free_group", "heisenberg", "euclidean", "h2"):
        assert name in out


def test_horocyclic_lattice_build(tmp_path, capsys):
    out = tmp_path / "h2.json"
    code = run("lattice", "build", "--space", "h2", "--horocyclic",
               "--n", "-3..3", "--u", "-20..20", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["command"] == "lattice build"
    assert doc["construction"] == "horocyclic"
    assert doc["certificates"]["density"]["max_min_distance"] <= 1.07
    assert doc["certificates"]["multiplicity"][0][1] <= 24
    assert len(doc["points"]) > 1000


def test_pipeline_and_reproducibility(tmp_path, capsys):
    lat = tmp_path / "lat.json"
    assert run("--seed", "3", "lattice", "build", "--space", "zd", "--d", "2",
               "--delta", "3", "--radius", "25", "--probes", "0",
               "--out", str(lat)) == 0
    first = lat.read_text()
    assert run("--seed", "3", "lattice", "build", "--space", "zd", "--d", "2",
               "--delta", "3", "--radius", "25", "--probes", "0",
               "--out", str(lat)) == 0
    assert lat.read_text() == first  # byte-identical rerun

    g = tmp_path / "g.json"
    assert run("graph", "build", "--lattice", str(lat), "--out", str(g)) == 0
    assert run("graph", "stats", "--graph", str(g)) == 0
    out = capsys.readouterr().out
    assert "vertices" in out and "components: 1" in out

    dot = tmp_path / "g.dot"
    csv = tmp_path / "g.csv"
    assert run("graph", "export", "--graph", str(g), "--dot", str(dot),
               "--csv", str(csv)) == 0
    assert dot.read_text().splitlines()[0].startswith("// config:")
    assert csv.read_text().splitlines()[1] == "i,j,d"

    # scan the standard grid graph of the same window: unit threshold edges
    ulat = tmp_path / "unit.json"
    ug = tmp_path / "unit_graph.json"
    assert run("lattice", "build", "--space", "zd", "--d", "2",
               "--group-ball", "--radius", "25", "--probes", "0",
               "--out", str(ulat)) == 0
    assert run("graph", "build", "--lattice", str(ulat), "--threshold", "1",
               "--out", str(ug)) == 0
    report = tmp_path / "folner.json"
    assert run("folner", "scan", "--graph", str(ug), "--c", "1",
               "--epsilon", "0.5", "--family", "boxes", "--sizes", "2..10",
               "--out", str(report)) == 0
    doc = json.loads(report.read_text())
    assert doc["achieved"] is True
    # the ball about the deepest vertex (0, 0): spheres of radius 11 and 10
    capsys.readouterr()
    assert run("folner", "ratio", "--graph", str(ug), "--ball", "10",
               "--c", "1") == 0
    assert capsys.readouterr().out == (
        f"ball radius 10 (221 vertices): ratio {84 / 221:.6f}\n")


def test_growth_pipeline(tmp_path, capsys):
    lat = tmp_path / "free.json"
    assert run("lattice", "build", "--space", "free_group", "--k", "2",
               "--group-ball", "--radius", "6", "--probes", "0",
               "--out", str(lat)) == 0
    g = tmp_path / "free_graph.json"
    assert run("graph", "build", "--lattice", str(lat), "--out", str(g)) == 0
    series = tmp_path / "growth.csv"
    assert run("growth", "run", "--graph", str(g), "--max-m", "5",
               "--out", str(series)) == 0
    rows = [line for line in series.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("m,")]
    values = [int(r.split(",")[1]) for r in rows]
    assert values == [2 * 3 ** m - 1 for m in range(6)]

    group_series = tmp_path / "zd2.csv"
    assert run("growth", "run", "--space", "zd", "--d", "2", "--max-m", "20",
               "--out", str(group_series)) == 0
    assert run("growth", "classify", "--series", str(group_series)) == 0
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert verdict["class"] == "polynomial"

    assert run("growth", "compare", "--a", str(group_series),
               "--b", str(group_series)) == 0
    cmp_doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert cmp_doc["equivalent"] is True


def test_qaction_commands(tmp_path, capsys):
    lat = tmp_path / "ball.json"
    assert run("lattice", "build", "--space", "zd", "--d", "2",
               "--group-ball", "--radius", "25", "--probes", "0",
               "--out", str(lat)) == 0
    cert = tmp_path / "cert.json"
    assert run("qaction", "certify", "--lattice", str(lat),
               "--group-radius", "5", "--out", str(cert)) == 0
    doc = json.loads(cert.read_text())
    assert doc["identity_defect"] == 0.0
    assert doc["associativity_defect"] == 0.0
    assert run("qaction", "orbit-qi", "--lattice", str(lat),
               "--radii", "4,6,8") == 0
    out = capsys.readouterr().out
    assert "C=1.0000 r=0.0000" in out
    assert run("qaction", "conjugacy", "--lattice", str(lat),
               "--lattice2", str(lat), "--group-radius", "4") == 0


@pytest.mark.parametrize("radii", ["0", "0,0"])
def test_orbit_qi_without_pairs_exits_with_domain_error(tmp_path, capsys,
                                                         radii):
    lat = tmp_path / "ball.json"
    assert run("lattice", "build", "--space", "zd", "--d", "1",
               "--group-ball", "--radius", "10", "--probes", "0",
               "--out", str(lat)) == 0
    capsys.readouterr()
    assert run("qaction", "orbit-qi", "--lattice", str(lat),
               "--radii", radii) == 1
    assert "no pair of distinct elements" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    assert run("lattice", "build", "--space", "nosuch", "--radius", "3",
               "--delta", "1", "--out", str(tmp_path / "x.json")) == 2
    # border error: growth radius beyond the safe interior
    lat = tmp_path / "lat.json"
    run("lattice", "build", "--space", "zd", "--d", "1", "--group-ball",
        "--radius", "10", "--probes", "0", "--out", str(lat))
    g = tmp_path / "g.json"
    run("graph", "build", "--lattice", str(lat), "--out", str(g))
    assert run("growth", "run", "--graph", str(g), "--max-m", "40",
               "--out", str(tmp_path / "s.csv")) == 3
    capsys.readouterr()


def test_coarse_seed_env(tmp_path, monkeypatch, capsys):
    out = tmp_path / "lat.json"
    monkeypatch.setenv("COARSE_SEED", "99")
    assert run("--seed", "1", "lattice", "build", "--space", "zd", "--d", "1",
               "--group-ball", "--radius", "5", "--probes", "0",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 99
    monkeypatch.setenv("COARSE_SEED", "notanint")
    assert run("space", "list") == 2
