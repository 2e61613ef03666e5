import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roughcayley import actions
from roughcayley.cli import _json_chunks, main
from roughcayley.errors import CertificationError
from roughcayley.nets import QuasiLattice


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


@pytest.mark.parametrize("radii", ["nan", "1,nan", "inf"])
def test_lattice_commands_reject_a_radius_that_is_not_finite(tmp_path,
                                                             capsys, radii):
    """A radius that is not finite exits 1 and writes no file: NaN is no
    JSON value, and a profile over nan has no order."""
    lat, out = tmp_path / "lat.json", tmp_path / "out.json"
    args = ["--space", "zd", "--d", "2", "--radius", "10", "--delta", "2",
            "--probes", "20"]
    assert run("lattice", "build", *args, "--R", radii, "--out", str(lat)) == 1
    assert "multiplicity radius" in capsys.readouterr().err
    assert not lat.exists()
    assert run("lattice", "build", *args, "--out", str(lat)) == 0
    assert run("lattice", "verify", "--lattice", str(lat), "--probes", "20",
               "--R", radii, "--out", str(out)) == 1
    assert not out.exists()


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
    capsys.readouterr()
    assert run("graph", "build", "--lattice", str(lat), "--out", str(g)) == 0
    assert capsys.readouterr().out == (
        "graph: 221 vertices, 2044 edges, threshold 8, max degree 22\n"
        f"wrote {g}\n")
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


@pytest.mark.parametrize("space", [["zd", "--d", "2"], ["free_group"],
                                   ["heisenberg"]])
def test_group_ball_of_negative_radius_is_empty(tmp_path, capsys, space):
    out = tmp_path / "lat.json"
    assert run("lattice", "build", "--space", *space, "--group-ball",
               "--radius", "-2", "--probes", "0", "--out", str(out)) == 0
    assert json.loads(out.read_text())["points"] == []


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


@pytest.mark.parametrize("command, message", [
    (["ratio", "--ball", "-2"], "negative ball radius -2"),
    (["scan", "--epsilon", "0.1", "--sizes", "-1..2"],
     "negative candidate size -1"),
], ids=["ratio", "scan"])
def test_negative_folner_sizes_exit_with_domain_error(tmp_path, capsys,
                                                      command, message):
    lat, g = tmp_path / "ball.json", tmp_path / "g.json"
    assert run("lattice", "build", "--space", "zd", "--d", "2",
               "--group-ball", "--radius", "8", "--probes", "0",
               "--out", str(lat)) == 0
    assert run("graph", "build", "--lattice", str(lat), "--threshold", "1",
               "--out", str(g)) == 0
    capsys.readouterr()
    assert run("folner", command[0], "--graph", str(g), *command[1:]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_outputs_embed_the_run_config_and_report_each_file(tmp_path, capsys):
    """The whole ``config`` object of a graph file, the ``wrote`` line each
    writer prints, and the exact comment line over DOT and CSV exports."""
    lat, g = tmp_path / "lat.json", tmp_path / "g.json"
    dot, csv = tmp_path / "g.dot", tmp_path / "g.csv"
    assert run("lattice", "build", *LATTICES["zd"], "--probes", "0",
               "--out", str(lat)) == 0
    capsys.readouterr()
    assert run("--seed", "7", "graph", "build", "--lattice", str(lat),
               "--threshold", "5", "--out", str(g)) == 0
    assert capsys.readouterr().out.endswith(f"\nwrote {g}\n")
    assert json.loads(g.read_text())["config"] == {
        "command": "graph build",
        "options": {"cmd": "build", "group": "graph", "lattice": str(lat),
                    "threshold": 5.0},
        "seed": 7,
    }
    assert run("--seed", "7", "graph", "export", "--graph", str(g),
               "--dot", str(dot), "--csv", str(csv)) == 0
    assert capsys.readouterr().out == f"wrote {dot}\nwrote {csv}\n"
    config = ('config: {"command": "graph export", "options": {"cmd": '
              f'"export", "graph": {json.dumps(str(g))}, "group": "graph"}}, '
              '"seed": 7}')
    assert dot.read_text().splitlines()[0] == "// " + config
    assert csv.read_text().splitlines()[0] == "# " + config


def test_probes_on_an_h2_window_too_narrow_for_them_exit_3(tmp_path, capsys):
    """No height of the window (-0.1..0.1) x (0..2) leaves a u range for a
    probe with slack 0.5; the build exits 3 and writes no file."""
    out = tmp_path / "h2.json"
    assert run("lattice", "build", "--horocyclic", "--n", "0..2",
               "--u", "-0.1..0.1", "--probes", "3", "--margin", "0.5",
               "--out", str(out)) == 3
    assert "u range" in capsys.readouterr().err
    assert not out.exists()


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


def _lattice_file(tmp_path, *space_args):
    path = tmp_path / "lat.json"
    assert run("lattice", "build", *space_args, "--probes", "0",
               "--out", str(path)) == 0
    return path, json.loads(path.read_text())


def _rewrite(path, doc, edit):
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


LATTICES = {
    "zd": ("--space", "zd", "--d", "2", "--radius", "6", "--delta", "2"),
    "heisenberg": ("--space", "heisenberg", "--radius", "3", "--delta", "2"),
    "free_group": ("--space", "free_group", "--k", "2", "--group-ball",
                   "--radius", "2"),
}


@pytest.mark.parametrize("name", list(LATTICES))
@pytest.mark.parametrize("bad", [0.5, 1.0, "1", True])
def test_non_integer_coordinates_exit_with_schema_error(tmp_path, capsys,
                                                        name, bad):
    # Z^d, Heisenberg and free-group coordinates must be JSON integers: a
    # float, string or boolean is not truncated to a nearby point
    path, doc = _lattice_file(tmp_path, *LATTICES[name])

    def edit(doc):
        point = doc["points"][-1]
        point["w" if name == "free_group" else "x"][0] = bad
    _rewrite(path, doc, edit)
    capsys.readouterr()
    assert run("graph", "build", "--lattice", str(path),
               "--out", str(tmp_path / "g.json")) == 2
    assert "error (schema)" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("name,point,message", [
    ("free_group", {"model": "free_group", "w": [1, -1]},
     "word (1, -1) is not reduced"),
    ("free_group", {"model": "free_group", "w": [5]}, "bad letter 5 in (5,)"),
    ("zd", {"model": "zd", "x": [0, 1, 2]}, "(0, 1, 2) is not a point of zd(2)"),
], ids=["unreduced", "letter-5", "three"])
def test_file_point_that_is_no_point_of_the_model_exits_2(tmp_path, capsys,
                                                          name, point,
                                                          message):
    """A lattice file, or a graph file that embeds one, with a point that
    the model rejects is a schema error that keeps the model's message."""
    path, doc = _lattice_file(tmp_path, *LATTICES[name])
    g = tmp_path / "g.json"
    assert run("graph", "build", "--lattice", str(path), "--out", str(g)) == 0
    graph = json.loads(g.read_text())
    doc["points"][-1] = graph["lattice"]["points"][-1] = point
    path.write_text(json.dumps(doc))
    g.write_text(json.dumps(graph))
    capsys.readouterr()
    assert run("graph", "build", "--lattice", str(path),
               "--out", str(tmp_path / "g2.json")) == 2
    assert capsys.readouterr().err == f"error (schema): {message}\n"
    assert run("graph", "stats", "--graph", str(g)) == 2
    assert capsys.readouterr().err == f"error (schema): {message}\n"
    assert not (tmp_path / "g2.json").exists()


@pytest.mark.parametrize("space_args,point,message", [
    (("--space", "euclidean", "--d", "2", "--box", "-3..3,-3..3",
      "--delta", "1"), {"model": "euclidean", "x": [math.nan, 0.0]},
     "(nan, 0.0) has a coordinate that is not finite"),
    (("--space", "euclidean", "--d", "2", "--box", "-3..3,-3..3",
      "--delta", "1"), {"model": "euclidean", "x": [0.0, -math.inf]},
     "(0.0, -inf) has a coordinate that is not finite"),
    (("--space", "h2", "--u", "-3..3", "--log-a", "-1..1", "--delta", "1"),
     {"model": "h2", "u": math.nan, "a": 1.0},
     "(nan, 1.0) has a coordinate that is not finite"),
    (("--space", "h2", "--u", "-3..3", "--log-a", "-1..1", "--delta", "1"),
     {"model": "h2", "u": 0.0, "a": math.inf},
     "(0.0, inf) has a coordinate that is not finite"),
], ids=["e2-nan", "e2-minus-inf", "h2-nan", "h2-inf"])
def test_file_point_that_is_not_finite_exits_2(tmp_path, capsys, space_args,
                                               point, message):
    """JSON's NaN and Infinity tokens in a lattice file are no points of
    R^d or h2."""
    path, doc = _lattice_file(tmp_path, *space_args)
    doc["points"][-1] = point
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("graph", "build", "--lattice", str(path),
               "--out", str(tmp_path / "g.json")) == 2
    assert capsys.readouterr().err == f"error (schema): {message}\n"
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("name,coordinate", [
    ("zd", 2 ** 63), ("zd", -2 ** 63 - 1), ("heisenberg", 2 ** 63)])
def test_file_coordinate_outside_int64_exits_2(tmp_path, capsys, name,
                                               coordinate):
    """An integer coordinate that no int64 holds is a schema error under
    each reader of a lattice file, not an ``OverflowError`` traceback."""
    path, doc = _lattice_file(tmp_path, *LATTICES[name])
    g = tmp_path / "g.json"
    assert run("graph", "build", "--lattice", str(path), "--out", str(g)) == 0
    graph = json.loads(g.read_text())
    point = doc["points"][1]
    point["x"] = [coordinate] + point["x"][1:]
    doc["points"][1] = graph["lattice"]["points"][1] = point
    path.write_text(json.dumps(doc))
    g.write_text(json.dumps(graph))
    message = ("error (schema): a point coordinate is outside the range "
               "of int64\n")
    for argv in (["lattice", "verify", "--lattice", str(path)],
                 ["graph", "build", "--lattice", str(path),
                  "--out", str(tmp_path / "g2.json")],
                 ["qaction", "certify", "--lattice", str(path)],
                 ["growth", "run", "--graph", str(g), "--max-m", "2",
                  "--out", str(tmp_path / "s.csv")]):
        capsys.readouterr()
        assert run(*argv) == 2, argv
        assert capsys.readouterr().err == message
    assert not (tmp_path / "g2.json").exists()


def test_density_radius_past_the_properness_scan_exits_1(tmp_path, capsys):
    """With r = 1e308 the default properness scan max R + 2r + 2 is
    infinite: a ``DomainError``, not an ``OverflowError`` traceback."""
    path, doc = _lattice_file(tmp_path, *LATTICES["zd"])
    doc["density_radius_r"] = 1e308
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("qaction", "certify", "--lattice", str(path)) == 1
    assert capsys.readouterr().err == (
        "error: properness scan radius max R + 2r + 2 = inf is not finite\n")


@pytest.mark.parametrize("threshold,message", [
    (-1.0, "threshold must be >= 0, got -1.0"),
    (1.0, "edge [0, 1] has length 2.0, above the threshold 1.0")])
def test_graph_file_threshold_below_its_edges_exits_2(tmp_path, capsys,
                                                      threshold, message):
    """With threshold -1 a graph file had no border vertex, and ``growth
    run`` wrote a series cut short by the window."""
    path, _ = _lattice_file(tmp_path, *LATTICES["zd"])
    g = tmp_path / "g.json"
    assert run("graph", "build", "--lattice", str(path), "--out", str(g)) == 0
    graph = json.loads(g.read_text())
    graph["threshold"] = threshold
    g.write_text(json.dumps(graph))
    capsys.readouterr()
    assert run("growth", "run", "--graph", str(g), "--max-m", "8",
               "--out", str(tmp_path / "s.csv")) == 2
    assert capsys.readouterr().err == f"error (schema): {message}\n"
    assert not (tmp_path / "s.csv").exists()


def test_threshold_that_is_not_finite_exits(tmp_path, capsys):
    """``graph build --threshold inf`` would write the complete graph with
    the non-JSON token ``Infinity``; a graph file whose threshold is NaN or
    Infinity is a schema error."""
    lat, _ = _lattice_file(tmp_path, *LATTICES["zd"])
    g = tmp_path / "g.json"
    for threshold in ("inf", "-inf"):
        capsys.readouterr()
        assert run("graph", "build", "--lattice", str(lat),
                   f"--threshold={threshold}", "--out", str(g)) == 1
        assert capsys.readouterr().err == "error: edge threshold is infinite\n"
        assert not g.exists()
    assert run("graph", "build", "--lattice", str(lat), "--out", str(g)) == 0
    doc = json.loads(g.read_text())
    for threshold in (math.nan, math.inf):
        doc["threshold"] = threshold
        g.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("graph", "stats", "--graph", str(g)) == 2
        assert capsys.readouterr().err == (
            f"error (schema): threshold must be finite, got {threshold!r}\n")


def test_x0_is_looked_up_once(tmp_path, monkeypatch):
    path, _ = _lattice_file(tmp_path, *LATTICES["zd"])
    g = tmp_path / "g.json"
    assert run("graph", "build", "--lattice", str(path), "--out", str(g)) == 0
    calls = []
    find = QuasiLattice._find

    def counted(self, ps):
        calls.append(list(ps))
        return find(self, ps)

    monkeypatch.setattr(QuasiLattice, "_find", counted)
    assert run("growth", "run", "--graph", str(g), "--max-m", "1",
               "--x0", '{"model": "zd", "x": [0, 0]}',
               "--out", str(tmp_path / "s.csv")) == 0
    assert calls == [[(0, 0)]]


def test_x0_must_be_an_integer_lattice_point(tmp_path, capsys):
    path, _ = _lattice_file(tmp_path, *LATTICES["zd"])
    g = tmp_path / "g.json"
    assert run("graph", "build", "--lattice", str(path), "--out", str(g)) == 0
    out = tmp_path / "s.csv"
    ok = run("growth", "run", "--graph", str(g), "--max-m", "1",
             "--x0", '{"model": "zd", "x": [0, 0]}', "--out", str(out))
    assert ok == 0
    capsys.readouterr()
    for x0 in ('{"model": "zd", "x": [0.5, 0]}', '{"model": "zd", "x": [0, 0.0]}',
               '{"model": "h2", "u": 0.0, "a": 1.0}', '{"model": "zd"}',
               "[0, 0", '{"model": "zd", "x": [100, 100]}'):
        code = run("growth", "run", "--graph", str(g), "--max-m", "1",
                   "--x0", x0, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2 and "error (schema)" in err, (x0, err)
    # a point of the model that the lattice lacks is named in the error
    assert "(100, 100)" in err and "not a point of the lattice" in err


@pytest.mark.parametrize("edit", [
    lambda doc: doc["space"].pop("d"),
    lambda doc: doc["space"].pop("model"),
    lambda doc: doc["space"].update(d="x"),
    lambda doc: doc["space"].update(d=2.5),
    lambda doc: doc["window"].pop("radius"),
    lambda doc: doc["window"].update(radius="6"),
    lambda doc: doc["window"].update(kind="disc"),
    lambda doc: doc["points"][0].pop("x"),
    lambda doc: doc.pop("separation_delta"),
    lambda doc: doc.update(separation_delta="x"),
    lambda doc: doc.update(points=None),
], ids=["no-d", "no-model", "d-string", "d-float", "no-radius",
        "radius-string", "window-kind", "point-no-x", "no-delta",
        "delta-string", "points-null"])
def test_malformed_lattice_file_exits_with_schema_error(tmp_path, capsys,
                                                        edit):
    path, doc = _lattice_file(tmp_path, *LATTICES["zd"])
    _rewrite(path, doc, edit)
    capsys.readouterr()
    assert run("graph", "build", "--lattice", str(path),
               "--out", str(tmp_path / "g.json")) == 2
    assert "error (schema)" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,code", [
    ("separation_delta", "3", 2),
    ("density_radius_r", True, 2),
    ("density_radius_r", "nan", 2),
    ("separation_delta", 3, 0),
], ids=["delta-string", "r-bool", "r-nan-string", "delta-int"])
def test_lattice_file_radii_decode_strictly(tmp_path, capsys, key, value,
                                            code):
    """delta and r are JSON numbers: a string or a boolean is a schema
    error, not a value ``float`` reads; a JSON integer stays a number."""
    path, doc = _lattice_file(tmp_path, *LATTICES["zd"])
    _rewrite(path, doc, lambda doc: doc.update({key: value}))
    capsys.readouterr()
    assert run("graph", "build", "--lattice", str(path),
               "--out", str(tmp_path / "g.json")) == code
    assert ("error (schema)" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("key,text", [
    ("separation_delta", "-1.0"),
    ("separation_delta", "0.0"),
    ("density_radius_r", "NaN"),
    ("density_radius_r", "Infinity"),
    ("density_radius_r", "-1.0"),
    ("construction", "5"),
    ("certificates", '[["a", 1]]'),
], ids=["delta-negative", "delta-zero", "r-nan", "r-infinity", "r-negative",
        "construction-int", "certificates-list"])
def test_lattice_file_fields_out_of_range_exit_2(tmp_path, capsys, key, text):
    """delta is finite and > 0, r finite and >= 0, the construction a string
    and the certificates an object; each value is written as raw JSON text,
    so NaN and Infinity are the literals Python's json reads."""
    path, doc = _lattice_file(tmp_path, *LATTICES["zd"])
    doc[key] = "@value@"
    path.write_text(json.dumps(doc).replace('"@value@"', text))
    capsys.readouterr()
    assert run("graph", "build", "--lattice", str(path),
               "--out", str(tmp_path / "g.json")) == 2
    assert f"error (schema): {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_malformed_graph_file_exits_with_schema_error(tmp_path, capsys):
    path, _ = _lattice_file(tmp_path, *LATTICES["zd"])
    g = tmp_path / "g.json"
    assert run("graph", "build", "--lattice", str(path), "--out", str(g)) == 0
    doc = json.loads(g.read_text())
    doc["lattice"]["window"].pop("radius")
    g.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("graph", "stats", "--graph", str(g)) == 2
    assert "'radius'" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[-1, 0], [0, "n"]])
def test_graph_file_with_edge_outside_the_vertices_exits_2(tmp_path, capsys,
                                                           extra):
    path, doc = _lattice_file(tmp_path, *LATTICES["zd"])
    g = tmp_path / "g.json"
    assert run("graph", "build", "--lattice", str(path), "--out", str(g)) == 0
    doc = json.loads(g.read_text())
    n = len(doc["lattice"]["points"])
    doc["edges"].append([n if v == "n" else v for v in extra])
    g.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("graph", "stats", "--graph", str(g)) == 2
    assert f"vertex ids in range({n})" in capsys.readouterr().err


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["edges"].append([3, 3]), "no pair of distinct vertex ids"),
    (lambda doc: doc["edges"].append(doc["edges"][-1][::-1]),
     "lists an edge twice"),
    (lambda doc: doc.update(degree_bound_M=1), "below a vertex degree"),
    (lambda doc: doc.update(degree_bound_M=4.5), "expected a JSON int"),
], ids=["self-loop", "twice", "bound-below-degree", "float-bound"])
def test_graph_file_with_malformed_edge_list_exits_2(tmp_path, capsys, edit,
                                                     message):
    path, _ = _lattice_file(tmp_path, *LATTICES["zd"])
    g = tmp_path / "g.json"
    assert run("graph", "build", "--lattice", str(path), "--out", str(g)) == 0
    _rewrite(g, json.loads(g.read_text()), edit)
    capsys.readouterr()
    assert run("graph", "stats", "--graph", str(g)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (schema)") and message in err


def test_file_that_cannot_be_opened_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    out = tmp_path / "g.json"
    for argv in (["graph", "build", "--lattice", missing, "--out", str(out)],
                 ["graph", "stats", "--graph", missing],
                 ["growth", "classify", "--series", missing]):
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            f"error (schema): [Errno 2] No such file or directory: "
            f"{missing!r}\n")
    assert not out.exists()
    # an output path in a directory that does not exist
    path, _ = _lattice_file(tmp_path, *LATTICES["zd"])
    capsys.readouterr()
    assert run("graph", "build", "--lattice", str(path),
               "--out", str(tmp_path / "no" / "g.json")) == 2
    assert "No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("corner", ["lo", "hi"])
def test_box_window_of_another_dimension_exits_2(tmp_path, capsys, corner):
    path, doc = _lattice_file(tmp_path, "--space", "euclidean", "--d", "2",
                              "--box", "0..4,0..4", "--pitch", "1",
                              "--delta", "1.5")
    _rewrite(path, doc, lambda doc: doc["window"][corner].pop())
    capsys.readouterr()
    assert run("graph", "build", "--lattice", str(path),
               "--out", str(tmp_path / "g.json")) == 2
    assert "no points of euclidean(2)" in capsys.readouterr().err


# The CLI's JSON layout: every file it writes is exactly
# ``json.dumps(doc, sort_keys=True, indent=1) + "\n"``.

def assert_cli_layout(path):
    raw = path.read_text()
    assert raw == json.dumps(json.loads(raw), sort_keys=True, indent=1) + "\n", \
        path.name


def test_every_json_output_is_in_the_cli_layout(tmp_path, capsys):
    lattices = {
        "zd": ["--space", "zd", "--d", "2", "--radius", "25", "--delta", "3",
               "--probes", "50", "--R", "1,2"],
        "zd_ball": ["--space", "zd", "--d", "2", "--group-ball",
                    "--radius", "20", "--probes", "0"],
        "free_group": ["--space", "free_group", "--k", "2", "--group-ball",
                       "--radius", "3", "--probes", "0"],
        "heisenberg": ["--space", "heisenberg", "--radius", "3",
                       "--delta", "2", "--probes", "20"],
        "euclidean": ["--space", "euclidean", "--d", "2", "--box",
                      "-3..3,-3..3", "--pitch", "0.5", "--delta", "1",
                      "--probes", "20"],
        "h2": ["--space", "h2", "--u", "-4..4", "--log-a", "-2..2",
               "--delta", "1", "--probes", "0"],
        "horocyclic": ["--space", "h2", "--horocyclic", "--n", "-3..3",
                       "--u", "-20..20", "--probes", "20"],
    }
    files = {name: tmp_path / f"{name}.json" for name in lattices}
    for name, args in lattices.items():
        assert run("lattice", "build", *args, "--out", str(files[name])) == 0
    lat, ball = str(files["zd"]), str(files["zd_ball"])
    for name, argv in {
        "verify": ["lattice", "verify", "--lattice", lat, "--probes", "30"],
        "graph": ["graph", "build", "--lattice", lat],
        "certify": ["qaction", "certify", "--lattice", lat,
                    "--group-radius", "3", "--targets", "4"],
        "orbit": ["qaction", "orbit-qi", "--lattice", lat, "--radii", "2,4"],
        "conjugacy": ["qaction", "conjugacy", "--lattice", lat,
                      "--lattice2", ball, "--group-radius", "3"],
    }.items():
        files[name] = tmp_path / f"{name}.json"
        assert run(*argv, "--out", str(files[name])) == 0
    files["scan"] = tmp_path / "scan.json"
    assert run("folner", "scan", "--graph", str(files["graph"]),
               "--epsilon", "0.1", "--sizes", "1..4",
               "--out", str(files["scan"])) == 0
    for path in files.values():
        assert_cli_layout(path)


TEXT = st.lists(st.sampled_from(
    ["a", "%", "%s", "%d", '"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9",
     "\u4e2d", "\ud800", "\U0001f600"]), max_size=4).map("".join)
LEAVES = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
          | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                             1e300, 0.1]) | TEXT)
# rows of ints with bools mixed in, some ragged or empty
ROWS = st.lists(st.lists(st.integers(-9, 9) | st.booleans(), max_size=3),
                max_size=6)
# runs of dicts whose keys differ now and then
RUNS = st.lists(st.fixed_dictionaries(
    {"model": st.sampled_from(["zd", "a%sb"])},
    optional={"x": st.lists(st.integers(-3, 3), min_size=2, max_size=2),
              "y": LEAVES}), max_size=8)
DOCS = st.recursive(LEAVES | ROWS | RUNS, lambda inner: (
    st.lists(inner, max_size=5) | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30)


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(DOCS)
def test_json_chunks_join_to_the_json_layout(doc):
    assert "".join(_json_chunks(doc, 0)) == json.dumps(doc, sort_keys=True,
                                                       indent=1)


class _Int(int):
    pass


def _cycle():
    doc = {"a": [1]}
    doc["a"].append(doc)
    return doc


@pytest.mark.parametrize("doc", [
    {"a": {1: "x", 2.5: None, True: [1]}},    # keys json converts
    {"a": [_Int(3), 4], "b": [[1, _Int(2)]]},  # an int subclass
    {"a": [[0.5, 1.0], [math.nan, 2.0]]},
    {"edges": [[i, i + 1] for i in range(2100)] + [[1]]},
    {"points": [{"model": "zd", "x": [i, -i]} for i in range(2100)]
     + [{"model": "zd", "x": [1]}]},
    # int rows over three blocks, a bool row and a float row in the last
    {"edges": [[True, 0] if i == 2100 else [0.5, i] if i == 2300 else
               [i, -i] for i in range(2500)],
     "one": [[i] for i in range(2500)],
     "three": [[i, 0, -i] for i in range(2500)]},
], ids=["keys", "int-subclass", "floats", "rows", "runs", "int-rows"])
def test_json_chunks_write_what_json_writes(doc):
    assert "".join(_json_chunks(doc, 0)) == json.dumps(doc, sort_keys=True,
                                                       indent=1)


@pytest.mark.parametrize("doc", [
    {"a": [1, {"b": object()}]},
    {"a": {"b": {1, 2}}},
    {"a": {1: "x", "y": 2}},
    _cycle(),
], ids=["object", "set", "mixed-keys", "cycle"])
def test_json_chunks_raise_what_json_raises(doc):
    with pytest.raises(Exception) as expected:
        json.dumps(doc, sort_keys=True, indent=1)
    with pytest.raises(expected.type, match=str(expected.value)):
        "".join(_json_chunks(doc, 0))


PROBE_WINDOWS = {
    "ball": ("--space", "zd", "--d", "2", "--radius", "6", "--delta", "2"),
    "box": ("--space", "euclidean", "--d", "2", "--box", "-4..4,-4..4",
            "--delta", "1"),
    "h2": ("--horocyclic", "--n", "-2..2", "--u", "-10..10"),
}


@pytest.mark.parametrize("window", list(PROBE_WINDOWS))
def test_probe_counts_and_margins_are_checked(tmp_path, capsys, window):
    """``lattice verify --probes 0`` prints a vacuous certificate, no
    multiplicity, and exits 0; a negative count, or a margin that is
    negative or not finite, exits 1 on every window kind, and writes no
    file."""
    lat, out = tmp_path / "lat.json", tmp_path / "out.json"
    assert run("lattice", "build", *PROBE_WINDOWS[window], "--probes", "0",
               "--out", str(lat)) == 0
    capsys.readouterr()
    assert run("lattice", "verify", "--lattice", str(lat), "--probes", "0",
               "--out", str(out)) == 0
    assert capsys.readouterr().out == (
        f"density certificate: vacuous, no probes\nwrote {out}\n")
    doc = json.loads(out.read_text())
    assert doc["density"] == {
        "vacuous": True, "n_probes": 0, "seed": 0, "max_min_distance": None}
    assert doc["multiplicity"] == []
    out.unlink()
    for bad in (["--probes", "-5"], ["--margin", "nan"],
                ["--margin", "inf"], ["--margin", "-800"],
                ["--margin=-1e308"]):
        assert run("lattice", "verify", "--lattice", str(lat), *bad,
                   "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: cannot sample ")
        assert not out.exists()
        assert run("lattice", "build", *PROBE_WINDOWS[window], *bad,
                   "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: cannot sample ")
        assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--space", "zd", "--d", "2", "--radius", "10", "--delta", "nan"],
     "separation delta must be a finite number > 0, got nan"),
    (["--space", "zd", "--d", "2", "--radius", "10", "--delta", "inf"],
     "separation delta must be a finite number > 0, got inf"),
    *[([*window, "--delta", "1", f"--pitch={pitch}"],
       f"window pitch must be a finite number > 0, got {float(pitch)!r}")
      for window in (["--space", "euclidean", "--box", "0..1,0..1"],
                     ["--space", "h2", "--u", "-1..1", "--log-a", "-1..1"])
      for pitch in ("0", "nan", "-1")],
], ids=["delta-nan", "delta-inf", "box-pitch-0", "box-pitch-nan",
        "box-pitch-negative", "h2-pitch-0", "h2-pitch-nan",
        "h2-pitch-negative"])
def test_construction_parameters_out_of_range_exit_1(tmp_path, capsys, argv,
                                                     message):
    """A separation or a window pitch that is not a finite number > 0 exits
    1 and writes no lattice file."""
    out = tmp_path / "lat.json"
    assert run("lattice", "build", *argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_nan_threshold_and_negative_radius_exit_1(tmp_path, capsys):
    lat, _ = _lattice_file(tmp_path, *LATTICES["zd"])
    out = tmp_path / "o.json"
    capsys.readouterr()
    assert run("graph", "build", "--lattice", str(lat), "--threshold", "nan",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: edge threshold is NaN\n"
    assert run("lattice", "verify", "--lattice", str(lat), "--R=-1",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "error: multiplicity radius -1.0 is not a finite number >= 0\n")
    assert not out.exists()


def test_qaction_certificates_over_an_empty_sample_exit_1(tmp_path, capsys):
    """No group element or no target: the defects would all read 0."""
    lat, _ = _lattice_file(tmp_path, "--space", "zd", "--d", "2",
                           "--group-ball", "--radius", "25")
    out = tmp_path / "cert.json"
    for command, message in (
            (["certify", "--group-radius", "-1"],
             "group radius must be >= 0, got -1"),
            (["certify", "--targets", "0"], "need at least one target, got 0"),
            (["conjugacy", "--lattice2", str(lat), "--group-radius", "-2"],
             "group radius must be >= 0, got -2")):
        capsys.readouterr()
        assert run("qaction", command[0], "--lattice", str(lat), *command[1:],
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("c", ["nan", "0.5", "inf"])
@pytest.mark.parametrize("command", [["ratio", "--ball", "2"],
                                     ["scan", "--epsilon", "0.1"]],
                         ids=["ratio", "scan"])
def test_folner_boundary_constants_below_one_exit_1(tmp_path, capsys,
                                                    command, c):
    lat, g = tmp_path / "ball.json", tmp_path / "g.json"
    assert run("lattice", "build", "--space", "zd", "--d", "2",
               "--group-ball", "--radius", "8", "--probes", "0",
               "--out", str(lat)) == 0
    assert run("graph", "build", "--lattice", str(lat), "--threshold", "1",
               "--out", str(g)) == 0
    capsys.readouterr()
    assert run("folner", command[0], "--graph", str(g), *command[1:],
               "--c", c) == 1
    assert capsys.readouterr().err == (
        f"error: boundary constant c must be a finite number >= 1, "
        f"got {float(c)!r}\n")


def test_folner_scan_csv_lists_the_report_entries(tmp_path, capsys):
    lat, g = tmp_path / "ball.json", tmp_path / "g.json"
    report, csv = tmp_path / "scan.json", tmp_path / "scan.csv"
    assert run("lattice", "build", "--space", "zd", "--d", "2",
               "--group-ball", "--radius", "12", "--probes", "0",
               "--out", str(lat)) == 0
    assert run("graph", "build", "--lattice", str(lat), "--threshold", "1",
               "--out", str(g)) == 0
    capsys.readouterr()
    assert run("--seed", "4", "folner", "scan", "--graph", str(g),
               "--epsilon", "0.3", "--sizes", "1..6", "--out", str(report),
               "--csv", str(csv)) == 0
    assert capsys.readouterr().out.endswith(f"wrote {report}\nwrote {csv}\n")
    doc = json.loads(report.read_text())
    header, columns, *rows = csv.read_text().splitlines()
    assert header == "# config: " + json.dumps(doc["config"], sort_keys=True)
    assert columns == "set,size,boundary,ratio"
    assert rows == [f"{e['set']},{e['size']},{e['boundary']},{e['ratio']!r}"
                    for e in doc["entries"]]
    assert len(rows) >= 2


def test_certification_errors_exit_4(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise CertificationError("defect over budget")

    lat, out = tmp_path / "ball.json", tmp_path / "cert.json"
    assert run("lattice", "build", "--space", "zd", "--d", "2",
               "--group-ball", "--radius", "10", "--probes", "0",
               "--out", str(lat)) == 0
    capsys.readouterr()
    monkeypatch.setattr(actions, "certify_axioms", fail)
    assert run("qaction", "certify", "--lattice", str(lat),
               "--out", str(out)) == 4
    assert capsys.readouterr().err == \
        "error (certification): defect over budget\n"
    assert not out.exists()
