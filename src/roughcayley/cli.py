"""Command-line front end: space -> lattice -> graph -> analyses -> exports.

Every run is reproducible from its recorded configuration: all randomness
sits behind one seed (flag ``--seed``, overridden by the environment
variable ``COARSE_SEED``), and every output file embeds the configuration
that produced it.  The two writers, ``_write_json`` and ``_write_text``,
print ``wrote <path>`` once each file is written.  Every JSON file is
exactly ``json.dumps(doc, sort_keys=True, indent=1) + "\\n"``: sorted
keys, one space of indent per level, ASCII only, and a final newline.
Exit codes: 0 success, 2 schema/argument errors (a file that cannot be
opened among them), 3 window or border errors, 4 certification failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from operator import itemgetter
from json.encoder import encode_basestring_ascii as _json_str

from . import actions, folner, graphs, growth, nets
from .errors import (
    BorderError,
    CertificationError,
    DisconnectedGraphError,
    DomainError,
    OutOfWindowError,
    RoughCayleyError,
    SchemaError,
    WindowTooSmallError,
)
from .spaces import BallWindow, BoxWindow, H2Window, MODELS, space_from_json

WINDOW_ERRORS = (OutOfWindowError, BorderError, WindowTooSmallError,
                 DisconnectedGraphError)


def _config(args, skip=("func", "out", "dot", "csv")):
    """The run's command, options and seed, embedded in every output."""
    options = {k: v for k, v in vars(args).items()
               if k not in skip and k != "seed" and v is not None
               and not callable(v)}
    command = options.pop("_command")
    return {"command": command, "options": options, "seed": args.seed}


def _write_json(path, args, payload):
    """Write ``{"config": _config(args), **payload}`` to ``path`` in the
    CLI's layout: exactly ``json.dumps(doc, sort_keys=True, indent=1) +
    "\\n"``, that is sorted keys, one space per level, ASCII only and a
    final newline.  The text is written chunk by chunk as ``_json_chunks``
    makes it; the file is reported once written."""
    doc = {"config": _config(args)}
    doc.update(payload)
    with open(path, "w") as fh:
        fh.writelines(_json_chunks(doc, 0))
        fh.write("\n")
    print(f"wrote {path}")


# ``json.dumps(..., indent=1)`` runs the pure-Python encoder, one generator
# step per item.  ``_json_chunks`` writes the same text from ``%``
# templates, ``_BLOCK`` list items per chunk.  A run of list items of one
# shape shares one template, whose slots ``_columns`` fills column by
# column; a block that mixes shapes is halved until each part is one run.
# A value no template fits (a non-str key, an int or float subclass, an
# unknown type, or anything nested deeper than ``_DEEP``, where ``json``
# finds cycles) is written by ``json.dumps`` itself, so its text, or its
# error, is the same.

_BLOCK = 1024
_DEEP = 64
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_BOOL_WORDS = {True: "true", False: "false"}


def _fallback(o, level):
    """``json.dumps`` of ``o``, its later lines indented by ``level``."""
    return json.dumps(o, sort_keys=True, indent=1).replace(
        "\n", "\n" + " " * level)


def _columns(values, level):
    """``(template, columns)``: one ``%`` template that writes each of
    ``values`` at indent ``level``, and the values of its slots, one column
    per slot.  None if the values differ in shape or a template cannot
    write them."""
    types = set(map(type, values))
    if len(types) != 1:
        return None
    t = types.pop()
    if t is str:
        return "%s", [list(map(_json_str, values))]
    if t is int:
        return "%d", [values]
    if t is float:
        texts = list(map(float.__repr__, values))
        if not _FLOAT_WORDS.keys().isdisjoint(texts):
            texts = [_FLOAT_WORDS.get(s, s) for s in texts]
        return "%s", [texts]
    if t is bool:
        return "%s", [list(map(_BOOL_WORDS.__getitem__, values))]
    if t is type(None):
        return "null", []
    if level >= _DEEP:
        return None
    if t is list or t is tuple:
        lengths = set(map(len, values))
        if len(lengths) != 1:
            return None
        width = lengths.pop()
        if not width:
            return "[]", []
        brackets, heads, columns = "[]", [""] * width, zip(*values)
    elif t is dict:
        if not set(map(type, chain.from_iterable(values))) <= {str}:
            return None
        keys = set(map(tuple, map(sorted, values)))
        if len(keys) != 1:
            return None
        keys = keys.pop()
        if not keys:
            return "{}", []
        brackets = "{}"
        heads = [_json_str(k).replace("%", "%%") + ": " for k in keys]
        columns = [list(map(itemgetter(k), values)) for k in keys]
    else:
        return None
    parts = [_columns(col, level + 1) for col in columns]
    if None in parts:
        return None
    inner = "\n" + " " * (level + 1)
    return (brackets[0] + inner
            + ("," + inner).join(h + tmpl for h, (tmpl, _) in zip(heads, parts))
            + "\n" + " " * level + brackets[1],
            [col for _, cols in parts for col in cols])


def _runs(items, level, sep):
    """The text of ``items`` written at indent ``level`` and joined by
    ``sep``, one chunk per run of one shape."""
    found = _columns(items, level)
    if found is not None:
        tmpl, cols = found
        yield sep.join([tmpl] * len(items)) % tuple(
            chain.from_iterable(zip(*cols)))
    elif len(items) == 1:
        yield _fallback(items[0], level)
    else:
        half = len(items) // 2
        yield from _runs(items[:half], level, sep)
        yield sep
        yield from _runs(items[half:], level, sep)


def _json_chunks(o, level):
    """Chunks that join to ``json.dumps(o, sort_keys=True, indent=1)`` with
    every line after the first indented by ``level`` more spaces."""
    t = type(o)
    inner = "\n" + " " * (level + 1)
    if t is dict and o and level < _DEEP and set(map(type, o)) == {str}:
        head = "{" + inner
        for key in sorted(o):
            yield head + _json_str(key) + ": "
            yield from _json_chunks(o[key], level + 1)
            head = "," + inner
        yield "\n" + " " * level + "}"
    elif (t is list or t is tuple) and o and level < _DEEP:
        sep = "," + inner
        for start in range(0, len(o), _BLOCK):
            yield sep if start else "[" + inner
            yield from _runs(o[start:start + _BLOCK], level + 1, sep)
        yield "\n" + " " * level + "]"
    else:
        yield from _runs([o], level, "")


def _write_text(path, args, text, comment_prefix="#"):
    """Write text below a comment line of ``_config(args)``; report it."""
    header = f"{comment_prefix} config: " + json.dumps(_config(args),
                                                         sort_keys=True)
    with open(path, "w") as fh:
        fh.write(header + "\n" + text)
    print(f"wrote {path}")


def _parse_range(text, cast=float):
    try:
        lo, hi = text.split("..")
        return cast(lo), cast(hi)
    except (ValueError, AttributeError):
        raise SchemaError(f"expected a range like 'a..b', got {text!r}")


def _parse_list(text, cast=float):
    try:
        return [cast(v) for v in text.split(",")]
    except (ValueError, AttributeError):
        raise SchemaError(f"expected a comma list, got {text!r}")


def _space_from_args(args):
    return space_from_json({"model": args.space, "d": args.d, "k": args.k,
                            "additive_group": False})


def _load(path, cls):
    """``cls.from_json`` of a JSON file; a file that is no such object is a
    schema error."""
    with open(path) as fh:
        try:
            return cls.from_json(json.load(fh))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path} is no {cls.__name__} file: {exc!r}")


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_space_list(args):
    for name, model in MODELS.items():
        space = model()
        print(f"{name:<12} c={space.coarse_constant_c:g} "
              f"discrete={space.is_discrete} group={space.is_group} "
              f"example_id={space.model_id}")
    return 0


def cmd_lattice_build(args):
    if args.horocyclic:
        if args.n is None or args.u is None:
            raise SchemaError("--horocyclic needs --n and --u ranges")
        n0, n1 = _parse_range(args.n, int)
        u0, u1 = _parse_range(args.u, float)
        lattice = nets.horocyclic_lattice((u0, u1), (n0, n1))
    else:
        space = _space_from_args(args)
        window = _window_from_args(args, space)
        if args.group_ball:
            lattice = nets.group_ball_lattice(space, window.radius)
        else:
            if args.delta is None:
                raise SchemaError("greedy construction needs --delta")
            lattice = nets.greedy_net(space, window, args.delta)
    summary = f"lattice: {len(lattice)} points, construction {lattice.construction}"
    if args.probes:
        probes = nets.sample_probes(lattice.space, lattice.window, args.probes,
                                    args.margin, args.seed)
        cert, profile = nets.verify_quasilattice(
            lattice, probes, _parse_list(args.R, float), seed=args.seed)
        lattice.certificates["density"] = cert
        lattice.certificates["multiplicity"] = list(profile.entries)
        summary += (f"; density<= {cert['max_min_distance']:.4f} over "
                    f"{cert['n_probes']} probes")
    print(summary)
    _write_json(args.out, args, lattice.to_json())
    return 0


def _window_from_args(args, space):
    if args.radius is not None:
        return BallWindow(args.radius)
    if args.box is not None:
        lo, hi = [], []
        for part in args.box.split(","):
            a, b = _parse_range(part, float)
            lo.append(a)
            hi.append(b)
        return BoxWindow(tuple(lo), tuple(hi), args.pitch)
    if args.u is not None and args.log_a is not None:
        u0, u1 = _parse_range(args.u, float)
        l0, l1 = _parse_range(args.log_a, float)
        return H2Window(u0, u1, l0, l1, args.pitch)
    raise SchemaError("no window: give --radius, --box, or --u with --log-a")


def cmd_lattice_verify(args):
    lattice = _load(args.lattice, nets.QuasiLattice)
    probes = nets.sample_probes(lattice.space, lattice.window, args.probes,
                                args.margin, args.seed)
    cert, profile = nets.verify_quasilattice(
        lattice, probes, _parse_list(args.R, float), seed=args.seed)
    if cert["vacuous"]:
        print("density certificate: vacuous, no probes")
    else:
        print(f"density certificate: max nearest distance "
              f"{cert['max_min_distance']:.6f} over {cert['n_probes']} probes")
    entries = [] if cert["vacuous"] else list(profile.entries)
    for r, m in entries:
        print(f"multiplicity M({r:g}) = {m}")
    if args.out:
        _write_json(args.out, args, {"density": cert, "multiplicity": entries})
    return 0


def cmd_graph_build(args):
    lattice = _load(args.lattice, nets.QuasiLattice)
    graph = graphs.build_graph(lattice, threshold=args.threshold)
    print(f"graph: {graph.n} vertices, {graph.n_edges()} edges, "
          f"threshold {graph.threshold:g}, max degree {graph.degree_bound_M}")
    _write_json(args.out, args, graph.to_json())
    return 0


def cmd_graph_stats(args):
    graph = _load(args.graph, graphs.RoughGraph)
    for key, value in graphs.graph_stats(graph).items():
        print(f"{key}: {value}")
    return 0


def cmd_graph_export(args):
    graph = _load(args.graph, graphs.RoughGraph)
    if not args.dot and not args.csv:
        raise SchemaError("graph export needs --dot and/or --csv")
    if args.dot:
        _write_text(args.dot, args, graphs.to_dot(graph), comment_prefix="//")
    if args.csv:
        _write_text(args.csv, args, graphs.edge_csv(graph))
    return 0


def cmd_qaction_certify(args):
    lattice = _load(args.lattice, nets.QuasiLattice)
    qa = actions.quasi_action(lattice.space, lattice)
    cert = actions.certify_axioms(qa, group_radius=args.group_radius,
                                  n_targets=args.targets, seed=args.seed)
    print(f"identity defect {cert.identity_defect:g}; associativity defect "
          f"{cert.associativity_defect:g}; per-s defect {cert.per_s_qi_defect:g}; "
          f"orbit diameter {cert.orbit_diameter:g}")
    for R, w in cert.properness:
        print(f"properness: displacement <= {R:g} stays in word ball {w:g}")
    if args.out:
        _write_json(args.out, args, {
            "per_s_qi_defect": cert.per_s_qi_defect,
            "identity_defect": cert.identity_defect,
            "associativity_defect": cert.associativity_defect,
            "orbit_diameter": cert.orbit_diameter,
            "properness": list(cert.properness),
            "sample": cert.sample,
        })
    return 0


def cmd_qaction_orbit_qi(args):
    lattice = _load(args.lattice, nets.QuasiLattice)
    qa = actions.quasi_action(lattice.space, lattice)
    radii = [int(v) for v in _parse_list(args.radii, int)]
    report = actions.orbit_map_qi(qa, radii=radii, seed=args.seed)
    for m, C, r, n in report.per_radius:
        print(f"radius {m}: C={C:.4f} r={r:.4f} over {n} pairs")
    print(f"stable: {report.stable}")
    if not report.stable:
        raise CertificationError(report.message)
    if args.out:
        _write_json(args.out, args, {
            "per_radius": [list(row) for row in report.per_radius],
            "C": report.constants.C,
            "r": report.constants.r,
            "stable": report.stable,
        })
    return 0


def cmd_qaction_conjugacy(args):
    lat1 = _load(args.lattice, nets.QuasiLattice)
    lat2 = _load(args.lattice2, nets.QuasiLattice)
    qa1 = actions.quasi_action(lat1.space, lat1)
    qa2 = actions.quasi_action(lat2.space, lat2)
    defect = actions.quasi_conjugacy_defect(
        qa1, qa2, group_radius=args.group_radius, seed=args.seed)
    print(f"quasi-conjugacy defect {defect:g} "
          f"(group radius {args.group_radius})")
    if args.out:
        _write_json(args.out, args, {"defect": defect})
    return 0


def cmd_growth_run(args):
    if bool(args.graph) == bool(args.space):
        raise SchemaError("growth run needs exactly one of --graph/--space")
    if args.graph:
        source = _load(args.graph, graphs.RoughGraph)
        x0 = None
        if args.x0 is not None:
            try:
                obj = json.loads(args.x0)
            except ValueError:
                raise SchemaError(f"--x0 is not JSON: {args.x0!r}")
            p = source.space.point_from_json(obj)
            try:
                x0 = source.lattice.index_of(p)
            except KeyError:
                raise SchemaError(f"--x0 {p!r} is not a point of the lattice")
    else:
        source = _space_from_args(args)
        x0 = None
    series = growth.ball_sizes(source, x0, args.max_m)
    print(f"growth series of {series.source}: "
          f"{list(series.values[: min(8, len(series))])}...")
    _write_text(args.out, args, series.to_csv())
    return 0


def cmd_growth_classify(args):
    with open(args.series) as fh:
        series = growth.GrowthSeries.from_csv(fh.read())
    verdict = growth.classify_growth(series)
    print(json.dumps({
        "class": verdict.kind,
        "estimate": verdict.estimate,
        "ci": verdict.ci,
        "diagnostics": verdict.diagnostics,
    }, sort_keys=True))
    return 0


def cmd_growth_compare(args):
    with open(args.a) as fh:
        sa = growth.GrowthSeries.from_csv(fh.read(), source="a")
    with open(args.b) as fh:
        sb = growth.GrowthSeries.from_csv(fh.read(), source="b")
    verdict = growth.compare_growth(sa, sb)
    print(json.dumps({
        "equivalent": verdict.equivalent,
        "constants": verdict.constants,
        "detail": verdict.detail,
    }, sort_keys=True))
    return 0


def cmd_folner_ratio(args):
    graph = _load(args.graph, graphs.RoughGraph)
    if args.ball < 0:
        raise DomainError(f"negative ball radius {args.ball}")
    center = graph.deepest_vertex(graph.border_depths())
    A = folner._GraphEngine(graph, center).ball(args.ball)
    ratio = folner.folner_ratio(graph, A, args.c)
    print(f"ball radius {args.ball} ({len(A)} vertices): ratio {ratio:.6f}")
    return 0


def cmd_folner_scan(args):
    graph = _load(args.graph, graphs.RoughGraph)
    lo, hi = _parse_range(args.sizes, int)
    report = folner.folner_scan(graph, args.c, args.family, args.epsilon,
                                range(lo, hi + 1))
    print(f"folner scan ({args.family}): best ratio {report.best_ratio:.4f}, "
          f"achieved={report.achieved}")
    if args.out:
        _write_json(args.out, args, report.to_json())
    if args.csv:
        _write_text(args.csv, args, report.to_csv())
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_space_options(p):
    p.add_argument("--space", help="zd | free_group | heisenberg | euclidean | h2")
    p.add_argument("--d", type=int, default=2, help="dimension for zd/euclidean")
    p.add_argument("--k", type=int, default=2, help="rank for free_group")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="roughcayley",
        description="rough Cayley graphs, quasi-lattices, growth and Folner analysis",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all sampled computations "
                             "(COARSE_SEED overrides)")
    sub = parser.add_subparsers(dest="group", required=True)

    p_space = sub.add_parser("space", help="model registry")
    space_sub = p_space.add_subparsers(dest="cmd", required=True)
    p = space_sub.add_parser("list")
    p.set_defaults(func=cmd_space_list, _command="space list")

    p_lat = sub.add_parser("lattice", help="build and verify quasi-lattices")
    lat_sub = p_lat.add_subparsers(dest="cmd", required=True)
    p = lat_sub.add_parser("build")
    _add_space_options(p)
    p.add_argument("--horocyclic", action="store_true",
                   help="the explicit lattice {(e^n m, e^n)} in h2")
    p.add_argument("--group-ball", action="store_true",
                   help="whole word ball of a group model")
    p.add_argument("--delta", type=float,
                   help="greedy net separation, a finite number > 0")
    p.add_argument("--radius", type=int, help="word-ball window radius")
    p.add_argument("--box", help="euclidean box, e.g. -5..5,-5..5")
    p.add_argument("--u", help="u range for h2, e.g. -20..20")
    p.add_argument("--n", help="integer level range for --horocyclic, e.g. -3..3")
    p.add_argument("--log-a", dest="log_a", help="log a range for h2 windows")
    p.add_argument("--pitch", type=float, default=0.25,
                   help="grid step of a --box or h2 window, a finite "
                        "number > 0")
    p.add_argument("--probes", type=int, default=1000,
                   help="verification probes, >= 0 (0 disables)")
    p.add_argument("--margin", type=float, default=1.2)
    p.add_argument("--R", default="1.0", help="multiplicity radii, e.g. 1,2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lattice_build, _command="lattice build")

    p = lat_sub.add_parser("verify")
    p.add_argument("--lattice", required=True)
    p.add_argument("--probes", type=int, default=1000,
                   help="verification probes, >= 0 (0: vacuous)")
    p.add_argument("--margin", type=float, default=1.2,
                   help="least boundary slack of a probe, >= 0")
    p.add_argument("--R", default="1.0")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lattice_verify, _command="lattice verify")

    p_graph = sub.add_parser("graph", help="rough graphs over lattices")
    graph_sub = p_graph.add_subparsers(dest="cmd", required=True)
    p = graph_sub.add_parser("build")
    p.add_argument("--lattice", required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_graph_build, _command="graph build")
    p = graph_sub.add_parser("stats")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_graph_stats, _command="graph stats")
    p = graph_sub.add_parser("export")
    p.add_argument("--graph", required=True)
    p.add_argument("--dot")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_graph_export, _command="graph export")

    p_qa = sub.add_parser("qaction", help="quasi-action certificates")
    qa_sub = p_qa.add_subparsers(dest="cmd", required=True)
    p = qa_sub.add_parser("certify")
    p.add_argument("--lattice", required=True)
    p.add_argument("--group-radius", dest="group_radius", type=int, default=8)
    p.add_argument("--targets", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_qaction_certify, _command="qaction certify")
    p = qa_sub.add_parser("orbit-qi")
    p.add_argument("--lattice", required=True)
    p.add_argument("--radii", default="5,10,15")
    p.add_argument("--out")
    p.set_defaults(func=cmd_qaction_orbit_qi, _command="qaction orbit-qi")
    p = qa_sub.add_parser("conjugacy")
    p.add_argument("--lattice", required=True)
    p.add_argument("--lattice2", required=True)
    p.add_argument("--group-radius", dest="group_radius", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_qaction_conjugacy, _command="qaction conjugacy")

    p_growth = sub.add_parser("growth", help="ball growth series")
    growth_sub = p_growth.add_subparsers(dest="cmd", required=True)
    p = growth_sub.add_parser("run")
    p.add_argument("--graph")
    _add_space_options(p)
    p.add_argument("--max-m", dest="max_m", type=int, required=True)
    p.add_argument("--x0", help="base point as tagged JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_growth_run, _command="growth run")
    p = growth_sub.add_parser(
        "classify", help="polynomial or exponential verdict for a series",
        description="Classify a growth series as polynomial (estimate = "
        "degree) or exponential (estimate = rate). The reported ci is 1.96 "
        "times the least-squares standard error of the fit; it does not "
        "cover the bias left in the estimate, so the true value can lie "
        "outside estimate +- ci (Z^3: degree 2.960, ci 0.0084).")
    p.add_argument("--series", required=True)
    p.set_defaults(func=cmd_growth_classify, _command="growth classify")
    p = growth_sub.add_parser("compare")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_growth_compare, _command="growth compare")

    p_folner = sub.add_parser("folner", help="boundary ratios and scans")
    folner_sub = p_folner.add_subparsers(dest="cmd", required=True)
    p = folner_sub.add_parser("ratio")
    p.add_argument("--graph", required=True)
    p.add_argument("--ball", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0, help="a finite c >= 1")
    p.set_defaults(func=cmd_folner_ratio, _command="folner ratio")
    p = folner_sub.add_parser("scan")
    p.add_argument("--graph", required=True)
    p.add_argument("--c", type=float, default=1.0, help="a finite c >= 1")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--family", default="boxes",
                   choices=["metric_balls", "boxes", "greedy_improved"])
    p.add_argument("--sizes", default="1..20", help="size schedule, e.g. 2..40")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_folner_scan, _command="folner scan")

    return parser


def _join_range_flags(argv):
    """Let range flags take values like '-3..3' without argparse seeing a
    new option; rewrites ['--n', '-3..3'] as ['--n=-3..3']."""
    range_flags = {"--n", "--u", "--log-a", "--box", "--radii", "--sizes", "--R"}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in range_flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    argv = _join_range_flags(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("COARSE_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: COARSE_SEED must be an integer, got {env_seed!r}",
                  file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:  # OSError: a file cannot be opened
        print(f"error (schema): {exc}", file=sys.stderr)
        return 2
    except WINDOW_ERRORS as exc:
        print(f"error (window/border): {exc}", file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"error (certification): {exc}", file=sys.stderr)
        return 4
    except RoughCayleyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
