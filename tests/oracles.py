"""Independent brute-force oracles the tests check library results against.

Everything here is deliberately naive: plain BFS over generators, the
boundary definition read off an all-pairs distance table, full pairwise
scans.  None of it shares code with the library paths it certifies; the
quasi-action oracles take only their samples (targets, pairs, balls) and
the least-squares fit from the library and redo every per-element loop.
"""

import itertools
import math
from collections import deque

import numpy as np

from roughcayley.actions import (
    AxiomCertificate,
    _ball,
    _central_targets,
    _fit_qi,
    _pair_sample,
)
from roughcayley.errors import CertificationError


def bfs_ball_depths(space, radius):
    """Word length of every element of N_radius(e), by plain layered BFS."""
    e = space.identity()
    depth = {e: 0}
    frontier = [e]
    gens = space.generators()
    for d in range(1, radius + 1):
        nxt = []
        for p in frontier:
            for g in gens:
                q = space.multiply(p, g)
                if q not in depth:
                    depth[q] = d
                    nxt.append(q)
        frontier = nxt
    return depth


def free_reduce(letters):
    """Free reduction of a letter sequence by a stack: cancel g, -g pairs."""
    out = []
    for g in letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def graph_distances_from(graph, source):
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def naive_ball_sizes(graph, x0, m_max):
    """|N_m(x0)| for m = 0..m_max, counted from one full BFS of the graph."""
    dist = graph_distances_from(graph, x0)
    return tuple(sum(1 for d in dist.values() if d <= m)
                 for m in range(m_max + 1))


def distance_table(graph):
    """All-pairs graph distances from one full BFS per vertex; unreachable
    pairs read the largest int64."""
    table = np.full((graph.n, graph.n), np.iinfo(np.int64).max,
                    dtype=np.int64)
    for x in range(graph.n):
        for v, d in graph_distances_from(graph, x).items():
            table[x, v] = d
    return table


def literal_c_boundary(graph, A, c, table=None):
    """Definition-literal: a vertex is in the boundary when its graph
    distance to A and to the complement are both at most c, read off the
    all-pairs ``table`` (``distance_table(graph)`` when not given)."""
    if table is None:
        table = distance_table(graph)
    in_a = np.zeros(graph.n, dtype=bool)
    in_a[list(A)] = True
    close = table <= c
    hit = close[:, in_a].any(axis=1) & close[:, ~in_a].any(axis=1)
    return [int(x) for x in np.flatnonzero(hit)]


def reference_greedy_scan(graph, c, schedule, swap_factor=10):
    """The entries ``folner_scan(graph, c, "greedy_improved", epsilon,
    schedule)`` should give when no ratio beats epsilon, from the
    definitions: balls about the deepest vertex (ties to the smallest point)
    that keep depth > c from the border, each scored by
    ``literal_c_boundary``, then a hill climb from the first best ball.  The
    climb tries the boundary in vertex order, set members before outer
    vertices, members only while two remain and outer vertices only at depth
    > c; it takes the first swap that lowers the ratio by more than 1e-9
    and starts over, for at most ``swap_factor * |ball|`` trials in all.
    Returns [] when no ball fits."""
    table = distance_table(graph)
    border = graph.border_vertices()
    if border:
        depth = table[:, border].min(axis=1)
    else:
        depth = np.full(graph.n, np.iinfo(np.int64).max)
    deepest = np.flatnonzero(depth == depth.max())
    center = min(deepest, key=lambda i: graph.point(int(i)))

    def score(members):
        boundary = literal_c_boundary(graph, members, c, table)
        return boundary, len(boundary) / len(members)

    entries = []
    best = None
    for r in sorted(schedule):
        ball = [int(v) for v in np.flatnonzero(table[center] <= r)]
        if any(depth[v] <= c for v in ball):
            continue
        boundary, ratio = score(ball)
        entries.append((f"ball:{r}", len(ball), len(boundary), ratio))
        if best is None or ratio < best[1]:
            best = (ball, ratio)
    if best is None:
        return []
    current = set(best[0])
    boundary, ratio = score(sorted(current))
    budget = swap_factor * len(current)
    improved = True
    while improved and budget > 0:
        improved = False
        tries = [v for v in boundary if v in current and len(current) > 1]
        tries += [v for v in boundary if v not in current and depth[v] > c]
        for v in tries:
            if budget <= 0:
                break
            budget -= 1
            trial = current - {v} if v in current else current | {v}
            trial_boundary, trial_ratio = score(sorted(trial))
            if trial_ratio < ratio - 1e-9:
                current, boundary, ratio = trial, trial_boundary, trial_ratio
                improved = True
                break
    entries.append((f"greedy:{len(current)}", len(current), len(boundary),
                    ratio))
    return entries


def naive_nearest(space, points, q):
    """Nearest point by full scan, lexicographically smallest on ties."""
    best = None
    best_d = None
    for p in points:
        d = space.distance(q, p)
        if best is None or d < best_d - 1e-9 or (d <= best_d + 1e-9 and p < best):
            best, best_d = p, d
    return best


def pairwise_min_distance(space, points):
    best = None
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            d = space.distance(p, q)
            if best is None or d < best:
                best = d
    return best


# ---------------------------------------------------------------------------
# quasi-action certificates by literal per-element loops over the public
# ``QuasiAction.act``: a batched reduction that drops, reorders or mis-pairs
# a row shows up as a different certificate


def literal_axiom_certificate(qa, group_radius=10, n_targets=8,
                              pair_core_cap=4000, n_extra_pairs=1000,
                              properness_radii=(2.0, 4.0, 6.0),
                              properness_scan=None, seed=0):
    space = qa.group_space
    d = space.distance
    margin = 2.0 * group_radius + qa.lattice.density_radius_r + 2.0
    targets = _central_targets(qa.lattice, margin, n_targets)
    pairs = _pair_sample(space, group_radius, pair_core_cap, n_extra_pairs,
                         seed)
    e = space.identity()
    identity_defect = max([0.0] + [d(qa.act(e, x), x) for x in targets])
    assoc = 0.0
    for s, t in pairs:
        st = space.multiply(s, t)
        for x in targets:
            assoc = max(assoc, d(qa.act(s, qa.act(t, x)), qa.act(st, x)))
    ball = _ball(space, group_radius)
    picks = sorted(set(int(i) for i in np.linspace(0, len(ball) - 1, 25)))
    per_s = 0.0
    for s in (ball[i] for i in picks):
        for x, y in itertools.combinations(targets, 2):
            per_s = max(per_s, abs(d(qa.act(s, x), qa.act(s, y)) - d(x, y)))
    orbit_diam = 0.0
    for x in targets:
        orbit = [qa.act(k, x) for k in _ball(space, 1)]
        for p, q in itertools.combinations(orbit, 2):
            orbit_diam = max(orbit_diam, d(p, q))
    r_list = sorted(properness_radii)
    if properness_scan is None:
        properness_scan = int(math.ceil(
            r_list[-1] + 2 * qa.lattice.density_radius_r + 2))
    scan = _ball(space, properness_scan)
    witnesses = []
    for R in r_list:
        worst = 0.0
        for x in targets[:3]:
            for s in scan:
                if d(qa.act(s, x), x) <= R + 1e-9:
                    worst = max(worst, d(e, s))
        if worst >= properness_scan - 1e-9:
            raise CertificationError(f"witness for R={R} reached the scan")
        witnesses.append((R, worst))
    return AxiomCertificate(
        per_s_qi_defect=per_s, identity_defect=identity_defect,
        associativity_defect=assoc, orbit_diameter=orbit_diam,
        properness=tuple(witnesses),
        sample={"group_radius": group_radius, "n_pairs": len(pairs),
                "n_targets": len(targets),
                "properness_scan": properness_scan, "seed": seed})


def literal_orbit_constants(qa, radii, pair_core_cap=10000,
                            n_extra_pairs=3000, seed=0):
    """(radius, C, r, n_pairs) per radius, from ``act(g, x0)`` per pair."""
    space = qa.group_space
    x0 = qa.phi(space.identity())
    rows = []
    for m in sorted(radii):
        dg, dx = [], []
        for s, t in _pair_sample(space, m, pair_core_cap, n_extra_pairs,
                                 seed, ordered=False):
            if s != t:
                dg.append(space.distance(s, t))
                dx.append(space.distance(qa.act(s, x0), qa.act(t, x0)))
        rows.append((m, *_fit_qi(dg, dx), len(dg)))
    return tuple(rows)


def literal_conjugacy_defect(qa1, qa2, group_radius=8, n_targets=12,
                             pair_core_cap=4000, n_extra=1000, seed=0):
    """Worst d(phi12(s.x), s.phi12(x)) for the nearest-point phi12."""
    space = qa1.group_space

    def phi12(x):
        return qa2.phi(qa1.psi(x))

    margin = 2.0 * group_radius + qa1.lattice.density_radius_r \
        + qa2.lattice.density_radius_r + 2.0
    targets = _central_targets(qa1.lattice, margin, n_targets)
    elements = _ball(space, group_radius)
    if len(elements) * len(targets) > pair_core_cap + n_extra:
        for m in range(group_radius, -1, -1):
            core = _ball(space, m)
            if len(core) * len(targets) <= pair_core_cap:
                break
        extra = np.random.default_rng(seed).integers(0, len(elements),
                                                      size=n_extra)
        elements = core + [elements[i] for i in extra]
    return max([0.0] + [space.distance(phi12(qa1.act(s, x)),
                                       qa2.act(s, phi12(x)))
                        for s in elements for x in targets])
