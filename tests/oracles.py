"""Independent brute-force oracles the tests check library results against.

Everything here is deliberately naive: plain BFS over generators or
neighbour functions, the boundary definition read off an all-pairs
distance table or walked on Python sets, full pairwise scans.  None of it
shares code with the library paths it certifies; the Heisenberg box filter
takes the closed-form word lengths, which the tests check against BFS, and
the quasi-action oracles take only their targets, the core radius and
the least-squares fit from the library, draw their samples as tuples
(``tuple_ball``, ``tuple_pair_sample``) and redo every per-element loop.
"""

import functools
import itertools
import math
from collections import deque

import numpy as np

from roughcayley.actions import (
    AxiomCertificate,
    QuasiAction,
    _central_targets,
    _core_radius,
    _fit_qi,
)
from roughcayley.errors import (
    CertificationError,
    DomainError,
    ModelMismatchError,
)
from roughcayley.nets import MultiplicityProfile
from roughcayley.spaces import BallWindow, _heis_lengths


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


def bfs_layers(neighbors, sources):
    """Breadth-first layers about ``sources`` over any neighbour function:
    the distinct sources, then each list of newly reached vertices in
    discovery order, until none is left."""
    layer = list(dict.fromkeys(sources))
    seen = set(layer)
    while layer:
        yield layer
        layer = [w for v in layer for w in neighbors(v)
                 if w not in seen and not seen.add(w)]


def set_within(graph, seeds, c):
    """N_c(seeds) as a set, by the layered set walk over ``neighbors``."""
    return set().union(
        *itertools.islice(bfs_layers(graph.neighbors, seeds), int(c) + 1))


def local_boundary(graph, a_set, c):
    """The c-boundary of the vertex set ``a_set`` by set walks: outer | inner
    with outer = N_c(A) minus A and inner = A & N_c(outer).  It visits only
    N_2c(A), so it serves the implicit infinite graphs too."""
    outer = set_within(graph, a_set, c) - a_set
    return outer | (set_within(graph, outer, c) & a_set)


def packed_bfs_balls(engine, origin, r_max):
    """The sorted word balls of radius 0..r_max of a packed Folner engine,
    by a layered BFS over its ``expand`` from ``origin``, the code of the
    identity: the generators are symmetric, so layer k + 1 is the expansion
    of layer k less layers k and k - 1."""
    layers = [np.empty(0, dtype=np.int64), np.array([origin], dtype=np.int64)]
    yield layers[1]
    for _ in range(r_max):
        nb = np.unique(engine.expand(layers[-1]))
        layers.append(nb[~np.isin(nb, np.concatenate(layers[-2:]))])
        yield np.sort(np.concatenate(layers))


def _member(codes, arr):
    """The mask of the entries of ``arr`` found in the sorted distinct
    ``codes``, which may be empty only when ``arr`` is."""
    i = np.searchsorted(codes, arr).clip(max=len(codes) - 1)
    return codes[i] == arr


def sorted_code_closure(engine, arr, steps, within=None):
    """N_steps(arr) for sorted distinct codes of a Folner engine, with the
    whole set re-sorted at every step: each step adds the expansion of the
    codes the step before added.  With ``within`` (sorted distinct) each
    step but the last keeps only the codes found in it."""
    out = new = arr
    for left in range(int(steps) - 1, -1, -1):
        grown = np.unique(np.concatenate([out, engine.expand(new)]))
        if left:
            if within is not None:
                grown = grown[_member(within, grown)]
            new = grown[~_member(out, grown)]
        out = grown
    return out


def sorted_code_boundary(engine, a_sorted, steps):
    """(outer, inner) of the sorted distinct codes of A by sorted-set
    operations: outer = N_c(A) \\ A, inner = A & N_c(outer), the closure of
    outer kept inside N_c(A)."""
    grown = sorted_code_closure(engine, a_sorted, steps)
    outer = np.setdiff1d(grown, a_sorted, assume_unique=True)
    inner = np.intersect1d(
        sorted_code_closure(engine, outer, steps, within=grown), a_sorted,
        assume_unique=True)
    return outer, inner


def heisenberg_balls_by_box(r_max):
    """N_r(e) of the Heisenberg group for r = 0..r_max as (n, 3) arrays in
    lexicographic order: the points of the box |a|, |b| <= r_max,
    |c| <= r_max^2 / 4 whose closed-form length is at most r.  The box
    holds N_r_max(e): a word with p letters x^+-1 and q letters y^+-1 keeps
    |a| <= p, and each y letter moves c by a, so |c| <= p q <= r_max^2 / 4."""
    R, Q = r_max, r_max * r_max // 4
    b, c = (g.ravel() for g in np.meshgrid(
        np.arange(-R, R + 1), np.arange(-Q, Q + 1), indexing="ij"))
    lengths = np.stack([_heis_lengths(np.full(len(b), a), b, c)
                        for a in range(-R, R + 1)]).astype(np.int16)
    lengths = lengths.reshape(2 * R + 1, 2 * R + 1, 2 * Q + 1)
    for r in range(r_max + 1):
        yield np.argwhere(lengths <= r) - [R, R, Q]


def free_reduce(letters):
    """Free reduction of a letter sequence by a stack: cancel g, -g pairs."""
    out = []
    for g in letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def reference_zd_geodesic(x, y):
    """(parameters, points) of the axis-by-axis word geodesic in Z^d: unit
    steps toward y along axis 0, then along axis 1, and so on."""
    pts = [x]
    cur = list(x)
    for i in range(len(x)):
        step = 1 if y[i] > x[i] else -1
        for _ in range(abs(y[i] - x[i])):
            cur[i] += step
            pts.append(tuple(cur))
    return [float(t) for t in range(len(pts))], pts


def reference_free_geodesic(x, y):
    """(parameters, points) of the word geodesic in a free group: the
    letters of the reduced word x^-1 y appended to x one at a time."""
    pts = [x]
    for g in free_reduce(tuple(-g for g in reversed(x)) + y):
        pts.append(free_reduce(pts[-1] + (g,)))
    return [float(t) for t in range(len(pts))], pts


def graph_distances_from(graph, source, max_nodes=None):
    """Hop distances from source in FIFO order.  With ``max_nodes`` only
    the layers up to the first whose running count exceeds it."""
    dist = {source: 0}
    q = deque([source])
    depth = -1
    while q:
        u = q.popleft()
        if dist[u] > depth:
            # u opens its layer: that layer is all found, nothing deeper is
            depth = dist[u]
            if max_nodes is not None and len(dist) > max_nodes:
                break
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def literal_qi_pairs(graph, n_pairs=1000, n_sources=50, max_nodes=4000,
                     seed=0):
    """The pairs (s, t, d, d_graph) ``certify_qi`` samples, by a scalar loop
    over its definition: sources drawn from the max(4 n_sources, 200)
    eligible vertices of largest slack (ties to the smaller point), partners
    from the capped BFS of each source, kept when both slacks clear
    d/2 + c + r, with the same draws.  Raises ``CertificationError`` at the
    first sampled pair that breaks an inequality, as the library does."""
    space, lattice = graph.space, graph.lattice
    c, r = space.coarse_constant_c, lattice.density_radius_r
    slack = [space.boundary_slack(lattice.window, p) for p in lattice.points]
    rng = np.random.default_rng(seed)
    eligible = [i for i in range(graph.n) if slack[i] >= c + r - 1e-9]
    pool = sorted(eligible, key=lambda i: (-slack[i], graph.point(i)))
    pool = pool[:max(4 * n_sources, 200)]
    pick = rng.permutation(len(pool))[:min(n_sources, len(pool))]
    per_source = max(1, -(-3 * n_pairs // len(pick)))
    pairs = []
    for s in (pool[k] for k in pick):
        cand = []
        for t, dg in graph_distances_from(graph, s, max_nodes).items():
            d = space.distance(graph.point(s), graph.point(t))
            need = d / 2.0 + c + r
            if t != s and slack[s] >= need - 1e-9 and slack[t] >= need - 1e-9:
                cand.append((s, t, d, dg))
        if cand:
            pairs += [cand[k] for k in rng.permutation(len(cand))[:per_source]]
    if len(pairs) > n_pairs:
        pairs = [pairs[k] for k in rng.permutation(len(pairs))[:n_pairs]]
    for s, t, d, dg in pairs:
        witness = (graph.point(s), graph.point(t), d, dg)
        if d > (2.0 * r + c + 1.0) * dg + 1e-9:
            raise CertificationError(
                "ambient distance exceeds (2r+c+1) * graph distance", witness)
        if dg > d + c + 1.0 + 1e-9:
            raise CertificationError(
                "graph distance exceeds ambient distance + c + 1", witness)
    return pairs


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


# ---------------------------------------------------------------------------
# the point checks and ball-window tests each model wrote out for itself,
# keyed by model tag; ``SpaceModel`` now holds one body for each rule


def _zd_check_point(space, x):
    if not (isinstance(x, tuple) and len(x) == space.d
            and all(isinstance(v, int) for v in x)):
        raise ModelMismatchError(f"{x!r} is not a point of {space.model_id}")


def _heisenberg_check_point(space, x):
    if not (isinstance(x, tuple) and len(x) == 3
            and all(isinstance(v, int) for v in x)):
        raise ModelMismatchError(f"{x!r} is not a point of {space.model_id}")


def _euclidean_check_point(space, x):
    if not (isinstance(x, tuple) and len(x) == space.d
            and all(isinstance(v, (int, float)) for v in x)):
        raise ModelMismatchError(f"{x!r} is not a point of {space.model_id}")
    if any(math.isnan(v) or math.isinf(v) for v in x):
        raise DomainError(f"{x!r} has a coordinate that is not finite")


def _h2_check_point(space, x):
    _euclidean_check_point(space, x)
    if not x[1] > 0:
        raise DomainError(f"hyperbolic point needs a > 0, got {x!r}")


def _free_group_check_point(space, x):
    if not isinstance(x, tuple):
        raise ModelMismatchError(f"{x!r} is not a point of {space.model_id}")
    for i, g in enumerate(x):
        if not isinstance(g, int) or g == 0 or abs(g) > space.k:
            raise ModelMismatchError(f"bad letter {g!r} in {x!r}")
        if i and x[i - 1] == -g:
            raise DomainError(f"word {x!r} is not reduced")


REFERENCE_CHECK_POINT = {
    "zd": _zd_check_point,
    "heisenberg": _heisenberg_check_point,
    "euclidean": _euclidean_check_point,
    "h2": _h2_check_point,
    "free_group": _free_group_check_point,
}


def shortlex_ball(space, radius):
    """The free-group word ball N_radius(e) as tuples in shortlex order
    (length first, then letters -k..-1, 1..k), layer by layer."""
    letters = list(range(-space.k, 0)) + list(range(1, space.k + 1))
    layers = [[()]] if radius >= 0 else []
    for _ in range(radius):
        layers.append([w + (g,) for w in layers[-1] for g in letters
                       if not w or w[-1] != -g])
    return list(itertools.chain.from_iterable(layers))

REFERENCE_WINDOW_CONTAINS = {
    "zd": lambda space, window, x: sum(abs(v) for v in x) <= window.radius,
    "free_group": lambda space, window, x: len(x) <= window.radius,
    "heisenberg": lambda space, window, x: (
        space._dist(space.base_point, x) <= window.radius + 1e-9),
}


def hyperbolic_distance_log_form(x, y):
    """The h2 distance of points (u, a), a > 0, in its log form
    log((|x-conj y|+|x-y|)/(|x-conj y|-|x-y|)) for x = u1+i a1,
    y = u2+i a2."""
    p = math.hypot(x[0] - y[0], x[1] - y[1])
    q = math.hypot(x[0] - y[0], x[1] + y[1])
    return math.log((q + p) / (q - p))


def naive_nearest(space, points, q):
    """Nearest point by full scan, lexicographically smallest on ties."""
    best = None
    best_d = None
    for p in points:
        d = space.distance(q, p)
        if best is None or d < best_d - 1e-9 or (d <= best_d + 1e-9 and p < best):
            best, best_d = p, d
    return best


def naive_edges(lattice, threshold):
    """Sorted adjacency lists of the threshold graph, by testing every pair
    with the public distance: an edge where d <= threshold + 1e-9."""
    pts = lattice.points
    adjacency = [[] for _ in pts]
    for i, j in itertools.combinations(range(len(pts)), 2):
        if lattice.space.distance(pts[i], pts[j]) <= threshold + 1e-9:
            adjacency[i].append(j)
            adjacency[j].append(i)
    return adjacency


def literal_quasilattice_certificate(lattice, probes, r_list, seed=None):
    """``verify_quasilattice`` by one full ``distances_from`` scan of the
    lattice per probe, without its point and border checks: the worst
    nearest distance and, per radius R, the largest count within R + 1e-9."""
    r_list = sorted(float(r) for r in r_list)
    if not probes:
        return ({"vacuous": True, "n_probes": 0, "seed": seed,
                 "max_min_distance": None},
                MultiplicityProfile(tuple((r, 0) for r in r_list)))
    worst = 0.0
    counts = [0] * len(r_list)
    coords = lattice.coords()
    for p in probes:
        d = lattice.space.distances_from(p, coords)
        worst = max(worst, float(d.min()) if len(d) else math.inf)
        for j, r in enumerate(r_list):
            counts[j] = max(counts[j], int((d <= r + 1e-9).sum()))
    return ({"vacuous": False, "n_probes": len(probes), "seed": seed,
             "max_min_distance": worst},
            MultiplicityProfile(tuple(zip(r_list, counts))))


def scalar_greedy_net(space, enumeration, delta):
    """The points a greedy delta-net keeps, by one scalar distance per
    enumerated point and point kept before it."""
    chosen = []
    for p in enumeration:
        if all(space.distance(p, q) >= delta - 1e-9 for q in chosen):
            chosen.append(p)
    return chosen


def first_copy_greedy_net(space, enumeration, delta):
    """The scalar greedy net of an enumeration whose repeats are dropped
    first by hashed tuple equality, ``dict.fromkeys``: the first copy of a
    point is the one kept, so (-0.0, 0.0) stays when (0.0, 0.0) follows."""
    return scalar_greedy_net(space, list(dict.fromkeys(enumeration)), delta)


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


def tuple_ball(space, radius):
    """The word ball N_radius(e) as the tuple enumeration of the window."""
    return space.enumerate_window(BallWindow(radius))


def tuple_pair_sample(space, radius, core_cap, n_extra, seed, ordered=True):
    """The pair sample of ``actions._pair_sample`` as a list of tuple pairs
    (s, t), from the tuple balls: the pairs of the core ball (all ordered
    pairs, or its combinations), then the seeded extra draws from the full
    ball, an unordered draw of one index twice skipped."""
    m_core = _core_radius(space, radius, lambda n: n * n <= core_cap)
    core = tuple_ball(space, m_core)
    if ordered:
        pairs = [(s, t) for s in core for t in core]
    else:
        pairs = list(itertools.combinations(core, 2))
    if radius > m_core and n_extra > 0:
        full = tuple_ball(space, radius)
        rng = np.random.default_rng(seed)
        si = rng.integers(0, len(full), size=n_extra)
        ti = rng.integers(0, len(full), size=n_extra)
        for a, b in zip(si, ti):
            if not ordered and a == b:
                continue
            pairs.append((full[a], full[b]))
    return pairs


def dict_distinct_rows(points):
    """The distinct points of an iterable of tuples, in first-occurrence
    order, and the position of each point among them, by a dict."""
    seen = {}
    inverse = [seen.setdefault(q, len(seen)) for q in points]
    return list(seen), inverse


def _remembering(qa):
    """qa with each phi answer kept per query point.  The literal loops ask
    phi about the same products again and again (99,334 calls on 709
    points in the Z^2 case of the certificate tests), and each call to the
    library's phi is one nearest-point search."""
    return QuasiAction(qa.group_space, qa.lattice, functools.cache(qa.phi),
                       qa.psi, qa.description)


def literal_axiom_certificate(qa, group_radius=10, n_targets=8,
                              pair_core_cap=4000, n_extra_pairs=1000,
                              properness_radii=(2.0, 4.0, 6.0),
                              properness_scan=None, seed=0):
    qa = _remembering(qa)
    space = qa.group_space
    d = space.distance
    r_list = sorted(properness_radii)
    r = qa.lattice.density_radius_r
    if properness_scan is None:
        properness_scan = int(math.ceil(r_list[-1] + 2 * r + 2))
    # targets clear the products s t x and the scanned s x
    margin = max(2.0 * group_radius, properness_scan) + r + 2.0
    targets = list(space._points(_central_targets(qa.lattice, margin,
                                                  n_targets)))
    pairs = tuple_pair_sample(space, group_radius, pair_core_cap,
                              n_extra_pairs, seed)
    e = space.identity()
    identity_defect = max([0.0] + [d(qa.act(e, x), x) for x in targets])
    assoc = 0.0
    for s, t in pairs:
        st = space.multiply(s, t)
        for x in targets:
            assoc = max(assoc, d(qa.act(s, qa.act(t, x)), qa.act(st, x)))
    ball = tuple_ball(space, group_radius)
    picks = sorted(set(int(i) for i in np.linspace(0, len(ball) - 1, 25)))
    per_s = 0.0
    for s in (ball[i] for i in picks):
        for x, y in itertools.combinations(targets, 2):
            per_s = max(per_s, abs(d(qa.act(s, x), qa.act(s, y)) - d(x, y)))
    orbit_diam = 0.0
    for x in targets:
        orbit = [qa.act(k, x) for k in tuple_ball(space, 1)]
        for p, q in itertools.combinations(orbit, 2):
            orbit_diam = max(orbit_diam, d(p, q))
    scan = tuple_ball(space, properness_scan)
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
    qa = _remembering(qa)
    space = qa.group_space
    x0 = qa.phi(space.identity())
    rows = []
    for m in sorted(radii):
        dg, dx = [], []
        for s, t in tuple_pair_sample(space, m, pair_core_cap,
                                      n_extra_pairs, seed, ordered=False):
            if s != t:
                dg.append(space.distance(s, t))
                dx.append(space.distance(qa.act(s, x0), qa.act(t, x0)))
        rows.append((m, *_fit_qi(dg, dx), len(dg)))
    return tuple(rows)


def literal_conjugacy_defect(qa1, qa2, group_radius=8, n_targets=12,
                             pair_core_cap=4000, n_extra=1000, seed=0):
    """Worst d(phi12(s.x), s.phi12(x)) for the nearest-point phi12."""
    qa1, qa2 = _remembering(qa1), _remembering(qa2)
    space = qa1.group_space

    def phi12(x):
        return qa2.phi(qa1.psi(x))

    margin = 2.0 * group_radius + qa1.lattice.density_radius_r \
        + qa2.lattice.density_radius_r + 2.0
    targets = list(space._points(_central_targets(qa1.lattice, margin,
                                                  n_targets)))
    elements = tuple_ball(space, group_radius)
    if len(elements) * len(targets) > pair_core_cap + n_extra:
        for m in range(group_radius, -1, -1):
            core = tuple_ball(space, m)
            if len(core) * len(targets) <= pair_core_cap:
                break
        extra = np.random.default_rng(seed).integers(0, len(elements),
                                                      size=n_extra)
        elements = core + [elements[i] for i in extra]
    return max([0.0] + [space.distance(phi12(qa1.act(s, x)),
                                       qa2.act(s, phi12(x)))
                        for s in elements for x in targets])
