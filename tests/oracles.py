"""Independent brute-force oracles the tests check library results against.

Everything here is deliberately naive: plain BFS over generators, the
boundary definition read off an all-pairs distance table, full pairwise
scans.  None of it shares code with the library paths it certifies.
"""

from collections import deque

import numpy as np


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
