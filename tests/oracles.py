"""Independent brute-force oracles the tests check library results against.

Everything here is deliberately naive: plain BFS over generators, literal
double loops over the boundary definition, full pairwise scans.  None of it
shares code with the library paths it certifies.
"""

from collections import deque


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


def literal_c_boundary(graph, A, c):
    """Definition-literal double loop: a vertex is in the boundary when its
    graph distance to A and to the complement are both at most c."""
    a_set = set(A)
    out = []
    for x in range(graph.n):
        dist = graph_distances_from(graph, x)
        d_to_a = min((d for v, d in dist.items() if v in a_set), default=None)
        d_to_comp = min((d for v, d in dist.items() if v not in a_set),
                        default=None)
        if d_to_a is not None and d_to_a <= c \
                and d_to_comp is not None and d_to_comp <= c:
            out.append(x)
    return out


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
