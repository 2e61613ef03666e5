"""Rough Cayley graphs: threshold graphs on quasi-lattices.

``build_graph`` connects lattice points at distance <= 2r + c + 1 (density
radius r, coarse-geodesic constant c), which makes the graph connected,
uniformly locally finite and quasi-isometric to the ambient space.
``certify_qi`` checks the two defining inequalities

    d(x, y) <= (2r + c + 1) d_graph(x, y)
    d_graph(x, y) <= d(x, y) + c + 1

on sampled interior vertex pairs.

Two implicit (infinite, window-free) graphs are also provided for analyses
that would otherwise drown in window-border effects: ``CayleyGraph`` over a
whole discrete group and ``HorocyclicGraph`` over the full horocyclic
lattice of the upper half-plane.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificationError,
    DisconnectedGraphError,
    DomainError,
    SchemaError,
    UnreachableError,
)
from .nets import HOROCYCLIC_DENSITY_RADIUS, Grid, QuasiLattice
from .spaces import (
    HyperbolicPlaneModel,
    QiConstants,
    TOL,
    bfs_layers,
    hyperbolic_distance_arrays,
    word_ball,
)


def default_threshold(lattice: QuasiLattice) -> float:
    return 2.0 * lattice.density_radius_r + lattice.space.coarse_constant_c + 1.0


@dataclass
class RoughGraph:
    """Finite threshold graph over a windowed quasi-lattice."""

    lattice: QuasiLattice
    threshold: float
    adjacency: list
    degree_bound_M: int = field(default=0)

    @property
    def n(self):
        return len(self.lattice.points)

    @property
    def space(self):
        return self.lattice.space

    def point(self, i):
        return self.lattice.points[i]

    def neighbors(self, i):
        return self.adjacency[i]

    def edges(self):
        for i, nbrs in enumerate(self.adjacency):
            for j in nbrs:
                if j > i:
                    yield i, j

    def n_edges(self):
        return sum(len(a) for a in self.adjacency) // 2

    def border_vertices(self):
        """Vertices whose window slack is below the threshold; their true
        neighborhoods may be truncated by the window."""
        slacks = self.lattice.slacks()
        return np.flatnonzero(slacks < self.threshold - TOL).tolist()

    def border_depths(self) -> np.ndarray:
        """Graph distance of every vertex to the border vertex set (-1 if it
        reaches none; the largest int64 everywhere if there is no border)."""
        border = self.border_vertices()
        if not border:
            return np.full(self.n, np.iinfo(np.int64).max, dtype=np.int64)
        depths = np.full(self.n, -1, dtype=np.int64)
        for depth, layer in enumerate(
                bfs_layers(self.adjacency.__getitem__, border)):
            depths[layer] = depth
        return depths

    def vertex_ids(self, ids):
        """Sorted distinct vertex ids; ``DomainError`` for one outside
        ``range(n)``."""
        ids = sorted(set(int(v) for v in ids))
        if ids and (ids[0] < 0 or ids[-1] >= self.n):
            raise DomainError(f"vertex ids must lie in range({self.n}); "
                              f"got ids from {ids[0]} to {ids[-1]}")
        return ids

    def deepest_vertex(self, depths):
        """The vertex deepest inside the window by ``depths``, the array
        ``border_depths()`` returns; ties go to the smallest point."""
        return min(np.flatnonzero(depths == depths.max()).tolist(),
                   key=self.point)

    def to_json(self) -> dict:
        return {
            "lattice": self.lattice.to_json(),
            "threshold": self.threshold,
            "degree_bound_M": self.degree_bound_M,
            "edges": [[i, j] for i, j in self.edges()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RoughGraph":
        lattice = QuasiLattice.from_json(obj["lattice"])
        n = len(lattice.points)
        adjacency = [[] for _ in range(n)]
        for i, j in obj["edges"]:
            if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n):
                raise SchemaError(f"edge {[i, j]!r} is no pair of vertex ids "
                                  f"in range({n})")
            adjacency[i].append(j)
            adjacency[j].append(i)
        for nbrs in adjacency:
            nbrs.sort()
        return cls(
            lattice=lattice,
            threshold=float(obj["threshold"]),
            adjacency=adjacency,
            degree_bound_M=int(obj["degree_bound_M"]),
        )


# ---------------------------------------------------------------------------
# edge construction (bucketed candidate generation, then exact distances)


def _edges_grid(lattice, threshold):
    # cells of side threshold hold every neighbour of a point in its own
    # cell or the next (see ``Grid``)
    pts = lattice.points
    dist = lattice.space._dist
    grid = Grid(threshold)
    for i, p in enumerate(pts):
        grid.add(p, i)
    adjacency = [[] for _ in pts]
    for i, p in enumerate(pts):
        for j in grid.near(p):
            if j > i and dist(p, pts[j]) <= threshold + TOL:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return adjacency


def _edges_h2(lattice, threshold):
    pts = lattice.points
    us = np.array([p[0] for p in pts])
    as_ = np.array([p[1] for p in pts])
    las = np.log(as_)
    rows = {}
    for i, la in enumerate(las):
        rows.setdefault(int(math.floor(la / threshold)), []).append(i)
    row_arrays = {}
    for k, idxs in rows.items():
        idxs = np.array(idxs)
        order = np.argsort(us[idxs], kind="stable")
        row_arrays[k] = idxs[order]
    stretch = (math.exp(threshold) - 1.0) / 2.0  # |du| <= (a1+a2)*stretch
    adjacency = [[] for _ in pts]
    for i in range(len(pts)):
        k0 = int(math.floor(las[i] / threshold))
        for k in (k0 - 1, k0, k0 + 1):
            idxs = row_arrays.get(k)
            if idxs is None:
                continue
            amax = as_[idxs].max()
            w = (as_[i] + amax) * stretch
            lo = np.searchsorted(us[idxs], us[i] - w, side="left")
            hi = np.searchsorted(us[idxs], us[i] + w, side="right")
            cand = idxs[lo:hi]
            d = hyperbolic_distance_arrays(us[i], as_[i], us[cand], as_[cand])
            for j in cand[d <= threshold + TOL]:
                if j > i:
                    adjacency[i].append(int(j))
                    adjacency[int(j)].append(i)
    return adjacency


def _edges_group_ball(lattice, threshold):
    # i ~ j when p_j = p_i g for a hop g; blocks of 2^14 products are found
    # by bisection in the lattice rows, sorted once as raw bytes (exact)
    space = lattice.space
    X = lattice.coords()
    n, w = len(X), max(X.shape[1], 1)
    hops = space.coords(list(word_ball(space, int(math.floor(threshold + TOL))))[1:])
    keys = _row_bytes(X, w)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    I, J = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, len(hops) * n, 1 << 14):
        k = np.arange(lo, min(lo + (1 << 14), len(hops) * n))
        i = k % n
        P = space._mul_many(X[i], hops[k // n])
        q = _row_bytes(P, w)
        at = np.minimum(np.searchsorted(keys, q), n - 1)
        hit = (keys[at] == q) & ~P[:, w:].any(axis=1) & (order[at] != i)
        I.append(i[hit])
        J.append(order[at[hit]])
    I, J = np.concatenate(I), np.concatenate(J)
    order = np.lexsort((J, I))
    ends = np.searchsorted(I[order], np.arange(n + 1)).tolist()
    # one int object per vertex id, shared by every list that holds it
    J = np.arange(n).astype(object)[J[order]].tolist()
    return [J[a:b] for a, b in zip(ends, ends[1:])]


def _row_bytes(A, w):
    """Each row of A, cut or zero-padded to w columns, as one bytes value."""
    out = np.zeros((len(A), w), dtype=A.dtype)
    out[:, :min(A.shape[1], w)] = A[:, :w]
    return out.view(f"V{out.itemsize * w}").ravel()


def build_graph(lattice: QuasiLattice, threshold=None) -> RoughGraph:
    """Threshold graph on the lattice; raises on a disconnected result.

    The default threshold is 2r + c + 1; ties at the threshold count as
    edges (1e-9 tolerance).  Disconnection signals an inadequate window or a
    wrong r/c, and the error carries the component sizes.
    """
    if threshold is None:
        threshold = default_threshold(lattice)
    space = lattice.space
    if space.grid_metric:
        adjacency = _edges_grid(lattice, threshold)
    elif space.tag == "h2":
        adjacency = _edges_h2(lattice, threshold)
    else:
        adjacency = _edges_group_ball(lattice, threshold)
    for nbrs in adjacency:
        nbrs.sort()
    graph = RoughGraph(
        lattice=lattice,
        threshold=float(threshold),
        adjacency=adjacency,
        degree_bound_M=max((len(a) for a in adjacency), default=0),
    )
    sizes = component_sizes(graph)
    if len(sizes) > 1:
        raise DisconnectedGraphError(sizes)
    return graph


def component_sizes(graph) -> list:
    """Sizes of the connected components, in order of their smallest id."""
    seen = np.zeros(graph.n, dtype=bool)
    sizes = []
    for s in range(graph.n):
        if not seen[s]:
            size = 0
            for layer in bfs_layers(graph.neighbors, [s]):
                seen[layer] = True
                size += len(layer)
            sizes.append(size)
    return sizes


# ---------------------------------------------------------------------------
# graph metric


def bfs_distances(graph, source, max_nodes=None):
    """Hop distances from a source vertex.

    Returns ``(dist, completed_depth)`` where ``dist`` maps vertex -> hops
    in BFS discovery order and ``completed_depth`` is the depth of its last
    layer.  With ``max_nodes`` the walk stops after the first complete
    layer whose running count exceeds ``max_nodes``; every kept layer is
    complete, so the distances of retained vertices are exact.
    """
    dist = {}
    for depth, layer in enumerate(bfs_layers(graph.neighbors, [source])):
        dist.update(dict.fromkeys(layer, depth))
        if max_nodes is not None and len(dist) > max_nodes:
            break
    return dist, depth


def graph_distance(graph, i, j) -> int:
    """BFS shortest-path length between two vertices."""
    for depth, layer in enumerate(bfs_layers(graph.neighbors, [i])):
        if j in layer:
            return depth
    raise UnreachableError(f"vertices {i} and {j} are in different components")


# ---------------------------------------------------------------------------
# quasi-isometry certification


def _qi_sample(graph, n_pairs, n_sources, max_nodes_per_source, seed):
    """The pairs ``certify_qi`` checks, in sample order, as the arrays
    (x, y, d(x, y), d_graph(x, y)) of vertex ids and distances."""
    lattice = graph.lattice
    c = graph.space.coarse_constant_c
    r = lattice.density_radius_r
    slacks, X = lattice.slacks(), lattice.coords()
    rng = np.random.default_rng(seed)
    eligible = np.flatnonzero(slacks >= c + r - TOL)
    if len(eligible) == 0:
        raise CertificationError("no vertex clears the interior margin")
    # draw sources from the deepest-interior vertices, where admissible
    # partners are plentiful; only the slacks tied with the k-th deepest
    # or above can reach the pool, so only they are sorted
    k = max(4 * n_sources, 200)
    if len(eligible) > k:
        kth = -np.partition(-slacks[eligible], k - 1)[k - 1]
        eligible = eligible[slacks[eligible] >= kth]
    pool = sorted(eligible, key=lambda i: (-slacks[i], graph.point(i)))[:k]
    sources = [pool[j] for j in rng.permutation(len(pool))[:n_sources]]
    # an empty first block keeps the columns defined if no source has pairs
    samples = [(np.empty(0, dtype=np.intp),) * 4]
    per_source = max(1, -(-3 * n_pairs // len(sources)))
    for s in sources:
        dist, _ = bfs_distances(graph, int(s), max_nodes=max_nodes_per_source)
        # the source is the first key; its partners follow in BFS order
        ts = np.fromiter(dist, dtype=np.intp, count=len(dist))[1:]
        dg = np.fromiter(dist.values(), dtype=np.intp, count=len(dist))[1:]
        d = graph.space.distances_from(X[s], X[ts])
        need = d / 2.0 + c + r - TOL
        cand = np.flatnonzero((slacks[s] >= need) & (slacks[ts] >= need))
        if len(cand) == 0:
            continue
        take = cand[rng.permutation(len(cand))[:per_source]]
        samples.append((np.full(len(take), s), ts[take], d[take], dg[take]))
    S, T, D, DG = (np.concatenate(col) for col in zip(*samples))
    if len(S) > n_pairs:
        keep = rng.permutation(len(S))[:n_pairs]
        S, T, D, DG = S[keep], T[keep], D[keep], DG[keep]
    return S, T, D, DG


def certify_qi(graph: RoughGraph, n_pairs=1000, n_sources=50,
               max_nodes_per_source=4000, seed=0) -> QiConstants:
    """Verify both quasi-isometry inequalities on sampled interior pairs.

    A pair (x, y) is admitted when both endpoints keep boundary slack at
    least d(x,y)/2 + c + r, which guarantees that coarse geodesics between
    them, thickened by the density radius, stay inside the window.  The
    admission test takes d from the model's array distance kernel
    (``distances_from`` on ``lattice.coords()``), which agrees with
    ``_dist`` to within TOL.  Any violating pair raises
    ``CertificationError`` naming the first one in sample order.
    """
    S, T, D, DG = _qi_sample(graph, n_pairs, n_sources, max_nodes_per_source,
                             seed)
    c = graph.space.coarse_constant_c
    C = 2.0 * graph.lattice.density_radius_r + c + 1.0
    too_far = D > C * DG + TOL
    bad = np.flatnonzero(too_far | (DG > D + c + 1.0 + TOL))
    if len(bad):
        i = bad[0]
        raise CertificationError(
            "ambient distance exceeds (2r+c+1) * graph distance" if too_far[i]
            else "graph distance exceeds ambient distance + c + 1",
            witness=(graph.point(int(S[i])), graph.point(int(T[i])),
                     float(D[i]), int(DG[i])),
        )
    return QiConstants(
        C=C,
        r=c + 1.0,
        sample_size=len(S),
        certified_over=(
            f"{len(S)} interior vertex pairs of {graph.space.model_id} graph "
            f"(threshold {graph.threshold:g}, seed {seed})"
        ),
    )


# ---------------------------------------------------------------------------
# exports


def graph_stats(graph: RoughGraph) -> dict:
    degs = [len(a) for a in graph.adjacency]
    return {
        "vertices": graph.n,
        "edges": graph.n_edges(),
        "threshold": graph.threshold,
        "max_degree": max(degs, default=0),
        "mean_degree": float(np.mean(degs)) if degs else 0.0,
        "components": len(component_sizes(graph)),
    }


def to_dot(graph: RoughGraph) -> str:
    """DOT export; vertex labels are the serialized points."""
    lines = ["graph rough {"]
    for i, p in enumerate(graph.lattice.points):
        label = json.dumps(graph.space.point_to_json(p), sort_keys=True)
        lines.append(f'  v{i} [label={json.dumps(label)}];')
    for i, j in graph.edges():
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def edge_csv(graph: RoughGraph) -> str:
    """CSV edge list with ambient distances: i, j, d."""
    rows = ["i,j,d"]
    for i, j in graph.edges():
        d = graph.space.distance(graph.point(i), graph.point(j))
        rows.append(f"{i},{j},{d!r}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# implicit infinite graphs


class CayleyGraph:
    """Implicit Cayley graph of a discrete group model (no window).

    Vertices are all group elements; x ~ y when the word distance is at most
    ``threshold`` (default 1: the standard Cayley graph).  Neighborhoods are
    generated on demand by right multiplication, so finite computations on
    it are exact, free of window-border effects.  ``neighbors`` checks the
    vertex it is given once and multiplies with the unchecked kernel.
    """

    def __init__(self, space, threshold=1):
        if not (space.is_discrete and space.is_group):
            raise DomainError("CayleyGraph needs a discrete group model")
        self.space = space
        self.threshold = int(threshold)
        self._hops = list(word_ball(space, self.threshold))[1:]

    @property
    def base_vertex(self):
        return self.space.identity()

    def neighbors(self, p):
        self.space.check_point(p)
        mul = self.space._mul
        return [mul(p, g) for g in self._hops]

    def point(self, p):
        return p


class HorocyclicGraph:
    """Implicit rough graph of the full horocyclic lattice in the half-plane.

    Vertices are coordinate pairs (m, n) standing for the point
    (e^n m, e^n); the edge rule is the usual distance threshold
    2r + c + 1 with r = 1.07, c = 0.  Adjacency has a closed form: with
    cosh d = 1 + |z - z'|^2 / (2 a a'), two vertices at level offset dn are
    adjacent exactly when (m - m' e^dn)^2 <= 2 e^dn (cosh t - cosh dn),
    so neighbor enumeration is pure integer-interval arithmetic.
    """

    def __init__(self, threshold=2 * HOROCYCLIC_DENSITY_RADIUS + 1.0):
        self.space = HyperbolicPlaneModel()
        self.threshold = float(threshold)
        cosht = math.cosh(self.threshold)
        self._dn_max = int(math.floor(self.threshold + TOL))
        self.reach = {}
        for dn in range(-self._dn_max, self._dn_max + 1):
            b2 = 2.0 * math.exp(dn) * (cosht - math.cosh(dn))
            self.reach[dn] = math.sqrt(max(0.0, b2))

    @property
    def base_vertex(self):
        return (0, 0)

    def point(self, v):
        m, n = v
        en = math.exp(n)
        return (en * m, en)

    def neighbors(self, v):
        m, n = v
        out = []
        for dn, b in self.reach.items():
            s = math.exp(dn)
            lo = math.ceil((m - b) / s - 1e-9)
            hi = math.floor((m + b) / s + 1e-9)
            for m2 in range(lo, hi + 1):
                if dn != 0 or m2 != m:
                    out.append((m2, n + dn))
        return out
