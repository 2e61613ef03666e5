"""Rough Cayley graphs: threshold graphs on quasi-lattices.

``build_graph`` connects lattice points at distance <= 2r + c + 1 (density
radius r, coarse-geodesic constant c), which makes the graph connected,
uniformly locally finite and quasi-isometric to the ambient space.  One
dispatch, ``_pairs``, builds a point array's side of the candidate pairs
once (coordinate cells, hyperbolic rows or group-ball hops) and returns
its query; ``build_graph`` alone keeps edges from them, ``nets.greedy_net``
reads its conflicts from them, a lattice keeps its side per threshold for
``nets._near_pairs``, and ``_adjacency`` alone lays out the neighbour lists.
Every walk over a finite graph reads the graph's CSR arrays (``csr``):
``spaces.csr_layers`` takes one array step per breadth-first layer, and
the Folner engine of a finite graph gathers the same rows with
``spaces.csr_rows``.  ``certify_qi`` checks the two defining inequalities

    d(x, y) <= (2r + c + 1) d_graph(x, y)
    d_graph(x, y) <= d(x, y) + c + 1

on sampled interior vertex pairs.

Two implicit (infinite, window-free) graphs are also provided for analyses
that would otherwise drown in window-border effects: ``CayleyGraph`` over a
whole discrete group and ``HorocyclicGraph`` over the full horocyclic
lattice of the upper half-plane.  Their ``neighbors`` is the literal edge
rule; Folner scans on them run the closed-form engines of ``folner``.
"""

from __future__ import annotations

import itertools
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
from .nets import HOROCYCLIC_DENSITY_RADIUS, QuasiLattice
from .spaces import (
    BallWindow,
    HyperbolicPlaneModel,
    QiConstants,
    TOL,
    _num,
    _row_index,
    _width,
    csr_layers,
    hyperbolic_distance_arrays,
)


def default_threshold(lattice: QuasiLattice) -> float:
    return 2.0 * lattice.density_radius_r + lattice.space.coarse_constant_c + 1.0


@dataclass
class RoughGraph:
    """Finite threshold graph over a windowed quasi-lattice.

    ``adjacency`` holds the sorted neighbour lists and is what ``edges``,
    ``n_edges`` and ``to_json`` read.  The walks (distances, components,
    border depths, balls, boundaries) read ``csr()``, a snapshot of it
    taken on first use; library code never mutates a graph after
    construction.
    """

    lattice: QuasiLattice
    threshold: float
    adjacency: list
    degree_bound_M: int = field(default=0)

    def __post_init__(self):
        self._csr = None

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

    def csr(self):
        """Read-only int32 arrays ``(indptr, indices)``: the neighbours of
        vertex i are ``indices[indptr[i]:indptr[i + 1]]``, in ``adjacency``
        order.  Built once, on first use."""
        if self._csr is None:
            indptr = np.zeros(len(self.adjacency) + 1, dtype=np.int32)
            np.cumsum(np.fromiter(map(len, self.adjacency), dtype=np.int32,
                                  count=len(self.adjacency)), out=indptr[1:])
            indices = np.fromiter(itertools.chain.from_iterable(self.adjacency),
                                  dtype=np.int32, count=int(indptr[-1]))
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._csr = indptr, indices
        return self._csr

    def edges(self):
        return ((i, j) for i, nbrs in enumerate(self.adjacency)
                for j in nbrs if j > i)

    def n_edges(self):
        return sum(len(a) for a in self.adjacency) // 2

    def border_vertices(self):
        """Vertices whose window slack is below the threshold; their true
        neighborhoods may be truncated by the window."""
        slacks = self.lattice.slacks()
        return np.flatnonzero(slacks < self.threshold - TOL).tolist()

    def border_depths(self) -> np.ndarray:
        """Graph distance of every vertex to the border vertex set; the
        largest int64 where it reaches none, as everywhere on a graph with
        no border, since no window can cut that vertex's balls."""
        border = self.border_vertices()
        depths = np.full(self.n, np.iinfo(np.int64).max, dtype=np.int64)
        for depth, layer in enumerate(csr_layers(*self.csr(), border)):
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
        """The graph of a ``to_json`` object; ``SchemaError`` for a self-loop,
        an edge listed twice, a ``degree_bound_M`` below a degree, a
        threshold that is not finite or is below 0, or an edge longer than
        the threshold (plus 1e-9), its length taken as the edge builders
        take it, so that every graph ``build_graph`` makes reads back."""
        lattice = QuasiLattice.from_json(obj["lattice"])
        n = len(lattice.points)
        for i, j in obj["edges"]:
            if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n
                    and i != j):
                raise SchemaError(f"edge {[i, j]!r} is no pair of distinct "
                                  f"vertex ids in range({n})")
        ends = np.fromiter(itertools.chain.from_iterable(obj["edges"]), np.intp)
        I, J = ends.reshape(-1, 2).T
        adjacency = _adjacency(n, [(I, J)])
        if any(len(set(nbrs)) < len(nbrs) for nbrs in adjacency):
            raise SchemaError("the graph lists an edge twice")
        bound = _num(obj["degree_bound_M"], int)
        if bound < max(map(len, adjacency), default=0):
            raise SchemaError(f"degree_bound_M {bound} is below a vertex degree")
        threshold = _num(obj["threshold"], float)
        if not math.isfinite(threshold):
            raise SchemaError(f"threshold must be finite, got {threshold!r}")
        if threshold < 0:
            raise SchemaError(f"threshold must be >= 0, got {threshold!r}")
        P = lattice.coords().take(ends, axis=0)   # the ends' rows, in pairs
        A, B = P[0::2], P[1::2]
        d = (hyperbolic_distance_arrays(A[:, 0], A[:, 1], B[:, 0], B[:, 1])
             if lattice.space.tag == "h2" else lattice.space._dist_many(A, B))
        long = np.flatnonzero(d > threshold + TOL)[:1].tolist()
        if long:
            raise SchemaError(f"edge {[int(I[long[0]]), int(J[long[0]])]} has "
                              f"length {float(d[long[0]])!r}, above the "
                              f"threshold {threshold!r}")
        return cls(lattice, threshold, adjacency, bound)


# ---------------------------------------------------------------------------
# edge construction: the builders yield candidate pairs as arrays (i, j, d)


_BLOCK = 1 << 11   # candidate pairs per block, which bounds the memory


def _expand(I, lo, hi, order):
    """The pairs (I[k], order[t]) for lo[k] <= t < hi[k], in blocks."""
    ends = np.cumsum(hi - lo)
    for s in range(0, int(ends[-1]) if len(ends) else 0, _BLOCK):
        t = np.arange(s, min(s + _BLOCK, ends[-1]))
        k = np.searchsorted(ends, t, side="right")
        t += hi[k] - ends[k]
        yield I[k], order[t]


def _edges_grid(space, X, threshold, index):
    # the neighbours of a query lie in the 3^d cells of side threshold about
    # its own (see ``SpaceModel.grid_metric``), found by bisection in the
    # keys of the cells of X; the side is widened by twice the tolerance,
    # so a gap of up to threshold + 1e-9 never spans two cell borders
    side = threshold + 2 * TOL
    _, order, runs = _row_index(np.floor(X / side).astype(np.int64))

    def query(Q):
        cells, I = np.floor(Q / side).astype(np.int64), np.arange(len(Q))
        for off in itertools.product((-1, 0, 1), repeat=X.shape[1]):
            for i, j in _expand(I, *runs(cells + off), order):
                yield i, j, space._dist_many(Q[i], X[j])
    return query


def _edges_h2(space, X, threshold, index):
    # rows of log a of height threshold (widened as in ``_edges_grid``) hold
    # every neighbour of a query in its own row or the next; in a row of X
    # (``layout``: the row, its points sorted by u, their u, its largest a),
    # the neighbours of (u, a) have |du| <= (a + the largest a) * stretch
    side = threshold + 2 * TOL
    u, a = X.T
    rows = np.floor(np.log(a) / side).astype(np.int64)
    order = np.lexsort((u, rows))
    ks, starts = np.unique(rows[order], return_index=True)
    layout = [(k, o, u[o], a[o].max())
              for k, o in zip(ks.tolist(), np.split(order, starts[1:]))]
    try:
        stretch = (math.exp(side) - 1.0) / 2.0
    except OverflowError:   # a threshold past about 709 reaches every u
        stretch = math.inf

    def query(Q):
        qu, qa = Q.T
        q_rows = np.floor(np.log(qa) / side).astype(np.int64)
        for k, o, row_u, top in layout:
            I = np.flatnonzero(np.abs(q_rows - k) <= 1)
            w = (qa[I] + top) * stretch
            for i, j in _expand(I, np.searchsorted(row_u, qu[I] - w, "left"),
                                np.searchsorted(row_u, qu[I] + w, "right"), o):
                yield i, j, hyperbolic_distance_arrays(qu[i], qa[i], u[j], a[j])
    return query


def _edges_group_ball(space, X, threshold, index):
    # q g = x for a hop g, at distance |g|, and q = x at distance 0, found
    # as whole runs of equal keys in the point index of X
    hops = space._ball(int(math.floor(threshold + TOL)))
    lengths = space.distances_from(space.identity(), hops)
    hops, lengths = hops[lengths > 0], lengths[lengths > 0]
    (keys, order, runs), w = index(), X.shape[1]
    distinct = (keys[1:] != keys[:-1]).all()

    def found(I, P, D):
        lo, hi = runs(_width(P, w))
        hit = np.flatnonzero((lo < hi) & ~P[:, w:].any(axis=1))
        if distinct:
            yield I[hit], order[lo[hit]], D[hit]
        else:
            for b, j in _expand(hit, lo[hit], hi[hit], order):
                yield I[b], j, D[b]

    def query(Q):
        m = len(Q)
        # the zero-length hop; a row of X with no copy equals only itself
        if Q is not X or not distinct:
            yield from found(np.arange(m), Q, np.zeros(m))
        for lo in range(0, len(hops) * m, _BLOCK):
            k = np.arange(lo, min(lo + _BLOCK, len(hops) * m))
            I = k % m
            yield from found(I, space._mul_many(Q[I], hops[k // m]),
                             lengths[k // m])
    return query


def _pairs(space, X, threshold, index=None):
    """The query of the candidate pairs of the point array X at
    ``threshold``, which builds X's side once: grid cells, h2 rows, or a
    group ball's hops and X's ``_row_index`` (from ``index``, if given).
    The query of a point array Q yields blocks (i, j, d) of rows i of Q and
    j of X and their distance d: every pair at most ``threshold`` + 1e-9
    apart exactly once, farther pairs at most once, a row of X once per
    copy.  On Q = X a pair of two rows comes in both orders, and a row with
    itself may come too."""
    propose = (_edges_grid if space.grid_metric else _edges_h2
               if space.tag == "h2" else _edges_group_ball)
    return propose(space, X, threshold, index or (lambda: _row_index(X)))


def _adjacency(n, pairs):
    """Sorted neighbour lists of n vertices joined by the edges of the blocks
    (I, J) of ``pairs``, which grow the lists in turn so that no array holds
    every edge; one int object per vertex id."""
    ids = np.arange(n).astype(object)
    adjacency = [[] for _ in range(n)]
    for I, J in pairs:
        for i, j in zip(ids[I].tolist(), ids[J].tolist()):
            adjacency[i].append(j)
            adjacency[j].append(i)
    for v, nbrs in enumerate(adjacency):
        adjacency[v] = sorted(nbrs)   # a new list has no spare capacity
    return adjacency


def _kept(blocks, threshold):
    """The edge rule: candidate pairs i < j with d <= threshold + 1e-9."""
    for i, j, d in blocks:
        keep = (i < j) & (d <= threshold + TOL)
        yield i[keep], j[keep]


def build_graph(lattice: QuasiLattice, threshold=None) -> RoughGraph:
    """Threshold graph on the lattice; raises on a disconnected result.

    The default threshold is 2r + c + 1; ties at the threshold count as
    edges (1e-9 tolerance).  Disconnection signals an inadequate window or a
    wrong r/c, and the error carries the component sizes.  A threshold
    that is NaN or infinite is a ``DomainError``.
    """
    if threshold is None:
        threshold = default_threshold(lattice)
    if not math.isfinite(threshold):
        raise DomainError("edge threshold is "
                          + ("NaN" if math.isnan(threshold) else "infinite"))
    X = lattice.coords()
    adjacency = _adjacency(len(lattice), _kept(
        _pairs(lattice.space, X, threshold)(X), threshold))
    graph = RoughGraph(lattice, float(threshold), adjacency,
                       max(map(len, adjacency), default=0))
    sizes = component_sizes(graph)
    if len(sizes) > 1:
        raise DisconnectedGraphError(sizes)
    return graph


def component_sizes(graph) -> list:
    """Sizes of the connected components, in order of their smallest id."""
    csr = graph.csr()
    seen = np.zeros(graph.n, dtype=bool)
    sizes = [sum(map(len, csr_layers(*csr, [0], seen)))] if graph.n else []
    # only the vertices that the component of vertex 0 leaves out, in id
    # order, can start another
    for s in np.flatnonzero(~seen).tolist():
        if not seen[s]:
            sizes.append(sum(map(len, csr_layers(*csr, [s], seen))))
    return sizes


# ---------------------------------------------------------------------------
# graph metric


def _bfs_arrays(graph, source, max_nodes=None):
    """Hop distances from a source vertex as two arrays: the vertex ids in
    breadth-first discovery order and their distances.  With ``max_nodes``
    the walk stops after the first complete layer whose running count
    exceeds ``max_nodes``; every kept layer is complete, so the distances
    of the vertices it returns are exact."""
    layers, count = [], 0
    for layer in csr_layers(*graph.csr(), [source]):
        layers.append(layer)
        count += len(layer)
        if max_nodes is not None and count > max_nodes:
            break
    return (np.concatenate(layers),
            np.repeat(np.arange(len(layers)), list(map(len, layers))))


def graph_distance(graph, i, j) -> int:
    """BFS shortest-path length between two vertices."""
    for depth, layer in enumerate(csr_layers(*graph.csr(), [i])):
        if (layer == j).any():
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
        ts, dg = _bfs_arrays(graph, s, max_nodes_per_source)
        # the source comes first; its partners follow in BFS order
        ts, dg = ts[1:], dg[1:]
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
    degs = np.diff(graph.csr()[0])
    return {
        "vertices": graph.n,
        "edges": graph.n_edges(),
        "threshold": graph.threshold,
        "max_degree": int(degs.max(initial=0)),
        "mean_degree": float(np.mean(degs)) if len(degs) else 0.0,
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
    ``threshold`` >= 1 (default 1: the Cayley graph).  Neighborhoods are
    generated on demand by right multiplication, so finite computations on
    it are exact, free of window-border effects.  ``neighbors`` checks the
    vertex it is given once and multiplies with the unchecked kernel.
    """

    def __init__(self, space, threshold=1):
        if not (space.is_discrete and space.is_group):
            raise DomainError("CayleyGraph needs a discrete group model")
        self.space = space
        try:
            self.threshold = int(threshold)
        except (OverflowError, ValueError):
            raise DomainError(f"CayleyGraph threshold {threshold!r} is not "
                              f"a finite number") from None
        if self.threshold < 1:
            raise DomainError(f"CayleyGraph threshold {threshold!r} < 1")
        self._hops = space.enumerate_window(BallWindow(self.threshold))
        self._hops.remove(space.identity())

    def neighbors(self, p):
        self.space.check_point(p)
        mul = self.space._mul
        return [mul(p, g) for g in self._hops]


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
        try:
            cosht = math.cosh(self.threshold)
            self._dn_max = int(math.floor(self.threshold + TOL))
        except (OverflowError, ValueError):
            raise DomainError(f"HorocyclicGraph threshold {threshold!r} is "
                              f"not a finite number below 710") from None
        self.reach = {}
        for dn in range(-self._dn_max, self._dn_max + 1):
            b2 = 2.0 * math.exp(dn) * (cosht - math.cosh(dn))
            self.reach[dn] = math.sqrt(max(0.0, b2))

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
