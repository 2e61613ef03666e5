"""c-boundaries and Folner ratios on rough graphs.

The c-boundary of a vertex set A is {x : d(x, A) <= c and d(x, V\\A) <= c}
in the graph metric; the Folner ratio is |boundary| / |A|.  The boundary
depends on N_c(A) only: it is outer | inner with outer = N_c(A) \\ A and
inner = A & N_c(outer), because for c >= 1 the first vertex outside A on a
geodesic from a in A to the complement lies in outer (for c < 1 both are
empty).  One local rule therefore serves finite and implicit graphs, and
on an implicit graph never visits the rest of it.  Scans evaluate a
candidate family in increasing size and stop once the ratio drops below
the target.  A finite search can only ever report "not achieved over the
tested family", never non-amenability.

On finite windowed graphs every candidate must keep graph distance > c
from the border vertices, so the windowed boundary equals the boundary in
the unwindowed object; there vertex sets are boolean masks, and N_c is c
mask steps over the graph's CSR arrays.  On the implicit infinite graphs
(``CayleyGraph``, ``HorocyclicGraph``) boundaries are exact as computed.
Cayley graphs of Z^d, Heisenberg and free groups get a vectorised engine
on int64 codes (packed coordinates; for free groups the shortlex rank of
the word) that handles candidate sets with millions of vertices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BorderError,
    DomainError,
    UndefinedRatioError,
    WindowTooSmallError,
)
from .graphs import CayleyGraph, HorocyclicGraph, RoughGraph
from .spaces import (
    FreeGroupModel,
    HeisenbergModel,
    TOL,
    ZdModel,
    bfs_layers,
    csr_layers,
)

SWAP_BUDGET_FACTOR = 10   # greedy_improved's swap budget per start vertex


@dataclass(frozen=True)
class FolnerReport:
    c: float
    family: str
    entries: tuple  # of (descriptor, size, boundary_size, ratio)
    best_ratio: float
    epsilon_target: float
    achieved: bool

    def __post_init__(self):
        if self.entries:
            best = min(e[3] for e in self.entries)
            if abs(best - self.best_ratio) > TOL:
                raise DomainError("best_ratio must be the minimum entry ratio")
        if self.achieved != (self.best_ratio < self.epsilon_target):
            raise DomainError("achieved flag contradicts best_ratio")

    def to_json(self) -> dict:
        return {
            "c": self.c,
            "family": self.family,
            "epsilon_target": self.epsilon_target,
            "achieved": self.achieved,
            "best_ratio": self.best_ratio,
            "entries": [
                {"set": d, "size": s, "boundary": b, "ratio": r}
                for d, s, b, r in self.entries
            ],
        }

    def to_csv(self) -> str:
        rows = ["set,size,boundary,ratio"]
        rows += [f"{d},{s},{b},{r!r}" for d, s, b, r in self.entries]
        return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# finite windowed graphs


def _interior_check(A, c, depths):
    bad = [a for a in A if depths[a] <= c]
    if bad:
        raise BorderError(
            f"set vertices within graph distance {int(c)} of the window "
            f"border: {bad[:8]}{'...' if len(bad) > 8 else ''}"
        )


def c_boundary(graph, A, c):
    """Exact c-boundary of A; vertices within c of both A and its complement.

    Computed locally as outer | inner, outer = N_c(A) \\ A and
    inner = A & N_c(outer): the first vertex outside A on a geodesic from A
    to its complement lies in outer.  Finite graphs demand vertex ids of
    the graph (``DomainError`` otherwise) inside the certified interior
    (graph distance > c from border vertices, ``BorderError`` otherwise) and
    return sorted vertex ids; implicit graphs return a sorted list of vertex
    coordinates.
    """
    if isinstance(graph, RoughGraph):
        A = graph.vertex_ids(A)
        if A:
            _interior_check(A, c, graph.border_depths())
        return np.flatnonzero(_mask_boundary(graph, _mask(graph, A), c)
                              ).tolist()
    return sorted(_local_boundary(graph, set(A), c))


def _local_boundary(graph, a_set, c):
    outer = _within(graph, a_set, c) - a_set
    return outer | (_within(graph, outer, c) & a_set)


def _within(graph, seeds, c):
    """N_c(seeds): the vertices at graph distance <= c from ``seeds``, as
    sorted ids on a finite graph and as a set on an implicit one."""
    if isinstance(graph, RoughGraph):
        layers = csr_layers(*graph.csr(), list(seeds))
        return np.sort(np.concatenate(
            [np.empty(0, dtype=np.intp),
             *itertools.islice(layers, int(c) + 1)]))
    return set().union(
        *itertools.islice(bfs_layers(graph.neighbors, seeds), int(c) + 1))


def _mask(graph, ids):
    m = np.zeros(graph.n, dtype=bool)
    m[ids] = True
    return m


def _mask_boundary(graph, m, c):
    """``_local_boundary`` of the vertex mask m of a finite graph, as a
    mask."""
    outer = _grow(graph, m, c) & ~m
    return outer | (_grow(graph, outer, c) & m)


def _grow(graph, m, c):
    """The mask of N_c of the vertex mask m: c steps, each adding every
    vertex with a neighbour in the mask."""
    indptr, indices = graph.csr()
    # reduceat reads an empty row as the first entry of the next row (and
    # fails past the end), so only the rows with neighbours are reduced
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    m = m.copy()
    for _ in range(int(c)):
        m[rows] |= np.logical_or.reduceat(m[indices], indptr[rows])
    return m


def folner_ratio(graph, A, c) -> float:
    """|c-boundary of A| / |A| (the vertex set is its own quasi-lattice);
    a vertex listed twice counts once."""
    A = set(A)
    if not A:
        raise UndefinedRatioError("Folner ratio of the empty set")
    return len(c_boundary(graph, A, c)) / len(A)


# ---------------------------------------------------------------------------
# packed engines for the Cayley graphs of Z^d, Heisenberg and free groups


class _ZdEngine:
    def __init__(self, space, word_span):
        self.space, self.d = space, space.d
        self.side = 2 * word_span + 3
        self.half = word_span + 1
        self.bases = self.side ** np.arange(self.d, dtype=np.int64)
        self.shifts = np.concatenate([self.bases, -self.bases])

    def pack(self, pts):
        arr = np.asarray(pts, dtype=np.int64).reshape(-1, self.d)
        return (arr + self.half) @ self.bases

    def expand(self, arr):
        return (arr[:, None] + self.shifts[None, :]).ravel()

    def box(self, n):
        axes = [np.arange(-n, n + 1)] * self.d
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        return np.sort(self.pack(pts))

    def ball(self, r):
        return np.sort(self.pack(self.space._ball(r)))


class _HeisenbergEngine:
    def __init__(self, space, word_span):
        self.space = space
        self.L = word_span + 2
        self.Q = word_span * word_span // 4 + word_span + 2
        self.side = 2 * self.L + 1

    def pack(self, pts):
        arr = np.asarray(pts, dtype=np.int64).reshape(-1, 3)
        return ((arr[:, 0] + self.L)
                + self.side * ((arr[:, 1] + self.L)
                               + self.side * (arr[:, 2] + self.Q)))

    def expand(self, arr):
        a = arr % self.side - self.L
        # x moves shift the first coordinate; y moves shift the second and
        # add +-a to the third
        ystep = self.side * (1 + self.side * a)
        return np.concatenate([arr + 1, arr - 1, arr + ystep, arr - ystep])

    def box(self, n):
        h = max(1, n * n)
        ab = np.arange(-n, n + 1)
        g = np.meshgrid(ab, ab, np.arange(-h, h + 1), indexing="ij")
        pts = np.stack([x.ravel() for x in g], axis=1)
        return np.sort(self.pack(pts))

    def ball(self, r):
        return np.sort(self.pack(self.space._ball(r)))


class _FreeEngine:
    """The free group of rank k on shortlex ranks: the words of length L
    are the ranks from S(L) = |ball of radius L-1| up to S(L+1).  The word
    at offset o = r - S(L) has the children S(L+1) + (2k-1) o + j,
    j < 2k-1, and the parent S(L-1) + o // (2k-1), the identity for L = 1."""

    box = None   # free groups have no box candidates

    def __init__(self, k, starts):
        self.q = 2 * k - 1
        self.starts = np.array(starts, dtype=np.int64)

    def ball(self, r):
        return np.arange(self.starts[r + 1])

    def expand(self, arr):
        S = self.starts
        level = np.searchsorted(S, arr, side="right") - 1
        off = arr - S[level]
        nb = np.empty((len(arr), self.q + 1), dtype=np.int64)
        nb[:, :-1] = (S[level + 1] + off * self.q)[:, None] + np.arange(self.q)
        nb[:, -1] = np.where(level > 1, S[level - 1] + off // self.q, 0)
        nb[level == 0] = np.arange(1, self.q + 2)
        return nb.ravel()


def _packed_engine(graph, word_span):
    """The engine for words up to length ``word_span``, or None."""
    if not isinstance(graph, CayleyGraph):
        return None
    space = graph.space
    if isinstance(space, ZdModel):
        return _ZdEngine(space, word_span)
    if isinstance(space, HeisenbergModel):
        return _HeisenbergEngine(space, word_span)
    if isinstance(space, FreeGroupModel):
        starts = [0, *space.ball_sizes(word_span)]
        if starts[-1] <= np.iinfo(np.int64).max:
            return _FreeEngine(space.k, starts)
    return None


def _uniq(arr):
    """Sorted distinct values of an int64 array: sort plus an adjacent-
    difference mask, many times faster on large arrays than ``np.unique``,
    which hashes under numpy 2.x."""
    arr = np.sort(arr)
    keep = np.empty(len(arr), dtype=bool)
    keep[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def _packed_closure(engine, arr, steps):
    out = arr
    for _ in range(int(steps)):
        out = _uniq(np.concatenate([out, engine.expand(out)]))
    return out


def _packed_boundary_size(engine, a_sorted, word_steps):
    grown = _packed_closure(engine, a_sorted, word_steps)
    outer = np.setdiff1d(grown, a_sorted, assume_unique=True)
    igrow = _packed_closure(engine, outer, word_steps)
    inner = np.intersect1d(igrow, a_sorted, assume_unique=True)
    return len(outer) + len(inner)


# ---------------------------------------------------------------------------
# vectorised engine for the horocyclic implicit graph: vertex sets live as
# {level n: sorted array of m}; one hop expands each level through the
# closed-form integer intervals of the adjacency rule


class _HoroEngine:
    def __init__(self, graph: HorocyclicGraph):
        self.reach = graph.reach

    @staticmethod
    def size(levels):
        return sum(len(a) for a in levels.values())

    def expand(self, levels):
        out = {n: [arr] for n, arr in levels.items()}
        for n, arr in levels.items():
            if not len(arr):
                continue
            for dn, b in self.reach.items():
                s = math.exp(dn)
                lo = np.ceil((arr - b) / s - 1e-9).astype(np.int64)
                hi = np.floor((arr + b) / s + 1e-9).astype(np.int64)
                wmax = int((hi - lo).max())
                if wmax < 0:
                    continue
                offs = np.arange(wmax + 1, dtype=np.int64)
                cand = lo[:, None] + offs[None, :]
                vals = cand[cand <= hi[:, None]]
                if len(vals):
                    out.setdefault(n + dn, []).append(vals)
        return {n: _uniq(np.concatenate(parts)) for n, parts in out.items()}

    @staticmethod
    def levelwise(op, A, B):
        """``op`` (``np.setdiff1d`` or ``np.intersect1d``) of A and B level
        by level; empty levels are dropped."""
        empty = np.empty(0, dtype=np.int64)
        out = {n: op(arr, B.get(n, empty), assume_unique=True)
               for n, arr in A.items()}
        return {n: arr for n, arr in out.items() if len(arr)}

    def ball(self, k):
        levels = {0: np.zeros(1, dtype=np.int64)}
        for _ in range(int(k)):
            levels = self.expand(levels)
        return levels

    def box(self, j):
        out = {}
        for n in range(-j, j + 1):
            m_max = int(math.floor(math.exp(j - n) + TOL))
            out[n] = np.arange(-m_max, m_max + 1, dtype=np.int64)
        return out

    def boundary_size(self, A, c):
        grown = A
        for _ in range(int(c)):
            grown = self.expand(grown)
        outer = self.levelwise(np.setdiff1d, grown, A)
        igrow = outer
        for _ in range(int(c)):
            igrow = self.expand(igrow)
        inner = self.levelwise(np.intersect1d, igrow, A)
        return self.size(outer) + self.size(inner)


# ---------------------------------------------------------------------------
# candidate families


def _finite_box(graph: RoughGraph, center, n):
    space = graph.space
    if not space.grid_metric:
        raise DomainError(f"box candidates are undefined for {space.model_id}")
    X = graph.lattice.coords()
    return np.flatnonzero(np.abs(X - X[center]).max(axis=1) <= n + TOL)


def folner_scan(graph, c, family, epsilon, schedule,
                center=None) -> FolnerReport:
    """Evaluate a Folner candidate family in increasing size.

    ``family`` is one of ``metric_balls``, ``boxes``, ``greedy_improved``;
    the schedule lists ball radii or box sizes.  Evaluation stops early once
    a ratio beats epsilon.  Candidates that do not fit the certified
    interior of a finite graph are skipped; if none fits at all the scan
    raises ``WindowTooSmallError``.  Implicit graphs, vertex-transitive,
    ignore ``center`` and raise ``DomainError`` past their exact engine.
    """
    if family not in ("metric_balls", "boxes", "greedy_improved"):
        raise DomainError(f"unknown Folner family {family!r}")
    schedule = sorted(int(s) for s in schedule)
    if not schedule:
        raise WindowTooSmallError("empty candidate schedule")
    if isinstance(graph, RoughGraph):
        if center is not None:
            center, = graph.vertex_ids([center])
        entries = _scan_finite(graph, c, family, epsilon, schedule, center)
    else:
        entries = _scan_implicit(graph, c, family, epsilon, schedule)
    if not entries:
        raise WindowTooSmallError(
            "no candidate of the requested family fits the certified interior"
        )
    best = min(e[3] for e in entries)
    return FolnerReport(
        c=float(c),
        family=family,
        entries=tuple(entries),
        best_ratio=best,
        epsilon_target=float(epsilon),
        achieved=best < epsilon,
    )


def _scan_finite(graph, c, family, epsilon, schedule, center):
    depths = graph.border_depths()
    if center is None:
        center = graph.deepest_vertex(depths)
    entries = []
    base_family = "metric_balls" if family == "greedy_improved" else family
    best_set = None
    for size in schedule:
        if base_family == "metric_balls":
            A = _within(graph, {center}, size)
            desc = f"ball:{size}"
        else:
            A = _finite_box(graph, center, size)
            desc = f"box:{size}"
        if not len(A) or (depths[A] <= c).any():
            continue  # candidate leaks past the certified interior
        bsize = int(_mask_boundary(graph, _mask(graph, A), c).sum())
        ratio = bsize / len(A)
        entries.append((desc, len(A), bsize, ratio))
        if best_set is None or ratio < min(e[3] for e in entries[:-1]):
            best_set = A
        if ratio < epsilon:
            break
    if family == "greedy_improved" and entries and best_set is not None:
        entries.append(_greedy_improve(graph, c, best_set, depths))
    return entries


def _greedy_improve(graph, c, A, depths):
    """Single-vertex hill climbing from the best ball: first-improvement
    swaps (drop a boundary vertex or adopt an outer one) in deterministic
    vertex order, with a ``SWAP_BUDGET_FACTOR`` |A| attempt budget."""
    current, size = _mask(graph, A), len(A)
    boundary = np.flatnonzero(_mask_boundary(graph, current, c))
    ratio = len(boundary) / size
    budget = SWAP_BUDGET_FACTOR * size
    improved = True
    while improved and budget > 0:
        improved = False
        # every trial is a valid candidate: an inner vertex is dropped only
        # while another remains, so the trial is not empty, and an outer
        # vertex is adopted only at depth > c, so the trial stays inside the
        # certified interior
        member = current[boundary]
        inner = boundary[member] if size > 1 else boundary[:0]
        outer = boundary[~member & (depths[boundary] > c)]
        for v in np.concatenate([inner, outer]).tolist():
            if budget <= 0:
                break
            budget -= 1
            trial = current.copy()
            trial[v] = not current[v]
            trial_size = size - 1 if current[v] else size + 1
            trial_boundary = np.flatnonzero(_mask_boundary(graph, trial, c))
            trial_ratio = len(trial_boundary) / trial_size
            if trial_ratio < ratio - TOL:
                current, size = trial, trial_size
                boundary, ratio = trial_boundary, trial_ratio
                improved = True
                break
    return (f"greedy:{size}", size, len(boundary), ratio)


def _scan_implicit(graph, c, family, epsilon, schedule):
    if family == "greedy_improved":
        raise DomainError("greedy_improved needs a finite windowed graph")
    horo = isinstance(graph, HorocyclicGraph)
    hop = 1 if horo else int(getattr(graph, "threshold", 1))
    balls = family == "metric_balls"
    entries = []
    for size in schedule:
        # codes reach 2c hops past the candidate, and expand reads one more
        span = (size + 2 * int(c) + 1) * hop
        engine = _HoroEngine(graph) if horo else _packed_engine(graph, span)
        if engine is None:
            raise DomainError(f"no exact engine reaches word length {span}")
        if not balls and engine.box is None:
            raise DomainError("box candidates are undefined for this graph")
        A = engine.ball(size * hop) if balls else engine.box(size)
        if horo:
            n, bsize = engine.size(A), engine.boundary_size(A, c)
        else:
            n, bsize = len(A), _packed_boundary_size(engine, A, int(c) * hop)
        entries.append((f"{'ball' if balls else 'box'}:{size}", n, bsize,
                        bsize / n))
        if bsize / n < epsilon:
            break
    return entries
