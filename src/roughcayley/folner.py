"""c-boundaries and Folner ratios on rough graphs.

The c-boundary of a vertex set A is {x : d(x, A) <= c and d(x, V\\A) <= c}
in the graph metric; the Folner ratio is |boundary| / |A|.  The boundary
depends on N_c(A) only: it is outer | inner with outer = N_c(A) \\ A and
inner = A & N_c(outer), because for c >= 1 the first vertex outside A on a
geodesic from a in A to the complement lies in outer (for c < 1 both are
empty and every set would pass, so c must be finite and >= 1).  Scans
evaluate a candidate family in increasing size and stop once the ratio
drops below the target.  A finite search can only ever report "not
achieved over the tested family", never non-amenability.

One family of vectorised engines computes N_c and this boundary on every
graph kind; vertex sets go in and come out as sorted int64 codes.  On a
finite windowed graph the codes are the vertex ids and a step gathers their
CSR rows.  On the implicit infinite graphs (``CayleyGraph``,
``HorocyclicGraph``) they are packed coordinates for Z^d and the Heisenberg
group, the shortlex rank of the word for free groups, and m L + n + N for
the horocyclic vertex (m, n); each such engine is sized for the scanned
radius.  Every engine answers ``ball`` and ``box`` about its centre, the
finite one about the scan's centre vertex, and all share one closure and
one boundary routine that handles candidate sets with millions of vertices.
The closure holds its set as a bool mask over the codes it touches, never
sorts it, and expands only the codes its previous step added, ``BLOCK`` at
a time, which bounds its peak memory.  Its inner closure grows only inside
N_c(A): a path of at most c hops from outer to some a in A stays within c
of a, so the work is bounded by |N_c(A)|.

``folner_scan`` scores every graph kind by one loop.  On finite graphs
every candidate must keep graph distance > c from the border vertices, so
the windowed boundary equals the boundary in the unwindowed object, and
the loop skips those that do not.  ``c_boundary`` and ``folner_ratio`` take
finite graphs only; the implicit boundaries are exact as computed.
"""

from __future__ import annotations

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
from .spaces import FreeGroupModel, HeisenbergModel, TOL, ZdModel, csr_rows

SWAP_BUDGET_FACTOR = 10   # greedy_improved's swap budget per start vertex
BLOCK = 4096              # codes per expansion in a closure: bounds its peak


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


def _check_c(c):
    if not 1 <= c < math.inf:
        raise DomainError(f"boundary constant c must be a finite number "
                          f">= 1, got {c!r}")


def c_boundary(graph, A, c):
    """Exact c-boundary of A on a finite graph, as sorted vertex ids:
    vertices within c of both A and its complement.

    Computed locally as outer | inner (see the module docstring).  c must
    be a finite number >= 1 and A must hold vertex ids of the graph
    (``DomainError`` otherwise) inside the certified interior (graph
    distance > c from border vertices, ``BorderError`` otherwise).
    Implicit graphs raise ``DomainError``: ``folner_scan`` scores their
    candidates.
    """
    _check_c(c)
    if not isinstance(graph, RoughGraph):
        raise DomainError("c_boundary needs a finite windowed graph; "
                          "folner_scan scores implicit graphs")
    A = graph.vertex_ids(A)
    depths = graph.border_depths()
    bad = [a for a in A if depths[a] <= c]
    if bad:
        raise BorderError(
            f"set vertices within graph distance {int(c)} of the window "
            f"border: {bad[:8]}{'...' if len(bad) > 8 else ''}"
        )
    outer, inner = _packed_boundary(_GraphEngine(graph),
                                    np.array(A, dtype=np.intp), int(c))
    return np.sort(np.concatenate([outer, inner])).tolist()


def folner_ratio(graph, A, c) -> float:
    """|c-boundary of A| / |A| on a finite graph (the vertex set is its own
    quasi-lattice); a vertex listed twice counts once.  Implicit graphs
    raise ``DomainError``, as in ``c_boundary``."""
    A = set(A)
    boundary = c_boundary(graph, A, c)
    if not A:
        raise UndefinedRatioError("Folner ratio of the empty set")
    return len(boundary) / len(A)


# ---------------------------------------------------------------------------
# engines: finite graphs, Cayley graphs of Z^d, Heisenberg and free groups,
# and the horocyclic graph


class _GraphEngine:
    """A finite rough graph on its vertex ids, about a centre vertex: a
    step lays the CSR rows of the ids end to end.  ``ball(r)`` grows from
    the ball asked for before it unless r is smaller, as N_a(N_b(x)) =
    N_(a+b)(x); ``box(n)`` holds the vertices within sup-distance n of the
    centre's coordinates, on grid metrics only."""

    def __init__(self, graph, center=None):
        self.graph, self.csr, self.center = graph, graph.csr(), center
        self._radius = math.inf   # no ball grown yet

    def expand(self, ids):
        return csr_rows(*self.csr, ids)

    def ball(self, r):
        if r < self._radius:
            self._ball = np.array([self.center], dtype=np.intp)
            self._radius = 0
        self._ball = _packed_closure(self, self._ball, r - self._radius)
        self._radius = r
        return self._ball

    def box(self, n):
        space = self.graph.space
        if not space.grid_metric:
            raise DomainError(
                f"box candidates are undefined for {space.model_id}")
        X = self.graph.lattice.coords()
        return np.flatnonzero(np.abs(X - X[self.center]).max(axis=1)
                              <= n + TOL)


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

    ball = _ZdEngine.ball


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


class _HoroEngine:
    """The horocyclic graph on the codes m L + n + N of its vertices (m, n).
    A hop changes the level n by at most ``dn_max`` and a box of size j
    spans the levels -j..j, so within ``word_span`` hops of level 0 or of
    such a box the levels lie in [-N, N], N = word_span max(dn_max, 1), and
    L = 2N + 1 keeps them apart.  Balls, boxes and their neighbourhoods
    meet each level in an interval of m about 0, so |m| stays below the
    set's size and the codes cannot overflow int64 in memory."""

    def __init__(self, graph, word_span):
        self.N = word_span * max(graph._dn_max, 1)
        self.L = 2 * self.N + 1
        self.reach = [(dn, math.exp(dn), b) for dn, b in graph.reach.items()]

    def _codes(self, lo, hi, level):
        """m L + level for lo <= m <= hi, row by row, with one ``repeat``."""
        w = np.maximum(hi - lo + 1, 0)
        first = np.cumsum(w) - w
        return (np.repeat((lo - first) * self.L + level, w)
                + np.arange(w.sum(), dtype=np.int64) * self.L)

    def expand(self, arr):
        # at level offset dn the neighbours of m are one closed-form interval
        m, level = np.divmod(arr, self.L)
        return np.concatenate([_uniq(self._codes(
            np.ceil((m - b) / s - 1e-9).astype(np.int64),
            np.floor((m + b) / s + 1e-9).astype(np.int64), level + dn))
            for dn, s, b in self.reach])

    def ball(self, k):
        return _packed_closure(self, np.array([self.N]), k)

    def box(self, j):
        n = np.arange(-j, j + 1)
        m_max = np.array([math.floor(math.exp(j - v) + TOL) for v in n],
                         dtype=np.int64)
        return np.sort(self._codes(-m_max, m_max, n + self.N))


def _packed_engine(graph, word_span):
    """The engine of an implicit graph for words (hops, on the horocyclic
    graph) up to length ``word_span``, or None; a finite graph's engine is
    a ``_GraphEngine`` about the scan's centre."""
    if isinstance(graph, HorocyclicGraph):
        return _HoroEngine(graph, word_span)
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


def _cover(lo, free, codes):
    """The mask ``free`` (offset ``lo``) widened, with True, to hold
    ``codes``; a side that grows takes at least a quarter of the span, so
    a closure copies its mask a logarithmic number of times."""
    hi = lo + len(free) - 1
    below, above = lo - codes.min(initial=lo), codes.max(initial=hi) - hi
    if below or above:
        below, above = (x and max(x, len(free) // 4) for x in (below, above))
        free = np.concatenate([np.ones(below, bool), free,
                               np.ones(above, bool)])
    return lo - below, free


def _packed_closure(engine, arr, steps, within=None):
    """N_steps(arr) for sorted distinct codes, as sorted distinct codes.
    The codes that may still join are one bool mask ``free`` over the codes
    touched, offset by the least of them: each step expands the codes the
    step before added, ``BLOCK`` at a time, and marks those still free.
    With ``within`` (sorted distinct, holding ``arr``) the mask spans it and
    frees its codes only, so every other code is dropped."""
    if not len(arr) or steps < 1:
        return arr
    lo, hi = (arr if within is None else within)[[0, -1]].tolist()
    free = np.full(hi - lo + 1, within is None)
    if within is not None:
        free[within - lo] = True
    free[arr - lo] = False
    new = arr
    for left in range(int(steps) - 1, -1, -1):
        added = [new[:0]]   # the step may add nothing
        for at in range(0, len(new), BLOCK):
            codes = engine.expand(new[at:at + BLOCK])
            if within is None:
                lo, free = _cover(lo, free, codes)
            else:
                codes = codes[(codes >= lo) & (codes < lo + len(free))]
            codes = codes[free[codes - lo]]
            free[codes - lo] = False
            if left:   # the next step expands each added code once
                added.append(_uniq(codes))
        new = np.concatenate(added)
    if within is not None:
        return within[~free[within - lo]]
    return np.flatnonzero(~free) + lo


def _packed_boundary(engine, a_sorted, word_steps):
    """(outer, inner) as sorted codes for the sorted distinct codes of A;
    the inner closure grows only inside grown = N_c(A) (see the module
    docstring), where it is outer plus inner."""
    grown = _packed_closure(engine, a_sorted, word_steps)
    if not len(grown):
        return grown, grown
    lo = grown[0]
    in_a = np.zeros(grown[-1] - lo + 1, dtype=bool)
    in_a[a_sorted - lo] = True
    outer = grown[~in_a[grown - lo]]
    near = _packed_closure(engine, outer, word_steps, within=grown)
    return outer, near[in_a[near - lo]]


# ---------------------------------------------------------------------------
# candidate families


def folner_scan(graph, c, family, epsilon, schedule,
                center=None) -> FolnerReport:
    """Evaluate a Folner candidate family in increasing size.

    ``family`` is one of ``metric_balls``, ``boxes``, ``greedy_improved``;
    the schedule lists ball radii or box sizes.  Evaluation stops early once
    a ratio beats epsilon.  Candidates that do not fit the certified
    interior of a finite graph are skipped; if none fits at all the scan
    raises ``WindowTooSmallError``.  A negative size, or a c that is not a
    finite number >= 1, is a ``DomainError`` on every graph.  Implicit
    graphs, vertex-transitive, ignore ``center`` and raise ``DomainError``
    past their exact engine.
    """
    _check_c(c)
    if family not in ("metric_balls", "boxes", "greedy_improved"):
        raise DomainError(f"unknown Folner family {family!r}")
    schedule = sorted(int(s) for s in schedule)
    if not schedule:
        raise WindowTooSmallError("empty candidate schedule")
    if schedule[0] < 0:
        raise DomainError(f"negative candidate size {schedule[0]}")
    finite = isinstance(graph, RoughGraph)
    if finite:
        depths = graph.border_depths()
        center = (graph.deepest_vertex(depths) if center is None
                  else graph.vertex_ids([center])[0])
        engine, hop = _GraphEngine(graph, center), 1
    elif family == "greedy_improved":
        raise DomainError("greedy_improved needs a finite windowed graph")
    else:
        hop = 1 if isinstance(graph, HorocyclicGraph) \
            else int(getattr(graph, "threshold", 1))
    balls = family != "boxes"
    entries, best_set = [], None
    for size in schedule:
        if not finite:
            # codes stay within c hops of the candidate, and expand reads
            # one more; the span leaves room for 2c + 1
            span = (size + 2 * int(c) + 1) * hop
            engine = _packed_engine(graph, span)
            if engine is None:
                raise DomainError(f"no exact engine reaches word length {span}")
            if not balls and engine.box is None:
                raise DomainError("box candidates are undefined for this graph")
        A = engine.ball(size * hop) if balls else engine.box(size)
        if finite and (depths[A] <= c).any():
            continue  # candidate leaks past the certified interior
        bsize = sum(map(len, _packed_boundary(engine, A, int(c) * hop)))
        ratio = bsize / len(A)
        entries.append((f"{'ball' if balls else 'box'}:{size}", len(A), bsize,
                        ratio))
        if best_set is None or ratio < best_ratio:
            best_set, best_ratio = A, ratio
        if ratio < epsilon:
            break
    if family == "greedy_improved" and best_set is not None:
        entries.append(_greedy_improve(engine, c, best_set, depths))
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


def _greedy_improve(engine, c, A, depths):
    """Single-vertex hill climbing from the best ball: first-improvement
    swaps (drop a boundary vertex or adopt an outer one) in deterministic
    vertex order, with a ``SWAP_BUDGET_FACTOR`` |A| attempt budget.  The
    current set is a sorted id array; a trial inserts or deletes one id."""
    current = A
    outer, inner = _packed_boundary(engine, current, int(c))
    ratio = (len(outer) + len(inner)) / len(current)
    budget = SWAP_BUDGET_FACTOR * len(current)
    improved = True
    while improved and budget > 0:
        improved = False
        # every trial is a valid candidate: an inner vertex is dropped only
        # while another remains, so the trial is not empty, and an outer
        # vertex is adopted only at depth > c, so the trial stays inside the
        # certified interior
        drops = len(inner) if len(current) > 1 else 0
        tries = np.concatenate([inner[:drops], outer[depths[outer] > c]])
        for k, v in enumerate(tries.tolist()):
            if budget <= 0:
                break
            budget -= 1
            at = np.searchsorted(current, v)
            trial = (np.delete(current, at) if k < drops
                     else np.insert(current, at, v))
            trial_outer, trial_inner = _packed_boundary(engine, trial, int(c))
            trial_ratio = (len(trial_outer) + len(trial_inner)) / len(trial)
            if trial_ratio < ratio - TOL:
                current, outer, inner = trial, trial_outer, trial_inner
                ratio = trial_ratio
                improved = True
                break
    return (f"greedy:{len(current)}", len(current), len(outer) + len(inner),
            ratio)
