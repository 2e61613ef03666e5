"""Pointed metric-space models with distance oracles and window enumeration.

Five concrete models are provided:

* ``ZdModel(d)``        -- Z^d with the word metric of the standard generators
                           (equals the L1 norm of the difference).
* ``FreeGroupModel(k)`` -- free group of rank k; points are reduced words
                           stored as tuples of nonzero ints (letter i, inverse -i).
* ``HeisenbergModel()`` -- discrete Heisenberg group on integer coordinates
                           (a, b, c) with generators x=(1,0,0), y=(0,1,0);
                           word distances come from Blachere's exact closed
                           form (Colloq. Math. 95 (2003)), O(1) per pair.
* ``EuclideanModel(d)`` -- R^d with the L2 metric; optional additive group.
* ``HyperbolicPlaneModel()`` -- upper half-plane points (u, a), a > 0, with
                           the hyperbolic metric; carries the affine group law
                           (u,a)(v,b) = (av+u, ab), which acts by isometries.

Models are immutable after construction and safe to share between threads.

Validation happens once, at the library boundary.  The public ``distance``,
``multiply``, ``inverse`` and ``coarse_geodesic`` of ``SpaceModel`` check
every point a caller hands in with ``check_point`` and then call the
model's unchecked kernels ``_dist``, ``_mul``, ``_inv`` and ``_geodesic``.
Library loops over points that are already trusted (lattice points, which
``QuasiLattice`` checks at construction, and points the library computed
itself) call the kernels directly.  The batch kernels ``_mul_many`` and
``_dist_many`` apply ``_mul`` and ``_dist`` row by row to point arrays
(``coords``); Z^d and the Heisenberg group do so in exact int64 NumPy, the
other models loop over the scalar kernel, so a batch equals the scalar
results bit for bit on every model.

``bfs_layers`` is the one breadth-first walk of the package: word balls,
hop balls, border depths, components, distances and c-neighbourhoods.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ModelMismatchError,
    UnsupportedOperationError,
)

TOL = 1e-9

# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class BallWindow:
    """Word ball N_radius(e) of a discrete group model."""

    radius: int


@dataclass(frozen=True)
class BoxWindow:
    """Coordinate box with a grid pitch, for Euclidean models."""

    lo: tuple
    hi: tuple
    pitch: float


@dataclass(frozen=True)
class H2Window:
    """(u-range, log a-range) box for the hyperbolic plane.

    ``pitch`` is the grid step used by ``enumerate_window``; membership and
    slack queries ignore it.
    """

    u_min: float
    u_max: float
    la_min: float
    la_max: float
    pitch: float = 0.25


@dataclass(frozen=True)
class QiConstants:
    """A certified quasi-isometry bound over a recorded sample.

    The inequality C^-1 d(x,y) - r <= d(f(x),f(y)) <= C d(x,y) + r holds for
    every pair in the sample described by ``certified_over``.
    """

    C: float
    r: float
    sample_size: int
    certified_over: str

    def __post_init__(self):
        if self.C < 1.0 - TOL:
            raise DomainError(f"multiplicative constant must be >= 1, got {self.C}")
        if self.r < -TOL:
            raise DomainError(f"additive constant must be >= 0, got {self.r}")


# ---------------------------------------------------------------------------
# model base class


class SpaceModel:
    """A pointed coarse-geodesic metric space, possibly with group structure.

    Public methods validate the points a caller passes and raise
    ``ModelMismatchError`` or ``DomainError`` on a malformed one.  Models
    implement ``check_point`` plus the unchecked kernels ``_dist``, ``_mul``,
    ``_inv`` and ``_geodesic``, which assume trusted, well-formed points.
    """

    model_id: str
    coarse_constant_c: float
    is_discrete: bool
    is_group: bool = False
    # None where distances are measured point by point (free groups)
    coord_dtype = None

    def distance(self, x, y) -> float:
        self.check_point(x)
        self.check_point(y)
        return self._dist(x, y)

    def check_point(self, x):
        raise NotImplementedError

    def _dist(self, x, y):
        raise NotImplementedError

    @property
    def base_point(self):
        raise NotImplementedError

    # group structure; the kernels are overridden by group models
    def _require_group(self):
        if not self.is_group:
            raise UnsupportedOperationError(
                f"{self.model_id} has no group structure")

    def identity(self):
        self._require_group()
        return self.base_point

    def multiply(self, x, y):
        self._require_group()
        self.check_point(x)
        self.check_point(y)
        return self._mul(x, y)

    def inverse(self, x):
        self._require_group()
        self.check_point(x)
        return self._inv(x)

    def _mul(self, x, y):
        raise NotImplementedError

    def _inv(self, x):
        raise NotImplementedError

    def generators(self):
        """Symmetric generating list (generators and their inverses)."""
        raise UnsupportedOperationError(f"{self.model_id} has no generators")

    def coarse_geodesic(self, x, y):
        """Sampled path (parameters, points) from x to y.

        f(0) = x, f(a) = y with a = d(x,y); every sampled parameter pair s,t
        satisfies |s-t| - c <= d(f(s),f(t)) <= |s-t| + c, with sampling step
        at most 1.
        """
        self.check_point(x)
        self.check_point(y)
        return self._geodesic(x, y)

    def _geodesic(self, x, y):
        raise NotImplementedError

    def enumerate_window(self, window):
        """Deterministic (lexicographic) finite enumeration of a window."""
        raise NotImplementedError

    def window_contains(self, window, x) -> bool:
        raise NotImplementedError

    def boundary_slack(self, window, x) -> float:
        """Metric distance from x to the window border (0 if outside)."""
        raise NotImplementedError

    def distances_from(self, x, points) -> np.ndarray:
        """Distances from x to a point sequence; generic fallback is a loop."""
        return np.array([self.distance(x, p) for p in points])

    def coords(self, points):
        """Points as a point array: the (n, d) array of dtype
        ``coord_dtype`` that a vectorised ``distances_from`` works on (and
        takes without another conversion), or a 1-D object array of the
        points for models without one."""
        if self.coord_dtype is None:
            return np.fromiter(points, dtype=object, count=len(points))
        return np.asarray(points, dtype=self.coord_dtype).reshape(
            len(points), self.d)

    def _mul_many(self, A, B):
        """Row-wise products of two point arrays; a single row broadcasts.
        This fallback loops over ``_mul``."""
        A, B = np.broadcast_arrays(A, B)
        return self.coords([self._mul(a, b) for a, b in zip(_rows(A), _rows(B))])

    def _dist_many(self, A, B):
        """Row-wise distances of two point arrays; a single row broadcasts.
        This fallback loops over ``_dist``."""
        A, B = np.broadcast_arrays(A, B)
        return np.array([self._dist(a, b) for a, b in zip(_rows(A), _rows(B))],
                        dtype=float)

    def _key(self):
        return (self.model_id,)

    def __eq__(self, other):
        return isinstance(other, SpaceModel) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _rows(A):
    """The rows of a point array as tuples of Python scalars."""
    return map(tuple, A.tolist())


# ---------------------------------------------------------------------------
# Z^d


class ZdModel(SpaceModel):
    """Z^d with the symmetric standard generators; word metric = L1."""

    is_discrete = True
    is_group = True
    coarse_constant_c = 1.0
    coord_dtype = np.int64

    def __init__(self, d):
        if d < 1:
            raise DomainError("dimension must be >= 1")
        self.d = int(d)
        self.model_id = f"zd({d})"

    def check_point(self, x):
        if not (isinstance(x, tuple) and len(x) == self.d
                and all(isinstance(v, int) for v in x)):
            raise ModelMismatchError(f"{x!r} is not a point of {self.model_id}")

    def _dist(self, x, y):
        return float(sum(abs(a - b) for a, b in zip(x, y)))

    @property
    def base_point(self):
        return (0,) * self.d

    def _mul(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def _mul_many(self, A, B):
        return A + B

    def _dist_many(self, A, B):
        return np.abs(A - B).sum(axis=-1).astype(float)

    def _inv(self, x):
        return tuple(-a for a in x)

    def generators(self):
        gens = []
        for i in range(self.d):
            e = [0] * self.d
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return gens

    def _geodesic(self, x, y):
        pts = [x]
        cur = list(x)
        for i in range(self.d):
            step = 1 if y[i] > x[i] else -1
            for _ in range(abs(y[i] - x[i])):
                cur[i] += step
                pts.append(tuple(cur))
        ts = [float(t) for t in range(len(pts))]
        return ts, pts

    def enumerate_window(self, window):
        if not isinstance(window, BallWindow):
            raise DomainError(f"{self.model_id} windows are word balls")
        m = window.radius
        if m < 0:
            return []
        out = []

        def rec(prefix, budget):
            if len(prefix) == self.d - 1:
                for v in range(-budget, budget + 1):
                    out.append(prefix + (v,))
                return
            for v in range(-budget, budget + 1):
                rec(prefix + (v,), budget - abs(v))

        rec((), m)
        return out

    def window_contains(self, window, x):
        return sum(abs(v) for v in x) <= window.radius

    def boundary_slack(self, window, x):
        return float(window.radius - sum(abs(v) for v in x))

    def distances_from(self, x, points):
        return self._dist_many(np.asarray(x, dtype=np.int64), self.coords(points))


# ---------------------------------------------------------------------------
# free group


class FreeGroupModel(SpaceModel):
    """Free group of rank k; points are reduced words over letters +-1..+-k."""

    is_discrete = True
    is_group = True
    coarse_constant_c = 0.0

    def __init__(self, k):
        if k < 1:
            raise DomainError("rank must be >= 1")
        self.k = int(k)
        self.model_id = f"free_group({k})"

    def check_point(self, x):
        if not isinstance(x, tuple):
            raise ModelMismatchError(f"{x!r} is not a point of {self.model_id}")
        for i, g in enumerate(x):
            if not isinstance(g, int) or g == 0 or abs(g) > self.k:
                raise ModelMismatchError(f"bad letter {g!r} in {x!r}")
            if i and x[i - 1] == -g:
                raise DomainError(f"word {x!r} is not reduced")

    def _dist(self, x, y):
        # |x^-1 y|: cancel the common prefix
        i = 0
        while i < len(x) and i < len(y) and x[i] == y[i]:
            i += 1
        return float(len(x) + len(y) - 2 * i)

    @property
    def base_point(self):
        return ()

    def _mul(self, x, y):
        # x and y are reduced, so cancellation happens only where they meet
        n = len(x)
        i = 0
        while i < n and i < len(y) and x[n - 1 - i] == -y[i]:
            i += 1
        return x[:n - i] + y[i:]

    def _inv(self, x):
        return tuple(-g for g in reversed(x))

    def generators(self):
        return [(g,) for g in self._letters()]

    def _letters(self):
        return list(range(-self.k, 0)) + list(range(1, self.k + 1))

    def _geodesic(self, x, y):
        w = self._mul(self._inv(x), y)
        pts = [x]
        cur = x
        for g in w:
            cur = self._mul(cur, (g,))
            pts.append(cur)
        return [float(t) for t in range(len(pts))], pts

    def enumerate_window(self, window):
        """Word ball in shortlex order (length first, then letters -k..-1,1..k)."""
        if not isinstance(window, BallWindow):
            raise DomainError(f"{self.model_id} windows are word balls")
        if window.radius < 0:
            return []
        out = [()]
        layer = [()]
        letters = self._letters()
        for _ in range(window.radius):
            nxt = []
            for w in layer:
                for g in letters:
                    if w and w[-1] == -g:
                        continue
                    nxt.append(w + (g,))
            out.extend(nxt)
            layer = nxt
        return out

    def window_contains(self, window, x):
        return len(x) <= window.radius

    def boundary_slack(self, window, x):
        return float(window.radius - len(x))


# ---------------------------------------------------------------------------
# discrete Heisenberg group


def _heis_length(a, b, c):
    """Exact word length of (a, b, c) over x, y and their inverses, by the
    closed form stated in ``HeisenbergModel``; exact at any size."""
    if a < 0:
        a, c = -a, -c
    if b < 0:
        b, c = -b, -c
    ab = a * b
    cc = max(c, ab - c)
    if cc <= ab:
        return a + b
    big = max(a, b)
    excess = cc - ab
    if excess <= (big - min(a, b)) * big:
        return a + b + 2 * (-(-excess // big))
    # least s with floor(s^2 / 4) >= cc, i.e. s^2 >= 4 cc
    return 2 * (1 + math.isqrt(4 * cc - 1)) - a - b


def _heis_lengths(a, b, c):
    """``_heis_length`` on int64 arrays, elementwise.

    Exact while 4 * max(|c|, |ab - c|) fits in int64.
    """
    c = np.where(a < 0, -c, c)
    a = np.abs(a)
    c = np.where(b < 0, -c, c)
    b = np.abs(b)
    ab = a * b
    cc = np.maximum(c, ab - c)
    big = np.maximum(a, b)
    excess = cc - ab
    box = a + b + 2 * (-(-excess // np.maximum(big, 1)))
    # ceil(sqrt(4 cc)): past 2^53 the float root can fall one short of it,
    # never past it, since an integer root below 2^32 survives the rounding
    four = 4 * cc
    s = np.ceil(np.sqrt(four.astype(float))).astype(np.int64)
    s += s * s < four
    return np.where(excess <= 0, a + b,
                    np.where(excess <= (big - np.minimum(a, b)) * big,
                             box, 2 * s - a - b))


class HeisenbergModel(SpaceModel):
    """Integer Heisenberg group, coordinates (a, b, c).

    Group law (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a b'), generated by
    x = (1,0,0) and y = (0,1,0) plus inverses.  A word is a lattice path in
    Z^2 from 0 to (a, b) whose integral of a db is c, so word lengths have
    an exact closed form (S. Blachere, "Word distance on the discrete
    Heisenberg group", Colloq. Math. 95 (2003) 21-36).  Fold signs with the
    automorphisms x -> x^-1 and y -> y^-1, which send (a, b, c) to (-a, b, -c)
    and (a, -b, -c), so that a, b >= 0; the inverse gives the same length
    for (a, b, ab - c).  With cc = max(c, ab - c) and M = max(a, b), the
    length is

    * a + b                          if cc <= ab,
    * a + b + 2 ceil((cc - ab) / M)  if cc - ab <= (M - min(a, b)) M,
    * 2 s - a - b                    otherwise, s = ceil(2 sqrt(cc)).

    The values of c reached by paths of length a + b + 2k form an interval
    whose top is reached by a box-shaped path.
    """

    is_discrete = True
    is_group = True
    coarse_constant_c = 1.0
    coord_dtype = np.int64   # exact: float would round large c
    d = 3

    def __init__(self):
        self.model_id = "heisenberg"

    def check_point(self, x):
        if not (isinstance(x, tuple) and len(x) == 3
                and all(isinstance(v, int) for v in x)):
            raise ModelMismatchError(f"{x!r} is not a point of {self.model_id}")

    @property
    def base_point(self):
        return (0, 0, 0)

    def _mul(self, x, y):
        return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])

    def _mul_many(self, A, B):
        out = A + B
        out[..., 2] += A[..., 0] * B[..., 1]
        return out

    def _inv(self, x):
        a, b, c = x
        return (-a, -b, a * b - c)

    def generators(self):
        return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]

    def _dist(self, x, y):
        # length of x^-1 y
        b = y[1] - x[1]
        return float(_heis_length(y[0] - x[0], b, y[2] - x[2] - x[0] * b))

    def _dist_many(self, A, B):
        b = B[..., 1] - A[..., 1]
        return _heis_lengths(B[..., 0] - A[..., 0], b,
                             B[..., 2] - A[..., 2] - A[..., 0] * b).astype(float)

    def distances_from(self, x, points):
        return self._dist_many(np.asarray(x, dtype=np.int64), self.coords(points))

    def _geodesic(self, x, y):
        # greedy descent: some generator always takes the exact distance to
        # y down by one; take the first in ``generators()`` order
        pts = [x]
        left = self._dist(x, y)
        while left:
            left -= 1
            for g in self.generators():
                q = self._mul(pts[-1], g)
                if self._dist(q, y) == left:
                    pts.append(q)
                    break
        return [float(t) for t in range(len(pts))], pts

    def enumerate_window(self, window):
        if not isinstance(window, BallWindow):
            raise DomainError(f"{self.model_id} windows are word balls")
        ball = word_ball(self, window.radius)
        return sorted(ball)

    def window_contains(self, window, x):
        return self._dist(self.base_point, x) <= window.radius + TOL

    def boundary_slack(self, window, x):
        return float(window.radius) - self._dist(self.base_point, x)


def bfs_layers(neighbors, sources):
    """Breadth-first layers about ``sources``: the distinct sources, then
    each list of newly reached vertices in discovery order, until none is
    left.  A layer is built only when the consumer asks for it."""
    layer = list(dict.fromkeys(sources))
    seen = set(layer)
    while layer:
        yield layer
        layer = [w for v in layer for w in neighbors(v)
                 if w not in seen and not seen.add(w)]


def word_ball(space, radius):
    """BFS word ball N_radius(e) of a discrete group model, as a dict
    point -> word length in discovery order (the identity first)."""
    gens = space.generators()
    mul = space._mul
    layers = bfs_layers(lambda p: [mul(p, g) for g in gens],
                        [space.identity()])
    dist = {}
    for depth, layer in enumerate(itertools.islice(layers, radius + 1)):
        dist.update(dict.fromkeys(layer, depth))
    return dist


# ---------------------------------------------------------------------------
# Euclidean space


class EuclideanModel(SpaceModel):
    """R^d with the L2 metric; additive group ops only when flagged."""

    is_discrete = False
    coarse_constant_c = 0.0
    coord_dtype = float

    def __init__(self, d, additive_group=False):
        if d < 1:
            raise DomainError("dimension must be >= 1")
        self.d = int(d)
        self.additive_group = bool(additive_group)
        self.is_group = self.additive_group
        self.model_id = f"euclidean({d})"

    def check_point(self, x):
        if not (isinstance(x, tuple) and len(x) == self.d
                and all(isinstance(v, (int, float)) for v in x)):
            raise ModelMismatchError(f"{x!r} is not a point of {self.model_id}")

    def _dist(self, x, y):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))

    @property
    def base_point(self):
        return (0.0,) * self.d

    def _require_group(self):
        if not self.additive_group:
            raise UnsupportedOperationError(
                "euclidean model built without its additive group flag"
            )

    def _mul(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def _inv(self, x):
        return tuple(-a for a in x)

    def _geodesic(self, x, y):
        a = self._dist(x, y)
        if a < TOL:
            return [0.0], [x]
        n = max(1, math.ceil(a - TOL))
        ts = [a * i / n for i in range(n + 1)]
        pts = [tuple(xi + (yi - xi) * t / a for xi, yi in zip(x, y)) for t in ts]
        return ts, pts

    def enumerate_window(self, window):
        if not isinstance(window, BoxWindow):
            raise DomainError(f"{self.model_id} windows are coordinate boxes")
        axes = []
        for lo, hi in zip(window.lo, window.hi):
            if hi < lo - TOL:
                return []
            n = int(math.floor((hi - lo) / window.pitch + TOL))
            axes.append([lo + i * window.pitch for i in range(n + 1)])
        return [tuple(p) for p in itertools.product(*axes)]

    def window_contains(self, window, x):
        return all(lo - TOL <= v <= hi + TOL
                   for v, lo, hi in zip(x, window.lo, window.hi))

    def boundary_slack(self, window, x):
        return min(min(v - lo, hi - v)
                   for v, lo, hi in zip(x, window.lo, window.hi))

    def distances_from(self, x, points):
        arr = self.coords(points)
        return np.sqrt(((arr - np.asarray(x, dtype=float)) ** 2).sum(axis=1))


# ---------------------------------------------------------------------------
# hyperbolic upper half-plane / affine group


def hyperbolic_distance_arrays(u1, a1, u2, a2):
    """Vectorised hyperbolic distance 2 atanh(|x-y| / |x-conj(y)|)."""
    du = np.asarray(u1, dtype=float) - np.asarray(u2, dtype=float)
    p = np.hypot(du, np.asarray(a1, dtype=float) - np.asarray(a2, dtype=float))
    q = np.hypot(du, np.asarray(a1, dtype=float) + np.asarray(a2, dtype=float))
    return 2.0 * np.arctanh(p / q)


class HyperbolicPlaneModel(SpaceModel):
    """Upper half-plane (u, a), a > 0, with the affine group law.

    distance((u1,a1),(u2,a2)) = 2 atanh(|x-y|/|x-conj y|) for x = u1+i a1,
    y = u2+i a2; ``distance_log_form`` gives the equivalent
    log((|x-conj y|+|x-y|)/(|x-conj y|-|x-y|)) for cross-checking.
    """

    is_discrete = False
    is_group = True
    coarse_constant_c = 0.0
    coord_dtype = float
    d = 2

    def __init__(self):
        self.model_id = "h2"

    def check_point(self, x):
        if not (isinstance(x, tuple) and len(x) == 2
                and all(isinstance(v, (int, float)) for v in x)):
            raise ModelMismatchError(f"{x!r} is not a point of h2")
        if not x[1] > 0:
            raise DomainError(f"hyperbolic point needs a > 0, got {x!r}")

    def _dist(self, x, y):
        p = math.hypot(x[0] - y[0], x[1] - y[1])
        q = math.hypot(x[0] - y[0], x[1] + y[1])
        return 2.0 * math.atanh(p / q) if p > 0 else 0.0

    def distance_log_form(self, x, y):
        self.check_point(x)
        self.check_point(y)
        p = math.hypot(x[0] - y[0], x[1] - y[1])
        q = math.hypot(x[0] - y[0], x[1] + y[1])
        return math.log((q + p) / (q - p))

    @property
    def base_point(self):
        return (0.0, 1.0)

    def _mul(self, x, y):
        u, a = x
        v, b = y
        return (a * v + u, a * b)

    def _inv(self, x):
        u, a = x
        return (-u / a, 1.0 / a)

    def _geodesic(self, x, y):
        a = self._dist(x, y)
        if a < TOL:
            return [0.0], [x]
        n = max(1, math.ceil(a - TOL))
        ts = [a * i / n for i in range(n + 1)]
        u1, h1 = x
        u2, h2 = y
        if abs(u1 - u2) < 1e-12:
            # vertical geodesic: log-linear interpolation of heights
            pts = [(u1, h1 * (h2 / h1) ** (t / a)) for t in ts]
            return ts, pts
        # geodesic semicircle centred on the real axis
        x0 = (u2 * u2 + h2 * h2 - u1 * u1 - h1 * h1) / (2.0 * (u2 - u1))
        rho = math.hypot(u1 - x0, h1)
        th1 = math.atan2(h1, u1 - x0)
        th2 = math.atan2(h2, u2 - x0)
        s1 = math.log(math.tan(th1 / 2.0))
        s2 = math.log(math.tan(th2 / 2.0))
        pts = []
        for t in ts:
            s = s1 + (s2 - s1) * t / a
            th = 2.0 * math.atan(math.exp(s))
            pts.append((x0 + rho * math.cos(th), rho * math.sin(th)))
        # pin the endpoints exactly
        pts[0] = x
        pts[-1] = y
        return ts, pts

    def enumerate_window(self, window):
        if not isinstance(window, H2Window):
            raise DomainError("h2 windows are (u, log a) boxes")
        if window.u_max < window.u_min - TOL or window.la_max < window.la_min - TOL:
            return []
        nu = int(math.floor((window.u_max - window.u_min) / window.pitch + TOL))
        nl = int(math.floor((window.la_max - window.la_min) / window.pitch + TOL))
        pts = []
        for i in range(nu + 1):
            u = window.u_min + i * window.pitch
            for j in range(nl + 1):
                la = window.la_min + j * window.pitch
                pts.append((u, math.exp(la)))
        return pts

    def window_contains(self, window, x):
        u, a = x
        la = math.log(a)
        return (window.u_min - TOL <= u <= window.u_max + TOL
                and window.la_min - TOL <= la <= window.la_max + TOL)

    def boundary_slack(self, window, x):
        u, a = x
        la = math.log(a)
        # vertical window edges are geodesic lines: d((u,a), {u = u0}) =
        # asinh(|u - u0| / a); horizontal edges in log a are vertical distance
        return min(
            math.asinh((window.u_max - u) / a),
            math.asinh((u - window.u_min) / a),
            window.la_max - la,
            la - window.la_min,
        )

    def distances_from(self, x, points):
        arr = self.coords(points)
        return hyperbolic_distance_arrays(x[0], x[1], arr[:, 0], arr[:, 1])


# ---------------------------------------------------------------------------
# model registry used by serialization and the CLI

MODEL_BUILDERS = {
    "zd": lambda d=1: ZdModel(d),
    "free_group": lambda k=2: FreeGroupModel(k),
    "heisenberg": lambda: HeisenbergModel(),
    "euclidean": lambda d=2, additive_group=False: EuclideanModel(d, additive_group),
    "h2": lambda: HyperbolicPlaneModel(),
}
