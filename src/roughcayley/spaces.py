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

Validation happens once, at the library boundary.  ``check_point`` checks
one point and ``check_points`` a sequence of them, in order, by a plain
loop over ``check_point``, raising for the first bad one.  The public
``distance``, ``multiply``, ``inverse`` and ``coarse_geodesic`` of
``SpaceModel`` check every point a caller hands in with ``check_point``
and then call the unchecked kernels ``_dist``, ``_mul``, ``_inv`` and
``_geodesic``.  Library loops over points that are already trusted
(lattice points, which ``QuasiLattice`` checks at construction, and
points the library computed itself) call the kernels directly, and the
lattices the library builds (word balls, greedy nets, the horocyclic
lattice) reach ``QuasiLattice`` by a private trusted path that checks
nothing.  The batch kernels ``_mul_many`` and
``_dist_many`` apply ``_mul`` and ``_dist`` row by row to point arrays
(``coords``; ``_points`` reads them back); Z^d, Heisenberg and free groups
(words as zero-padded rows of letters) do so in exact integer NumPy, R^d
in float NumPy with ``_dist``'s operations in its order, and the
hyperbolic plane loops over the scalar kernel, so a batch equals the
scalar results bit for bit on every model.  ``boundary_slacks`` does the
same for ``boundary_slack`` where an array form is exact (Z^d, free
groups).

Each discrete group builds its word ball N_r(e) as a point array with no
walk (``_ball`` on Z^d, Heisenberg and free groups) and counts it in
closed form (``ball_sizes``).  One breadth-first primitive serves the
rest: ``csr_layers`` walks a finite graph in CSR arrays
(``RoughGraph.csr``) layer by layer, for hop balls,
border depths, components and distances.  ``csr_rows`` is its one step,
the neighbour rows of a vertex array laid end to end, which the finite
Folner engine reads too.  Point identity has one rule: two rows are the
same point iff their ``_row_keys`` are equal.  ``_row_index`` sorts them
once; its ``runs`` is the one lookup of query rows, in grid cells and in
a lattice's point index, and ``_distinct_rows`` reads its sorted keys.

Each model owns its JSON form: ``tag`` names it in files and on the
command line, ``to_json`` adds its ``params``, and ``point_to_json`` and
``point_from_json`` are its point codec (``{"model": "zd", "x": [3, -4]}``).
Windows carry a ``kind`` tag and a ``to_json`` too.  The registries
``MODELS`` and ``WINDOWS`` serve ``space_from_json``, ``window_from_json``
and the CLI.  Encodings round-trip exactly; decoding raises ``SchemaError``
on a missing key, a wrong tag or a mistyped value, and integer coordinates
(Z^d, Heisenberg, free groups) must be JSON integers, never rounded; a
lattice file's must also fit the model's ``coord_dtype`` (int64).
A model enumerates windows of one ``window_kind`` only, and boxes whose
corners have its dimension; ``check_window`` rejects any other window.

``grid_metric`` marks the models whose distance is at least every
coordinate gap (Z^d, R^d): there the points within r of p lie in the
cells of side r about p's cell, which ``graphs._pairs`` buckets.

``SpaceModel`` holds the rules most models share (see its docstring).  A
body two models share beyond it is a class-level alias, not a base class,
so each class keeps it in its own ``__dict__``, where a caller (a tracer)
can wrap it for that class alone.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ModelMismatchError,
    SchemaError,
    UnsupportedOperationError,
)

TOL = 1e-9

# ---------------------------------------------------------------------------
# JSON decoding


def _get(obj, key, what):
    """obj[key], or ``SchemaError`` when obj is no JSON object with key."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{what} object needs a {key!r} key: {obj!r}")
    return obj[key]


def _num(value, kind):
    """A JSON number as kind: a JSON integer fits every kind, any other
    value must have type kind (so no float, string or bool is an int)."""
    if type(value) is int or type(value) is kind:
        return kind(value)
    raise SchemaError(f"expected a JSON {kind.__name__}, got {value!r}")


def _coords(values, kind):
    """A JSON list of numbers as a tuple of kind, each checked like
    ``_num``."""
    if isinstance(values, list) and all(
            type(v) is int or type(v) is kind for v in values):
        return tuple(map(kind, values))
    raise SchemaError(f"expected a list of JSON {kind.__name__}s, "
                      f"got {values!r}")


def _check_pitch(pitch):
    """The grid step of a window enumeration: a finite number > 0."""
    if not 0 < pitch < math.inf:
        raise DomainError(f"window pitch must be a finite number > 0, "
                          f"got {pitch!r}")


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class BallWindow:
    """Word ball N_radius(e) of a discrete group model."""

    radius: int
    kind = "ball"

    def to_json(self):
        return {"kind": "ball", "radius": self.radius}

    @classmethod
    def from_json(cls, obj):
        return cls(_num(_get(obj, "radius", "window"), int))


@dataclass(frozen=True)
class BoxWindow:
    """Coordinate box with a grid pitch, for Euclidean models.

    ``enumerate_window`` needs a pitch that is a finite number > 0."""

    lo: tuple
    hi: tuple
    pitch: float
    kind = "box"

    def to_json(self):
        return {"kind": "box", "lo": list(self.lo), "hi": list(self.hi),
                "pitch": self.pitch}

    @classmethod
    def from_json(cls, obj):
        lo, hi = _get(obj, "lo", "window"), _get(obj, "hi", "window")
        # checked, but kept as written, so a file round-trips unchanged
        _coords(lo, float)
        _coords(hi, float)
        return cls(tuple(lo), tuple(hi),
                   _num(_get(obj, "pitch", "window"), float))


@dataclass(frozen=True)
class H2Window:
    """(u-range, log a-range) box for the hyperbolic plane.

    ``pitch`` is the grid step used by ``enumerate_window``, which needs a
    finite number > 0; membership and slack queries ignore it.
    """

    u_min: float
    u_max: float
    la_min: float
    la_max: float
    pitch: float = 0.25
    kind = "h2box"

    def to_json(self):
        return {"kind": "h2box", "u": [self.u_min, self.u_max],
                "log_a": [self.la_min, self.la_max], "pitch": self.pitch}

    @classmethod
    def from_json(cls, obj):
        u = _coords(_get(obj, "u", "window"), float)
        la = _coords(_get(obj, "log_a", "window"), float)
        if len(u) != 2 or len(la) != 2:
            raise SchemaError(f"h2box window needs two-number ranges: {obj!r}")
        pitch = obj.get("pitch")
        return cls(*u, *la, 0.25 if pitch is None else _num(pitch, float))


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
    implement the unchecked kernels ``_dist``, ``_mul`` and ``_inv``, which
    assume trusted, well-formed points.  The base holds ``check_point`` (a
    tuple of ``d`` ints or ``coord_type`` values, finite floats), its loop
    ``check_points``, ``window_contains`` (a slack >= -1e-9), the JSON
    codec, fallbacks and the word-geodesic rule ``_geodesic`` of the
    discrete groups; R^d and h2 replace it with sampled geodesics.
    """

    tag: str    # JSON and command-line name of the model
    model_id: str
    coarse_constant_c: float
    is_discrete: bool
    is_group: bool = False
    # dtype of the point arrays ``coords`` builds
    coord_dtype: type
    # type of a point's coordinates, and their key in the point's JSON
    coord_type = int
    point_key = "x"
    # every coordinate gap is at most the distance (see the module notes)
    grid_metric = False
    # (JSON key, kind) of each constructor argument, in order
    params = ()
    # ``kind`` of the windows the model enumerates
    window_kind = "ball"

    def to_json(self) -> dict:
        """The model as its tag plus its parameters."""
        return {"model": self.tag,
                **{key: getattr(self, key) for key, _ in self.params}}

    @classmethod
    def from_json(cls, obj):
        return cls(*(_num(_get(obj, key, "space"), kind)
                     for key, kind in cls.params))

    def point_to_json(self, p) -> dict:
        return {"model": self.tag,
                self.point_key: list(map(self.coord_type, p))}

    def point_from_json(self, obj):
        """The point a ``point_to_json`` object of this model describes."""
        p = self._unchecked_point(obj)
        self.check_point(p)
        return p

    def _unchecked_point(self, obj):
        """``point_from_json`` without ``check_point``: the tag and the JSON
        types of the fields are checked, not the point itself."""
        tag = _get(obj, "model", "point")
        if tag != self.tag:
            raise SchemaError(
                f"point tagged {tag!r} does not match model {self.tag!r}")
        return self._point_fields(obj)

    def _point_fields(self, obj):
        return _coords(_get(obj, self.point_key, "point"), self.coord_type)

    def distance(self, x, y) -> float:
        self.check_point(x)
        self.check_point(y)
        return self._dist(x, y)

    def check_point(self, x):
        """Raise ``ModelMismatchError`` unless x is a tuple of ``d``
        coordinates, each an int or a ``coord_type``, and ``DomainError``
        for a float coordinate that is NaN or infinite."""
        kinds = (int, self.coord_type)
        if not (isinstance(x, tuple) and len(x) == self.d
                and all(isinstance(v, kinds) for v in x)):
            raise ModelMismatchError(f"{x!r} is not a point of {self.model_id}")
        if self.coord_type is float and not all(-math.inf < v < math.inf
                                                for v in x):
            raise DomainError(f"{x!r} has a coordinate that is not finite")

    def check_points(self, points):
        """``check_point`` of each of ``points`` in order: the first bad
        one raises."""
        for x in points:
            self.check_point(x)

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
        at most 1.  On Z^d, free groups and the Heisenberg group the path is
        a word geodesic, one point per integer parameter: each step takes
        the first of ``generators()`` that lowers the distance to y by one.
        """
        self.check_point(x)
        self.check_point(y)
        return self._geodesic(x, y)

    def _geodesic(self, x, y):
        # word geodesic by greedy descent: in a word metric some generator
        # always takes the distance to y down by one; take the first in
        # ``generators()`` order
        gens = self.generators()
        pts = [x]
        left = self._dist(x, y)
        while left:
            left -= 1
            for g in gens:
                q = self._mul(pts[-1], g)
                if self._dist(q, y) == left:
                    pts.append(q)
                    break
        return [float(t) for t in range(len(pts))], pts

    def check_window(self, window, error=DomainError):
        """Raise ``error`` unless the model can enumerate ``window``."""
        kind = getattr(window, "kind", None)
        if kind != self.window_kind:
            raise error(f"{self.model_id} windows have kind "
                        f"{self.window_kind!r}, not {kind!r}")

    def enumerate_window(self, window):
        """Deterministic finite enumeration of a window: lexicographic, or
        shortlex for free groups."""
        raise NotImplementedError

    def window_contains(self, window, x) -> bool:
        """Whether x lies in the window: a slack of at least -1e-9, which
        on integer coordinates is a slack of at least 0."""
        return self.boundary_slack(window, x) >= -TOL

    def boundary_slack(self, window, x) -> float:
        """Metric distance from x to the window border, negative outside."""
        raise NotImplementedError

    def boundary_slacks(self, window, X) -> np.ndarray:
        """``boundary_slack`` of each row of the point array X.  This
        fallback loops over ``boundary_slack``."""
        return np.array([self.boundary_slack(window, p)
                         for p in self._points(X)], dtype=float)

    def coords(self, points):
        """Points as a point array: the (n, d) array of dtype
        ``coord_dtype`` that ``distances_from`` works on (and takes
        without another conversion)."""
        return np.asarray(points, dtype=self.coord_dtype).reshape(
            len(points), self.d)

    def _points(self, A):
        """The rows of a point array as points: the inverse of ``coords``."""
        return zip(*A.T.tolist())

    def _mul_many(self, A, B):
        """Row-wise products of two point arrays; a single row broadcasts.
        This fallback loops over ``_mul``."""
        A, B = np.broadcast_arrays(A, B)
        return self.coords([self._mul(a, b) for a, b in
                            zip(self._points(A), self._points(B))])

    def _dist_many(self, A, B):
        """Row-wise distances of two point arrays; a single row broadcasts.
        This fallback loops over ``_dist``."""
        A, B = np.broadcast_arrays(A, B)
        return np.array([self._dist(a, b) for a, b in
                         zip(self._points(A), self._points(B))], dtype=float)

    def distances_from(self, x, points):
        """Distances from the trusted point x to each of ``points``."""
        return self._dist_many(np.asarray(x, dtype=self.coord_dtype),
                               self.coords(points))

    def _key(self):
        return (self.model_id,)

    def __eq__(self, other):
        return isinstance(other, SpaceModel) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


# ---------------------------------------------------------------------------
# Z^d


def _expand(prefix, lo, hi):
    """Rows (p, v) for each row p of prefix and lo <= v <= hi, in order."""
    n = hi - lo + 1
    rows = np.column_stack([prefix, lo]).repeat(n, axis=0)
    rows[:, -1] += np.arange(len(rows)) - (n.cumsum() - n).repeat(n)
    return rows


class ZdModel(SpaceModel):
    """Z^d with the symmetric standard generators; word metric = L1."""

    tag = "zd"
    is_discrete = True
    is_group = True
    coarse_constant_c = 1.0
    coord_dtype = np.int64
    grid_metric = True
    params = (("d", int),)

    def __init__(self, d=1):
        if d < 1:
            raise DomainError("dimension must be >= 1")
        self.d = int(d)
        self.model_id = f"zd({d})"

    def _dist(self, x, y):
        return float(sum(map(abs, map(operator.sub, x, y))))

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

    def enumerate_window(self, window):
        self.check_window(window)
        return list(self._points(self._ball(window.radius)))

    def _ball(self, r):
        """N_r(e) as a point array in lexicographic order, built axis by
        axis: a prefix of L1 norm s takes the values |v| <= r - s next."""
        ball = np.zeros((int(r >= 0), 0), dtype=np.int64)
        for _ in range(self.d):
            room = r - np.abs(ball).sum(axis=1)
            ball = _expand(ball, -room, room)
        return ball

    def ball_sizes(self, m):
        """|N_r(e)| for r = 0..max(m, 0): sum_k 2^k C(d, k) C(r, k)."""
        return tuple(sum(2 ** k * math.comb(self.d, k) * math.comb(r, k)
                         for k in range(self.d + 1))
                     for r in range(max(m, 0) + 1))

    def boundary_slack(self, window, x):
        return float(window.radius - sum(abs(v) for v in x))

    def boundary_slacks(self, window, X):
        return (window.radius - np.abs(X).sum(axis=1)).astype(float)


# ---------------------------------------------------------------------------
# free group


class FreeGroupModel(SpaceModel):
    """Free group of rank k; points are reduced words over letters +-1..+-k."""

    tag = "free_group"
    is_discrete = True
    is_group = True
    coarse_constant_c = 0.0
    point_key = "w"
    params = (("k", int),)

    def __init__(self, k=2):
        if k < 1:
            raise DomainError("rank must be >= 1")
        self.k = int(k)
        self.model_id = f"free_group({k})"
        self.coord_dtype = np.min_scalar_type(-self.k)

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

    def coords(self, points):
        """Words as zero-padded rows of letters; arrays pass through."""
        if isinstance(points, np.ndarray):
            return points
        return self._pack(
            np.fromiter(map(len, points), dtype=np.intp, count=len(points)),
            np.fromiter(itertools.chain.from_iterable(points),
                        dtype=self.coord_dtype))

    def _pack(self, lengths, letters):
        out = np.zeros((len(lengths), lengths.max(initial=0)),
                       dtype=self.coord_dtype)
        out[np.arange(out.shape[1]) < lengths[:, None]] = letters
        return out

    def _points(self, A):
        # a reduced word has no letter 0, so its length is its nonzero count;
        # the rows are unpacked from the array's bytes, then cut to length
        if not A.shape[1]:
            return [()] * len(A)
        rows = struct.iter_unpack(f"{A.shape[1]}{A.dtype.char}",
                                  np.ascontiguousarray(A))
        return [w[:n] for w, n in zip(rows,
                                      np.count_nonzero(A, axis=1).tolist())]

    def _mul_many(self, A, B):
        # a b = a[:|a| - i] + b[i:], where i is the common prefix of a^-1
        # and b; the nonzero letters of a row, read row by row, are its word
        la, lb = np.count_nonzero(A, axis=1), np.count_nonzero(B, axis=1)
        flip = A[:, ::-1]
        cut = _prefix(self._pack(la, -flip[flip != 0]), B)
        C = np.concatenate([A * (np.arange(A.shape[1]) < (la - cut)[:, None]),
                            B * (np.arange(B.shape[1]) >= cut[:, None])],
                           axis=1)
        return self._pack(la + lb - 2 * cut, C[C != 0])

    def _dist_many(self, A, B):
        # |a^-1 b| = |a| + |b| - 2 (length of the common prefix of a and b)
        A, B = np.atleast_2d(A), np.atleast_2d(B)
        return (np.count_nonzero(A, axis=1) + np.count_nonzero(B, axis=1)
                - 2 * _prefix(A, B)).astype(float)

    def generators(self):
        return [(g,) for g in self._letters()]

    def _letters(self):
        return list(range(-self.k, 0)) + list(range(1, self.k + 1))

    enumerate_window = ZdModel.enumerate_window

    def _ball(self, r):
        """N_r(e) as a point array in shortlex order (length first, then
        letters -k..-1, 1..k), layer by layer: each word of length L < r is
        followed, in letter order, by each letter that does not undo its
        last."""
        letters = np.array(self._letters(), dtype=self.coord_dtype)
        layer = np.zeros((int(r >= 0), max(r, 0)), dtype=self.coord_dtype)
        layers = [layer]
        for L in range(r):
            layer = layer.repeat(len(letters), axis=0)
            layer[:, L] = np.resize(letters, len(layer))
            if L:
                layer = layer[layer[:, L] != -layer[:, L - 1]]
            layers.append(layer)
        return np.concatenate(layers)

    def ball_sizes(self, m):
        """|N_r(e)| for r = 0..m: each reduced word of length r >= 1 has
        2k - 1 extensions, as the Cayley graph is a tree."""
        return tuple(itertools.accumulate(
            (2 * self.k * (2 * self.k - 1) ** r for r in range(m)), initial=1))

    def boundary_slack(self, window, x):
        return float(window.radius - len(x))

    def boundary_slacks(self, window, X):
        return (window.radius - np.count_nonzero(X, axis=1)).astype(float)


def _prefix(A, B):
    """Per row, the common prefix length of two free-group point arrays.
    Only the first min(width) columns are compared: past the narrower
    array's width its letters are 0, which no common prefix contains."""
    w = min(A.shape[1], B.shape[1])
    A, B = A[:, :w], B[:, :w]
    return np.logical_and.accumulate((A == B) & (A != 0), axis=1).sum(axis=1)


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
    whose top is reached by a box-shaped path.  So N_r(e) meets each line
    over (a, b) in one interval of c, with closed-form ends (``_fibers``).
    """

    tag = "heisenberg"
    is_discrete = True
    is_group = True
    coarse_constant_c = 1.0
    coord_dtype = np.int64   # exact: float would round large c
    d = 3

    def __init__(self):
        self.model_id = "heisenberg"

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

    enumerate_window = ZdModel.enumerate_window

    def _fibers(self, r):
        """Arrays (a, b, lo, hi) over |a| + |b| <= r in lexicographic
        order: N_r(e) is the union of the fibres lo <= c <= hi.  Proof:
        fold the signs to A, B >= 0, M = max(A, B), m = min(A, B).
        The length of the class notes never falls as cc = max(c, AB - c)
        grows (where the third branch starts, cc = M^2 + 1, it steps from
        3M - m to 3M - m + 2), so the fibre is [AB - C, C] for the largest
        cc = C of length <= r.  Lengths have the parity of A + B, so that
        bound is A + B + 2k, k = (r - A - B) // 2.  If k <= M - m, the
        second branch reaches it at C = AB + kM and the third starts above
        it.  Otherwise the first two lie below it, and the third needs
        ceil(2 sqrt(cc)) <= t = (r + A + B) // 2: C = floor(t^2 / 4).
        Unfolding a sign when a b < 0 maps c to -c.
        """
        a, b = ZdModel(2)._ball(r).T
        A, B = np.abs(a), np.abs(b)
        M = np.maximum(A, B)
        k, t = (r - A - B) // 2, (r + A + B) // 2
        C = np.where(k <= M - np.minimum(A, B), A * B + k * M, t * t // 4)
        lo = np.where(a * b < 0, -C, A * B - C)
        return a, b, lo, lo + 2 * C - A * B

    def _ball(self, r):
        """N_r(e) in lexicographic order: the fibres of ``_fibers`` as rows."""
        a, b, lo, hi = self._fibers(r)
        return _expand(np.column_stack([a, b]), lo, hi)

    def ball_sizes(self, m):
        """|N_r(e)| for r = 0..max(m, 0): the fibre widths summed."""
        return tuple(int((hi - lo + 1).sum()) for _, _, lo, hi in
                     map(self._fibers, range(max(m, 0) + 1)))

    def boundary_slack(self, window, x):
        return float(window.radius) - self._dist(self.base_point, x)


def csr_rows(indptr, indices, ids):
    """The neighbour rows ``indices[indptr[v]:indptr[v + 1]]`` of the
    vertices ``ids`` (an intp array) laid end to end, as intp ids.
    ``take`` and intp ids spare NumPy an index conversion per call."""
    lo = indptr.take(ids)
    cnt = indptr.take(ids + 1) - lo
    at = (lo - cnt.cumsum() + cnt).repeat(cnt)
    at += np.arange(len(at))
    return indices.take(at).astype(np.intp)


def csr_layers(indptr, indices, sources, seen=None):
    """Breadth-first layers of a finite graph in CSR form, whose vertex v
    has the neighbours ``indices[indptr[v]:indptr[v + 1]]``: the distinct
    sources, then each array of newly reached vertices in discovery order,
    until none is left, as intp arrays.  A layer is built only when the
    consumer asks for it.  A vertex set in the boolean array ``seen`` is
    never reached; the walk sets every vertex it yields there."""
    n = len(indptr) - 1
    if seen is None:
        seen = np.zeros(n, dtype=bool)
    pos = np.empty(n, dtype=np.intp)
    cand = np.asarray(sources, dtype=np.intp).ravel()
    while len(cand):
        # keep the first occurrence of each vertex: the reversed scatter
        # leaves in pos[v] the smallest position of v in cand
        k = np.arange(len(cand))
        pos[cand[::-1]] = k[::-1]
        layer = cand[pos.take(cand) == k]
        seen[layer] = True
        yield layer
        cand = csr_rows(indptr, indices, layer)
        cand = cand[~seen.take(cand)]


# ---------------------------------------------------------------------------
# point identity


def _width(A, w):
    """A with its rows cut or zero-padded to w columns."""
    out = np.zeros((len(A), w), dtype=A.dtype)
    out[:, :min(A.shape[1], w)] = A[:, :w]
    return out


def _row_keys(K):
    """Sort keys of the rows of the point array K, and the function that
    keys query rows of K's width and dtype: equal keys iff equal points.
    Integer rows get mixed-radix int64 codes over K's column ranges,
    widened to take in 0, and a query outside them is coded -1.  Float
    rows, and integer rows whose code could overflow, are keyed by the raw
    bytes of the row plus 0 (no NaN is a coordinate, and -0.0 + 0 is 0.0),
    which NumPy compares more slowly."""
    if K.dtype.kind == "i":
        lo = K.min(axis=0, initial=0).astype(np.int64)
        hi = K.max(axis=0, initial=0).astype(np.int64)
        spans = [int(b) - int(a) + 1 for a, b in zip(lo, hi)]
        if not math.prod(spans) >> 63:
            def key(Q):
                # column by column, so no int64 copy of a narrower Q is made
                code = np.zeros(len(Q), dtype=np.int64)
                outside = np.zeros(len(Q), dtype=bool)
                for c, span in enumerate(spans):
                    col = Q[:, c]
                    outside |= col < lo[c]
                    outside |= col > hi[c]
                    code *= span
                    code += col
                    code -= lo[c]
                code[outside] = -1
                return code
            return key(K), key

    def key(Q):
        Q = np.ascontiguousarray(Q + 0)
        return Q.view(f"V{Q.itemsize * Q.shape[1]}").ravel()
    return key(K), key


def _row_index(K):
    """The sorted ``_row_keys`` of K's rows, their stable order and
    ``runs``: where the sorted keys equal to each query row start and end
    (equal where there is none)."""
    keys, key = _row_keys(K)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]

    def runs(Q):
        code = key(Q)
        return np.searchsorted(keys, code), np.searchsorted(keys, code, "right")
    return keys, order, runs


def _distinct_rows(Q):
    """Indices of the distinct rows of the point array Q, in order of first
    occurrence, and each row's position among them; the stable sort starts
    each run of equal rows at its first occurrence."""
    keys, order, _ = _row_index(Q)
    first = np.empty_like(order)   # each row's first occurrence
    first[order] = order[np.searchsorted(keys, keys)]
    rows = np.flatnonzero(first == np.arange(len(first)))
    return rows, np.searchsorted(rows, first)


# ---------------------------------------------------------------------------
# Euclidean space


class EuclideanModel(SpaceModel):
    """R^d with the L2 metric; additive group ops only when flagged."""

    tag = "euclidean"
    is_discrete = False
    coarse_constant_c = 0.0
    coord_dtype = float
    coord_type = float
    grid_metric = True
    params = (("d", int), ("additive_group", bool))
    window_kind = "box"

    def __init__(self, d=2, additive_group=False):
        if d < 1:
            raise DomainError("dimension must be >= 1")
        self.d = int(d)
        self.additive_group = bool(additive_group)
        self.is_group = self.additive_group
        self.model_id = f"euclidean({d})"

    def _dist(self, x, y):
        # squares by multiplication, which rounds correctly; ``** 2`` calls
        # the C pow, which can miss by one unit in the last place (about
        # one float square in a thousand with glibc)
        return math.sqrt(sum((a - b) * (a - b) for a, b in zip(x, y)))

    def _dist_many(self, A, B):
        # ``_dist`` in arrays: the squared gaps summed in its column order
        G = A - B
        total = np.zeros(G.shape[:-1])
        for k in range(G.shape[-1]):
            total += G[..., k] * G[..., k]
        return np.sqrt(total)

    @property
    def base_point(self):
        return (0.0,) * self.d

    def check_window(self, window, error=DomainError):
        super().check_window(window, error)
        if not len(window.lo) == len(window.hi) == self.d:
            raise error(f"box corners {window.lo!r}, {window.hi!r} are no "
                        f"points of {self.model_id}")

    def _require_group(self):
        if not self.additive_group:
            raise UnsupportedOperationError(
                "euclidean model built without its additive group flag"
            )

    _mul = ZdModel._mul
    _inv = ZdModel._inv

    def _geodesic(self, x, y):
        a = self._dist(x, y)
        if a < TOL:
            return [0.0], [x]
        n = max(1, math.ceil(a - TOL))
        ts = [a * i / n for i in range(n + 1)]
        pts = [tuple(xi + (yi - xi) * t / a for xi, yi in zip(x, y)) for t in ts]
        return ts, pts

    def enumerate_window(self, window):
        self.check_window(window)
        _check_pitch(window.pitch)
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
    y = u2+i a2.
    """

    tag = "h2"
    is_discrete = False
    is_group = True
    coarse_constant_c = 0.0
    coord_dtype = float
    coord_type = float
    d = 2
    window_kind = "h2box"

    def __init__(self):
        self.model_id = "h2"

    def point_to_json(self, p):
        return {"model": "h2", "u": float(p[0]), "a": float(p[1])}

    def _point_fields(self, obj):
        return _coords([_get(obj, "u", "point"), _get(obj, "a", "point")],
                       float)

    def check_point(self, x):
        super().check_point(x)
        if not x[1] > 0:
            raise DomainError(f"hyperbolic point needs a > 0, got {x!r}")

    def _dist(self, x, y):
        p = math.hypot(x[0] - y[0], x[1] - y[1])
        q = math.hypot(x[0] - y[0], x[1] + y[1])
        return 2.0 * math.atanh(p / q) if p > 0 else 0.0

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
        self.check_window(window)
        _check_pitch(window.pitch)
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
# registry of the JSON tags; ``space list`` shows each model built with its
# default parameters

MODELS = {cls.tag: cls for cls in (ZdModel, FreeGroupModel, HeisenbergModel,
                                   EuclideanModel, HyperbolicPlaneModel)}


def space_from_json(obj) -> SpaceModel:
    """The model a ``to_json`` object describes, by its ``model`` tag."""
    tag = _get(obj, "model", "space")
    if not (isinstance(tag, str) and tag in MODELS):
        raise SchemaError(f"unknown space model tag {tag!r}; the tags "
                          f"are {', '.join(MODELS)}")
    return MODELS[tag].from_json(obj)


WINDOWS = {cls.kind: cls for cls in (BallWindow, BoxWindow, H2Window)}


def window_from_json(obj):
    """The window a ``to_json`` object describes, by its ``kind`` tag."""
    kind = _get(obj, "kind", "window")
    if not (isinstance(kind, str) and kind in WINDOWS):
        raise SchemaError(f"unknown window kind {kind!r}")
    return WINDOWS[kind].from_json(obj)
