"""Quasi-lattices: greedy maximal separated nets, the explicit horocyclic
lattice in the upper half-plane, group balls, and empirical density /
multiplicity certification.

A quasi-lattice is a coarsely dense point set whose R-neighborhood counts
are uniformly bounded.  Both searches for close points read the rough
graph's candidate pairs (``graphs._pairs``): ``greedy_net`` takes its
conflicts from them at threshold delta, and ``_near_pairs``, the one
near-point search of ``verify_quasilattice`` and ``nearest_many`` (the
quasi-actions' coarse inverse), queries the lattice's own side of them,
which the lattice keeps per reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BorderError,
    DomainError,
    ModelMismatchError,
    SchemaError,
    WindowTooSmallError,
)
from .spaces import (
    BallWindow,
    BoxWindow,
    H2Window,
    HyperbolicPlaneModel,
    SpaceModel,
    TOL,
    _num,
    _distinct_rows,
    _row_index,
    _width,
    space_from_json,
    window_from_json,
)

# minimal pairwise separation of the horocyclic lattice: the distance between
# horizontally adjacent points (e^n m, e^n), (e^n (m+1), e^n), which equals
# 2 log((1+sqrt 5)/2) ~ 0.9624; cross-level pairs are at distance >= 1
HOROCYCLIC_SEPARATION = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0)

# certified coarse-density radius of the horocyclic lattice
HOROCYCLIC_DENSITY_RADIUS = 1.07


@dataclass
class QuasiLattice:
    """A finite ordered point set with separation and density certificates.

    Construction checks every point against the model once
    (``check_points``); library code trusts lattice points from then on.
    The lattices the library builds from its own points come by
    ``_trusted``, which checks nothing.  ``coords()`` is the point list as
    ``distances_from`` takes it (``space.coords``; for free groups the
    words as zero-padded rows of letters).  Caches, each built on first
    use: ``_coords`` (unless a word ball came with it); ``_index``, the
    point index ``_row_index(coords())`` that ``_find`` and the group-ball
    pairs read; ``_slacks`` (read-only); ``_lex_ranks``; and
    ``_sides``, the query of the lattice's side of the pairs per reach.
    """

    space: SpaceModel
    window: object
    points: list
    separation_delta: float
    density_radius_r: float
    construction: str
    certificates: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.points)

    # caches, each built on first use; ``_trusted`` presets ``_coords``
    _coords = _slacks = None

    def __post_init__(self):
        self.space.check_points(self.points)
        self._sides = {}

    @classmethod
    def _trusted(cls, X=None, **fields):
        """The lattice of ``fields`` on points the library built itself, with
        their point array X, if given, as ``coords()``; nothing is
        checked."""
        lattice = cls.__new__(cls)
        vars(lattice).update(fields, _coords=X, _sides={})
        return lattice

    @cached_property
    def _index(self):
        return _row_index(self.coords())

    def _find(self, ps):
        """The position of the last copy of each of ``ps`` among the points,
        or -1 where there is none; a p that is no tuple is none."""
        X, (_, order, runs) = self.coords(), self._index
        if not len(X):
            return [-1] * len(ps)
        # the ps as rows of X's width: a p that its row does not read back
        # as equals no lattice point either; where one p has no row, each
        # p is looked up alone
        try:
            rows = _width(self.space.coords(ps), X.shape[1])
        except (TypeError, ValueError, OverflowError):
            return [-1] if len(ps) == 1 else [self._find([p])[0] for p in ps]
        lo, hi = runs(rows)
        found = np.where(lo < hi, order[hi - 1], -1)
        return [i if i >= 0 and isinstance(p, tuple) and q == p else -1
                for i, p, q in zip(found.tolist(), ps,
                                   self.space._points(rows))]

    def index_of(self, p):
        i = self._find([p])[0]
        if i < 0:
            raise KeyError(p)
        return i

    def contains_point(self, p):
        return self._find([p])[0] >= 0

    def coords(self):
        if self._coords is None:
            self._coords = self.space.coords(self.points)
        return self._coords

    def slacks(self) -> np.ndarray:
        """Boundary slack (metric distance to the window border) per point."""
        if self._slacks is None:
            self._slacks = self.space.boundary_slacks(self.window,
                                                      self.coords())
            self._slacks.setflags(write=False)
        return self._slacks

    @cached_property
    def _lex_ranks(self) -> np.ndarray:
        """Each point's place in the lexicographic order of the points, a
        repeated point first at its first copy."""
        return np.argsort(sorted(range(len(self.points)),
                                 key=self.points.__getitem__))

    def nearest_many(self, Q):
        """(index, distance) arrays of the nearest lattice point to each row
        of the point array Q: the least distance, then the lexicographically
        smallest point within 1e-9 of it, from ``_near_pairs`` at
        T = max(r, delta, 1).  A row nearer than T + 1e-9 has its ties
        within T + 2e-9, which every candidate generator reaches (cells
        and rows are widened by 2e-9; group-ball distances are integers)."""
        if not self.points:
            raise DomainError("an empty lattice has no nearest point")
        reach = max(self.density_radius_r, self.separation_delta, 1.0)
        none = np.empty(0, dtype=np.intp)
        I, J, D = map(np.concatenate, zip((none, none, np.empty(0)),
                                          *_near_pairs(self, Q, reach)))
        best = np.full(len(Q), math.inf)
        np.minimum.at(best, I, D)
        tied = D <= best[I] + TOL
        I, J, D = I[tied], J[tied], D[tied]
        rank = self._lex_ranks[J]
        top = np.full(len(Q), len(self.points))
        np.minimum.at(top, I, rank)
        won = rank == top[I]
        index, dist = np.empty(len(Q), dtype=np.intp), np.empty(len(Q))
        index[I[won]], dist[I[won]] = J[won], D[won]
        return index, dist

    def nearest(self, x):
        """(index, distance) of the nearest lattice point, lexicographic ties."""
        index, dist = self.nearest_many(self.space.coords([x]))
        return int(index[0]), float(dist[0])

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "window": self.window.to_json(),
            "construction": self.construction,
            "separation_delta": self.separation_delta,
            "density_radius_r": self.density_radius_r,
            "points": [self.space.point_to_json(p) for p in self.points],
            "certificates": self.certificates,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuasiLattice":
        space = space_from_json(obj["space"])
        window = window_from_json(obj["window"])
        space.check_window(window, SchemaError)
        delta = _num(obj["separation_delta"], float)
        r = _num(obj["density_radius_r"], float)
        certificates = obj.get("certificates", {})
        for name, rule, ok in (
                ("separation_delta", "finite and > 0", 0 < delta < math.inf),
                ("density_radius_r", "finite and >= 0", 0 <= r < math.inf),
                ("construction", "a string", type(obj["construction"]) is str),
                ("certificates", "a JSON object", type(certificates) is dict)):
            if not ok:
                raise SchemaError(f"{name} must be {rule}, got {obj[name]!r}")
        try:
            lattice = cls(
                space=space,
                window=window,
                # checked against the model once, by ``__post_init__``
                points=[space._unchecked_point(p) for p in obj["points"]],
                separation_delta=delta,
                density_radius_r=r,
                construction=obj["construction"],
                certificates=certificates,
            )
            lattice.coords()
        except (DomainError, ModelMismatchError) as exc:
            # a point of the file that is no point of the model
            raise SchemaError(str(exc)) from exc
        except OverflowError as exc:
            # an integer coordinate that the model's point arrays cannot hold
            raise SchemaError(f"a point coordinate is outside the range of "
                              f"{np.dtype(space.coord_dtype)}") from exc
        return lattice


@dataclass(frozen=True)
class MultiplicityProfile:
    """Worst observed neighbor counts M(R) = max_x |lattice ∩ N_R(x)|."""

    entries: tuple  # of (R, M) pairs, R ascending

    def __post_init__(self):
        ms = [m for _, m in self.entries]
        if any(b < a for a, b in zip(ms, ms[1:])):
            raise DomainError("multiplicity profile must be non-decreasing in R")

    def at(self, R):
        for r, m in self.entries:
            if abs(r - R) <= TOL:
                return m
        raise KeyError(R)


# ---------------------------------------------------------------------------
# constructions


def greedy_net(space, window, delta, enumeration=None) -> QuasiLattice:
    """Greedy maximal delta-separated net over a window enumeration.

    Keeps each point of the enumeration, in order, that lies at distance
    >= delta (less 1e-9) from every point kept before it; a repeated point
    counts at its first copy only.  The conflicts, pairs of points closer
    than that, come from the edge builders' candidate pairs at threshold
    delta, and one forward pass takes the greedy independent set of the
    conflict graph.  Maximality makes the result delta-dense
    within the window, so the density radius certificate is delta itself.
    The default enumeration is ``space.enumerate_window(window)``
    (lexicographic); pass ``enumeration`` to use another deterministic
    order, whose points are checked against the model once
    (``check_points``).  The kept points are not checked again.
    """
    if not 0 < delta < math.inf:
        raise DomainError(f"separation delta must be a finite number > 0, "
                          f"got {delta!r}")
    if enumeration is None:
        enumeration = points = space.enumerate_window(window)
    else:
        space.check_points(enumeration)
        rows = _distinct_rows(space.coords(enumeration))[0]
        points = [enumeration[i] for i in rows.tolist()]
    # the conflicts (i, j), i < j, as keys i n + j from candidate blocks
    # filtered one at a time; sorted and taken mod n, the later conflicts
    # of i are J[ends[i - 1]:ends[i]]
    n = len(points)
    keys = [np.empty(0, dtype=np.int64)]
    X = space.coords(points)
    for I, J, d in graphs._pairs(space, X, delta)(X):
        hit = (I < J) & (d < delta - TOL)
        keys.append(I[hit] * n + J[hit])
    J = np.concatenate(keys)
    J.sort()
    ends = np.searchsorted(J, np.arange(1, n + 1) * n).tolist()
    J %= n
    # the greedy independent set: each kept point blocks its later conflicts
    blocked = np.zeros(n, dtype=bool)
    chosen, start = [], 0
    for i, end in enumerate(ends):
        if not blocked[i]:
            chosen.append(points[i])
            blocked[J[start:end]] = True
        start = end
    certificates = {"kind": "greedy", "delta": delta, "n_candidates": len(enumeration)}
    if not enumeration:
        certificates["vacuous"] = True
    return QuasiLattice._trusted(
        space=space,
        window=window,
        points=chosen,
        separation_delta=float(delta),
        density_radius_r=float(delta),
        construction="greedy",
        certificates=certificates,
    )


def group_ball_lattice(space, radius) -> QuasiLattice:
    """The group acting on itself: lattice = whole word ball, r = 0."""
    window = BallWindow(radius)
    space.check_window(window)
    X = space._ball(radius)
    return QuasiLattice._trusted(
        X,
        space=space,
        window=window,
        points=list(space._points(X)),
        separation_delta=1.0,
        density_radius_r=0.0,
        construction="group_ball",
        certificates={"kind": "group_ball", "radius": radius},
    )


def horocyclic_lattice(u_range=(-20.0, 20.0), n_range=(-3, 3)) -> QuasiLattice:
    """The exponential-scale lattice {(e^n m, e^n) : n, m integers} in a window.

    Level n holds the points with a = e^n and u = e^n m covering the u-range.
    The density radius 1.07 is a fixed certificate (the construction is
    coarsely dense with constant ~1.06); ``verify_quasilattice`` re-checks it
    empirically on probe samples.
    """
    u_min, u_max = float(u_range[0]), float(u_range[1])
    n_min, n_max = int(n_range[0]), int(n_range[1])
    space = HyperbolicPlaneModel()
    points = []
    multi_level = False
    for n in range(n_min, n_max + 1):
        en = math.exp(n)
        m0 = math.ceil(u_min / en - TOL)
        m1 = math.floor(u_max / en + TOL)
        if m1 > m0:
            multi_level = True
        for m in range(m0, m1 + 1):
            points.append((en * m, en))
    separation = HOROCYCLIC_SEPARATION if multi_level else 1.0
    window = H2Window(u_min, u_max, float(n_min), float(n_max))
    return QuasiLattice._trusted(
        space=space,
        window=window,
        points=points,
        separation_delta=separation,
        density_radius_r=HOROCYCLIC_DENSITY_RADIUS,
        construction="horocyclic",
        certificates={"kind": "horocyclic", "u_range": [u_min, u_max],
                      "n_range": [n_min, n_max]},
    )


# ---------------------------------------------------------------------------
# verification


def sample_probes(space, window, n, margin, seed):
    """n seeded pseudo-random probes with boundary slack >= margin; a
    negative n, a margin outside [0, inf) (probes outside the window) or
    an h2 margin whose pad sinh(margin) overflows is a ``DomainError``."""
    why = f"cannot sample {n!r} probes at margin {margin!r}"
    if n < 0 or not 0 <= margin < math.inf:
        raise DomainError(why)
    rng = np.random.default_rng(seed)
    if isinstance(window, H2Window):
        la_lo, la_hi = window.la_min + margin, window.la_max - margin
        if la_hi < la_lo:
            raise WindowTooSmallError("margin exceeds the log a range")
        try:
            sinh_margin = math.sinh(margin)
        except OverflowError:
            raise DomainError(why) from None
        # the pad a sinh(margin) grows with a: the lowest height admits most
        pad = math.exp(la_lo) * sinh_margin
        if window.u_max - pad < window.u_min + pad:
            raise WindowTooSmallError("margin exceeds the u range")
        probes = []
        while len(probes) < n:
            la = rng.uniform(la_lo, la_hi)
            a = math.exp(la)
            pad = a * sinh_margin
            u_lo, u_hi = window.u_min + pad, window.u_max - pad
            if u_hi < u_lo:
                continue
            probes.append((rng.uniform(u_lo, u_hi), a))
        return probes
    if isinstance(window, BoxWindow):
        lo = np.asarray(window.lo, float) + margin
        hi = np.asarray(window.hi, float) - margin
        if (hi < lo).any():
            raise WindowTooSmallError("margin exceeds the box")
        return [tuple(rng.uniform(lo, hi)) for _ in range(n)]
    if isinstance(window, BallWindow):
        inner = int(math.floor(window.radius - margin + TOL))
        if inner < 0:
            raise WindowTooSmallError("margin exceeds the ball radius")
        pool = space.enumerate_window(BallWindow(inner))
        idx = rng.integers(0, len(pool), size=n)
        return [pool[i] for i in idx]
    raise DomainError(f"cannot sample probes for window {window!r}")


def verify_quasilattice(lattice: QuasiLattice, probes, r_list, seed=None):
    """Empirical density certificate and multiplicity profile over probes.

    Each probe that is not a lattice point is checked against the model:
    one pass over the point index sets the lattice points aside, and
    ``check_points`` takes the rest.  Every probe must keep boundary slack
    >= max(r_list) so neighbor counts are not truncated by the window
    border; a radius that is negative or not finite raises ``DomainError``.
    Returns ``(certificate, profile)`` where the certificate records the
    worst probe-to-lattice distance and the profile the largest count of
    lattice points within each radius R (plus 1e-9) of a probe.

    Both come from the probe-lattice pairs of ``_near_pairs`` at
    T = max(max R, density radius r), which holds every pair within T and
    every pair of a probe with none, so T sets the speed, never the result.
    """
    r_list = sorted(float(r) for r in r_list)
    for r in r_list:
        if not 0 <= r < math.inf:
            raise DomainError(f"multiplicity radius {r!r} is not a finite "
                              f"number >= 0")
    required = r_list[-1] if r_list else 0.0
    space = lattice.space
    # a probe equal to a lattice point passes as it is, even as floats on Z^d
    space.check_points([p for p, i in zip(probes, lattice._find(probes))
                        if i < 0])
    Q = space.coords(probes)
    far = np.flatnonzero(space.boundary_slacks(lattice.window, Q)
                         < required - TOL)
    if len(far):
        raise BorderError(
            f"probe {probes[far[0]]!r} is within {required} of the window "
            f"border")
    if not len(probes):
        cert = {"vacuous": True, "n_probes": 0, "seed": seed,
                "max_min_distance": None}
        profile = MultiplicityProfile(tuple((r, 0) for r in r_list))
        return cert, profile
    # per probe: the nearest lattice distance and the count within each R;
    # an empty lattice leaves every probe at distance inf
    near = np.full(len(Q), math.inf)
    counts = np.zeros((len(r_list), len(Q)), dtype=np.int64)
    for i, j, d in _near_pairs(lattice, Q,
                               max(required, lattice.density_radius_r)):
        np.minimum.at(near, i, d)
        for k, r in enumerate(r_list):
            counts[k] += np.bincount(i[d <= r + TOL], minlength=len(Q))
    cert = {
        "vacuous": False,
        "n_probes": len(probes),
        "seed": seed,
        "max_min_distance": max(0.0, float(near.max())),
    }
    return cert, MultiplicityProfile(
        tuple(zip(r_list, counts.max(axis=1).tolist())))


def _near_pairs(lattice, Q, reach):
    """Blocks (i, j, d) of a row i of the point array Q, a lattice point j
    and their distance d: every pair at most ``reach`` + 1e-9 apart, from
    the lattice's side of the candidate pairs at threshold ``reach``
    (``graphs._pairs``, built once and kept in ``lattice._sides``), and
    every pair of a row with no lattice point that near, by a full scan.
    Every row is scanned in full where ``reach``, which a lattice file may
    set to any float, is not a positive finite number, or exceeds the
    radius of a ball window, past which a group model's hop ball would
    outgrow the window.  An empty lattice yields nothing.
    """
    space, X = lattice.space, lattice.coords()
    if not len(X):
        return
    covered = np.zeros(len(Q), dtype=bool)
    limit = (lattice.window.radius if isinstance(lattice.window, BallWindow)
             else math.inf)
    if 0.0 < reach < math.inf and reach <= limit:
        if reach not in lattice._sides:
            lattice._sides[reach] = graphs._pairs(space, X, reach,
                                                  lambda: lattice._index)
        for i, j, d in lattice._sides[reach](Q):
            covered[i[d <= reach + TOL]] = True
            yield i, j, d
    for i in np.flatnonzero(~covered).tolist():
        yield (np.full(len(X), i), np.arange(len(X)),
               space.distances_from(Q[i], X))


# graphs imports this module's names, so this module imports graphs last
from . import graphs  # noqa: E402
