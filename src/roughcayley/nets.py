"""Quasi-lattices: greedy maximal separated nets, the explicit horocyclic
lattice in the upper half-plane, group balls, and empirical density /
multiplicity certification.

A quasi-lattice is a coarsely dense point set whose R-neighborhood counts
are uniformly bounded.  Construction is sequential (greedy selection is
order-dependent); verification is pure and can be parallelised over probes.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BorderError, DomainError, SchemaError, WindowTooSmallError
from .spaces import (
    BallWindow,
    BoxWindow,
    H2Window,
    HyperbolicPlaneModel,
    SpaceModel,
    TOL,
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

    Construction checks every point against the model once; library code
    trusts lattice points from then on.  ``coords()`` is the point list as
    the model's ``distances_from`` takes it (``space.coords``: an array of
    dtype ``space.coord_dtype``, for free groups the words as zero-padded
    rows of letters).  It is built once, on first use, like the point index
    and the read-only ``slacks()``, and gives the same distances as the
    list without a conversion per call.
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

    def __post_init__(self):
        for p in self.points:
            self.space.check_point(p)
        self._index = None
        self._coords = None
        self._slacks = None

    def index_of(self, p):
        if self._index is None:
            self._index = {q: i for i, q in enumerate(self.points)}
        return self._index[p]

    def contains_point(self, p):
        if self._index is None:
            self._index = {q: i for i, q in enumerate(self.points)}
        return p in self._index

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

    def nearest(self, x):
        """(index, distance) of the nearest lattice point, lexicographic ties."""
        d = self.space.distances_from(x, self.coords())
        dmin = d.min()
        tied = np.flatnonzero(d <= dmin + TOL)
        best = min(tied, key=lambda i: self.points[i])
        return int(best), float(d[best])

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
        return cls(
            space=space,
            window=window,
            points=[space.point_from_json(p) for p in obj["points"]],
            separation_delta=float(obj["separation_delta"]),
            density_radius_r=float(obj["density_radius_r"]),
            construction=obj["construction"],
            certificates=dict(obj.get("certificates", {})),
        )


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
# point indexes: the coordinate grid, and the greedy construction's test


class Grid:
    """Items bucketed by the coordinate cell of a point, cells of side
    ``cell``.  On a ``grid_metric`` model, ``near(p)`` holds every point
    within ``cell`` of p, and ``ring(key, k)`` only points more than
    (k - 1) * cell from the cell ``key``."""

    _ring_offsets = {}   # (dimension, k) -> cell offsets of ring k

    def __init__(self, cell):
        self.cell = cell
        self.cells = {}

    def key(self, p):
        return tuple(math.floor(v / self.cell) for v in p)

    def add(self, p, item):
        self.cells.setdefault(self.key(p), []).append(item)

    def near(self, p):
        """The items of p's cell and of every cell next to it."""
        cells = self.cells
        return [item for key in itertools.product(
                    *[range(k - 1, k + 2) for k in self.key(p)])
                for item in cells.get(key, ())]

    def ring(self, key, k):
        """The items of the cells at Chebyshev distance k from ``key``, in
        lexicographic order of offset."""
        offsets = Grid._ring_offsets.get((len(key), k))
        if offsets is None:
            offsets = Grid._ring_offsets[len(key), k] = [
                off for off in itertools.product(range(-k, k + 1),
                                                 repeat=len(key))
                if max(map(abs, off)) == k]
        cells = self.cells
        return [item for off in offsets
                for item in cells.get(tuple(map(operator.add, key, off)), ())]


def _near_test(space, delta, enumeration):
    """(add, has_near): ``add(p)`` keeps p, ``has_near(p)`` tells whether
    a kept point lies closer than delta to p, by a grid of side delta or by
    one vectorised scan of a point array that doubles when full, its rows
    as wide as the longest point (free-group words are zero-padded)."""
    dist = space._dist
    if space.grid_metric:
        grid = Grid(delta)
        return (lambda p: grid.add(p, p),
                lambda p: any(dist(p, q) < delta - TOL for q in grid.near(p)))
    width = max(map(len, enumeration), default=0)
    buf, n = np.zeros((16, width), dtype=space.coord_dtype), 0

    def add(p):
        nonlocal buf, n
        if n == len(buf):
            buf = np.concatenate([buf, np.zeros_like(buf)])
        buf[n, :len(p)] = p
        n += 1

    def has_near(p):
        return n > 0 and bool(
            (space.distances_from(p, buf[:n]) < delta - TOL).any())

    return add, has_near


# ---------------------------------------------------------------------------
# constructions


def greedy_net(space, window, delta, enumeration=None) -> QuasiLattice:
    """Greedy maximal delta-separated net over a window enumeration.

    Scans the enumeration in order and keeps every point at distance >= delta
    from all points kept so far.  Maximality makes the result delta-dense
    within the window, so the density radius certificate is delta itself.
    The default enumeration is ``space.enumerate_window(window)``
    (lexicographic); pass ``enumeration`` to use another deterministic order.
    """
    if delta <= 0:
        raise DomainError("separation delta must be positive")
    if enumeration is None:
        enumeration = space.enumerate_window(window)
    else:
        for p in enumeration:
            space.check_point(p)
    add, has_near = _near_test(space, delta, enumeration)
    chosen = []
    for p in enumeration:
        if not has_near(p):
            chosen.append(p)
            add(p)
    certificates = {"kind": "greedy", "delta": delta, "n_candidates": len(enumeration)}
    if not enumeration:
        certificates["vacuous"] = True
    return QuasiLattice(
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
    points = space.enumerate_window(window)
    return QuasiLattice(
        space=space,
        window=window,
        points=points,
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
    return QuasiLattice(
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
    """n seeded pseudo-random probes with boundary slack >= margin."""
    rng = np.random.default_rng(seed)
    if isinstance(window, H2Window):
        la_lo, la_hi = window.la_min + margin, window.la_max - margin
        if la_hi < la_lo:
            raise WindowTooSmallError("margin exceeds the log a range")
        probes = []
        while len(probes) < n:
            la = rng.uniform(la_lo, la_hi)
            a = math.exp(la)
            pad = a * math.sinh(margin)
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

    Probes must keep boundary slack >= max(r_list) so neighbor counts are not
    truncated by the window border.  Returns ``(certificate, profile)`` where
    the certificate records the worst probe-to-lattice distance.
    """
    r_list = sorted(float(r) for r in r_list)
    required = r_list[-1] if r_list else 0.0
    space = lattice.space
    for p in probes:
        if space.boundary_slack(lattice.window, p) < required - TOL:
            raise BorderError(
                f"probe {p!r} is within {required} of the window border"
            )
    if not probes:
        cert = {"vacuous": True, "n_probes": 0, "seed": seed,
                "max_min_distance": None}
        profile = MultiplicityProfile(tuple((r, 0) for r in r_list))
        return cert, profile
    worst = 0.0
    counts = [0] * len(r_list)
    coords = lattice.coords()
    for p in probes:
        d = space.distances_from(p, coords)
        worst = max(worst, float(d.min()) if len(d) else math.inf)
        for j, r in enumerate(r_list):
            counts[j] = max(counts[j], int((d <= r + TOL).sum()))
    cert = {
        "vacuous": False,
        "n_probes": len(probes),
        "seed": seed,
        "max_min_distance": worst,
    }
    return cert, MultiplicityProfile(tuple(zip(r_list, counts)))


def with_density_radius(lattice: QuasiLattice, r, note=None) -> QuasiLattice:
    """Copy of the lattice with a refined density radius certificate."""
    certificates = dict(lattice.certificates)
    if note:
        certificates["density_note"] = note
    return replace(lattice, density_radius_r=float(r), certificates=certificates)
