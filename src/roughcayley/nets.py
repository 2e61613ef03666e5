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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BorderError, DomainError, WindowTooSmallError
from .serialize import (
    point_from_json,
    point_to_json,
    space_from_json,
    space_to_json,
    window_from_json,
    window_to_json,
)
from .spaces import (
    BallWindow,
    BoxWindow,
    EuclideanModel,
    H2Window,
    HeisenbergModel,
    HyperbolicPlaneModel,
    SpaceModel,
    TOL,
    ZdModel,
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
    dtype ``space.coord_dtype``, or an object array of words for free
    groups).  It is built once, on first use, like the point index, and
    gives the same distances as the list without a conversion per call.
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
        return np.array(
            [self.space.boundary_slack(self.window, p) for p in self.points]
        )

    def nearest(self, x):
        """(index, distance) of the nearest lattice point, lexicographic ties."""
        d = self.space.distances_from(x, self.coords())
        dmin = d.min()
        tied = np.flatnonzero(d <= dmin + TOL)
        best = min(tied, key=lambda i: self.points[i])
        return int(best), float(d[best])

    def to_json(self) -> dict:
        return {
            "space": space_to_json(self.space),
            "window": window_to_json(self.window),
            "construction": self.construction,
            "separation_delta": self.separation_delta,
            "density_radius_r": self.density_radius_r,
            "points": [point_to_json(self.space, p) for p in self.points],
            "certificates": self.certificates,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuasiLattice":
        space = space_from_json(obj["space"])
        return cls(
            space=space,
            window=window_from_json(obj["window"]),
            points=[point_from_json(space, p) for p in obj["points"]],
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
# incremental nearest-point indexes used by the greedy construction


class _GridNear:
    """Uniform bucket grid; valid when coordinate gaps lower-bound distance."""

    def __init__(self, space, cell):
        self.space = space
        self.cell = cell
        self.buckets = {}

    def _key(self, p):
        return tuple(int(math.floor(v / self.cell)) for v in p)

    def add(self, p):
        self.buckets.setdefault(self._key(p), []).append(p)

    def has_within(self, p, radius):
        key = self._key(p)
        reach = int(math.ceil(radius / self.cell - TOL))
        for cell in _cells_around(key, reach):
            for q in self.buckets.get(cell, ()):
                if self.space._dist(p, q) < radius - TOL:
                    return True
        return False


def _cells_around(key, reach):
    ranges = [range(k - reach, k + reach + 1) for k in key]
    yield from itertools.product(*ranges)


class _ArrayNear:
    """Vectorised scan with ``distances_from`` over the accepted points,
    kept in a coordinate array of the model's ``coord_dtype`` that doubles
    when full."""

    def __init__(self, space):
        self.space = space
        self.n = 0
        self.buf = None

    def add(self, p):
        if self.buf is None:
            self.buf = np.empty((16, len(p)), dtype=self.space.coord_dtype)
        elif self.n == len(self.buf):
            self.buf = np.concatenate([self.buf, np.empty_like(self.buf)])
        self.buf[self.n] = p
        self.n += 1

    def has_within(self, p, radius):
        if not self.n:
            return False
        d = self.space.distances_from(p, self.buf[:self.n])
        return bool((d < radius - TOL).any())


class _ListNear:
    """Plain scan with the model's distance (word-metric models)."""

    def __init__(self, space):
        self.space = space
        self.points = []

    def add(self, p):
        self.points.append(p)

    def has_within(self, p, radius):
        return any(self.space._dist(p, q) < radius - TOL for q in self.points)


def _near_index(space, delta):
    if isinstance(space, (ZdModel, EuclideanModel)):
        return _GridNear(space, delta)
    if isinstance(space, (HyperbolicPlaneModel, HeisenbergModel)):
        return _ArrayNear(space)
    return _ListNear(space)


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
    index = _near_index(space, delta)
    chosen = []
    for p in enumeration:
        if not index.has_within(p, delta):
            chosen.append(p)
            index.add(p)
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
