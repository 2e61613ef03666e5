"""Quasi-actions of group models on their quasi-lattices.

The action of a group element s on a lattice point x is
``phi(s * psi(x))`` where phi maps group points to nearest lattice points
(lexicographic tie-break) and psi embeds lattice points back into the
group.  The module certifies the quasi-action axioms with concrete worst
case defects, fits orbit-map quasi-isometry constants, and measures
quasi-conjugacy defects between two actions.

All defects are measured in the ambient group metric restricted to lattice
points.  Every sampled computation is reproducible from its recorded seed;
window escapes raise instead of clamping so defect statistics stay honest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, DomainError, OutOfWindowError
from .nets import QuasiLattice
from .spaces import (
    BallWindow,
    EuclideanModel,
    QiConstants,
    SpaceModel,
    TOL,
    ZdModel,
)


# ---------------------------------------------------------------------------
# nearest-lattice-point engine


class NearestIndex:
    """Fast nearest-lattice-point queries with lexicographic tie-break.

    A query point is checked on its first call, before its answer is
    remembered; distances to the trusted lattice points use the unchecked
    kernel.
    """

    def __init__(self, lattice: QuasiLattice):
        self.lattice = lattice
        self.space = lattice.space
        self._answers = {}
        self._grid = None
        self._cell = None
        if isinstance(self.space, (ZdModel, EuclideanModel)) and lattice.points:
            self._cell = max(lattice.density_radius_r, lattice.separation_delta, 1.0)
            self._grid = {}
            for p in lattice.points:
                key = tuple(int(math.floor(v / self._cell)) for v in p)
                self._grid.setdefault(key, []).append(p)
            keys = list(self._grid)
            dims = range(len(keys[0]))
            self._key_lo = tuple(min(k[i] for k in keys) for i in dims)
            self._key_hi = tuple(max(k[i] for k in keys) for i in dims)

    def __call__(self, q):
        # only in-window queries that passed the check are remembered
        hit = self._answers.get(q)
        if hit is not None:
            return hit
        self.space.check_point(q)
        if not self.space.window_contains(self.lattice.window, q):
            raise OutOfWindowError(f"{q!r} is outside the lattice window")
        if self.lattice.contains_point(q):
            self._answers[q] = q
            return q
        p = self._grid_query(q) if self._grid is not None else self._scan_query(q)
        self._answers[q] = p
        return p

    def _scan_query(self, q):
        idx, _ = self.lattice.nearest(q)
        return self.lattice.points[idx]

    def _grid_query(self, q):
        key = tuple(int(math.floor(v / self._cell)) for v in q)
        # rings past this cover no grid cell at all
        last_ring = max(
            max(k - lo, hi - k)
            for k, lo, hi in zip(key, self._key_lo, self._key_hi)
        )
        best = None
        best_d = math.inf
        ring = 0
        while True:
            # every candidate beyond this ring sits at distance >= (ring-1)*cell
            if best is not None and best_d <= (ring - 1) * self._cell + TOL:
                return best
            if ring > last_ring:
                if best is None:
                    raise DomainError("nearest-point query on an empty lattice")
                return best
            for cell in _ring_cells(key, ring):
                pts = self._grid.get(cell)
                if pts is None:
                    continue
                for p in pts:
                    d = self.space._dist(q, p)
                    if d < best_d - TOL or (d <= best_d + TOL and
                                            (best is None or p < best)):
                        best, best_d = p, d
            ring += 1


def _ring_cells(key, ring):
    if ring == 0:
        yield key
        return
    for offs in itertools.product(range(-ring, ring + 1), repeat=len(key)):
        if max(abs(o) for o in offs) == ring:
            yield tuple(k + o for k, o in zip(key, offs))


# ---------------------------------------------------------------------------
# the quasi-action


@dataclass
class QuasiAction:
    """s . x = phi(s * psi(x)) on the points of a quasi-lattice."""

    group_space: SpaceModel
    lattice: QuasiLattice
    phi: object
    psi: object
    description: str = ""

    def act(self, s, x):
        """Apply s to x; escapes of s * psi(x) from the window raise."""
        g = self.group_space.multiply(s, self.psi(x))
        return self.phi(g)

    def target_distance(self, x, y):
        return self.group_space.distance(x, y)


def nearest_point_maps(group_space: SpaceModel, lattice: QuasiLattice):
    """Coarse-inverse pair (phi, psi) for a lattice in the group's own model.

    phi sends a group point to its nearest lattice point (lexicographically
    smallest on ties); psi views a lattice point as a group element.  Both
    are total on the window and raise ``OutOfWindowError`` beyond it.
    """
    if lattice.space != group_space:
        raise DomainError("lattice must live in the group's own metric model")
    phi = NearestIndex(lattice)

    def psi(x):
        return x

    return phi, psi


def quasi_action(group_space, lattice, description="nearest-point") -> QuasiAction:
    phi, psi = nearest_point_maps(group_space, lattice)
    return QuasiAction(group_space, lattice, phi, psi, description)


# ---------------------------------------------------------------------------
# samples


def _ball(space, radius):
    return space.enumerate_window(BallWindow(radius))


def _pair_sample(space, radius, core_cap, n_extra, seed, ordered=True):
    """Deterministic pair sample: the full pair set of the largest word ball
    whose pair count fits ``core_cap``, plus seeded extra pairs from the full
    radius.  Samples at smaller radii are therefore nested in larger ones."""
    m_core = 0
    for m in range(radius, -1, -1):
        ball = _ball(space, m)
        if len(ball) ** 2 <= core_cap:
            m_core = m
            break
    core = _ball(space, m_core)
    if ordered:
        pairs = [(s, t) for s in core for t in core]
    else:
        pairs = list(itertools.combinations(core, 2))
    if radius > m_core and n_extra > 0:
        full = _ball(space, radius)
        rng = np.random.default_rng(seed)
        si = rng.integers(0, len(full), size=n_extra)
        ti = rng.integers(0, len(full), size=n_extra)
        for a, b in zip(si, ti):
            if not ordered and a == b:
                continue
            pairs.append((full[a], full[b]))
    return pairs


def _central_targets(lattice, margin, n_targets):
    """The n lattice points of largest boundary slack (ties: nearest the
    base point, then lexicographic); deterministic, so target sets shrink
    consistently as margins grow."""
    space = lattice.space
    base = space.base_point
    slacks = lattice.slacks()
    eligible = [i for i in range(len(lattice.points)) if slacks[i] >= margin - TOL]
    if not eligible:
        raise OutOfWindowError(
            f"no lattice point clears the target margin {margin:g}"
        )
    eligible.sort(key=lambda i: (space.distance(base, lattice.points[i]),
                                 lattice.points[i]))
    return [lattice.points[i] for i in eligible[:n_targets]]


# ---------------------------------------------------------------------------
# axiom certification


@dataclass(frozen=True)
class AxiomCertificate:
    """Worst-case quasi-action defects over a recorded sample."""

    per_s_qi_defect: float       # sup | d(s.x, s.y) - d(x, y) |
    identity_defect: float       # sup d(e.x, x)
    associativity_defect: float  # sup d(s.(t.x), (st).x)
    orbit_diameter: float        # sup diam((radius-1 ball) . x)
    properness: tuple            # ((R, witness word-norm bound), ...) per R
    sample: dict

    def __post_init__(self):
        for v in (self.per_s_qi_defect, self.identity_defect,
                  self.associativity_defect, self.orbit_diameter):
            if not math.isfinite(v):
                raise CertificationError("non-finite quasi-action defect")


def certify_axioms(qa: QuasiAction, group_radius=10, n_targets=8,
                   pair_core_cap=4000, n_extra_pairs=1000,
                   properness_radii=(2.0, 4.0, 6.0), properness_scan=None,
                   seed=0) -> AxiomCertificate:
    """Measure the four quasi-action axioms on nested deterministic samples.

    Properness is certified per probe point x and radius R by scanning a
    word ball and checking that {s : d(s.x, x) <= R} stays strictly inside
    the scanned ball; the recorded witness is the largest word norm seen.
    """
    space = qa.group_space
    d = qa.target_distance
    margin = 2.0 * group_radius + qa.lattice.density_radius_r + 2.0
    targets = _central_targets(qa.lattice, margin, n_targets)
    pairs = _pair_sample(space, group_radius, pair_core_cap, n_extra_pairs, seed)

    identity_defect = 0.0
    e = space.identity()
    for x in targets:
        identity_defect = max(identity_defect, d(qa.act(e, x), x))

    assoc = 0.0
    for s, t in pairs:
        st = space.multiply(s, t)
        for x in targets:
            assoc = max(assoc, d(qa.act(s, qa.act(t, x)), qa.act(st, x)))

    # axiom (i): each s acts as a quasi-isometry; additive defect at C = 1
    per_s = 0.0
    ball = _ball(space, group_radius)
    idx = np.unique(np.linspace(0, len(ball) - 1, 25).astype(int))
    singles = [ball[i] for i in idx]
    target_pairs = list(itertools.combinations(targets, 2))
    for s in singles:
        for x, y in target_pairs:
            per_s = max(per_s, abs(d(qa.act(s, x), qa.act(s, y)) - d(x, y)))

    # axiom (iv): bounded orbits of the radius-1 generator ball
    unit_ball = _ball(space, 1)
    orbit_diam = 0.0
    for x in targets:
        orbit = [qa.act(k, x) for k in unit_ball]
        for p, q in itertools.combinations(orbit, 2):
            orbit_diam = max(orbit_diam, d(p, q))

    # properness: witness sets over an exhaustive scan, nested in R
    r_list = sorted(properness_radii)
    if properness_scan is None:
        properness_scan = int(math.ceil(r_list[-1] + 2 * qa.lattice.density_radius_r + 2))
    scan = _ball(space, properness_scan)
    witnesses = []
    probes = targets[: min(3, len(targets))]
    for R in r_list:
        worst = 0.0
        for x in probes:
            for s in scan:
                if d(qa.act(s, x), x) <= R + TOL:
                    worst = max(worst, space.distance(e, s))
        if worst >= properness_scan - TOL:
            raise CertificationError(
                f"properness witness for R={R} reached the scan radius "
                f"{properness_scan}; enlarge the scan"
            )
        witnesses.append((R, worst))

    return AxiomCertificate(
        per_s_qi_defect=per_s,
        identity_defect=identity_defect,
        associativity_defect=assoc,
        orbit_diameter=orbit_diam,
        properness=tuple(witnesses),
        sample={
            "group_radius": group_radius,
            "n_pairs": len(pairs),
            "n_targets": len(targets),
            "properness_scan": properness_scan,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# orbit-map quasi-isometry constants


@dataclass(frozen=True)
class OrbitMapReport:
    per_radius: tuple  # of (radius, C, r, n_pairs)
    constants: QiConstants
    stable: bool
    message: str = ""


def _fit_qi(d_group, d_target):
    """Smallest (C, r): C from the least-squares slope of target against
    group distances (floored at 1 and symmetrised), then the minimal additive
    constant valid for every sampled pair."""
    dg = np.asarray(d_group, dtype=float)
    dx = np.asarray(d_target, dtype=float)
    denom = float((dg * dg).sum())
    sigma = float((dg * dx).sum()) / denom if denom > 0 else 1.0
    if sigma <= 0:
        sigma = 1.0 / max(dg.max(), 1.0)
    C = max(1.0, sigma, 1.0 / sigma)
    r = max(0.0, float((dx - C * dg).max()), float((dg / C - dx).max()))
    return C, r


def orbit_map_qi(qa: QuasiAction, x0=None, radii=(5, 10, 15),
                 pair_core_cap=10000, n_extra_pairs=3000, seed=0) -> OrbitMapReport:
    """Fit quasi-isometry constants of s -> s.x0 over nested radius samples.

    Constants are reported per radius; the report is flagged unstable when
    either constant grows more than 10% from the first to the last radius,
    signalling a map that is not a quasi-isometry.
    """
    space = qa.group_space
    if x0 is None:
        x0 = qa.phi(space.identity())
    per_radius = []
    for m in sorted(radii):
        pairs = _pair_sample(space, m, pair_core_cap, n_extra_pairs, seed,
                             ordered=False)
        orbit = {}
        dg, dx = [], []
        for s, t in pairs:
            if s == t:
                continue
            for g in (s, t):
                if g not in orbit:
                    orbit[g] = qa.act(g, x0)
            dg.append(space.distance(s, t))
            dx.append(qa.target_distance(orbit[s], orbit[t]))
        C, r = _fit_qi(dg, dx)
        per_radius.append((m, C, r, len(dg)))
    first = per_radius[0]
    last = per_radius[-1]
    grow_c = last[1] > 1.10 * first[1] + TOL
    grow_r = last[2] > 1.10 * first[2] + 0.25
    stable = not (grow_c or grow_r)
    constants = QiConstants(
        C=last[1],
        r=last[2],
        sample_size=last[3],
        certified_over=(
            f"orbit map of {space.model_id} at radius {last[0]} (seed {seed})"
        ),
    )
    message = "" if stable else (
        "orbit-map constants grew more than 10% across radii: "
        + ", ".join(f"m={m}: C={c:.3f}, r={r:.3f}" for m, c, r, _ in per_radius)
    )
    return OrbitMapReport(tuple(per_radius), constants, stable, message)


# ---------------------------------------------------------------------------
# quasi-conjugacy


def quasi_conjugacy_defect(qa1: QuasiAction, qa2: QuasiAction, phi12=None,
                           group_radius=8, n_targets=12,
                           pair_core_cap=4000, n_extra=1000, seed=0) -> float:
    """Worst d(phi12(s.x), s.phi12(x)) over a nested deterministic sample.

    ``phi12`` defaults to the nearest-point map through the common group:
    a vertex of the first lattice is read as a group element and sent to
    its nearest point in the second lattice.
    """
    if qa1.group_space != qa2.group_space:
        raise DomainError("quasi-conjugacy needs a common acting group")
    space = qa1.group_space
    if phi12 is None:
        def phi12(x):
            return qa2.phi(qa1.psi(x))

    margin = 2.0 * group_radius + qa1.lattice.density_radius_r \
        + qa2.lattice.density_radius_r + 2.0
    targets = _central_targets(qa1.lattice, margin, n_targets)
    elements = _ball(space, group_radius)
    if len(elements) * len(targets) > pair_core_cap + n_extra:
        core = []
        for m in range(group_radius, -1, -1):
            core = _ball(space, m)
            if len(core) * len(targets) <= pair_core_cap:
                break
        rng = np.random.default_rng(seed)
        extra_idx = rng.integers(0, len(elements), size=n_extra)
        elements = core + [elements[i] for i in extra_idx]
    defect = 0.0
    for s in elements:
        for x in targets:
            lhs = phi12(qa1.act(s, x))
            rhs = qa2.act(s, phi12(x))
            defect = max(defect, qa2.target_distance(lhs, rhs))
    return defect
