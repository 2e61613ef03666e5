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

Batches and checks.  The certifiers work on point arrays (``space.coords``)
through ``QuasiAction.act_many`` and the model's batch kernels
``_mul_many`` and ``_dist_many``.  ``act_many`` calls psi once per distinct
row of X, then phi once per distinct product row, and checks each result
before it enters an array; ``NearestIndex`` checks a query the first time
it sees it, and its answers are lattice points, which are trusted.  Rows
of S are trusted group elements and are not checked.  A point the caller
hands in (``x0`` of ``orbit_map_qi``) and each result of a caller's
``phi12`` are checked the same way.  The public ``act`` checks s and
psi(x) on every call.  One ``act_many`` call gives the values the same
loop over ``act`` gives, and raises ``OutOfWindowError`` for its first
escaping row in row order; a certifier that makes several calls raises for
the first escape of the call that fails first.
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
# point arrays


def _distinct_rows(Q):
    """The distinct rows of a point array as points, in first-occurrence
    order, and the position of each row's point among them."""
    seen = {}
    inverse = [seen.setdefault(q, len(seen)) for q in map(tuple, Q.tolist())]
    return list(seen), np.array(inverse, dtype=np.intp)


def _map_rows(space, f, Q):
    """f applied to the distinct rows of the point array Q, in order of
    first occurrence, spread back over every row."""
    rows, inverse = _distinct_rows(Q)
    return space.coords([f(q) for q in rows])[inverse]


def _checked(space, f):
    """f with each result checked as a point of space, before ``coords``
    casts it; a ``NearestIndex`` on space answers with lattice points, which
    are trusted, and is returned as it is."""
    if isinstance(f, NearestIndex) and f.space == space:
        return f

    def g(x):
        y = f(x)
        space.check_point(y)
        return y

    return g


def _outer(A, B):
    """Rows (a, b) for every a of A and b of B, a-major: the rows the loops
    ``for a in A: for b in B`` visit."""
    i, j = np.divmod(np.arange(len(A) * len(B)), len(B))
    return A[i], B[j]


def _act_outer(qa, S, X):
    """s.x for every row s of S and x of X, in the rows of ``_outer(S, X)``;
    each distinct s acts once on each x."""
    rows, inverse = _distinct_rows(S)
    moved = qa.act_many(*_outer(qa.group_space.coords(rows), X))
    return moved[(inverse[:, None] * len(X) + np.arange(len(X))).ravel()]


def _block_pairs(n_blocks, k):
    """Row indices (p, q), p < q, of every pair inside each of n_blocks
    consecutive blocks of k rows."""
    i, j = np.triu_indices(k, 1)
    base = np.repeat(np.arange(n_blocks) * k, len(i))
    return base + np.tile(i, n_blocks), base + np.tile(j, n_blocks)


def _sup(values):
    """Largest value, 0.0 for none: the running max the defects start at 0."""
    return float(values.max()) if len(values) else 0.0


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
    """s . x = phi(s * psi(x)) on the points of a quasi-lattice.

    ``act`` applies one element to one point and checks s and psi(x).
    ``act_many`` applies the rows of S to the rows of X (a single row
    broadcasts): it trusts the rows of S, calls psi once per distinct row
    of X and phi once per distinct product, and checks each result of psi
    and of a phi that is not a ``NearestIndex``.
    """

    group_space: SpaceModel
    lattice: QuasiLattice
    phi: object
    psi: object
    description: str = ""

    def act(self, s, x):
        """Apply s to x; escapes of s * psi(x) from the window raise."""
        g = self.group_space.multiply(s, self.psi(x))
        return self.phi(g)

    def act_many(self, S, X):
        """Row-wise ``act`` on point arrays; the first escaping row raises."""
        space = self.group_space
        G = _map_rows(space, _checked(space, self.psi), X)
        return _map_rows(space, _checked(space, self.phi),
                         space._mul_many(S, G))


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
    eligible.sort(key=lambda i: (space._dist(base, lattice.points[i]),
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
    An empty ``properness_radii`` is a ``DomainError``.
    """
    space = qa.group_space
    dist = space._dist_many
    r_list = sorted(properness_radii)
    if not r_list:
        raise DomainError("properness needs at least one radius")
    margin = 2.0 * group_radius + qa.lattice.density_radius_r + 2.0
    targets = _central_targets(qa.lattice, margin, n_targets)
    pairs = _pair_sample(space, group_radius, pair_core_cap, n_extra_pairs, seed)
    X = space.coords(targets)
    E = space.coords([space.identity()])

    identity_defect = _sup(dist(qa.act_many(E, X), X))

    # d(s.(t.x), (st).x) over pairs (s, t) and targets x, pair-major
    S = space.coords([s for s, _ in pairs])
    T = space.coords([t for _, t in pairs])
    Sx, _ = _outer(S, X)
    assoc = _sup(dist(qa.act_many(Sx, _act_outer(qa, T, X)),
                      _act_outer(qa, space._mul_many(S, T), X)))

    # axiom (i): each s acts as a quasi-isometry; additive defect at C = 1
    ball = _ball(space, group_radius)
    # 25 evenly spread elements; the indices do not decrease, so fromkeys
    # keeps them sorted (np.unique would import numpy.ma, 30 ms)
    idx = dict.fromkeys(np.linspace(0, len(ball) - 1, 25).astype(int).tolist())
    singles = space.coords([ball[i] for i in idx])
    Sx, Xs = _outer(singles, X)
    moved = qa.act_many(Sx, Xs)
    p, q = _block_pairs(len(singles), len(targets))
    per_s = _sup(np.abs(dist(moved[p], moved[q]) - dist(Xs[p], Xs[q])))

    # axiom (iv): bounded orbits of the radius-1 generator ball
    unit_ball = space.coords(_ball(space, 1))
    Xk, K = _outer(X, unit_ball)
    orbits = qa.act_many(K, Xk)
    p, q = _block_pairs(len(targets), len(unit_ball))
    orbit_diam = _sup(dist(orbits[p], orbits[q]))

    # properness: witness sets over an exhaustive scan, nested in R
    if properness_scan is None:
        properness_scan = int(math.ceil(r_list[-1] + 2 * qa.lattice.density_radius_r + 2))
    scan = space.coords(_ball(space, properness_scan))
    probes = X[: min(3, len(targets))]
    Xs, Ss = _outer(probes, scan)
    displacement = dist(qa.act_many(Ss, Xs), Xs)
    norms = dist(E, Ss)
    witnesses = []
    for R in r_list:
        worst = _sup(norms[displacement <= R + TOL])
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
    signalling a map that is not a quasi-isometry.  No radius, or a radius
    whose sample holds no pair of distinct elements, is a ``DomainError``.
    """
    space = qa.group_space
    if not radii:
        raise DomainError("orbit-map constants need at least one radius")
    if x0 is None:
        x0 = _checked(space, qa.phi)(space.identity())
    else:
        space.check_point(x0)
    X0 = space.coords([x0])
    per_radius = []
    for m in sorted(radii):
        pairs = [(s, t) for s, t in _pair_sample(
            space, m, pair_core_cap, n_extra_pairs, seed, ordered=False)
            if s != t]
        if not pairs:
            raise DomainError(f"no pair of distinct elements sampled at "
                              f"radius {m}")
        # each element once, in order of first appearance in the pairs
        where = {}
        for pair in pairs:
            for g in pair:
                where.setdefault(g, len(where))
        G = space.coords(list(where))
        orbit = qa.act_many(G, X0)
        i = np.array([where[s] for s, _ in pairs])
        j = np.array([where[t] for _, t in pairs])
        C, r = _fit_qi(space._dist_many(G[i], G[j]),
                       space._dist_many(orbit[i], orbit[j]))
        per_radius.append((m, C, r, len(pairs)))
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
    its nearest point in the second lattice.  It is called once per
    distinct point it is applied to, and each result is checked.
    """
    if qa1.group_space != qa2.group_space:
        raise DomainError("quasi-conjugacy needs a common acting group")
    space = qa1.group_space
    if phi12 is None:
        def phi12(x):
            return qa2.phi(qa1.psi(x))
    phi12 = _checked(space, phi12)

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
    # rows (s, x) element-major; phi12 once per distinct point
    elements = space.coords(elements)
    X = space.coords(targets)
    lhs = _map_rows(space, phi12, _act_outer(qa1, elements, X))
    rhs = _act_outer(qa2, elements, _map_rows(space, phi12, X))
    return _sup(space._dist_many(lhs, rhs))
