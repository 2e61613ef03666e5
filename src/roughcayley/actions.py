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
from the sample (word balls by ``_ball``, pairs as arrays S and T) through
``QuasiAction.act_many`` and the model's batch kernels ``_mul_many`` and
``_dist_many`` to the defect.  Every map of points (psi, phi, a
caller's ``phi12``) goes through one helper, ``_map_rows``: it calls the
map once per distinct row, in order of first occurrence, and checks each
result against the model before the next call.  The one exception is a
``NearestIndex`` on the group's own model, whose answers are lattice
points: it checks only that each distinct row lies in the lattice window,
then answers them all with one ``QuasiLattice.nearest_many`` batch on the
edge builders' candidate pairs.  Rows of S and the products are the
library's own and trusted.  A point the caller hands in (``x0`` of
``orbit_map_qi``) is checked against the model.  The public ``act`` checks
s and psi(x) on every call.  One ``act_many`` call gives the values the same
loop over ``act`` gives, and raises ``OutOfWindowError`` for its first
escaping row in row order; a certifier that makes several calls raises for
the first escape of the call that fails first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, DomainError, OutOfWindowError
from .nets import QuasiLattice
from .spaces import (BallWindow, QiConstants, SpaceModel, TOL, _distinct_rows,
                     _width)


# ---------------------------------------------------------------------------
# point arrays


def _map_rows(space, f, Q):
    """f once per distinct row of the point array Q, in order of first
    occurrence, each result checked as a point of space before the next
    call, spread back over every row; a ``NearestIndex`` on space answers
    with trusted lattice points, every row in one unchecked batch."""
    if isinstance(f, NearestIndex) and f.space == space:
        return f.many(Q)
    rows, inverse = _distinct_rows(Q)
    answers = []
    for q in space._points(Q[rows]):
        answers.append(f(q))
        space.check_point(answers[-1])
    return space.coords(answers)[inverse]


def _outer(A, B):
    """Rows (a, b) for every a of A and b of B, a-major: the rows the loops
    ``for a in A: for b in B`` visit."""
    i, j = np.divmod(np.arange(len(A) * len(B)), len(B))
    return A[i], B[j]


def _act_outer(qa, S, X):
    """s.x for every row s of S and x of X, in the rows of ``_outer(S, X)``;
    each distinct s acts once on each x."""
    rows, inverse = _distinct_rows(S)
    moved = qa.act_many(*_outer(S[rows], X))
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
# nearest-lattice-point map


class NearestIndex:
    """phi: the nearest lattice point of a group point, lexicographically
    smallest on ties, from ``QuasiLattice.nearest_many``.

    ``many`` answers the rows of a point array, which the library computed
    and trusts: it checks only that each distinct row lies in the lattice
    window, in order of first occurrence, so the first escaping row raises
    ``OutOfWindowError``, then answers them all in one batch.  The call
    checks a caller's point against the model first.
    """

    def __init__(self, lattice: QuasiLattice):
        self.lattice = lattice
        self.space = lattice.space

    def __call__(self, q):
        self.space.check_point(q)
        return next(iter(self.space._points(self.many([q]))))

    def many(self, points):
        """The answers to a point list or array, as a point array."""
        space, lattice = self.space, self.lattice
        Q = space.coords(points)
        rows, inverse = _distinct_rows(Q)
        for q in space._points(Q[rows]):
            if not space.window_contains(lattice.window, q):
                raise OutOfWindowError(f"{q!r} is outside the lattice window")
        index, _ = lattice.nearest_many(Q[rows])
        answers = [lattice.points[i] for i in index.tolist()]
        return space.coords(answers)[inverse]


# ---------------------------------------------------------------------------
# the quasi-action


@dataclass
class QuasiAction:
    """s . x = phi(s * psi(x)) on the points of a quasi-lattice.

    ``act`` applies one element to one point and checks s and psi(x).
    ``act_many`` applies the rows of S to the rows of X (a single row
    broadcasts): it trusts the rows of S and the products, calls psi once
    per distinct row of X, and checks each result of psi; a
    ``NearestIndex`` phi answers every product in one batch, and any other
    phi is called once per distinct product and its results are checked.
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
        G = _map_rows(space, self.psi, X)
        return _map_rows(space, self.phi, space._mul_many(S, G))


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


def _core_radius(space, radius, fits):
    """The largest m <= radius whose word ball size passes ``fits``, else 0;
    the sizes are the model's closed-form ``ball_sizes``."""
    space.check_window(BallWindow(radius))
    sizes = space.ball_sizes(radius)
    return next((m for m in range(radius, -1, -1) if fits(sizes[m])), 0)


def _pair_sample(space, radius, core_cap, n_extra, seed, ordered=True):
    """Deterministic pair sample, as point arrays S, T of its pairs: the
    full pair set of the largest word ball whose pair count fits
    ``core_cap``, plus seeded extra pairs from the full radius.  Samples
    at smaller radii are therefore nested in larger ones.  An unordered
    sample pairs distinct elements only: its core pairs are combinations,
    and an extra draw of one index twice is skipped."""
    m_core = _core_radius(space, radius, lambda n: n * n <= core_cap)
    core = space._ball(m_core)
    n = len(core)
    i, j = np.divmod(np.arange(n * n), n) if ordered else np.triu_indices(n, 1)
    S, T = core[i], core[j]
    if radius > m_core and n_extra > 0:
        full = space._ball(radius)
        rng = np.random.default_rng(seed)
        si = rng.integers(0, len(full), size=n_extra)
        ti = rng.integers(0, len(full), size=n_extra)
        keep = ordered | (si != ti)
        # a free group's core ball is narrower than its full ball
        S = np.concatenate([_width(S, full.shape[1]), full[si[keep]]])
        T = np.concatenate([_width(T, full.shape[1]), full[ti[keep]]])
    return S, T


def _check_sample(group_radius, n_targets):
    """A certificate over no group element or no target would read like a
    perfect one."""
    if group_radius < 0:
        raise DomainError(f"group radius must be >= 0, got {group_radius!r}")
    if n_targets < 1:
        raise DomainError(f"need at least one target, got {n_targets!r}")


def _central_targets(lattice, margin, n_targets):
    """The rows of ``lattice.coords()`` of the n lattice points of slack at
    least the margin nearest the base point, lexicographic on ties;
    deterministic, so target sets shrink consistently as margins grow."""
    space, X = lattice.space, lattice.coords()
    eligible = np.flatnonzero(lattice.slacks() >= margin - TOL)
    if not len(eligible):
        raise OutOfWindowError(
            f"no lattice point clears the target margin {margin:g}"
        )
    near = space._dist_many(space.coords([space.base_point]), X[eligible])
    order = np.lexsort((lattice._lex_ranks[eligible], near))
    return X[eligible[order[:n_targets]]]


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
    An empty ``properness_radii``, a negative ``group_radius``,
    ``n_targets`` < 1 or a default ``properness_scan`` max R + 2r + 2 that
    is not finite (as for a density radius r of 1e308) is a
    ``DomainError``.  Targets keep slack
    max(2 group_radius, properness_scan) + r + 2, else ``OutOfWindowError``.
    """
    _check_sample(group_radius, n_targets)
    space = qa.group_space
    dist = space._dist_many
    r_list = sorted(properness_radii)
    if not r_list:
        raise DomainError("properness needs at least one radius")
    r = qa.lattice.density_radius_r
    if properness_scan is None:
        scan = r_list[-1] + 2 * r + 2
        if not math.isfinite(scan):
            raise DomainError(f"properness scan radius max R + 2r + 2 = "
                              f"{scan!r} is not finite")
        properness_scan = int(math.ceil(scan))
    margin = max(2.0 * group_radius, properness_scan) + r + 2.0
    X = _central_targets(qa.lattice, margin, n_targets)
    S, T = _pair_sample(space, group_radius, pair_core_cap, n_extra_pairs, seed)
    E = space.coords([space.identity()])

    identity_defect = _sup(dist(qa.act_many(E, X), X))

    # d(s.(t.x), (st).x) over pairs (s, t) and targets x, pair-major
    Sx, _ = _outer(S, X)
    assoc = _sup(dist(qa.act_many(Sx, _act_outer(qa, T, X)),
                      _act_outer(qa, space._mul_many(S, T), X)))

    # axiom (i): each s acts as a quasi-isometry; additive defect at C = 1
    ball = space._ball(group_radius)
    # 25 evenly spread elements; the indices do not decrease, so fromkeys
    # keeps them sorted (np.unique would import numpy.ma, 30 ms)
    idx = dict.fromkeys(np.linspace(0, len(ball) - 1, 25).astype(int).tolist())
    singles = ball[list(idx)]
    Sx, Xs = _outer(singles, X)
    moved = qa.act_many(Sx, Xs)
    p, q = _block_pairs(len(singles), len(X))
    per_s = _sup(np.abs(dist(moved[p], moved[q]) - dist(Xs[p], Xs[q])))

    # axiom (iv): bounded orbits of the radius-1 generator ball
    unit_ball = space._ball(1)
    Xk, K = _outer(X, unit_ball)
    orbits = qa.act_many(K, Xk)
    p, q = _block_pairs(len(X), len(unit_ball))
    orbit_diam = _sup(dist(orbits[p], orbits[q]))

    # properness: witness sets over an exhaustive scan, nested in R
    scan = space._ball(properness_scan)
    probes = X[:3]
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
            "n_pairs": len(S),
            "n_targets": len(X),
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
        X0 = _map_rows(space, qa.phi, space.coords([space.identity()]))
    else:
        space.check_point(x0)
        X0 = space.coords([x0])
    per_radius = []
    for m in sorted(radii):
        S, T = _pair_sample(space, m, pair_core_cap, n_extra_pairs, seed,
                            ordered=False)
        if not len(S):
            raise DomainError(f"no pair of distinct elements sampled at "
                              f"radius {m}")
        # each element once, in order of first appearance in the pairs
        P = np.stack([S, T], axis=1).reshape(-1, S.shape[1])
        elements, inverse = _distinct_rows(P)
        G = P[elements]
        orbit = qa.act_many(G, X0)
        i, j = inverse[0::2], inverse[1::2]
        C, r = _fit_qi(space._dist_many(G[i], G[j]),
                       space._dist_many(orbit[i], orbit[j]))
        per_radius.append((m, C, r, len(S)))
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
    a vertex of the first lattice is read as a group element by the first
    psi and sent to its nearest point in the second lattice by the second
    phi, each mapping the rows in batch as ``act_many`` does.  A caller's
    ``phi12`` is called once per distinct point it is applied to, and each
    result is checked.  A negative ``group_radius`` or ``n_targets`` < 1
    is a ``DomainError``.
    """
    _check_sample(group_radius, n_targets)
    if qa1.group_space != qa2.group_space:
        raise DomainError("quasi-conjugacy needs a common acting group")
    space = qa1.group_space
    steps = (qa1.psi, qa2.phi) if phi12 is None else (phi12,)

    def map12(Q):
        for f in steps:
            Q = _map_rows(space, f, Q)
        return Q

    margin = 2.0 * group_radius + qa1.lattice.density_radius_r \
        + qa2.lattice.density_radius_r + 2.0
    X = _central_targets(qa1.lattice, margin, n_targets)
    space.check_window(BallWindow(group_radius))
    elements = space._ball(group_radius)
    if len(elements) * len(X) > pair_core_cap + n_extra:
        core = space._ball(_core_radius(
            space, group_radius, lambda n: n * len(X) <= pair_core_cap))
        rng = np.random.default_rng(seed)
        extra_idx = rng.integers(0, len(elements), size=n_extra)
        elements = np.concatenate([_width(core, elements.shape[1]),
                                   elements[extra_idx]])
    # rows (s, x) element-major; phi12 once per distinct point
    lhs = map12(_act_outer(qa1, elements, X))
    rhs = _act_outer(qa2, elements, map12(X))
    return _sup(space._dist_many(lhs, rhs))
