"""Ball-growth series, growth classification, and growth comparison.

``ball_sizes`` counts |N_m(x0)| for group models (word balls, the same
about every x0, counted by ``space.ball_sizes``) and rough graphs (hop
balls).  ``classify_growth`` applies a fixed, documented
decision rule on the tail m >= 4: the centred log-log fit
log V(m) ~ d log(m + 1/2) + c whose residual RMS is below 0.1 yields a
polynomial verdict with the fitted degree d, an estimate of the
Bass-Guivarc'h degree; otherwise a semi-log fit log V(m) ~ r m + c with
slope above 0.05 and RMS below 0.2 yields an exponential verdict; anything
else is inconclusive.  Intermediate growth is never claimed.
``compare_growth`` searches the integer grid alpha, beta in 1..8 and
gamma in 0..8 for a two-sided sandwich a(m) <= alpha b(beta m + gamma),
b(m) <= alpha a(beta m + gamma).

The shift by 1/2 removes the low bias that positive lower-order terms put
on a plain log V ~ d log m fit over a short window.  The word-ball count
of Z^d is the Ehrhart polynomial of the cross-polytope, whose roots all
have real part -1/2; expanded about m + 1/2 it has no (m + 1/2)^(d-1)
term, e.g. V(m) = 2 (m + 1/2)^2 + 1/2 for Z^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BorderError, DomainError, SchemaError
from .graphs import RoughGraph
from .spaces import SpaceModel, csr_layers

MIN_LEN = 8          # shortest series ``classify_growth`` classifies
ALPHA_MAX = BETA_MAX = GAMMA_MAX = 8   # the sandwich constants searched


@dataclass(frozen=True)
class GrowthSeries:
    """|N_m(x0)| for m = 0..m_max; non-decreasing, values[0] = 1."""

    source: str
    base_point: object
    values: tuple

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise DomainError("growth series must start at |N_0| = 1")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise DomainError("growth series must be non-decreasing")

    def __len__(self):
        return len(self.values)

    def to_csv(self) -> str:
        rows = ["m,count"]
        rows += [f"{m},{v}" for m, v in enumerate(self.values)]
        return "\n".join(rows) + "\n"

    @classmethod
    def from_csv(cls, text, source="csv") -> "GrowthSeries":
        values = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("m,"):
                continue
            try:
                m_str, v_str = line.split(",")[:2]
                values[int(m_str)] = int(v_str)
            except ValueError:
                raise SchemaError(f"bad growth CSV row {line!r}")
        if sorted(values) != list(range(len(values))):
            raise SchemaError("growth CSV must cover m = 0..m_max")
        return cls(source, None, tuple(values[m] for m in range(len(values))))


@dataclass(frozen=True)
class GrowthVerdict:
    """Growth type of a series with its estimated degree or rate.

    ``ci`` is 1.96 times the least-squares standard error of the fit.  On a
    deterministic ball-count series that measures only the scatter of the
    points about the fitted line, not the bias left in the estimate, so the
    true value can lie outside estimate +- ci: for Z^3 balls up to m = 15
    the degree reads 2.960 with ci 0.0084, an error of 0.040.
    """

    kind: str                # polynomial | exponential | inconclusive
    estimate: float | None   # degree or rate
    ci: float | None         # 1.96 * standard error of the fit
    diagnostics: dict


@dataclass(frozen=True)
class ComparisonVerdict:
    equivalent: bool
    constants: tuple | None  # (alpha, beta, gamma)
    detail: dict


# ---------------------------------------------------------------------------
# ball counting


def ball_sizes(source, x0=None, m_max=10) -> GrowthSeries:
    if isinstance(source, SpaceModel):
        return _group_ball_sizes(source, x0, m_max)
    if isinstance(source, RoughGraph):
        return _graph_ball_sizes(source, x0, m_max)
    raise DomainError(f"cannot count balls of {source!r}")


def _group_ball_sizes(space, x0, m_max) -> GrowthSeries:
    if not (space.is_discrete and space.is_group):
        raise DomainError("group ball counts need a discrete group model")
    if x0 is None:
        x0 = space.identity()
    space.check_point(x0)
    return GrowthSeries(space.model_id, x0, space.ball_sizes(m_max))


def _graph_ball_sizes(graph, x0, m_max) -> GrowthSeries:
    depths = graph.border_depths()
    if x0 is None:
        x0 = graph.deepest_vertex(depths)
    else:
        x0, = graph.vertex_ids([x0])
    safe = int(depths[x0])
    if safe < m_max:
        raise BorderError(
            f"ball of radius {m_max} is truncated by the window border; "
            f"maximal safe radius from this base vertex is {safe}",
            max_safe=safe,
        )
    layers = csr_layers(*graph.csr(), [x0])
    values = [len(next(layers))]
    for _ in range(m_max):
        values.append(values[-1] + len(next(layers, ())))
    return GrowthSeries(f"graph:{graph.space.model_id}", graph.point(x0),
                        tuple(values))


# ---------------------------------------------------------------------------
# classification


def _least_squares(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    n = len(x)
    sxx = float(((x - x.mean()) ** 2).sum())
    if n > 2 and sxx > 0:
        se = math.sqrt(float((resid ** 2).sum()) / (n - 2) / sxx)
    else:
        se = 0.0
    return float(slope), float(intercept), rms, se


def classify_growth(series) -> GrowthVerdict:
    """Fixed decision rule on the tail m >= 4 of the series.

    The polynomial test fits log V(m) against log(m + 1/2), so the slope
    estimates the Bass-Guivarc'h degree; the 1/2 centres the fit on the
    common real part of the cross-polytope's Ehrhart roots (see the module
    docstring).  Accepts a ``GrowthSeries`` or any positive value sequence
    (the rule is scale-invariant, so rescaled series classify identically).
    """
    values = series.values if isinstance(series, GrowthSeries) else tuple(series)
    if len(values) < MIN_LEN:
        return GrowthVerdict("inconclusive", None, None,
                             {"reason": f"series shorter than {MIN_LEN}"})
    ms = np.arange(4, len(values))
    vs = np.array(values[4:], dtype=float)
    logv = np.log(vs)
    slope_p, _, rms_p, se_p = _least_squares(np.log(ms + 0.5), logv)
    diagnostics = {"loglog_slope": slope_p, "loglog_rms": rms_p}
    if rms_p < 0.1:
        return GrowthVerdict("polynomial", slope_p, 1.96 * se_p, diagnostics)
    slope_e, _, rms_e, se_e = _least_squares(ms, logv)
    diagnostics.update({"semilog_slope": slope_e, "semilog_rms": rms_e})
    if slope_e > 0.05 and rms_e < 0.2:
        return GrowthVerdict("exponential", slope_e, 1.96 * se_e, diagnostics)
    return GrowthVerdict("inconclusive", None, None, diagnostics)


# ---------------------------------------------------------------------------
# sandwich comparison


def compare_growth(a: GrowthSeries, b: GrowthSeries) -> ComparisonVerdict:
    """Search for sandwich constants making the two series equivalent.

    Each direction is checked on the overlapping range; a constant triple
    only counts when both directions cover at least ``min_cover`` arguments,
    half the shorter series, so degenerate overlaps cannot fake an
    equivalence.
    """
    va, vb = a.values, b.values
    la, lb = len(va), len(vb)
    min_cover = (min(la, lb) - 1) // 2 + 1
    for alpha in range(1, ALPHA_MAX + 1):
        for beta in range(1, BETA_MAX + 1):
            for gamma in range(0, GAMMA_MAX + 1):
                m1 = min((lb - 1 - gamma) // beta, la - 1)
                m2 = min((la - 1 - gamma) // beta, lb - 1)
                if m1 + 1 < min_cover or m2 + 1 < min_cover:
                    continue
                ok = all(va[m] <= alpha * vb[beta * m + gamma]
                         for m in range(m1 + 1)) and \
                     all(vb[m] <= alpha * va[beta * m + gamma]
                         for m in range(m2 + 1))
                if ok:
                    return ComparisonVerdict(
                        True, (alpha, beta, gamma),
                        {"covered_a": m1 + 1, "covered_b": m2 + 1,
                         "min_cover": min_cover})
    return ComparisonVerdict(False, None, {"min_cover": min_cover})
