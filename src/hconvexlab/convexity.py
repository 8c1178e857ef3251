"""Certify conditional (h-)convexity at an anchor point and compute M_K(h).

The central object is the gap

    F(u, lam) = h(lam) f(u) + h(1-lam) f(v) - f(lam*u + (1-lam)*v)

for u in the restricted interval [g(v), v] and lam in [0, 1].  Conditional
h-convexity at v means F >= 0 on that rectangle.  ``certify`` scans a dense
grid, then shrinks a golden-section-style bracket around the grid arg-min;
a minimum below the violation tolerance is re-evaluated in extended
precision before the verdict is pronounced, so float noise never becomes a
"Violated".

``jcoeff`` estimates the Jensen coefficient  M_K(h) = inf_{t in K} h(t)/t,
approaching open endpoints along a geometric sequence down to offset 1e-9
and reporting whether the infimum lives at an open boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularQuotient
from .funclib import (
    GateInterval, Interval, ScalarFunction, evaluate, evaluate_array,
    gate_interval,
)

VIOLATION_TOLERANCE = 1e-10
DEFAULT_GRID = (256, 256)
# Requests past these caps are refused before anything is allocated; each is
# 64x its default (cf. opcalc.DIM_CAP).  A certify cell or jcoeff sample is a
# few float64 array entries; a lambda_profile point is one jensen_verify call.
GRID_CELL_CAP = 2 ** 22  # certify's n_u * n_lam; default 256 * 256 = 65,536
JCOEFF_SAMPLE_CAP = 2 ** 18  # jcoeff's samples; default 4,096
SWEEP_GRID_CAP = 2 ** 14  # falsify.lambda_profile's grid; default 257
REFINE_ROUNDS = 40
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden bracket shrink factor


# ---------------------------------------------------------------------------
# Gap evaluation
# ---------------------------------------------------------------------------

def gap(f: ScalarFunction, h: ScalarFunction, v: float, u: float,
        lam: float, ev=evaluate, num=float) -> float:
    """Signed convexity gap F(u, lam); nonnegative iff the inequality holds.
    ``ev`` and ``num`` are the arithmetic: doubles, or highprec's 60 digits."""
    v, u, lam = num(v), num(u), num(lam)
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda={lam!r} outside [0, 1]")
    w = lam * u + (1 - lam) * v
    # float drift can push the combination a hair outside [u, v]
    lo, hi = (u, v) if u <= v else (v, u)
    w = min(max(w, lo), hi)
    return ev(h, lam) * ev(f, u) + ev(h, 1 - lam) * ev(f, v) - ev(f, w)


def _gap_grid(f: ScalarFunction, h: ScalarFunction, v: float,
              us: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Gap on the outer product us x lams; shape (len(us), len(lams))."""
    fu = evaluate_array(f, us)
    fv = evaluate(f, v)
    hl = evaluate_array(h, lams)
    hml = evaluate_array(h, 1.0 - lams)
    w = lams[None, :] * us[:, None] + (1.0 - lams[None, :]) * v
    lo = np.minimum(us, v)[:, None]
    hi = np.maximum(us, v)[:, None]
    fw = evaluate_array(f, np.clip(w, lo, hi))
    return hl[None, :] * fu[:, None] + hml[None, :] * fv - fw


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Outcome of one grid certification of conditional h-convexity at v."""

    min_value: float
    arg_min: tuple  # (u, lam)
    grid: tuple  # (n_u, n_lam)
    refined: bool
    verdict: str  # Certified | Violated | Degenerate
    gate: GateInterval
    float_min_value: float  # raw double-precision minimum, pre-recheck
    violation_tolerance: float = VIOLATION_TOLERANCE

    def to_json(self) -> dict:
        return {
            "min_value": self.min_value,
            "arg_min": {"u": self.arg_min[0], "lambda": self.arg_min[1]},
            "grid": {"n_u": self.grid[0], "n_lambda": self.grid[1]},
            "refined": self.refined,
            "verdict": self.verdict,
            "gate": self.gate.to_json(),
            "float_min_value": self.float_min_value,
            "violation_tolerance": self.violation_tolerance,
        }


def _shrink_step(fn, lo, hi, best_x, best_y):
    """One golden-section-style shrink; returns new bracket and incumbent."""
    a = hi - _INVPHI * (hi - lo)
    b = lo + _INVPHI * (hi - lo)
    ya, yb = fn(a), fn(b)
    if ya <= yb:
        hi = b
        if ya < best_y:
            best_x, best_y = a, ya
    else:
        lo = a
        if yb < best_y:
            best_x, best_y = b, yb
    return lo, hi, best_x, best_y


def _refine(f, h, v, u0, lam0, du, dlam, u_bounds, gap_fn=gap):
    """Alternating per-coordinate golden shrink around a grid arg-min."""
    u_lo = max(u0 - du, u_bounds[0])
    u_hi = min(u0 + du, u_bounds[1])
    l_lo = max(lam0 - dlam, 0.0)
    l_hi = min(lam0 + dlam, 1.0)
    u, lam = u0, lam0
    best = gap_fn(f, h, v, u, lam)
    for _ in range(REFINE_ROUNDS):
        if u_hi > u_lo:
            u_lo, u_hi, u, best = _shrink_step(
                lambda x: gap_fn(f, h, v, x, lam), u_lo, u_hi, u, best)
        if l_hi > l_lo:
            l_lo, l_hi, lam, best = _shrink_step(
                lambda x: gap_fn(f, h, v, u, x), l_lo, l_hi, lam, best)
    return best, u, lam


def certify(f: ScalarFunction, g: ScalarFunction, h: ScalarFunction,
            v: float, grid: tuple = DEFAULT_GRID, refine: bool = True,
            ambient: Interval | None = None,
            violation_tolerance: float = VIOLATION_TOLERANCE,
            hp_recheck: bool = True) -> Certificate:
    """Grid-certify the gap F >= 0 over [g(v), v] x [0, 1].

    The lambda grid includes both endpoints (the defining inequality is
    stated on the closed interval).  A sub-tolerance grid minimum yields
    Certified; a candidate violation is recomputed in extended precision
    and the verdict follows the corrected value.  A degenerate gate
    (g(v) = v) certifies along the single line u = v.
    """
    n_u, n_lam = int(grid[0]), int(grid[1])
    if n_u < 2 or n_lam < 2:
        raise ValueError(f"grid must be at least 2x2, got {grid}")
    if n_u * n_lam > GRID_CELL_CAP:
        raise ValueError(f"grid {n_u}x{n_lam} has {n_u * n_lam} cells, "
                         f"above the cap {GRID_CELL_CAP}")
    gi = gate_interval(g, v, ambient if ambient is not None else f.domain)
    lo, hi = gi.interval.lo, gi.interval.hi

    us = np.array([v]) if gi.degenerate else np.linspace(lo, hi, n_u)
    lams = np.linspace(0.0, 1.0, n_lam)
    values = _gap_grid(f, h, v, us, lams)
    i, j = np.unravel_index(int(np.argmin(values)), values.shape)
    best = float(values[i, j])
    u_star, lam_star = float(us[i]), float(lams[j])

    did_refine = False
    if refine:
        du = 0.0 if gi.degenerate else (hi - lo) / (n_u - 1)
        dlam = 1.0 / (n_lam - 1)
        best, u_star, lam_star = _refine(
            f, h, v, u_star, lam_star, du, dlam, (lo, hi))
        did_refine = True

    float_min = best
    min_value = best
    if hp_recheck and best < -violation_tolerance:
        from .highprec import hp_gap
        min_value = float(hp_gap(f, h, v, u_star, lam_star))

    if min_value < -violation_tolerance:
        verdict = "Violated"
    elif gi.degenerate:
        verdict = "Degenerate"
    else:
        verdict = "Certified"
    return Certificate(min_value, (u_star, lam_star), (n_u, n_lam),
                       did_refine, verdict, gi, float_min,
                       violation_tolerance)


# ---------------------------------------------------------------------------
# Jensen coefficient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JensenCoefficient:
    """Infimum estimate of h(t)/t over K; None attained_at means boundary."""

    value: float
    attained_at: float | None
    boundary_limit: bool

    def to_json(self) -> dict:
        return {"value": self.value, "attained_at": self.attained_at,
                "boundary_limit": self.boundary_limit}


_ENDPOINT_OFFSET = 1e-9
_UNBOUNDED_PROBE = 1e9


def _jcoeff_points(K: Interval, samples: int) -> np.ndarray:
    """Sample grid honoring endpoint openness; never contains exactly 0."""
    lo = K.lo if math.isfinite(K.lo) else -_UNBOUNDED_PROBE
    hi = K.hi if math.isfinite(K.hi) else _UNBOUNDED_PROBE
    # a zero endpoint acts open: the quotient is singular at the point itself
    lo_open = K.lo_open or not math.isfinite(K.lo) or K.lo == 0.0
    hi_open = K.hi_open or not math.isfinite(K.hi) or K.hi == 0.0
    pts = [np.linspace(lo, hi, samples)]
    span = hi - lo
    tail = np.geomspace(_ENDPOINT_OFFSET, max(span / 4.0, _ENDPOINT_OFFSET), 48)
    if lo_open:
        pts.append(lo + tail)
    if hi_open:
        pts.append(hi - tail)
    out = np.unique(np.concatenate(pts))
    mask = K.contains_array(out) & (out != 0.0)
    if lo_open:
        mask &= out > lo
    if hi_open:
        mask &= out < hi
    return out[mask]


def jcoeff(h: ScalarFunction, K: Interval, samples: int = 4096) -> JensenCoefficient:
    """Estimate M_K(h) = inf over K of h(t)/t.

    Open endpoints (and the singular point t = 0 when it is an endpoint of
    K) are approached along a geometric sequence down to offset 1e-9.
    ``boundary_limit`` is set when the quotient is still strictly
    decreasing into an open endpoint, i.e. the infimum is a boundary limit
    rather than an attained minimum.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    if samples > JCOEFF_SAMPLE_CAP:
        raise ValueError(f"samples {samples} exceeds cap {JCOEFF_SAMPLE_CAP}")
    if not (K.issubset(h.domain) or K == h.domain):
        raise DomainError(f"K={K} not contained in h.domain={h.domain}")
    if K.contains(0.0):
        interior = K.lo < 0.0 < K.hi
        at_top = K.hi == 0.0
        if (interior or at_top) and evaluate(h, 0.0) != 0.0:
            raise SingularQuotient(
                f"h(0)={evaluate(h, 0.0)!r} != 0 with 0 in {K}: "
                "h(t)/t is unbounded below")

    pts = _jcoeff_points(K, samples)
    if pts.size == 0:
        raise DomainError(f"no admissible sample points in K={K}")
    quot = evaluate_array(h, pts) / pts
    order = int(np.argmin(quot))
    value = float(quot[order])
    t_star = float(pts[order])

    # refine inside the neighbor bracket
    q = lambda t: evaluate(h, t) / t
    b_lo = float(pts[order - 1]) if order > 0 else t_star
    b_hi = float(pts[order + 1]) if order + 1 < pts.size else t_star
    best_x, best_y = t_star, value
    for _ in range(REFINE_ROUNDS):
        if b_hi <= b_lo:
            break
        b_lo, b_hi, best_x, best_y = _shrink_step(q, b_lo, b_hi, best_x, best_y)
    value, t_star = best_y, best_x

    # boundary detection: strictly decreasing run into an open/singular end
    k = min(8, pts.size)
    hi_open_eff = K.hi_open or not math.isfinite(K.hi) or K.hi == 0.0
    lo_open_eff = K.lo_open or not math.isfinite(K.lo) or K.lo == 0.0
    boundary = False
    if hi_open_eff and order == pts.size - 1 and pts.size >= 2:
        tail = quot[-k:]
        boundary = bool(np.all(np.diff(tail) < 0.0))
    if lo_open_eff and order == 0 and pts.size >= 2:
        head = quot[:k]
        boundary = bool(np.all(np.diff(head) > 0.0))
    return JensenCoefficient(value, None if boundary else t_star, boundary)
