"""Refined inequality chains with the spread-tempered middle term.

Each chain is a triple  lhs <= mid <= rhs  in which the classical
inequality (lhs <= rhs) is interpolated by a middle term whose exponent is
tempered by alpha/beta with beta = alpha + gamma, gamma being the spread of
the data:

* kyfan             sum q(1-a) / sum qa
                      <= prod ((1-a_i)/a_i)^(q_i * alpha/beta)
                      <= prod ((1-a_i)/a_i)^q_i
* amgm              prod a_i^q_i <= prod a_i^(q_i * alpha/beta) <= sum q_i a_i
* chrystal          prod a^q + prod b^q
                      <= prod ((a+b)^(alpha/beta) / b^(alpha/beta - 1))^q
                      <= prod (a+b)^q
* holder_mccarthy   <Ax,x>^p <= (alpha/beta) <A^p x,x> <= <A^p x,x>

gamma is max pairwise |a_i - a_j| (three-way over a, b, and mixed pairs for
chrystal; eigenvalue spread for holder_mccarthy).  Every product is
accumulated in log-space and exponentiated once.

The hypothesis intervals depend on beta, which depends on the data; the
circularity is resolved post hoc: gamma comes from the sample, then every
membership clause is checked and reported as flags.  Evaluators always
return the report — infeasibility travels as flags, never as an exception —
so a falsifier can tell "violation inside the hypothesis region" from
"outside it".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, SpectrumDomainError
from .funclib import scalar_function
from .opcalc import SymmetricMatrix, UnitVector, apply_function, quadratic_form

N_CAP = 10_000
MEMBERSHIP_SLACK = 1e-12

CHAIN_NAMES = ("kyfan", "amgm", "chrystal", "holder_mccarthy")


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedSample:
    """Positive values a (optionally paired with b) and convex weights q.

    Weights must lie in (0, 1] and sum to 1 within 1e-12; the closed upper
    end admits the single-point sample q = (1,).
    """

    a: tuple
    q: tuple
    b: tuple | None = None

    def __post_init__(self):
        a = tuple(float(t) for t in self.a)
        q = tuple(float(t) for t in self.q)
        b = None if self.b is None else tuple(float(t) for t in self.b)
        n = len(a)
        if n < 1:
            raise ValueError("sample must contain at least one value")
        if n > N_CAP:
            raise ValueError(f"sample size {n} exceeds cap {N_CAP}")
        if len(q) != n or (b is not None and len(b) != n):
            raise ValueError("value and weight lists must have equal length")
        for lst in (a, q) if b is None else (a, b, q):
            if not all(math.isfinite(t) for t in lst):
                raise ValueError("sample entries must be finite")
        if not all(0.0 < w <= 1.0 for w in q):
            raise ValueError(f"weights must lie in (0, 1], got {q}")
        if abs(math.fsum(q) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {math.fsum(q)!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return len(self.a)


def gamma(sample: WeightedSample, inequality: str) -> float:
    """Max pairwise spread of the inequality's relevant value sets.

    chrystal takes the three-way max over |a_i-a_j|, |b_i-b_j|, |a_i-b_j|;
    for holder_mccarthy the values are read as the spectrum.
    """
    if inequality not in CHAIN_NAMES:
        raise ValueError(f"unknown inequality {inequality!r}")
    values = sample.a
    if inequality == "chrystal":
        if sample.b is None:
            raise ValueError("chrystal spread needs the paired values b")
        values = sample.a + sample.b
    return max(values) - min(values)


# ---------------------------------------------------------------------------
# Feasibility (post hoc)
# ---------------------------------------------------------------------------

def _within(values, lo: float, hi: float) -> bool:
    return all(lo - MEMBERSHIP_SLACK <= t <= hi + MEMBERSHIP_SLACK
               for t in values)


def feasible(sample: WeightedSample, alpha: float, v: float, inequality: str,
             p: float | None = None) -> dict:
    """Per-hypothesis flags for one inequality instance.

    gamma is computed from the sample first; every clause — parameter
    ranges, anchor range, and the beta-dependent membership interval — is
    then checked.  Nothing is rejected; the flags are the result.
    """
    g = gamma(sample, inequality)
    beta = alpha + g
    flags: dict = {}
    if inequality in ("kyfan", "amgm"):
        flags["alpha_in_range"] = alpha > 1.0
        flags["gamma_in_range"] = g <= 1.0 + MEMBERSHIP_SLACK
        if inequality == "kyfan":
            flags["anchor_in_range"] = 0.0 < v <= 0.5
            lo = v ** alpha / (v ** alpha + (1.0 - v) ** alpha) \
                if 0.0 < v < 1.0 else math.nan
        else:
            flags["anchor_in_range"] = 0.0 < v <= 1.0
            lo = v ** alpha if v > 0.0 else math.nan
        flags["values_in_interval"] = (
            not math.isnan(lo) and _within(sample.a, lo, v))
    elif inequality == "chrystal":
        flags["alpha_in_range"] = alpha > 0.0
        flags["gamma_in_range"] = g <= alpha + MEMBERSHIP_SLACK
        flags["anchor_in_range"] = v > 0.0
        expo = beta / alpha - 1.0
        arg = (1.0 + math.exp(v)) ** expo - 1.0 if alpha > 0.0 else math.nan
        lo = math.log(arg) if arg > 0.0 else -math.inf
        ok = not math.isnan(arg) and v > 0.0
        flags["values_in_interval"] = ok and _within(
            sample.a + (sample.b or ()), lo, v)
        ratios = [math.log(ai / bi) for ai, bi in zip(sample.a, sample.b or ())
                  if ai > 0.0 and bi > 0.0] if sample.b else []
        flags["logratios_in_interval"] = (
            ok and len(ratios) == sample.n and _within(ratios, lo, v))
    else:  # holder_mccarthy: sample.a is the spectrum
        flags["alpha_in_range"] = alpha > 0.0
        flags["gamma_in_range"] = g <= alpha + MEMBERSHIP_SLACK
        flags["anchor_in_range"] = v > 0.0
        flags["exponent_in_range"] = p is not None and p > 1.0
        if p is not None and p > 1.0 and alpha > 0.0 and v > 0.0:
            lo = v * (beta / alpha - 1.0) ** (1.0 / p)
            flags["spectrum_in_interval"] = _within(sample.a, lo, v)
        else:
            flags["spectrum_in_interval"] = False
    return flags


def _overall(inequality: str | None, flags: dict) -> bool:
    # chrystal's membership clause has two readings; the operative one is
    # the log-ratio clause (the substituted variables), so the raw-values
    # flag travels with the report without deciding feasibility
    skip = {"values_in_interval"} if inequality == "chrystal" else set()
    return all(ok for key, ok in flags.items() if key not in skip)


# ---------------------------------------------------------------------------
# Chain terms (shared closed forms; ops = math for doubles, mpmath for hp)
# ---------------------------------------------------------------------------

def kyfan_terms(a, q, alpha, g, ops=math):
    beta = alpha + g
    num = sum(qi * (1.0 - ai) for ai, qi in zip(a, q))
    den = sum(qi * ai for ai, qi in zip(a, q))
    lhs = num / den
    logsum = sum(qi * ops.log((1.0 - ai) / ai) for ai, qi in zip(a, q))
    return lhs, ops.exp((alpha / beta) * logsum), ops.exp(logsum)


def amgm_terms(a, q, alpha, g, ops=math):
    beta = alpha + g
    logsum = sum(qi * ops.log(ai) for ai, qi in zip(a, q))
    rhs = sum(qi * ai for ai, qi in zip(a, q))
    return ops.exp(logsum), ops.exp((alpha / beta) * logsum), rhs


def chrystal_terms(a, b, q, alpha, g, ops=math):
    beta = alpha + g
    r = alpha / beta
    log_a = sum(qi * ops.log(ai) for ai, qi in zip(a, q))
    log_b = sum(qi * ops.log(bi) for bi, qi in zip(b, q))
    log_ab = sum(qi * ops.log(ai + bi) for ai, bi, qi in zip(a, b, q))
    lhs = ops.exp(log_a) + ops.exp(log_b)
    mid = ops.exp(r * log_ab - (r - 1.0) * log_b)
    return lhs, mid, ops.exp(log_ab)


def hm_terms(qf, apx, alpha, g, p, ops=math):
    beta = alpha + g
    return qf ** p, (alpha / beta) * apx, apx


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    """One evaluated chain lhs <= mid <= rhs with its hypothesis flags."""

    inequality: str
    chain: tuple  # (lhs, mid, rhs)
    margins: tuple  # (mid - lhs, rhs - mid)
    gamma: float
    beta: float
    alpha: float
    v: float
    n: int
    feasible: bool
    flags: dict = field(default_factory=dict)
    p: float | None = None

    def to_json(self) -> dict:
        return {
            "inequality": self.inequality,
            "chain": {"lhs": self.chain[0], "mid": self.chain[1],
                      "rhs": self.chain[2]},
            "margins": {"mid_minus_lhs": self.margins[0],
                        "rhs_minus_mid": self.margins[1]},
            "gamma": self.gamma, "beta": self.beta, "alpha": self.alpha,
            "v": self.v, "n": self.n, "feasible": self.feasible,
            "flags": dict(self.flags), "p": self.p,
        }

    def csv_row(self) -> dict:
        return {
            "inequality": self.inequality, "n": self.n, "alpha": self.alpha,
            "gamma": self.gamma, "beta": self.beta,
            "lhs": self.chain[0], "mid": self.chain[1], "rhs": self.chain[2],
            "margin1": self.margins[0], "margin2": self.margins[1],
            "feasible": self.feasible,
        }


def _report(inequality, lhs, mid, rhs, g, alpha, v, n, flags, p=None):
    lhs, mid, rhs = float(lhs), float(mid), float(rhs)
    return ChainReport(inequality, (lhs, mid, rhs), (mid - lhs, rhs - mid),
                       float(g), float(alpha + g), float(alpha), float(v),
                       n, _overall(inequality, flags), flags, p)


def kyfan_chain(sample: WeightedSample, alpha: float, v: float) -> ChainReport:
    """Ratio-of-means vs tempered and classical products of (1-a)/a."""
    if not all(0.0 < t <= 0.5 for t in sample.a):
        raise DomainError(f"kyfan chain needs all values in (0, 1/2], got "
                          f"{sample.a}")
    g = gamma(sample, "kyfan")
    lhs, mid, rhs = kyfan_terms(sample.a, sample.q, alpha, g)
    flags = feasible(sample, alpha, v, "kyfan")
    return _report("kyfan", lhs, mid, rhs, g, alpha, v, sample.n, flags)


def amgm_chain(sample: WeightedSample, alpha: float, v: float) -> ChainReport:
    """Geometric mean vs tempered geometric mean vs arithmetic mean."""
    if not all(t > 0.0 for t in sample.a):
        raise DomainError(f"amgm chain needs positive values, got {sample.a}")
    g = gamma(sample, "amgm")
    lhs, mid, rhs = amgm_terms(sample.a, sample.q, alpha, g)
    flags = feasible(sample, alpha, v, "amgm")
    return _report("amgm", lhs, mid, rhs, g, alpha, v, sample.n, flags)


def chrystal_chain(sample: WeightedSample, alpha: float, v: float) -> ChainReport:
    """Sum of two geometric means vs tempered vs product of sums."""
    if sample.b is None:
        raise DomainError("chrystal chain needs the paired values b")
    if not all(t > 0.0 for t in sample.a + sample.b):
        raise DomainError(
            f"chrystal chain needs positive values, got a={sample.a}, "
            f"b={sample.b}")
    g = gamma(sample, "chrystal")
    lhs, mid, rhs = chrystal_terms(sample.a, sample.b, sample.q, alpha, g)
    flags = feasible(sample, alpha, v, "chrystal")
    return _report("chrystal", lhs, mid, rhs, g, alpha, v, sample.n, flags)


def hm_chain(A: SymmetricMatrix, x: UnitVector, p: float, alpha: float,
             v: float) -> ChainReport:
    """Power of the form <Ax,x> vs tempered and plain <A^p x,x>."""
    if not p > 1.0:
        raise ValueError(f"exponent p must exceed 1, got {p}")
    dec = A.decomposition()
    eigs = dec.eigenvalues
    bad = eigs[eigs <= 0.0]
    if bad.size:
        raise SpectrumDomainError(
            f"spectrum must be positive, found {bad.tolist()}",
            offending=tuple(float(t) for t in bad))
    g = float(eigs[-1] - eigs[0])
    qf = quadratic_form(A, x)
    qf = min(max(qf, float(eigs[0])), float(eigs[-1]))
    apx = quadratic_form(apply_function(scalar_function("power", p=p), A), x)
    lhs, mid, rhs = hm_terms(qf, apx, alpha, g, p)
    spec_sample = WeightedSample(tuple(float(t) for t in eigs),
                                 (1.0 / len(eigs),) * len(eigs))
    flags = feasible(spec_sample, alpha, v, "holder_mccarthy", p=p)
    return _report("holder_mccarthy", lhs, mid, rhs, g, alpha, v, A.dim,
                   flags, p=p)
