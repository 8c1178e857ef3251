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
from typing import Callable

import numpy as np

from .errors import DomainError, SpectrumDomainError
from .funclib import (AS_PYTHON, COLUMN_ERRORS, TRIPLES, Interval,
                      MathColumns, Refusals, _one_row, interval)
from .opcalc import Spectra, SymmetricMatrix, UnitVector

N_CAP = 10_000
MEMBERSHIP_SLACK = 1e-12


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
        _one_row(lambda refuse: sample_checks(
            np.array([a if b is None else a + b]), np.array([q]), refuse))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return len(self.a)


def sample_checks(values: np.ndarray, q: np.ndarray, refuse,
                  own=True) -> None:
    """WeightedSample's checks over rows of values (a, or a and b side by
    side) and weights q, refusing rows with its errors: entries finite,
    weights in (0, 1] (those of the mask ``own``; the rest pad as 0.0),
    weights summing to 1 within 1e-12, as math.fsum sums them."""
    refuse(~(np.isfinite(values).all(-1) & np.isfinite(q).all(-1)),
           lambda j: ValueError("sample entries must be finite"))
    own = np.broadcast_to(own, q.shape)
    refuse(~(((q > 0.0) & (q <= 1.0)) | ~own).all(-1), lambda j: ValueError(
        f"weights must lie in (0, 1], got {tuple(q[j][own[j]].tolist())}"))
    # w weights in [0, 1] summed in doubles, in any order, lie within
    # gamma_{w-1} s of their sum s (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., 4.2), and fsum's correctly rounded sum
    # within u s of s: about w u s apart, with u = 2^-53.  A row whose
    # double sum lies farther than twice that from 1 +- 1e-12 is decided
    # by it; only the rows closer call fsum.
    with np.errstate(all="ignore"):
        total = q.sum(-1)
        off, slack = np.abs(total - 1.0), q.shape[-1] * 2.0 ** -52 * total
        wrong = off - slack > 1e-12
        near = refuse.ok & ~wrong & ~(off + slack < 1e-12)
    for k in np.flatnonzero(near).tolist():
        wrong[k] = abs(math.fsum(q[k].tolist()) - 1.0) > 1e-12
    refuse(wrong, lambda j: ValueError(f"weights must sum to 1, got "
                                       f"{math.fsum(q[j].tolist())!r}"))


# ---------------------------------------------------------------------------
# Feasibility (post hoc)
# ---------------------------------------------------------------------------

def flag_rows(name: str, low, high, g, alpha, v, p=None, pairs=None,
              gate=None) -> dict:
    """The hypothesis flags of rows of chain instances, as bool arrays.

    Each row is given by the smallest and largest of its values (``low``,
    ``high``), its spread g, alpha, v and p (None: no exponent); ``pairs``
    holds the (rows, n) arrays a and b of a chain whose clauses read them.
    The gate value g(v) of the rows the chain gates is gate_value's, over
    their columns in one pass (TripleRule.gate_columns), or row by row
    where that raises; ``gate`` may hold it already, as a draw computes it
    for a gate that reads alpha alone (kyfan, amgm).
    """
    rule, chain = TRIPLES[name], CHAINS[name]
    with np.errstate(all="ignore"):  # inf and nan pass quietly, as in Python
        flags = {"alpha_in_range": alpha > rule.alpha_floor,
                 "gamma_in_range":
                     g <= rule.gamma_max(alpha) + MEMBERSHIP_SLACK,
                 "anchor_in_range": rule.anchors.contains_array(v)}
        if rule.needs_p:
            flags["exponent_in_range"] = np.zeros(v.shape, dtype=bool) \
                if p is None else p > 1.0
        gated = np.logical_and.reduce(
            [np.ones(v.shape, dtype=bool)]
            + [flags[k] for k in chain.gated_by])
        if gate is None:  # v = nan, outside every gate's domain, reads nan
            cols = (np.where(gated, v, math.nan), alpha, alpha + g, p)
            try:
                gate = rule.gate_columns(*cols)
            except COLUMN_ERRORS:
                gate = np.array([rule.gate_value(*args) for args in zip(*(
                    [None] * v.size if t is None else t.tolist()
                    for t in cols))])
        lo = np.where(gated, gate, math.nan)
        flags[chain.member] = _within(low, high, lo, v)
    if chain.clauses is not None:
        flags.update(chain.clauses(*pairs, lo, v))
    return flags


def _within(low, high, lo, hi):
    """Each row's values, from their smallest ``low`` and largest ``high``,
    inside [lo, hi] up to MEMBERSHIP_SLACK."""
    return (low >= lo - MEMBERSHIP_SLACK) & (high <= hi + MEMBERSHIP_SLACK)


def _overall(inequality: str | None, flags: dict) -> bool:
    advisory = CHAINS[inequality].advisory if inequality else ()
    return all(ok for key, ok in flags.items() if key not in advisory)


# ---------------------------------------------------------------------------
# Chain terms (shared closed forms; ops = math for doubles, mpmath for hp)
# ---------------------------------------------------------------------------

def _lsum(terms):
    """The terms added left to right from 0.0.  Floats, mpmath numbers and
    numpy columns all add alike here, where the builtin sum compensates
    float sums from Python 3.12 on."""
    total = 0.0
    for t in terms:
        total = total + t
    return total


def kyfan_terms(a, q, alpha, g, ops=math):
    beta = alpha + g
    num = _lsum(qi * (1.0 - ai) for ai, qi in zip(a, q))
    den = _lsum(qi * ai for ai, qi in zip(a, q))
    lhs = num / den
    logsum = _lsum(qi * ops.log((1.0 - ai) / ai) for ai, qi in zip(a, q))
    return lhs, ops.exp((alpha / beta) * logsum), ops.exp(logsum)


def amgm_terms(a, q, alpha, g, ops=math):
    beta = alpha + g
    logsum = _lsum(qi * ops.log(ai) for ai, qi in zip(a, q))
    rhs = _lsum(qi * ai for ai, qi in zip(a, q))
    return ops.exp(logsum), ops.exp((alpha / beta) * logsum), rhs


def chrystal_terms(a, b, q, alpha, g, ops=math):
    beta = alpha + g
    r = alpha / beta
    log_a = _lsum(qi * ops.log(ai) for ai, qi in zip(a, q))
    log_b = _lsum(qi * ops.log(bi) for bi, qi in zip(b, q))
    log_ab = _lsum(qi * ops.log(ai + bi) for ai, bi, qi in zip(a, b, q))
    lhs = ops.exp(log_a) + ops.exp(log_b)
    mid = ops.exp(r * log_ab - (r - 1.0) * log_b)
    return lhs, mid, ops.exp(log_ab)


def hm_terms(qf, apx, p, alpha, g, ops=math):
    beta = alpha + g
    return qf ** p, (alpha / beta) * apx, apx


# ---------------------------------------------------------------------------
# The chain table; each chain's hypothesis is funclib.TRIPLES[name]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainRule:
    """How one chain is evaluated and how its data meet its hypothesis."""

    terms: Callable  # (*inputs, alpha, gamma, ops=math) -> (lhs, mid, rhs)
    row_keys: tuple  # what a refine row must give
    domain: Interval | None = None  # where a sample's values must lie
    paired: bool = False  # the values are a and the b paired with them
    spectral: bool = False  # the values are the spectrum of a matrix
    member: str = "values_in_interval"  # flag of the values in [g(v), v]
    gated_by: tuple = ()  # flags g(v) needs; nan (no membership) otherwise
    # (a, b, g(v), v) over rows of (rows, n) arrays -> more flag arrays
    clauses: Callable | None = None
    advisory: tuple = ()  # flags that travel without deciding feasibility

    def inputs(self, a, b, q):
        """(inputs of terms, values whose spread is gamma) of a sample."""
        return ((a, b, q), a + b) if self.paired else ((a, q), a)


def _logratio_clause(a, b, lo, v) -> dict:
    """Each row's log(a_i/b_i) inside [g(v), v]; False unless every a_i and
    b_i is positive."""
    positive = (a > 0.0) & (b > 0.0)
    with np.errstate(over="ignore", under="ignore"):  # inf and 0, as a/b
        ratios = np.divide(a, b, out=np.ones_like(a), where=positive)
    ratios = np.reshape(list(map(math.log, ratios.ravel().tolist())),
                        ratios.shape)
    return {"logratios_in_interval": positive.all(1) & _within(
        ratios.min(1), ratios.max(1), lo, v)}


_POSITIVE = interval(0.0, math.inf, lo_open=True)
CHAINS = {
    "kyfan": ChainRule(kyfan_terms, ("a", "q"),
                       interval(0.0, 0.5, lo_open=True)),
    "amgm": ChainRule(amgm_terms, ("a", "q"), _POSITIVE),
    # the membership clause has two readings; the operative one is the
    # log-ratio clause (the substituted variables)
    "chrystal": ChainRule(
        chrystal_terms, ("a", "b", "q"), _POSITIVE, paired=True,
        gated_by=("alpha_in_range", "anchor_in_range"),
        clauses=_logratio_clause, advisory=("values_in_interval",)),
    "holder_mccarthy": ChainRule(
        hm_terms, ("matrix", "x"), spectral=True,
        member="spectrum_in_interval",
        gated_by=("alpha_in_range", "anchor_in_range", "exponent_in_range")),
}
CHAIN_NAMES = tuple(CHAINS)


def chain_rule(inequality: str) -> ChainRule:
    if inequality not in CHAINS:
        raise ValueError(f"unknown inequality {inequality!r}")
    return CHAINS[inequality]


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

    @classmethod
    def of(cls, inequality: str, out: dict, k: int, alpha, v, n: int,
           p: float | None = None) -> "ChainReport":
        """Row k of chain_rows' columns ``out``."""
        return cls(inequality, tuple(float(out[key][k]) for key in
                                     ("lhs", "mid", "rhs")),
                   (float(out["m1"][k]), float(out["m2"][k])),
                   float(out["gamma"][k]), float(out["beta"][k]),
                   float(alpha), float(v), n, bool(out["feasible"][k]),
                   {key: bool(t[k]) for key, t in out["flags"].items()}, p)

    def csv_row(self) -> dict:
        return {
            "inequality": self.inequality, "n": self.n, "alpha": self.alpha,
            "gamma": self.gamma, "beta": self.beta,
            "lhs": self.chain[0], "mid": self.chain[1], "rhs": self.chain[2],
            "margin1": self.margins[0], "margin2": self.margins[1],
            "feasible": self.feasible,
        }


def _one(name: str, c: dict, n: int, alpha, v, p=None) -> ChainReport:
    """The ChainReport of chain_rows on a block of one row, the columns
    ``c`` with alpha and v; it raises what refused the row."""
    c = dict(c, alpha=np.array([float(alpha)]), v=np.array([float(v)]))
    out = _one_row(lambda refuse: chain_rows(name, c, refuse))
    return ChainReport.of(name, out, 0, alpha, v, n, p)


def sample_columns(name: str, sample: WeightedSample) -> dict:
    """The a and q (and b) columns and size n of chain_rows for one sample;
    DomainError where the chain pairs its values with b and there is
    none."""
    chain = CHAINS[name]
    if chain.paired and sample.b is None:
        raise DomainError(f"{name} chain needs the paired values b")
    c = {"a": np.array([sample.a]), "q": np.array([sample.q]),
         "n": np.array([sample.n])}
    return dict(c, b=np.array([sample.b])) if chain.paired else c


def kyfan_chain(sample: WeightedSample, alpha: float, v: float) -> ChainReport:
    """Ratio-of-means vs tempered and classical products of (1-a)/a."""
    return _one("kyfan", sample_columns("kyfan", sample), sample.n, alpha, v)


def amgm_chain(sample: WeightedSample, alpha: float, v: float) -> ChainReport:
    """Geometric mean vs tempered geometric mean vs arithmetic mean."""
    return _one("amgm", sample_columns("amgm", sample), sample.n, alpha, v)


def chrystal_chain(sample: WeightedSample, alpha: float, v: float) -> ChainReport:
    """Sum of two geometric means vs tempered vs product of sums."""
    return _one("chrystal", sample_columns("chrystal", sample), sample.n,
                alpha, v)


def hm_chain(A: SymmetricMatrix, x: UnitVector, p: float, alpha: float,
             v: float) -> ChainReport:
    """Power of the form <Ax,x> vs tempered and plain <A^p x,x>."""
    return _one("holder_mccarthy", {"p": np.array([float(p)]),
                                    "spectra": Spectra.of(A, x)},
                A.dim, alpha, v, float(p))


# ---------------------------------------------------------------------------
# The chain kernel
# ---------------------------------------------------------------------------

def chain_rows(name: str, c: dict, refuse: Refusals) -> dict:
    """The chain ``name`` over rows, as arrays over them: lhs, mid, rhs,
    m1 = mid - lhs, m2 = rhs - mid, gamma, beta, feasible and ``flags``.

    ``c`` holds alpha, v, each row's size n, and a, q (and b) as (rows,
    width) arrays padded past n (q with 0.0, a and b with their first
    entry), or p and ``spectra`` (a Spectra) for holder_mccarthy; gv, the
    gate value g(v) a draw computed, may ride along.  Rows are refused
    through ``refuse`` with the errors of the chain's checks, in their
    order.  The terms map math's log and exp over columns and sum left to
    right, so each row has the bits of its evaluation on its own; when the
    arithmetic raises, it runs again row by row in Python floats over each
    row's own entries, which raise where Python does.
    """
    chain = CHAINS[name]
    with np.errstate(all="ignore"):
        if chain.spectral:
            s, p = c["spectra"], c["p"]
            values = s.eigs
            refuse(~(p > 1.0), lambda j: ValueError(
                f"exponent p must exceed 1, got {float(p[j])}"))
            refuse((values <= 0.0).any(1), lambda j: SpectrumDomainError(
                f"spectrum must be positive, found "
                f"{_nonpositive(values[j, :s.sizes[j]])}",
                offending=_nonpositive(values[j, :s.sizes[j]])))
            c = {key: t for key, t in c.items() if key != "spectra"}
            c["qf"], c["apx"] = s.qf, s.expectation(_powers(values, p),
                                                    refuse)
            lo, hi = s.lo, s.hi
        else:
            values = np.hstack((c["a"], c["b"])) if chain.paired else c["a"]
            own = np.arange(c["q"].shape[1]) < c["n"][:, None]
            sample_checks(values, c["q"], refuse, own)
            lo, hi = values.min(1), values.max(1)
            own = np.hstack((own, own)) if chain.paired else own
            refuse(~(chain.domain.contains_array(lo)
                     & chain.domain.contains_array(hi)),
                   lambda j: DomainError(
                       f"{name} chain needs values in {chain.domain}, got "
                       f"{tuple(values[j][own[j]].tolist())}"))
        c = {**c, "g": hi - lo}
        out = {"gamma": c["g"], "beta": c["alpha"] + c["g"]}
    size, ks = lo.size, np.flatnonzero(refuse.ok) if refuse.errors else None
    if ks is not None:
        c, lo, hi = {key: t[ks] for key, t in c.items()}, lo[ks], hi[ks]
    try:
        parts = [(ks, _arithmetic(name, c, lo, hi, python=False))]
    except (ValueError, ArithmeticError):
        parts, ks = [], np.arange(size) if ks is None else ks
        for j, k in enumerate(ks.tolist()):
            try:
                parts.append((ks[j:j + 1], _arithmetic(
                    name, {key: t[j:j + 1] if t.ndim == 1
                           else t[j:j + 1, :c["n"][j]]  # its own entries
                           for key, t in c.items()},
                    lo[j:j + 1], hi[j:j + 1], python=True)))
            except (ValueError, ArithmeticError) as exc:
                refuse(np.arange(size) == k, lambda _: exc)
    if len(parts) == 1 and parts[0][0] is None:  # every row: no scatter
        terms, out["flags"] = parts[0][1]
        out.update(zip(("lhs", "mid", "rhs"), terms))
    else:
        out.update({key: np.full(size, math.nan)
                    for key in ("lhs", "mid", "rhs")}, flags={})
        for rows, (terms, flags) in parts:
            for key, t in zip(("lhs", "mid", "rhs"), terms):
                out[key][rows] = t
            for key, t in flags.items():
                out["flags"].setdefault(key, np.zeros(size, dtype=bool))[
                    rows] = t
    with np.errstate(all="ignore"):
        out["m1"], out["m2"] = out["mid"] - out["lhs"], out["rhs"] - out["mid"]
    out["feasible"] = np.logical_and.reduce(
        [refuse.ok] + [t for key, t in out["flags"].items()
                       if key not in chain.advisory])
    return out


def _powers(values: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Each row of values to its own p, with the bits of np.power(row, p)
    for a float p.  numpy takes other paths for some scalar exponents (2.0
    squares, -1.0 and 0.5 too), so a row whose p is an integer or
    half-integer takes that call; the others take one power over the
    block, which gives their bits."""
    out = np.power(values, p[:, None])
    for k in np.flatnonzero(2.0 * p == np.floor(2.0 * p)).tolist():
        out[k] = np.power(values[k], float(p[k]))
    return out


def _nonpositive(values: np.ndarray) -> list:
    bad = np.sort(values)
    return bad[bad <= 0.0].tolist()


def _arithmetic(name: str, c: dict, lo, hi, python: bool):
    """((lhs, mid, rhs), flags) of rows that passed the checks, in doubles
    or (``python``) in Python floats."""
    chain = CHAINS[name]
    alpha, g = c["alpha"], c["g"]
    col = (lambda t: t.astype(object)) if python else (lambda t: t)
    # numpy reads the status flags that Python's own float operations set
    with np.errstate(**({"all": "ignore"} if python else AS_PYTHON)):
        if chain.spectral:
            # Python floats, so that hm_terms' qf ** p is Python's pow
            terms = chain.terms(c["qf"].astype(object), col(c["apx"]),
                                c["p"].astype(object), col(alpha), col(g))
        else:
            inputs, _ = chain.inputs(*(list(col(c[key]).T) if key in c
                                       else None for key in ("a", "b", "q")))
            terms = chain.terms(*inputs, col(alpha), col(g),
                                ops=MathColumns)
    flags = flag_rows(name, lo, hi, g, alpha, c["v"], c.get("p"),
                      (c["a"], c["b"]) if chain.paired else None, c.get("gv"))
    return [np.asarray(t, dtype=float) for t in terms], flags
