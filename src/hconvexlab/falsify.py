"""Seeded falsification campaigns over hypothesis regions.

A campaign draws instances from a target's hypothesis region, evaluates the
target inequality's signed margin in doubles, and treats every margin
below -1e-10 as a candidate.  A witness is confirmed only when the 60-digit
margin stays below -1e-6 and every feasibility flag was true; otherwise it
is demoted as float noise (sign flipped) or below-threshold (tiny
magnitude).  Campaigns never claim truth — the outcome is either a
confirmed witness or "no violation found at N samples".

Which candidates run the 60-digit confirm: the reported ones (the first
witness_cap candidates and the arg-min), every candidate of best-possible,
certificates or a dense-matrix instance, and every candidate whose
enclosure comes within one ulp of 0 or of -1e-6.  The enclosure is an
interval that holds the exact margin of the candidate's double inputs: the
terms confirm evaluates at 60 digits (the chain terms, the funclib cores,
opcalc.jensen_factor) run once more in outward-rounded interval arithmetic
(enclosure.Enclosure), over a block's candidate rows at once.  Where the
hull of the enclosure and the double margin misses both edges, the status
read off the double margin is the one confirm would give, and the
candidate is counted without the mpmath re-evaluation; a settled
candidate is never built as a dict.  A chunk returns dicts only for its
first witness_cap candidates, its arg-min and its unsettled candidates,
and the parent confirms those it reports and the unsettled ones.

Determinism: sample i derives its own counter-based stream from
(seed, i), so reports are byte-identical for a fixed seed regardless of
chunking or the HCONVEXLAB_THREADS worker count.  Samplers draw
constructively inside the beta-dependent membership intervals (using the
fact that the interval's lower end is monotone in the spread target, a
draw with smaller actual spread stays feasible); the post-hoc flags remain
the single source of truth and rejected draws are counted exactly:
drawn = counted + rejected.

Block drawing: a campaign draws BLOCK_SIZE samples at a time, each from a
Philox stream of its own, whose generator comes from the process's pool
(streams.Streams): a block pays numpy's per-call dispatch once for all its
rows, and a chunk constructs no generator.  A row's bits do not depend on
which block it is in, so neither does a report.  A target's sampler is a
sequence of steps, each one Generator method's variates and the transforms
around them, and a block runs them stage by stage.  Each row first fetches
the raw words a draw at the largest size takes, and a step computes its
variates from the words over the rows that passed its check, bit for bit
as numpy's method would (streams.Words).  Its transforms then run once
over the block, a vector as one array padded to the largest n:
lo + (hi - lo) * u as Generator.uniform computes it, math's exp, log and
log1p mapped element by element, the gate interval (the gate family's core
in numpy ops, as TripleRule.gate_rows computes it), Dirichlet weights and
unit vectors.  A row is refused where drawing the sample on its own would
raise (numpy's uniform refuses a negative, -0.0 or non-finite hi - lo),
and its stream is left where that draw left it when it raised; a unit
vector is drawn again in place.  _draw and draw_instance are a block of
one, read from a Philox generator's full state (a pending half included)
and leaving it where numpy's own calls would; they raise what refused the
row.

Block evaluation: in doubles, an operator or chain target's margin is its
kernel (opcalc.jensen_rows, refined.chain_rows) over a block's columns as
the draw left them, skipping refused rows; best-possible and certificates
evaluate rows one at a time.  Either returns a Block: margins and
acceptance as arrays, flags and extras dicts built only for the rows a
report keeps.  Instance dicts reach the same kernels through
_instance_rows, a dense matrix or odd lists as a row of its own, so
replay, the CLI and tests run what campaigns run.  A row the kernel
refuses raises, when asked for, what its evaluation on its own raises.
A block is drawn in rounds (_draws): the first round draws every sample,
and each later round the samples whose last draw was refused, failed to
evaluate or was infeasible, from where that draw left their streams,
each round drawn and evaluated as a block.  A sample counts every draw
it made.

Targets
  operator-jensen   M_(0,1)(h) <f(A)x,x>  vs  f(<Ax,x>)
  per-lambda        (h(lam)/lam) <f(A)x,x>  vs  f(<Ax,x>)
  half-bound        2 h(1/2) <f(A)x,x>  vs  f(<Ax,x>)
  best-possible     the diag(0, a) / equal-x construction behind the claim
                    that 2h(1/2) is optimal, with h(t) = t^beta; the target
                    margin uses the construction's reduced expectation
                    f(a)/2 (only the top spectral term), and the full
                    functional-calculus margin travels alongside
  kyfan, amgm, chrystal, holder-mccarthy
                    the refined chains (margin_kind "refined" takes the
                    worse of the two chain margins, "outer" the classical
                    lhs <= rhs margin)
  certificates      grid certification of the conditional-convexity gap
                    for one built-in triple at sampled parameters
A target's rules (region defaults and checks, sampler, margin kernel, its
60-digit twin, enclosure, feasibility rule) are its RULES record.  The
margin's terms take their arithmetic as an argument: campaigns and replay
run them in doubles, confirm at 60 digits, and the enclosure in intervals.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np
from mpmath import mp
from numpy.random import Generator

from .convexity import GRID_CELL_CAP, SWEEP_GRID_CAP, certify
from .enclosure import ENCLOSED_OPS, Enclosure, enclosed
from .errors import ConfigError, EmptyRegion, HConvexLabError
# gate_interval, jensen_verify and the chain functions are imported for the
# benchmark's trace points (perfbench/jobs.py SPAN_POINTS), which look them
# up here
from .funclib import (  # noqa: F401
    TRIPLE_NAMES, TRIPLES, Refusals, ScalarFunction, check_triple, core_array,
    evaluate_rows, gate_interval, make_triple, triple_rows,
)
from .funclib import COLUMN_ERRORS, family_core
from .highprec import (
    DPS, closed_form_jcoeff, digits, hp_chain_margins, hp_jensen_margin,
)
from .opcalc import unit_rows
from .opcalc import (  # noqa: F401
    DIM_CAP, Spectra, SymmetricMatrix, UnitVector, _clamp_rows, _dots,
    jensen_factor, jensen_rows, jensen_verify, within_slack,
)
from .refined import (  # noqa: F401
    CHAINS, N_CAP, ChainReport, WeightedSample, _overall, amgm_chain,
    chain_rows, chrystal_chain, hm_chain, kyfan_chain, sample_columns,
)
from .streams import Streams, Words, stream

CANDIDATE_THRESHOLD = -1e-10
CONFIRM_THRESHOLD = -1e-6
RETRY_CAP = 512
# samples drawn, then evaluated by the target's kernel at once; one block
# of instances and their arrays is held at a time.  1,024: larger blocks
# save little more per-block numpy dispatch and cost megabytes of memory
BLOCK_SIZE = 1024
# the largest campaign: its report, candidates and wall time stay bounded
SAMPLES_CAP = 2 ** 20
WITNESS_CAP = 32
# the most witnesses a campaign may report: each is confirmed at 60 digits
# and returned as a dict
WITNESS_CAP_MAX = 1024
THREADS_ENV = "HCONVEXLAB_THREADS"

# the one instance every operator-jensen report must evaluate and publish:
# it satisfies the certified-gap hypotheses yet its infimum-mode margin is
# decided by the oracle, not assumed
PINNED_INSTANCE = {
    "target": "operator-jensen", "weight": "exp_weight",
    "triple": "amgm", "alpha": 2.0, "beta": 2.16, "v": 0.8,
    "diag": [0.64, 0.8],
    "x": [0.7071067811865476, 0.7071067811865476],
}


# ---------------------------------------------------------------------------
# Campaign configuration
# ---------------------------------------------------------------------------

def _pair(name, pair) -> list:
    """A region key's two numbers."""
    try:
        if isinstance(pair, (list, tuple)) and len(pair) == 2:
            return [float(pair[0]), float(pair[1])]
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"region key {name!r} must be a pair of numbers, "
                      f"got {pair!r}")


def _check_range(name, pair, lo=None, hi=None, lo_strict=False):
    a, b = _pair(name, pair)
    if not a <= b:
        raise ConfigError(f"region key {name!r} out of order: {pair!r}")
    if lo is not None and (a < lo or (lo_strict and a <= lo)):
        raise ConfigError(f"region key {name!r} must stay above {lo}, "
                          f"got {pair!r}")
    if hi is not None and b > hi:
        raise ConfigError(f"region key {name!r} must stay below {hi}, "
                          f"got {pair!r}")
    return [a, b]


def _check_grid(pair) -> list:
    """certify's [n_u, n_lambda]: two integers of at least 2, within its
    cell cap."""
    sizes = _pair("grid", pair)
    if not (all(t.is_integer() and t >= 2 for t in sizes)
            and sizes[0] * sizes[1] <= GRID_CELL_CAP):
        raise ConfigError(f"region key 'grid' must be two integers of at "
                          f"least 2 with at most {GRID_CELL_CAP} cells, "
                          f"got {pair!r}")
    return [int(t) for t in sizes]


@dataclass(frozen=True)
class Campaign:
    """A deterministic sampling campaign specification."""

    target: str
    samples: int
    seed: int
    region: dict = field(default_factory=dict)
    margin_kind: str = "refined"  # chains only: refined | outer
    witness_cap: int = WITNESS_CAP

    def __post_init__(self):
        if self.target not in RULES:
            raise ConfigError(f"unknown target {self.target!r}; "
                              f"expected one of {TARGETS}")
        if not 1 <= int(self.samples) <= SAMPLES_CAP:
            raise ConfigError(f"samples must be a count from 1 to "
                              f"{SAMPLES_CAP}, got {self.samples!r}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.margin_kind not in ("refined", "outer"):
            raise ConfigError(f"margin_kind must be refined|outer, "
                              f"got {self.margin_kind!r}")
        if not 0 <= int(self.witness_cap) <= WITNESS_CAP_MAX:
            raise ConfigError(f"witness_cap must be 0 to {WITNESS_CAP_MAX}")
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "witness_cap", int(self.witness_cap))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "region",
                           _resolve_region(self.target, self.region))

    def to_json(self) -> dict:
        return {"target": self.target, "samples": self.samples,
                "seed": self.seed, "region": dict(self.region),
                "margin_kind": self.margin_kind,
                "witness_cap": self.witness_cap}


def _resolve_region(target: str, region: dict) -> dict:
    rules = RULES[target]
    unknown = set(region) - set(rules.region)
    if unknown:
        raise ConfigError(f"unknown region keys for {target!r}: "
                          f"{sorted(unknown)}")
    out = {**rules.region,
           **{k: v for k, v in region.items() if v is not None}}
    if "triple" in out and out["triple"] not in TRIPLE_NAMES:
        raise ConfigError(f"unknown triple {out['triple']!r}")
    # stated parameter constraints are enforced here; data-dependent
    # hypothesis clauses (anchor, membership) stay post hoc
    if "alpha" in out:
        floor = TRIPLES[out.get("triple", rules.chain)].alpha_floor
        out["alpha"] = _check_range("alpha", out["alpha"], lo=floor,
                                    lo_strict=True)
    if "grid" in out:
        out["grid"] = _check_grid(out["grid"])
    # (key, lower end, upper end): both ends are strict
    for key, lo, hi in (("v", 0.0, None), ("a", 0.0, None),
                        ("lam", rules.lam_floor, 1.0), ("beta", 0.0, 1.0),
                        ("p", 1.0, None)):
        if key in out:
            out[key] = _check_range(key, out[key], lo=lo, hi=hi,
                                    lo_strict=True)
            if hi is not None and out[key][1] >= hi:
                raise ConfigError(f"{key} range must stay strictly below 1")
    for key in ("n", "dim"):
        if key in out:
            pair = _check_range(key, out[key], lo=1,
                                hi=N_CAP if key == "n" else DIM_CAP)
            out[key] = [int(pair[0]), int(pair[1])]
    if "weight" in out and out["weight"] not in ("exp_weight",
                                                 "identity_weight"):
        raise ConfigError(f"weight must be exp_weight|identity_weight, "
                          f"got {out['weight']!r}")
    return out


def _worker_count(raw: str | None) -> int:
    """Campaign workers for a HCONVEXLAB_THREADS value: 1 when unset or
    empty, a positive integer clamped to the CPU count (reports do not
    depend on it), and a ConfigError for anything else."""
    if not (raw or "").strip():
        return 1
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer, "
                          f"got {raw!r}")
    return min(int(raw), os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Per-target samplers (constructive: draws land inside the feasible set)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Step:
    """One Generator method's variates of a draw and the transforms around
    them.

    ``call`` names the method: "random" for uniforms, "integers" for the
    size n drawn from region[key], or "standard_exponential" and
    "standard_normal"; its variates are computed from a row's raw words as
    numpy's method computes them (streams.Words).  The step draws per_n * n
    values of a sample, or one (a scalar) when per_n is 0.  check(rows,
    region) runs before the draw and apply(rows, region, variates) after it;
    either refuses the rows where the draw on its own raises.  A refused
    row of a ``redraw`` step draws again instead.
    """

    call: str
    apply: Callable
    per_n: int = 0
    check: Callable | None = None
    key: str | None = None
    redraw: bool = False


class _Rows(Refusals):
    """A block of rows of one target by name, as a draw leaves them and a
    kernel takes them: a scalar value is an array over the rows, a vector
    value a (rows, width) array of rows of sizes[k] entries padded as
    _padded pads them, and ``region`` the values all rows share.  As
    Refusals, it refuses the rows whose draw on its own raises, with what
    it raises in ``errors`` (None: a row that draws again).
    ``insts`` holds the rows' instance dicts by row: all of them for rows
    read from dicts, of which those the arrays do not hold (single rows)
    have size 0, and those built so far for drawn rows."""

    def __init__(self, size: int, region: dict | None = None):
        super().__init__(size)
        self.size = size
        self.values = {}
        self.ends = {}  # a uniform's (lo, hi - lo), from its check
        self.sizes = None  # each row's n
        self.target = None
        self.region = region or {}
        self.insts = {}

    refuse = Refusals.__call__

    @property
    def refused(self) -> np.ndarray:
        return ~self.ok

    def __getitem__(self, name):
        return self.values[name]

    def __setitem__(self, name, value):
        self.values[name] = value

    def live(self) -> np.ndarray:
        """The rows the arrays hold that are not refused."""
        return np.flatnonzero(self.ok & (self.sizes > 0))

    def put(self, name: str, ks, m: np.ndarray) -> None:
        """Rows ks of the vector value ``name``; rows not put read nan."""
        if name not in self.values:
            self.values[name] = np.full((self.size, m.shape[1]), math.nan)
        self.values[name][ks] = m

    def instances(self, ks) -> list:
        """The instance dicts of rows ks; those of drawn rows are built from
        the drawn values once."""
        new = [k for k in ks if k not in self.insts]
        if new:
            build = RULES[self.target].draw.build
            self.insts.update(zip(new, build(self, new)))
        return [self.insts[k] for k in ks]

    def map(self, fn: Callable, *args):
        """fn over the rows in Python floats, as a draw on its own calls it
        (math's exp, log and log1p, **, or a chain's gate_value where its
        pass over columns raises).  A row where it raises is refused and
        reads nan; region constants (Python floats) are mapped once."""
        if not any(isinstance(t, np.ndarray) for t in args):
            try:
                return fn(*args)
            except _REJECTED as exc:
                self.refuse(True, lambda j: exc)
                return math.nan
        columns = [np.broadcast_to(t, (self.size,)).tolist() for t in args]
        try:
            return np.array(list(map(fn, *columns)), dtype=float)
        except _REJECTED:
            pass
        out = []
        for k, xs in enumerate(zip(*columns)):
            try:
                out.append(fn(*xs))
            except _REJECTED as exc:
                out.append(math.nan)
                self.refuse(np.arange(self.size) == k, lambda j: exc)
        return np.array(out, dtype=float)

    def divide(self, a, b):
        """a / b, refusing the rows where Python's float division raises."""
        self.refuse(b == 0.0, lambda j: ZeroDivisionError(
            "float division by zero"))
        return np.divide(a, b)

    def uniform_ends(self, lo, hi):
        """(lo, hi - lo) of rng.uniform(lo, hi), refusing the rows where
        numpy raises: OverflowError where hi - lo is not finite, ValueError
        where it is negative or -0.0.  uniform draws lo + (hi - lo) * u."""
        span = hi - lo
        self.refuse(~np.isfinite(span), lambda j: OverflowError(
            "high - low range exceeds valid bounds"))
        self.refuse(np.signbit(span), lambda j: ValueError("high - low < 0"))
        return lo, span


def _region(key: str) -> Callable:
    return lambda rows, region: region[key]


def _uniform(name, ends: Callable, per_n: int = 0) -> _Step:
    """rng.uniform(lo, hi[, per_n * n]), (lo, hi) = ends(rows, region).  A
    tuple of names splits each row's values evenly among them."""
    def check(rows, region):
        rows.ends[name] = rows.uniform_ends(*ends(rows, region))

    def apply(rows, region, u):
        lo, span = rows.ends[name]
        if not per_n:
            rows[name] = lo + span * u
            return
        ks, u = u
        for part, m in zip((name,) if isinstance(name, str) else name, u):
            rows.put(part, ks, lo[ks, None] + span[ks, None] * m)
    return _Step("random", apply, per_n, check)


def _log_uniform(name: str, ends: Callable) -> _Step:
    """math.exp(rng.uniform(math.log(lo), math.log(hi)))."""
    def check(rows, region):
        lo, hi = ends(rows, region)
        rows.ends[name] = rows.uniform_ends(rows.map(math.log, lo),
                                           rows.map(math.log, hi))

    def apply(rows, region, u):
        lo, span = rows.ends[name]
        rows[name] = rows.map(math.exp, lo + span * u)
    return _Step("random", apply, 0, check)


def _size(key: str) -> _Step:
    """rng.integers(lo, hi + 1) over region[key]: the row's n."""
    def apply(rows, region, sizes):
        rows.sizes = rows[key] = sizes
    return _Step("integers", apply, key=key)


def _weights(name: str) -> _Step:
    """rng.dirichlet(np.ones(n)), bit for bit, leaving the stream where
    dirichlet leaves it: numpy draws one standard exponential per entry (a
    gamma of shape 1), sums them left to right from 0.0 and scales each by
    the reciprocal of the sum."""
    def apply(rows, region, exponentials):
        ks, (e,) = exponentials
        acc = np.zeros(ks.size)
        for j in range(e.shape[1]):  # a pad adds 0.0
            acc = acc + e[:, j]
        rows.refuse(acc == 0.0, lambda j: ZeroDivisionError(
            "float division by zero"), ks)
        rows.put(name, ks, e * (1.0 / acc)[:, None])
    return _Step("standard_exponential", apply, 1)


def _unit_vector(name: str) -> _Step:
    """standard_normal(dim) over its norm, drawn again while the norm is at
    most 1e-6; the norm is np.linalg.norm's, math.sqrt(x.dot(x)).  A row
    drawn again is written over in place."""
    def apply(rows, region, normals):
        ks, (x,) = normals
        norm = np.sqrt(_dots(x, x, rows.sizes[ks]))
        rows.refuse(~(norm > 1e-6), None, ks)
        rows.put(name, ks, x / norm[:, None])
    return _Step("standard_normal", apply, 1, redraw=True)


def _mean_chain_sampler(chain: str) -> Sampler:
    """kyfan and amgm: values uniform on the gate interval [g(v), v]."""
    rule = TRIPLES[chain]

    def ends(rows, region):
        # g(v), which the kernel's flags read again: gate_value's, over
        # the columns, or row by row where that raises
        try:
            rows["gv"] = rule.gate_columns(rows["v"], rows["alpha"])
        except COLUMN_ERRORS:
            rows["gv"] = rows.map(rule.gate_value, rows["v"], rows["alpha"])
        return _clamp_rows(rows["gv"], 5e-324, rows["v"]), rows["v"]
    steps = (_uniform("alpha", _region("alpha")),
             _log_uniform("v", _region("v")), _size("n"),
             _uniform("a", ends, 1), _weights("q"))
    return Sampler(lambda region: steps,
                   ("target", "alpha", "v", "n", "a", "q"))


def _chrystal_delta_ends(rows, region):
    """The spread target delta keeps the data's log-ratios above the
    beta-dependent lower gate: the gate value is monotone in the spread, so
    actual spread <= delta preserves membership.  delta is log-uniform on
    [1e-6, max(cap, 2e-6)]."""
    alpha, v = rows["alpha"], rows["v"]
    cap = rows.divide(
        0.3 * alpha * rows.map(math.log1p, rows.map(math.exp, -v / 2.0)),
        rows.map(math.log1p, rows.map(math.exp, v)))
    return 1e-6, np.where(2e-6 > cap, 2e-6, cap)


def _chrystal_ends(rows, region):
    """The 2n values a, b are uniform on [base, base + delta)."""
    base = rows.divide(rows["delta"], 0.5 * rows["v"])
    return base, base + rows["delta"]


_CHRYSTAL_STEPS = (
    _uniform("alpha", _region("alpha")), _log_uniform("v", _region("v")),
    _size("n"), _log_uniform("delta", _chrystal_delta_ends),
    _uniform(("a", "b"), _chrystal_ends, 2), _weights("q"))


def _holder_mccarthy_ends(rows, region):
    """The spectrum is uniform on [min(lo, v), v), lo = max(v (gtarget /
    alpha) ** (1/p), v - gtarget)."""
    v, g = rows["v"], rows["gtarget"]
    lo = v * rows.map(operator.pow, rows.divide(g, rows["alpha"]),
                      rows.divide(1.0, rows["p"]))
    lo = np.where(v - g > lo, v - g, lo)
    return np.where(v < lo, v, lo), v


_HOLDER_MCCARTHY_STEPS = (
    _uniform("alpha", _region("alpha")), _log_uniform("v", _region("v")),
    _uniform("p", _region("p")), _size("dim"),
    _log_uniform("gtarget", lambda rows, region: (1e-6, rows["alpha"])),
    _uniform("diag", _holder_mccarthy_ends, 1), _unit_vector("x"))


def _beta_range(rows, region):
    """beta is uniform on the region triple's stated range at alpha."""
    return triple_rows(region["triple"], rows["alpha"], None, None,
                       rows.refuse)


def _v_top(region) -> float:
    return min(region["v"][1], TRIPLES[region["triple"]].anchors.hi)


def _operator_gate_ends(rows, region):
    """The closed gate interval [g(v), v] that holds the spectrum, as
    _operator_gate gives it; it is the draw's setup."""
    name = region["triple"]
    alpha, beta, v = rows["alpha"], rows["beta"], rows["v"]
    triple_rows(name, alpha, beta, _OPERATOR_P, rows.refuse)
    rows["gate"] = TRIPLES[name].gate_rows(v, alpha, beta, _OPERATOR_P,
                                          rows.refuse)
    return rows["gate"], v


_LAM = _uniform("lam", _region("lam"))
_OPERATOR_STEPS = (
    _uniform("alpha", _region("alpha")), _uniform("beta", _beta_range),
    _log_uniform("v", lambda rows, region: (region["v"][0], _v_top(region))),
    _size("dim"), _uniform("diag", _operator_gate_ends, 1), _unit_vector("x"))
_BEST_POSSIBLE_STEPS = (_log_uniform("a", _region("a")),
                        _uniform("beta", _region("beta")), _LAM)
_CERTIFICATES_STEPS = (
    _uniform("alpha", _region("alpha")), _uniform("beta", _beta_range),
    _uniform("v", lambda rows, region: (min(region["v"][0], _v_top(region)),
                                        _v_top(region))))
_CERTIFICATES_P = _uniform("p", lambda rows, region: (1.5, 4.0))


# instance keys taken from the region rather than drawn
_REGION_FIELDS = ("triple", "weight", "grid")


@dataclass(frozen=True)
class Sampler:
    """A target's draw: steps(region) in stream order, and the instance's
    keys in order.  A key is a drawn value, the target, or one of the
    region's _REGION_FIELDS; any other key not drawn is left out."""

    steps: Callable
    fields: tuple

    def build(self, rows: _Rows, ks) -> list:
        """The instance dicts of rows ks."""
        names, columns, ks = [], [], np.asarray(ks, dtype=np.int64)
        for name in self.fields:
            if name in rows.values:  # a vector's row as its own entries
                value = rows[name][ks]
                columns.append(value.tolist() if value.ndim == 1 else [
                    t[:n] for t, n in zip(value.tolist(),
                                          rows.sizes[ks].tolist())])
            elif name == "target":
                columns.append([rows.target] * len(ks))
            elif name in _REGION_FIELDS and name in rows.region:
                value = rows.region[name]
                columns.append([list(value) if isinstance(value, list)
                                else value for _ in ks])
            else:
                continue
            names.append(name)
        return [dict(zip(names, values)) for values in zip(*columns)]


def _padded(values: list, sizes: np.ndarray, width: int,
            zero: bool) -> np.ndarray:
    """The rows of sizes[k] entries that ``values`` holds end to end as one
    (rows, width) array, padded with 0.0 when ``zero`` (weights: sums and
    dots keep their bits), else with the row's first entry (extremes do)."""
    own = np.arange(width) < sizes[:, None]
    at = np.where(own, np.arange(width), 0) + (sizes.cumsum() - sizes)[:, None]
    out = np.concatenate([np.empty(0)] + values)[at]
    return np.where(own, out, 0.0) if zero else out


def _draw_staged(words: Words, target: str, region: dict,
                 ks=None) -> _Rows:
    """The target's sampler over a block whose row i draws from row ks[i]
    of ``words`` (all its rows when ks is None), stage by stage: a step
    draws only for the rows that passed its check and every earlier step,
    so a refused row's stream is left where its draw on its own left it
    when it raised.  A unit vector a row refuses is drawn again.  Each row
    first fetches the words a draw at the largest size takes, one value a
    word."""
    ks = np.arange(words.size) if ks is None else np.asarray(ks)
    rows = _Rows(ks.size, region)
    rows.target = target
    steps = RULES[target].draw.steps(region)
    count = n = 0
    for step in steps:
        if step.call == "integers":
            n = region[step.key][1]
        count += step.per_n * n or 1
    words.reserve(ks, count)
    with np.errstate(all="ignore"):
        for step in steps:
            if step.check is not None:
                step.check(rows, region)
            live = np.flatnonzero(rows.ok)
            while True:
                step.apply(rows, region,
                           _call(step, words, ks, live, rows, region))
                if not step.redraw:
                    break
                live = live[~rows.ok[live]]
                if not live.size:
                    break
                rows.ok[live] = True
                for k in live.tolist():
                    del rows.errors[k]
    return rows


def _call(step: _Step, words: Words, ks: np.ndarray, live: np.ndarray,
          rows: _Rows, region: dict):
    """The step's variates for the rows ``live``, drawn from their rows ks
    of ``words``: an array over the rows, other rows nan (size: the
    smallest n), or a vector's (live, per_n parts of (live, width)), width
    the largest n of the rows not refused; a shorter row is padded with
    0.0, or for uniforms with its part's first entry."""
    at = ks[live]
    if step.call == "integers":
        lo, hi = region[step.key]
        sizes = np.full(rows.size, lo, dtype=np.int64)
        sizes[live] = words.integers(at, lo, hi)
        return sizes
    if not step.per_n:
        u = np.full(rows.size, math.nan)
        u[live] = words.take(at, 1, "random")[:, 0]
        return u
    sizes, width = rows.sizes[live], int(rows.sizes[rows.ok].max(initial=0))
    values = words.take(at, step.per_n * sizes, step.call)
    j, n = np.arange(width), sizes[:, None]
    own = j < n
    i = np.arange(live.size)[:, None]
    parts = [values[i, np.where(own, j + p * n, p * n)]
             for p in range(step.per_n)]
    if step.call != "random":
        parts = [np.where(own, m, 0.0) for m in parts]
    return live, parts


def _drawn(rows: _Rows, ks) -> list:
    """(instance, gate) of rows ks: gate is the closed gate interval
    (g(v), v) an operator draw drew the spectrum in, else None."""
    gates = list(zip(rows["gate"][ks].tolist(), rows["v"][ks].tolist())) \
        if "gate" in rows.values else [None] * len(ks)
    return list(zip(rows.instances(ks), gates))


def _draw(rng: Generator, target: str, region: dict):
    """(instance, gate) of _drawn: the target's sampler on a block of one,
    from the words of a Philox generator, which it leaves where numpy's own
    calls would; it raises what refused the row."""
    words = Words.of([rng])
    rows = _draw_staged(words, target, region)
    words.leave()
    rows.raise_first()
    return _drawn(rows, [0])[0]


def draw_instance(rng: Generator, target: str, region: dict) -> dict:
    return _draw(rng, target, region)[0]


@functools.lru_cache(maxsize=None)
def instance_template(target: str) -> tuple[dict, tuple]:
    """(like, required): every key an instance of the target may hold, each
    with a value of the type it is drawn in, and the keys it must hold.
    They are the keys of a draw at the default region, which it must hold
    but for its size n or dim; the sampler's fields that region does not
    draw (lam, p: numbers); and with "diag", "entries", a dense operator's
    rows in its place.  It is cached, so callers must not change it."""
    drawn = draw_instance(stream(0, 0), target, RULES[target].region)
    like = {**dict.fromkeys(RULES[target].draw.fields, 0.0), **drawn}
    if "diag" in drawn:
        like["entries"] = [[0.0]]
    return like, tuple(k for k in drawn if k not in ("n", "dim"))


# ---------------------------------------------------------------------------
# Per-target margin functions.  In doubles each is an array kernel over a
# block of rows (_Rows): a campaign's drawn block as the draw left it, or
# instance dicts read by _instance_rows.  Its exact twin gives the same
# terms at 60 digits, one instance dict at a time.  Campaigns, replay and
# confirm all run them.
# ---------------------------------------------------------------------------

# what a draw or an evaluation may raise for an instance that is data
_REJECTED = (ValueError, ArithmeticError, HConvexLabError)


class Block:
    """The double evaluation of a block of rows (_Rows) of one target.

    ``margin`` and ``accepted`` (evaluated, and feasible) are arrays over
    the rows.  ``row(k)`` is what evaluate_instance returns for row k: the
    flags and extras dicts are built only then, and it raises what
    evaluating the row raised.  A kernel fills rows from arrays (``fill``);
    best-possible and certificates evaluate rows one at a time
    (_row_by_row).
    """

    def __init__(self, size: int, extras: Callable | None = None):
        self.margin = np.full(size, math.nan)
        self.accepted = np.zeros(size, dtype=bool)
        self.flags = {}  # flag name -> bool array over the rows
        self.columns = {}  # what ``extras(columns, k)`` reads
        self._extras = extras
        self._single = {}  # row -> (margin, flags, extras) or exception

    def fill(self, ks, margin, flags: dict, accepted, errors: dict,
             **columns) -> None:
        """Rows ks (an index array) from arrays over those rows; the rows
        ks[j] of ``errors`` raise errors[j] and are not accepted."""
        self.margin[ks] = margin
        self.accepted[ks] = accepted
        for into, cols, empty in ((self.flags, flags, False),
                                  (self.columns, columns, math.nan)):
            for name, col in cols.items():
                if name not in into:
                    into[name] = np.full(self.margin.size, empty)
                into[name][ks] = col
        for j, exc in errors.items():
            self._single[int(ks[j])] = exc
            self.accepted[ks[j]] = False

    def run(self, k: int, evaluate: Callable, feasible: Callable) -> None:
        """Row k by ``evaluate()``, which returns (margin, flags, extras),
        accepted where ``feasible(flags)``."""
        try:
            result = self._single[k] = evaluate()
        except _REJECTED as exc:
            self._single[k] = exc
            return
        self.margin[k], self.accepted[k] = result[0], feasible(result[1])

    def row(self, k: int):
        if k in self._single:
            result = self._single[k]
            if isinstance(result, BaseException):
                raise result
            return result
        return (float(self.margin[k]),
                {name: bool(col[k]) for name, col in self.flags.items()},
                self._extras(self.columns, k))


def _row_by_row(row: Callable, rows: _Rows, margin_kind: str) -> Block:
    """The evaluate, given its ``row``, of a target whose rows run one at a
    time (best-possible: a few scalar operations each; certificates: a grid
    certification each): row(inst) gives (margin, flags, extras) for each
    row that is not refused (see Block.run)."""
    block, ks = Block(rows.size), np.flatnonzero(rows.ok).tolist()
    for k, inst in zip(ks, rows.instances(ks)):
        block.run(k, lambda: row(inst), RULES[rows.target].feasible)
    return block


def _as_row(value, cap: int) -> np.ndarray | None:
    """A list of 1 to cap numbers as a float array, else None."""
    if type(value) is not list or not 1 <= len(value) <= cap:
        return None
    try:
        out = np.array(value, dtype=float)
    except (TypeError, ValueError):
        return None
    return out if out.ndim == 1 else None


def _matrix(data) -> SymmetricMatrix:
    """An instance's operator (diag or dense entries), or a parsed matrix."""
    if "matrix" in data:
        return data["matrix"]
    return SymmetricMatrix.diagonal(data["diag"]) if "diag" in data \
        else SymmetricMatrix(data["entries"])


def chain_reports(insts: list) -> list:
    """The ChainReports of instances of one chain target, evaluated as one
    block by its kernel; raises what the first row that raises raises."""
    if not insts:
        return []
    rules = RULES[insts[0]["target"]]
    block = rules.evaluate(_instance_rows(insts), "refined")
    name = rules.chain
    out = []
    for k, inst in enumerate(insts):
        block.row(k)  # raises what row k raised
        out.append(ChainReport.of(
            name, {**block.columns, "flags": block.flags}, k, inst["alpha"],
            inst["v"], int(block.columns["n"][k]),
            float(inst["p"]) if CHAINS[name].spectral else None))
    return out


def _chain_extras(c: dict, k: int) -> dict:
    return {"chain": [float(c["lhs"][k]), float(c["mid"][k]),
                      float(c["rhs"][k])],
            "margins": [float(c["m1"][k]), float(c["m2"][k])],
            "gamma": float(c["gamma"][k]), "beta": float(c["beta"][k]),
            "feasible": bool(c["feasible"][k])}


def _chain_exact(inst: dict, margin_kind: str):
    name = RULES[inst["target"]].chain
    m1, m2 = hp_chain_margins(name, inst, _matrix(inst).entries
                              if CHAINS[name].spectral else None)
    with mp.workdps(DPS):  # the outer sum keeps the margins' 60 digits
        return (m1 + m2) if margin_kind == "outer" else min(m1, m2), {}


def _evaluate(fill: Callable, extras: Callable, rows: _Rows,
              margin_kind: str) -> Block:
    """The Block of a kernel over the rows: fill(block, rows, ks,
    margin_kind) fills the rows ks that the arrays hold in one call, then
    each row read from its dict on its own."""
    block = Block(rows.size, extras)
    ks = rows.live()
    if ks.size:
        fill(block, rows, ks, margin_kind)
    for k in np.flatnonzero(rows.sizes == 0).tolist():  # read from the dict
        fill(block, rows, np.array([k]), margin_kind)
    return block


def _spectra(rows: _Rows, ks: np.ndarray, refuse: Refusals) -> Spectra:
    """The spectral step of the rows ks: of the diagonal operators the
    arrays hold, or of the one row ks read from its dict."""
    if rows.sizes[ks[0]]:
        return Spectra.diagonal(rows["diag"][ks], rows["x"][ks], refuse,
                                rows.sizes[ks])
    inst = rows.insts[int(ks[0])]
    return Spectra.of(_matrix(inst), UnitVector(inst["x"]))


def _chain_fill(block: Block, rows: _Rows, ks: np.ndarray,
                margin_kind: str) -> None:
    """Fill the rows ks of the block with chain_rows over their columns."""
    rules = RULES[rows.target]
    name = rules.chain
    refuse = Refusals(ks.size)
    c = {key: rows[key][ks] for key in ("alpha", "v", "gv", "p")
         if key in rows.values}
    try:
        if CHAINS[name].spectral:
            c["spectra"] = _spectra(rows, ks, refuse)
            c["n"] = c["spectra"].sizes
        elif rows.sizes[ks[0]]:
            c.update({key: rows[key][ks] for key in rules.layout[0]},
                     n=rows.sizes[ks])
        else:
            inst = rows.insts[int(ks[0])]
            c.update(sample_columns(name, WeightedSample(
                tuple(inst["a"]), tuple(inst["q"]),
                b=tuple(inst["b"]) if inst.get("b") else None)))
    except _REJECTED as exc:
        refuse(np.ones(ks.size, dtype=bool), lambda j: exc)
        block.fill(ks, math.nan, {}, False, refuse.errors)
        return
    out = chain_rows(name, c, refuse)
    flags, out["n"] = out.pop("flags"), c["n"]
    with np.errstate(all="ignore"):
        margin = out["rhs"] - out["lhs"] if margin_kind == "outer" \
            else np.where(out["m2"] < out["m1"], out["m2"], out["m1"])
    block.fill(ks, margin, flags, out["feasible"], refuse.errors, **out)


_CHAIN_KERNEL = functools.partial(_evaluate, _chain_fill, _chain_extras)


# the exponent p of an operator triple whose f is a power (holder_mccarthy);
# the other triples read no p
_OPERATOR_P = 2.0


@functools.lru_cache(maxsize=None)
def _operator_f(name: str) -> ScalarFunction:
    """f of the operator triple: it depends on the triple alone."""
    rule = TRIPLES[name]
    return ScalarFunction(rule.target,
                          {"p": _OPERATOR_P} if rule.needs_p else {})


def _operator_extras(c: dict, k: int) -> dict:
    return {key: float(c[key][k])
            for key in ("lhs", "rhs", "rhs_factor", "expectation")}


def _operator_key(inst: dict):
    """The region of an operator row the arrays hold (its triple, and its
    weight as the kernel reads it); None for a parsed matrix."""
    identity = inst.get("weight") == "identity_weight"
    return None if "matrix" in inst else (
        ("triple", inst.get("triple")),
        ("weight", "identity_weight" if identity else "exp_weight"))


def _weight(region: dict, params: dict) -> SimpleNamespace:
    """The weight h of operator rows of ``region``, with params alpha and
    beta: numbers, arrays over the rows or enclosures."""
    return SimpleNamespace(
        family="identity_weight" if region.get("weight") == "identity_weight"
        else "exp_weight", params=params)


def _operator_exact(inst: dict, margin_kind: str):
    name, alpha, beta = inst["triple"], inst["alpha"], inst["beta"]
    check_triple(name, alpha, beta, _OPERATOR_P)
    h = _weight(inst, {"alpha": alpha, "beta": beta})
    A, x = _matrix(inst), UnitVector(inst["x"])
    return hp_jensen_margin(_operator_f(name), h, A.entries, x.components,
                            RULES[inst["target"]].mode,
                            lam=inst.get("lam")), {}


def _operator_fill(block: Block, rows: _Rows, ks: np.ndarray,
                   margin_kind: str) -> None:
    """Fill the rows ks of the block, of one triple and weight (the
    arrays' region, or the one row's dict), with jensen_rows.  The checks
    run in jensen_verify's order: the triple's parameters, the matrix and
    vector, lambda, the spectrum, then the gate."""
    region = rows.region if rows.sizes[ks[0]] else rows.insts[int(ks[0])]
    name, mode = region["triple"], RULES[rows.target].mode
    alpha, beta, v = (rows[key][ks] for key in ("alpha", "beta", "v"))
    refuse = Refusals(ks.size)
    try:
        if "gate" not in rows.values:  # read from dicts: the draw's checks
            triple_rows(name, alpha, beta, _OPERATOR_P, refuse)
        s = _spectra(rows, ks, refuse)
    except _REJECTED as exc:
        refuse(np.ones(ks.size, dtype=bool), lambda j: exc)
        block.fill(ks, math.nan, {}, False, refuse.errors)
        return
    lam = None
    if mode == "per-lambda":
        lam = rows["lam"][ks]
        inside = (0.0 < lam) & (lam < 1.0)
        refuse(~inside, lambda j: ValueError(f"per-lambda mode requires "
                                             f"lambda in (0,1), got "
                                             f"{float(lam[j])!r}"))
        lam = np.where(inside, lam, 0.5)
    h = _weight(region, {"alpha": alpha, "beta": beta})
    with np.errstate(all="ignore"):
        factor = jensen_factor(
            mode, h, lam, lambda h, t: core_array(h.family, h.params, t),
            np.asarray, lambda: closed_form_jcoeff(h, np.asarray))
        lhs, rhs, expectation = jensen_rows(_operator_f(name), s, factor,
                                            refuse)
        gate = rows["gate"][ks] if "gate" in rows.values else \
            TRIPLES[name].gate_rows(v, alpha, beta, _OPERATOR_P, refuse)
        rule = TRIPLES[name]
        flags = {  # spectrum_in_gate as opcalc.spectrum_in decides it
            "alpha_in_range": alpha > rule.alpha_floor,
            "beta_in_range": (alpha <= beta)
                             & (beta <= alpha + rule.gamma_max(alpha) + 1e-12),
            "anchor_in_range": rule.anchors.contains_array(v),
            "spectrum_in_gate": within_slack(s.eigs, gate[:, None],
                                             v[:, None]).all(1)}
        block.fill(ks, rhs - lhs, flags,
                   np.logical_and.reduce(list(flags.values())), refuse.errors,
                   lhs=lhs, rhs=rhs, expectation=expectation,
                   rhs_factor=np.broadcast_to(factor, rhs.shape))


def _best_possible_terms(a, beta, lam, ops):
    """(lhs, factor, reduced, full) of the diag(0, a) construction: f(a)/2
    is the reduced expectation, (f(0) + f(a))/2 the full one."""
    return (ops.exp(-a / 2), lam ** (beta - 1), ops.exp(-a) / 2,
            (1 + ops.exp(-a)) / 2)


def _best_possible_row(inst: dict):
    a, beta, lam = (float(inst[k]) for k in ("a", "beta", "lam"))
    if lam < 0.0:  # lam ** (beta - 1) would be complex
        raise ValueError(f"best-possible: lam={lam!r} is negative")
    lhs, factor, reduced, full = _best_possible_terms(a, beta, lam, math)
    flags = {"lambda_in_range": 0.5 < lam < 1.0,
             "exponent_in_range": 0.0 < beta < 1.0,
             "scale_in_range": a > 0.0,
             "factor_decreasing": True}
    return factor * reduced - lhs, flags, {
        "lhs": lhs, "rhs_factor": factor, "reduced_expectation": reduced,
        "functional_calculus_margin": factor * full - lhs}


def _best_possible_exact(inst: dict, margin_kind: str):
    with mp.workdps(DPS):
        lhs, factor, reduced, full = _best_possible_terms(
            *(mp.mpf(inst[k]) for k in ("a", "beta", "lam")), mp)
        margin, full = factor * reduced - lhs, factor * full - lhs
    return margin, {"functional_calculus_margin_confirmed": digits(full)}


def _certificate_row(inst: dict):
    """A grid certification; its min_value is already the 60-digit gap at
    the arg-min, which is what confirm reads."""
    triple = make_triple(inst["triple"], inst["alpha"], inst["beta"],
                         p=inst.get("p"))
    cert = certify(triple.f, triple.g, triple.h, inst["v"],
                   grid=tuple(inst["grid"]))
    return cert.min_value, {"params_in_range": True, "gate_feasible": True}, {
        "verdict": cert.verdict, "gate_degenerate": cert.gate.degenerate,
        "arg_min": {"u": cert.arg_min[0], "lambda": cert.arg_min[1]}}


def _chain_layout(name: str) -> tuple:
    """The layout (see TargetRules) of a chain's instances."""
    chain = CHAINS[name]
    if chain.spectral:  # a diagonal operator's spectrum and p
        return ("diag", "x"), ("alpha", "v", "p"), DIM_CAP, \
            lambda inst: None if "matrix" in inst else ()
    return ("a", "b", "q") if chain.paired else ("a", "q"), \
        ("alpha", "v"), N_CAP, \
        lambda inst: None if not chain.paired and inst.get("b") else ()


def _instance_rows(insts: list) -> _Rows:
    """Instance dicts of one target as the rows its kernel takes, in the
    columns a draw leaves: the numbers of every row, and the lists of the
    rows whose lists are numbers of one length (at most the layout's cap),
    in the region (``key``) of the first such row.  The other rows, a
    dense matrix or odd lists, are single: they keep size 0, and the kernel
    reads their lists from their dicts."""
    rows = _Rows(len(insts))
    rows.target, rows.insts = insts[0]["target"], dict(enumerate(insts))
    if RULES[rows.target].layout is None:
        return rows
    vectors, numbers, cap, key = RULES[rows.target].layout
    rows.sizes = np.zeros(rows.size, dtype=np.int64)
    for name in numbers:
        rows[name] = np.array([float(inst[name]) for inst in insts])
    region, lists = None, []
    for k, inst in enumerate(insts):
        at = key(inst)
        ms = [_as_row(inst.get(name), cap) for name in vectors]
        sizes = {None if m is None else m.size for m in ms}
        if at is not None and region in (None, at) and len(sizes) == 1 \
                and None not in sizes:
            region, rows.sizes[k] = at, sizes.pop()
            lists.append(ms)
    packed = np.flatnonzero(rows.sizes)
    for name, ms in zip(vectors, zip(*lists)):
        rows.put(name, packed, _padded(list(ms), rows.sizes[packed],
                                       rows.sizes.max(), name in ("q", "x")))
    rows.region = dict(region or ())
    return rows


def evaluate_instance(inst: dict, margin_kind: str = "refined"):
    """(margin, flags, extras) for one serialized instance.

    This is the target's kernel on a block of one: campaigns, replay and
    tests all reach the same kernel, so a replayed witness reproduces
    margin_double bit for bit.
    """
    return RULES[inst["target"]].evaluate(_instance_rows([inst]),
                                          margin_kind).row(0)


# ---------------------------------------------------------------------------
# Extended-precision confirmation
# ---------------------------------------------------------------------------

def confirm(candidate: dict) -> dict:
    """Re-run the candidate's margin function at 60 digits; set its status.

    confirmed requires margin_confirmed < -1e-6 with all flags true and a
    sign agreeing with the double margin; otherwise the candidate is
    demoted as "float-noise" (sign mismatch) or "below-threshold".
    """
    rules = RULES[candidate["inputs"]["target"]]
    hp_margin, hp_extras = rules.exact(candidate["inputs"],
                                       candidate.get("margin_kind", "refined"))
    margin_f = float(hp_margin)
    sign_agrees = (margin_f < 0.0) == (candidate["margin_double"] < 0.0)
    out = dict(candidate, extras={**candidate.get("extras", {}), **hp_extras})
    out["margin_confirmed"] = digits(hp_margin)
    out["margin_confirmed_double"] = margin_f
    out["confirmed"], out["demotion"] = _STATUSES[int(_statuses(
        margin_f, rules.feasible(candidate["flags"])))] \
        if sign_agrees else (False, "float-noise")
    return out


# (confirmed, demotion) of a candidate by the index _statuses and _settled
# give; 0 is a candidate its enclosure leaves to confirm
_STATUSES = (None, (True, None), (False, "float-noise"),
             (False, "below-threshold"), (False, "infeasible-flags"))


def _statuses(margin, feasible):
    """The status of each margin that decides its candidate, by index."""
    return np.where(margin >= 0.0, 2, np.where(
        margin >= CONFIRM_THRESHOLD, 3, np.where(feasible, 1, 4)))


# ---------------------------------------------------------------------------
# Enclosures of exact margins
# ---------------------------------------------------------------------------

def _spectral_forms(d: np.ndarray, x: np.ndarray, value: Callable):
    """(<Ax,x>, <value(A)x,x>) of rows A = diag(d) and x, (rows, width)
    arrays padded as a draw pads them, as enclosures of the forms confirm
    evaluates: sum x^2 d / sum x^2 and sum x^2 value(d) / sum x^2.  value
    maps an enclosure of d's entries, held as (width, rows): each sum adds
    contiguous rows."""
    d, x = np.ascontiguousarray(d.T), np.ascontiguousarray(x.T)
    w = Enclosure(x) * x
    total = w.sum()
    return (w * d).sum() / total, (w * value(Enclosure(d))).sum() / total


def _operator_enclosure(rows: _Rows, ks: np.ndarray, margin_kind: str):
    """factor <f(A)x,x> - f(<Ax,x>) of the operator rows ks, through the
    funclib cores, opcalc.jensen_factor and highprec.closed_form_jcoeff; x
    as UnitVector gives it to confirm."""
    f, mode = _operator_f(rows.region["triple"]), RULES[rows.target].mode

    def ev(fn, t):
        return family_core(fn.family)(fn.params, enclosed(t), ENCLOSED_OPS)
    x = rows["x"][ks]
    _, x = unit_rows(x, np.sqrt(_dots(x, x, rows.sizes[ks])), Refusals(ks.size))
    qf, expectation = _spectral_forms(rows["diag"][ks], x, lambda t: ev(f, t))
    h = _weight(rows.region, {key: Enclosure(rows[key][ks])
                              for key in ("alpha", "beta")})
    factor = jensen_factor(mode, h, rows["lam"][ks] if mode == "per-lambda"
                           else None, ev, enclosed,
                           lambda: closed_form_jcoeff(h, enclosed))
    return factor * expectation - ev(f, qf)


def _chain_enclosure(rows: _Rows, ks: np.ndarray, margin_kind: str):
    """The chain margin of rows ks through CHAINS[name].terms: holder-
    mccarthy's after the spectral step, the others' over the columns of a
    (and b) and q."""
    chain = CHAINS[RULES[rows.target].chain]
    if chain.spectral:
        d, p = rows["diag"][ks], rows["p"][ks]
        inputs = *_spectral_forms(d, rows["x"][ks], lambda t: t ** p), p
    else:
        inputs, _ = chain.inputs(*([*map(Enclosure, rows[k][ks].T)]
                                   if k in rows.values else None
                                   for k in "abq"))
        d = np.hstack([rows[k][ks] for k in "ab" if k in rows.values])
    lhs, mid, rhs = chain.terms(*inputs, Enclosure(rows["alpha"][ks]),
                                Enclosure(d.max(1)) - d.min(1),
                                ops=ENCLOSED_OPS)
    if margin_kind == "outer":
        return rhs - lhs
    m1, m2 = mid - lhs, rhs - mid
    return Enclosure(np.minimum(m1.lo, m2.lo), np.minimum(m1.hi, m2.hi))


def margin_enclosure(candidate: dict) -> tuple | None:
    """(lo, hi) holding the exact margin of the candidate's own double
    inputs, the value confirm evaluates at 60 digits; None where no
    enclosure is built: best-possible, certificates and the rows a kernel
    reads from their dicts (a dense ``entries`` operator, odd lists).  This
    is _enclosures on the candidate's inputs as a block of one; campaigns
    run it over their blocks' candidates."""
    inputs, kind = candidate["inputs"], candidate.get("margin_kind", "refined")
    rows = _instance_rows([inputs])
    ends = _enclosures(rows, RULES[inputs["target"]].evaluate(rows, kind),
                       kind, np.ones(1, dtype=bool))[:, 0]
    return None if np.isnan(ends).any() else tuple(ends.tolist())


def _enclosures(rows: _Rows, block: Block, margin_kind: str,
                want: np.ndarray) -> np.ndarray:
    """The (2, rows) ends of the target's enclosures of the rows ``want``
    (a mask) with a finite margin that the arrays hold; nan on the other
    rows and for a target with no enclosure."""
    out, enclose = np.full((2, rows.size), math.nan), RULES[rows.target].enclose
    ks = rows.live() if enclose else np.array([], dtype=int)
    ks = ks[want[ks] & np.isfinite(block.margin[ks])]
    if ks.size:
        with np.errstate(all="ignore"):
            enclosure = enclose(rows, ks, margin_kind)
        out[:, ks] = enclosure.lo, enclosure.hi
    return out


def bound_status(margin: float, bound: float, feasible: bool):
    """(confirmed, demotion) that confirm gives when the exact margin lies
    within ``bound`` of ``margin``; None when it could fall either way.
    It is _settled on one row."""
    return _STATUSES[int(_settled(np.array([margin]), margin - bound,
                                  margin + bound, feasible)[0])]


def _settled(margin, lo, hi, feasible) -> np.ndarray:
    """The status of each candidate whose exact margin lies in [lo, hi],
    as an index into _STATUSES.

    confirm rounds the 60-digit margin to a double and tests it against 0
    and CONFIRM_THRESHOLD, and its sign against the double margin's.  The
    status is read off the double margin, so a row is decided here only
    when the hull of [lo, hi] and its double margin misses both edges by
    more than one ulp: rounding cannot carry the exact value across
    either, and every point of the hull has the double margin's status.
    A nan decides nothing.
    """
    lo, hi = np.minimum(lo, margin), np.maximum(hi, margin)
    clear = [(hi < np.nextafter(edge, -math.inf))
             | (lo > np.nextafter(edge, math.inf))
             for edge in (0.0, CONFIRM_THRESHOLD)]  # nan is never clear
    return np.where(clear[0] & clear[1], _statuses(margin, feasible), 0)


# ---------------------------------------------------------------------------
# The rule table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetRules:
    """What campaigns, replay and the CLI know of one target.  Its functions
    look up the layers they call (make_triple, the chains...) at call time."""

    region: dict  # region defaults; any other key is an error
    draw: Sampler
    # (rows, margin_kind) -> Block: an array kernel over the _Rows'
    # columns, refused rows skipped, single ones a row of their own
    evaluate: Callable
    # (inst, margin_kind) -> (its 60-digit margin, the extras confirm adds)
    exact: Callable
    # (rows, ks, margin_kind) -> an Enclosure of the exact margins of the
    # rows ks that the arrays hold (see _enclosures); None: none is built
    enclose: Callable | None = None
    # (lists, numbers, cap, key) by which _instance_rows reads instance
    # dicts into the arrays; None: every row one at a time.  key(inst) gives
    # a row's region, None for a row read on its own
    layout: tuple | None = None
    chain: str | None = None  # the refined chain (and funclib triple) name
    mode: str | None = None  # the operator targets' jensen_verify mode
    lam_floor: float = 0.0  # the lam range stays above this
    pinned: dict | None = None  # an instance every report publishes

    def feasible(self, flags: dict) -> bool:
        """Whether a draw counts: its chain's rule, else every flag."""
        return _overall(self.chain, flags)


def _operator_rules(mode: str, pinned=None, **region) -> TargetRules:
    return TargetRules(
        {"alpha": [1.000001, 3.0], "v": [1e-2, 1.0], "dim": [2, 8],
         "triple": "amgm", "weight": "exp_weight", **region},
        Sampler(lambda region: _OPERATOR_STEPS + ((_LAM,) if "lam" in region
                                                  else ()),
                ("target", "triple", "alpha", "beta", "v", "diag", "x",
                 "weight", "lam")),
        functools.partial(_evaluate, _operator_fill, _operator_extras),
        _operator_exact, _operator_enclosure,
        (("diag", "x"), ("alpha", "beta", "v") + (
            ("lam",) if mode == "per-lambda" else ()), DIM_CAP, _operator_key),
        mode=mode, pinned=pinned)


RULES = {
    "operator-jensen": _operator_rules("infimum", pinned=PINNED_INSTANCE),
    "per-lambda": _operator_rules("per-lambda", lam=[1e-6, 1.0 - 1e-6]),
    "half-bound": _operator_rules("half-bound"),
    "best-possible": TargetRules(
        {"a": [1e-3, 10.0], "beta": [1e-6, 1.0 - 1e-6],
         "lam": [0.5 + 1e-12, 1.0 - 1e-12]},
        Sampler(lambda region: _BEST_POSSIBLE_STEPS,
                ("target", "a", "beta", "lam")),
        functools.partial(_row_by_row, _best_possible_row),
        _best_possible_exact, lam_floor=0.5),
    "kyfan": TargetRules(
        {"alpha": [1.000001, 3.0], "v": [1e-4, 0.5], "n": [2, 5]},
        _mean_chain_sampler("kyfan"), _CHAIN_KERNEL, _chain_exact,
        _chain_enclosure,
        _chain_layout("kyfan"), chain="kyfan"),
    "amgm": TargetRules(
        {"alpha": [1.000001, 3.0], "v": [1e-4, 1.0], "n": [2, 5]},
        _mean_chain_sampler("amgm"), _CHAIN_KERNEL, _chain_exact,
        _chain_enclosure,
        _chain_layout("amgm"), chain="amgm"),
    "chrystal": TargetRules(
        {"alpha": [0.01, 3.0], "v": [0.1, 3.0], "n": [2, 5]},
        Sampler(lambda region: _CHRYSTAL_STEPS,
                ("target", "alpha", "v", "n", "a", "b", "q")),
        _CHAIN_KERNEL, _chain_exact, _chain_enclosure,
        _chain_layout("chrystal"),
        chain="chrystal"),
    "holder-mccarthy": TargetRules(
        {"alpha": [0.01, 3.0], "v": [0.1, 2.0], "dim": [2, 8],
         "p": [1.000001, 4.0]},
        Sampler(lambda region: _HOLDER_MCCARTHY_STEPS,
                ("target", "alpha", "v", "p", "dim", "diag", "x")),
        _CHAIN_KERNEL, _chain_exact, _chain_enclosure,
        _chain_layout("holder_mccarthy"), chain="holder_mccarthy"),
    "certificates": TargetRules(
        {"triple": "amgm", "alpha": [1.000001, 3.0], "v": [0.05, 1.0],
         "grid": [256, 256]},
        Sampler(lambda region: _CERTIFICATES_STEPS + (
            (_CERTIFICATES_P,) if TRIPLES[region["triple"]].needs_p else ()),
            ("target", "triple", "alpha", "beta", "v", "grid", "p")),
        functools.partial(_row_by_row, _certificate_row),
        lambda inst, margin_kind: (_certificate_row(inst)[0], {})),
}
TARGETS = tuple(RULES)


# ---------------------------------------------------------------------------
# Campaign execution
# ---------------------------------------------------------------------------

def _run_range(campaign_json: dict, start: int, stop: int):
    """Evaluate sample indices [start, stop); returns chunk aggregates.

    Samples are taken BLOCK_SIZE at a time, each from its own stream, and
    _draws draws and evaluates a block in rounds until every sample has
    an accepted draw; each sample counts all the draws it made.

    A block's candidates stay indices into the arrays _draws fills, and
    each reads its rows from the round of its accepted draw.  Their
    enclosures and the statuses those settle are computed over arrays,
    and a settled candidate is only counted (``confirmed``,
    ``demotions``).  Dicts are built only for the candidates that leave
    the chunk, in index order with their statuses (None: unsettled): its
    first witness_cap candidates, its arg-min and the unsettled ones;
    ``found`` counts all candidates.  An arg-min that is no candidate
    gets an instance dict only, where a block finds it.
    """
    c = Campaign(**campaign_json)
    streams = Streams(c.seed)
    drawn = rejected = found = 0
    min_margin, argmin = math.inf, None
    tally = np.zeros(len(_STATUSES), dtype=np.int64)  # the rows only counted
    out = []  # (candidate, status) of the rows that leave
    held = None  # (candidate, status index) of an arg-min in the tally
    for lo in range(start, stop, BLOCK_SIZE):
        rounds, tries, margins, ends, at = _draws(
            streams.many(range(lo, min(lo + BLOCK_SIZE, stop))), c)
        failed = np.flatnonzero(at[0] < 0)
        if failed.size:
            j = int(failed[0])  # each sample before j has one accepted draw
            n = int(tries[:j + 1].sum())
            raise EmptyRegion(
                f"{c.target}: no feasible draw after {RETRY_CAP} tries "
                f"at sample {lo + j}", drawn=drawn + n,
                rejected=rejected + n - j)
        drawn += int(tries.sum())
        rejected += int(tries.sum()) - tries.size
        # NaN margins are never a candidate or the arg-min
        cand = np.flatnonzero(margins < CANDIDATE_THRESHOLD)
        status = _settled(margins[cand], *ends[:, cand], True)
        leaves = status == 0
        leaves[:max(0, c.witness_cap - found)] = True
        found += cand.size
        tally += np.bincount(status[~leaves], minlength=len(_STATUSES))
        ks = cand[leaves].tolist()
        best = None
        if not np.isnan(margins).all():
            best = int(np.nanargmin(margins))  # the first of equal minima
            if margins[best] >= min_margin:
                best = None
        for j, code in zip(ks, status[leaves].tolist()):
            out.append((_candidate(c, lo, j, rounds, at), _STATUSES[code]))
        if best is not None:
            (rows, _), k = rounds[at[0, best]], int(at[1, best])
            min_margin = float(margins[best])
            argmin = lo + best, rows.instances([k])[0]
            i = int(np.searchsorted(cand, best))
            held = None
            if margins[best] < CANDIDATE_THRESHOLD and not leaves[i]:
                held = _candidate(c, lo, best, rounds, at), int(status[i])
    if held is not None:  # the arg-min leaves, so it leaves the tally
        tally[held[1]] -= 1
        bisect.insort(out, (held[0], _STATUSES[held[1]]),
                      key=lambda pair: pair[0]["index"])
    return {"drawn": drawn, "rejected": rejected, "min_margin": min_margin,
            "argmin": argmin, "candidates": [cand for cand, _ in out],
            "statuses": [status for _, status in out], "found": found,
            "confirmed": int(tally[1]),
            "demotions": {s[1]: n for s, n in zip(_STATUSES[2:],
                                                   tally[2:].tolist()) if n},
            "counted": stop - start}


def _draws(words: Words, c: Campaign):
    """The per-sample loop over a block whose sample j draws from row j of
    ``words``, run in rounds: the first draws every sample, and each later
    one the samples still open, from where their last draw left their rows'
    cursors,
    until every sample has an accepted draw (evaluated, and feasible) or
    has made RETRY_CAP draws.  A round draws its samples as a staged block
    and evaluates and encloses them as one.

    Returns (rounds, tries, margin, ends, at): each round's (rows, Block),
    and over the samples their draw counts, the margins of their accepted
    draws (nan: none), the (2, samples) ends of those draws' enclosures
    (see _enclosures) and ``at``, the (2, samples) round and row of those
    draws (-1: none)."""
    evaluate, n = RULES[c.target].evaluate, words.size
    tries, at = np.zeros(n, dtype=np.int64), np.full((2, n), -1)
    margin, ends = np.full(n, math.nan), np.full((2, n), math.nan)
    rounds, open_ = [], np.arange(n)
    while open_.size and len(rounds) < RETRY_CAP:
        rows = _draw_staged(words, c.target, c.region, open_)
        block = evaluate(rows, c.margin_kind)
        ok, done = block.accepted, open_[block.accepted]
        tries[open_] += 1
        margin[done] = block.margin[ok]
        ends[:, open_] = _enclosures(rows, block, c.margin_kind,
                                     ok & (block.margin < CANDIDATE_THRESHOLD))
        at[0, done], at[1, done] = len(rounds), np.flatnonzero(ok)
        rounds.append((rows, block))
        open_ = open_[~ok]
    return rounds, tries, margin, ends, at


def _candidate(c: Campaign, lo: int, j: int, rounds: list,
               at: np.ndarray) -> dict:
    """The candidate dict of sample lo + j, read from the round of its
    accepted draw (see _draws)."""
    (rows, block), k = rounds[at[0, j]], int(at[1, j])
    margin, flags, extras = block.row(k)
    return {"index": lo + j, "inputs": rows.instances([k])[0],
            "margin_double": margin, "flags": flags, "extras": extras,
            "margin_kind": c.margin_kind}


def _chunks(n: int, workers: int):
    size = max(1, -(-n // workers))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def run_campaign(campaign: Campaign) -> dict:
    """Execute a campaign; returns the JSON-ready report.

    The samples are split into one chunk per worker (_run_range), and
    _merge joins the chunks' aggregates.  The report is byte-deterministic
    given the campaign (wall_time_s is attached by the CLI envelope, not
    here).
    """
    t0 = time.perf_counter()
    rules = RULES[campaign.target]
    workers = _worker_count(os.environ.get(THREADS_ENV))
    spans = _chunks(campaign.samples, workers)
    cj = campaign.to_json()
    if len(spans) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_range, [cj] * len(spans),
                                  [s[0] for s in spans],
                                  [s[1] for s in spans]))
    else:
        parts = [_run_range(cj, lo, hi) for lo, hi in spans]
    report = _merge(campaign, parts)
    if rules.pinned is not None:
        pinned = replay_witness({"inputs": dict(rules.pinned)})
        report["pinned_instance"] = {k: v for k, v in pinned.items()
                                     if k not in ("index", "margin_kind")}
    report["elapsed_s"] = time.perf_counter() - t0
    return report


def _merge(campaign: Campaign, parts: list) -> dict:
    """The report of the chunks ``parts`` of [0, samples), in index order.

    The chunks' returned candidates, joined in order, begin with the
    campaign's first witness_cap candidates: the reported witnesses.
    Reported witnesses carry their 60-digit margins, so they and the
    arg-min always run confirm, as do the candidates no bound settled; a
    chunk counted the rest, and the returned ones with a status are
    counted by it.
    """
    drawn = sum(p["drawn"] for p in parts)
    rejected = sum(p["rejected"] for p in parts)
    counted = sum(p["counted"] for p in parts)
    min_margin = math.inf
    argmin = None
    n_confirmed = 0
    demotions = {}
    rows = []
    for p in parts:  # chunk order == index order: deterministic merge
        if p["argmin"] is not None and p["min_margin"] < min_margin:
            min_margin = p["min_margin"]
            argmin = p["argmin"]
        rows.extend(zip(p["candidates"], p["statuses"]))
        n_confirmed += p["confirmed"]
        for name, n in p["demotions"].items():
            demotions[name] = demotions.get(name, 0) + n

    head = [cand for cand, _ in rows[:campaign.witness_cap]]
    reported = {c["index"] for c in head}
    if argmin is not None:
        reported.add(argmin[0])
    witnesses = {}
    for cand, status in rows:
        if cand["index"] in reported or status is None:
            w = witnesses[cand["index"]] = confirm(cand)
            status = w["confirmed"], w["demotion"]
        n_confirmed += status[0]
        if status[1]:
            demotions[status[1]] = demotions.get(status[1], 0) + 1

    kept = [witnesses[c["index"]] for c in head]
    if argmin is not None and argmin[0] in witnesses \
            and all(w["index"] != argmin[0] for w in kept):
        hit = [witnesses[argmin[0]]]
        kept = kept[:-1] + hit if len(kept) >= campaign.witness_cap \
            else kept + hit

    return {
        "campaign": campaign.to_json(),
        "counts": {"drawn": drawn, "counted": counted, "rejected": rejected},
        "min_margin": min_margin,
        "argmin": None if argmin is None else
            {"index": argmin[0], "inputs": argmin[1]},
        "witness_stats": {"candidates": sum(p["found"] for p in parts),
                          "confirmed": n_confirmed,
                          "demotions": demotions,
                          "reported": len(kept)},
        "witnesses": kept,
        "outcome": "confirmed witness" if n_confirmed else
            f"no violation found at {counted} samples",
        "tolerances": {"candidate_threshold": CANDIDATE_THRESHOLD,
                       "confirm_threshold": CONFIRM_THRESHOLD},
    }


def replay_witness(witness: dict) -> dict:
    """Re-evaluate one serialized witness; margins must reproduce exactly."""
    margin, flags, extras = evaluate_instance(
        witness["inputs"], witness.get("margin_kind", "refined"))
    cand = {"index": witness.get("index", -1), "inputs": witness["inputs"],
            "margin_double": margin, "flags": flags, "extras": extras,
            "margin_kind": witness.get("margin_kind", "refined")}
    if margin < CANDIDATE_THRESHOLD:
        return confirm(cand)
    cand.update(confirmed=False, demotion=None,
                margin_confirmed=digits(margin),
                margin_confirmed_double=margin)
    return cand


# ---------------------------------------------------------------------------
# Per-lambda profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaProfile:
    """Margin of the per-lambda bound along a grid over (0, 1)."""

    points: tuple  # ((lam, margin), ...)
    argmin_lambda: float
    min_margin: float
    factor_decreasing: bool

    def to_json(self) -> dict:
        return {"points": [{"lambda": t, "margin": m} for t, m in self.points],
                "argmin_lambda": self.argmin_lambda,
                "min_margin": self.min_margin,
                "factor_decreasing": self.factor_decreasing}


def lambda_profile(f, h, A: SymmetricMatrix, x: UnitVector,
                   grid: int = 257) -> LambdaProfile:
    """Sweep the per-lambda margin over interior lambda points.

    Also reports whether h(lam)/lam is nonincreasing across the grid — the
    hypothesis under which the half-bound factor is claimed optimal.
    """
    if not 1 <= grid <= SWEEP_GRID_CAP:
        raise ValueError(f"grid must be between 1 and {SWEEP_GRID_CAP}, "
                         f"got {grid}")
    lams = np.linspace(0.0, 1.0, grid + 2)[1:-1]
    refuse = Refusals(grid)
    factors = jensen_factor("per-lambda", h, lams,
                            lambda h, t: evaluate_rows(h, t, refuse),
                            np.asarray, None)
    if not refuse.ok[0]:  # the first point raises before its spectral step
        refuse.raise_first()
    one = Refusals(1)  # one spectral row, against the grid's factors
    lhs, rhs, _ = jensen_rows(f, Spectra.of(A, x), factors, one)
    one.raise_first()
    refuse.raise_first()
    margins = rhs - lhs
    k = int(np.argmin(margins))
    decreasing = bool(np.all(np.diff(factors) <= 1e-15))
    return LambdaProfile(tuple(zip(lams.tolist(), margins.tolist())),
                         float(lams[k]), float(margins[k]), decreasing)
