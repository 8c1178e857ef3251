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
certificates or a dense-matrix instance, and every candidate whose margin
lies within its rounding-error bound (see margin_bound) of 0 or of -1e-6.
The rest are clear-cut: the bound proves which side of both edges the
exact margin lies on, so their status is the one confirm would give, and
they are counted without the mpmath re-evaluation.

Determinism: sample i derives its own counter-based stream from
(seed, i), so reports are byte-identical for a fixed seed regardless of
chunking or the HCONVEXLAB_THREADS worker count.  Samplers draw
constructively inside the beta-dependent membership intervals (using the
fact that the interval's lower end is monotone in the spread target, a
draw with smaller actual spread stays feasible); the post-hoc flags remain
the single source of truth and rejected draws are counted exactly:
drawn = counted + rejected.

Block drawing: a campaign draws BLOCK_SIZE samples at a time, each from
a generator of its own.  A target's sampler is a sequence of steps, each
one Generator call and the transforms around it, and a block runs them
stage by stage.  A step's Generator call is made row by row, from the
sample's own stream and only for the rows that passed the step's check:
rng.random() for a scalar uniform, rng.integers for the size n (or dim),
then the vector uniforms and the standard exponentials or normals.  Its
transforms then run once over the block, as arrays grouped by n:
lo + (hi - lo) * u as Generator.uniform computes it, math's exp, log and
log1p mapped element by element, the gate interval (the gate family's
core in numpy ops, as TripleRule.gate_rows computes it), Dirichlet
weights and unit vectors.  A row is refused where drawing the sample on
its own would raise (numpy's uniform refuses a negative, -0.0 or
non-finite hi - lo), and its stream is left where that draw left it when
it raised; a unit vector is drawn again in place.  _draw and
draw_instance are a block of one, which raises what refused its row.

Block evaluation: in doubles, an operator or chain target's margin is its
kernel (opcalc.jensen_rows, refined.chain_rows) over a block's columns as
the draw left them, skipping refused rows; best-possible and certificates
evaluate rows one at a time.  Either returns a Block: margins and
acceptance as arrays, flags and extras dicts built only for the rows a
report keeps.  Instance dicts reach the same kernels through
_instance_rows, a dense matrix or odd lists as a row of its own, so
replay, the CLI and tests run what campaigns run.  A row the kernel
refuses raises, when asked for, what its evaluation on its own raises.
A sample whose first draw is refused, fails to evaluate or is infeasible
draws on from where that draw left its stream, in the per-sample retry
loop run over all such samples of a block at once: each round draws the
samples still open as a block and evaluates their draws as one.  It
counts all of their draws; any other sample counts one.

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
A target's rules (region defaults and checks, sampler, margin function,
feasibility rule, error bound) are its RULES record.  The margin function
takes its arithmetic as an argument: campaigns and replay run it in
doubles, and confirm runs the same terms at 60 digits.
"""

from __future__ import annotations

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
from numpy.random import Generator, Philox

from .convexity import GRID_CELL_CAP, SWEEP_GRID_CAP, certify
from .errors import ConfigError, EmptyRegion, HConvexLabError
# gate_interval, jensen_verify and the chain functions are imported for the
# benchmark's trace points (perfbench/jobs.py SPAN_POINTS), which look them
# up here
from .funclib import (  # noqa: F401
    TRIPLE_NAMES, TRIPLES, Refusals, ScalarFunction, check_triple, core_array,
    evaluate_rows, gate_interval, make_triple, scalar_function, triple_rows,
)
from .highprec import (
    DPS, closed_form_jcoeff, digits, hp_chain_margins, hp_jensen_margin,
)
from .opcalc import (  # noqa: F401
    DIM_CAP, Spectra, SymmetricMatrix, UnitVector, _clamp_rows, _dots,
    jensen_factor, jensen_rows, jensen_verify, within_slack,
)
from .refined import (  # noqa: F401
    CHAINS, N_CAP, ChainReport, WeightedSample, _overall, amgm_chain,
    chain_rows, chrystal_chain, hm_chain, kyfan_chain, sample_columns,
)

CANDIDATE_THRESHOLD = -1e-10
CONFIRM_THRESHOLD = -1e-6
RETRY_CAP = 512
# samples drawn, then evaluated by the target's kernel at once; one block
# of instances and their arrays is held at a time
BLOCK_SIZE = 256
# the largest campaign: its report, candidates and wall time stay bounded
SAMPLES_CAP = 2 ** 20
WITNESS_CAP = 32
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
        if not 0 <= int(self.witness_cap):
            raise ConfigError("witness_cap must be a nonnegative count")
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
                                hi=10_000 if key == "n" else 64)
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


def _stream(seed: int, index: int) -> Generator:
    """Independent counter-based stream for sample `index`."""
    return Generator(Philox(key=seed, counter=index << 128))


class _Streams:
    """The streams of _stream from a reused pool of generators.

    Resetting a Philox state to (key=seed, counter=index << 128) with an
    empty buffer yields the same draws as a new Philox and costs a tenth
    as much: the state holds Python ints, which the setter reads faster
    than numpy's.
    """

    def __init__(self, seed: int):
        state = Philox(key=seed).state  # counter 0, buffer empty
        self._state = {**state, "buffer": state["buffer"].tolist(),
                       "state": {k: t.tolist()
                                 for k, t in state["state"].items()}}
        self._counter = self._state["state"]["counter"]
        self._own = []  # the generators of ``many``

    def many(self, indices) -> list:
        """A generator for each of the streams ``indices``, at its start:
        each is a Philox of its own, so they can be used side by side.  The
        next call resets them."""
        while len(self._own) < len(indices):
            self._own.append(Generator(Philox(key=0)))  # state set below
        for rng, index in zip(self._own, indices):
            self._counter[2] = index  # the setter copies the state
            rng.bit_generator.state = self._state
        return self._own[:len(indices)]


# ---------------------------------------------------------------------------
# Per-target samplers (constructive: draws land inside the feasible set)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Step:
    """One Generator call of a draw and the transforms around it.

    ``call`` names the Generator method: "random" for uniforms,
    "integers" for the size n drawn from region[key], or
    "standard_exponential" and "standard_normal".  The step draws per_n * n
    values of a sample, or one (a scalar) when per_n is 0.  check(rows,
    region) runs before the call and apply(rows, region, variates) after
    it; either refuses the rows where the draw on its own raises.  A
    refused row of a ``redraw`` step draws again instead.
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
    value a list of (rows, n, matrix) groups of one size n (a later group
    holds a row over an earlier one), and ``region`` the values all rows
    share.  As Refusals, it refuses the rows whose draw on its own raises,
    with what it raises in ``errors`` (None: a row that draws again).
    ``insts`` holds the rows' instance dicts by row: all of them for rows
    read from dicts, of which ``single`` lists those the arrays do not
    hold, and those built so far for drawn rows."""

    def __init__(self, size: int, region: dict | None = None):
        super().__init__(size)
        self.size = size
        self.values = {}
        self.ends = {}  # a uniform's (lo, hi - lo), from its check
        self.sizes = None  # each row's n
        self.target = None
        self.region = region or {}
        self.insts = {}
        self.single = []

    refuse = Refusals.__call__

    @property
    def refused(self) -> np.ndarray:
        return ~self.ok

    def __getitem__(self, name):
        return self.values[name]

    def __setitem__(self, name, value):
        self.values[name] = value

    def groups(self) -> list:
        """(rows, n) of the rows the arrays hold, neither refused nor
        single, by their size n."""
        live = self.ok.copy()
        live[self.single] = False
        return [(np.flatnonzero(live & (self.sizes == n)), n)
                for n in sorted(set(self.sizes[live].tolist()))]

    def vectors(self, name: str, ks: np.ndarray, n: int) -> np.ndarray:
        """The (rows ks, n) matrix of the vector value ``name``; rows ks
        are all of size n."""
        out = np.empty((self.size, n))
        for group, size, m in self.values[name]:
            if size == n:
                out[group] = m
        return out[ks]

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
        (math's exp, log and log1p, a chain's gate_value, **).  A row where
        it raises is refused and reads nan; region constants (Python
        floats) are mapped once."""
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


def _at(x, ks):
    """A value of rows ks as a column against their vectors."""
    return x[ks, None] if isinstance(x, np.ndarray) else x


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
        parts = (name,) if isinstance(name, str) else name
        for j, part in enumerate(parts):
            rows[part] = [(ks, n, _at(lo, ks) + _at(span, ks)
                           * m[:, j * n:(j + 1) * n]) for ks, n, m in u]
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
        weights = []
        for ks, n, e in exponentials:
            acc = 0.0
            for j in range(n):
                acc = acc + e[:, j]
            rows.refuse(acc == 0.0, lambda j: ZeroDivisionError(
                "float division by zero"), ks)
            weights.append((ks, n, e * (1.0 / acc)[:, None]))
        rows[name] = weights
    return _Step("standard_exponential", apply, 1)


def _unit_vector(name: str) -> _Step:
    """standard_normal(dim) over its norm, drawn again while the norm is at
    most 1e-6; the norm is np.linalg.norm's, math.sqrt(x.dot(x)).  A row
    drawn again adds a later group, which _listed reads over the earlier."""
    def apply(rows, region, normals):
        units = []
        for ks, n, x in normals:
            norm = np.sqrt(_dots(x, x))
            rows.refuse(~(norm > 1e-6), None, ks)
            units.append((ks, n, x / norm[:, None]))
        rows[name] = rows.values.get(name, []) + units
    return _Step("standard_normal", apply, 1, redraw=True)


def _mean_chain_sampler(chain: str) -> Sampler:
    """kyfan and amgm: values uniform on the gate interval [g(v), v]."""
    gate = TRIPLES[chain].gate_value

    def ends(rows, region):
        # g(v), which the kernel's flags read again
        rows["gv"] = rows.map(gate, rows["v"], rows["alpha"])
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
        names, columns = [], []
        for name in self.fields:
            if name in rows.values:
                columns.append(_listed(rows[name], ks))
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


def _listed(value, ks) -> list:
    """A value at rows ks as Python floats and ints, a list per row for a
    vector; a vector's groups list their rows in increasing order."""
    ks = np.asarray(ks, dtype=np.int64)
    if isinstance(value, np.ndarray):
        return value[ks].tolist()
    out = [None] * ks.size
    for group, _, m in value:  # none is empty
        at = np.minimum(np.searchsorted(group, ks), group.size - 1)
        hit = group[at] == ks
        for j, row in zip(np.flatnonzero(hit).tolist(), m[at[hit]].tolist()):
            out[j] = row
    return out


def _draw_staged(rngs: list, target: str, region: dict) -> _Rows:
    """The target's sampler over a block whose row k draws from rngs[k],
    stage by stage: a step's Generator call is made only for the rows that
    passed its check and every earlier step, so a refused row's stream is
    left where its draw on its own left it when it raised.  A unit vector a
    row refuses is drawn again."""
    rows = _Rows(len(rngs), region)
    rows.target = target
    with np.errstate(all="ignore"):
        for step in RULES[target].draw.steps(region):
            if step.check is not None:
                step.check(rows, region)
            live = np.flatnonzero(rows.ok)
            while True:
                step.apply(rows, region, _call(step, rngs, live, rows, region))
                if not step.redraw:
                    break
                live = live[~rows.ok[live]]
                if not live.size:
                    break
                rows.ok[live] = True
                for k in live.tolist():
                    del rows.errors[k]
    return rows


def _call(step: _Step, rngs: list, live: np.ndarray, rows: _Rows,
          region: dict):
    """The variates of the step's Generator call, made from rngs[k] for
    the rows ``live``, in the form its apply takes; other rows read nan
    (size: the smallest n) and are left out of the vectors' groups."""
    if step.call == "integers":
        lo, hi = region[step.key]
        sizes = np.full(rows.size, lo, dtype=np.int64)
        sizes[live] = [int(rngs[k].integers(lo, hi + 1))
                       for k in live.tolist()]
        return sizes
    if not step.per_n:
        u = np.full(rows.size, math.nan)
        u[live] = [rngs[k].random() for k in live.tolist()]
        return u
    sizes = rows.sizes[live]
    return [(ks, n, np.array([getattr(rngs[k], step.call)(step.per_n * n)
                              for k in ks.tolist()]))
            for n in sorted(set(sizes.tolist()))
            for ks in (live[sizes == n],)]


def _drawn(rows: _Rows, ks) -> list:
    """(instance, gate) of rows ks: gate is the closed gate interval
    (g(v), v) an operator draw drew the spectrum in, else None."""
    gates = list(zip(rows["gate"][ks].tolist(), rows["v"][ks].tolist())) \
        if "gate" in rows.values else [None] * len(ks)
    return list(zip(rows.instances(ks), gates))


def _draw(rng: Generator, target: str, region: dict):
    """(instance, gate) of _drawn: the target's sampler on a block of one;
    it raises what refused the row."""
    rows = _draw_staged([rng], target, region)
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
    drawn = draw_instance(_stream(0, 0), target, RULES[target].region)
    like = {**dict.fromkeys(RULES[target].draw.fields, 0.0), **drawn}
    if "diag" in drawn:
        like["entries"] = [[0.0]]
    return like, tuple(k for k in drawn if k not in ("n", "dim"))


# ---------------------------------------------------------------------------
# Per-target margin functions.  In doubles each is an array kernel over a
# block of rows (_Rows): a campaign's drawn block as the draw left it, or
# instance dicts read by _instance_rows.  With hp it gives the same terms
# at 60 digits, one instance at a time.  Campaigns, replay and confirm all
# run them.
# ---------------------------------------------------------------------------

# what a draw or an evaluation may raise for an instance that is data
_REJECTED = (ValueError, ArithmeticError, HConvexLabError)


class Block:
    """The double evaluation of a block of rows (_Rows) of one target.

    ``margin`` and ``accepted`` (evaluated, and feasible) are arrays over
    the rows.  ``row(k)`` is what evaluate_instance returns for row k: the
    flags and extras dicts are built only then, and it raises what
    evaluating the row raised.  A kernel fills rows from arrays (``fill``);
    best-possible, certificates and the 60-digit path evaluate rows one at
    a time (``single``).
    """

    def __init__(self, size: int, extras: Callable | None = None):
        self.margin = np.full(size, math.nan)
        self.accepted = np.zeros(size, dtype=bool)
        self.flags = {}  # flag name -> bool array over the rows
        self.columns = {}  # what ``extras(columns, k)`` reads
        self._extras = extras
        self._single = {}  # row -> (margin, flags, extras) or exception

    @classmethod
    def single(cls, rows: _Rows, evaluate: Callable,
               feasible: Callable | None = None) -> "Block":
        """Every row that is not refused by ``evaluate(inst)``, one at a
        time (see run)."""
        block, ks = cls(rows.size), np.flatnonzero(rows.ok).tolist()
        for k, inst in zip(ks, rows.instances(ks)):
            block.run(k, lambda: evaluate(inst), feasible)
        return block

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

    def run(self, k: int, evaluate: Callable,
            feasible: Callable | None = None) -> None:
        """Row k by ``evaluate()``, which returns (margin, flags, extras);
        with ``feasible`` (flags -> bool) the row also enters the arrays."""
        try:
            result = self._single[k] = evaluate()
        except _REJECTED as exc:
            self._single[k] = exc
            return
        if feasible is not None:
            self.margin[k] = result[0]
            self.accepted[k] = feasible(result[1])

    def row(self, k: int):
        if k in self._single:
            result = self._single[k]
            if isinstance(result, BaseException):
                raise result
            return result
        return (float(self.margin[k]),
                {name: bool(col[k]) for name, col in self.flags.items()},
                self._extras(self.columns, k))


def _as_row(value, cap: int) -> np.ndarray | None:
    """A list of 1 to cap numbers as a (1, n) float array; None for any
    other value."""
    if type(value) is not list or not 1 <= len(value) <= cap:
        return None
    try:
        out = np.array([value], dtype=float)
    except (TypeError, ValueError):
        return None
    return out if out.ndim == 2 else None


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
    block = _evaluate_chain(_instance_rows(insts), "refined")
    name = RULES[insts[0]["target"]].chain
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


def _evaluate_chain(rows: _Rows, margin_kind: str, hp=False):
    rules = RULES[rows.target]
    name, chain = rules.chain, CHAINS[rules.chain]
    if hp:
        def hp_margin(inst):
            m1, m2 = hp_chain_margins(name, inst, _matrix(inst).entries
                                      if chain.spectral else None)
            return (m1 + m2) if margin_kind == "outer" else min(m1, m2), \
                None, {}
        return Block.single(rows, hp_margin)
    block = Block(rows.size, _chain_extras)
    numbers = [key for key in ("alpha", "v", "gv", "p") if key in rows.values]
    for ks, n in rows.groups():
        refuse = Refusals(ks.size)
        c = {key: rows[key][ks] for key in numbers}
        if chain.spectral:
            c["spectra"] = Spectra.diagonal(rows.vectors("diag", ks, n),
                                            rows.vectors("x", ks, n), refuse)
        else:
            for key in ("a", "b", "q") if chain.paired else ("a", "q"):
                c[key] = rows.vectors(key, ks, n)
        _chain_fill(block, name, ks, n, c, refuse, margin_kind)
    for k in rows.single:  # read from the dict: a dense matrix, odd lists
        inst, ks = rows.insts[k], np.array([k])
        c = {key: rows[key][ks] for key in numbers}
        try:
            if chain.spectral:
                A = _matrix(inst)
                c["spectra"], n = Spectra.of(A, UnitVector(inst["x"])), A.dim
            else:
                sample = WeightedSample(
                    tuple(inst["a"]), tuple(inst["q"]),
                    b=tuple(inst["b"]) if inst.get("b") else None)
                c.update(sample_columns(name, sample))
                n = sample.n
        except _REJECTED as exc:
            block.fill(ks, math.nan, {}, False, {0: exc})
            continue
        _chain_fill(block, name, ks, n, c, Refusals(1), margin_kind)
    return block


def _chain_fill(block: Block, name: str, ks: np.ndarray, n: int, c: dict,
                refuse: Refusals, margin_kind: str) -> None:
    """Fill the rows ks of the block with chain_rows over their columns."""
    out = chain_rows(name, c, refuse)
    flags = out.pop("flags")
    with np.errstate(all="ignore"):
        margin = out["rhs"] - out["lhs"] if margin_kind == "outer" \
            else np.where(out["m2"] < out["m1"], out["m2"], out["m1"])
    block.fill(ks, margin, flags, out["feasible"], refuse.errors, n=n, **out)


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
    """The region of an operator row's array group (its triple, and its
    weight as the kernel reads it); None for a parsed matrix."""
    identity = inst.get("weight") == "identity_weight"
    return None if "matrix" in inst else (
        ("triple", inst.get("triple")),
        ("weight", "identity_weight" if identity else "exp_weight"))


def _evaluate_operator(rows: _Rows, margin_kind: str, hp=False):
    rules = RULES[rows.target]
    if hp:
        def hp_margin(inst):
            name, alpha, beta = inst["triple"], inst["alpha"], inst["beta"]
            check_triple(name, alpha, beta, _OPERATOR_P)
            identity = inst.get("weight") == "identity_weight"
            h = scalar_function("identity_weight") if identity else \
                ScalarFunction("exp_weight", {"alpha": alpha, "beta": beta})
            A, x = _matrix(inst), UnitVector(inst["x"])
            return hp_jensen_margin(_operator_f(name), h, A.entries,
                                    x.components, rules.mode,
                                    lam=inst.get("lam")), None, {}
        return Block.single(rows, hp_margin)
    block = Block(rows.size, _operator_extras)
    for ks, n in rows.groups():
        _operator_fill(block, rows, ks, rows.region, rules.mode,
                       lambda refuse: Spectra.diagonal(
                           rows.vectors("diag", ks, n),
                           rows.vectors("x", ks, n), refuse))
    for k in rows.single:  # read from the dict: a dense matrix, odd lists
        inst = rows.insts[k]
        _operator_fill(block, rows, np.array([k]), inst, rules.mode,
                       lambda refuse: Spectra.of(_matrix(inst),
                                                 UnitVector(inst["x"])))
    return block


def _operator_fill(block: Block, rows: _Rows, ks: np.ndarray, region: dict,
                   mode: str, spectra: Callable) -> None:
    """Fill the rows ks of the block, of the triple and weight of
    ``region``, with jensen_rows; spectra(refuse) builds their Spectra.
    The checks run in jensen_verify's order: the triple's parameters, the
    matrix and vector, lambda, the spectrum, then the gate."""
    name = region["triple"]
    alpha, beta, v = (rows[key][ks] for key in ("alpha", "beta", "v"))
    refuse = Refusals(ks.size)
    try:
        if "gate" not in rows.values:  # read from dicts: the draw's checks
            triple_rows(name, alpha, beta, _OPERATOR_P, refuse)
        s = spectra(refuse)
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
    f = _operator_f(name)
    h = SimpleNamespace(
        family="identity_weight" if region.get("weight") == "identity_weight"
        else "exp_weight", params={"alpha": alpha, "beta": beta})
    with np.errstate(all="ignore"):
        factor = jensen_factor(
            mode, h, lam, lambda h, t: core_array(h.family, h.params, t),
            np.asarray, lambda: closed_form_jcoeff(h, np.asarray))
        lhs, rhs, expectation = jensen_rows(f, s, factor, refuse)
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


def _evaluate_best_possible(rows: _Rows, margin_kind: str, hp=False):
    """Rows one at a time: each is a few scalar operations."""
    if hp:
        def hp_margin(inst):
            with mp.workdps(DPS):
                lhs, factor, reduced, full = _best_possible_terms(
                    *(mp.mpf(inst[k]) for k in ("a", "beta", "lam")), mp)
                margin, full_margin = factor * reduced - lhs, \
                    factor * full - lhs
            return margin, None, {
                "functional_calculus_margin_confirmed": digits(full_margin)}
        return Block.single(rows, hp_margin)
    return Block.single(rows, _best_possible_row,
                        RULES["best-possible"].feasible)


def _evaluate_certificates(rows: _Rows, margin_kind: str, hp=False):
    """Rows one at a time: each is a grid certification already."""
    def certificate(inst):
        triple = make_triple(inst["triple"], inst["alpha"], inst["beta"],
                             p=inst.get("p"))
        cert = certify(triple.f, triple.g, triple.h, inst["v"],
                       grid=tuple(inst["grid"]))
        if hp:  # min_value is already the 60-digit gap at the arg-min
            return cert.min_value, None, {}
        flags = {"params_in_range": True, "gate_feasible": True}
        return cert.min_value, flags, {
            "verdict": cert.verdict, "gate_degenerate": cert.gate.degenerate,
            "arg_min": {"u": cert.arg_min[0], "lambda": cert.arg_min[1]}}
    return Block.single(rows, certificate,
                        None if hp else RULES["certificates"].feasible)


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
    rows whose lists are numbers, of one length n (at most the layout's
    cap), in the region (``key``) of the first such row.  The other rows
    are ``single``: the kernel reads their lists from their dicts."""
    rows = _Rows(len(insts))
    rows.target, rows.insts = insts[0]["target"], dict(enumerate(insts))
    if RULES[rows.target].layout is None:
        return rows
    vectors, numbers, cap, key = RULES[rows.target].layout
    rows.sizes = np.zeros(rows.size, dtype=np.int64)
    for name in numbers:
        rows[name] = np.array([float(inst[name]) for inst in insts])
    for name in vectors:
        rows[name] = []
    region = None
    for k, inst in enumerate(insts):
        group = key(inst)
        ms = [_as_row(inst.get(name), cap) for name in vectors]
        sizes = {None if m is None else m.shape[1] for m in ms}
        if group is None or region not in (None, group) or None in sizes \
                or len(sizes) > 1:
            rows.single.append(k)
            continue
        region, rows.sizes[k] = group, sizes.pop()
        for name, m in zip(vectors, ms):
            rows[name].append((np.array([k]), m.shape[1], m))
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
    hp_margin, _, hp_extras = rules.evaluate(
        _instance_rows([candidate["inputs"]]),
        candidate.get("margin_kind", "refined"), hp=True).row(0)
    margin_f = float(hp_margin)
    sign_agrees = (margin_f < 0.0) == (candidate["margin_double"] < 0.0)
    out = dict(candidate, extras={**candidate.get("extras", {}), **hp_extras})
    out["margin_confirmed"] = digits(hp_margin)
    out["margin_confirmed_double"] = margin_f
    out["confirmed"], out["demotion"] = \
        _status(margin_f, rules.feasible(candidate["flags"])) \
        if sign_agrees else (False, "float-noise")
    return out


def _status(margin: float, feasible: bool):
    """(confirmed, demotion) of a margin that decides the candidate."""
    if margin >= 0.0:
        return False, "float-noise"
    if margin >= CONFIRM_THRESHOLD:
        return False, "below-threshold"
    return (True, None) if feasible else (False, "infeasible-flags")


# ---------------------------------------------------------------------------
# Rounding-error bounds on double margins
# ---------------------------------------------------------------------------

_U = 2.0 ** -53  # unit roundoff of binary64
_FN = 8 * _U  # exp, log and pow: assumed within 4 ulp of the exact value

# (k0, k1) with k0 + k1 f(t) >= |t f'(t)| on the domain of each operator
# triple's f: neglog 1; logit 1/(1-t) <= 2 on (0, 1/2]; softplus
# t*sigmoid(t) < f(t); power t^2 (p = 2 for holder_mccarthy) 2 f(t)
_F_CONDITION = {"amgm": (1.0, 0.0), "kyfan": (2.0, 0.0),
                "chrystal": (1.0, 1.0), "holder_mccarthy": (0.0, 2.0)}


def margin_bound(candidate: dict) -> float | None:
    """B >= |margin_double - M|, or None where no bound is derived.

    M is the exact margin of the candidate's own double inputs, the value
    confirm evaluates at 60 digits.  B follows the double evaluation step
    by step, to first order in u = 2^-53, under the standard model
    fl(a op b) = (a op b)(1 + d), |d| <= u, with exp, log and pow within
    8u of the exact value of their argument.  The first-order sum is
    doubled; that covers the second-order terms, the rounding of B itself
    and the 60-digit value's own error.  Facts used throughout:

    * n nonnegative products summed in any order (BLAS included) carry a
      relative error of (n+1)u; a sum of n terms of mixed sign an
      absolute error of (n-1)u times the sum of their magnitudes.
    * A log-sum L = sum q_i log(arg_i) whose terms have |log arg_i| <= T
      and whose arguments are rounded at most twice is off by
      dL = (n+8)u T + 3u.  log is monotone in each value, so T is read at
      the smallest and the largest value.
    * exp(y) with y off by dy is off by a relative dy + 8u: the
      conditioning of exp is |y|, carried in dy.
    * r = alpha/beta, beta = alpha + gamma, gamma one rounded difference:
      relative error 3u.
    * fl(a - b) is off by da + db + u|a - b|; min of two margins by the
      larger of their bounds; the outer margin fl(rhs - lhs) by
      drhs + dlhs + u|margin|.

    Operator targets with a diagonal A = diag(d), unit x and factor c:
    the spectrum lies in f's domain, inside [0, inf), where f >= 0 for all
    four triples, so every term of <Ax,x> and <f(A)x,x> is nonnegative.
    The weights x_i^2 of the double path differ from confirm's normalised
    x_i^2/|x|^2 by a relative w = |fl(|x|^2) - 1| + (3n+9)u, whether or
    not UnitVector renormalised x.  With e = (n+1)u + w, f's closed form
    off by at most 10u(1 + |f|) at an exact argument (one elementary
    function, at most two roundings inside it) and k >= |t f'(t)|:

        dE   = e E + 10u(1 + E)                      E = <f(A)x,x>
        dlhs = k e + 10u(1 + lhs)                    lhs = f(<Ax,x>)
        dc   = 13u c     (per-lambda's h(lam)/lam: five roundings, one exp)
        B    = 2 (c dE + dc E + u rhs + dlhs + u|margin|)

    holder-mccarthy (same weights; lhs = qf^p, mid = r apx, rhs = apx):
    drhs = (e + 8u) rhs, dlhs = (p e + 8u) lhs, dmid = (e + 12u) mid.

    kyfan (L = sum q log((1-a)/a)): dlhs = (2n+2)u lhs for the ratio of
    two positive sums, dmid = mid (r dL + 4u r T + 8u), drhs = rhs (dL + 8u).
    amgm (L = sum q log a): dlhs = lhs (dL + 8u), dmid as kyfan, drhs =
    n u rhs.  chrystal (L_a, L_b, L_ab; s = r - 1 off by 3u r + u|s|):
    dlhs = lhs (max(dL_a, dL_b) + 9u), drhs = rhs (dL_ab + 8u) and
    dmid = mid (dy + 8u) with y = r L_ab - s L_b off by
    dy = r dL_ab + 4u r T_ab + |s| dL_b + (3u r + 2u|s|) T_b
         + u (r T_ab + |s| T_b).

    best-possible, certificates and dense (``entries``) instances get None.
    """
    bound = RULES[candidate["inputs"]["target"]].bound
    return None if bound is None else bound(candidate)


def _operator_bound(candidate: dict) -> float | None:
    inst, extras = candidate["inputs"], candidate["extras"]
    if "diag" not in inst:
        return None
    e = _weight_error(inst["x"])
    c, expect = extras["rhs_factor"], extras["expectation"]
    lhs, rhs = extras["lhs"], extras["rhs"]
    k0, k1 = _F_CONDITION[inst["triple"]]
    d_expect = e * expect + 10 * _U * (1.0 + expect)
    d_lhs = (k0 + k1 * lhs) * e + 10 * _U * (1.0 + lhs)
    return 2.0 * (c * d_expect + 13 * _U * c * expect + _U * rhs + d_lhs
                  + _U * abs(candidate["margin_double"]))


def _chain_bound(candidate: dict, d_lhs: float, d_mid: float,
                 d_rhs: float) -> float:
    """The margin's bound from the bounds on the three chain terms."""
    if candidate.get("margin_kind") == "outer":
        return 2.0 * (d_rhs + d_lhs + _U * abs(candidate["margin_double"]))
    m1, m2 = candidate["extras"]["margins"]
    return 2.0 * max(d_mid + d_lhs + _U * abs(m1),
                     d_rhs + d_mid + _U * abs(m2))


def _tempered_log_error(candidate: dict, log):
    """(n, dL, dmid) for kyfan and amgm, whose L sums q log(...) over a."""
    a = candidate["inputs"]["a"]
    extras = candidate["extras"]
    r = candidate["inputs"]["alpha"] / extras["beta"]
    t = _log_extent(a, log)
    d_l = _log_sum_error(len(a), t)
    return len(a), d_l, extras["chain"][1] * (r * d_l + 4 * _U * r * t + _FN)


def _kyfan_bound(candidate: dict) -> float:
    lhs, _, rhs = candidate["extras"]["chain"]
    n, d_l, d_mid = _tempered_log_error(
        candidate, lambda t: math.log((1.0 - t) / t))
    return _chain_bound(candidate, (2 * n + 2) * _U * lhs, d_mid,
                        rhs * (d_l + _FN))


def _amgm_bound(candidate: dict) -> float:
    lhs, _, rhs = candidate["extras"]["chain"]
    n, d_l, d_mid = _tempered_log_error(candidate, math.log)
    return _chain_bound(candidate, lhs * (d_l + _FN), d_mid, n * _U * rhs)


def _chrystal_bound(candidate: dict) -> float:
    inst, extras = candidate["inputs"], candidate["extras"]
    lhs, mid, rhs = extras["chain"]
    a, b, n = inst["a"], inst["b"], len(inst["a"])
    r = inst["alpha"] / extras["beta"]
    t_a, t_b = _log_extent(a, math.log), _log_extent(b, math.log)
    t_ab = _log_extent([x + y for x, y in zip(a, b)], math.log)
    d_la, d_lb, d_lab = (_log_sum_error(n, t) for t in (t_a, t_b, t_ab))
    s = abs(r - 1.0)
    d_y = (r * d_lab + 4 * _U * r * t_ab + s * d_lb
           + (3 * _U * r + 2 * _U * s) * t_b
           + _U * (r * t_ab + s * t_b))
    return _chain_bound(candidate, lhs * (max(d_la, d_lb) + _FN + _U),
                        mid * (d_y + _FN), rhs * (d_lab + _FN))


def _holder_mccarthy_bound(candidate: dict) -> float:
    inst = candidate["inputs"]
    lhs, mid, rhs = candidate["extras"]["chain"]
    e = _weight_error(inst["x"])
    return _chain_bound(candidate, (inst["p"] * e + _FN) * lhs,
                        (e + 12 * _U) * mid, (e + _FN) * rhs)


def _weight_error(x) -> float:
    """e = (n+1)u + w of margin_bound for a vector of n components."""
    n = len(x)
    return abs(math.fsum(t * t for t in x) - 1.0) + (4 * n + 10) * _U


def _log_extent(values, log) -> float:
    """max |log(t)| over values, read at the two extremes."""
    return max(abs(log(min(values))), abs(log(max(values))))


def _log_sum_error(n: int, extent: float) -> float:
    return (n + 8) * _U * extent + 3 * _U


def bound_status(margin: float, bound: float, feasible: bool):
    """(confirmed, demotion) that confirm gives when the exact margin lies
    within ``bound`` of ``margin``; None when it could fall either way.

    confirm rounds the 60-digit margin to a double and tests it against 0
    and CONFIRM_THRESHOLD.  The status is decided here only when
    [margin - bound, margin + bound] misses both edges by more than one
    ulp, so that rounding cannot carry the exact value across either.
    Rounding is monotone, so computing the two ends in doubles loses
    nothing.  Every point of the interval then has the status of margin.
    """
    lo, hi = margin - bound, margin + bound
    for edge in (0.0, CONFIRM_THRESHOLD):
        if lo <= math.nextafter(edge, math.inf) \
                and hi >= math.nextafter(edge, -math.inf):
            return None
    return _status(margin, feasible)


# ---------------------------------------------------------------------------
# The rule table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetRules:
    """What campaigns, replay and the CLI know of one target.  Its functions
    look up the layers they call (make_triple, the chains...) at call time."""

    region: dict  # region defaults; any other key is an error
    draw: Sampler
    # (rows, margin_kind, hp=False) -> Block: in doubles an array kernel
    # over the _Rows' columns, refused rows skipped, single ones a row of
    # their own; hp gives each row's 60-digit margin, flags None and the
    # extras confirm adds
    evaluate: Callable
    bound: Callable | None = None  # candidate -> margin_bound's B or None
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
        _evaluate_operator, _operator_bound,
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
        _evaluate_best_possible, lam_floor=0.5),
    "kyfan": TargetRules(
        {"alpha": [1.000001, 3.0], "v": [1e-4, 0.5], "n": [2, 5]},
        _mean_chain_sampler("kyfan"), _evaluate_chain, _kyfan_bound,
        _chain_layout("kyfan"), chain="kyfan"),
    "amgm": TargetRules(
        {"alpha": [1.000001, 3.0], "v": [1e-4, 1.0], "n": [2, 5]},
        _mean_chain_sampler("amgm"), _evaluate_chain, _amgm_bound,
        _chain_layout("amgm"), chain="amgm"),
    "chrystal": TargetRules(
        {"alpha": [0.01, 3.0], "v": [0.1, 3.0], "n": [2, 5]},
        Sampler(lambda region: _CHRYSTAL_STEPS,
                ("target", "alpha", "v", "n", "a", "b", "q")),
        _evaluate_chain, _chrystal_bound, _chain_layout("chrystal"),
        chain="chrystal"),
    "holder-mccarthy": TargetRules(
        {"alpha": [0.01, 3.0], "v": [0.1, 2.0], "dim": [2, 8],
         "p": [1.000001, 4.0]},
        Sampler(lambda region: _HOLDER_MCCARTHY_STEPS,
                ("target", "alpha", "v", "p", "dim", "diag", "x")),
        _evaluate_chain, _holder_mccarthy_bound,
        _chain_layout("holder_mccarthy"), chain="holder_mccarthy"),
    "certificates": TargetRules(
        {"triple": "amgm", "alpha": [1.000001, 3.0], "v": [0.05, 1.0],
         "grid": [256, 256]},
        Sampler(lambda region: _CERTIFICATES_STEPS + (
            (_CERTIFICATES_P,) if TRIPLES[region["triple"]].needs_p else ()),
            ("target", "triple", "alpha", "beta", "v", "grid", "p")),
        _evaluate_certificates),
}
TARGETS = tuple(RULES)


# ---------------------------------------------------------------------------
# Campaign execution
# ---------------------------------------------------------------------------

def _run_range(campaign_json: dict, start: int, stop: int):
    """Evaluate sample indices [start, stop); returns chunk aggregates.

    Samples are drawn BLOCK_SIZE at a time, each from its own stream, and
    each block is evaluated by the target's kernel at once, from the
    drawn columns.  The samples whose first draw is refused, fails to
    evaluate or is infeasible are drawn on from their streams by _retry,
    the per-sample loop run over them together, which counts all their
    draws; the others count one draw each.  Instance dicts are built only
    for the rows a report keeps: candidates and a new arg-min.
    """
    c = Campaign(**campaign_json)
    evaluate = RULES[c.target].evaluate
    streams = _Streams(c.seed)
    drawn = rejected = 0
    min_margin = math.inf
    argmin = None
    candidates = []
    for lo in range(start, stop, BLOCK_SIZE):
        rngs = streams.many(range(lo, min(lo + BLOCK_SIZE, stop)))
        rows = _draw_staged(rngs, c.target, c.region)
        block = evaluate(rows, c.margin_kind)
        margins = np.where(block.accepted, block.margin, math.nan)
        replayed = {}
        missing = np.flatnonzero(~block.accepted).tolist()
        for j, (tries, found) in zip(
                missing, _retry([rngs[j] for j in missing], c)):
            drawn += tries
            rejected += tries - (found is not None)
            if found is None:
                raise EmptyRegion(
                    f"{c.target}: no feasible draw after {RETRY_CAP} tries "
                    f"at sample {lo + j}",
                    drawn=drawn + int(np.count_nonzero(block.accepted[:j])),
                    rejected=rejected)
            replayed[j] = found
            margins[j] = found[1]
        drawn += int(np.count_nonzero(block.accepted))
        # NaN margins are never a candidate or the arg-min
        leaving = np.flatnonzero(margins < CANDIDATE_THRESHOLD).tolist()
        best = None
        if not np.isnan(margins).all():
            best = int(np.nanargmin(margins))  # the first of equal minima
            if margins[best] < min_margin:
                leaving = sorted({*leaving, best})
            else:
                best = None
        rows.instances([j for j in leaving if j not in replayed])
        for j in leaving:
            found = replayed.get(j) or (rows.insts[j], *block.row(j))
            if margins[j] < CANDIDATE_THRESHOLD:
                candidates.append({"index": lo + j, "inputs": found[0],
                                   "margin_double": found[1],
                                   "flags": found[2], "extras": found[3],
                                   "margin_kind": c.margin_kind})
            if j == best:
                min_margin, argmin = float(margins[j]), (lo + j, found[0])
    return {"drawn": drawn, "rejected": rejected, "min_margin": min_margin,
            "argmin": argmin, "candidates": candidates,
            "counted": stop - start}


def _retry(rngs: list, c: Campaign) -> list:
    """The per-sample loop, from its second draw on, over the samples whose
    first draw was not accepted, each drawing on from its stream ``rngs``
    where that draw left it: for each, (draws made, the first included,
    (inst, margin, flags, extras) of its first feasible draw), or
    (RETRY_CAP, None) when none of RETRY_CAP draws is.  Each round draws
    the samples still open as a staged block and evaluates it as one."""
    evaluate = RULES[c.target].evaluate
    found = [(RETRY_CAP, None)] * len(rngs)
    open_ = list(range(len(rngs)))
    for tries in range(2, RETRY_CAP + 1):
        if not open_:
            break
        rows = _draw_staged([rngs[j] for j in open_], c.target, c.region)
        block = evaluate(rows, c.margin_kind)
        done = np.flatnonzero(block.accepted).tolist()
        for k, inst in zip(done, rows.instances(done)):
            found[open_[k]] = tries, (inst, *block.row(k))
        done = set(done)
        open_ = [j for k, j in enumerate(open_) if k not in done]
    return found


def _chunks(n: int, workers: int):
    size = max(1, -(-n // workers))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def run_campaign(campaign: Campaign) -> dict:
    """Execute a campaign; returns the JSON-ready report.

    The report is byte-deterministic given the campaign (wall_time_s is
    attached by the CLI envelope, not here).
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

    drawn = sum(p["drawn"] for p in parts)
    rejected = sum(p["rejected"] for p in parts)
    counted = sum(p["counted"] for p in parts)
    min_margin = math.inf
    argmin = None
    candidates = []
    for p in parts:  # chunk order == index order: deterministic merge
        if p["argmin"] is not None and p["min_margin"] < min_margin:
            min_margin = p["min_margin"]
            argmin = p["argmin"]
        candidates.extend(p["candidates"])

    # reported witnesses carry their 60-digit margins, so they always run
    # confirm; the others take their status from the rounding-error bound
    # when it settles it
    head = candidates[:campaign.witness_cap]
    reported = {c["index"] for c in head}
    if argmin is not None:
        reported.add(argmin[0])
    witnesses = {}
    n_confirmed = 0
    demotions = {}
    for cand in candidates:
        status = None
        if cand["index"] not in reported:
            bound = margin_bound(cand)
            if bound is not None:
                status = bound_status(cand["margin_double"], bound,
                                      rules.feasible(cand["flags"]))
        if status is None:
            w = confirm(cand)
            witnesses[cand["index"]] = w
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

    report = {
        "campaign": cj,
        "counts": {"drawn": drawn, "counted": counted, "rejected": rejected},
        "min_margin": min_margin,
        "argmin": None if argmin is None else
            {"index": argmin[0], "inputs": argmin[1]},
        "witness_stats": {"candidates": len(candidates),
                          "confirmed": n_confirmed,
                          "demotions": demotions,
                          "reported": len(kept)},
        "witnesses": kept,
        "outcome": "confirmed witness" if n_confirmed else
            f"no violation found at {counted} samples",
        "tolerances": {"candidate_threshold": CANDIDATE_THRESHOLD,
                       "confirm_threshold": CONFIRM_THRESHOLD},
    }
    if rules.pinned is not None:
        pinned = replay_witness({"inputs": dict(rules.pinned)})
        report["pinned_instance"] = {k: v for k, v in pinned.items()
                                     if k not in ("index", "margin_kind")}
    report["elapsed_s"] = time.perf_counter() - t0
    return report


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
