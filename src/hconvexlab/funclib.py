"""Closed-form scalar function families and the intervals they act on.

Three roles appear throughout the library, all represented by the same
:class:`ScalarFunction` type and distinguished only by how they are used:

* weights  (Jensen-type multipliers on [0,1]):
    ``exp_weight``      h(t) = (alpha/beta) * exp(t*(1-t)),  0 < alpha <= beta
    ``power_weight``    h(t) = t**beta,                      beta > 0
    ``identity_weight`` h(t) = t
* gates  (set the lower end of the restricted interval [g(v), v]):
    ``kyfan_gate``      g(t) = t**alpha / (t**alpha + (1-t)**alpha)
    ``power_gate``      g(t) = t**alpha
    ``chrystal_gate``   g(t) = log((1+e**t)**(beta/alpha-1) - 1)
    ``root_gate``       g(t) = t * (beta/alpha - 1)**(1/p)
    ``piecewise_gate``  g(t) = 1 if t == 2 else 2
    ``cosine_gate``     g(t) = cos(4*pi*t/3)
    ``constant_gate``   g(t) = value
* targets  (the functions whose convexity-type inequalities are tested):
    ``logit``     f(t) = log((1-t)/t)        on (0, 1/2]
    ``neglog``    f(t) = -log(t)             on (0, 1]
    ``softplus``  f(t) = log(1 + e**t)       on (0, inf)
    ``power``     f(t) = t**p, p > 1         on [0, inf)
    ``cubic``     f(t) = (t-1)**3            on [0, 2]
    ``expdecay``  f(t) = e**(-t)             on [0, inf)
    plus convex/affine fixtures ``square``, ``exp``, ``abs``, ``affine``.

Parameters are validated at construction; evaluation is a pure closed form.
``chrystal_gate`` with beta == alpha is the one conceptual -inf value
(log of zero); :func:`gate_interval` clamps it back into the ambient domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, InfeasibleGate

REAL_LINE = (-math.inf, math.inf)


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed, open, or half-open real interval with explicit openness flags.

    Infinite endpoints are always open.  A degenerate interval (lo == hi)
    must be closed on both sides.
    """

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        if lo == hi and (self.lo_open or self.hi_open):
            raise ValueError("degenerate interval must be closed on both sides")
        if math.isinf(lo) and not self.lo_open:
            raise ValueError("infinite lower endpoint must be open")
        if math.isinf(hi) and not self.hi_open:
            raise ValueError("infinite upper endpoint must be open")

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, t: float) -> bool:
        if math.isnan(t):
            return False
        above = t > self.lo or (not self.lo_open and t == self.lo)
        below = t < self.hi or (not self.hi_open and t == self.hi)
        return above and below

    def contains_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        above = (ts > self.lo) if self.lo_open else (ts >= self.lo)
        below = (ts < self.hi) if self.hi_open else (ts <= self.hi)
        return above & below

    def issubset(self, other: "Interval") -> bool:
        lo_ok = self.lo > other.lo or (
            self.lo == other.lo and (self.lo_open or not other.lo_open)
        )
        hi_ok = self.hi < other.hi or (
            self.hi == other.hi and (self.hi_open or not other.hi_open)
        )
        return lo_ok and hi_ok

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection, or None when empty."""
        if self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif self.lo < other.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif self.hi > other.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return None
        return Interval(lo, hi, lo_open, hi_open)

    def to_json(self) -> dict:
        # infinite endpoints travel as strings: canonical JSON bans inf/nan
        lo = self.lo if math.isfinite(self.lo) else str(self.lo)
        hi = self.hi if math.isfinite(self.hi) else str(self.hi)
        return {"lo": lo, "hi": hi,
                "lo_open": self.lo_open, "hi_open": self.hi_open}

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


def interval(lo: float, hi: float, lo_open: bool = False,
             hi_open: bool = False) -> Interval:
    """Shorthand constructor; infinite endpoints are forced open."""
    return Interval(lo, hi, lo_open or math.isinf(lo), hi_open or math.isinf(hi))


UNIT_CLOSED = interval(0.0, 1.0)
UNIT_OPEN = interval(0.0, 1.0, lo_open=True, hi_open=True)


# ---------------------------------------------------------------------------
# Family registry
# ---------------------------------------------------------------------------

class _Ops:
    """Numpy-backed elementary operations (work on scalars and arrays)."""

    exp = staticmethod(np.exp)
    log = staticmethod(np.log)
    cos = staticmethod(np.cos)
    power = staticmethod(np.power)
    where = staticmethod(np.where)
    pi = np.pi


_NP_OPS = _Ops()


def _positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"parameter {name} must be positive, got {value}")


@dataclass(frozen=True)
class _Family:
    name: str
    param_names: tuple
    validate: Callable[[Mapping[str, float]], None]
    core: Callable  # core(params, t, ops) -> value
    max_domain: Interval
    default_domain: Interval


def _check_exp_weight(p):
    _positive("alpha", p["alpha"])
    if not p["alpha"] <= p["beta"]:
        raise ValueError("exp_weight requires 0 < alpha <= beta")


def _check_order(p):
    _positive("alpha", p["alpha"])
    if not p["alpha"] <= p["beta"]:
        raise ValueError("requires 0 < alpha <= beta")


def _check_root_gate(p):
    _check_order(p)
    if not p["p"] > 1:
        raise ValueError("root_gate requires p > 1")


def _check_power_target(p):
    if not p["p"] > 1:
        raise ValueError("power target requires p > 1")


def _chrystal_core(p, t, ops):
    expo = p["beta"] / p["alpha"] - 1.0
    arg = ops.power(1.0 + ops.exp(t), expo) - 1.0
    # beta == alpha makes arg identically 0; log(0) -> -inf by convention
    with np.errstate(divide="ignore"):
        return ops.log(arg)


_FAMILIES: dict[str, _Family] = {}


def _register(name, param_names, validate, core, max_domain, default_domain=None):
    _FAMILIES[name] = _Family(
        name, tuple(param_names), validate, core,
        max_domain, default_domain or max_domain,
    )


_register("exp_weight", ("alpha", "beta"), _check_exp_weight,
          lambda p, t, ops: (p["alpha"] / p["beta"]) * ops.exp(t * (1.0 - t)),
          interval(*REAL_LINE), UNIT_CLOSED)
_register("power_weight", ("beta",), lambda p: _positive("beta", p["beta"]),
          lambda p, t, ops: ops.power(t, p["beta"]),
          interval(0.0, math.inf), UNIT_CLOSED)
_register("identity_weight", (), lambda p: None,
          lambda p, t, ops: t * 1.0, interval(*REAL_LINE), UNIT_CLOSED)

_register("kyfan_gate", ("alpha",), lambda p: _positive("alpha", p["alpha"]),
          lambda p, t, ops: ops.power(t, p["alpha"])
          / (ops.power(t, p["alpha"]) + ops.power(1.0 - t, p["alpha"])),
          interval(0.0, 1.0, lo_open=True, hi_open=True),
          interval(0.0, 0.5, lo_open=True))
_register("power_gate", ("alpha",), lambda p: _positive("alpha", p["alpha"]),
          lambda p, t, ops: ops.power(t, p["alpha"]),
          interval(0.0, math.inf, lo_open=True),
          interval(0.0, 1.0, lo_open=True))
_register("chrystal_gate", ("alpha", "beta"), _check_order, _chrystal_core,
          interval(*REAL_LINE), interval(0.0, math.inf, lo_open=True))
_register("root_gate", ("alpha", "beta", "p"), _check_root_gate,
          lambda p, t, ops: t * ops.power(p["beta"] / p["alpha"] - 1.0, 1.0 / p["p"]),
          interval(0.0, math.inf))
_register("piecewise_gate", (), lambda p: None,
          lambda p, t, ops: ops.where(t == 2.0, 1.0, 2.0) * 1.0,
          interval(0.0, 2.0))
_register("cosine_gate", (), lambda p: None,
          lambda p, t, ops: ops.cos((4.0 * ops.pi / 3.0) * t),
          interval(0.0, 2.0))
_register("constant_gate", ("value",), lambda p: None,
          lambda p, t, ops: p["value"] + 0.0 * t, interval(*REAL_LINE))

_register("logit", (), lambda p: None,
          lambda p, t, ops: ops.log((1.0 - t) / t),
          interval(0.0, 1.0, lo_open=True, hi_open=True),
          interval(0.0, 0.5, lo_open=True))
_register("neglog", (), lambda p: None,
          lambda p, t, ops: -ops.log(t),
          interval(0.0, math.inf, lo_open=True),
          interval(0.0, 1.0, lo_open=True))
_register("softplus", (), lambda p: None,
          lambda p, t, ops: ops.log(1.0 + ops.exp(t)),
          interval(*REAL_LINE), interval(0.0, math.inf, lo_open=True))
_register("power", ("p",), _check_power_target,
          lambda p, t, ops: ops.power(t, p["p"]),
          interval(0.0, math.inf))
# the cube as a product: numpy cubes arrays by its own routine, which can
# differ by an ulp from the libm pow that ** 3 calls on a Python float
_register("cubic", (), lambda p: None,
          lambda p, t, ops: (t - 1.0) * (t - 1.0) * (t - 1.0),
          interval(*REAL_LINE), interval(0.0, 2.0))
_register("expdecay", (), lambda p: None,
          lambda p, t, ops: ops.exp(-t),
          interval(*REAL_LINE), interval(0.0, math.inf))

_register("square", (), lambda p: None,
          lambda p, t, ops: t * t, interval(*REAL_LINE))
_register("exp", (), lambda p: None,
          lambda p, t, ops: ops.exp(t), interval(*REAL_LINE))
_register("abs", (), lambda p: None,
          lambda p, t, ops: ops.where(t < 0.0, -t, t) * 1.0,
          interval(*REAL_LINE))
_register("affine", ("intercept", "slope"), lambda p: None,
          lambda p, t, ops: p["intercept"] + p["slope"] * t,
          interval(*REAL_LINE))

FAMILY_NAMES = tuple(sorted(_FAMILIES))


# ---------------------------------------------------------------------------
# ScalarFunction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFunction:
    """A tagged, parameterized, evaluable closed-form real function.

    Immutable after construction; parameters are validated here so that
    evaluation never has to re-check them.
    """

    family: str
    params: Mapping[str, float] = field(default_factory=dict)
    domain: Interval | None = None

    def __post_init__(self):
        spec = _FAMILIES.get(self.family)
        if spec is None:
            raise ValueError(f"unknown function family {self.family!r}; "
                             f"known: {', '.join(FAMILY_NAMES)}")
        params = {k: float(v) for k, v in dict(self.params).items()}
        extra = set(params) - set(spec.param_names)
        missing = set(spec.param_names) - set(params)
        if extra:
            raise ValueError(f"{self.family}: unexpected parameters {sorted(extra)}")
        if missing:
            raise ValueError(f"{self.family}: missing parameters {sorted(missing)}")
        spec.validate(params)
        object.__setattr__(self, "params", params)
        dom = self.domain or spec.default_domain
        if not dom.issubset(spec.max_domain) and dom != spec.max_domain:
            raise ValueError(
                f"{self.family}: domain {dom} exceeds maximal domain {spec.max_domain}")
        object.__setattr__(self, "domain", dom)

    def __call__(self, t: float) -> float:
        return evaluate(self, t)

    def to_json(self) -> dict:
        return {"family": self.family, "params": dict(self.params),
                "domain": self.domain.to_json()}

    def label(self) -> str:
        ps = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.family}({ps})"


def scalar_function(family: str, domain: Interval | None = None,
                    **params: float) -> ScalarFunction:
    return ScalarFunction(family, params, domain)


def evaluate(fn: ScalarFunction, t: float) -> float:
    """Closed-form value of ``fn`` at ``t``; DomainError outside the domain."""
    t = float(t)
    if not fn.domain.contains(t):
        raise DomainError(f"{fn.label()}: point {t!r} outside domain {fn.domain}")
    return float(_FAMILIES[fn.family].core(fn.params, t, _NP_OPS))


def evaluate_array(fn: ScalarFunction, ts: np.ndarray) -> np.ndarray:
    """Vectorized :func:`evaluate`; bit-identical to the scalar path."""
    ts = np.asarray(ts, dtype=float)
    inside = fn.domain.contains_array(ts)
    if not inside.all():
        bad = np.asarray(ts)[~inside].ravel()[:4].tolist()
        raise DomainError(
            f"{fn.label()}: {int((~inside).sum())} points outside domain "
            f"{fn.domain}, e.g. {bad}")
    return np.asarray(_FAMILIES[fn.family].core(fn.params, ts, _NP_OPS), dtype=float)


def family_core(name: str):
    """Expose a family's core formula for alternate backends (high precision)."""
    return _FAMILIES[name].core


# ---------------------------------------------------------------------------
# Gate intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateInterval:
    """The restricted interval [g(v), v] after intersection with an ambient set.

    ``gate_value`` is the raw g(v) before intersection; ``clamped`` records
    that the lower endpoint was pulled inside an open ambient boundary.
    """

    interval: Interval
    v: float
    gate_value: float
    degenerate: bool
    clamped: bool

    def to_json(self) -> dict:
        return {"interval": self.interval.to_json(), "v": self.v,
                "gate_value": self.gate_value,
                "degenerate": self.degenerate, "clamped": self.clamped}


def gate_interval(g: ScalarFunction, v: float, ambient: Interval,
                  clamp_eps: float = 1e-9) -> GateInterval:
    """Restricted interval [g(v), v] intersected with ``ambient``.

    Raises InfeasibleGate when g(v) > v, or when the intersection is empty.
    A lower endpoint landing on (or below) an open ambient boundary is
    clamped to that boundary plus ``clamp_eps`` so downstream grid searches
    always receive a closed, evaluable interval.
    """
    v = float(v)
    if not ambient.contains(v):
        raise DomainError(f"anchor v={v!r} outside ambient {ambient}")
    gv = evaluate(g, v)
    if gv > v:
        raise InfeasibleGate(f"{g.label()}: g(v)={gv!r} exceeds v={v!r}")
    if gv == v:
        return GateInterval(Interval(v, v), v, gv, degenerate=True, clamped=False)

    lo = max(gv, ambient.lo)
    lo_open = ambient.lo_open if lo == ambient.lo and gv <= ambient.lo else False
    clamped = False
    if lo_open:
        lo = ambient.lo + clamp_eps
        lo_open = False
        clamped = True
    if lo > v:
        raise InfeasibleGate(
            f"{g.label()}: restricted interval empty after intersection "
            f"(lo={lo!r} > v={v!r})")
    hi_open = ambient.hi_open and v == ambient.hi
    if hi_open:
        raise DomainError(f"anchor v={v!r} sits on the open upper end of {ambient}")
    return GateInterval(Interval(lo, v), v, gv,
                        degenerate=(lo == v), clamped=clamped)


# ---------------------------------------------------------------------------
# Built-in conditional-convexity triples (weight, gate, target)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Triple:
    """A (weight h, gate g, target f) triple with its certified anchor range."""

    name: str
    h: ScalarFunction
    g: ScalarFunction
    f: ScalarFunction
    anchors: Interval  # admissible anchor points v

    def to_json(self) -> dict:
        return {"name": self.name, "h": self.h.to_json(), "g": self.g.to_json(),
                "f": self.f.to_json(), "anchors": self.anchors.to_json()}


TRIPLE_NAMES = ("kyfan", "amgm", "chrystal", "holder_mccarthy")

# stated parameter constraints: (alpha low, alpha must exceed low strictly,
# beta high as a function of alpha, needs exponent p)
_TRIPLE_RULES = {
    "kyfan": (1.0, lambda a: a + 1.0, False),
    "amgm": (1.0, lambda a: a + 1.0, False),
    "chrystal": (0.0, lambda a: 2.0 * a, False),
    "holder_mccarthy": (0.0, lambda a: 2.0 * a, True),
}


def triple_beta_range(name: str, alpha: float) -> tuple[float, float]:
    """Admissible [beta_lo, beta_hi] for a triple at the given alpha."""
    lo, hi_fn, _ = _TRIPLE_RULES[name]
    if not alpha > lo:
        raise ValueError(f"{name}: alpha must exceed {lo}, got {alpha}")
    return alpha, hi_fn(alpha)


def make_triple(name: str, alpha: float, beta: float,
                p: float | None = None) -> Triple:
    """Instantiate one of the built-in triples, enforcing its stated ranges."""
    if name not in _TRIPLE_RULES:
        raise ValueError(f"unknown triple {name!r}; known: {TRIPLE_NAMES}")
    blo, bhi = triple_beta_range(name, alpha)
    if not blo <= beta <= bhi:
        raise ValueError(f"{name}: beta={beta} outside [{blo}, {bhi}]")
    needs_p = _TRIPLE_RULES[name][2]
    if needs_p and (p is None or not p > 1):
        raise ValueError(f"{name}: requires exponent p > 1")
    h = scalar_function("exp_weight", alpha=alpha, beta=beta)
    if name == "kyfan":
        return Triple(name, h, scalar_function("kyfan_gate", alpha=alpha),
                      scalar_function("logit"), interval(0.0, 0.5, lo_open=True))
    if name == "amgm":
        return Triple(name, h, scalar_function("power_gate", alpha=alpha),
                      scalar_function("neglog"), interval(0.0, 1.0, lo_open=True))
    if name == "chrystal":
        return Triple(name, h, scalar_function("chrystal_gate", alpha=alpha, beta=beta),
                      scalar_function("softplus"),
                      interval(0.0, math.inf, lo_open=True))
    return Triple(name, h, scalar_function("root_gate", alpha=alpha, beta=beta, p=p),
                  scalar_function("power", p=p), interval(0.0, math.inf))
