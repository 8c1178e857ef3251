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
import operator
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


class _MathOps:
    """Python-float ops for the triples' gate cores: a core run with these
    gives the bits of its formula written with ``**`` and ``math`` (numpy's
    scalar routines can differ in the last place).  Overflow raises."""

    exp = staticmethod(math.exp)
    power = staticmethod(operator.pow)
    # numpy's log(0) = -inf, which chrystal_gate reaches at beta == alpha
    log = staticmethod(lambda x: -math.inf if x == 0.0 else math.log(x))


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
    if ops is _NP_OPS:
        # beta == alpha makes arg identically 0; log(0) -> -inf by convention
        with np.errstate(divide="ignore", over="ignore"):
            arg = np.power(1.0 + np.exp(t), expo) - 1.0
            out = np.log(arg)
        beyond = np.isposinf(arg)  # where the power overflows
        if beyond.any():  # the _MathOps value, element by element
            out = np.array(out)
            expos, ts = (np.broadcast_to(x, out.shape)[beyond].tolist()
                         for x in (expo, t))
            out[beyond] = list(map(_chrystal_beyond, expos, ts))
        return out[()]
    try:
        arg = ops.power(1.0 + ops.exp(t), expo) - 1.0
    except OverflowError:
        return _chrystal_beyond(expo, t)
    return ops.log(arg)


def _chrystal_beyond(expo: float, t: float) -> float:
    """g once the power (1 + e^t)^expo is beyond the doubles: with L its
    log, g = log(e^L - 1) = L + log(1 - e^-L), which is L there."""
    log_power = expo * (t + math.log1p(math.exp(-t)))
    return log_power + _MathOps.log(-math.expm1(-log_power))


def _kyfan_gate_core(p, t, ops):
    alpha = p["alpha"]
    try:
        return ops.power(t, alpha) / (ops.power(t, alpha)
                                      + ops.power(1.0 - t, alpha))
    except ZeroDivisionError:
        # only _MathOps raise, once both powers underflow: the value is
        # 1/(1 + e^r), r = alpha log((1-t)/t), written in e^-|r| <= 1
        e = math.exp(-abs(alpha * math.log((1.0 - t) / t)))
        return e / (1.0 + e) if t < 0.5 else 1.0 / (1.0 + e)


def _power_gate_core(p, t, ops):
    try:
        return ops.power(t, p["alpha"])
    except OverflowError:
        return math.inf  # only _MathOps raise, at t > 1


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
          _kyfan_gate_core,
          interval(0.0, 1.0, lo_open=True, hi_open=True),
          interval(0.0, 0.5, lo_open=True))
_register("power_gate", ("alpha",), lambda p: _positive("alpha", p["alpha"]),
          _power_gate_core,
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
        return _label(self.family, self.params)


def _label(family: str, params: Mapping[str, float]) -> str:
    ps = ", ".join(f"{k}={v:g}" for k, v in sorted(params.items()))
    return f"{family}({ps})"


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
    return np.asarray(core_array(fn.family, fn.params, ts), dtype=float)


def evaluate_rows(fn: ScalarFunction, ts: np.ndarray, refuse: Callable):
    """:func:`evaluate` over an array: the entries outside the domain are
    refused with evaluate's DomainError (refuse(mask, error) as Refusals
    takes it), and read what the closed form gives there."""
    refuse(~fn.domain.contains_array(ts), lambda j: DomainError(
        f"{fn.label()}: point {float(ts[j])!r} outside domain {fn.domain}"))
    with np.errstate(all="ignore"):
        return core_array(fn.family, fn.params, ts)


def core_array(family: str, params: Mapping, ts):
    """A family's closed form in numpy ops with no domain check; params may
    hold arrays, one value per row of ts.  Each element gets the bits that
    evaluate gives it."""
    return _FAMILIES[family].core(params, ts, _NP_OPS)


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
    lo, clamped = _gate_lower_end(gv, v, ambient, clamp_eps, g.label)
    if gv == v:
        return GateInterval(Interval(v, v), v, gv, degenerate=True,
                            clamped=False)
    return GateInterval(Interval(lo, v), v, gv, degenerate=(lo == v),
                        clamped=clamped)


class Refusals:
    """The rows of a block that raise, and what each raises first: called
    as refuse(mask, error), it refuses the rows of ``mask`` not refused yet,
    error(j) building the exception of row j (None: no exception); with
    ``ks`` the mask is over the rows ks.  ``ok`` marks the rows left."""

    def __init__(self, size: int):
        self.ok = np.ones(size, dtype=bool)
        self.errors = {}

    def __call__(self, mask, error: Callable | None, ks=None) -> None:
        if np.count_nonzero(mask):  # cheaper than mask.any() on small rows
            new = mask & (self.ok if ks is None else self.ok[ks])
            for j in np.flatnonzero(new).tolist():
                k = j if ks is None else int(ks[j])
                self.errors[k] = error and error(j)
                self.ok[k] = False

    def raise_first(self) -> None:
        """Raise what the first refused row raises, if a row is refused."""
        if self.errors:
            raise self.errors[min(self.errors)]


def _one_row(rows):
    """rows(refuse) on a block of one row, raising the first error that
    refuse(mask, error) is called with for it (error(0) builds it)."""
    refuse = Refusals(1)
    out = rows(refuse)
    refuse.raise_first()
    return out


def _gate_lower_end(gv: float, v: float, ambient: Interval, clamp_eps: float,
                    label: Callable[[], str]):
    """(lower end, clamped) of gate_interval's closed interval [lo, v] once
    g(v) is known, raising as gate_interval does; ``label()`` names g in
    the errors."""
    lo, clamped = _one_row(lambda refuse: _gate_lower_rows(
        np.array([gv]), np.array([v]), ambient, clamp_eps,
        lambda k: label(), refuse))
    return float(lo[0]), bool(clamped[0])


def _gate_lower_rows(gv: np.ndarray, v: np.ndarray, ambient: Interval,
                     clamp_eps: float, label: Callable[[int], str],
                     refuse: Callable):
    """_gate_lower_end over rows: (lower ends, clamped).  For the rows where
    it raises, refuse(mask, error) is called in the order it checks them,
    with error(k) what it raises for row k (an end that Interval refuses as
    its ValueError); ``label(k)`` names row k's g."""
    refuse(gv > v, lambda k: InfeasibleGate(
        f"{label(k)}: g(v)={float(gv[k])!r} exceeds v={float(v[k])!r}"))
    inside = gv != v  # g(v) == v gives the degenerate interval [v, v]
    with np.errstate(invalid="ignore"):
        lo = np.where(ambient.lo > gv, ambient.lo, gv)  # max(gv, ambient.lo)
    clamped = inside & ambient.lo_open & (lo == ambient.lo) \
        & (gv <= ambient.lo)
    lo = np.where(clamped, ambient.lo + clamp_eps, lo)
    refuse(inside & (lo > v), lambda k: InfeasibleGate(
        f"{label(k)}: restricted interval empty after intersection "
        f"(lo={float(lo[k])!r} > v={float(v[k])!r})"))
    if ambient.hi_open:
        refuse(inside & (v == ambient.hi), lambda k: DomainError(
            f"anchor v={float(v[k])!r} sits on the open upper end of "
            f"{ambient}"))
    refuse(inside & np.isnan(lo),
           lambda k: ValueError("interval endpoints must not be NaN"))
    refuse(inside & np.isinf(lo),
           lambda k: ValueError("infinite lower endpoint must be open"))
    return np.where(inside, lo, v), clamped


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


@dataclass(frozen=True)
class TripleRule:
    """The stated hypothesis of a built-in triple: alpha > alpha_floor, the
    data's spread gamma <= gamma_max(alpha) (beta = alpha + gamma), an anchor
    v in ``anchors`` and the data inside the gate interval [g(v), v]."""

    alpha_floor: float
    gamma_max: Callable[[float], float]
    gate: str  # the family of g
    target: str  # the family of f
    anchors: Interval  # admissible anchor points v

    @property
    def needs_p(self) -> bool:
        return "p" in _FAMILIES[self.target].param_names

    def gate_value(self, v: float, alpha: float, beta: float | None = None,
                   p: float | None = None) -> float:
        """g(v) in Python floats, or nan outside the gate family's domain."""
        family = _FAMILIES[self.gate]
        if not family.max_domain.contains(v):
            return math.nan
        # a core reads only the parameters its family names
        return family.core({"alpha": alpha, "beta": beta, "p": p}, v, _MathOps)

    def gate_rows(self, v: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                  p: float | None, refuse: Callable) -> np.ndarray:
        """The lower ends lo of the closed intervals [lo, v] that
        gate_interval(t.g, v, t.f.domain) gives for t = make_triple(...,
        alpha, beta, p), over rows, without building t; the parameters are
        taken as make_triple accepted them (see check_triple).  For the
        rows where gate_interval raises, refuse(mask, error) is called in
        the order it checks them, with error(k) what it raises for row k.
        g(v) comes from the gate family's core in numpy ops, as evaluate
        computes it."""
        family = _FAMILIES[self.gate]
        ambient = _FAMILIES[self.target].default_domain
        params = {k: x for k, x in (("alpha", alpha), ("beta", beta),
                                    ("p", p)) if k in family.param_names}

        def label(k):
            return _label(self.gate, {name: float(x[k] if np.ndim(x) else x)
                                      for name, x in params.items()})
        refuse(~ambient.contains_array(v), lambda k: DomainError(
            f"anchor v={float(v[k])!r} outside ambient {ambient}"))
        refuse(~family.default_domain.contains_array(v), lambda k: DomainError(
            f"{label(k)}: point {float(v[k])!r} outside domain "
            f"{family.default_domain}"))
        with np.errstate(all="ignore"):
            gv = family.core(params, v, _NP_OPS)
            return _gate_lower_rows(gv, v, ambient, 1e-9, label, refuse)[0]


TRIPLES = {
    "kyfan": TripleRule(1.0, lambda a: 1.0, "kyfan_gate", "logit",
                        interval(0.0, 0.5, lo_open=True)),
    "amgm": TripleRule(1.0, lambda a: 1.0, "power_gate", "neglog",
                       interval(0.0, 1.0, lo_open=True)),
    "chrystal": TripleRule(0.0, lambda a: a, "chrystal_gate", "softplus",
                           interval(0.0, math.inf, lo_open=True)),
    "holder_mccarthy": TripleRule(0.0, lambda a: a, "root_gate", "power",
                                  interval(0.0, math.inf, lo_open=True)),
}
TRIPLE_NAMES = tuple(TRIPLES)


def triple_beta_range(name: str, alpha: float) -> tuple[float, float]:
    """Admissible [beta_lo, beta_hi] for a triple at the given alpha."""
    lo, hi = _one_row(lambda refuse: triple_rows(
        name, np.array([alpha], dtype=float), None, None, refuse))
    return float(lo[0]), float(hi[0])


def check_triple(name: str, alpha: float, beta: float,
                 p: float | None = None) -> TripleRule:
    """The rule of a built-in triple whose stated ranges hold; ValueError
    where make_triple would refuse the parameters."""
    _one_row(lambda refuse: triple_rows(
        name, np.array([alpha], dtype=float), np.array([beta], dtype=float),
        p, refuse))
    return TRIPLES[name]


def triple_rows(name: str, alpha: np.ndarray, beta: np.ndarray | None,
                p: float | None, refuse: Callable):
    """check_triple over rows of alpha and beta (beta None: alpha alone, as
    triple_beta_range checks it): the rows' admissible beta ranges (lo, hi).
    For the rows it refuses, refuse(mask, error) is called in the order it
    checks them, with error(k) the ValueError for row k; an unknown triple
    raises its ValueError."""
    rule = TRIPLES.get(name)
    if rule is None:
        raise ValueError(f"unknown triple {name!r}; known: {TRIPLE_NAMES}")
    refuse(~(alpha > rule.alpha_floor), lambda k: ValueError(
        f"{name}: alpha must exceed {rule.alpha_floor}, got {alpha[k]}"))
    lo, hi = alpha, alpha + rule.gamma_max(alpha)
    if beta is not None:
        refuse(~((lo <= beta) & (beta <= hi)), lambda k: ValueError(
            f"{name}: beta={beta[k]} outside [{lo[k]}, {hi[k]}]"))
        if rule.needs_p and (p is None or not p > 1):
            refuse(np.ones(alpha.shape, dtype=bool), lambda k: ValueError(
                f"{name}: requires exponent p > 1"))
    return lo, hi


def make_triple(name: str, alpha: float, beta: float,
                p: float | None = None) -> Triple:
    """Instantiate one of the built-in triples, enforcing its stated ranges."""
    rule = check_triple(name, alpha, beta, p)
    # h, g and f each take the parameters their families name
    values = {"alpha": alpha, "beta": beta, "p": p}
    h, g, f = (ScalarFunction(family, {k: values[k]
                                       for k in _FAMILIES[family].param_names})
               for family in ("exp_weight", rule.gate, rule.target))
    return Triple(name, h, g, f, rule.anchors)
