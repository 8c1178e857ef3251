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
A target's rules (region defaults and checks, sampler, double evaluator,
feasibility rule, error bound, 60-digit confirmer) are its RULES record.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox

from .convexity import JensenCoefficient, certify
from .errors import ConfigError, EmptyRegion, HConvexLabError
from .funclib import (
    _TRIPLE_RULES, TRIPLE_NAMES, gate_interval, make_triple, scalar_function,
    triple_beta_range,
)
from .highprec import (
    closed_form_jcoeff, digits, hp_chain_margins, hp_jensen_margin,
)
from .opcalc import SymmetricMatrix, UnitVector, jensen_verify, spectrum_in
from .refined import (
    WeightedSample, _overall, amgm_chain, chrystal_chain, hm_chain,
    kyfan_chain,
)

CANDIDATE_THRESHOLD = -1e-10
CONFIRM_THRESHOLD = -1e-6
RETRY_CAP = 512
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

def _check_range(name, pair, lo=None, hi=None, lo_strict=False):
    try:
        a, b = float(pair[0]), float(pair[1])
    except (TypeError, ValueError, IndexError):
        raise ConfigError(f"region key {name!r} must be a [lo, hi] pair, "
                          f"got {pair!r}") from None
    if not a <= b:
        raise ConfigError(f"region key {name!r} out of order: {pair!r}")
    if lo is not None and (a < lo or (lo_strict and a <= lo)):
        raise ConfigError(f"region key {name!r} must stay above {lo}, "
                          f"got {pair!r}")
    if hi is not None and b > hi:
        raise ConfigError(f"region key {name!r} must stay below {hi}, "
                          f"got {pair!r}")
    return [a, b]


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
        if not 1 <= int(self.samples):
            raise ConfigError("samples must be a positive count")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.margin_kind not in ("refined", "outer"):
            raise ConfigError(f"margin_kind must be refined|outer, "
                              f"got {self.margin_kind!r}")
        object.__setattr__(self, "samples", int(self.samples))
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
        floor = _TRIPLE_RULES[out.get("triple", rules.chain)][0]
        out["alpha"] = _check_range("alpha", out["alpha"], lo=floor,
                                    lo_strict=True)
    if "grid" in out:
        out["grid"] = [int(out["grid"][0]), int(out["grid"][1])]
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
    """The streams of _stream from one reused generator.

    Resetting a Philox state to (key=seed, counter=index << 128) with an
    empty buffer yields the same draws as a new Philox and costs a fifth
    as much.  ``at`` returns the shared generator, so each stream must be
    used up before the next one is asked for.
    """

    def __init__(self, seed: int):
        self._bits = Philox(key=seed)
        self._state = self._bits.state  # counter 0, buffer empty
        self._generator = Generator(self._bits)

    def at(self, index: int) -> Generator:
        self._state["state"]["counter"] = np.array([0, 0, index, 0],
                                                   dtype=np.uint64)
        self._bits.state = self._state
        return self._generator


# ---------------------------------------------------------------------------
# Per-target samplers (constructive: draws land inside the feasible set)
# ---------------------------------------------------------------------------

def _log_uniform(rng: Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _weights(rng: Generator, n: int):
    return [float(t) for t in rng.dirichlet(np.ones(n))]


def _unit_vector(rng: Generator, dim: int):
    while True:
        x = rng.standard_normal(dim)
        norm = float(np.linalg.norm(x))
        if norm > 1e-6:
            return [float(t) for t in x / norm]


def _draw_mean_chain(low, rng: Generator, target: str, region: dict):
    """kyfan and amgm: values uniform on [low(v, alpha), v]."""
    alpha = float(rng.uniform(*region["alpha"]))
    v = _log_uniform(rng, *region["v"])
    n = int(rng.integers(region["n"][0], region["n"][1] + 1))
    lo = min(max(low(v, alpha), 5e-324), v)
    a = [float(t) for t in rng.uniform(lo, v, n)]
    return {"target": target, "alpha": alpha, "v": v, "n": n,
            "a": a, "q": _weights(rng, n)}, None


def _draw_chrystal(rng: Generator, target: str, region: dict):
    alpha = float(rng.uniform(*region["alpha"]))
    v = _log_uniform(rng, *region["v"])
    n = int(rng.integers(region["n"][0], region["n"][1] + 1))
    # spread target delta keeps the data's log-ratios above the
    # beta-dependent lower gate: the gate value is monotone in the
    # spread, so actual spread <= delta preserves membership
    cap = 0.3 * alpha * math.log1p(math.exp(-v / 2.0)) \
        / math.log1p(math.exp(v))
    delta = _log_uniform(rng, 1e-6, max(cap, 2e-6))
    base = delta / (0.5 * v)
    vals = rng.uniform(base, base + delta, 2 * n)
    return {"target": target, "alpha": alpha, "v": v, "n": n,
            "a": [float(t) for t in vals[:n]],
            "b": [float(t) for t in vals[n:]],
            "q": _weights(rng, n)}, None


def _draw_holder_mccarthy(rng: Generator, target: str, region: dict):
    alpha = float(rng.uniform(*region["alpha"]))
    v = _log_uniform(rng, *region["v"])
    p = float(rng.uniform(*region["p"]))
    dim = int(rng.integers(region["dim"][0], region["dim"][1] + 1))
    gtarget = _log_uniform(rng, 1e-6, alpha)
    lo = max(v * (gtarget / alpha) ** (1.0 / p), v - gtarget)
    eigs = [float(t) for t in rng.uniform(min(lo, v), v, dim)]
    return {"target": target, "alpha": alpha, "v": v, "p": p, "dim": dim,
            "diag": eigs, "x": _unit_vector(rng, dim)}, None


def _draw_triple_params(rng: Generator, region: dict):
    """alpha, beta in the region triple's stated range, and the top of v."""
    triple = region["triple"]
    alpha = float(rng.uniform(*region["alpha"]))
    beta = float(rng.uniform(*triple_beta_range(triple, alpha)))
    v_hi = min(region["v"][1], 0.5) if triple == "kyfan" else region["v"][1]
    return alpha, beta, v_hi


def _draw_operator(rng: Generator, target: str, region: dict):
    """The setup is (triple, gate interval)."""
    alpha, beta, v_hi = _draw_triple_params(rng, region)
    v = _log_uniform(rng, region["v"][0], v_hi)
    dim = int(rng.integers(region["dim"][0], region["dim"][1] + 1))
    t = _operator_triple(region["triple"], alpha, beta)
    gi = gate_interval(t.g, v, t.f.domain)
    eigs = [float(u) for u in rng.uniform(gi.interval.lo, gi.interval.hi, dim)]
    inst = {"target": target, "triple": region["triple"], "alpha": alpha,
            "beta": beta, "v": v, "diag": eigs, "x": _unit_vector(rng, dim),
            "weight": region["weight"]}
    if "lam" in region:
        inst["lam"] = float(rng.uniform(*region["lam"]))
    return inst, (t, gi)


def _draw_best_possible(rng: Generator, target: str, region: dict):
    return {"target": target,
            "a": _log_uniform(rng, *region["a"]),
            "beta": float(rng.uniform(*region["beta"])),
            "lam": float(rng.uniform(*region["lam"]))}, None


def _draw_certificates(rng: Generator, target: str, region: dict):
    alpha, beta, v_hi = _draw_triple_params(rng, region)
    v = float(rng.uniform(min(region["v"][0], v_hi), v_hi))
    inst = {"target": target, "triple": region["triple"], "alpha": alpha,
            "beta": beta, "v": v, "grid": list(region["grid"])}
    if region["triple"] == "holder_mccarthy":
        inst["p"] = float(rng.uniform(1.5, 4.0))
    return inst, None


def _draw(rng: Generator, target: str, region: dict):
    """(instance, setup) from the target's sampler."""
    return RULES[target].draw(rng, target, region)


def draw_instance(rng: Generator, target: str, region: dict) -> dict:
    return _draw(rng, target, region)[0]


# ---------------------------------------------------------------------------
# Per-target evaluation (doubles); shared by campaigns and replay
# ---------------------------------------------------------------------------

def _sample(data) -> WeightedSample:
    return WeightedSample(tuple(data["a"]), tuple(data["q"]),
                          b=tuple(data["b"]) if data.get("b") else None)


def _matrix(data) -> SymmetricMatrix:
    """An instance's operator (diag or dense entries), or a parsed matrix."""
    if "matrix" in data:
        return data["matrix"]
    return SymmetricMatrix.diagonal(data["diag"]) if "diag" in data \
        else SymmetricMatrix(data["entries"])


def chain_report(inst: dict):
    """The ChainReport of a chain target's instance."""
    return RULES[inst["target"]].report(inst, inst["alpha"], inst["v"],
                                        inst.get("p"))


def _evaluate_chain(inst: dict, margin_kind: str, setup):
    rep = chain_report(inst)
    margin = (rep.chain[2] - rep.chain[0]) if margin_kind == "outer" \
        else min(rep.margins)
    return margin, dict(rep.flags), {
        "chain": list(rep.chain), "margins": list(rep.margins),
        "gamma": rep.gamma, "beta": rep.beta, "feasible": rep.feasible}


def _operator_triple(name: str, alpha: float, beta: float):
    return make_triple(name, alpha, beta,
                       p=2.0 if name == "holder_mccarthy" else None)


def _operator_parts(inst: dict, triple=None):
    """(triple, h, A, x); the triple is rebuilt unless the draw's is given."""
    triple = triple or _operator_triple(inst["triple"], inst["alpha"],
                                        inst["beta"])
    h = scalar_function("identity_weight") \
        if inst.get("weight") == "identity_weight" else triple.h
    return triple, h, _matrix(inst), UnitVector(inst["x"])


def _operator_flags(inst: dict, triple, A, gi=None) -> dict:
    if gi is None:
        gi = gate_interval(triple.g, inst["v"], triple.f.domain)
    inside, _ = spectrum_in(A, gi.interval)
    floor, beta_hi, _ = _TRIPLE_RULES[inst["triple"]]
    return {
        "alpha_in_range": inst["alpha"] > floor,
        "beta_in_range": inst["alpha"] <= inst["beta"]
                         <= beta_hi(inst["alpha"]) + 1e-12,
        "anchor_in_range": triple.anchors.contains(inst["v"]),
        "spectrum_in_gate": inside,
    }


def _evaluate_operator(inst: dict, margin_kind: str, setup):
    triple, gi = setup or (None, None)
    triple, h, A, x = _operator_parts(inst, triple)
    mode = RULES[inst["target"]].mode
    # the closed form is the infimum's boundary limit (t -> 1 or t -> 0)
    coeff = JensenCoefficient(closed_form_jcoeff(h), None, True) \
        if mode == "infimum" else None
    verdict = jensen_verify(triple.f, h, A, x, mode,
                            lam=inst.get("lam"), coefficient=coeff)
    flags = _operator_flags(inst, triple, A, gi)
    return verdict.margin, flags, {
        "lhs": verdict.lhs, "rhs": verdict.rhs,
        "rhs_factor": verdict.rhs_factor,
        "expectation": verdict.expectation}


def _best_possible_terms(a, beta, lam, ops=math):
    """(lhs, factor, reduced and full expectation); ops = math or mpmath."""
    return (ops.exp(-a / 2), lam ** (beta - 1), ops.exp(-a) / 2,
            (1 + ops.exp(-a)) / 2)


def _evaluate_best_possible(inst: dict, margin_kind: str, setup):
    a, beta, lam = inst["a"], inst["beta"], inst["lam"]
    lhs, factor, reduced, full = _best_possible_terms(a, beta, lam)
    margin = factor * reduced - lhs
    flags = {"lambda_in_range": 0.5 < lam < 1.0,
             "exponent_in_range": 0.0 < beta < 1.0,
             "scale_in_range": a > 0.0,
             "factor_decreasing": True}
    return margin, flags, {
        "lhs": lhs, "rhs_factor": factor,
        "reduced_expectation": reduced,
        "functional_calculus_margin": factor * full - lhs}


def _evaluate_certificates(inst: dict, margin_kind: str, setup):
    triple = make_triple(inst["triple"], inst["alpha"], inst["beta"],
                         p=inst.get("p"))
    cert = certify(triple.f, triple.g, triple.h, inst["v"],
                   grid=tuple(inst["grid"]))
    flags = {"params_in_range": True, "gate_feasible": True}
    return cert.min_value, flags, {
        "verdict": cert.verdict, "gate_degenerate": cert.gate.degenerate,
        "arg_min": {"u": cert.arg_min[0], "lambda": cert.arg_min[1]}}


def evaluate_instance(inst: dict, margin_kind: str = "refined"):
    """(margin, flags, extras) for one serialized instance.

    This is the single evaluation path: campaigns, replay, and tests all
    reach it, so a replayed witness reproduces margin_double bit for bit.
    """
    return _evaluate(inst, margin_kind, None)


def _evaluate(inst: dict, margin_kind: str, setup):
    """evaluate_instance, reusing the draw's setup when given."""
    return RULES[inst["target"]].evaluate(inst, margin_kind, setup)


# ---------------------------------------------------------------------------
# Extended-precision confirmation
# ---------------------------------------------------------------------------

def _confirm_chain(candidate: dict):
    inst = candidate["inputs"]
    m1, m2 = hp_chain_margins(
        RULES[inst["target"]].chain, inst.get("a"), inst.get("q"),
        inst["alpha"], b=inst.get("b"), p=inst.get("p"),
        entries=np.diag(inst["diag"]) if "diag" in inst else None,
        x=inst.get("x"))
    return (m1 + m2) if candidate.get("margin_kind") == "outer" \
        else min(m1, m2)


def _confirm_operator(candidate: dict):
    inst = candidate["inputs"]
    triple, h, A, x = _operator_parts(inst)
    return hp_jensen_margin(triple.f, h, A.entries, x.components,
                            RULES[inst["target"]].mode, lam=inst.get("lam"))


def _confirm_best_possible(candidate: dict):
    from mpmath import mp
    inst = candidate["inputs"]
    with mp.workdps(60):
        lhs, factor, reduced, full = _best_possible_terms(
            *(mp.mpf(inst[k]) for k in ("a", "beta", "lam")), ops=mp)
        candidate.setdefault("extras", {})[
            "functional_calculus_margin_confirmed"] = digits(
                factor * full - lhs)
        return factor * reduced - lhs


def confirm(candidate: dict) -> dict:
    """Re-evaluate a candidate witness at 60 digits and set its status.

    confirmed requires margin_confirmed < -1e-6 with all flags true and a
    sign agreeing with the double margin; otherwise the candidate is
    demoted as "float-noise" (sign mismatch) or "below-threshold".
    """
    rules = RULES[candidate["inputs"]["target"]]
    hp_margin = rules.confirm(candidate)
    margin_f = float(hp_margin)
    sign_agrees = (margin_f < 0.0) == (candidate["margin_double"] < 0.0)
    out = dict(candidate)
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
    # (rng, target, region) -> (instance, setup), where setup holds what
    # the draw built that evaluate can reuse, or None
    draw: Callable
    evaluate: Callable  # (inst, margin_kind, setup) -> (margin, flags, extras)
    confirm: Callable  # candidate -> its margin at 60 digits
    bound: Callable | None = None  # candidate -> margin_bound's B or None
    chain: str | None = None  # the refined chain (and funclib triple) name
    report: Callable | None = None  # (data, alpha, v, p) -> ChainReport
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
        _draw_operator, _evaluate_operator, _confirm_operator,
        _operator_bound, mode=mode, pinned=pinned)


RULES = {
    "operator-jensen": _operator_rules("infimum", pinned=PINNED_INSTANCE),
    "per-lambda": _operator_rules("per-lambda", lam=[1e-6, 1.0 - 1e-6]),
    "half-bound": _operator_rules("half-bound"),
    "best-possible": TargetRules(
        {"a": [1e-3, 10.0], "beta": [1e-6, 1.0 - 1e-6],
         "lam": [0.5 + 1e-12, 1.0 - 1e-12]},
        _draw_best_possible, _evaluate_best_possible,
        _confirm_best_possible, lam_floor=0.5),
    "kyfan": TargetRules(
        {"alpha": [1.000001, 3.0], "v": [1e-4, 0.5], "n": [2, 5]},
        partial(_draw_mean_chain,
                lambda v, a: v ** a / (v ** a + (1.0 - v) ** a)),
        _evaluate_chain, _confirm_chain, _kyfan_bound, chain="kyfan",
        report=lambda d, alpha, v, p: kyfan_chain(_sample(d), alpha, v)),
    "amgm": TargetRules(
        {"alpha": [1.000001, 3.0], "v": [1e-4, 1.0], "n": [2, 5]},
        partial(_draw_mean_chain, lambda v, a: v ** a),
        _evaluate_chain, _confirm_chain, _amgm_bound, chain="amgm",
        report=lambda d, alpha, v, p: amgm_chain(_sample(d), alpha, v)),
    "chrystal": TargetRules(
        {"alpha": [0.01, 3.0], "v": [0.1, 3.0], "n": [2, 5]}, _draw_chrystal,
        _evaluate_chain, _confirm_chain, _chrystal_bound, chain="chrystal",
        report=lambda d, alpha, v, p: chrystal_chain(_sample(d), alpha, v)),
    "holder-mccarthy": TargetRules(
        {"alpha": [0.01, 3.0], "v": [0.1, 2.0], "dim": [2, 8],
         "p": [1.000001, 4.0]},
        _draw_holder_mccarthy, _evaluate_chain, _confirm_chain,
        _holder_mccarthy_bound, chain="holder_mccarthy",
        report=lambda d, alpha, v, p: hm_chain(
            _matrix(d), UnitVector(d["x"]), float(p), alpha, v)),
    "certificates": TargetRules(
        {"triple": "amgm", "alpha": [1.000001, 3.0], "v": [0.05, 1.0],
         "grid": [256, 256]},
        _draw_certificates, _evaluate_certificates,
        # min_value is already the hp-corrected gap value
        lambda candidate: candidate["margin_double"]),
}
TARGETS = tuple(RULES)


# ---------------------------------------------------------------------------
# Campaign execution
# ---------------------------------------------------------------------------

def _run_range(campaign_json: dict, start: int, stop: int):
    """Evaluate sample indices [start, stop); returns chunk aggregates."""
    c = Campaign(**campaign_json)
    feasible = RULES[c.target].feasible
    drawn = rejected = 0
    min_margin = math.inf
    argmin = None
    candidates = []
    streams = _Streams(c.seed)
    for i in range(start, stop):
        rng = streams.at(i)
        accepted = None
        for _ in range(RETRY_CAP):
            drawn += 1
            try:
                inst, setup = _draw(rng, c.target, c.region)
                margin, flags, extras = _evaluate(inst, c.margin_kind, setup)
            except (ValueError, ArithmeticError, HConvexLabError):
                rejected += 1
                continue
            if not feasible(flags):
                rejected += 1
                continue
            accepted = (inst, margin, flags, extras)
            break
        if accepted is None:
            raise EmptyRegion(
                f"{c.target}: no feasible draw after {RETRY_CAP} tries at "
                f"sample {i}", drawn=drawn, rejected=rejected)
        inst, margin, flags, extras = accepted
        if margin < min_margin:
            min_margin = margin
            argmin = (i, inst)
        if margin < CANDIDATE_THRESHOLD:
            candidates.append({"index": i, "inputs": inst,
                               "margin_double": margin, "flags": flags,
                               "extras": extras,
                               "margin_kind": c.margin_kind})
    return {"drawn": drawn, "rejected": rejected, "min_margin": min_margin,
            "argmin": argmin, "candidates": candidates,
            "counted": stop - start}


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
    lams = np.linspace(0.0, 1.0, grid + 2)[1:-1]
    pts = []
    factors = []
    for lam in lams:
        verdict = jensen_verify(f, h, A, x, "per-lambda", lam=float(lam))
        pts.append((float(lam), verdict.margin))
        factors.append(verdict.rhs_factor)
    margins = [m for _, m in pts]
    k = int(np.argmin(margins))
    decreasing = bool(np.all(np.diff(factors) <= 1e-15))
    return LambdaProfile(tuple(pts), pts[k][0], pts[k][1], decreasing)
