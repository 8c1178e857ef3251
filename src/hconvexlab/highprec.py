"""Extended-precision re-evaluation of gaps, margins, and chain terms.

Everything here runs at 60 significant digits via mpmath and exists to
answer one question about a candidate violation found in doubles: is the
negative margin real, or single-rounding noise?  The closed forms are the
same ones the double-precision path uses (funclib cores and the refined
chain terms), driven through an mpmath operation set, so the two routes
differ only in arithmetic.

Jensen coefficients are reproduced here from their closed forms — the
infimum of h(t)/t over (0,1) is alpha/beta for the exponential weight, 1
for the identity, and 0 or 1 for pure powers — because re-running a grid
infimum at high precision would inherit the grid's resolution rather than
remove it.  Weights without a closed form raise PrecisionUnavailable.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp

from .errors import PrecisionUnavailable
from .funclib import ScalarFunction, family_core
from .refined import chain_rule

DPS = 60
WITNESS_DIGITS = 50


class _MPOps:
    """mpmath counterparts of the numpy ops used by funclib cores."""

    exp = staticmethod(mp.exp)
    log = staticmethod(mp.log)
    cos = staticmethod(mp.cos)
    power = staticmethod(mp.power)

    @staticmethod
    def where(cond, a, b):
        return a if cond else b

    @property
    def pi(self):
        return +mp.pi


_MP_OPS = _MPOps()


def hp_eval(fn: ScalarFunction, t) -> mp.mpf:
    """Evaluate a scalar function's closed form at 60 digits."""
    with mp.workdps(DPS):
        # params go in as mpf so ratios like alpha/beta inside the cores
        # are computed at working precision, not in binary64
        params = {k: mp.mpf(v) for k, v in fn.params.items()}
        return +family_core(fn.family)(params, mp.mpf(t), _MP_OPS)


def hp_gap(f: ScalarFunction, h: ScalarFunction, v, u, lam) -> mp.mpf:
    """The convexity gap h(l)f(u) + h(1-l)f(v) - f(lu + (1-l)v) at 60 digits."""
    with mp.workdps(DPS):
        u, v, lam = mp.mpf(u), mp.mpf(v), mp.mpf(lam)
        w = lam * u + (1 - lam) * v
        w = min(max(w, min(u, v)), max(u, v))
        return (hp_eval(h, lam) * hp_eval(f, u)
                + hp_eval(h, 1 - lam) * hp_eval(f, v) - hp_eval(f, w))


def closed_form_jcoeff(h: ScalarFunction, num=float):
    """Closed-form M_(0,1)(h) = inf h(t)/t in the number type ``num``."""
    if h.family == "exp_weight":
        # h(t)/t = (a/b) e^{t(1-t)} / t is strictly decreasing on (0,1),
        # so the infimum is the boundary limit at t -> 1
        return num(h.params["alpha"]) / num(h.params["beta"])
    if h.family == "identity_weight":
        return num(1)
    if h.family == "power_weight":
        # h(t)/t = t^(beta-1): limit 0 at t->0 when beta > 1, else
        # the infimum sits at t -> 1
        return num(0) if h.params["beta"] > 1.0 else num(1)
    raise PrecisionUnavailable(
        f"no closed-form Jensen coefficient for family {h.family!r}")


def hp_jcoeff(h: ScalarFunction) -> mp.mpf:
    """Closed-form M_(0,1)(h) = inf h(t)/t for the weight families."""
    with mp.workdps(DPS):
        return closed_form_jcoeff(h, mp.mpf)


def _hp_spectral_weights(entries, x):
    """Eigenvalues, the weights <x, q_i>^2 / |x|^2 and <Ax,x>/|x|^2
    (clamped to the spectrum) at working precision."""
    entries, x = np.asarray(entries, float), np.asarray(x, float)
    n = entries.shape[0]
    offdiag = entries - np.diag(np.diag(entries))
    if not offdiag.any():
        eigs = [mp.mpf(entries[i, i]) for i in range(n)]
        weights = [mp.mpf(x[i]) ** 2 for i in range(n)]
    else:
        E, Q = mp.eigsy(mp.matrix(entries.tolist()))
        xs = [mp.mpf(t) for t in x]
        eigs, weights = [], []
        for j in range(n):
            dot = mp.fsum(Q[i, j] * xs[i] for i in range(n))
            eigs.append(E[j])
            weights.append(dot ** 2)
    total = mp.fsum(weights)
    weights = [w / total for w in weights]
    qf = mp.fsum(m * w for m, w in zip(eigs, weights))
    return eigs, weights, min(max(qf, min(eigs)), max(eigs))


def hp_jensen_margin(f: ScalarFunction, h: ScalarFunction | None,
                     entries: np.ndarray, x: np.ndarray, mode: str,
                     lam: float | None = None) -> mp.mpf:
    """Margin factor*<f(A)x,x> - f(<Ax,x>) at 60 digits.

    Diagonal matrices take the exact route; dense ones go through
    mpmath's symmetric eigensolver.
    """
    with mp.workdps(DPS):
        eigs, weights, qf = _hp_spectral_weights(entries, x)
        expectation = mp.fsum(hp_eval(f, m) * w for m, w in zip(eigs, weights))
        if mode == "classical":
            factor = mp.mpf(1)
        elif mode == "per-lambda":
            factor = hp_eval(h, lam) / mp.mpf(lam)
        elif mode == "infimum":
            factor = hp_jcoeff(h)
        elif mode == "half-bound":
            factor = 2 * hp_eval(h, mp.mpf(0.5))
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return factor * expectation - hp_eval(f, qf)


def hp_chain_margins(inequality: str, a, q, alpha: float, b=None,
                     p: float | None = None, entries=None, x=None):
    """(mid - lhs, rhs - mid) for one chain instance at 60 digits."""
    chain = chain_rule(inequality)
    with mp.workdps(DPS):
        if chain.spectral:
            eigs, weights, qf = _hp_spectral_weights(entries, x)
            p = mp.mpf(p)
            apx = mp.fsum((m ** p) * w for m, w in zip(eigs, weights))
            inputs, values = (qf, apx, p), eigs
        else:
            inputs, values = chain.inputs(
                *(None if col is None else [mp.mpf(t) for t in col]
                  for col in (a, b, q)))
        lhs, mid, rhs = chain.terms(*inputs, mp.mpf(alpha),
                                    max(values) - min(values), ops=mp)
        return mid - lhs, rhs - mid


def digits(value, n: int = WITNESS_DIGITS) -> str:
    """Serialize an mpmath value to n significant digits."""
    with mp.workdps(max(DPS, n + 5)):
        return mp.nstr(mp.mpf(value), n, strip_zeros=False)
