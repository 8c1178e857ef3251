"""Extended-precision re-evaluation of gaps, margins, and chain terms.

Everything here runs at 60 significant digits via mpmath and exists to
answer one question about a candidate violation found in doubles: is the
negative margin real, or single-rounding noise?  The funclib cores, the
convexity gap, the refined chain terms and opcalc's mode -> factor rule
are driven through mpmath numbers, so the two routes differ only in
arithmetic; the 60-digit spectral step is this module's own.

mpmath loads on the first 60-digit evaluation, not with this module: a
process that confirms nothing, such as a campaign that finds no
candidates, never imports it.

Jensen coefficients are reproduced from their closed forms — the
infimum of h(t)/t over (0,1) is alpha/beta for the exponential weight, 1
for the identity, and 0 or 1 for pure powers — because re-running a grid
infimum at high precision would inherit the grid's resolution rather than
remove it.  Weights without a closed form raise PrecisionUnavailable.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .convexity import gap
from .errors import PrecisionUnavailable
from .funclib import ScalarFunction, family_core
from .opcalc import jensen_factor
from .refined import chain_rule

if TYPE_CHECKING:
    from mpmath import mp

DPS = 60
WITNESS_DIGITS = 50


@functools.cache
def _mp():
    """mpmath's context, imported on the first call."""
    from mpmath import mp
    return mp


@functools.cache
def _mp_ops() -> SimpleNamespace:
    """The mpmath counterparts of the numpy ops used by funclib cores; mp.pi
    takes the working precision of the expression it enters."""
    mp = _mp()
    return SimpleNamespace(exp=mp.exp, log=mp.log, cos=mp.cos, power=mp.power,
                           pi=mp.pi, where=lambda cond, a, b: a if cond else b)


def hp_eval(fn: ScalarFunction, t) -> mp.mpf:
    """Evaluate a scalar function's closed form at 60 digits."""
    mp = _mp()
    with mp.workdps(DPS):
        # params go in as mpf so ratios like alpha/beta inside the cores
        # are computed at working precision, not in binary64
        params = {k: mp.mpf(v) for k, v in fn.params.items()}
        return +family_core(fn.family)(params, mp.mpf(t), _mp_ops())


def hp_gap(f: ScalarFunction, h: ScalarFunction, v, u, lam) -> mp.mpf:
    """The convexity gap of convexity.gap at 60 digits."""
    mp = _mp()
    with mp.workdps(DPS):
        return gap(f, h, v, u, lam, hp_eval, mp.mpf)


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


def _hp_spectral_forms(value, entries, x):
    """(eigenvalues, <Ax,x>, <value(A)x,x>) with the weights <x, q_i>^2
    normalised by |x|^2, at working precision; <Ax,x> is clamped to the
    spectrum.  A diagonal matrix takes the exact route, a dense one
    mpmath's symmetric eigensolver."""
    mp = _mp()
    entries, x = np.asarray(entries, float), np.asarray(x, float)
    n = entries.shape[0]
    offdiag = entries - np.diag(np.diag(entries))
    if not offdiag.any():
        eigs = [mp.mpf(entries[i, i]) for i in range(n)]
        weights = [mp.mpf(x[i]) ** 2 for i in range(n)]
    else:
        E, Q = mp.eigsy(mp.matrix(entries.tolist()))
        xs = [mp.mpf(t) for t in x]
        eigs = [E[j] for j in range(n)]
        weights = [mp.fsum(Q[i, j] * xs[i] for i in range(n)) ** 2
                   for j in range(n)]
    total = mp.fsum(weights)
    weights = [w / total for w in weights]
    qf = mp.fsum(m * w for m, w in zip(eigs, weights))
    return (eigs, min(max(qf, min(eigs)), max(eigs)),
            mp.fsum(value(m) * w for m, w in zip(eigs, weights)))


def hp_jensen_margin(f: ScalarFunction, h: ScalarFunction | None,
                     entries: np.ndarray, x: np.ndarray, mode: str,
                     lam: float | None = None) -> mp.mpf:
    """Margin factor*<f(A)x,x> - f(<Ax,x>) at 60 digits, with the factor
    rule of opcalc.jensen_verify."""
    mp = _mp()
    with mp.workdps(DPS):
        _, qf, expectation = _hp_spectral_forms(
            lambda m: hp_eval(f, m), entries, x)
        factor = jensen_factor(mode, h, lam, hp_eval, mp.mpf,
                               lambda: closed_form_jcoeff(h, mp.mpf))
        return factor * expectation - hp_eval(f, qf)


def hp_chain_margins(inequality: str, inst: dict, entries=None):
    """(mid - lhs, rhs - mid) at 60 digits for a chain instance's alpha and
    a, q (and b), or p, x and the matrix ``entries``."""
    mp = _mp()
    chain = chain_rule(inequality)
    with mp.workdps(DPS):
        if chain.spectral:
            p = mp.mpf(inst["p"])
            eigs, qf, apx = _hp_spectral_forms(lambda m: m ** p, entries,
                                               inst["x"])
            inputs, values = (qf, apx, p), eigs
        else:
            inputs, values = chain.inputs(
                *(None if inst.get(k) is None else [mp.mpf(t) for t in inst[k]]
                  for k in ("a", "b", "q")))
        lhs, mid, rhs = chain.terms(*inputs, mp.mpf(inst["alpha"]),
                                    max(values) - min(values), ops=mp)
        return mid - lhs, rhs - mid


def digits(value, n: int = WITNESS_DIGITS) -> str:
    """Serialize an mpmath value to n significant digits."""
    mp = _mp()
    with mp.workdps(max(DPS, n + 5)):
        return mp.nstr(mp.mpf(value), n, strip_zeros=False)
