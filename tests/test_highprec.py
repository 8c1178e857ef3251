"""Extended-precision backend: the independent confirmation arithmetic."""

import math

import numpy as np
import pytest
from mpmath import mp

from hconvexlab import PrecisionUnavailable, interval
from hconvexlab.funclib import scalar_function
from hconvexlab.highprec import (
    DPS, WITNESS_DIGITS, closed_form_jcoeff, digits, hp_chain_margins,
    hp_eval, hp_gap, hp_jensen_margin,
)
from hconvexlab.opcalc import SymmetricMatrix, UnitVector, jensen_verify
from hconvexlab.refined import WeightedSample, amgm_chain, hm_chain

NEGLOG = scalar_function("neglog")
EXPW = scalar_function("exp_weight", alpha=2.0, beta=2.16)


def test_constants():
    assert DPS == 60 and WITNESS_DIGITS == 50


def test_hp_eval_agrees_with_doubles():
    for family, pts in (("neglog", (0.1, 0.5, 0.9)),
                        ("softplus", (0.2, 1.0, 3.0)),
                        ("square", (-2.0, 0.5)),
                        ("exp", (-1.0, 0.0, 1.5))):
        fn = scalar_function(family)
        for t in pts:
            hi = float(hp_eval(fn, t))
            lo = fn(t) if fn.domain.contains(t) else None
            if lo is not None:
                assert math.isclose(hi, lo, rel_tol=1e-14), (family, t)


def test_hp_gap_frozen_50_digits():
    g = hp_gap(NEGLOG, EXPW, 0.8, 0.64, 0.5)
    assert digits(g) == (
        "0.46739035374299329971369577346213167122667355368344")
    # the double-precision gap sits within one ulp of the true value
    assert abs(float(g) - 0.46739035374299315) < 5e-16


def hp_jcoeff(h):
    with mp.workdps(DPS):
        return closed_form_jcoeff(h, mp.mpf)


def test_hp_jcoeff_closed_forms():
    with mp.workdps(60):
        expected = mp.mpf(2.0) / mp.mpf(2.16)
    assert hp_jcoeff(EXPW) == expected
    assert hp_jcoeff(scalar_function("identity_weight")) == 1
    assert hp_jcoeff(scalar_function("power_weight", beta=2.0)) == 0
    assert hp_jcoeff(scalar_function("power_weight", beta=1.0)) == 1
    with pytest.raises(PrecisionUnavailable):
        hp_jcoeff(scalar_function("square"))


def test_hp_jensen_margin_pinned_instance():
    entries = np.diag([0.64, 0.8])
    x = np.array([0.7071067811865476, 0.7071067811865476])
    m = hp_jensen_margin(NEGLOG, EXPW, entries, x, "infimum")
    assert digits(m) == (
        "-0.018582467924522522954008998445822332074251394191259")
    # double-precision evaluation with the closed-form coefficient agrees
    from hconvexlab.convexity import JensenCoefficient
    co = JensenCoefficient(2.0 / 2.16, None, True)
    v = jensen_verify(NEGLOG, EXPW, SymmetricMatrix.diagonal([0.64, 0.8]),
                      UnitVector(x), "infimum", coefficient=co)
    assert abs(v.margin - float(m)) < 1e-15


def test_hp_jensen_margin_per_lambda_sign_change():
    entries = np.diag([0.64, 0.8])
    x = np.array([0.7071067811865476, 0.7071067811865476])
    m9 = hp_jensen_margin(NEGLOG, EXPW, entries, x, "per-lambda", lam=0.9)
    m99 = hp_jensen_margin(NEGLOG, EXPW, entries, x, "per-lambda", lam=0.99)
    assert m9 > 0 > m99
    assert digits(m9)[:20] == "0.048282870408615613"
    assert digits(m99)[:21] == "-0.012337338861154097"


def test_hp_jensen_margin_half_bound_positive():
    entries = np.diag([0.64, 0.8])
    x = np.array([0.7071067811865476, 0.7071067811865476])
    m = hp_jensen_margin(NEGLOG, EXPW, entries, x, "half-bound")
    # the half-bound margin for equal spectral weights is exactly the
    # lambda = 1/2 gap, here the frozen value above
    assert digits(m) == digits(hp_gap(NEGLOG, EXPW, 0.8, 0.64, 0.5))


def test_hp_chain_margins_match_double_chain():
    s = WeightedSample((0.64, 0.8), (0.5, 0.5))
    r = amgm_chain(s, 2.0, 0.8)
    m1, m2 = hp_chain_margins("amgm", {"a": s.a, "q": s.q, "alpha": 2.0})
    assert abs(float(m1) - r.margins[0]) < 1e-15
    assert abs(float(m2) - r.margins[1]) < 1e-15
    assert digits(m2)[:21] == "-0.013504461418457078"


def test_hp_chain_margins_hm_route():
    A = SymmetricMatrix.diagonal([0.64, 0.8])
    x = UnitVector([1.0, 1.0])
    r = hm_chain(A, x, 2.0, 2.0, 0.8)
    m1, m2 = hp_chain_margins("holder_mccarthy",
                              {"alpha": 2.0, "p": 2.0, "x": x.components},
                              A.entries)
    assert abs(float(m1) - r.margins[0]) < 2e-15
    assert abs(float(m2) - r.margins[1]) < 2e-15


def test_hp_non_diagonal_spectral_weights():
    # rotated matrix: hp route must agree with the double-precision verdict
    entries = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = np.array([0.6, 0.8])
    m = hp_jensen_margin(scalar_function("square"), None, entries, x,
                         "classical")
    v = jensen_verify(scalar_function("square"), None,
                      SymmetricMatrix(entries), UnitVector(x), "classical")
    assert abs(float(m) - v.margin) < 1e-12
    assert m >= 0


def test_digits_formatting():
    with mp.workdps(60):
        third = mp.mpf(1) / mp.mpf(3)
        bumped = mp.mpf(1) + mp.mpf(10) ** -45
    s = digits(third)
    assert s.startswith("0.33333333333333333333333333333333333333333333333")
    assert digits(mp.mpf(-2), 10).startswith("-2.0")
    # enough digits survive to discriminate at the 1e-50 scale
    assert digits(bumped) != digits(mp.mpf(1))
