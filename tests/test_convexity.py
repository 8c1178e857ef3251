"""Gap certification and the Jensen coefficient."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hconvexlab import (
    DomainError, Interval, SingularQuotient, interval, make_triple,
    scalar_function,
)
from hconvexlab.convexity import (
    GRID_CELL_CAP, JCOEFF_SAMPLE_CAP, VIOLATION_TOLERANCE, _gap_grid, certify,
    gap, jcoeff,
)

NEGLOG = scalar_function("neglog")
EXPW = scalar_function("exp_weight", alpha=2.0, beta=2.16)
UNIT_OPEN = interval(0.0, 1.0, lo_open=True, hi_open=True)


# ---------------------------------------------------------------------------
# Gap
# ---------------------------------------------------------------------------

def test_gap_frozen_value():
    # h(1/2)(-ln u) + h(1/2)(-ln v) - (-ln((u+v)/2)) at u=.64, v=.8
    assert gap(NEGLOG, EXPW, 0.8, 0.64, 0.5) == 0.46739035374299315


def test_gap_vanishes_at_lambda_endpoints_for_unit_weight():
    one = scalar_function("identity_weight")
    sq = scalar_function("square")
    # h = id: F(u, 1) = f(u) - f(u) and F(u, 0) = f(v) - f(v)
    assert gap(sq, one, 2.0, -1.0, 1.0) == 0.0
    assert gap(sq, one, 2.0, -1.0, 0.0) == 0.0


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 1))
def test_gap_nonnegative_for_convex_f_unit_weight(u, v, lam):
    one = scalar_function("identity_weight")
    sq = scalar_function("square")
    assert gap(sq, one, v, u, lam) >= -1e-12


def test_gap_rejects_points_outside_domain():
    with pytest.raises(DomainError):
        gap(NEGLOG, EXPW, 0.8, -0.5, 0.5)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def test_certify_log_ratio_triple():
    tr = make_triple("kyfan", 2.0, 2.16)
    cert = certify(tr.f, tr.g, tr.h, 0.45, grid=(64, 64))
    assert cert.verdict == "Certified"
    assert cert.min_value >= -VIOLATION_TOLERANCE
    assert cert.refined
    assert cert.grid == (64, 64)
    assert cert.gate.interval.hi == 0.45


def test_certify_all_triples_at_midrange_anchor():
    for name in ("kyfan", "amgm", "chrystal", "holder_mccarthy"):
        tr = make_triple(name, 2.0, 2.5 if name in ("chrystal",) else 2.16,
                         p=2.0 if name == "holder_mccarthy" else None)
        v = 0.45 if name == "kyfan" else 0.8
        cert = certify(tr.f, tr.g, tr.h, v, grid=(64, 64))
        assert cert.verdict == "Certified", (name, cert.min_value)


def test_certify_cubic_inside_its_gate():
    # (t-1)^3 is conditionally convex on [g(v), v] = [1, 2] for v = 2
    f = scalar_function("cubic")
    g = scalar_function("piecewise_gate")
    one = scalar_function("identity_weight")
    cert = certify(f, g, one, 2.0, grid=(128, 128))
    assert cert.verdict == "Certified"
    assert cert.gate.interval.lo == 1.0 and cert.gate.interval.hi == 2.0


def test_certify_cubic_on_whole_interval_is_violated():
    # without the gate, concavity below t = 1 defeats the inequality
    f = scalar_function("cubic")
    g = scalar_function("constant_gate", value=0.0)
    one = scalar_function("identity_weight")
    cert = certify(f, g, one, 1.0, grid=(128, 128))
    assert cert.verdict == "Violated"
    # true minimum -(2/3)/sqrt(3) at u=0, lam=1/sqrt(3)
    assert abs(cert.min_value - (-2.0 / (3.0 * math.sqrt(3.0)))) < 1e-9
    assert cert.arg_min[0] == 0.0
    assert abs(cert.arg_min[1] - 1.0 / math.sqrt(3.0)) < 1e-6
    # the high-precision recheck agrees with the double-precision scan
    assert abs(cert.min_value - cert.float_min_value) < 1e-12


def test_certify_degenerate_gate():
    g = scalar_function("constant_gate", value=0.8)
    cert = certify(NEGLOG, g, EXPW, 0.8, grid=(16, 64))
    assert cert.verdict == "Degenerate"
    assert cert.gate.degenerate
    assert cert.min_value >= -VIOLATION_TOLERANCE


def test_certify_refinement_never_worse_than_grid():
    tr = make_triple("amgm", 2.0, 2.16)
    ref = certify(tr.f, tr.g, tr.h, 0.8, grid=(32, 32))
    gate = ref.gate.interval
    raw = _gap_grid(tr.f, tr.h, 0.8, np.linspace(gate.lo, gate.hi, 32),
                    np.linspace(0.0, 1.0, 32))
    assert ref.refined and not ref.gate.degenerate
    assert ref.min_value <= float(raw.min()) + 1e-15


def test_certify_rejects_silly_grid():
    tr = make_triple("kyfan", 2.0, 2.16)
    with pytest.raises(ValueError):
        certify(tr.f, tr.g, tr.h, 0.45, grid=(1, 64))


def test_work_past_its_cap_is_refused_before_allocating():
    tr = make_triple("kyfan", 2.0, 2.16)
    tracemalloc.start()
    try:
        side = 2 ** 11  # side * (side + 1) is one row past the cell cap
        with pytest.raises(ValueError, match="cap"):
            certify(tr.f, tr.g, tr.h, 0.45, grid=(side, side + 1))
        with pytest.raises(ValueError, match="cap"):
            jcoeff(EXPW, UNIT_OPEN, JCOEFF_SAMPLE_CAP + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert side * (side + 1) == GRID_CELL_CAP + side
    assert peak < 2 ** 20


# ---------------------------------------------------------------------------
# Jensen coefficient
# ---------------------------------------------------------------------------

def test_jcoeff_exp_weight_matches_ratio_limit():
    jc = jcoeff(EXPW, UNIT_OPEN)
    assert jc.value == 0.9259259277777775  # grid estimate, frozen
    assert abs(jc.value - 2.0 / 2.16) < 2e-9
    assert jc.boundary_limit and jc.attained_at is None


def test_jcoeff_identity_weight_is_one():
    one = scalar_function("identity_weight")
    jc = jcoeff(one, UNIT_OPEN)
    assert abs(jc.value - 1.0) < 1e-15
    assert not jc.boundary_limit


def test_jcoeff_power_weight_drains_to_zero_at_origin():
    h = scalar_function("power_weight", beta=2.0,
                        domain=Interval(0.0, 1.0, lo_open=True))
    jc = jcoeff(h, UNIT_OPEN)
    assert jc.value < 1e-8
    assert jc.boundary_limit


def test_jcoeff_minimum_attained_at_closed_endpoint():
    # h(t) = t^2 gives h(t)/t = t on [0.5, 2]: minimum 0.5 at the left end
    h = scalar_function("square", domain=interval(0.5, 2.0))
    jc = jcoeff(h, interval(0.5, 2.0))
    assert abs(jc.value - 0.5) < 1e-12
    assert jc.attained_at == 0.5
    assert not jc.boundary_limit


def test_jcoeff_requires_interval_inside_domain():
    with pytest.raises(DomainError):
        jcoeff(EXPW, interval(0.0, 2.0, lo_open=True))


def test_jcoeff_singular_quotient_when_h0_positive_with_zero_inside():
    h = scalar_function("affine", intercept=1.0, slope=0.0)
    with pytest.raises(SingularQuotient):
        jcoeff(h, interval(-0.5, 0.5))
    with pytest.raises(SingularQuotient):
        jcoeff(h, interval(-1.0, 0.0))  # zero at the closed top
    # approaching zero from above is fine (quotient blows up, inf unaffected)
    jc = jcoeff(h, interval(0.0, 1.0, lo_open=True))
    assert abs(jc.value - 1.0) < 1e-12


@settings(max_examples=25)
@given(st.floats(0.05, 0.45), st.floats(0.55, 0.95))
def test_jcoeff_is_a_lower_bound_on_the_quotient(a, b):
    K = interval(a, b)
    jc = jcoeff(EXPW, K, samples=512)
    for t in np.linspace(a, b, 37):
        assert jc.value <= EXPW(float(t)) / float(t) + 1e-12
