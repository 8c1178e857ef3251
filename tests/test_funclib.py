"""Interval algebra, the scalar function registry, and gate intervals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hconvexlab import (
    DomainError, InfeasibleGate, Interval, interval,
    gate_interval, make_triple, scalar_function,
)
from hconvexlab.funclib import (
    COLUMN_ERRORS, FAMILY_NAMES, TRIPLE_NAMES, TRIPLES, UNIT_CLOSED,
    UNIT_OPEN, Refusals, check_triple, _one_row, evaluate, evaluate_array,
    triple_beta_range,
)


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------

def test_interval_rejects_nan_and_inverted():
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.nan)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_degenerate_interval_must_be_closed():
    assert Interval(1.0, 1.0).degenerate
    with pytest.raises(ValueError):
        Interval(1.0, 1.0, lo_open=True)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0, hi_open=True)


def test_infinite_endpoints_must_be_open():
    with pytest.raises(ValueError):
        Interval(-math.inf, 0.0, lo_open=False)
    # the shorthand forces them open
    K = interval(-math.inf, math.inf)
    assert K.lo_open and K.hi_open


def test_contains_respects_openness():
    K = Interval(0.0, 1.0, lo_open=True, hi_open=False)
    assert not K.contains(0.0)
    assert K.contains(1.0)
    assert K.contains(0.5)
    assert not K.contains(1.0000001)


@given(st.floats(-5, 5), st.floats(-5, 5), st.booleans(), st.booleans(),
       st.floats(-6, 6))
def test_contains_array_matches_scalar(a, b, lo_open, hi_open, x):
    lo, hi = min(a, b), max(a, b)
    if lo == hi and (lo_open or hi_open):
        return
    K = Interval(lo, hi, lo_open, hi_open)
    arr = K.contains_array(np.array([x]))
    assert bool(arr[0]) == K.contains(x)


def test_issubset():
    A = Interval(0.0, 2.0)
    B = Interval(1.0, 3.0, lo_open=True)
    C = Interval(1.0, 2.0, lo_open=True)
    assert C.issubset(A) and C.issubset(B)


def test_interval_json_uses_strings_for_infinite_endpoints():
    d = interval(-math.inf, math.inf).to_json()
    assert d["lo"] == "-inf" and d["hi"] == "inf"
    assert float(d["lo"]) == -math.inf  # round-trips through float()
    d2 = Interval(0.0, 1.0).to_json()
    assert d2 == {"lo": 0.0, "hi": 1.0, "lo_open": False, "hi_open": False}


# ---------------------------------------------------------------------------
# Scalar function registry
# ---------------------------------------------------------------------------

def test_unknown_family_and_bad_params():
    with pytest.raises(ValueError):
        scalar_function("no_such_family")
    with pytest.raises(ValueError):
        scalar_function("exp_weight", alpha=2.0)  # missing beta
    with pytest.raises(ValueError):
        scalar_function("kyfan_gate", alpha=2.0, beta=3.0)  # stray beta
    with pytest.raises(ValueError):
        scalar_function("exp_weight", alpha=3.0, beta=2.0)  # needs alpha<=beta
    with pytest.raises(ValueError):
        scalar_function("power", p=1.0)  # needs p>1


def test_domain_must_fit_inside_max_domain():
    with pytest.raises(ValueError):
        scalar_function("neglog", domain=Interval(-1.0, 1.0))
    ok = scalar_function("neglog", domain=Interval(0.25, 0.75))
    assert ok.domain.lo == 0.25


def test_evaluate_rejects_points_outside_domain():
    logit = scalar_function("logit")  # default domain (0, 1/2]
    assert evaluate(logit, 0.5) == 0.0
    with pytest.raises(DomainError):
        evaluate(logit, 0.75)
    with pytest.raises(DomainError):
        evaluate(logit, 0.0)


def test_exp_weight_values():
    h = scalar_function("exp_weight", alpha=2.0, beta=2.16)
    assert math.isclose(h(0.0), 2.0 / 2.16, rel_tol=1e-15)
    assert math.isclose(h(1.0), 2.0 / 2.16, rel_tol=1e-15)
    assert math.isclose(h(0.5), (2.0 / 2.16) * math.exp(0.25), rel_tol=1e-15)


def test_chrystal_gate_frozen_value():
    g = scalar_function("chrystal_gate", alpha=2.0, beta=2.16)
    assert g(1.0) == -2.200224430264694
    # at beta == alpha the gate pins to -inf (exp ratio collapses to 1)
    g0 = scalar_function("chrystal_gate", alpha=2.0, beta=2.0)
    assert g0(1.0) == -math.inf


def test_piecewise_and_cosine_gates():
    pw = scalar_function("piecewise_gate")
    assert pw(2.0) == 1.0 and pw(1.0) == 2.0 and pw(0.0) == 2.0
    cg = scalar_function("cosine_gate")
    assert math.isclose(cg(0.0), 1.0, rel_tol=1e-15)
    assert math.isclose(cg(1.5), math.cos(2.0 * math.pi), rel_tol=1e-12)


@given(st.sampled_from(["neglog", "softplus", "square", "exp", "cubic",
                        "expdecay", "abs"]),
       st.floats(0.01, 0.99))
# an array cube and a scalar ** 3 differed by one ulp here
@example(family="cubic", t=0.6868479721127253)
def test_array_evaluation_matches_scalar_bitwise(family, t):
    fn = scalar_function(family)
    out = evaluate_array(fn, np.array([t, t]))
    assert out[0] == evaluate(fn, t)
    assert out[0] == out[1]


def test_every_registered_family_is_constructible():
    needs = {"exp_weight": {"alpha": 1.0, "beta": 2.0},
             "power_weight": {"beta": 2.0},
             "kyfan_gate": {"alpha": 2.0}, "power_gate": {"alpha": 2.0},
             "chrystal_gate": {"alpha": 1.0, "beta": 1.5},
             "root_gate": {"alpha": 1.0, "beta": 1.5, "p": 2.0},
             "constant_gate": {"value": 0.5}, "power": {"p": 2.0},
             "affine": {"intercept": 1.0, "slope": -2.0}}
    for name in FAMILY_NAMES:
        fn = scalar_function(name, **needs.get(name, {}))
        assert fn.label()


# ---------------------------------------------------------------------------
# Gate intervals
# ---------------------------------------------------------------------------

def test_gate_interval_basic():
    g = scalar_function("kyfan_gate", alpha=2.0)
    gi = gate_interval(g, 0.45, Interval(0.0, 0.5, lo_open=True))
    assert gi.interval.lo == gi.gate_value == g(0.45)
    assert gi.interval.hi == 0.45
    assert not gi.degenerate and not gi.clamped
    assert gi.gate_value < 0.45  # alpha > 1 pulls the gate below the anchor


def test_gate_interval_infeasible_when_gate_exceeds_anchor():
    # t^alpha with alpha < 1 lies above t on (0, 1)
    g = scalar_function("power_gate", alpha=0.5)
    with pytest.raises(InfeasibleGate):
        gate_interval(g, 0.25, UNIT_OPEN)


def test_gate_interval_clamps_at_open_ambient_floor():
    g = scalar_function("chrystal_gate", alpha=2.0, beta=2.16)
    ambient = interval(0.0, math.inf, lo_open=True)
    gi = gate_interval(g, 1.0, ambient)  # raw gate value is negative
    assert gi.clamped
    assert gi.interval.lo == ambient.lo + 1e-9
    assert gi.gate_value < 0.0  # the raw value is still reported


def _gate_outcome(evaluate):
    try:
        return evaluate()
    except (ValueError, ArithmeticError, DomainError, InfeasibleGate) as exc:
        return type(exc).__name__


@given(st.sampled_from(TRIPLE_NAMES), st.floats(0.0, 4.0),
       st.floats(0.0, 2.0), st.one_of(st.floats(-1.0, 800.0),
                                      st.sampled_from([0.0, 0.5, 1.0, 5e-324,
                                                       math.inf, math.nan])))
def test_gate_bounds_match_the_built_triple(name, alpha, spread, v):
    # the ends gate_interval gives on make_triple's g and f domain, raising
    # the same errors, with no triple built
    p = 2.0 if TRIPLES[name].needs_p else None
    beta = alpha + spread
    try:
        t = make_triple(name, alpha, beta, p=p)
    except ValueError:
        with pytest.raises(ValueError):
            check_triple(name, alpha, beta, p)
        return
    assert check_triple(name, alpha, beta, p) is TRIPLES[name]

    def built():
        gi = gate_interval(t.g, v, t.f.domain)
        return gi.interval.lo, gi.interval.hi
    def rows():
        lo = _one_row(lambda refuse: TRIPLES[name].gate_rows(
            *(np.array([x], dtype=float) for x in (v, alpha, beta)), p,
            refuse))
        return float(lo[0]), float(v)
    assert repr(_gate_outcome(rows)) == repr(_gate_outcome(built))


def test_gate_interval_degenerate():
    g = scalar_function("constant_gate", value=0.8)
    gi = gate_interval(g, 0.8, UNIT_CLOSED)
    assert gi.degenerate
    assert gi.interval.degenerate


def test_gate_interval_rejects_anchor_on_open_boundary():
    g = scalar_function("kyfan_gate", alpha=2.0)
    with pytest.raises(DomainError):
        gate_interval(g, 1.0, UNIT_OPEN)


# ---------------------------------------------------------------------------
# Triples
# ---------------------------------------------------------------------------

def test_make_triple_all_names():
    for name in TRIPLE_NAMES:
        lo, hi = triple_beta_range(name, 2.0)
        tr = make_triple(name, 2.0, 0.5 * (lo + hi),
                         p=2.0 if name == "holder_mccarthy" else None)
        assert tr.h.family and tr.g.family and tr.f.family
        assert tr.anchors.lo < tr.anchors.hi


def test_make_triple_rejects_out_of_range_parameters():
    with pytest.raises(ValueError):
        make_triple("kyfan", 0.5, 1.0)  # needs alpha > 1
    with pytest.raises(ValueError):
        make_triple("amgm", 2.0, 3.5)  # beta beyond alpha + 1
    with pytest.raises(ValueError):
        make_triple("chrystal", 1.0, 2.5)  # beta beyond 2 alpha
    with pytest.raises(ValueError):
        make_triple("holder_mccarthy", 2.0, 3.0, p=1.0)  # needs p > 1
    with pytest.raises(ValueError):
        make_triple("unheard_of", 2.0, 2.0)


@given(st.floats(1e-6, 1.0, exclude_max=True), st.floats(0.05, 3.0),
       st.floats(0.0, 1.0), st.floats(1.01, 4.0))
def test_gate_values_match_the_float_formulas_bitwise(v, alpha, frac, p):
    # the samplers and the chain flags read these; numpy's scalar routines
    # would move some of them by an ulp
    beta = alpha + frac * alpha
    expo = beta / alpha - 1.0
    arg = (1.0 + math.exp(v)) ** expo - 1.0
    assert TRIPLES["kyfan"].gate_value(v, alpha) \
        == v ** alpha / (v ** alpha + (1.0 - v) ** alpha)
    assert TRIPLES["amgm"].gate_value(v, alpha) == v ** alpha
    assert TRIPLES["chrystal"].gate_value(v, alpha, beta) \
        == (math.log(arg) if arg > 0.0 else -math.inf)
    assert TRIPLES["holder_mccarthy"].gate_value(v, alpha, beta, p) \
        == v * expo ** (1.0 / p)


def test_gate_value_outside_the_gate_domain_is_nan():
    assert math.isnan(TRIPLES["kyfan"].gate_value(1.0, 2.0))
    assert math.isnan(TRIPLES["amgm"].gate_value(0.0, 2.0))


def test_chrystal_gate_value_past_the_double_range():
    # e^v overflows: the gate value is the log of the power, less
    # log(1 - e^-L), which vanishes once the power overflows too
    rule = TRIPLES["chrystal"]
    assert rule.gate_value(800.0, 1.0, 2.5) \
        == 1.5 * (800.0 + math.log1p(math.exp(-800.0))) == 1200.0
    assert rule.gate_value(700.0, 1.0, 3.5) == 2.5 * 700.0  # the power only
    assert rule.gate_value(800.0, 1.0, 1.00001) == pytest.approx(
        math.log(math.expm1(800.0 * (1.00001 - 1.0))), rel=1e-12)
    assert rule.gate_value(800.0, 1.0, 1.0) == -math.inf


def test_chrystal_gate_rows_match_the_gate_value_past_the_double_range():
    # the numpy core takes the float core's value where e^v or the power
    # overflows, so the gate interval keeps anchors past 709.78
    rule, vs = TRIPLES["chrystal"], [700.0, 709.78, 710.0, 800.0, 1e300]
    g = scalar_function("chrystal_gate", alpha=1.0, beta=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, beta in ((1.0, 2.0), (0.5, 0.9)):
            refuse = Refusals(len(vs))
            lo = rule.gate_rows(np.array(vs), np.full(len(vs), alpha),
                                np.full(len(vs), beta), None, refuse)
            assert refuse.ok.all()
            assert repr(lo.tolist()) == repr(
                [rule.gate_value(v, alpha, beta) for v in vs])
        assert [evaluate(g, v) for v in vs] == vs
        assert evaluate_array(g, np.array(vs)).tolist() == vs


def test_chrystal_gate_at_beta_equal_alpha_is_minus_inf_without_warning():
    # log(0) by convention, on the float route and on both numpy routes
    g = scalar_function("chrystal_gate", alpha=1.5, beta=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert TRIPLES["chrystal"].gate_value(0.7, 1.5, 1.5) == -math.inf
        assert evaluate(g, 0.7) == -math.inf
        assert evaluate_array(g, np.array([0.7, 2.0])).tolist() \
            == [-math.inf, -math.inf]


# ---------------------------------------------------------------------------
# Gate values over columns
# ---------------------------------------------------------------------------

# gate_value's arguments (v, alpha[, beta[, p]]) at the edges of each
# triple's gate: powers that underflow to 0/0 (kyfan) or overflow (kyfan,
# which raises, and power_gate, which reads inf), chrystal at beta == alpha
# and past e^709.78, anchors outside the gate's domain, and nan
GATE_EDGE_ROWS = {
    "kyfan": [(0.3, 5000.0), (0.999999, -1000.0), (1.0, 2.0), (0.0, 2.0),
              (-0.5, 2.0), (math.nan, 2.0), (0.3, math.nan)],
    "amgm": [(10.0, 400.0), (1e-300, -2.0), (0.0, 2.0), (-1.0, 2.0),
             (math.inf, 2.0), (math.nan, 2.0), (0.3, math.nan)],
    "chrystal": [(0.7, 1.5, 1.5), (800.0, 1.0, 2.5), (710.0, 0.5, 0.9),
                 (700.0, 1.0, 3.5), (math.inf, 1.0, 2.0),
                 (-math.inf, 1.0, 2.0), (math.nan, 1.0, 2.0)],
    "holder_mccarthy": [(0.7, 1.5, 1.5, 2.0), (0.0, 1.0, 2.0, 2.0),
                        (-1.0, 1.0, 2.0, 2.0), (math.inf, 1.0, 2.0, 2.0),
                        (math.nan, 1.0, 2.0, 2.0), (1e300, 1.0, 3.0, 1.5)],
}


def gate_rows(name: str, size: int = 500, seed: int = 0) -> list:
    """gate_value's arguments of ``size`` draws inside a triple's stated
    ranges, as tuples."""
    rng = np.random.default_rng(seed)
    chain_mean = name in ("kyfan", "amgm")
    alpha = rng.uniform(1.000001 if chain_mean else 0.01, 3.0, size)
    v = rng.uniform(1e-4 if chain_mean else 0.1,
                    {"kyfan": 0.5, "amgm": 1.0, "chrystal": 3.0}.get(name, 2.0),
                    size)
    if chain_mean:
        return list(zip(v.tolist(), alpha.tolist()))
    beta = alpha + rng.uniform(0.0, 1.0, size) * alpha
    rows = zip(v.tolist(), alpha.tolist(), beta.tolist(),
               rng.uniform(1.000001, 4.0, size).tolist())
    return [row[:3] if name == "chrystal" else row for row in rows]


def _columns(rows: list) -> list:
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize("name", TRIPLE_NAMES)
def test_gate_columns_match_gate_value_bitwise(name):
    # one pass over the columns gives gate_value's bits, where numpy's exp,
    # log and power would move some of them by an ulp; a block with an edge
    # row gives them too or raises, and then goes row by row
    rule, drawn = TRIPLES[name], gate_rows(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rule.gate_columns(*_columns(drawn)).tobytes() == np.array(
            [rule.gate_value(*row) for row in drawn]).tobytes()
        passed = 0
        for rows in [[row] for row in GATE_EDGE_ROWS[name]] \
                + [drawn + GATE_EDGE_ROWS[name]]:
            try:
                got = rule.gate_columns(*_columns(rows))
            except COLUMN_ERRORS:
                continue
            passed += 1  # no row raises in gate_value, and the bits agree
            assert got.tobytes() == np.array(
                [rule.gate_value(*row) for row in rows]).tobytes()
    assert passed >= 3  # the rows outside the domain and nan among them
