"""Spread-tempered inequality chains."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hconvexlab import DomainError, SpectrumDomainError, interval
from hconvexlab.funclib import scalar_function
from hconvexlab.opcalc import SymmetricMatrix, UnitVector
from hconvexlab.refined import (
    CHAIN_NAMES, N_CAP, ChainReport, WeightedSample, amgm_chain,
    chrystal_chain, chrystal_terms, feasible, gamma, hm_chain, kyfan_chain,
)


# ---------------------------------------------------------------------------
# Samples and spread
# ---------------------------------------------------------------------------

def test_weighted_sample_validation():
    with pytest.raises(ValueError):
        WeightedSample((), ())
    with pytest.raises(ValueError):
        WeightedSample((1.0, 2.0), (0.5,))
    with pytest.raises(ValueError):
        WeightedSample((1.0,), (1.0,), b=(1.0, 2.0))
    with pytest.raises(ValueError):
        WeightedSample((1.0, 2.0), (0.7, 0.7))  # does not sum to 1
    with pytest.raises(ValueError):
        WeightedSample((1.0, 2.0), (1.2, -0.2))  # weights outside (0, 1]
    with pytest.raises(ValueError):
        WeightedSample((math.inf,), (1.0,))
    # the single-point sample with q = 1 is allowed
    assert WeightedSample((2.0,), (1.0,)).n == 1
    with pytest.raises(ValueError):
        WeightedSample(tuple(range(1, N_CAP + 2)),
                       (1.0 / (N_CAP + 1),) * (N_CAP + 1))


def test_gamma_is_the_value_spread():
    s = WeightedSample((0.2, 0.5, 0.35), (0.25, 0.5, 0.25))
    assert gamma(s, "kyfan") == pytest.approx(0.3, abs=1e-15)
    assert gamma(s, "amgm") == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ValueError):
        gamma(s, "nonsense")


def test_gamma_chrystal_spans_both_value_lists():
    s = WeightedSample((1.0, 2.0), (0.5, 0.5), b=(5.0, 4.0))
    # union {1, 2, 5, 4}: spread 4
    assert gamma(s, "chrystal") == 4.0
    with pytest.raises(ValueError):
        gamma(WeightedSample((1.0,), (1.0,)), "chrystal")


# ---------------------------------------------------------------------------
# Frozen chain values
# ---------------------------------------------------------------------------

def test_amgm_frozen_chain():
    s = WeightedSample((0.64, 0.8), (0.5, 0.5))
    r = amgm_chain(s, 2.0, 0.8)
    assert r.chain == (0.7155417527999327, 0.7335044614184572, 0.72)
    assert r.gamma == pytest.approx(0.16, abs=1e-15)
    assert r.beta == pytest.approx(2.16, abs=1e-15)
    assert r.feasible  # the sample sits inside [v^alpha, v] = [0.64, 0.8]
    # the tempered middle term overshoots the arithmetic mean here:
    # a genuine violation of the middle inequality inside its hypotheses
    assert r.margins[1] < 0.0 < r.margins[0]


def test_kyfan_frozen_chain_and_infeasibility():
    s = WeightedSample((0.45, 0.5), (0.5, 0.5))
    r = kyfan_chain(s, 2.0, 0.5)
    assert r.chain == (1.105263157894737, 1.1028394191439945, 1.1055415967851334)
    assert r.chain[0] == pytest.approx(21.0 / 19.0, rel=1e-15)
    # 0.45 falls below the gate value at v=1/2, so membership fails
    assert not r.flags["values_in_interval"]
    assert not r.feasible
    assert r.flags["alpha_in_range"] and r.flags["anchor_in_range"]


def test_kyfan_needs_values_in_half_open_unit_half():
    with pytest.raises(DomainError):
        kyfan_chain(WeightedSample((0.6, 0.4), (0.5, 0.5)), 2.0, 0.5)


def test_amgm_needs_positive_values():
    with pytest.raises(DomainError):
        amgm_chain(WeightedSample((-1.0, 0.5), (0.5, 0.5)), 2.0, 0.8)


def test_chrystal_frozen_single_point():
    r = chrystal_chain(WeightedSample((2.0,), (1.0,), b=(5.0,)), 1.0, 3.0)
    # gamma = 0 at n = 1... no: union {2, 5} has spread 3, beta = 4,
    # mid = (a+b)^(1/4) b^(3/4) = 7^(1/4) 5^(3/4)
    assert r.gamma == 3.0 and r.beta == 4.0
    assert r.chain[1] == pytest.approx(7.0 ** 0.25 * 5.0 ** 0.75, rel=1e-15)
    assert r.chain[0] == pytest.approx(7.0, rel=1e-14)
    assert r.chain[2] == pytest.approx(7.0, rel=1e-14)
    r2 = chrystal_chain(WeightedSample((1.0,), (1.0,), b=(3.0,)), 1.0, 3.0)
    assert r2.chain[1] == pytest.approx(3.3019272488946267, rel=1e-15)


def test_chrystal_requires_paired_positive_values():
    with pytest.raises(DomainError):
        chrystal_chain(WeightedSample((1.0,), (1.0,)), 1.0, 3.0)
    with pytest.raises(DomainError):
        chrystal_chain(WeightedSample((1.0,), (1.0,), b=(-2.0,)), 1.0, 3.0)


def test_hm_frozen_chain():
    A = SymmetricMatrix.diagonal([0.64, 0.8])
    x = UnitVector([1.0, 1.0])
    r = hm_chain(A, x, 2.0, 2.0, 0.8)
    assert r.chain == (0.5183999999999997, 0.48592592592592593, 0.5248)
    assert r.gamma == pytest.approx(0.16, abs=1e-15)
    assert r.p == 2.0
    assert r.margins[0] < 0.0 < r.margins[1]


def test_hm_rejects_bad_exponent_and_spectrum():
    A = SymmetricMatrix.diagonal([0.64, 0.8])
    x = UnitVector([1.0, 1.0])
    with pytest.raises(ValueError):
        hm_chain(A, x, 1.0, 2.0, 0.8)
    with pytest.raises(SpectrumDomainError):
        hm_chain(SymmetricMatrix.diagonal([-0.5, 0.8]), x, 2.0, 2.0, 0.8)


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(st.lists(st.floats(0.05, 0.999), min_size=1, max_size=6),
       st.floats(1.001, 4.0))
def test_amgm_zero_spread_collapses_the_chain(values, alpha):
    t = values[0]
    n = len(values)
    q = (1.0 / n,) * n
    s = WeightedSample((t,) * n, q)
    r = amgm_chain(s, alpha, max(t, 0.999))
    assert r.gamma == 0.0
    assert abs(r.chain[0] - r.chain[1]) <= 1e-12
    assert abs(r.chain[1] - r.chain[2]) <= 1e-12


def test_zero_spread_collapses_every_chain():
    t, alpha = 0.4, 2.0
    s = WeightedSample((t, t, t), (0.25, 0.5, 0.25))
    for r in (kyfan_chain(s, alpha, 0.5), amgm_chain(s, alpha, 0.5)):
        assert r.gamma == 0.0
        assert max(abs(r.chain[0] - r.chain[1]),
                   abs(r.chain[1] - r.chain[2])) <= 1e-12
    sc = WeightedSample((t, t), (0.5, 0.5), b=(t, t))
    rc = chrystal_chain(sc, alpha, 1.0)
    assert rc.gamma == 0.0
    assert max(abs(rc.chain[0] - rc.chain[1]),
               abs(rc.chain[1] - rc.chain[2])) <= 1e-12
    A = SymmetricMatrix.diagonal([t, t, t])
    rh = hm_chain(A, UnitVector([1.0, 1.0, 1.0]), 2.0, alpha, 0.5)
    assert rh.gamma == 0.0
    assert max(abs(rh.chain[0] - rh.chain[1]),
               abs(rh.chain[1] - rh.chain[2])) <= 1e-12


@settings(max_examples=40)
@given(st.lists(st.tuples(st.floats(0.1, 0.5), st.floats(0.05, 1.0)),
                min_size=2, max_size=5),
       st.randoms(use_true_random=False))
def test_chain_is_permutation_invariant(pairs, rnd):
    total = sum(w for _, w in pairs)
    a = tuple(t for t, _ in pairs)
    q = tuple(w / total for _, w in pairs)
    if abs(math.fsum(q) - 1.0) > 1e-12:
        return
    order = list(range(len(pairs)))
    rnd.shuffle(order)
    s1 = WeightedSample(a, q)
    s2 = WeightedSample(tuple(a[i] for i in order), tuple(q[i] for i in order))
    r1, r2 = kyfan_chain(s1, 2.0, 0.5), kyfan_chain(s2, 2.0, 0.5)
    assert r1.gamma == r2.gamma
    for x, y in zip(r1.chain, r2.chain):
        assert math.isclose(x, y, rel_tol=1e-12)


def test_hm_outer_terms_scale_as_c_to_the_p():
    A = SymmetricMatrix.diagonal([0.3, 0.5, 0.7])
    x = UnitVector([1.0, 2.0, -1.0])
    p, alpha, c = 2.5, 2.0, 3.0
    base = hm_chain(A, x, p, alpha, 0.7)
    scaled = hm_chain(SymmetricMatrix(c * A.entries), x, p, alpha, c * 0.7)
    assert scaled.chain[0] == pytest.approx(c ** p * base.chain[0], rel=1e-12)
    assert scaled.chain[2] == pytest.approx(c ** p * base.chain[2], rel=1e-12)
    # the tempered middle does not scale: beta = alpha + gamma shifts
    assert scaled.gamma == pytest.approx(c * base.gamma, rel=1e-12)


def test_chrystal_matches_softplus_substitution():
    # with x_i = ln(a_i/b_i), the outer terms reduce to geometric means of
    # softplus: rhs = bbar * exp(sum q softplus(x)), lhs = bbar *
    # exp(softplus(sum q x)) -- the chain is a Jensen gap for softplus
    sp = scalar_function("softplus",
                         domain=interval(-math.inf, math.inf))
    a, b, q = (1.0, 2.0, 0.5), (3.0, 1.5, 2.0), (0.3, 0.45, 0.25)
    s = WeightedSample(a, q, b=b)
    r = chrystal_chain(s, 2.0, 3.0)
    xs = [math.log(ai / bi) for ai, bi in zip(a, b)]
    bbar = math.exp(sum(qi * math.log(bi) for bi, qi in zip(b, q)))
    rhs = bbar * math.exp(sum(qi * sp(xi) for xi, qi in zip(xs, q)))
    lhs = bbar * math.exp(sp(sum(qi * xi for xi, qi in zip(xs, q))))
    assert r.chain[2] == pytest.approx(rhs, rel=1e-13)
    assert r.chain[0] == pytest.approx(lhs, rel=1e-13)
    assert r.chain[2] >= r.chain[0] - 1e-12  # scalar Jensen for softplus


@settings(max_examples=60)
@given(st.lists(st.floats(0.2, 0.5, exclude_min=True), min_size=2, max_size=5),
       st.floats(1.001, 3.0))
def test_kyfan_outer_inequality_always_holds(values, alpha):
    # lhs <= rhs is the classical bound; it holds regardless of feasibility
    n = len(values)
    s = WeightedSample(tuple(values), (1.0 / n,) * n)
    r = kyfan_chain(s, alpha, 0.5)
    assert r.chain[2] >= r.chain[0] * (1.0 - 1e-12)


def test_feasible_flags_keys_per_inequality():
    s = WeightedSample((0.7, 0.75), (0.5, 0.5))
    assert set(feasible(s, 2.0, 0.8, "amgm")) == {
        "alpha_in_range", "gamma_in_range", "anchor_in_range",
        "values_in_interval"}
    sc = WeightedSample((0.7,), (1.0,), b=(0.8,))
    assert set(feasible(sc, 2.0, 1.0, "chrystal")) == {
        "alpha_in_range", "gamma_in_range", "anchor_in_range",
        "values_in_interval", "logratios_in_interval"}
    assert set(feasible(s, 2.0, 0.8, "holder_mccarthy", p=2.0)) == {
        "alpha_in_range", "gamma_in_range", "anchor_in_range",
        "exponent_in_range", "spectrum_in_interval"}


def test_chrystal_feasibility_ignores_raw_value_reading():
    # log-ratios inside [lo, v] decide; the raw values sit above the anchor
    s = WeightedSample((3.0,), (1.0,), b=(2.9,))
    r = chrystal_chain(s, 2.0, 1.0)
    assert r.flags["logratios_in_interval"]
    assert not r.flags["values_in_interval"]
    assert r.feasible


def test_report_serialization_and_array():
    s = WeightedSample((0.64, 0.8), (0.5, 0.5))
    r = amgm_chain(s, 2.0, 0.8)
    d = r.to_json()
    assert d["inequality"] == "amgm"
    assert d["chain"]["lhs"] == r.chain[0]
    assert d["margins"]["rhs_minus_mid"] == r.margins[1]
    row = r.csv_row()
    assert list(row) == ["inequality", "n", "alpha", "gamma", "beta", "lhs",
                         "mid", "rhs", "margin1", "margin2", "feasible"]


def test_chain_names_constant():
    assert CHAIN_NAMES == ("kyfan", "amgm", "chrystal", "holder_mccarthy")
