"""Seeded falsification campaigns: sampling, confirmation, determinism."""

import hashlib
import math
import os

import numpy as np
import pytest

from hconvexlab import ConfigError, EmptyRegion, HConvexLabError
from hconvexlab.falsify import (
    CANDIDATE_THRESHOLD, CONFIRM_THRESHOLD, RETRY_CAP, RULES, Campaign,
    PINNED_INSTANCE, TARGETS, WITNESS_CAP, bound_status, confirm,
    draw_instance, evaluate_instance, lambda_profile, margin_bound,
    replay_witness, run_campaign,
)
from hconvexlab.falsify import _Streams, _stream, _worker_count
from hconvexlab.funclib import scalar_function
from hconvexlab.opcalc import SymmetricMatrix, UnitVector
from hconvexlab.reporting import canonical_json, strip_wall_time


def _report_bytes(report: dict) -> str:
    return canonical_json(strip_wall_time(report))


# ---------------------------------------------------------------------------
# Campaign configuration
# ---------------------------------------------------------------------------

def test_campaign_validation():
    with pytest.raises(ConfigError):
        Campaign("made-up-target", 10, 1)
    with pytest.raises(ConfigError):
        Campaign("amgm", 0, 1)
    with pytest.raises(ConfigError):
        Campaign("amgm", 10, -1)
    with pytest.raises(ConfigError):
        Campaign("amgm", 10, 1, margin_kind="sideways")
    with pytest.raises(ConfigError):
        Campaign("amgm", 10, 1, region={"nonsense": [0, 1]})
    with pytest.raises(ConfigError):
        Campaign("amgm", 10, 1, region={"alpha": [0.5, 2.0]})  # needs > 1
    with pytest.raises(ConfigError):
        Campaign("amgm", 10, 1, region={"v": [0.9, 0.1]})  # out of order
    c = Campaign("amgm", 10, 1, region={"alpha": [1.5, 2.0]})
    assert c.region["alpha"] == [1.5, 2.0]
    assert c.region["v"] == RULES["amgm"].region["v"]  # defaults merged


def test_targets_constant():
    assert TARGETS == ("operator-jensen", "per-lambda", "half-bound",
                       "best-possible", "kyfan", "amgm", "chrystal",
                       "holder-mccarthy", "certificates")


def test_worker_count_parsing():
    # parsed only: no value here reaches a process pool
    assert _worker_count(None) == _worker_count("") == 1
    assert _worker_count(" ") == _worker_count("1") == 1
    assert _worker_count("2") == min(2, os.cpu_count() or 1)
    assert _worker_count(str(10 ** 9)) == (os.cpu_count() or 1)
    for bad in ("0", "-3", "two", "1.5", "1e9"):
        with pytest.raises(ConfigError, match="HCONVEXLAB_THREADS"):
            _worker_count(bad)


# ---------------------------------------------------------------------------
# Drawing and evaluation
# ---------------------------------------------------------------------------

def test_reused_generator_gives_each_sample_its_own_stream():
    streams = _Streams(123)
    for i in (7, 0, 5, 2 ** 40):
        fresh, reused = _stream(123, i), streams.at(i)
        assert fresh.standard_normal(3).tolist() \
            == reused.standard_normal(3).tolist()
        assert fresh.integers(2, 9) == reused.integers(2, 9)
        assert fresh.dirichlet(np.ones(3)).tolist() \
            == reused.dirichlet(np.ones(3)).tolist()


def test_draw_is_deterministic_per_seed_and_index():
    region = RULES["amgm"].region
    a = draw_instance(_stream(123, 5), "amgm", region)
    b = draw_instance(_stream(123, 5), "amgm", region)
    c = draw_instance(_stream(123, 6), "amgm", region)
    assert a == b
    assert a != c


def test_drawn_chain_instances_are_feasible_by_construction():
    for target in ("kyfan", "amgm", "chrystal", "holder-mccarthy"):
        region = RULES[target].region
        for i in range(40):
            inst = draw_instance(_stream(31, i), target, region)
            _, flags, _ = evaluate_instance(inst)
            operative = {k: ok for k, ok in flags.items()
                         if not (target == "chrystal"
                                 and k == "values_in_interval")}
            assert all(operative.values()), (target, i, flags)


def test_evaluate_pinned_instance_frozen_margin():
    inst = dict(PINNED_INSTANCE, target="operator-jensen",
                weight="exp_weight")
    margin, flags, extras = evaluate_instance(inst)
    assert margin == -0.018582467924522228
    assert all(flags.values())
    assert extras["rhs_factor"] == pytest.approx(2.0 / 2.16, rel=1e-15)


def test_evaluate_best_possible_reduced_vs_functional_margins():
    inst = {"target": "best-possible", "a": 1.0, "lam": 0.75, "beta": 0.5}
    margin, flags, extras = evaluate_instance(inst)
    # the reduced-expectation reading is negative on the whole region...
    assert margin == pytest.approx(-0.3941353653229721, rel=1e-13)
    # ...while the full functional-calculus margin stays positive
    assert extras["functional_calculus_margin"] == pytest.approx(
        0.18321490386665366, rel=1e-13)
    assert all(flags.values())


def test_outer_margin_kind_sums_the_chain():
    inst = {"target": "amgm", "a": [0.64, 0.8], "q": [0.5, 0.5],
            "alpha": 2.0, "v": 0.8, "n": 2}
    refined_margin, _, extras = evaluate_instance(inst, "refined")
    outer_margin, _, _ = evaluate_instance(inst, "outer")
    assert refined_margin == min(extras["margins"])
    assert outer_margin == pytest.approx(sum(extras["margins"]), abs=1e-15)
    assert outer_margin > 0.0 > refined_margin


# ---------------------------------------------------------------------------
# Confirmation and demotions
# ---------------------------------------------------------------------------

def test_confirm_pinned_instance_at_50_digits():
    inst = dict(PINNED_INSTANCE, target="operator-jensen",
                weight="exp_weight")
    margin, flags, extras = evaluate_instance(inst)
    out = confirm({"index": 0, "inputs": inst, "margin_double": margin,
                   "flags": flags, "extras": extras})
    assert out["confirmed"] and out["demotion"] is None
    assert out["margin_confirmed"] == (
        "-0.018582467924522522954008998445822332074251394191259")


def test_confirm_demotes_infeasible_flags():
    inst = {"target": "kyfan", "a": [0.45, 0.5], "q": [0.5, 0.5],
            "alpha": 2.0, "v": 0.5, "n": 2}
    margin, flags, extras = evaluate_instance(inst)
    assert margin < CONFIRM_THRESHOLD and not flags["values_in_interval"]
    out = confirm({"index": 0, "inputs": inst, "margin_double": margin,
                   "flags": flags, "extras": extras})
    assert not out["confirmed"]
    assert out["demotion"] == "infeasible-flags"


def test_confirm_demotes_float_noise():
    # equal values make the chain an exact equality; a tiny negative double
    # margin on it must be recognized as noise by the 60-digit recheck
    inst = {"target": "amgm", "a": [0.5, 0.5], "q": [0.5, 0.5],
            "alpha": 2.0, "v": 0.6, "n": 2}
    _, flags, extras = evaluate_instance(inst)
    out = confirm({"index": 0, "inputs": inst, "margin_double": -1e-9,
                   "flags": flags, "extras": extras})
    assert not out["confirmed"]
    assert out["demotion"] == "float-noise"


def test_confirm_keeps_chrystal_with_raw_value_flag_down():
    inst = {"target": "chrystal", "a": [3.0], "b": [2.9], "q": [1.0],
            "alpha": 2.0, "v": 1.0, "n": 1}
    margin, flags, extras = evaluate_instance(inst)
    assert not flags["values_in_interval"]  # informational only
    out = confirm({"index": 0, "inputs": inst, "margin_double": margin,
                   "flags": flags, "extras": extras})
    assert out["demotion"] != "infeasible-flags"


def test_bound_status_sends_near_edge_margins_to_confirm():
    below = math.nextafter(CONFIRM_THRESHOLD, -math.inf)
    above = math.nextafter(CONFIRM_THRESHOLD, math.inf)
    # clear of both edges: the status confirm would give
    assert bound_status(-1e-3, 1e-9, True) == (True, None)
    assert bound_status(-1e-3, 1e-9, False) == (False, "infeasible-flags")
    assert bound_status(-1e-8, 1e-12, True) == (False, "below-threshold")
    # within the bound of 0 or of the threshold
    assert bound_status(-1e-9, 2e-9, True) is None
    assert bound_status(-1.0000001e-6, 1e-12, True) is None
    assert bound_status(-0.9999999e-6, 1e-12, True) is None
    # one ulp either side of an edge, even with a zero bound
    for margin in (below, CONFIRM_THRESHOLD, above):
        assert bound_status(margin, 0.0, True) is None
    assert bound_status(-5e-324, 0.0, True) is None
    assert bound_status(math.nextafter(below, -math.inf), 0.0, True) \
        == (True, None)
    assert bound_status(math.nextafter(above, math.inf), 0.0, True) \
        == (False, "below-threshold")


def test_margin_bound_covers_the_60_digit_margin():
    for target in ("operator-jensen", "per-lambda", "kyfan", "amgm",
                   "chrystal", "holder-mccarthy"):
        region = Campaign(target, 1, 1).region
        for i in range(20):
            inst = draw_instance(_stream(17, i), target, region)
            margin, flags, extras = evaluate_instance(inst)
            cand = {"index": i, "inputs": inst, "margin_double": margin,
                    "flags": flags, "extras": extras}
            bound = margin_bound(cand)
            exact = float(confirm(cand)["margin_confirmed"])
            terms = extras.get("chain") or (extras["lhs"], extras["rhs"])
            assert 0.0 < bound < 1e-9 * max(1.0, *terms), (target, i, bound)
            assert abs(margin - exact) <= bound, (target, i)


def test_margin_bound_leaves_dense_and_unbounded_targets_to_confirm():
    inst = dict(PINNED_INSTANCE, target="operator-jensen",
                weight="exp_weight")
    dense = {k: v for k, v in inst.items() if k != "diag"}
    dense["entries"] = np.diag(inst["diag"]).tolist()
    for inputs in (dense, {"target": "best-possible", "a": 1.0, "lam": 0.75,
                           "beta": 0.5}):
        margin, flags, extras = evaluate_instance(inputs)
        assert margin_bound({"inputs": inputs, "margin_double": margin,
                             "flags": flags, "extras": extras}) is None


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("target", ["operator-jensen", "kyfan", "amgm",
                                    "chrystal", "holder-mccarthy"])
def test_campaign_counts_match_full_confirmation(target):
    # every candidate re-drawn and run through the 60-digit confirm must
    # give the counts the campaign reached with its bound-settled statuses
    seed, samples = 20260815, 300
    campaign = Campaign(target, samples, seed)
    stats = run_campaign(campaign)["witness_stats"]
    candidates = confirmed = 0
    demotions = {}
    for i in range(samples):
        rng = _stream(seed, i)
        for _ in range(RETRY_CAP):
            try:
                inst = draw_instance(rng, target, campaign.region)
                margin, flags, extras = evaluate_instance(inst)
            except (ValueError, ArithmeticError, HConvexLabError):
                continue
            if RULES[target].feasible(flags):
                break
        if margin >= CANDIDATE_THRESHOLD:
            continue
        candidates += 1
        out = confirm({"index": i, "inputs": inst, "margin_double": margin,
                       "flags": flags, "extras": extras})
        confirmed += out["confirmed"]
        if out["demotion"]:
            demotions[out["demotion"]] = demotions.get(out["demotion"], 0) + 1
    assert candidates > WITNESS_CAP  # so some statuses came from the bound
    assert (stats["candidates"], stats["confirmed"], stats["demotions"]) \
        == (candidates, confirmed, demotions)


def test_campaign_frozen_statistics():
    rep = run_campaign(Campaign("amgm", 300, 7))
    assert rep["counts"] == {"drawn": 300, "counted": 300, "rejected": 0}
    assert rep["witness_stats"] == {
        "candidates": 118, "confirmed": 114,
        "demotions": {"below-threshold": 4}, "reported": 32}
    assert rep["outcome"] == "confirmed witness"
    assert rep["min_margin"] == min(
        w["margin_double"] for w in rep["witnesses"])


# sha256 of the canonical report bytes (wall time stripped) of a
# 200-sample campaign at the acceptance seed, for every target and for the
# chains' outer margins.  Reruns alone cannot show a change of the bytes;
# these pin them.  Taken with numpy 2.4.6 on x86-64 Linux: a libm whose
# exp, log or pow round differently changes them too.
GOLDEN_SEED = 20260815
GOLDEN_DIGESTS = {
    ("operator-jensen", "refined"):
        "9e71ec85ecefddf328d9f3d2a53884031bc3e9a5345066c99d61dc74372b02f3",
    ("per-lambda", "refined"):
        "c7c42f1f0a7b2409d99c1ecd271d35f8cbb89d62bd2b5d744f3e0d740d19baef",
    ("half-bound", "refined"):
        "ad41e1a5061a59acb927521dd1afe37e25424562d438d65bf1ea92df864491a6",
    ("best-possible", "refined"):
        "4098732a2fd9f902f6c5148056d1748ac0afa5d84f60b2d2a5b17f2e5fc36bed",
    ("kyfan", "refined"):
        "ebb25ef94999d5b63218f090e1ad8f1c2cc8c4820aecc79b9f9511f79ae1190a",
    ("amgm", "refined"):
        "7c1074c9b74b66716efbd1cb99cb27c18392b1e6ef5a9674bf8e58c461d6aef8",
    ("chrystal", "refined"):
        "0e8c35b1d9e1c02132aae5036dca418fbd8af99a15499f46e5ebb4f822da69c1",
    ("holder-mccarthy", "refined"):
        "416be68f08dec10f42f940654dc2545dd500b47642a13f84b62494f928d8d4a6",
    ("certificates", "refined"):
        "38cecf36a82710f460472128913528f787d92d53e3bc1e86e23585f54a1e35bf",
    ("kyfan", "outer"):
        "d9a846c7bbf458ca66df5e0bf507238c1ddc47b8c1bb87a5d08b2f635cebc749",
    ("amgm", "outer"):
        "105bec828ab5c84dfab15397a2b22dd588e7be5d05b40cd1afa0164242eca5b6",
    ("chrystal", "outer"):
        "c960698d42716151fa9a3c27d787de4a363f347b85eee179c09edb6e23347795",
    ("holder-mccarthy", "outer"):
        "9e7d9ad7ffac47efbf03c59f294d66ff3821988f60be289472eefd447e887a9c",
}


@pytest.mark.parametrize("target, margin_kind", list(GOLDEN_DIGESTS),
                         ids=[f"{t}/{k}" for t, k in GOLDEN_DIGESTS])
def test_report_bytes_match_golden_digests(target, margin_kind):
    rep = run_campaign(Campaign(target, 200, GOLDEN_SEED,
                                margin_kind=margin_kind))
    digest = hashlib.sha256(_report_bytes(rep).encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[target, margin_kind]


def test_campaign_reports_are_byte_deterministic():
    rep1 = run_campaign(Campaign("amgm", 200, 99))
    rep2 = run_campaign(Campaign("amgm", 200, 99))
    assert _report_bytes(rep1) == _report_bytes(rep2)
    # wall time is the only field allowed to differ
    assert "elapsed_s" in rep1


def test_campaign_bytes_do_not_depend_on_worker_count(monkeypatch):
    rep1 = run_campaign(Campaign("kyfan", 120, 5))
    monkeypatch.setenv("HCONVEXLAB_THREADS", "2")
    rep2 = run_campaign(Campaign("kyfan", 120, 5))
    assert _report_bytes(rep1) == _report_bytes(rep2)


def test_witness_cap_and_argmin_inclusion():
    rep = run_campaign(Campaign("amgm", 2000, 13, witness_cap=8))
    assert rep["witness_stats"]["reported"] <= 8
    assert len(rep["witnesses"]) <= 8
    argmin_idx = rep["argmin"]["index"]
    assert any(w["index"] == argmin_idx for w in rep["witnesses"])
    assert rep["min_margin"] == min(
        w["margin_double"] for w in rep["witnesses"])


def test_rejection_accounting_balances():
    # exp overflows in the gate for most anchors this far out, so draws
    # are rejected and retried; the books must still balance exactly
    rep = run_campaign(Campaign("chrystal", 10, 21,
                                region={"v": [700.0, 760.0]}))
    counts = rep["counts"]
    assert counts["counted"] == 10
    assert counts["drawn"] == counts["counted"] + counts["rejected"]
    assert counts["rejected"] > 0


def test_empty_region_when_no_draw_survives():
    with pytest.raises(EmptyRegion) as exc:
        run_campaign(Campaign("chrystal", 4, 11,
                              region={"v": [750.0, 800.0]}))
    assert exc.value.drawn == exc.value.rejected == 512


def test_half_bound_finds_no_candidates():
    rep = run_campaign(Campaign("half-bound", 300, 17))
    assert rep["witness_stats"]["candidates"] == 0
    assert rep["outcome"].startswith("no violation found")
    assert rep["min_margin"] > 0.0


def test_operator_jensen_report_publishes_pinned_instance():
    rep = run_campaign(Campaign("operator-jensen", 50, 3))
    pinned = rep["pinned_instance"]
    assert pinned["confirmed"]
    assert pinned["margin_confirmed"] == (
        "-0.018582467924522522954008998445822332074251394191259")
    assert pinned["inputs"]["diag"] == PINNED_INSTANCE["diag"]


def test_outer_margins_hold_in_small_campaigns():
    for target in ("kyfan", "amgm", "chrystal", "holder-mccarthy"):
        rep = run_campaign(Campaign(target, 300, 29, margin_kind="outer"))
        assert rep["witness_stats"]["confirmed"] == 0, target


def test_replay_reproduces_witness_bits():
    rep = run_campaign(Campaign("best-possible", 100, 41))
    assert rep["witnesses"]
    w = rep["witnesses"][0]
    again = replay_witness(w)
    assert again["margin_double"] == w["margin_double"]
    assert again["margin_confirmed"] == w["margin_confirmed"]
    assert again["confirmed"] == w["confirmed"]


def test_certificates_campaign_supports_the_inequalities():
    rep = run_campaign(Campaign("certificates", 5, 2,
                                region={"grid": [64, 64]}))
    assert rep["witness_stats"]["candidates"] == 0
    assert rep["min_margin"] > 0.0


# ---------------------------------------------------------------------------
# Per-lambda profile
# ---------------------------------------------------------------------------

def test_lambda_profile_matches_frozen_crossing():
    f = scalar_function("neglog")
    h = scalar_function("exp_weight", alpha=2.0, beta=2.16)
    A = SymmetricMatrix.diagonal(PINNED_INSTANCE["diag"])
    x = UnitVector(PINNED_INSTANCE["x"])
    prof = lambda_profile(f, h, A, x, grid=99)
    assert prof.factor_decreasing
    assert prof.min_margin < 0.0
    assert 0.97 < prof.argmin_lambda < 1.0
    margins = dict(prof.points)
    lams = sorted(margins)
    # the margin is positive at lambda = 0.9 and crosses sign before 0.99
    below = [m for t, m in margins.items() if t <= 0.9]
    assert all(m > 0.0 for m in below)
    signs = [margins[t] > 0 for t in lams]
    assert signs[0] and not signs[-1]
    assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1
