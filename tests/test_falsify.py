"""Seeded falsification campaigns: sampling, confirmation, determinism."""

import cProfile
import dataclasses
import hashlib
import json
import math
import os
import pstats
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import Philox

from hconvexlab import (
    ConfigError, EmptyRegion, HConvexLabError, falsify, funclib, refined,
)
from hconvexlab.cli import main
from hconvexlab.convexity import SWEEP_GRID_CAP
from hconvexlab.falsify import (
    BLOCK_SIZE, CANDIDATE_THRESHOLD, CONFIRM_THRESHOLD, RETRY_CAP, RULES,
    SAMPLES_CAP, Campaign, PINNED_INSTANCE, TARGETS, WITNESS_CAP,
    WITNESS_CAP_MAX, bound_status, confirm, draw_instance, evaluate_instance,
    lambda_profile, margin_enclosure, replay_witness, run_campaign,
)
from hconvexlab.falsify import (
    _Rows, _draw, _draw_staged, _drawn, _instance_rows, _run_range, _size,
    _unit_vector, _weights, _worker_count,
)
from hconvexlab.funclib import TRIPLES, TripleRule, scalar_function
from hconvexlab.opcalc import SymmetricMatrix, UnitVector
from hconvexlab.reporting import canonical_json, strip_wall_time
from hconvexlab.streams import Streams, Words, stream
from test_funclib import GATE_EDGE_ROWS, gate_rows
from test_streams import _crafted

REJECTED = (ValueError, ArithmeticError, HConvexLabError)
# rows of a block drawn or evaluated at once, and the block size of the
# tests that check every row of a chunk against the per-sample loop:
# enough to cross block boundaries, far fewer rows than BLOCK_SIZE
ROWS = 256


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
        Campaign("amgm", 10, 1, witness_cap=-1)
    # each reported witness is confirmed at 60 digits and kept as a dict
    assert Campaign("amgm", 10, 1,
                    witness_cap=WITNESS_CAP_MAX).witness_cap == WITNESS_CAP_MAX
    for cap in (WITNESS_CAP_MAX + 1, 10 ** 12):
        with pytest.raises(ConfigError, match="witness_cap"):
            Campaign("amgm", 10, 1, witness_cap=cap)
    with pytest.raises(ConfigError):
        Campaign("amgm", 10, 1, region={"nonsense": [0, 1]})
    with pytest.raises(ConfigError):
        Campaign("amgm", 10, 1, region={"alpha": [0.5, 2.0]})  # needs > 1
    with pytest.raises(ConfigError):
        Campaign("amgm", 10, 1, region={"v": [0.9, 0.1]})  # out of order
    c = Campaign("amgm", 10, 1, region={"alpha": [1.5, 2.0]})
    assert c.region["alpha"] == [1.5, 2.0]
    assert c.region["v"] == RULES["amgm"].region["v"]  # defaults merged


def test_region_pairs_and_grids_are_checked():
    for target, region in (("chrystal", {"n": {}}), ("amgm", {"v": [0.5]}),
                           ("certificates", {"grid": [2]}),
                           ("certificates", {"grid": [math.inf, 2]}),
                           ("certificates", {"grid": [1, 16]}),
                           ("certificates", {"grid": [2 ** 12, 2 ** 11]})):
        with pytest.raises(ConfigError, match="region key"):
            Campaign(target, 10, 1, region=region)
    assert Campaign("certificates", 10, 1,
                    region={"grid": [64.0, 16]}).region["grid"] == [64, 16]


def test_campaign_refuses_samples_past_the_cap():
    # checked when the campaign is built: nothing is drawn here
    assert Campaign("amgm", SAMPLES_CAP, 1).samples == SAMPLES_CAP
    for samples in (SAMPLES_CAP + 1, 10 ** 12):
        with pytest.raises(ConfigError, match="samples"):
            Campaign("amgm", samples, 1)


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

def test_streams_side_by_side_are_each_samples_own():
    # the rows of ``many`` are drawn from in turn; a second call starts the
    # reused generators at their new streams, and leaves them where each
    # stream's own calls leave it
    streams = Streams(123)
    streams.many([3, 4, 5]).take(np.array([2]), 7, "random")
    indices = (7, 0, 5, 2 ** 40)
    reused, fresh = streams.many(indices), [stream(123, i) for i in indices]
    ks = np.arange(len(indices))
    for _ in range(3):
        normals = reused.take(ks, 3, "standard_normal")
        sizes = reused.integers(ks, 2, 8)
        weights = reused.take(ks, 3, "standard_exponential")
        for a, x, n, e in zip(fresh, normals, sizes, weights):
            assert a.standard_normal(3).tolist() == x.tolist()
            assert a.integers(2, 9) == n
            assert a.standard_exponential(3).tolist() == e.tolist()
    reused.leave()
    for a, b in zip(fresh, reused.gens):
        assert a.random(5).tolist() == b.random(5).tolist()


def _draw_steps(rngs, steps, region):
    """_draw_staged of the given steps, as the sampler of a target made for
    the test, over a block's words, or over the words of a list of Philox
    generators, which it leaves where the draws left them."""
    words = rngs if isinstance(rngs, Words) else Words.of(rngs)
    rules = dataclasses.replace(
        RULES["kyfan"], draw=falsify.Sampler(lambda region: steps, ()))
    with mock.patch.dict(falsify.RULES, {"steps": rules}):
        rows = _draw_staged(words, "steps", region)
    if words is not rngs:
        words.leave()
    return rows


def test_weights_match_dirichlet_bit_for_bit():
    # the same bits as rng.dirichlet(np.ones(n)), and the stream left where
    # dirichlet leaves it, over a block and on a block of one, which is not
    # padded.  n is drawn from [n, n], which numpy does without using the
    # stream, and from [1, 8], whose block pads the rows below n = 8 with
    # zero exponentials: their sums keep their bits
    steps = (_size("n"), _weights("q"))
    for lo, hi in [(n, n) for n in range(1, 9)] + [(1, 8)]:
        region = {"n": [lo, hi]}
        rows = _draw_steps(Streams(29).many(range(2000)), steps, region)
        for i in range(2000):
            ours, numpy_s = stream(29, i), stream(29, i)
            n = int(numpy_s.integers(lo, hi + 1))
            one = _draw_steps([ours], steps, region)["q"]
            assert one.shape == (1, n) and rows.sizes[i] == n
            assert rows["q"][i, :n].tolist() == one[0].tolist() \
                == numpy_s.dirichlet(np.ones(n)).tolist()
            assert not rows["q"][i, n:].any()
            assert ours.random() == numpy_s.random()


def test_a_unit_vector_near_zero_is_drawn_again():
    # a draw draws the normals again, as a loop on their norm does; the
    # step on its own refuses the row, which the draw then draws again.
    # The first three words are normals of magnitude 1 in layers 2 to 4:
    # each is its layer's width, about 1e-16
    steps, region = (_size("dim"), _unit_vector("x")), {"dim": [3, 3]}
    buffer = [2 | 1 << 9, 3 | 1 << 9, 4 | 1 << 9 | 1 << 8, 2 ** 64 - 1]
    rng = _crafted(buffer)
    x = _draw_steps([rng], steps, region)["x"][0].tolist()
    fresh = _crafted(buffer)
    tiny = fresh.standard_normal(3)
    assert 0 < math.sqrt(tiny.dot(tiny)) < 1e-6
    y = fresh.standard_normal(3)
    assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
    assert x == (y / math.sqrt(y.dot(y))).tolist()
    rows = _Rows(2)
    rows.sizes = np.array([3, 3])
    _unit_vector("x").apply(rows, region, (np.arange(2), np.array(
        [[[1e-7, 0.0, 0.0], [0.0, 3.0, 4.0]]])))
    assert rows.refused.tolist() == [True, False]
    assert rows["x"][1].tolist() == [0.0, 0.6, 0.8]


def test_draw_is_deterministic_per_seed_and_index():
    region = RULES["amgm"].region
    a = draw_instance(stream(123, 5), "amgm", region)
    b = draw_instance(stream(123, 5), "amgm", region)
    c = draw_instance(stream(123, 6), "amgm", region)
    assert a == b
    assert a != c


def test_drawn_chain_instances_are_feasible_by_construction():
    for target in ("kyfan", "amgm", "chrystal", "holder-mccarthy"):
        region = RULES[target].region
        for i in range(40):
            inst = draw_instance(stream(31, i), target, region)
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


def test_evaluate_refuses_a_vector_whose_norm_overflowed():
    # the kernel's rows refuse it as UnitVector does, on their own or in a
    # block with rows that evaluate
    inst = dict(PINNED_INSTANCE, x=[1e308, 1e308])
    with pytest.raises(ValueError, match="norm inf"):
        evaluate_instance(inst)
    block = RULES["operator-jensen"].evaluate(
        _instance_rows([PINNED_INSTANCE, inst]), "refined")
    assert block.accepted.tolist() == [True, False]
    with pytest.raises(ValueError, match="norm inf"):
        block.row(1)


def test_an_extreme_row_is_refused_without_numpy_warnings(tmp_path,
                                                          capsys):
    # draw 4 of a DRAW_DIGESTS region (alpha 1.9e299, v 1.0e247): A^2 of its
    # operator overflows, so f(A) is not finite and the row is refused, on
    # its own and through replay, with no numpy warning on the way
    region = Campaign("per-lambda", 1, 1, region={
        "triple": "holder_mccarthy", "alpha": [1e-300, 1e300],
        "v": [1e-300, 1e300]}).region
    inst = draw_instance(stream(GOLDEN_SEED, 4), "per-lambda", region)
    assert (inst["alpha"], inst["v"]) == (1.9043620795583427e+299,
                                          1.0027243387070759e+247)
    config = tmp_path / "w.json"
    config.write_text(json.dumps({"witness": {"inputs": inst}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            evaluate_instance(inst)
        assert main(["replay", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: matrix entries must be finite\n"


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


def test_outer_margin_confirms_at_60_digits():
    # the two 60-digit chain margins are added at working precision: at 53
    # bits this margin reads 30.049179561786864667...
    inst = draw_instance(stream(GOLDEN_SEED, 3), "kyfan",
                         Campaign("kyfan", 1, 1).region)
    margin, flags, extras = evaluate_instance(inst, "outer")
    out = confirm({"index": 3, "inputs": inst, "margin_double": margin,
                   "flags": flags, "extras": extras, "margin_kind": "outer"})
    assert out["margin_confirmed"] == (
        "30.049179561786863240267919962430944400863993936466")


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


def test_margin_enclosure_covers_the_60_digit_margin():
    for target in ("operator-jensen", "per-lambda", "kyfan", "amgm",
                   "chrystal", "holder-mccarthy"):
        region = Campaign(target, 1, 1).region
        for i in range(20):
            inst = draw_instance(stream(17, i), target, region)
            margin, flags, extras = evaluate_instance(inst)
            cand = {"index": i, "inputs": inst, "margin_double": margin,
                    "flags": flags, "extras": extras}
            lo, hi = margin_enclosure(cand)
            exact, _ = RULES[target].exact(inst, "refined")  # an mpf
            terms = extras.get("chain") or (extras["lhs"], extras["rhs"])
            assert 0.0 < (hi - lo) / 2 < 1e-9 * max(1.0, *map(abs, terms)), \
                (target, i, lo, hi)
            assert lo <= exact <= hi, (target, i)


def test_margin_enclosure_leaves_dense_and_unbounded_targets_to_confirm():
    inst = dict(PINNED_INSTANCE, target="operator-jensen",
                weight="exp_weight")
    dense = {k: v for k, v in inst.items() if k != "diag"}
    dense["entries"] = np.diag(inst["diag"]).tolist()
    for inputs in (dense, {"target": "best-possible", "a": 1.0, "lam": 0.75,
                           "beta": 0.5}):
        margin, flags, extras = evaluate_instance(inputs)
        assert margin_enclosure({"inputs": inputs, "margin_double": margin,
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
        rng = stream(seed, i)
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


# (sha256 over repr((margin, flags, extras)) of the first 1,000 draws at
# the acceptance seed, 20 for certificates, with the exception class name
# of a draw that raises; sha256 over margin_confirmed of the first 50).
# The golden digests pin only the reported witnesses; these pin every
# double margin the kernels give and the 60-digit path of every target,
# also where no campaign candidate reaches it.  Same platform as above.
KERNEL_DIGESTS = {
    ("operator-jensen", "refined"): (
        "cf57381e17f537d8e0bf61baf7afadb05036644241deacf8ab46e99ee03ffeef",
        "83a5530a63a3e63a9a2e3a48ce28a65662fb251a13034f39ea573058784cfa7c"),
    ("per-lambda", "refined"): (
        "43d3230c35493d2a18ffa0db6183ae5e50b4bb671bfb5c1aa03a993c15d84510",
        "b4fc493955a4d3ec3811a1d595c9a45d3f617b688d41e8cbd3c1d3a50b87f7d3"),
    ("half-bound", "refined"): (
        "f8e4dcb3f450468af5a6f6e0c576d4343e98731855a59e8ace74ac4831734adf",
        "3ba8d1af47a582cdebc8e9af00e23a5159a36154aeb788ee44c87df3b5415cb4"),
    ("best-possible", "refined"): (
        "85e9b44abec8d2e8e841377f22015994b5fac81834bf975ab0b418f6106e8894",
        "fcfaa44c53bd9b3c0f761968caa4403aaf3e649948376f21985243036f5e52bf"),
    ("kyfan", "refined"): (
        "a3b5ffd35ea0f7ce96021787b3771f394db65769fd536a2e091665b0cf161005",
        "c416e7dc23b05f50c9165687ee39b3869e2e97af69557312592c6760fcf03606"),
    ("amgm", "refined"): (
        "8d848c7c000f957d659498aba204d4416889ec60a4e7fb7a6ac61f84f34b33e6",
        "5747048404cca710a0ee13f2574cf1064f8c7af4c988406ddd3a242778b287e3"),
    ("chrystal", "refined"): (
        "7159d0e5293435f596e3c42ad0722ddf2f5be79160452848422bb1a185de408f",
        "3fc67f6045a0a6c05c48fcf6777a1652cec5ebbc9c855b79eb2f9e125f3ee85a"),
    ("holder-mccarthy", "refined"): (
        "5794d7c9d1a10a2cbdb2e8bfdc7d71dc2d982c20121750ba6698bb0050c9bb67",
        "80127cc4069082875f40b76a0cc71e7bb40cb1fec4dca9744a522b098d051f1b"),
    ("certificates", "refined"): (
        "dad679b70d7d2fdec42f3b9f1eb457ef9235f40660e97261aff1d443803b7c2c",
        "d90d17aacd62702034e573e19c831cffff9c950017720675910a341348b64f1f"),
    ("kyfan", "outer"): (
        "a07c802c2b32234f3451b493f359a0fca81ae7249e28d0f67b4e593ce78db677",
        "4f7d1cac95319364d9bd72270b20c406473fccdbac13dc41ee8c15bc7e37a279"),
    ("amgm", "outer"): (
        "fa1a1cd633ff966495d9d20f6c86cc3d58d996c3a59552b3212f4201437d75be",
        "08cb98d5ee3aa1bc0fa8e738b7bc892fcf9b251b42bed4846c853c2f24ed322d"),
    ("chrystal", "outer"): (
        "29661fdd95990335522b9648a8169c0149641b86941b3a0304943f0459410ba2",
        "75e2082492013e6b4d9d7a93f3b0cab469e3b26672d414e7dde61c826e7be3e3"),
    ("holder-mccarthy", "outer"): (
        "f5d64889d30314192d0bcecb7ab7be2cc0324e581b8e0eb5758c4b737c65ed2e",
        "8f68e6c78f372f51c4cae727fde64f8555b484e77f7fbb8b4ba9ce3af359d767"),
}


@pytest.mark.parametrize("target, margin_kind", list(KERNEL_DIGESTS),
                         ids=[f"{t}/{k}" for t, k in KERNEL_DIGESTS])
def test_kernel_bits_match_digests(target, margin_kind):
    region = Campaign(target, 1, 1).region
    doubles, confirmed = hashlib.sha256(), hashlib.sha256()
    for i in range(20 if target == "certificates" else 1000):
        try:
            inst = draw_instance(stream(GOLDEN_SEED, i), target, region)
            margin, flags, extras = evaluate_instance(inst, margin_kind)
        except (ValueError, ArithmeticError, HConvexLabError) as exc:
            doubles.update(type(exc).__name__.encode())
            continue
        doubles.update(repr((margin, flags, extras)).encode())
        if i < 50:
            out = confirm({"index": i, "inputs": inst,
                           "margin_double": margin, "flags": flags,
                           "extras": extras, "margin_kind": margin_kind})
            confirmed.update(out["margin_confirmed"].encode())
    assert (doubles.hexdigest(), confirmed.hexdigest()) \
        == KERNEL_DIGESTS[target, margin_kind]


# how many candidates among the KERNEL_DIGESTS draws (drawn as campaign
# blocks) have their status settled without the 60-digit confirm, for every
# target whose rounding error is bounded.  Taken with the hand-derived
# rounding-error bounds that the enclosures replaced; a later way of
# settling must settle at least as many.  Same platform as above.
SETTLED_COUNTS = {
    ("operator-jensen", "refined"): 948, ("per-lambda", "refined"): 112,
    ("half-bound", "refined"): 0, ("kyfan", "refined"): 318,
    ("kyfan", "outer"): 0, ("amgm", "refined"): 357, ("amgm", "outer"): 0,
    ("chrystal", "refined"): 438, ("chrystal", "outer"): 0,
    ("holder-mccarthy", "refined"): 972, ("holder-mccarthy", "outer"): 0,
}


@pytest.mark.parametrize("target, margin_kind", list(SETTLED_COUNTS),
                         ids=[f"{t}/{k}" for t, k in SETTLED_COUNTS])
def test_settled_candidates_reach_the_pinned_counts(target, margin_kind):
    region = Campaign(target, 1, 1).region
    streams = Streams(GOLDEN_SEED)
    settled = 0
    for lo in range(0, 1000, BLOCK_SIZE):
        rows = _draw_staged(streams.many(range(lo, min(lo + BLOCK_SIZE, 1000))),
                            target, region)
        block = RULES[target].evaluate(rows, margin_kind)
        margins = np.where(block.accepted, block.margin, math.nan)
        cand = margins < CANDIDATE_THRESHOLD
        ends = falsify._enclosures(rows, block, margin_kind, cand)
        settled += np.count_nonzero(falsify._settled(
            margins[cand], *ends[:, cand], True))
    assert settled >= SETTLED_COUNTS[target, margin_kind]


def _one_row_status(cand: dict):
    """The status that the candidate's own enclosure settles, or None."""
    ends = margin_enclosure(cand) or (math.nan, math.nan)
    margin = np.array([cand["margin_double"]])
    return falsify._STATUSES[int(falsify._settled(margin, *ends, True)[0])]


@pytest.mark.parametrize("target, margin_kind", list(SETTLED_COUNTS),
                         ids=[f"{t}/{k}" for t, k in SETTLED_COUNTS])
def test_block_statuses_match_one_row_enclosures(target, margin_kind):
    # a campaign encloses a drawn block's candidates at once, over padded
    # arrays; each row's status is the one its dict's enclosure gives.  The
    # dicts are the rows' own, which evaluate_instance reproduces
    # (test_drawn_columns_and_instance_dicts_agree).
    region = Campaign(target, 1, 1).region
    streams = Streams(GOLDEN_SEED)
    for lo in range(0, 1000, BLOCK_SIZE):
        rows = _draw_staged(streams.many(range(lo, min(lo + BLOCK_SIZE, 1000))),
                            target, region)
        block = RULES[target].evaluate(rows, margin_kind)
        margins = np.where(block.accepted, block.margin, math.nan)
        cand = np.flatnonzero(margins < CANDIDATE_THRESHOLD)
        ends = falsify._enclosures(rows, block, margin_kind,
                                   margins < CANDIDATE_THRESHOLD)
        statuses = falsify._settled(margins[cand], *ends[:, cand], True)
        for k, status in zip(cand.tolist(), statuses.tolist()):
            margin, flags, extras = block.row(k)
            one = _one_row_status({"inputs": rows.instances([k])[0],
                                   "margin_double": margin, "flags": flags,
                                   "extras": extras,
                                   "margin_kind": margin_kind})
            assert falsify._STATUSES[status] == one, (lo + k, status)


# (target, region, streams, draws from each, digest): sha256 over, draw
# after draw, repr((inst, setup)) of the draw or the exception class name
# it raised, then repr(rng.random()) taken right after it, which pins where
# the draw left its stream.  One draw from each of 1,000 (or 2,000) fresh
# streams, and 50 draws from each of 40 streams, as the retry loop draws.
# The regions are the defaults, those of
# test_blocks_with_rejections_match_the_per_sample_loop and regions whose
# draws raise on data (NaN gates, InfeasibleGate, logs and uniforms that
# numpy refuses).  Same platform as the golden digests.
DRAW_DIGESTS = [
    ('operator-jensen', {}, 1000, 1,
     "3741ca48e0b37dd523f7fbdec4ed3de1c8e00ee87c47f9f9779be22a11ad2e92"),
    ('operator-jensen', {}, 40, 50,
     "a4d9144df4c3ee118af10618bdb6515c2719950387cc9e77612804e3dd119f10"),
    ('per-lambda', {}, 1000, 1,
     "97f4994f328afc7e4536d99c8a4a2c5d0959101a7ed0b436caa6513078a78afb"),
    ('per-lambda', {}, 40, 50,
     "cac2dbc95cbb5795c7239e1e3bb3c827543529ecf0067a31ca31442af5a6ba28"),
    ('half-bound', {}, 1000, 1,
     "980c9bb3db35939f5538db424016fd4e32436a9cd0218b378e5317639667e6ec"),
    ('half-bound', {}, 40, 50,
     "eab7801ad3dd136a4e178fbef0aee48db690e66ca6815cbc6189bd57e3d6d39b"),
    ('best-possible', {}, 1000, 1,
     "abed6a219ddc7d88902e3e698f7f27cbb57d766c315bc9c41d53a4cc4db61f32"),
    ('best-possible', {}, 40, 50,
     "71f4d708751e77120d8b324bf36a7e5b735bc705621a5577c3078c774b160e0e"),
    ('kyfan', {}, 1000, 1,
     "90d66766354cd6438505f8e120a90c557ecc358a29e42d89400ae6a869057bd5"),
    ('kyfan', {}, 40, 50,
     "04271787aef6fe83486c988c5c1f795d6d88c0014b8a0c211572b667201f39b4"),
    ('amgm', {}, 1000, 1,
     "406e4d76cff771b5171affa550633cffff859ea6d09d88dfc948eb08f1daf434"),
    ('amgm', {}, 40, 50,
     "a911122ef2c75f7e20a2ea32b9f899c29f6114565608e2b104c67ba69ca63eae"),
    ('chrystal', {}, 1000, 1,
     "4a31ad88d11092962746667b3ef0b0d68269e6080f41492418d11de1f7b6bb23"),
    ('chrystal', {}, 40, 50,
     "eaae6f8e4da69a6f9e9637da7fa43888e872f4971d53d7d46f2b4f9f59ebd323"),
    ('holder-mccarthy', {}, 1000, 1,
     "2e9200cefb987e8e5de90bc458369552069fdee3686feee9f0084359e653b967"),
    ('holder-mccarthy', {}, 40, 50,
     "3d187d9657ce4de2a9ce8f16de50c998294a3be05aee8983bf7dff701fa2f050"),
    ('certificates', {}, 1000, 1,
     "20437c9f30d5d347394c28a09fa97702a3d76a50361f4efb9385dead6affbc33"),
    ('certificates', {}, 40, 50,
     "2fcff53c6684d61f561a9c6563c9d4291eaaff88a59fb26636de6501334851b5"),
    ('kyfan', {'v': [0.3, 0.9]}, 1000, 1,
     "492b1bdf34e9eb3bf51321de374a2cf0d3be59b4c6c7fe0200aaaa65823729fd"),
    ('kyfan', {'v': [0.3, 0.9]}, 40, 50,
     "b7c96c54e8fae39f3f0f39fa2e87c2d351978ebf18dddac7cca38f3c663eb530"),
    ('amgm', {'v': [0.5, 3.0]}, 1000, 1,
     "c9e7a44babe76bbf9f4cab56f2d7d88ef40eea89c3072133fda2f7990db49129"),
    ('amgm', {'v': [0.5, 3.0]}, 40, 50,
     "cb220f4a1f5505ded6473ddedc65ace65c0cac7d76b3173174f8d11a0afab42a"),
    ('chrystal', {'v': [690.0, 720.0]}, 1000, 1,
     "9cbfcb533556baf7a9250857216587936ec84a1dad00edd7b1abddb9602cc446"),
    ('chrystal', {'v': [690.0, 720.0]}, 40, 50,
     "f5128ba5770364ca3ff82d1705e2876ad7722bfd80c34b3aeda67d3179ef55f6"),
    ('operator-jensen', {'dim': [1, 12]}, 1000, 1,
     "330f329075a5297e45783cb031e177abf1746b5a9155aaf1e3f4a2ed8287739d"),
    ('operator-jensen', {'dim': [1, 12]}, 40, 50,
     "fbed15b26703371b1a44314e75b73e654a7d508208e997b1a95ddb590d3dc57b"),
    ('kyfan', {'v': [0.3, 3.0]}, 1000, 1,
     "59942d05e97b5a13bbf512ac0d58c6e679013044884aec2002fb64bb92d4a477"),
    ('kyfan', {'v': [0.3, 3.0]}, 40, 50,
     "df3e8185efbd3fe119e39c905e0af1dfb268e5abcec23c217d79e6b6b120664d"),
    ('holder-mccarthy', {'alpha': [1e-09, 1e-05]}, 1000, 1,
     "f8542740d88d8267eff2a6ea1955d189fb1d31a4e109457dfc4401246edab69e"),
    ('holder-mccarthy', {'alpha': [1e-09, 1e-05]}, 40, 50,
     "7e85d38f52ee4f5fbd8c167f1ee49fbe587142fc8120ffee6109e8739891747b"),
    ('operator-jensen',
     {'triple': 'chrystal', 'alpha': [0.01, 3.0], 'v': [1e-300, 1e+300]},
     2000, 1,
     "f44252d0c7fafa4fc2c8f64338662f0c73e534e368db472b1ab6eee82591d113"),
    ('operator-jensen',
     {'triple': 'chrystal', 'alpha': [0.01, 3.0], 'v': [1e-300, 1e+300]},
     40, 50,
     "aaf05e2a64b85599dd81728bc2b95d764eac20b5ccad58700cdfac863f2c43c9"),
    ('operator-jensen',
     {'triple': 'kyfan', 'alpha': [1.000001, 3000.0], 'v': [1e-300, 0.5]},
     2000, 1,
     "487c57e554b93cc65369b63a9bec2744e885d8e022a30e1f501f8f133b89dfae"),
    ('operator-jensen',
     {'triple': 'kyfan', 'alpha': [1.000001, 3000.0], 'v': [1e-300, 0.5]},
     40, 50,
     "835ec34216894d0c391e1d292cafa281610d31d6416e04cb9ef996ce0178fe0e"),
    ('amgm', {'v': [1e-300, 1e+300]}, 1000, 1,
     "6aced32c1ffa98700aea4585c1e62f5857c899bfbf0f7cc9e8835ca20a02aed9"),
    ('chrystal', {'v': [1e-300, 1e-290]}, 1000, 1,
     "a82d1cb0b90bfbc08ba105522626dd004ad0826a0fb03a5582723bbd9fa2711f"),
    ('holder-mccarthy', {'v': [1e-300, 1e+300], 'p': [1.000001, 1000000.0]},
     1000, 1,
     "530ee0d6109e4595dd589c393189f8e7eb64378677b138858d956d2c91502f77"),
    ('best-possible', {'a': [1e-300, 1e+300]}, 1000, 1,
     "634723743d1d021c5bb36a8a705adb6ecd1832904c1fe88460526df7e679c521"),
    ('per-lambda',
     {'triple': 'holder_mccarthy', 'alpha': [1e-300, 1e+300],
      'v': [1e-300, 1e+300]},
     1000, 1,
     "ff4a19176e86a39ed001e9e011ccde677eafad45cdb949802bcb7cbecf56cfc7"),
    ('certificates', {'triple': 'holder_mccarthy'}, 1000, 1,
     "bf28933462924cfbf43cbe3d0c617fe9b1022a1643fe278e245a01799feba14b"),
]


@pytest.mark.parametrize("target, region, streams, draws, digest",
                         DRAW_DIGESTS,
                         ids=[f"{c[0]}-{k}" for k, c in
                              enumerate(DRAW_DIGESTS)])
def test_draw_bits_match_digests(target, region, streams, draws, digest):
    region = Campaign(target, 1, 1, region=region).region
    bits = hashlib.sha256()
    for i in range(streams):
        rng = stream(GOLDEN_SEED, i)
        for _ in range(draws):
            try:
                bits.update(repr(_draw(rng, target, region)).encode())
            except REJECTED as exc:
                bits.update(type(exc).__name__.encode())
            bits.update(repr(rng.random()).encode())
    assert bits.hexdigest() == digest


@pytest.mark.parametrize("target, margin_kind", list(GOLDEN_DIGESTS),
                         ids=[f"{t}/{k}" for t, k in GOLDEN_DIGESTS])
def test_golden_digests_with_two_workers(monkeypatch, target, margin_kind):
    # on two CPUs, two chunks of 100 samples: blocks start at other
    # indices, and each worker evaluates its own blocks
    monkeypatch.setenv("HCONVEXLAB_THREADS", "2")
    rep = run_campaign(Campaign(target, 200, GOLDEN_SEED,
                                margin_kind=margin_kind))
    digest = hashlib.sha256(_report_bytes(rep).encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[target, margin_kind]


_DRAW_REGIONS = list({(c[0], repr(c[1])): c[:2] for c in DRAW_DIGESTS}
                     .values())


def _staged_draws_match_draws_of_one(target, region, indices, rounds):
    # rows drawn side by side, stage by stage, are refused where a draw of
    # one raises, give the others' instances and gates bit for bit, and
    # leave each stream where that draw left it
    region = Campaign(target, 1, 1, region=region).region
    words = Streams(GOLDEN_SEED).many(indices)
    ones = [stream(GOLDEN_SEED, i) for i in indices]
    for _ in range(rounds):
        rows = _draw_staged(words, target, region)
        drawn = _drawn(rows, range(rows.size))
        for k, rng in enumerate(ones):
            try:
                one = repr(_draw(rng, target, region))
            except REJECTED as exc:
                one = type(exc).__name__
            assert (type(rows.errors[k]).__name__ if rows.refused[k]
                    else repr(drawn[k])) == one, indices[k]
    words.leave()
    assert [repr(rng.bit_generator.state) for rng in words.gens] \
        == [repr(rng.bit_generator.state) for rng in ones]


@pytest.mark.parametrize("target, region", _DRAW_REGIONS)
def test_block_draws_match_draws_of_one(target, region):
    # once, over more rows than a block: rows of many sizes side by side
    _staged_draws_match_draws_of_one(target, region,
                                     range(3, 3 + ROWS + 41), 1)


@pytest.mark.parametrize("target, region", _DRAW_REGIONS)
def test_staged_draws_match_draws_of_one(target, region):
    # twelve times over, each round drawing on from where the last left
    _staged_draws_match_draws_of_one(target, region, range(40), 12)


# dims 2 to 40 side by side: a pad that completes one of the blocks of
# entries a BLAS dot sums apart would change a row's dot
_WIDE_REGIONS = [("operator-jensen", {"dim": [2, 40]}, "refined"),
                 ("holder-mccarthy", {"dim": [2, 40]}, "refined")]


@pytest.mark.parametrize("target, region, margin_kind", [
    (target, region, kind) for target, region in _DRAW_REGIONS
    for kind in (("refined", "outer") if RULES[target].chain
                 else ("refined",))] + _WIDE_REGIONS)
def test_drawn_columns_and_instance_dicts_agree(target, region, margin_kind):
    # a kernel fed a drawn block's columns gives each row what
    # evaluate_instance gives for the row's built dict, error messages
    # included, on two blocks of rows of several sizes, padded to the
    # largest, with refused rows among them
    size = ROWS
    if target == "certificates":
        region, size = {**region, "grid": [16, 16]}, 6
    region = Campaign(target, 1, 1, region=region).region
    for lo in (3, size + 3):
        rows = _draw_staged(Streams(GOLDEN_SEED).many(range(lo, lo + size)),
                            target, region)
        block = RULES[target].evaluate(rows, margin_kind)
        kept = np.flatnonzero(~rows.refused).tolist()
        assert not block.accepted[rows.refused].any()
        for k, inst in zip(kept, rows.instances(kept)):
            want = _outcome(lambda: evaluate_instance(inst, margin_kind))
            assert _outcome(lambda: block.row(k)) == want, (k, inst)
            accepted = want[0] == "(" and RULES[target].feasible(
                evaluate_instance(inst, margin_kind)[1])
            assert repr(bool(block.accepted[k])) == repr(accepted), k


def test_only_the_rows_a_report_keeps_are_built():
    # a kyfan/outer campaign finds no candidate: a block builds the dict of
    # its arg-min at most, and only when the arg-min is new
    built, build = [], falsify.Sampler.build

    def counting(self, rows, ks):
        built.append(len(ks))
        return build(self, rows, ks)
    campaign = Campaign("kyfan", 1, 99, margin_kind="outer")
    with mock.patch.object(falsify.Sampler, "build", counting):
        got = _run_range(campaign.to_json(), 0, 3 * BLOCK_SIZE)
    assert got["candidates"] == [] and got["rejected"] == 0
    assert len(built) <= 3 and all(n <= 1 for n in built), built
    assert got["argmin"] is not None


def test_a_chunk_returns_as_many_rows_for_more_samples():
    # operator-jensen makes ~95% of samples candidates: a chunk of 3 blocks
    # and one of 12 return the same candidate dicts' count, the first
    # witness_cap, the arg-min and the unsettled ones, and build no other
    # instance dict than an arg-min a later block replaced
    built, build, returned = [], falsify.Sampler.build, []

    def counting(self, rows, ks):
        built.append(len(ks))
        return build(self, rows, ks)
    campaign = Campaign("operator-jensen", 1, 7)
    for blocks in (3, 12):
        built.clear()
        with mock.patch.object(falsify.Sampler, "build", counting):
            got = _run_range(campaign.to_json(), 0, blocks * BLOCK_SIZE)
        rows = len(got["candidates"])
        assert got["found"] > 0.9 * blocks * BLOCK_SIZE
        assert rows <= WITNESS_CAP + 1 + got["statuses"].count(None)
        assert sum(built) <= rows + blocks, built
        returned.append(rows)
    assert returned[0] == returned[1]


def test_chunks_merge_as_one_range():
    # the first chunk holds fewer candidates than witness_cap and the
    # second the arg-min: the reported head joins the first chunk's
    # candidates to a prefix of the second's
    campaign = Campaign("operator-jensen", 600, GOLDEN_SEED)
    cj, k = campaign.to_json(), 20
    parts = [_run_range(cj, 0, k), _run_range(cj, k, campaign.samples)]
    split = falsify._merge(campaign, parts)
    whole = falsify._merge(campaign, [_run_range(cj, 0, campaign.samples)])
    assert 0 < parts[0]["found"] < WITNESS_CAP < parts[1]["found"]
    assert whole["argmin"]["index"] >= k
    for key in ("witness_stats", "witnesses", "argmin", "min_margin"):
        assert split[key] == whole[key], key
    assert _report_bytes(split) == _report_bytes(whole)


# rows of a block get odd values here, so that some rows raise, some are
# infeasible and some leave the arrays for the one-at-a-time evaluation
_ODD_VALUES = (0.0, -0.0, -1.0, 1, 2, 0.5, 0.75, 1e308, -1e308, 5e-324,
               1e-300, math.inf, math.nan)


def _outcome(evaluate):
    try:
        return repr(evaluate())
    except REJECTED as exc:
        return f"{type(exc).__name__}: {exc}"


def _odd_block(target, start, size, edits, dense=()):
    """The instances of draws start, start+1, ... (size of them drawn,
    rejected draws left out), with ``edits`` written into them; then the
    rows ``dense`` of an operator or holder-mccarthy block give their
    operator as dense ``entries``, with an off-diagonal pair."""
    region = Campaign(target, 1, 1,
                      region={"grid": [16, 16]} if target == "certificates"
                      else {}).region
    insts = []
    for i in range(start, start + size):
        try:
            insts.append(draw_instance(stream(GOLDEN_SEED, i), target,
                                       region))
        except REJECTED:
            continue
    for row, field, place, value in edits:
        if not insts:
            break
        k = row % len(insts)
        inst = insts[k]
        fields = sorted(key for key, t in inst.items()
                        if key not in ("n", "dim", "grid")
                        and type(t) in (float, int, list))
        key = fields[field % len(fields)]
        if isinstance(inst[key], list):
            inst[key] = list(inst[key])
            inst[key][place % len(inst[key])] = value
        else:
            inst[key] = value
    for row in dense:
        inst = insts[row % len(insts)] if insts else {}
        if "diag" in inst:
            entries = np.diag(inst.pop("diag"))
            entries[0, -1] = entries[-1, 0] = 0.25 * entries[0, 0]
            inst["entries"] = entries.tolist()
    return insts


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(KERNEL_DIGESTS)), st.integers(0, 2 ** 40),
       st.integers(1, 300),
       st.lists(st.tuples(st.integers(0, 299), st.integers(0, 7),
                          st.integers(0, 63), st.sampled_from(_ODD_VALUES)),
                max_size=12),
       st.lists(st.integers(0, 299), max_size=8))
# draws 0-5 of kyfan have n = 2, 2, 5, 3, 2, 2: row 0's log((1-a)/a) is
# inf at a = 5e-324, to which a pad of weight 0.0 would add 0 * inf = nan
@example(("kyfan", "outer"), 0, 6, [(0, 0, 0, 5e-324)], [])
def test_block_kernel_matches_evaluate_instance(case, start, size, edits,
                                                dense):
    target, margin_kind = case
    if target == "certificates":
        size = 1 + size % 4
    insts = _odd_block(target, start, size, edits, dense)
    if not insts:
        return
    evaluate = RULES[target].evaluate
    block = evaluate(_instance_rows(insts), margin_kind)
    for k, inst in enumerate(insts):
        # the row on a block of one: its outcome is the same in the block
        one = evaluate(_instance_rows([inst]), margin_kind)
        want = _outcome(lambda: one.row(0))
        assert _outcome(lambda: block.row(k)) == want, (k, inst)
        assert _outcome(lambda: evaluate_instance(inst, margin_kind)) == want
        if want[0] == "(":
            margin, flags, _ = one.row(0)
            assert block.accepted[k] == RULES[target].feasible(flags)
            if block.accepted[k]:
                assert repr(float(block.margin[k])) == repr(margin)
        else:
            assert not block.accepted[k]


def test_square_exponent_rows_match_their_own_evaluation():
    # numpy squares for a scalar exponent 2.0 but not for an array of
    # exponents, whose pow can differ in the last place: each holder-
    # mccarthy row's A^p must take its own exponent
    region = RULES["holder-mccarthy"].region
    insts = [dict(draw_instance(stream(GOLDEN_SEED, i), "holder-mccarthy",
                                region), p=2.0, dim=7) for i in range(40)]
    for k, inst in enumerate(insts):
        inst["diag"] = stream(5, k).uniform(0.5, 3.0, 7).tolist()
        inst["x"] = np.eye(7)[k % 7].tolist()  # <A^p x, x> is one entry
    block = RULES["holder-mccarthy"].evaluate(_instance_rows(insts), "outer")
    for k, inst in enumerate(insts):
        assert repr(block.row(k)) == repr(evaluate_instance(inst, "outer"))


def test_operator_draws_evaluations_and_confirms_build_no_triple():
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return funclib.make_triple(*args, **kwargs)
    with mock.patch.object(falsify, "make_triple", counting):
        for target in ("operator-jensen", "per-lambda", "half-bound"):
            run_campaign(Campaign(target, 40, 3))
        inst = dict(PINNED_INSTANCE)
        margin, flags, extras = evaluate_instance(inst)
        out = confirm({"index": 0, "inputs": inst, "margin_double": margin,
                       "flags": flags, "extras": extras})
    assert calls == []
    assert out["margin_confirmed"] == (
        "-0.018582467924522522954008998445822332074251394191259")


def _reference_range(campaign, start, stop):
    """What _run_range gives, from the per-sample loop: every sample drawn
    until feasible and evaluated on its own, and each candidate's status
    from its own dict's enclosure (margin_enclosure).  The candidates
    returned are the first witness_cap, the arg-min and the unsettled
    ones; the others are counted."""
    drawn = rejected = 0
    min_margin, argmin, candidates = math.inf, None, []
    for i in range(start, stop):
        rng = stream(campaign.seed, i)
        for _ in range(RETRY_CAP):
            drawn += 1
            try:
                inst = draw_instance(rng, campaign.target, campaign.region)
                margin, flags, extras = evaluate_instance(
                    inst, campaign.margin_kind)
            except REJECTED:
                rejected += 1
                continue
            if RULES[campaign.target].feasible(flags):
                break
            rejected += 1
        if margin < min_margin:
            min_margin, argmin = margin, (i, inst)
        if margin < CANDIDATE_THRESHOLD:
            candidates.append({"index": i, "inputs": inst,
                               "margin_double": margin, "flags": flags,
                               "extras": extras,
                               "margin_kind": campaign.margin_kind})
    kept, statuses, counts = [], [], {}
    for k, cand in enumerate(candidates):
        status = _one_row_status(cand)
        if k < campaign.witness_cap or status is None \
                or cand["index"] == argmin[0]:
            kept.append(cand)
            statuses.append(status)
        else:
            counts[status] = counts.get(status, 0) + 1
    demotions = {name: counts[False, name] for name in (
        "float-noise", "below-threshold", "infeasible-flags")
        if (False, name) in counts}
    return {"drawn": drawn, "rejected": rejected, "min_margin": min_margin,
            "argmin": argmin, "candidates": kept, "statuses": statuses,
            "found": len(candidates), "confirmed": counts.get((True, None), 0),
            "demotions": demotions, "counted": stop - start}


@pytest.mark.parametrize("target, region, margin_kind", [
    ("kyfan", {"v": [0.3, 0.9]}, "refined"),  # rows failing to evaluate
    ("amgm", {"v": [0.5, 3.0]}, "refined"),  # infeasible rows
    ("chrystal", {"v": [690.0, 720.0]}, "outer"),  # draws that raise
    ("operator-jensen", {"dim": [1, 12]}, "refined"),
])
def test_blocks_with_rejections_match_the_per_sample_loop(target, region,
                                                          margin_kind,
                                                          monkeypatch):
    monkeypatch.setattr(falsify, "BLOCK_SIZE", ROWS)
    campaign = Campaign(target, 1, 5, region=region,
                        margin_kind=margin_kind)
    start, stop = 3, 3 + ROWS + 41
    got = _run_range(campaign.to_json(), start, stop)
    want = _reference_range(campaign, start, stop)
    assert repr(got) == repr(want)
    assert got["rejected"] > 0 or target == "operator-jensen"

    def redrawn(i):  # whether sample i's first draw is refused or infeasible
        try:
            inst = draw_instance(stream(campaign.seed, i), target,
                                 campaign.region)
            _, flags, _ = evaluate_instance(inst, margin_kind)
        except REJECTED:
            return True
        return not RULES[target].feasible(flags)
    # rows of later rounds reach the report: returned candidates, and
    # kyfan's arg-min, whose first draw was not accepted
    if target in ("kyfan", "amgm"):
        assert any(redrawn(cand["index"]) for cand in got["candidates"])
    if target == "kyfan":
        assert redrawn(got["argmin"][0])


def test_every_counted_draw_is_made_once():
    # kyfan at v in [0.3, 0.9] has rows that fail to evaluate: their retries
    # draw on from where the block's draw left their streams, so the rows
    # drawn add up to the draws the chunk counts
    staged, sizes = falsify._draw_staged, []

    def counting(words, target, region, ks):
        sizes.append(len(ks))
        return staged(words, target, region, ks)
    campaign = Campaign("kyfan", 1, 5, region={"v": [0.3, 0.9]})
    with mock.patch.object(falsify, "_draw_staged", counting):
        got = _run_range(campaign.to_json(), 3, 3 + BLOCK_SIZE + 41)
    assert got["rejected"] > 0
    assert sum(sizes) == got["drawn"]


def test_nan_margins_are_neither_candidates_nor_the_argmin(monkeypatch):
    # best-possible margins are all negative: every sample is a candidate
    # unless its margin reads NaN, which this kernel gives half the rows
    monkeypatch.setattr(falsify, "BLOCK_SIZE", ROWS)
    rules = RULES["best-possible"]

    def some_nan(rows, margin_kind):
        block = rules.evaluate(rows, margin_kind)
        ks = np.flatnonzero(~rows.refused).tolist()
        for k, inst in zip(ks, rows.instances(ks)):
            if inst["lam"] < 0.75:
                _, flags, extras = block.row(k)
                block.run(k, lambda: (math.nan, flags, extras), rules.feasible)
        return block
    patched = dataclasses.replace(rules, evaluate=some_nan)
    with mock.patch.dict(falsify.RULES, {"best-possible": patched}):
        campaign = Campaign("best-possible", 1, 4)
        got = _run_range(campaign.to_json(), 0, ROWS + 9)
        want = _reference_range(campaign, 0, ROWS + 9)
    assert repr(got) == repr(want)
    assert 0 < len(got["candidates"]) < ROWS + 9
    assert not any(math.isnan(c["margin_double"]) for c in got["candidates"])
    assert got["argmin"][1]["lam"] >= 0.75


def test_blocks_split_alike_with_one_and_two_workers(monkeypatch):
    # 2 * BLOCK_SIZE + 37 samples: one worker ends on a partial block, two
    # split the range where no block boundary lies
    campaign = Campaign("kyfan", 2 * BLOCK_SIZE + 37, 8,
                        region={"v": [0.3, 0.9]})
    one = run_campaign(campaign)
    monkeypatch.setenv("HCONVEXLAB_THREADS", "2")
    two = run_campaign(campaign)
    assert _report_bytes(one) == _report_bytes(two)
    assert one["counts"]["rejected"] > 0


def test_empty_region_counts_every_earlier_sample(monkeypatch):
    # sample 300 (inside the second block, after replayed and accepted
    # rows) gets no draw at all; its 512 failed draws come after every
    # earlier sample's draws
    monkeypatch.setattr(falsify, "BLOCK_SIZE", ROWS)
    campaign = Campaign("kyfan", 1, 2, region={"v": [0.3, 0.9]})
    many, staged, failing = Streams.many, falsify._draw_staged, []

    def recording_many(self, indices):
        words = many(self, indices)
        failing[:] = [(words, j) for j, i in enumerate(indices) if i == 300]
        return words

    def failing_staged(words, target, region, ks):
        rows = staged(words, target, region, ks)
        rows.refuse(np.isin(ks, [j for w, j in failing if w is words]),
                    lambda j: ValueError("no draw for this sample"))
        return rows
    with mock.patch.object(Streams, "many", recording_many), \
            mock.patch.object(falsify, "_draw_staged", failing_staged):
        with pytest.raises(EmptyRegion) as exc:
            _run_range(campaign.to_json(), 0, 2 * ROWS)
    before = _reference_range(campaign, 0, 300)
    assert before["rejected"] > 0
    assert (exc.value.drawn, exc.value.rejected) \
        == (before["drawn"] + RETRY_CAP, before["rejected"] + RETRY_CAP)


@pytest.mark.parametrize("target, region", [
    ("kyfan", {"v": [0.3, 0.9]}),  # rows failing to evaluate, drawn again
    ("operator-jensen", {}),
    ("holder-mccarthy", {"dim": [2, 40]}),
])
def test_chunks_do_not_depend_on_the_block_size(target, region, monkeypatch):
    # each sample draws from its own stream, and a row's arithmetic is its
    # own, so blocks of any size give a chunk the same aggregates
    campaign = Campaign(target, 1, 5, region=region).to_json()
    got = []
    for size in (97, ROWS, BLOCK_SIZE):
        monkeypatch.setattr(falsify, "BLOCK_SIZE", size)
        got.append(repr(_run_range(campaign, 0, 1100)))
    assert got[0] == got[1] == got[2]


def test_the_generator_pool_is_kept_for_the_process():
    # a chunk after one as large constructs no Philox, and a block's rows
    # read their own streams whatever the pool's generators drew before
    campaign = Campaign("half-bound", 1, 3).to_json()
    _run_range(campaign, 0, 2 * BLOCK_SIZE)
    with mock.patch("hconvexlab.streams.Philox", wraps=Philox) as made:
        _run_range(campaign, 0, 2 * BLOCK_SIZE)
    assert made.call_count == 0
    Streams(123).many(range(ROWS)).take(np.arange(ROWS), 7, "random")
    indices = [5, 0, 2 ** 40] + list(range(9, 9 + ROWS))
    words, ks = Streams(7).many(indices), np.arange(len(indices))
    start, end = words.reserve(ks, 10)
    for k, i in enumerate(indices):
        assert words.words[k, start[k]:end[k]].tolist() \
            == stream(7, i).bit_generator.random_raw(10).tolist(), i


@pytest.mark.parametrize("target", ["kyfan", "amgm"])
def test_chain_draws_gate_rows_as_gate_value_does(target):
    # the draw's gate step over a block's columns refuses the rows, with the
    # errors, bounds and g(v) bits, that gate_value row by row gives; a
    # block with an edge row goes row by row
    region = RULES[target].region
    step = next(s for s in RULES[target].draw.steps(region)
                if s.check is not None and s.per_n)

    def gate_step(args):
        rows = _Rows(len(args), region)
        rows["v"], rows["alpha"] = (np.array(t) for t in zip(*args))
        with mock.patch.object(TripleRule, "gate_value", autospec=True,
                               side_effect=TripleRule.gate_value) as calls:
            step.check(rows, region)
        return rows, calls.call_count

    drawn = gate_rows(target)
    for args in (drawn, drawn + GATE_EDGE_ROWS[target]):
        rows, calls = gate_step(args)
        with mock.patch.object(TripleRule, "gate_columns",
                               side_effect=ArithmeticError):
            by_row, _ = gate_step(args)
        assert (calls == 0) == (args is drawn)
        assert rows["gv"].tobytes() == by_row["gv"].tobytes()
        assert [t.tobytes() for t in rows.ends["a"]] \
            == [t.tobytes() for t in by_row.ends["a"]]
        assert rows.ok.tolist() == by_row.ok.tolist()
        assert {k: repr(e) for k, e in rows.errors.items()} \
            == {k: repr(e) for k, e in by_row.errors.items()}
    if target == "kyfan":  # its overflow is refused
        assert any(isinstance(e, OverflowError) for e in rows.errors.values())


def test_chain_blocks_run_no_row_by_row_loops(monkeypatch):
    # gate values, weight sums and holder-mccarthy powers run once per
    # block at the chains' default regions: no gate_value, no fsum in
    # refined, no power of one row in chain_rows
    powers = []

    class CountingNumpy:  # refined's numpy, noting the powers of one row
        def __getattr__(self, name):
            return getattr(np, name)

        def power(self, x, *args, **kwargs):
            powers.append(np.ndim(x) == 1)
            return np.power(x, *args, **kwargs)

    monkeypatch.setattr(refined, "np", CountingNumpy())
    profile = cProfile.Profile()
    for target in ("kyfan", "amgm", "chrystal", "holder-mccarthy"):
        profile.runcall(_run_range, Campaign(target, 2048, 7).to_json(),
                        0, 2048)
    calls = {"gate_value": 0, "fsum": 0}
    for (file, _, name), (_, _, _, _, callers) in \
            pstats.Stats(profile).stats.items():
        if name == "gate_value" and file.endswith("funclib.py"):
            calls["gate_value"] += sum(n for n, *_ in callers.values())
        elif name == "<built-in method math.fsum>":
            calls["fsum"] += sum(n for (f, *_), (n, *_) in callers.items()
                                 if f.endswith("refined.py"))
    assert calls == {"gate_value": 0, "fsum": 0}
    assert powers and not any(powers)


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


def test_dense_holder_mccarthy_witness_replays_like_its_diagonal_form():
    w = run_campaign(Campaign("holder-mccarthy", 20, 7))["witnesses"][0]
    inputs = {k: v for k, v in w["inputs"].items() if k != "diag"}
    inputs["entries"] = np.diag(w["inputs"]["diag"]).tolist()
    diagonal, dense = replay_witness(w), replay_witness(dict(w, inputs=inputs))
    assert (dense["margin_double"], dense["margin_confirmed"]) \
        == (diagonal["margin_double"], diagonal["margin_confirmed"]) \
        == (w["margin_double"], w["margin_confirmed"])


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


def test_lambda_profile_refuses_a_grid_past_its_cap():
    f = scalar_function("neglog")
    h = scalar_function("exp_weight", alpha=2.0, beta=2.16)
    A = SymmetricMatrix.diagonal(PINNED_INSTANCE["diag"])
    x = UnitVector(PINNED_INSTANCE["x"])
    for grid in (0, SWEEP_GRID_CAP + 1):
        with pytest.raises(ValueError, match="grid"):
            lambda_profile(f, h, A, x, grid=grid)
