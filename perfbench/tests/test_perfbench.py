"""Tests of the benchmark's own code: span arithmetic, the spread summary
and the output checker.

    python3 -m pytest -q perfbench/tests
"""

import copy
import os
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from checks import Checks, check_campaign  # noqa: E402
from spans import Tracer, self_times, summarize, wrapper_cost  # noqa: E402
from summary import spread  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    records = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("a.inner", 2.0, 3.0, 1, 0),
    ]
    assert self_times(records) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_self_time_counts_overlap_and_overhang_once():
    records = [
        ("root", 0.0, 10.0, -1, 0),
        ("x", 2.0, 6.0, 0, 0),
        ("y", 4.0, 8.0, 0, 0),   # overlaps x on [4, 6]
        ("z", 9.0, 12.0, 0, 0),  # runs past the parent's end
    ]
    assert self_times(records)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_reports_per_pass_and_inclusive_per_call():
    records = [
        ("outer", 0.0, 4.0, -1, 0),
        ("inner", 1.0, 2.0, 0, 0),
        ("outer", 10.0, 12.0, -1, 1),
    ]
    out = summarize(records, passes=2)
    assert out["outer"]["calls"] == 1.0
    assert out["outer"]["self_s"] == pytest.approx((3.0 + 2.0) / 2)
    assert out["outer"]["us_per_call"] == pytest.approx(1e6 * 3.0)
    assert out["inner"]["self_s"] == pytest.approx(0.5)


def test_tracer_wraps_the_looked_up_attribute_and_restores_it():
    mod = types.ModuleType("perfbench_fake_layer")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", mod.__dict__)
    sys.modules[mod.__name__] = mod
    original = mod.inner
    tracer = Tracer()
    try:
        points = [(mod.__name__, "outer", "layer.outer"),
                  (mod.__name__, "inner", lambda x: f"layer.inner.{x}")]
        with tracer.installed(points):
            mod.outer(1)  # disabled: forwards without recording
            tracer.enabled = True
            tracer.job = 5
            assert mod.outer(3) == 8
        assert mod.inner is original
    finally:
        del sys.modules[mod.__name__]
    names = [(r[0], r[3], r[4]) for r in tracer.records]
    assert names == [("layer.outer", -1, 5), ("layer.inner.3", 0, 5)]



def test_wrapper_cost_is_a_positive_per_call_time():
    cost = wrapper_cost(calls=2_000, rounds=3)
    assert 0.0 < cost < 1e-3

def test_spread_is_interquartile_range_over_median():
    s = spread([1, 2, 3, 4, 5])
    assert (s["median"], s["q1"], s["q3"]) == (3.0, 1.5, 4.5)
    assert s["spread"] == pytest.approx(1.0)
    assert spread([2.5])["spread"] == 0.0


@pytest.fixture(scope="module")
def campaign_report():
    """A real holder-mccarthy report: confirmed witnesses and demotions."""
    os.environ.setdefault("HCONVEXLAB_THREADS", "1")
    from hconvexlab.falsify import Campaign, replay_witness, run_campaign
    report = run_campaign(Campaign("holder-mccarthy", 300, 11))
    assert report["witness_stats"]["confirmed"] > 0
    assert report["witness_stats"]["demotions"]
    return report, replay_witness


def _check(report, replay, exit_code=2):
    checks = Checks()
    check_campaign(checks, "hm", report, exit_code, 300, replay,
                   expected_stats=None)
    return checks


def test_checker_passes_an_untouched_report(campaign_report):
    report, replay = campaign_report
    checks = _check(report, replay)
    assert checks.attempted >= 6
    assert checks.failures == []


def test_checker_flags_an_altered_confirmed_margin(campaign_report):
    report, replay = campaign_report
    tampered = copy.deepcopy(report)
    witness = next(w for w in tampered["witnesses"] if w["confirmed"])
    witness["margin_confirmed"] = witness["margin_confirmed"][:20]
    checks = _check(tampered, replay)
    assert any("50 digits" in f for f in checks.failures)


def test_checker_flags_a_dropped_demotion(campaign_report):
    report, replay = campaign_report
    tampered = copy.deepcopy(report)
    tampered["witness_stats"]["demotions"].popitem()
    checks = _check(tampered, replay)
    assert any("demotions" in f for f in checks.failures)


def test_checker_counts_a_malformed_report_instead_of_raising(campaign_report):
    _, replay = campaign_report
    checks = _check({"counts": {}, "witness_stats": None}, replay)
    assert checks.failures
    assert len(checks.failures) <= checks.attempted
