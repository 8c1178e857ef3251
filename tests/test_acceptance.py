"""Acceptance gate: the nine product-level criteria, one verdict line each.

Every criterion runs at its stated tolerance and time budget and prints a
single line

    ACCEPTANCE <n> <PASS|FAIL> <detail>

to the real stdout (bypassing capture) so the verdicts are visible in the
captured test log.  Budgets are wall-clock on a single core; campaigns run
with the worker count inherited from the environment.
"""

import json
import math
import sys
import time

import numpy as np

from hconvexlab.cli import main as cli_main
from hconvexlab.convexity import certify, jcoeff
from hconvexlab.falsify import Campaign, replay_witness, run_campaign
from hconvexlab.funclib import interval, make_triple, scalar_function
from hconvexlab.opcalc import SymmetricMatrix, UnitVector, jensen_verify
from hconvexlab.refined import (
    WeightedSample, amgm_chain, chrystal_chain, hm_chain, kyfan_chain,
)
from hconvexlab.reporting import canonical_json, strip_wall_time

SEED = 20260815
UNIT_OPEN = interval(0.0, 1.0, lo_open=True, hi_open=True)

PINNED_MARGIN_50 = (
    "-0.018582467924522522954008998445822332074251394191259")


def _verdict(cap, criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'} {detail}\n"
    with cap.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()
    assert ok, line.strip()


def _random_symmetric(rng, dim, lo, hi):
    lam = rng.uniform(lo, hi, size=dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (q * lam) @ q.T
    return SymmetricMatrix(0.5 * (a + a.T))


def test_criterion_1_jensen_coefficient_closed_form(capfd):
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        alpha = float(rng.uniform(0.05, 4.0))
        beta = float(alpha + rng.uniform(0.0, 2.0))
        h = scalar_function("exp_weight", alpha=alpha, beta=beta)
        jc = jcoeff(h, UNIT_OPEN)
        worst = max(worst, abs(jc.value - alpha / beta))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    _verdict(capfd, 1, ok, f"jcoeff vs alpha/beta: max |err| = {worst:.3g} "
                    f"(tol 1e-6), {elapsed:.2f}s (budget 1s)")


def test_criterion_2_classical_operator_jensen(capfd):
    rng = np.random.default_rng(SEED + 1)
    fixtures = [
        (scalar_function("square"), (-2.0, 2.0)),
        (scalar_function("exp"), (-2.0, 2.0)),
        (scalar_function("expdecay"), (0.0, 2.0)),
        (scalar_function("neglog"), (0.02, 0.98)),
    ]
    t0 = time.perf_counter()
    checks = 0
    worst = math.inf
    for f, (lo, hi) in fixtures:
        for _ in range(250):
            dim = int(rng.integers(2, 9))
            A = _random_symmetric(rng, dim, lo, hi)
            x = UnitVector(rng.standard_normal(dim))
            margin = jensen_verify(f, None, A, x, "classical").margin
            worst = min(worst, margin)
            checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-10 and checks == 1000 and elapsed < 5.0
    _verdict(capfd, 2, ok, f"classical margin over {checks} matrices x 4 fixtures: "
                    f"min = {worst:.3g} (tol -1e-10), {elapsed:.2f}s "
                    f"(budget 5s)")


def test_criterion_3_gap_certificates(capfd):
    rng = np.random.default_rng(SEED + 2)
    t0 = time.perf_counter()
    worst = math.inf
    count = 0
    for name in ("kyfan", "amgm", "chrystal", "holder_mccarthy"):
        for _ in range(10):
            if name in ("kyfan", "amgm"):
                alpha = float(rng.uniform(1.01, 3.0))
                beta = float(alpha + rng.uniform(0.0, 1.0))
            else:
                alpha = float(rng.uniform(0.1, 3.0))
                beta = float(alpha * (1.0 + rng.uniform(0.0, 1.0)))
            p = float(rng.uniform(1.1, 4.0)) \
                if name == "holder_mccarthy" else None
            tr = make_triple(name, alpha, beta, p=p)
            lo, hi = tr.anchors.lo, tr.anchors.hi
            span = min(hi, 3.0) - lo
            v = float(lo + (0.2 + 0.6 * rng.uniform()) * span)
            cert = certify(tr.f, tr.g, tr.h, v, grid=(256, 256))
            worst = min(worst, cert.min_value)
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-8 and count == 40 and elapsed < 30.0
    _verdict(capfd, 3, ok, f"certify over {count} seeded tuples (256x256 grid, "
                    f"refined): min gap = {worst:.3g} (tol -1e-8), "
                    f"{elapsed:.1f}s (budget 30s)")


def test_criterion_4_equality_at_zero_spread(capfd):
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        q = rng.dirichlet(np.ones(n))
        q = tuple(float(t) for t in q / q.sum())
        t = float(rng.uniform(0.05, 0.45))
        alpha = float(rng.uniform(1.01, 3.0))
        s = WeightedSample((t,) * n, q)
        sb = WeightedSample((t,) * n, q, b=(t,) * n)
        A = SymmetricMatrix.diagonal([t] * max(n, 2))
        x = UnitVector(rng.standard_normal(max(n, 2)))
        for rep in (kyfan_chain(s, alpha, 0.5), amgm_chain(s, alpha, 0.5),
                    chrystal_chain(sb, alpha, 1.0),
                    hm_chain(A, x, 2.0, alpha, 0.5)):
            assert rep.gamma == 0.0
            worst = max(worst, abs(rep.chain[1] - rep.chain[0]),
                        abs(rep.chain[2] - rep.chain[1]))
    ok = worst <= 1e-12
    _verdict(capfd, 4, ok, f"zero-spread chains collapse: max term gap = "
                    f"{worst:.3g} (tol 1e-12), 100 samples x 4 chains")


def test_criterion_5_cubic_gate_fixture(capfd, tmp_path):
    base = {
        "f": {"family": "cubic", "params": {}},
        "h": {"family": "identity_weight", "params": {}},
        "grid": [256, 256],
    }
    gated = dict(base, g={"family": "piecewise_gate", "params": {}}, v=2.0)
    whole = dict(base, g={"family": "constant_gate", "params": {"value": 0.0}},
                 v=1.0)
    p1, p2 = tmp_path / "gated.json", tmp_path / "whole.json"
    p1.write_text(json.dumps(gated))
    p2.write_text(json.dumps(whole))
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    code1 = cli_main(["certify", "--config", str(p1), "--out", str(out1)])
    code2 = cli_main(["certify", "--config", str(p2), "--out", str(out2)])
    rep1 = json.loads(out1.read_text())["result"]
    rep2 = json.loads(out2.read_text())["result"]
    witness = rep2["arg_min"]
    ok = (code1 == 0 and rep1["verdict"] == "Certified"
          and code2 == 2 and rep2["verdict"] == "Violated"
          and rep2["min_value"] < -1e-10
          and abs(witness["lambda"] - 1.0 / math.sqrt(3.0)) < 1e-3)
    _verdict(capfd, 5, ok, f"gated cubic: exit {code1} ({rep1['verdict']}); "
                    f"whole interval: exit {code2} ({rep2['verdict']}) "
                    f"witness u={witness['u']:.3g} "
                    f"lam={witness['lambda']:.6f} "
                    f"min={rep2['min_value']:.6g}")


def test_criterion_6_power_weight_counterexample_region(capfd):
    rep = run_campaign(Campaign("best-possible", 10_000, SEED))
    confirmed = rep["witness_stats"]["confirmed"]
    w = next(w for w in rep["witnesses"] if w["confirmed"])
    again = replay_witness(w)
    replays = (again["margin_double"] == w["margin_double"]
               and again["margin_confirmed"] == w["margin_confirmed"])
    ok = confirmed >= 1 and replays
    _verdict(capfd, 6, ok, f"power-weight region: {confirmed} confirmed "
                    f"violations in 10^4 samples; witness replay "
                    f"bit-identical = {replays} "
                    f"(margin {w['margin_confirmed'][:12]}...)")


def test_criterion_7_falsification_campaigns(capfd):
    targets = ("operator-jensen", "kyfan", "amgm", "chrystal",
               "holder-mccarthy")
    details = []
    ok = True
    for target in targets:
        t0 = time.perf_counter()
        rep = run_campaign(Campaign(target, 100_000, SEED))
        elapsed = time.perf_counter() - t0
        ws = rep["witness_stats"]
        accounted = ws["candidates"] == ws["confirmed"] + sum(
            ws["demotions"].values())
        digits_ok = all(
            len(w["margin_confirmed"].replace("-", "").replace(".", "")
                .lstrip("0")) >= 50
            and float(w["margin_confirmed"]) < -1e-6
            for w in rep["witnesses"] if w["confirmed"])
        counted_ok = rep["counts"]["counted"] == 100_000
        target_ok = (elapsed < 60.0 and accounted and digits_ok
                     and counted_ok)
        if target == "operator-jensen":
            pinned = rep["pinned_instance"]
            target_ok = (target_ok and pinned["confirmed"]
                         and pinned["margin_confirmed"] == PINNED_MARGIN_50)
            details.append(
                f"pinned margin {pinned['margin_confirmed'][:14]}...")
        ok = ok and target_ok
        details.append(f"{target}: {elapsed:.0f}s "
                       f"{ws['confirmed']}/{ws['candidates']} confirmed")
    _verdict(capfd, 7, ok, "10^5-sample campaigns (budget 60s each): "
                    + "; ".join(details))


def test_criterion_8_classical_outer_inequalities(capfd):
    counts = {}
    ok = True
    for target in ("kyfan", "amgm", "chrystal", "holder-mccarthy"):
        rep = run_campaign(Campaign(target, 10_000, SEED,
                                    margin_kind="outer"))
        counts[target] = rep["witness_stats"]["confirmed"]
        ok = ok and counts[target] == 0 \
            and rep["counts"]["counted"] == 10_000
    _verdict(capfd, 8, ok, f"outer lhs<=rhs margins, 10^4 samples per chain: "
                    f"confirmed witnesses = {counts}")


def test_criterion_9_byte_identical_reruns(capfd):
    matches = {}
    for target, n in (("amgm", 10_000), ("operator-jensen", 2_000),
                      ("best-possible", 2_000)):
        a = run_campaign(Campaign(target, n, SEED + 9))
        b = run_campaign(Campaign(target, n, SEED + 9))
        matches[target] = (canonical_json(strip_wall_time(a))
                           == canonical_json(strip_wall_time(b)))
    ok = all(matches.values())
    _verdict(capfd, 9, ok, f"rerun byte-identity (wall time excluded): {matches}")
