"""The benchmark's workloads: fixed job lists built from a seed.

Every input (campaign seeds, certify tuples, random matrices) is derived
from the benchmark seed here; the lab receives only these generated
inputs, through its public entry points: ``hconvexlab.cli.main``
in-process, ``convexity.certify`` and ``opcalc.jensen_verify``.  Campaigns
go through the CLI, which calls ``falsify.run_campaign``, so the measured
path includes argument parsing, the report envelope and the file write.

Workloads (why each was chosen is in README.md):
  falsify-confirm   10^4-sample refined campaigns on operator-jensen and
                    holder-mccarthy; ~95% of samples become candidates,
                    so 60-digit confirmation dominates
  falsify-null      10^4-sample campaigns on half-bound and on the four
                    chains with the outer margin; no candidates, so the
                    time is draw plus double evaluation
  certify-spectral  256x256 certify on seeded tuples of all four triples,
                    the gated/whole cubic fixture pair through the CLI,
                    criterion 2's 1000 dense classical Jensen checks at
                    dims 2-8, and one each at dims 32 and 64
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hconvexlab import cli, convexity, falsify, funclib, opcalc, reporting

import checks as ck

DEFAULT_SEED = 7
SAMPLES = 10_000

CAMPAIGNS = {
    "falsify-confirm": (("operator-jensen", "refined"),
                        ("holder-mccarthy", "refined")),
    "falsify-null": (("half-bound", "refined"), ("kyfan", "outer"),
                     ("amgm", "outer"), ("chrystal", "outer"),
                     ("holder-mccarthy", "outer")),
}
WORKLOADS = (*CAMPAIGNS, "certify-spectral")
# campaign targets whose samples build a triple (funclib.make_triple)
OPERATOR_TARGETS = ("operator-jensen", "half-bound")

# witness_stats of every campaign at DEFAULT_SEED.  They are counts, so
# they survive ulp-level changes to the double evaluation; report bytes
# are deliberately not pinned.
EXPECTED_STATS = {
    "falsify-confirm": {
        "operator-jensen/refined": {
            "candidates": 9492, "confirmed": 9492, "demotions": {},
            "reported": 32},
        "holder-mccarthy/refined": {
            "candidates": 9727, "confirmed": 7693,
            "demotions": {"below-threshold": 2034}, "reported": 32},
    },
    "falsify-null": {
        f"{target}/{kind}": {"candidates": 0, "confirmed": 0,
                             "demotions": {}, "reported": 0}
        for target, kind in CAMPAIGNS["falsify-null"]
    },
}

CERTIFY_DRAWS = 25  # per triple, the default of scripts/certify_triples.py
CERTIFY_GRID = (256, 256)
# Criterion 2's traffic (tests/test_acceptance.py): 250 matrices of dims
# 2..8 per fixture, fixture after fixture.  Fixtures are a convex f and
# its spectrum range.
DENSE_PER_FIXTURE = 250
DENSE_FIXTURES = (("square", (-2.0, 2.0)), ("exp", (-2.0, 2.0)),
                  ("expdecay", (0.0, 2.0)), ("neglog", (0.02, 0.98)))
# No caller sends dense matrices above dim 8 today.  One matrix at each
# ROADMAP Jacobi point above 8 is the least that gives those spans a value
# in every pass; they add ~0.6 s to a ~2.6 s pass.
LARGE_DENSE = ((32, "exp"), (64, "exp"))
CUBIC_BASE = {"f": {"family": "cubic", "params": {}},
              "h": {"family": "identity_weight", "params": {}},
              "grid": [256, 256]}
CUBIC_CONFIGS = {
    "gated": dict(CUBIC_BASE, g={"family": "piecewise_gate", "params": {}},
                  v=2.0),
    "whole": dict(CUBIC_BASE,
                  g={"family": "constant_gate", "params": {"value": 0.0}},
                  v=1.0),
}


@dataclass
class Job:
    """One timed call into the lab, and the checks on what it returned.

    ``verify(checks, result)`` runs outside the timed region and returns
    counters for the per-layer ratios.  ``samples`` is the number of
    inputs the job decides: campaign samples, tuples or matrices.
    """

    label: str
    call: Callable[[], object]
    verify: Callable[[ck.Checks, object], dict]
    samples: int


def _campaign_job(workload, workdir: Path, target, kind, seed,
                  pinned: bool) -> Job:
    label = f"{target}/{kind}"
    out = workdir / f"{target}-{kind}.json"
    argv = ["falsify", "--target", target, "--samples", str(SAMPLES),
            "--seed", str(seed), "--margin-kind", kind, "--out", str(out)]
    expected = EXPECTED_STATS[workload][label] if pinned else None
    first = []

    def verify(checks, exit_code):
        text = _take(out)
        envelope = json.loads(text)
        report = envelope["result"]
        ck.check_campaign(checks, label, report, exit_code, SAMPLES,
                          falsify.replay_witness, expected)
        if workload == "falsify-null":
            ck.check_null(checks, label, report)
        stripped = reporting.strip_wall_time(envelope)
        if not first:
            first.append(stripped)
        checks.check(f"{label}: rerun report identical (wall time aside)",
                     lambda: stripped == first[0])
        counts, stats = report["counts"], report["witness_stats"]
        return {"counted": counts["counted"], "drawn": counts["drawn"],
                "operator_counted":
                    counts["counted"] if target in OPERATOR_TARGETS else 0,
                "rejected": counts["rejected"],
                "candidates": stats["candidates"],
                "confirmed": stats["confirmed"],
                "report_bytes": len(text.encode("utf-8"))}

    return Job(label, lambda: cli.main(argv), verify, SAMPLES)


def _take(path: Path) -> str:
    """Read and remove a report, so a failed later call cannot reuse it."""
    try:
        return path.read_text(encoding="utf-8")
    finally:
        path.unlink(missing_ok=True)


def campaign_seeds(workload: str, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2 ** 63,
                                         size=len(CAMPAIGNS[workload]))]


def _draw_tuple(rng, name):
    """An in-hypothesis (triple, v), drawn as scripts/certify_triples.py does."""
    lo = 1.01 if name in ("kyfan", "amgm") else 0.1
    alpha = float(rng.uniform(lo, 3.0))
    beta_lo, beta_hi = funclib.triple_beta_range(name, alpha)
    beta = float(rng.uniform(beta_lo, beta_hi))
    p = float(rng.uniform(1.1, 4.0)) if name == "holder_mccarthy" else None
    triple = funclib.make_triple(name, alpha, beta, p=p)
    a_lo, a_hi = triple.anchors.lo, triple.anchors.hi
    v = float(a_lo + (0.15 + 0.7 * rng.uniform()) * (min(a_hi, 3.0) - a_lo))
    return triple, v


def _certify_job(label, triple, v) -> Job:
    def verify(checks, certificate):
        ck.check_certified(checks, label, certificate)
        return {}
    return Job(label, lambda: convexity.certify(triple.f, triple.g, triple.h,
                                                v, grid=CERTIFY_GRID),
               verify, 1)


def _cubic_job(workdir: Path, which: str) -> Job:
    config = workdir / f"cubic-{which}.json"
    config.write_text(json.dumps(CUBIC_CONFIGS[which]), encoding="utf-8")
    out = workdir / f"cubic-{which}-report.json"
    argv = ["certify", "--config", str(config), "--out", str(out)]

    def verify(checks, exit_code):
        text = _take(out)
        ck.check_cubic(checks, f"cubic/{which}", json.loads(text)["result"],
                       exit_code, gated=which == "gated")
        return {"report_bytes": len(text.encode("utf-8"))}
    return Job(f"cubic/{which}", lambda: cli.main(argv), verify, 1)


def random_symmetric(rng, dim, lo, hi) -> np.ndarray:
    """Entries of a random symmetric matrix with spectrum in [lo, hi]."""
    lam = rng.uniform(lo, hi, size=dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


def _dense_job(label, f, entries, x) -> Job:
    def call():
        # a fresh matrix per call: SymmetricMatrix caches its decomposition
        matrix = opcalc.SymmetricMatrix(entries)
        return matrix, opcalc.jensen_verify(f, None, matrix, x, "classical")

    def verify(checks, result):
        ck.check_dense(checks, label, *result)
        return {}
    return Job(label, call, verify, 1)


def _certify_spectral(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    jobs = []
    for name in funclib.TRIPLE_NAMES:
        for k in range(CERTIFY_DRAWS):
            triple, v = _draw_tuple(rng, name)
            jobs.append(_certify_job(f"certify/{name}/{k}", triple, v))
    jobs += [_cubic_job(workdir, "gated"), _cubic_job(workdir, "whole")]
    fixtures = dict(DENSE_FIXTURES)
    dense = [(family, int(rng.integers(2, 9))) for family, _ in DENSE_FIXTURES
             for _ in range(DENSE_PER_FIXTURE)]
    dense += [(family, dim) for dim, family in LARGE_DENSE]
    for k, (family, dim) in enumerate(dense):
        entries = random_symmetric(rng, dim, *fixtures[family])
        x = opcalc.UnitVector(rng.standard_normal(dim))
        jobs.append(_dense_job(f"jensen/{family}/d{dim}/{k}",
                               funclib.scalar_function(family), entries, x))
    return jobs


def build(workload: str, seed: int, workdir: Path) -> list:
    """The workload's fixed job list for ``seed``; files go in ``workdir``."""
    if workload in CAMPAIGNS:
        return [_campaign_job(workload, workdir, target, kind, s,
                              seed == DEFAULT_SEED)
                for (target, kind), s in zip(CAMPAIGNS[workload],
                                             campaign_seeds(workload, seed))]
    return _certify_spectral(seed, workdir)


def warm_up(workload: str, workdir: Path) -> None:
    """One small call into each layer the workload uses."""
    workdir = workdir / "warm-up"
    workdir.mkdir(exist_ok=True)
    if workload in CAMPAIGNS:
        for target, kind in CAMPAIGNS[workload]:
            cli.main(["falsify", "--target", target, "--samples", "8",
                      "--seed", "1", "--margin-kind", kind,
                      "--out", str(workdir / "warm-up.json")])
        return
    triple = funclib.make_triple("amgm", 2.0, 2.5)
    convexity.certify(triple.f, triple.g, triple.h, 0.5, grid=CERTIFY_GRID)
    _cubic_job(workdir, "whole").call()
    entries = random_symmetric(np.random.default_rng(0), 4, -2.0, 2.0)
    opcalc.jensen_verify(funclib.scalar_function("exp"), None,
                         opcalc.SymmetricMatrix(entries),
                         opcalc.UnitVector([0.5, 0.5, 0.5, 0.5]), "classical")


def _jacobi_span(matrix) -> str:
    return "opcalc.spectral_decompose." + (
        "d2-8" if matrix.dim <= 8 else f"d{matrix.dim}")


# (module, attribute the caller looks up, span name)
SPAN_POINTS = (
    ("hconvexlab.cli", "main", "cli.main"),
    ("hconvexlab.cli", "run_campaign", "falsify.run_campaign"),
    ("hconvexlab.falsify", "draw_instance", "falsify.draw_instance"),
    ("hconvexlab.falsify", "evaluate_instance", "falsify.evaluate_instance"),
    ("hconvexlab.falsify", "confirm", "falsify.confirm"),
    ("hconvexlab.falsify", "hp_jensen_margin", "highprec.hp_jensen_margin"),
    ("hconvexlab.falsify", "hp_chain_margins", "highprec.hp_chain_margins"),
    ("hconvexlab.falsify", "make_triple", "funclib.make_triple"),
    ("hconvexlab.falsify", "gate_interval", "funclib.gate_interval"),
    ("hconvexlab.convexity", "gate_interval", "funclib.gate_interval"),
    ("hconvexlab.falsify", "jensen_verify", "opcalc.jensen_verify"),
    ("hconvexlab.opcalc", "jensen_verify", "opcalc.jensen_verify"),
    ("hconvexlab.opcalc", "spectral_decompose", _jacobi_span),
    ("hconvexlab.falsify", "kyfan_chain", "refined.chain"),
    ("hconvexlab.falsify", "amgm_chain", "refined.chain"),
    ("hconvexlab.falsify", "chrystal_chain", "refined.chain"),
    ("hconvexlab.falsify", "hm_chain", "refined.chain"),
    ("hconvexlab.cli", "certify", "convexity.certify"),
    ("hconvexlab.convexity", "certify", "convexity.certify"),
    ("hconvexlab.cli", "canonical_json", "reporting.canonical_json"),
)
SPAN_NAMES = (
    "cli.main", "falsify.run_campaign", "falsify.draw_instance",
    "falsify.evaluate_instance", "falsify.confirm",
    "highprec.hp_jensen_margin", "highprec.hp_chain_margins",
    "funclib.make_triple", "funclib.gate_interval", "opcalc.jensen_verify",
    "opcalc.spectral_decompose.d2-8", "opcalc.spectral_decompose.d32",
    "opcalc.spectral_decompose.d64", "refined.chain", "convexity.certify",
    "reporting.canonical_json",
)
