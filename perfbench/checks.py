"""Output checks on every benchmark job.

Checks run outside the timed region.  A check that is false, or that
raises, is counted as a failure with its label; nothing here raises, so a
wrong or malformed result costs one failure, never the run.
"""

from __future__ import annotations

import math

import numpy as np

CONFIRM_THRESHOLD = -1e-6
WITNESS_DIGITS = 50
# 50-digit confirmed margin of the pinned operator-jensen instance, as
# stated by the acceptance gate (criterion 7)
PINNED_MARGIN_50 = "-0.018582467924522522954008998445822332074251394191259"
CLASSICAL_TOLERANCE = -1e-10  # criterion 2
# Jacobi eigenvalues vs LAPACK, relative to the spectral radius
EIGEN_RTOL = 1e-10


class Checks:
    """Counts attempted checks and keeps the label of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, label: str, predicate) -> bool:
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as exc:  # a malformed result is a failed check
            ok = False
            label = f"{label} ({type(exc).__name__}: {exc})"
        if not ok:
            self.failures.append(label)
        return ok

    def guarded(self, label: str, fn, *args):
        """``(True, fn(*args))``, or ``(False, None)`` counting one failed
        check when ``fn`` raises."""
        try:
            return True, fn(*args)
        except Exception as exc:
            self.attempted += 1
            self.failures.append(f"{label} ({type(exc).__name__}: {exc})")
            return False, None


def significant_digits(text: str) -> int:
    mantissa = text.lstrip("-").split("e")[0]
    return len(mantissa.replace(".", "").lstrip("0"))


def _confirmed_ok(witness: dict) -> bool:
    text = witness["margin_confirmed"]
    return float(text) < CONFIRM_THRESHOLD \
        and significant_digits(text) >= WITNESS_DIGITS


def check_campaign(checks: Checks, label: str, report: dict, exit_code: int,
                   samples: int, replay, expected_stats=None) -> None:
    """Checks on one campaign report (the ``result`` of a CLI envelope).

    ``replay`` is ``hconvexlab.falsify.replay_witness``.  ``expected_stats``
    is the recorded ``witness_stats`` for this campaign, or None.
    """
    counts = report.get("counts", {})
    stats = report.get("witness_stats", {})
    witnesses = report.get("witnesses", [])
    checks.check(f"{label}: drawn == counted + rejected",
                 lambda: counts["drawn"] == counts["counted"]
                 + counts["rejected"])
    checks.check(f"{label}: counted == {samples}",
                 lambda: counts["counted"] == samples)
    checks.check(f"{label}: candidates == confirmed + demotions",
                 lambda: stats["candidates"] == stats["confirmed"]
                 + sum(stats["demotions"].values()))
    checks.check(f"{label}: confirmed margins < -1e-6 with 50 digits",
                 lambda: all(_confirmed_ok(w) for w in witnesses
                             if w["confirmed"]))
    checks.check(f"{label}: exit code matches verdict",
                 lambda: exit_code == (2 if stats["confirmed"] else 0))
    if witnesses:
        def replays():
            again = replay(witnesses[0])
            return (again["margin_double"] == witnesses[0]["margin_double"]
                    and again["margin_confirmed"]
                    == witnesses[0]["margin_confirmed"])
        checks.check(f"{label}: first witness replays exactly", replays)
    else:
        def replays():
            kind = report["campaign"]["margin_kind"]
            again = replay({"inputs": report["argmin"]["inputs"],
                            "margin_kind": kind})
            return again["margin_double"] == report["min_margin"]
        checks.check(f"{label}: arg-min replays exactly", replays)
    if report.get("campaign", {}).get("target") == "operator-jensen":
        checks.check(f"{label}: pinned margin matches the acceptance gate",
                     lambda: report["pinned_instance"]["confirmed"]
                     and report["pinned_instance"]["margin_confirmed"]
                     == PINNED_MARGIN_50)
    if expected_stats is not None:
        checks.check(f"{label}: witness_stats match the recorded values",
                     lambda: stats == expected_stats)


def check_null(checks: Checks, label: str, report: dict) -> None:
    """A campaign on an inequality that holds confirms nothing."""
    checks.check(f"{label}: no confirmed witness",
                 lambda: report["witness_stats"]["confirmed"] == 0)


def check_certified(checks: Checks, label: str, certificate) -> None:
    checks.check(f"{label}: in-hypothesis tuple is Certified",
                 lambda: certificate.verdict == "Certified")


def check_cubic(checks: Checks, label: str, report: dict, exit_code: int,
                gated: bool) -> None:
    """Criterion 5: the gated cubic certifies, the whole interval fails."""
    if gated:
        checks.check(f"{label}: Certified with exit 0",
                     lambda: exit_code == 0
                     and report["verdict"] == "Certified")
        return
    checks.check(f"{label}: Violated with exit 2 at lambda = 1/sqrt(3)",
                 lambda: exit_code == 2 and report["verdict"] == "Violated"
                 and report["min_value"] < -1e-10
                 and abs(report["arg_min"]["lambda"]
                         - 1.0 / math.sqrt(3.0)) < 1e-3)


def check_dense(checks: Checks, label: str, matrix, verdict) -> None:
    """Classical Jensen holds, and Jacobi agrees with LAPACK's eigenvalues."""
    checks.check(f"{label}: classical margin >= -1e-10",
                 lambda: verdict.margin >= CLASSICAL_TOLERANCE)

    def eigen_agree():
        jacobi = matrix.decomposition().eigenvalues
        lapack = np.linalg.eigvalsh(np.asarray(matrix.entries))
        scale = max(1.0, float(np.abs(lapack).max()))
        return float(np.abs(jacobi - lapack).max()) <= EIGEN_RTOL * scale
    checks.check(f"{label}: Jacobi eigenvalues match eigvalsh", eigen_agree)
