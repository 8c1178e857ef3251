#!/usr/bin/env python3
"""Run seeded falsification campaigns against every built-in target.

Writes one JSON report per target into --outdir and prints a summary
table.  Reports are byte-deterministic for a fixed seed (wall-time
fields aside), so diffing two runs of this script is a cheap
regression check.

Typical use:

    python scripts/run_campaigns.py --samples 100000 --seed 7 \
        --outdir reports/
    python scripts/run_campaigns.py --targets amgm chrystal \
        --margin-kind outer --samples 10000
"""

import argparse
import sys
import time
from pathlib import Path

from hconvexlab.falsify import TARGETS, Campaign, run_campaign
from hconvexlab.reporting import canonical_json


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--targets", nargs="+", default=list(TARGETS),
                    choices=list(TARGETS), metavar="TARGET",
                    help=f"campaign targets (default: all of {TARGETS})")
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--margin-kind", default="refined",
                    choices=("refined", "outer"))
    ap.add_argument("--witness-cap", type=int, default=32)
    ap.add_argument("--outdir", type=Path, default=Path("reports"))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    any_confirmed = False
    print(f"{'target':<18} {'time':>9} {'samples/s':>10} {'counted':>8} "
          f"{'candidates':>10} {'confirmed':>9} {'demoted':>7}  min_margin")
    for target in args.targets:
        campaign = Campaign(target, args.samples, args.seed,
                            margin_kind=args.margin_kind,
                            witness_cap=args.witness_cap)
        t0 = time.perf_counter()
        report = run_campaign(campaign)
        dt = time.perf_counter() - t0
        path = args.outdir / f"{target}-{args.margin_kind}-{args.seed}.json"
        path.write_text(canonical_json(report) + "\n")
        ws = report["witness_stats"]
        demoted = sum(ws["demotions"].values())
        any_confirmed = any_confirmed or ws["confirmed"] > 0
        counted = report["counts"]["counted"]
        print(f"{target:<18} {1e3 * dt:>7.1f}ms {counted / dt:>10.0f} "
              f"{counted:>8} {ws['candidates']:>10} {ws['confirmed']:>9} "
              f"{demoted:>7}  {report['min_margin']:.6g}  -> {path}")
    return 2 if any_confirmed else 0


if __name__ == "__main__":
    sys.exit(main())
