#!/usr/bin/env python3
"""Grid-certify the gap F(u, lam) for the built-in triples.

For each triple, draws seeded (alpha, beta[, p], v) tuples inside the
stated parameter ranges, runs the grid certifier with refinement, and
prints the worst grid minimum seen.  A negative minimum beyond the
tolerance is a violation and makes the script exit 2 with the witness
printed.

    python scripts/certify_triples.py --draws 25 --grid 256 --seed 3
"""

import argparse
import sys

import numpy as np

from hconvexlab.convexity import certify
from hconvexlab.funclib import (
    TRIPLE_NAMES, TRIPLES, make_triple, triple_beta_range,
)


def draw_tuple(rng, name):
    rule = TRIPLES[name]
    lo = 1.01 if rule.alpha_floor == 1.0 else 0.1
    alpha = float(rng.uniform(lo, 3.0))
    blo, bhi = triple_beta_range(name, alpha)
    beta = float(rng.uniform(blo, bhi))
    p = float(rng.uniform(1.1, 4.0)) if rule.needs_p else None
    triple = make_triple(name, alpha, beta, p=p)
    a_lo, a_hi = triple.anchors.lo, triple.anchors.hi
    v = float(a_lo + (0.15 + 0.7 * rng.uniform()) * (min(a_hi, 3.0) - a_lo))
    return triple, v


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--triples", nargs="+", default=list(TRIPLE_NAMES),
                    choices=list(TRIPLE_NAMES), metavar="TRIPLE")
    ap.add_argument("--draws", type=int, default=25)
    ap.add_argument("--grid", type=int, default=256)
    ap.add_argument("--seed", type=int, default=3)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    rng = np.random.default_rng(args.seed)
    violated = False
    print(f"{'triple':<18} {'draws':>5} {'certified':>9}  worst_min")
    for name in args.triples:
        worst = np.inf
        certified = 0
        witness = None
        for _ in range(args.draws):
            triple, v = draw_tuple(rng, name)
            cert = certify(triple.f, triple.g, triple.h, v,
                           grid=(args.grid, args.grid))
            if cert.verdict == "Certified":
                certified += 1
            elif witness is None:
                witness = (triple, v, cert)
            worst = min(worst, cert.min_value)
        print(f"{name:<18} {args.draws:>5} {certified:>9}  {worst:.6g}")
        if witness is not None:
            violated = True
            triple, v, cert = witness
            print(f"  violation at v={v!r} alpha={triple.h.params['alpha']!r}"
                  f" beta={triple.h.params['beta']!r}: "
                  f"min {cert.min_value!r} at {cert.arg_min}")
    return 2 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
