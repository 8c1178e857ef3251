"""Outward-rounded enclosures: the ulp bounds they rely on."""

import math

import numpy as np
from mpmath import mp


def test_numpy_elementary_functions_are_within_four_ulp():
    # the enclosures move the ends of numpy's exp, log and power 4 ulp out:
    # a platform whose routines err by more must fail here, not settle a
    # status it has not proved.  Ranges: chain log-sums and weight
    # exponents, the chain values and spectra, holder-mccarthy's p.
    rng = np.random.default_rng(20260815)
    t = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), 2000))
    p = rng.uniform(1.0, 4.0, 2000)
    cases = (("exp", np.exp, mp.exp, (rng.uniform(-40.0, 40.0, 2000),)),
             ("log", np.log, mp.log, (np.exp(rng.uniform(-60.0, 60.0, 2000)),)),
             ("power", np.power, mp.power, (t, p)),
             ("square", np.power, mp.power, (t, 2.0)))
    for name, fn, exact, args in cases:
        values = fn(*args)
        lo, hi = values, values
        for _ in range(4):
            lo, hi = np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)
        with mp.workdps(40):
            for k, row in enumerate(zip(*np.broadcast_arrays(*args))):
                want = exact(*map(mp.mpf, row))
                assert lo[k] <= want <= hi[k], (name, row, values[k])
