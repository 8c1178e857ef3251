"""Outward-rounded enclosures: the ulp bounds they rely on."""

import math

import numpy as np
import pytest
from mpmath import mp

from hconvexlab.enclosure import outward


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


def _nextafter_bits(x, k):
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return x.view(np.int64)


@pytest.mark.filterwarnings("ignore:overflow encountered in nextafter")
def test_four_ulp_ends_step_as_four_nextafter_calls():
    # exp, log and power ends move 4 ulp in one integer step of their bits;
    # each must land where four np.nextafter calls land, zeros' signs, the
    # subnormals, ±max going to ±inf, inf and nan included
    tiny, top = 5e-324, np.finfo(float).max
    crafted = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny,
                        4 * tiny, -4 * tiny, 5 * tiny, -5 * tiny, top, -top,
                        math.inf, -math.inf, math.nan, 2.0,
                        np.nextafter(2.0, 0.0), -2.0])
    rng = np.random.default_rng(20260815)
    spread = rng.choice([-1.0, 1.0], 10_000) * np.exp2(
        rng.uniform(-1074.0, 1024.0, 10_000))
    for x in (crafted, spread, spread.reshape(8, -1)):
        ends = outward(x, x, 4)
        assert np.array_equal(ends.lo.view(np.int64), _nextafter_bits(x, -4))
        assert np.array_equal(ends.hi.view(np.int64), _nextafter_bits(x, 4))
    # numbers take the nextafter calls
    for x in map(np.float64, crafted):
        ends = outward(x, x, 4)
        assert ends.lo.view(np.int64) == _nextafter_bits(x, -4)
        assert ends.hi.view(np.int64) == _nextafter_bits(x, 4)
