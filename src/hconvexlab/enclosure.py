"""Outward-rounded interval arithmetic over numpy arrays.

An Enclosure holds, entry by entry, an interval of doubles that contains
the exact real result of the arithmetic that built it.  The margin terms
that take their arithmetic as an argument (the funclib cores, given
ENCLOSED_OPS, the chain terms, opcalc.jensen_factor) run in it as they
run in doubles and at 60 digits.
"""

from __future__ import annotations

import functools
import math
import operator
from types import SimpleNamespace

import numpy as np


class Enclosure:
    """Intervals [lo, hi] of reals, the ends numpy arrays (or numbers), in
    outward-rounded double arithmetic (Moore, Kearfott and Cloud,
    Introduction to Interval Analysis, 2009).  Each end of a + - * / result
    is rounded to nearest and then moved one np.nextafter outward, so it
    holds the exact result for any reals of the operands' intervals.  exp,
    log and power ends move 4 ulp: that holds while numpy's routines are
    within 4 ulp of the exact value, which tests/test_enclosure.py checks.
    A product with a point (lo is hi) takes two products of ends, not four.
    Divisors must be positive and power's base nonnegative, as they are in
    every margin falsify encloses; a divisor that reaches 0 gives nan,
    which settles nothing."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo, self.hi = lo, lo if hi is None else hi

    def __add__(self, other):
        other = enclosed(other)
        return outward(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return self + -enclosed(other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Enclosure(-self.hi, -self.lo)

    def __mul__(self, other):
        other = enclosed(other)
        ends = [self.lo * other.lo, self.hi * other.hi]
        if self.lo is not self.hi and other.lo is not other.hi:
            ends += [self.lo * other.hi, self.hi * other.lo]
        return outward(functools.reduce(np.minimum, ends),
                       functools.reduce(np.maximum, ends))

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other):
        other = enclosed(other)  # x / y rises with x, for y > 0
        lo = np.minimum(self.lo / other.lo, self.lo / other.hi)
        hi = np.maximum(self.hi / other.lo, self.hi / other.hi)
        return outward(np.where(other.lo > 0.0, lo, math.nan), hi)

    def __pow__(self, p):
        """A power to an exponent p > 0, a number or array: every exponent
        here is a drawn double."""
        return outward(np.power(np.maximum(self.lo, 0.0), p),
                       np.power(self.hi, p), 4)

    def sum(self) -> "Enclosure":
        """The sum of the rows, added in order."""
        return functools.reduce(operator.add, map(Enclosure, self.lo, self.hi))


def enclosed(value) -> Enclosure:
    """An enclosure as it is, a number or array as a point."""
    return value if isinstance(value, Enclosure) else Enclosure(value)


def outward(lo, hi, ulps: int = 1) -> Enclosure:
    """[lo, hi] moved ``ulps`` doubles outward at each end."""
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)
    return Enclosure(lo, hi)


# the ops of the funclib cores and the chain terms, over enclosures
ENCLOSED_OPS = SimpleNamespace(
    exp=lambda t: outward(np.exp(t.lo), np.exp(t.hi), 4),
    log=lambda t: outward(np.log(t.lo), np.log(t.hi), 4),
    power=Enclosure.__pow__)
