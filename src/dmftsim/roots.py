"""The package's one bisection loop, and its signs certified by a
rounding-error bound.

A bisection asks only for the sign of f at its midpoints.  Let f be
nondecreasing on the bracket, and let its computed value differ from the
exact one by at most B at every point of the bracket.  Then an evaluated
point x with computed f(x) > 2B proves that the computed f is positive at
every larger point of the bracket: there the exact f exceeds B.  Likewise
computed f(x) < -2B proves it negative at every smaller point.
``MonotoneSigns`` answers such midpoints from the points it has evaluated,
so ``bisect``, which asks it in place of f when given B, makes the same
decisions, and returns the same bits, as evaluating every midpoint.  Only
the midpoints in the band around the root that no evaluated point decides
are evaluated.

The bounds follow Higham, "The accuracy of floating point summation", SIAM
J. Sci. Comput. 14 (1993): a sum in which every term passes through at most
k additions is off by at most gamma_k = k u / (1 - k u) times the sum of
the terms' magnitudes, u the unit roundoff.
"""

from __future__ import annotations

import math

UNIT_ROUNDOFF = 2.0 ** -53


def sum_error(n: int) -> float:
    """gamma_k for k an upper bound on the additions a term passes through
    in numpy's float64 sum of n terms: numpy's sum is off by at most this
    times the sum of the terms' magnitudes.  numpy sums blocks of at most
    128 terms in eight accumulators (at most 15 additions each, 3 to
    combine them, 7 for the tail) and pairs the blocks in ceil(log2 n)
    levels above them; a reduction that runs in buffers of 8192 terms adds
    the buffers' sums one after the other."""
    k = (26 + math.ceil(math.log2(max(n, 2))) + -(-n // 8192)) * UNIT_ROUNDOFF
    return k / (1.0 - k)


LOCATE_STEPS = 16     # regula falsi steps at most, before the bisection


class MonotoneSigns:
    """Certified signs of f on [lo, hi] for a bisection on that bracket.

    f must be nondecreasing on [lo, hi] and computed to within ``bound`` of
    its exact value there; ``f_lo <= 0 < f_hi`` are its computed values at
    the ends.  Construction locates the root: safeguarded regula falsi
    steps, with the Anderson-Bjorck variant of the Illinois rule against a
    stuck end, until an iterate falls in the band |f| <= 2 bound or the
    decided points lie within ``width`` of each other, then a step to each
    side of that iterate, out of the band.  A call ``signs(x)`` at a
    point x of the bracket returns 1.0 or -1.0 when an evaluated point
    decides the sign of the computed f(x) (x at or above a point with f >
    2 bound, or at or below one with f < -2 bound); otherwise it returns the
    computed f(x) and keeps x as a deciding point when it is one.
    """

    def __init__(self, f, bound: float, lo: float, f_lo: float, hi: float,
                 f_hi: float, width: float = 0.0):
        self.f = f
        self.band = 2.0 * bound
        self.neg = -math.inf      # largest point with f < -band
        self.pos = math.inf       # smallest point with f > band
        self._note(lo, f_lo)
        self._note(hi, f_hi)
        self._locate(lo, f_lo, hi, f_hi, width)

    def __call__(self, x: float) -> float:
        if x >= self.pos:
            return 1.0
        if x <= self.neg:
            return -1.0
        return self._eval(x)

    def _eval(self, x: float) -> float:
        v = self.f(x)
        self._note(x, v)
        return v

    def _note(self, x: float, v: float) -> None:
        if v > self.band:
            self.pos = min(self.pos, x)
        elif v < -self.band:
            self.neg = max(self.neg, x)

    def _locate(self, a, fa, b, fb, width) -> None:
        ga, gb = fa, fb           # unscaled values at a and b
        side = 0
        for _ in range(LOCATE_STEPS):
            if self.pos - self.neg <= width:
                return
            x = b - fb * (b - a) / (fb - fa)
            if not a < x < b:
                x = 0.5 * (a + b)
            v = self._eval(x)
            if abs(v) <= self.band:
                break
            if v > 0.0:
                if side > 0:
                    m = 1.0 - v / fb
                    fa *= m if m > 0.0 else 0.5
                b, fb, gb = x, v, v
                side = 1
            else:
                if side < 0:
                    m = 1.0 - v / fa
                    fb *= m if m > 0.0 else 0.5
                a, fa, ga = x, v, v
                side = -1
        else:
            return
        # x is in the band: step off it on both sides by a few band widths
        # at the chord's slope, growing the step while it stays in the band
        slope = (gb - ga) / (b - a)
        if not slope > 0.0:
            return
        for sgn in (1.0, -1.0):
            step = max(4.0 * self.band / slope, 4.0 * math.ulp(x))
            for _ in range(3):
                y = x + sgn * step
                if not a < y < b or not self.neg < y < self.pos:
                    break
                if abs(self._eval(y)) > self.band:
                    break
                step *= 4.0


def bisect(f, lo: float, f_lo: float, hi: float, f_hi: float, xtol: float,
           bound: float | None = None) -> float:
    """The package's one bisection loop, for a sign change of f on [lo, hi]
    with f(lo) = f_lo <= 0 < f_hi = f(hi).  A midpoint where f > 0 becomes
    the upper end and any other midpoint (an exact zero too) the lower end.
    The loop stops at hi - lo <= xtol, at a step that leaves the bracket
    unchanged (f is deterministic, so every further step would repeat it),
    or after 200 steps, and returns the last bracket's midpoint.  Given a
    rounding-error ``bound`` B, the signs come from ``MonotoneSigns``, with
    the decisions, and so the bits, of evaluating f at every midpoint.
    """
    sign = f if bound is None else MonotoneSigns(f, bound, lo, f_lo, hi, f_hi, xtol)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sign(mid) > 0.0:
            if hi == mid:
                break
            hi = mid
        else:
            if lo == mid:
                break
            lo = mid
        if hi - lo <= xtol:
            break
    return float(0.5 * (lo + hi))
