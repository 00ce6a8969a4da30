"""Tests for the bisection loop and its certified signs."""

import math

import numpy as np
import pytest

from dmftsim import roots
from dmftsim.roots import MonotoneSigns, sum_error


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, 1000, 8192 * 3 + 5, 100_000])
def test_sum_error_bounds_numpy_sums(n):
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n) * np.exp(rng.uniform(-20, 20, n)),
              rng.uniform(0.0, 1.0, n),
              np.full(n, 0.1)):
        err = abs(float(np.sum(x)) - math.fsum(x))
        assert err <= sum_error(n) * math.fsum(np.abs(x))


def bisect(sign, lo, hi):
    """Bisection with the stall rule of roots.bisect and no width rule;
    returns the final bracket and the side taken at each step."""
    sides = []
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = sign(mid) > 0.0
        sides.append(up)
        if up:
            if hi == mid:
                break
            hi = mid
        else:
            if lo == mid:
                break
            lo = mid
    return lo, hi, sides


def noisy(exact, bound):
    """exact(x) plus a deterministic error of at most bound, changing sign
    from one float to the next; returns it and its evaluation counter."""
    calls = [0]

    def f(x):
        calls[0] += 1
        return exact(x) + bound * math.sin(x * 1e15)
    return f, calls


@pytest.mark.parametrize("exact, bound", [
    (lambda x: x - 0.3, 1e-14),
    (lambda x: math.floor(x * 1e13) * 1e-13 - 0.3, 1e-14),  # flat steps
    (lambda x: math.expm1(4.0 * x) - 2.0, 1e-13),
    (lambda x: x - 0.3, 0.0),
])
def test_certified_signs_take_every_decision_of_full_evaluation(exact, bound):
    f, calls = noisy(exact, bound)
    lo, hi = 0.0, 1.0
    full = bisect(f, lo, hi)
    n_full = calls[0]
    calls[0] = 0
    signs = MonotoneSigns(f, bound, lo, f(lo), hi, f(hi))
    assert signs(hi) == 1.0 and signs(lo) == -1.0
    assert bisect(signs, lo, hi) == full
    assert calls[0] < n_full / 2


def test_undecided_points_are_evaluated_and_kept():
    f, calls = noisy(lambda x: x - 0.5, 1e-3)
    # regula falsi lands on 0.5, in the band |f| <= 2e-3; the steps off it
    # decide everything outside a few band widths around it
    signs = MonotoneSigns(f, 1e-3, 0.0, f(0.0), 1.0, f(1.0))
    assert 0.48 < signs.neg < 0.497 and 0.503 < signs.pos < 0.52
    calls[0] = 0
    assert signs(signs.pos) == 1.0 and signs(signs.neg) == -1.0
    assert calls[0] == 0
    assert signs(0.5) == f(0.5) and calls[0] == 2     # in the band
    assert signs(0.496) < -2e-3 and calls[0] == 3     # decides below it
    assert signs(0.4955) == -1.0 and calls[0] == 3


def test_bisect_takes_an_exact_zero_as_the_lower_end():
    f, _ = noisy(lambda x: x - 0.25, 0.0)
    # f(0.5) > 0, then f(0.25) == 0 exactly: the bracket moves up to 0.25
    root = roots.bisect(f, 0.0, f(0.0), 1.0, f(1.0), 1e-10)
    assert 0.25 < root <= 0.25 + 1e-10
    # so does an exact zero at the lower end
    root = roots.bisect(f, 0.25, 0.0, 1.0, f(1.0), 1e-10)
    assert 0.25 < root <= 0.25 + 1e-10


@pytest.mark.parametrize("lo, hi, value", [
    (1.0, math.nextafter(1.0, 2.0), -1.0),      # the midpoint rounds to lo
    (math.nextafter(1.0, 0.0), 1.0, 1.0),       # the midpoint rounds to hi
])
def test_bisect_stops_on_a_bracket_of_adjacent_doubles(lo, hi, value):
    calls = []

    def f(x):
        calls.append(x)
        return value
    root = roots.bisect(f, lo, -1.0, hi, 1.0, 0.0)
    assert calls == [root] and root in (lo, hi)


@pytest.mark.parametrize("exact, bound", [
    (lambda x: x - 0.3, 1e-14),
    (lambda x: math.expm1(4.0 * x) - 2.0, 1e-13),
])
@pytest.mark.parametrize("xtol", [1e-10, 1e-16])
def test_bisect_under_a_bound_returns_the_bits_of_full_evaluation(exact, bound, xtol):
    f, calls = noisy(exact, bound)
    lo, hi = 0.0, 1.0
    f_lo, f_hi = f(lo), f(hi)
    calls[0] = 0
    full = roots.bisect(f, lo, f_lo, hi, f_hi, xtol)
    n_full = calls[0]
    calls[0] = 0
    certified = roots.bisect(f, lo, f_lo, hi, f_hi, xtol, bound)
    assert certified.hex() == full.hex()
    assert calls[0] < n_full


def recorded(f):
    """f, and the list of its (x, f(x)) in call order."""
    seen = []

    def g(x):
        seen.append((x, f(x)))
        return seen[-1][1]
    return g, seen


def assert_decisions_of_full_evaluation(signs, f, lo, hi, xtol, bound):
    """The certified signs take every side, and roots.bisect returns the
    bits, of evaluating f at every midpoint."""
    assert bisect(signs, lo, hi) == bisect(f, lo, hi)
    f_lo, f_hi = f(lo), f(hi)
    full = roots.bisect(f, lo, f_lo, hi, f_hi, xtol)
    assert roots.bisect(f, lo, f_lo, hi, f_hi, xtol, bound).hex() == full.hex()


def test_locator_stops_once_the_decided_points_are_width_apart():
    # regula falsi on the convex f, kept moving at both ends by the Illinois
    # rule, brings the decided points within the width before an iterate
    # falls in the band
    bound, width = 1e-13, 0.05
    f, _ = noisy(lambda x: math.expm1(4.0 * x) - 2.0, bound)
    g, seen = recorded(f)
    signs = MonotoneSigns(g, bound, 0.0, f(0.0), 1.0, f(1.0), width)
    assert all(abs(v) > 2.0 * bound for _, v in seen)
    assert 0 < len(seen) < roots.LOCATE_STEPS
    assert signs.pos - signs.neg <= width
    assert_decisions_of_full_evaluation(signs, f, 0.0, 1.0, width, bound)


def test_locator_takes_the_midpoint_when_the_chord_rounds_onto_an_end():
    # f(lo) = -1e-20 is below an ulp of f(hi): every chord rounds onto lo,
    # so each of the LOCATE_STEPS steps halves the bracket, and the last
    # one leaves the locator without an iterate in the band
    bound = 1e-22
    f, _ = noisy(lambda x: x - 1e-20, bound)
    f_lo, f_hi = f(0.0), f(1.0)
    assert 1.0 - f_hi * (1.0 - 0.0) / (f_hi - f_lo) == 0.0
    g, seen = recorded(f)
    signs = MonotoneSigns(g, bound, 0.0, f_lo, 1.0, f_hi)
    assert [x for x, _ in seen] == [2.0 ** -k for k in range(1, roots.LOCATE_STEPS + 1)]
    assert all(v > 2.0 * bound for _, v in seen)
    assert_decisions_of_full_evaluation(signs, f, 0.0, 1.0, 0.0, bound)


def test_locator_does_not_step_off_a_band_iterate_at_a_nan_slope():
    # f is nan at the first chord point only: that end's value makes the
    # chord slope nan, so the locator keeps the band iterate it reached
    # and evaluates no step off it
    bound = 0.05
    f, _ = noisy(lambda x: x - 0.3, bound)
    calls = [0]

    def nan_once(x):
        calls[0] += 1
        return math.nan if calls[0] == 1 else f(x)
    g, seen = recorded(nan_once)
    signs = MonotoneSigns(g, bound, 0.0, f(0.0), 1.0, f(1.0))
    assert math.isnan(seen[0][1])
    assert [abs(v) <= 2.0 * bound for _, v in seen[1:]] == [False] * (len(seen) - 2) + [True]
    x_band = seen[-1][0]
    assert signs.neg < x_band < signs.pos
    assert_decisions_of_full_evaluation(signs, f, 0.0, 1.0, 0.0, bound)
