"""Tests for the long-time fixed-point solver."""

import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from dmftsim import fixed_point
from dmftsim.dmft import MonteCarloSpec, fmean, init_dmft, run_dmft
from dmftsim.fixed_point import (
    ETA_RESIDUAL_TOL,
    FixedPointState,
    NoRootError,
    SolverConfig,
    _solve_eta_pool,
    fixed_point_residuals,
    iterate_fixed_point,
    pole_radius,
    solve_R_theta,
    warm_start_from_dmft,
)
from dmftsim.model import (
    LossModel,
    abs_link,
    gaussian_dist,
    linear_link,
    phase_preprocess,
    point_mass_dist,
    pseudo_huber_loss,
    rwf_loss,
    smoothstep_profile,
)
from dmftsim.spectral import QuadratureSpec, solve_lambda_star

RWF = rwf_loss(smoothstep_profile(9.0, 18.0))
R_RESIDUAL_TOL = 1e-10


def ridge_loss():
    # ell(a, b, c) = a - b: ridge regression residual on the noiseless
    # linear model; ell is unbounded, so the loss has no ell_bound.
    one = lambda a, b, c: np.ones_like(np.asarray(a, dtype=float))
    return LossModel(
        name="ridge",
        L=lambda a, b, c: 0.5 * (np.asarray(a, dtype=float) - b) ** 2,
        ell=lambda a, b, c: np.asarray(a, dtype=float) - b,
        d1ell=one,
        d2ell=lambda a, b, c: -one(a, b, c),
    )


# ---------------------------------------------------------------------------
# scalar root solvers
# ---------------------------------------------------------------------------

def test_solve_R_theta_quadratic_closed_form():
    # d1 == 1, lambda = 1, delta = 2: R^2 + 2R - 1 = 0, R = sqrt(2) - 1
    R = solve_R_theta(np.ones(16), delta=2.0, lambda_ridge=1.0)
    assert abs(R - (np.sqrt(2.0) - 1.0)) <= 1e-10


def test_solve_R_theta_large_ridge_bracket():
    R = solve_R_theta(np.ones(8), delta=2.0, lambda_ridge=100.0)
    assert 1.0 / 102.1 < R < 1.0 / 101.9


def test_solve_R_theta_residual_invariant():
    rng = np.random.default_rng(0)
    for lam, delta in [(0.0, 4.0), (0.5, 2.0), (2.0, 8.0)]:
        d1 = rng.uniform(0.1, 5.0, size=5000)
        R = solve_R_theta(d1, delta, lam)
        q = d1 * R
        g = lam * R + delta * np.mean(q / (1 + q)) - 1.0
        assert abs(g) <= 1e-10


def test_solve_R_theta_no_root_error():
    with pytest.raises(NoRootError, match="sample fraction"):
        solve_R_theta(-np.ones(10), delta=2.0, lambda_ridge=0.0)
    assert pole_radius(-2.0 * np.ones(3)) == 0.5
    assert pole_radius(np.ones(3)) == np.inf


def test_solve_R_theta_finds_interior_root_below_a_pole_under_one():
    # one sample with d1 = -2 puts the pole at R = 0.5; g tends to -inf
    # there, but crosses zero near R = 0.11 on the way up
    d1 = np.concatenate([np.ones(999), [-2.0]])
    delta = 10.0

    def g(R):
        return delta * np.mean(d1 * R / (1.0 + d1 * R)) - 1.0
    assert pole_radius(d1) == 0.5
    R = solve_R_theta(d1, delta, 0.0)
    assert R == pytest.approx(scipy.optimize.brentq(g, 0.0, 0.25, xtol=1e-15),
                              rel=1e-12)
    assert abs(g(R)) <= R_RESIDUAL_TOL


def test_solve_R_theta_searches_below_its_start():
    # 65 % of samples with d1 = 100 and 35 % with d1 = -1.5: the pole is at
    # R = 2/3 and the search starts at cap/2 ~ 1/3, where g < 0; g is
    # positive on a stretch below the start, around R = 0.1
    d1 = np.concatenate([np.full(650, 100.0), np.full(350, -1.5)])
    delta = 2.0

    def g(R):
        return delta * np.mean(d1 * R / (1.0 + d1 * R)) - 1.0
    cap = pole_radius(d1) * (1.0 - 1e-12)
    assert g(0.1) > 0 and g(0.5 * cap) < 0
    R = solve_R_theta(d1, delta, 0.0)
    assert R == pytest.approx(scipy.optimize.brentq(g, 0.0, 0.1, xtol=1e-15),
                              rel=1e-12)
    assert abs(g(R)) <= R_RESIDUAL_TOL


def solve_R_theta_200_steps(d1, delta, lambda_ridge):
    """solve_R_theta as it was before its bisection stopped at a fixed point:
    up to 200 steps with only the relative-width stop rule."""
    d1 = np.asarray(d1, dtype=float)

    def g(R):
        q = d1 * R
        return lambda_ridge * R + delta * float(np.mean(q / (1.0 + q))) - 1.0

    cap = min(1e6, pole_radius(d1) * (1.0 - 1e-12))
    hi = min(1.0, cap)
    while g(hi) <= 0.0:
        hi = min(2.0 * hi, cap)
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    R = 0.5 * (lo + hi)
    if abs(g(R)) > R_RESIDUAL_TOL:
        for _ in range(30):
            gl, gh = g(lo), g(hi)
            if gh == gl:
                break
            R = lo - gl * (hi - lo) / (gh - gl)
            if not (lo < R < hi):
                R = 0.5 * (lo + hi)
            if g(R) > 0:
                hi = R
            else:
                lo = R
        R = 0.5 * (lo + hi)
    return float(R)


class MeanCounter:
    """Stands in for numpy inside fixed_point and counts np.mean calls, one
    per residual evaluation of solve_R_theta."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def mean(self, *args, **kwargs):
        self.calls += 1
        return np.mean(*args, **kwargs)


@pytest.mark.parametrize("low, high, delta, lam, root_range", [
    (0.1, 5.0, 10.0, 0.1, (0.0, 0.5)),
    (0.2, 1.0, 2.0, 0.5, (0.5, 1.0)),
    (-0.05, 1.0, 2.0, 0.5, (0.5, 1.0)),   # d1 < 0: bracket capped below a pole
    (0.1, 1.0, 0.5, 0.2, (1.0, 8.0)),
])
def test_solve_R_theta_stops_at_its_fixed_point(monkeypatch, low, high, delta,
                                                lam, root_range):
    d1 = np.random.default_rng(7).uniform(low, high, size=20_000)
    expected = solve_R_theta_200_steps(d1, delta, lam)
    assert root_range[0] < expected < root_range[1]
    counter = MeanCounter()
    monkeypatch.setattr(fixed_point, "np", counter)
    R = solve_R_theta(d1, delta, lam)
    assert R.hex() == expected.hex()
    assert counter.calls <= 21


def solve_R_theta_full(d1, delta, lambda_ridge):
    """solve_R_theta with every bisection midpoint evaluated: today's
    bracket search and bisection loop without the certified signs.
    Returns the root and the number of evaluations of g."""
    d1 = np.asarray(d1, dtype=float)
    evals = [0]

    def g(R):
        evals[0] += 1
        q = d1 * R
        return lambda_ridge * R + delta * float(np.mean(q / (1.0 + q))) - 1.0

    cap = min(1e6, pole_radius(d1) * (1.0 - 1e-12))
    start = hi = min(1.0, 0.5 * cap)
    while g(hi) <= 0.0:
        if hi >= cap * (1.0 - 1e-12):
            hi = start
            for _ in range(60):
                hi *= 0.5
                if g(hi) > 0.0:
                    break
            else:
                raise NoRootError("no sign change")
            break
        hi = 2.0 * hi if 2.0 * hi < cap else hi + 0.5 * (cap - hi)
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            if hi == mid:
                break
            hi = mid
        else:
            if lo == mid:
                break
            lo = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return float(0.5 * (lo + hi)), evals[0]


def near_pole_pool(K):
    # d1 = 1 but for one sample whose pole lies 3 % above the root R = 0.5
    # of the others: the bracket's upper end creeps up to 1.6 % below it
    return np.concatenate([np.ones(K - 1), [-0.97 / 0.5]])


R_THETA_POOLS = {
    "d1 >= 0": (lambda rng: rng.uniform(0.1, 5.0, 100_000), 4.0, 0.5, True),
    "lambda = 0": (lambda rng: rng.uniform(0.1, 5.0, 100_000), 10.0, 0.0, True),
    "a few d1 < 0": (lambda rng: rng.uniform(-0.05, 1.0, 100_000), 2.0, 0.5, True),
    # g falls again before hi: g'(hi) < 0, so every midpoint is evaluated
    "d1 < 0, not certified": (
        lambda rng: rng.permutation(np.repeat([10.0, -1.0], [7000, 3000])),
        6.0, 0.0, False),
    "root near the pole cap": (lambda rng: near_pole_pool(100_000), 3.0, 0.0, True),
    # the upper end is halved down from the start (see the test above)
    "halving below the start": (
        lambda rng: np.repeat([100.0, -1.5], [650, 350]), 2.0, 0.0, True),
}


@pytest.mark.parametrize("case", list(R_THETA_POOLS))
def test_solve_R_theta_certified_signs_keep_every_bit(monkeypatch, case):
    make, delta, lam, certified = R_THETA_POOLS[case]
    d1 = make(np.random.default_rng(3))
    expected, full_evals = solve_R_theta_full(d1, delta, lam)
    counter = MeanCounter()
    monkeypatch.setattr(fixed_point, "np", counter)
    R = solve_R_theta(d1, delta, lam)
    assert R.hex() == expected.hex()
    if certified:
        # the bracket search's evaluations, the locating ones and those in
        # the band around the root
        assert counter.calls < full_evals
    else:
        assert counter.calls == full_evals


def test_g_error_bounds_the_rounding_of_g():
    # computed g against g in exact rational arithmetic on the pool, at
    # points across [0, hi]; d1 < 0 put the pole at R = 1.25
    d1 = np.random.default_rng(5).uniform(-0.8, 3.0, 500)
    delta, lam, hi = 3.0, 0.5, 0.6
    q, ratio = np.empty_like(d1), np.empty_like(d1)
    bound = fixed_point._g_error(d1, delta, lam, hi, 1.0 + d1.min() * hi,
                                 q, ratio)
    assert bound is not None
    worst = 0.0
    for R in np.linspace(0.0, hi, 13)[1:]:
        q = d1 * R
        computed = lam * R + delta * float(np.mean(q / (1.0 + q))) - 1.0
        terms = (Fraction(x) * Fraction(R) for x in d1)
        exact = (Fraction(lam) * Fraction(R) - 1 + Fraction(delta)
                 * sum(t / (1 + t) for t in terms) / d1.size)
        worst = max(worst, abs(Fraction(computed) - exact))
    assert 0 < worst <= bound


def solve_eta_one(R, w_inf, w_star, z, loss):
    """The eta root of one sample, from a one-element pool."""
    eta, _, _, _ = _solve_eta_pool(R, np.array([w_inf]), np.array([w_star]),
                                   np.array([z]), loss)
    return float(eta[0])


def test_solve_eta_trivial_cases():
    assert solve_eta_one(0.0, 3.7, 0.1, 0.2, RWF) == 3.7
    lin = ridge_loss()
    # ell = a with b = 0: eta + 0.5 eta = 3
    assert abs(solve_eta_one(0.5, 3.0, 0.0, 0.0, lin) - 2.0) <= 1e-12
    # RWF at the noiseless truth: ell(w*, w*, 0) = 0, so eta = w* is the root
    assert abs(solve_eta_one(0.2, 1.3, 1.3, 0.0, RWF) - 1.3) <= 1e-12


def test_solve_eta_without_ell_bound_refuses_the_fallback():
    # ell = -2a: at R = 1, F(eta) = -eta - w_inf has its one root at
    # -w_inf with F' = -1, unstable, so every sample needs the bracketed
    # fallback, and an unbounded loss gives it no bracket
    neg = lambda a, b, c: -2.0 * np.asarray(a, dtype=float)
    loss = LossModel(
        name="neg-ridge", L=lambda a, b, c: -np.asarray(a, dtype=float) ** 2,
        ell=neg, d1ell=lambda a, b, c: np.full_like(np.asarray(a, dtype=float), -2.0),
        d2ell=lambda a, b, c: np.zeros_like(np.asarray(a, dtype=float)))
    w_inf = np.linspace(-1.0, 1.0, 7)
    zeros = np.zeros(w_inf.size)
    with pytest.raises(NoRootError, match="'neg-ridge'.* 7 samples"):
        _solve_eta_pool(1.0, w_inf, zeros, zeros, loss)


def square_loss():
    """The square loss on the linear model, given by its five required
    fields alone: ell = eta - w* - z.  Returns it and its call counts."""
    calls = dict.fromkeys(("ell", "d1ell", "d2ell"), 0)

    def counted(name, fn):
        def call(a, b, c):
            calls[name] += 1
            return fn(np.asarray(a, dtype=float) - b - c)
        return call
    return LossModel(
        name="square",
        L=lambda a, b, c: 0.5 * (np.asarray(a, dtype=float) - b - c) ** 2,
        ell=counted("ell", lambda x: x),
        d1ell=counted("d1ell", np.ones_like),
        d2ell=counted("d2ell", lambda x: -np.ones_like(x)),
    ), calls


def test_a_loss_given_by_its_callables_alone_runs_every_solver():
    loss, calls = square_loss()
    assert loss.ell_bound is None and loss.pool_evaluator is None
    rng = np.random.default_rng(5)
    w_inf, w_star, z = rng.standard_normal((3, 1000))
    # the pool is solved through the evaluator's generic path, one Newton
    # step from w_inf: eta + R (eta - w* - z) = w_inf
    R = 0.7
    eta, ell, d1, d2 = _solve_eta_pool(R, w_inf, w_star, z, loss)
    assert min(calls["ell"], calls["d1ell"], calls["d2ell"]) > 0
    assert np.max(np.abs(eta - (w_inf + R * (w_star + z)) / (1.0 + R))) <= 1e-12
    assert np.array_equal(d1, np.ones(1000)) and np.array_equal(d2, -np.ones(1000))
    # d1ell = 1: R_theta is the positive root of lam R^2 + (lam + delta - 1) R - 1
    delta, lam = 2.0, 0.5
    b = lam + delta - 1.0
    R = solve_R_theta(np.ones(2000), delta, lam)
    assert abs(R - 2.0 / (b + np.sqrt(b * b + 4.0 * lam))) <= 1e-12
    link, noise, pre = linear_link(), gaussian_dist(0.3), phase_preprocess(2.0)
    sol = solve_lambda_star(pre, link, noise, delta,
                            QuadratureSpec(z_samples=2000, seed=1))
    st = init_dmft(loss, link, noise, pre, sol, delta, 0.2, lam,
                   MonteCarloSpec(K=2000, seed=3), independent_init=True)
    run_dmft(st, 3)
    assert st.t_eta == 3 and np.all(np.isfinite(st.C_eta))
    assert np.array_equal(st.e_d1, np.ones(4))


def sin_loss():
    # F(eta) = eta + R sin(eta) - w_inf: for R > 1 roots alternate between
    # stable (F' = 1 + R cos(eta) > 0) and unstable ones
    return LossModel(
        name="sin",
        L=lambda a, b, c: -np.cos(np.asarray(a, dtype=float)),
        ell=lambda a, b, c: np.sin(np.asarray(a, dtype=float)),
        d1ell=lambda a, b, c: np.cos(np.asarray(a, dtype=float)),
        d2ell=lambda a, b, c: np.zeros_like(np.asarray(a, dtype=float)),
        ell_bound=1.0,
    )


def test_solve_eta_multiroot_warning_picks_nearest():
    # Newton from eta = w_inf solves this sample, so no root is chosen among
    # several and the multi-root count stays silent
    w_inf = 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eta = solve_eta_one(5.0, w_inf, 0.0, 0.0, sin_loss())
    assert abs(eta + 5.0 * np.sin(eta) - w_inf) <= 1e-10
    assert abs(eta) < 0.2  # the nearest root, not the ones beyond pi


def test_solve_eta_keeps_nearest_stable_root():
    # from eta = w_inf = 3, Newton converges to the unstable root near 3.18;
    # the stable roots lie near 0.52 (the nearer) and 5.71
    R, w_inf = 5.0, np.array([3.0, 0.3])
    loss = sin_loss()
    with pytest.warns(RuntimeWarning, match="multiple crossings"):
        eta, _, d1, _ = _solve_eta_pool(R, w_inf, np.zeros(2), np.zeros(2), loss)
    assert np.all(np.abs(eta + R * np.sin(eta) - w_inf) <= 1e-10)
    assert np.all(1.0 + R * np.cos(eta) > 0.0)
    assert np.array_equal(d1, np.cos(eta))
    # the stable root nearest to w_inf, from a fine grid
    grid = np.linspace(-3.0, 9.0, 1_200_001)
    F = grid + R * np.sin(grid) - w_inf[0]
    up = np.where((F[:-1] < 0) & (F[1:] >= 0))[0]
    nearest = grid[up[np.argmin(np.abs(grid[up] - w_inf[0]))]]
    assert abs(eta[0] - nearest) <= 1e-5
    assert abs(eta[1]) < 0.2


def assert_values_at_roots(loss, eta, ell, d1, d2, w_star, z):
    for got, f in zip((ell, d1, d2), (loss.ell, loss.d1ell, loss.d2ell)):
        assert got.tobytes() == np.asarray(f(eta, w_star, z), dtype=float).tobytes()


def test_solve_eta_returns_the_loss_values_at_its_roots():
    rng = np.random.default_rng(5)
    K = 4000
    # RWF through its pool evaluator, with a^2 in the cutoff band for some
    w_star = 2.0 * rng.standard_normal(K)
    z = 0.3 * rng.standard_normal(K)
    w_inf = w_star + 0.5 * rng.standard_normal(K)
    with pytest.warns(RuntimeWarning, match="multiple crossings"):
        eta, ell, d1, d2 = _solve_eta_pool(0.05, w_inf, w_star, z, RWF)
    assert np.any((eta**2 > 9.0) & (eta**2 < 18.0))
    assert_values_at_roots(RWF, eta, ell, d1, d2, w_star, z)
    # sin_loss through the default evaluator; from w_inf = 3 Newton lands
    # on an unstable root, which the fallback replaces
    loss = sin_loss()
    w_inf = np.concatenate([[3.0], rng.uniform(-4.0, 4.0, 99)])
    zeros = np.zeros(w_inf.size)
    with pytest.warns(RuntimeWarning, match="multiple crossings"):
        eta, ell, d1, d2 = _solve_eta_pool(5.0, w_inf, zeros, zeros, loss)
    assert np.all(1.0 + 5.0 * d1 > 0.0)
    assert abs(eta[0] - 3.0) > 1.0
    assert_values_at_roots(loss, eta, ell, d1, d2, zeros, zeros)


def test_divergence_names_the_warm_start_field(monkeypatch):
    monkeypatch.setattr(fixed_point, "solve_R_theta", lambda d1, delta, lam: np.nan)
    with pytest.raises(FloatingPointError, match="fixedpoint.warm_start") as cold:
        iterate_fixed_point(RWF, gaussian_dist(0.3), 10.0, 0.0, SolverConfig(K=100))
    assert "set fixedpoint.warm_start = dmft" in str(cold.value)
    # a warm-started run is not told to warm-start
    init = (np.array([[1.0, 0.5], [0.5, 1.0]]), 0.5)
    with pytest.raises(FloatingPointError, match="fixedpoint.warm_start") as warm:
        iterate_fixed_point(RWF, gaussian_dist(0.3), 10.0, 0.0, SolverConfig(K=100),
                            init=init)
    assert "from the DMFT warm start" not in str(cold.value)
    assert "from the DMFT warm start" in str(warm.value)
    assert "set fixedpoint.warm_start" not in str(warm.value)


def newton_eta(R, w_inf, ev):
    """The solver's Newton loop over the whole pool, and ell, d1ell and
    d2ell at its last iterate."""
    eta = w_inf.copy()
    for _ in range(25):
        ell, d1, d2 = ev(eta, d2=True)
        f = eta + R * ell - w_inf
        todo = ~(np.abs(f) <= 0.1 * ETA_RESIDUAL_TOL)
        if not np.any(todo):
            break
        fp = 1.0 + R * d1
        safe = np.abs(fp) >= 1e-3
        np.copyto(eta, eta - f / np.where(safe, fp, 1.0), where=todo & safe)
    else:
        ell, d1, d2 = ev(eta, d2=True)
    return eta, ell, d1, d2


def two_fallback_solve_eta_pool(R, w_inf, w_star, z, loss):
    """Reference copy of the eta solver whose fallback ran twice: Newton
    over the whole pool, a bracketed fallback through ``loss.ell`` on the
    samples off the residual tolerance or the bracket, then another on the
    samples left unstable."""
    ev = loss.evaluator(w_star, z)
    eta, ell, d1, d2 = newton_eta(R, w_inf, ev)
    half = abs(R) * loss.ell_bound

    def bisect(m):
        w, b, c = w_inf[m], w_star[m], z[m]

        def F(e):
            return e + R * np.asarray(loss.ell(e, b, c), dtype=float) - w

        offsets = np.linspace(-1.0, 1.0, 65) * half
        neg = np.signbit(np.stack([F(w + off) for off in offsets], axis=1))
        upward = neg[:, :-1] & ~neg[:, 1:]
        dist = np.where(upward, np.abs(0.5 * (offsets[:-1] + offsets[1:])), np.inf)
        cell = np.argmin(dist, axis=1)
        has = np.isfinite(np.min(dist, axis=1))
        lo = w + np.where(has, offsets[cell], -half)
        hi = w + np.where(has, offsets[cell + 1], half)
        flo = F(lo)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = F(mid)
            same = np.signbit(fm) == np.signbit(flo)
            lo = np.where(same, mid, lo)
            flo = np.where(same, fm, flo)
            hi = np.where(same, hi, mid)
        return 0.5 * (lo + hi)

    def fall_back(moved):
        if moved.size:
            eta[moved] = bisect(moved)
            ell[moved], d1[moved], d2[moved] = ev(eta[moved], moved, d2=True)

    off = np.abs(eta + R * ell - w_inf) > ETA_RESIDUAL_TOL
    off |= np.abs(eta - w_inf) > half * (1 + 1e-9)
    fall_back(np.flatnonzero(off))
    fall_back(np.flatnonzero(1.0 + R * d1 <= 0.0))
    return eta, ell, d1, d2


def test_one_fallback_call_keeps_the_bits_of_two():
    # sin loss at R = 5: Newton solves most of uniform(-4, 4), lands on the
    # unstable root near 3.18 from w_inf = 3, and from w_inf near 1.77
    # (where 1 + 5 cos(w_inf) is near 0) jumps far and ends off the bracket
    R, loss = 5.0, sin_loss()
    rng = np.random.default_rng(3)
    w_inf = np.concatenate([rng.uniform(-4.0, 4.0, 300), [3.0],
                            rng.uniform(1.70, 1.85, 60)])
    zeros = np.zeros(w_inf.size)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = _solve_eta_pool(R, w_inf, zeros, zeros, loss)
    want = two_fallback_solve_eta_pool(R, w_inf, zeros, zeros, loss)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    # the pool holds every kind of sample named above
    eta, ell, d1, _ = newton_eta(R, w_inf, loss.evaluator(zeros, zeros))
    solved = np.abs(eta + R * ell - w_inf) <= ETA_RESIDUAL_TOL
    off_bracket = np.abs(eta - w_inf) > R
    unstable = 1.0 + R * d1 <= 0.0
    assert np.sum(solved & ~unstable) >= 100
    assert solved[300] and unstable[300]
    assert np.sum(off_bracket) >= 10


def test_fixed_point_evaluates_the_loss_only_through_its_pool_evaluator():
    def refuse(a, b, c):
        raise AssertionError("a loss callable was called")

    rwf = dataclasses.replace(RWF, ell=refuse, d1ell=refuse, d2ell=refuse)
    # RWF at R = 0.05 leaves samples unstable, so the fallback runs too
    rng = np.random.default_rng(5)
    w_star = 2.0 * rng.standard_normal(4000)
    z = 0.3 * rng.standard_normal(4000)
    w_inf = w_star + 0.5 * rng.standard_normal(4000)
    with pytest.warns(RuntimeWarning, match="multiple crossings"):
        _solve_eta_pool(0.05, w_inf, w_star, z, rwf)
    cfg = SolverConfig(K=2000, tol=1e-6, max_outer=20, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fp = iterate_fixed_point(rwf, gaussian_dist(0.3), 10.0, 0.0, cfg)
    assert fp.iterations >= 1
    residuals = fixed_point_residuals(fp, rwf, 10.0, 0.0)
    assert all(np.isfinite(v) for v in residuals.values())


def test_noisy_phase_retrieval_converges_near_the_dmft_tail():
    """Noisy RWF phase retrieval (sigma = 0.3, delta = 10), warm-started from
    a DMFT tail at m = 30.  Some d1ell < 0 puts the R_theta pole below 1, and
    without stable eta roots a few samples put it below the root; the
    solver then projected on every outer step and wandered to C11 ~ 0.5."""
    delta, noise = 10.0, gaussian_dist(0.3)
    link, pre = abs_link(), phase_preprocess(3.0)
    rwf = rwf_loss(smoothstep_profile(9.0, 18.0))
    sol = solve_lambda_star(pre, link, noise, delta, QuadratureSpec(z_samples=5000))
    dm = init_dmft(rwf, link, noise, pre, sol, delta, 0.01, 0.0,
                   MonteCarloSpec(K=20000, seed=11))
    run_dmft(dm, 30)
    t = dm.t_theta
    tail = (dm.C_theta[t, t], dm.c_theta_star[t], float(np.sum(dm.R_theta[t, :t])))
    cfg = SolverConfig(K=20000, damping=0.5, tol=1e-10, max_outer=200, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fp = iterate_fixed_point(rwf, noise, delta, 0.0, cfg,
                                 init=warm_start_from_dmft(dm))
    assert fp.converged
    assert abs(fp.C_theta_inf[0, 0] - tail[0]) <= 0.01
    assert abs(fp.C_theta_inf[0, 1] - tail[1]) <= 0.01
    assert abs(fp.R_theta_inf - tail[2]) <= 0.002


def test_names_read_and_patched_by_the_benchmark_tracer(monkeypatch):
    # bench/tracer.py times the eta-pool solve and the R_theta root by
    # wrapping the module globals iterate_fixed_point calls: one call each
    # per outer step
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped
    for name in ("_solve_eta_pool", "solve_R_theta"):
        monkeypatch.setattr(fixed_point, name,
                            counting(name, getattr(fixed_point, name)))
    cfg = SolverConfig(K=5000, damping=0.5, tol=1e-8, max_outer=40, seed=2)
    st = fixed_point.iterate_fixed_point(RWF, point_mass_dist(0.0), 10.0, 0.0,
                                         cfg, init=pr_warm_init())
    assert st.iterations > 2
    assert calls == {"_solve_eta_pool": st.iterations,
                     "solve_R_theta": st.iterations}


def test_unconverged_iteration_states_its_reason():
    cfg = SolverConfig(K=2000, damping=0.5, tol=1e-8, max_outer=2, seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        st = iterate_fixed_point(RWF, point_mass_dist(0.0), 10.0, 0.0, cfg,
                                 init=pr_warm_init())
    assert not st.converged
    assert st.reason == ("fixed-point iteration did not converge in 2 outer "
                         "steps; last parameter change "
                         f"{st.residual_trace[-1]:.3e}")
    assert st.reason in [str(w.message) for w in caught]


def test_eta_pool_is_evaluated_once_per_newton_iterate(monkeypatch):
    # every pool evaluation carries d2ell, and the one at which Newton stops
    # is at the returned roots, so no evaluation repeats the one before it.
    # Newton runs on the whole pool (idx None); the fallbacks' index arrays
    # are skipped.
    calls = []
    evaluator = LossModel.evaluator

    def recording(self, b, c):
        ev = evaluator(self, b, c)

        def rec(a, idx=None, d2=False):
            if idx is None:
                calls.append((np.array(a, copy=True), d2))
            return ev(a, idx, d2=d2)
        return rec
    monkeypatch.setattr(LossModel, "evaluator", recording)
    runs = [
        (RWF, point_mass_dist(0.0), 10.0, 0.0, pr_warm_init()),
        (pseudo_huber_loss(1.0), gaussian_dist(0.3),
         2.0, 0.5, None),
    ]
    for loss, noise, delta, lam, init in runs:
        calls.clear()
        cfg = SolverConfig(K=5000, damping=0.5, tol=1e-8, max_outer=40, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            st = iterate_fixed_point(loss, noise, delta, lam, cfg, init=init)
        assert st.iterations > 2
        assert calls and all(a.shape == (5000,) for a, _ in calls)   # one pool
        assert all(d2 for _, d2 in calls)
        assert not any(np.array_equal(a, b)
                       for (a, _), (b, _) in zip(calls, calls[1:]))
        # Newton stops after at least one step on every outer step
        assert 2 * st.iterations <= len(calls) < 25 * st.iterations


# ---------------------------------------------------------------------------
# ridge regression: closed form + high-dimensional simulation oracle
# ---------------------------------------------------------------------------

def ridge_closed_form(lam, delta):
    R = (-(lam + delta - 1) + np.sqrt((lam + delta - 1) ** 2 + 4 * lam)) / (2 * lam)
    q = R * delta / (1 + R)
    beta = R**2 * delta / (1 + R) ** 2
    c11 = (q**2 + beta * (1 - 2 * q)) / (1 - beta)
    c_eta = delta * (c11 - 2 * q + 1) / (1 + R) ** 2
    return {"R": R, "c12": q, "c11": c11, "C_eta": c_eta,
            "R_eta": 1 / R - lam - delta, "R_eta_star": -delta / (1 + R)}


def test_ridge_fixed_point_matches_closed_form():
    lam, delta = 0.5, 2.0
    ref = ridge_closed_form(lam, delta)
    cfg = SolverConfig(K=200000, damping=0.7, tol=1e-12, max_outer=300, seed=3)
    st = iterate_fixed_point(ridge_loss(), point_mass_dist(0.0),
                             delta, lam, cfg)
    assert st.converged
    tol = 4.0 / np.sqrt(cfg.K)
    assert abs(st.R_theta_inf - ref["R"]) <= tol
    assert abs(st.C_theta_inf[0, 1] - ref["c12"]) <= tol
    assert abs(st.C_theta_inf[0, 0] - ref["c11"]) <= tol
    assert abs(st.C_eta_inf - ref["C_eta"]) <= 4 * tol
    assert abs(st.R_eta_inf - ref["R_eta"]) <= 4 * tol
    assert abs(st.R_eta_star - ref["R_eta_star"]) <= 4 * tol


def test_ridge_fixed_point_matches_simulation():
    lam, delta, d = 0.5, 2.0, 1500
    n = int(delta * d)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((n, d)) / np.sqrt(d)
    theta_star = rng.standard_normal(d)
    theta_star *= np.sqrt(d) / np.linalg.norm(theta_star)
    G = X.T @ X
    G[np.diag_indices_from(G)] += lam
    theta_hat = np.linalg.solve(G, X.T @ (X @ theta_star))
    overlap_sim = theta_hat @ theta_star / d
    ref = ridge_closed_form(lam, delta)
    assert abs(overlap_sim - ref["c12"]) <= 0.02


# ---------------------------------------------------------------------------
# phase retrieval branch
# ---------------------------------------------------------------------------

def pr_warm_init(c12=0.998, R=0.03):
    return np.array([[1.0, c12], [c12, 1.0]]), R


def test_pr_fixed_point_converges_to_truth_branch():
    cfg = SolverConfig(K=30000, damping=0.5, tol=1e-10, max_outer=150, seed=0)
    st = iterate_fixed_point(RWF, point_mass_dist(0.0), 10.0,
                             0.0, cfg, init=pr_warm_init())
    assert st.converged
    lim = 2.0 / np.sqrt(cfg.K)
    assert abs(st.C_theta_inf[0, 0] - 1.0) <= lim
    assert abs(st.C_theta_inf[0, 1] - 1.0) <= lim
    assert st.C_eta_inf <= lim
    # on-pool identities of the displayed response formulas
    d1 = RWF.d1ell(st.eta_inf, st.w_star, st.z)
    assert abs(st.R_eta_inf - (1.0 / st.R_theta_inf - 10.0 * np.mean(d1))) <= 5 / np.sqrt(cfg.K)
    assert abs(st.R_eta_star - (-10.0 * np.mean(d1) - st.R_eta_inf)) <= 5 / np.sqrt(cfg.K)
    assert abs(st.R_eta_star + 1.0 / st.R_theta_inf) <= 5 / np.sqrt(cfg.K)


def test_pr_reference_state_residuals():
    # undamped iteration is marginally unstable at the degenerate point;
    # the damped map holds it exactly
    cfg = SolverConfig(K=40000, damping=0.5, tol=1e-10, max_outer=80, seed=1)
    st = iterate_fixed_point(RWF, point_mass_dist(0.0), 10.0,
                             0.0, cfg,
                             init=pr_warm_init(c12=1.0, R=0.033))
    assert st.converged
    res = fixed_point_residuals(st, RWF, 10.0, 0.0)
    lim = 5.0 / np.sqrt(cfg.K)
    for name, value in res.items():
        assert value <= lim, (name, value)


def test_residual_sensitivity_to_R_perturbation():
    cfg = SolverConfig(K=20000, damping=1.0, tol=1e-9, max_outer=60, seed=1)
    st = iterate_fixed_point(RWF, point_mass_dist(0.0), 10.0,
                             0.0, cfg, init=pr_warm_init(c12=1.0, R=0.033))
    st.R_theta_inf += 0.1
    res = fixed_point_residuals(st, RWF, 10.0, 0.0)
    assert res["fix5_R_theta_inverse"] >= 0.01


def test_residual_noise_floor_halves_with_4K():
    # plug quadrature-exact values into fresh finite pools: the residual of
    # the R_eta_star equation is pure MC noise and scales like 1/sqrt(K).
    # dense midpoint quadrature (the integrand has cutoff kinks that defeat
    # Gauss-Hermite at the accuracy needed here)
    w = np.linspace(1e-7, 8.0, 400001)
    pdf = np.exp(-0.5 * w * w) / np.sqrt(2 * np.pi)
    wt = 2.0 * pdf * (w[1] - w[0])
    d1q = RWF.d1ell(w, w, np.zeros_like(w))

    def solve_quad_R(delta):
        lo, hi = 1e-6, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            val = delta * np.sum(wt * d1q * mid / (1 + d1q * mid)) - 1.0
            lo, hi = (lo, mid) if val > 0 else (mid, hi)
        return 0.5 * (lo + hi)

    delta = 10.0
    Rq = solve_quad_R(delta)
    Gq = float(np.sum(wt * d1q))
    Rsq = float(delta * np.sum(wt * (-d1q) / (1 + d1q * Rq)))

    def fix7_noise(K, seed):
        rng = np.random.default_rng(seed)
        ws = rng.standard_normal(K)
        z = np.zeros(K)
        ts = rng.standard_normal(K)
        ts /= np.sqrt(fmean(ts**2))
        st = FixedPointState(
            R_theta_inf=Rq, R_eta_inf=1 / Rq - delta * Gq, R_eta_star=Rsq,
            Gamma_inf=Gq, C_eta_inf=0.0,
            C_theta_inf=np.array([[1.0, 1.0], [1.0, 1.0]]),
            eta_inf=ws, w_inf=ws, w_star=ws, z=z, theta_inf=ts,
            theta_star=ts, u_inf=np.zeros(K))
        return fixed_point_residuals(st, RWF, delta, 0.0)["fix7_R_eta_star"]

    small = np.mean([fix7_noise(4000, s) ** 2 for s in range(32)])
    big = np.mean([fix7_noise(16000, s + 100) ** 2 for s in range(32)])
    assert 1.4 <= np.sqrt(small / big) <= 2.9


def test_single_pass_loop_control():
    cfg = SolverConfig(K=5000, damping=1.0, tol=1e9, max_outer=50, seed=0)
    st = iterate_fixed_point(ridge_loss(), point_mass_dist(0.0),
                             2.0, 0.5, cfg)
    assert st.iterations == 2  # change is measured from the second pass on
    for v in (st.R_theta_inf, st.R_eta_inf, st.R_eta_star, st.C_eta_inf):
        assert np.isfinite(v)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(K=10, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(K=10, damping=1.5)
