"""Tests for model primitives: losses, truncation, pre-processing, instances."""

import numpy as np
import pytest

from dmftsim.model import (
    abs_link,
    gaussian_dist,
    linear_link,
    make_instance,
    phase_preprocess,
    point_mass_dist,
    pseudo_huber_loss,
    rwf_loss,
    smoothstep_profile,
)


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Truncation profile
# ---------------------------------------------------------------------------

def test_smoothstep_boundary_values():
    p = smoothstep_profile(4.0, 9.0)
    assert p.h(np.array(4.0)) == 1.0
    assert p.h(np.array(9.0)) == 0.0
    assert p.h(np.array(0.0)) == 1.0
    assert p.h(np.array(100.0)) == 0.0
    assert p.h1(np.array(4.0)) == 0.0
    assert p.h1(np.array(9.0)) == 0.0


def test_smoothstep_midpoint():
    p = smoothstep_profile(4.0, 9.0)
    assert abs(p.h(np.array(6.5)) - 0.5) < 1e-14


def test_smoothstep_derivatives_match_finite_differences():
    p = smoothstep_profile(2.0, 7.0)
    mid = 4.5
    fd1 = central_diff(lambda u: p.h(np.array(u)), mid, h=1e-6)
    assert abs(p.h1(np.array(mid)) - fd1) <= 1e-8
    for u in np.linspace(2.05, 6.95, 23):
        fd1 = central_diff(lambda v: p.h(np.array(v)), u, h=1e-6)
        fd2 = central_diff(lambda v: p.h1(np.array(v)), u, h=1e-6)
        assert abs(p.h1(np.array(u)) - fd1) <= 1e-7
        assert abs(p.h2(np.array(u)) - fd2) <= 1e-6


def test_smoothstep_monotone_nonincreasing():
    p = smoothstep_profile(1.0, 3.0)
    u = np.linspace(1.0, 3.0, 400)
    hv = p.h(u)
    assert np.all(np.diff(hv) <= 1e-15)
    assert np.all(p.h1(u) <= 0.0)
    assert np.all((hv >= 0.0) & (hv <= 1.0))


def test_smoothstep_rejects_bad_cuts():
    with pytest.raises(ValueError):
        smoothstep_profile(5.0, 5.0)
    with pytest.raises(ValueError):
        smoothstep_profile(-1.0, 2.0)


def test_smoothstep_declared_sups_hold():
    # sup|s'| = 30/16 at x = 1/2; sup|s''| = 10 sqrt(3)/3 at x = 1/2 +- sqrt(3)/6
    p = smoothstep_profile(3.0, 8.0)
    u = np.linspace(3.0, 8.0, 20001)
    assert np.max(np.abs(p.h1(u))) <= 1.875 / 5.0 * (1 + 1e-12)
    assert np.max(np.abs(p.h2(u))) <= 10.0 * np.sqrt(3.0) / 3.0 / 25.0 * (1 + 1e-12)


def full_grid_cutoff(L_cut, U_cut):
    """h, h1 and h2 evaluated on every input, as they were before the
    polynomial was restricted to the band L_cut < u < U_cut."""
    width = U_cut - L_cut

    def _x(u):
        return np.clip((np.asarray(u, dtype=float) - L_cut) / width, 0.0, 1.0)

    def h(u):
        x = _x(u)
        return 1.0 - x * x * x * (10.0 + x * (-15.0 + 6.0 * x))

    def h1(u):
        u = np.asarray(u, dtype=float)
        x = _x(u)
        inside = (u > L_cut) & (u < U_cut)
        return np.where(inside, -30.0 * x * x * (x - 1.0) ** 2 / width, 0.0)

    def h2(u):
        u = np.asarray(u, dtype=float)
        x = _x(u)
        inside = (u > L_cut) & (u < U_cut)
        return np.where(inside, -60.0 * x * (2.0 * x - 1.0) * (x - 1.0) / width**2, 0.0)
    return h, h1, h2


@pytest.mark.parametrize("L_cut, U_cut", [(9.0, 18.0), (0.3, 0.7)])
def test_band_cutoff_equals_full_grid_formulas_bitwise(L_cut, U_cut):
    p = smoothstep_profile(L_cut, U_cut)
    edges = [np.nextafter(v, d) for v in (L_cut, U_cut) for d in (-np.inf, np.inf)]
    special = [L_cut, U_cut, *edges, 0.0, -0.0, -1.0, -1e300, 1e300,
               np.inf, -np.inf, np.nan]
    u = np.concatenate([special, np.linspace(-1.0, 1.5 * U_cut, 2001),
                        np.random.default_rng(4).uniform(L_cut, U_cut, 501)])
    inputs = [u, u.reshape(-1, 2), u.reshape(2, -1).T,   # 2-D, also strided
              *[np.array(v) for v in special + [0.5 * (L_cut + U_cut)]]]
    for new, ref in zip((p.h, p.h1, p.h2), full_grid_cutoff(L_cut, U_cut)):
        for v in inputs:
            got, want = np.asarray(new(v)), np.asarray(ref(v))
            assert got.shape == want.shape == v.shape
            assert got.tobytes() == want.tobytes(), (new.__name__, v)


# ---------------------------------------------------------------------------
# Fused pool evaluator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loss", [rwf_loss(smoothstep_profile(9.0, 18.0)),
                                  pseudo_huber_loss(0.7)],
                         ids=["rwf", "pseudo-huber"])
def test_pool_evaluator_equals_the_callables_bitwise(loss):
    # a spans the cutoff band a^2 in (9, 18) and both sides of it
    rng = np.random.default_rng(21)
    K = 20000
    b = 2.0 * rng.standard_normal(K)
    c = 0.3 * rng.standard_normal(K)
    a = np.concatenate([3.5 * rng.standard_normal(K - 6),
                        [0.0, 3.0, -3.0, np.sqrt(18.0), 5.0, -6.0]])
    ev = loss.evaluator(b, c)
    idx = np.sort(rng.choice(K, size=777, replace=False))
    for at, bb, cc, sub in ((a, b, c, None), (a[idx], b[idx], c[idx], idx)):
        want = [np.asarray(f(at, bb, cc), dtype=float)
                for f in (loss.ell, loss.d1ell, loss.d2ell)]
        ell, d1, d2 = ev(at, sub, d2=True)
        for got, ref in zip((ell, d1, d2), want):
            assert got.tobytes() == ref.tobytes()
        ell, d1, none = ev(at, sub)
        assert none is None
        assert ell.tobytes() == want[0].tobytes()
        assert d1.tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# RWF loss
# ---------------------------------------------------------------------------

def test_rwf_untruncated_point_value():
    # a=1, b=0, c=0 with L_cut >= 4: h == 1 and h' == 0 there, so ell = 2.
    loss = rwf_loss(smoothstep_profile(4.0, 9.0))
    assert abs(loss.ell(1.0, 0.0, 0.0) - 2.0) < 1e-14


def test_rwf_zero_at_origin():
    loss = rwf_loss(smoothstep_profile(4.0, 9.0))
    for b, c in [(0.3, 0.0), (1.5, 0.2), (-2.0, 0.1)]:
        assert loss.ell(0.0, b, c) == 0.0


def test_rwf_d1ell_matches_finite_difference_at_example_point():
    loss = rwf_loss(smoothstep_profile(5.0, 10.0))
    a, b, c = 0.7, 0.5, 0.0
    fd = central_diff(lambda t: loss.ell(t, b, c), a, h=1e-6)
    ref = loss.d1ell(a, b, c)
    assert abs(ref - fd) <= 1e-6 * max(1.0, abs(ref))


@pytest.mark.parametrize("loss_name", ["rwf", "pseudo_huber"])
def test_loss_finite_difference_consistency(loss_name):
    # ell = dL/da, d1ell = d ell/da, d2ell = d ell/db at 100 random points.
    if loss_name == "rwf":
        loss = rwf_loss(smoothstep_profile(4.0, 8.0))
    else:
        loss = pseudo_huber_loss()
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.5, 2.5, size=(100, 3))
    h = 1e-5
    for a, b, c in pts:
        if loss_name == "rwf" and abs(abs(b) + c) < 0.05:
            continue  # |b| kink of the link sits under the FD stencil
        fd_ell = (loss.L(a + h, b, c) - loss.L(a - h, b, c)) / (2 * h)
        fd_d1 = (loss.ell(a + h, b, c) - loss.ell(a - h, b, c)) / (2 * h)
        fd_d2 = (loss.ell(a, b + h, c) - loss.ell(a, b - h, c)) / (2 * h)
        assert abs(loss.ell(a, b, c) - fd_ell) <= 1e-5 * max(1.0, abs(fd_ell))
        assert abs(loss.d1ell(a, b, c) - fd_d1) <= 1e-5 * max(1.0, abs(fd_d1))
        assert abs(loss.d2ell(a, b, c) - fd_d2) <= 1e-5 * max(1.0, abs(fd_d2))


def test_rwf_derivative_bounds_declared():
    loss = rwf_loss(smoothstep_profile(4.0, 8.0))
    rng = np.random.default_rng(3)
    a = rng.uniform(-4, 4, 2000)
    b = rng.uniform(-4, 4, 2000)
    c = np.zeros(2000)
    assert np.max(np.abs(loss.ell(a, b, c))) <= loss.ell_bound
    # the shipped profile's bound, from the grid of ell alone
    assert rwf_loss(smoothstep_profile(9.0, 18.0)).ell_bound.hex() == "0x1.f6af724004dbbp+6"


# ---------------------------------------------------------------------------
# Pre-processing
# ---------------------------------------------------------------------------

def test_phase_preprocess_clip_boundary():
    pre = phase_preprocess(3.0)
    assert pre.Ts(np.array(0.0)) == 0.0
    assert pre.Ts(np.array(3.0)) == 9.0
    assert pre.tau == 9.0


def test_phase_preprocess_saturated_region():
    pre = phase_preprocess(3.0)
    assert pre.Ts(np.array(6.0)) == 9.0
    assert pre.Ts1(np.array(6.0)) == 0.0


def test_phase_preprocess_unclipped_derivative():
    pre = phase_preprocess(3.0)
    assert pre.Ts1(np.array(1.5)) == 3.0


def test_phase_preprocess_range_and_lipschitz():
    pre = phase_preprocess(2.0)
    y = np.linspace(-6, 6, 1001)
    v = pre.Ts(y)
    assert np.all((v >= 0) & (v <= pre.tau))
    slopes = np.abs(np.diff(v) / np.diff(y))
    assert np.max(slopes) <= 2.0 * 2.0 + 1e-9    # Lipschitz constant 2 M_clip


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

def test_make_instance_identity_link_no_noise():
    inst = make_instance(4, 2, seed=0, link=linear_link(),
                         noise=point_mass_dist(0.0), signal=gaussian_dist())
    assert np.array_equal(inst.y, inst.X @ inst.theta_star)


def test_make_instance_deterministic():
    kw = dict(n=17, d=5, seed=123, link=abs_link(),
              noise=gaussian_dist(0.3), signal=gaussian_dist())
    a = make_instance(**kw)
    b = make_instance(**kw)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.theta_star, b.theta_star)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.y, b.y)


def test_make_instance_signal_norm_exact():
    inst = make_instance(4000, 2000, seed=5, link=abs_link(),
                         noise=point_mass_dist(0.0), signal=gaussian_dist())
    assert abs(np.sum(inst.theta_star**2) / inst.d - 1.0) < 1e-12


def test_make_instance_entry_variance():
    inst = make_instance(300, 200, seed=2, link=linear_link(),
                         noise=point_mass_dist(0.0), signal=gaussian_dist())
    v = np.var(inst.X) * inst.d
    se = np.sqrt(2.0 / (inst.n * inst.d))  # var of sample variance of N(0,1)
    assert abs(v - 1.0) <= 3 * se


def test_make_instance_rejects_small():
    with pytest.raises(ValueError):
        make_instance(1, 5, 0, linear_link(), point_mass_dist(), gaussian_dist())
    with pytest.raises(ValueError):
        make_instance(5, 1, 0, linear_link(), point_mass_dist(), gaussian_dist())


def test_make_instance_rejects_zero_signal():
    with pytest.raises(ValueError):
        make_instance(4, 2, 0, linear_link(), point_mass_dist(),
                      point_mass_dist(0.0))
