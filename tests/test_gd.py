"""Tests for the gradient-descent dynamics and Hessian extremes."""

import numpy as np
import pytest

from dmftsim.gd import (
    GdConfig,
    empirical_joint,
    hessian_extremes,
    loss_value,
    recompute_residual,
    run_gd,
)
from dmftsim.model import (
    LossModel,
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
from dmftsim.spectral import spectral_estimator


def least_squares_loss():
    # ell(a, b, c) = a - b: plain linear regression residual, d1 = 1.
    one = lambda a, b, c: np.ones_like(np.asarray(a, dtype=float))
    return LossModel(
        name="lsq",
        L=lambda a, b, c: 0.5 * (np.asarray(a, dtype=float) - b) ** 2,
        ell=lambda a, b, c: np.asarray(a, dtype=float) - b,
        d1ell=one,
        d2ell=lambda a, b, c: -one(a, b, c),
    )


def test_gamma_zero_freezes_iterates():
    inst = make_instance(30, 10, 0, linear_link(), point_mass_dist(0.0),
                         gaussian_dist())
    theta0 = np.arange(10, dtype=float)
    traj = run_gd(inst, pseudo_huber_loss(), GdConfig(0.0, 0.5, 7), theta0)
    for t in range(8):
        assert np.array_equal(traj.theta[t], theta0)


def test_least_squares_residual_monotone():
    inst = make_instance(300, 100, 1, linear_link(), point_mass_dist(0.0),
                         gaussian_dist())
    loss = least_squares_loss()
    theta0 = np.zeros(100)
    traj = run_gd(inst, loss, GdConfig(0.05, 0.0, 30), theta0)
    eta_star = traj.eta_star
    norms = [np.linalg.norm(traj.eta[t] - eta_star) for t in range(31)]
    assert all(norms[t + 1] <= norms[t] + 1e-12 for t in range(30))


def test_run_gd_nan_abort():
    inst = make_instance(20, 8, 0, linear_link(), point_mass_dist(0.0),
                         gaussian_dist())
    with pytest.raises(FloatingPointError, match="t="):
        run_gd(inst, pseudo_huber_loss(), GdConfig(100.0, 1.0, 400),
               np.ones(8))


def test_trajectory_recompute_residual():
    inst = make_instance(80, 40, 3, abs_link(), point_mass_dist(0.0),
                         gaussian_dist())
    loss = rwf_loss(smoothstep_profile(9.0, 18.0))
    traj = run_gd(inst, loss, GdConfig(0.01, 0.1, 12),
                  spectral_estimator(inst, phase_preprocess(3.0)).theta0)
    assert recompute_residual(inst, loss, traj) <= 1e-10


def test_recorded_eta_matches_X_theta():
    inst = make_instance(50, 20, 4, linear_link(), gaussian_dist(0.2),
                         gaussian_dist())
    traj = run_gd(inst, pseudo_huber_loss(), GdConfig(0.1, 0.2, 5),
                  np.ones(20))
    for t in range(6):
        assert np.max(np.abs(traj.eta[t] - inst.X @ traj.theta[t])) <= 1e-12


def test_theta0_shape_validated():
    inst = make_instance(20, 8, 0, linear_link(), point_mass_dist(0.0),
                         gaussian_dist())
    with pytest.raises(ValueError):
        run_gd(inst, pseudo_huber_loss(), GdConfig(0.1, 0.0, 2), np.ones(9))


# ---------------------------------------------------------------------------
# Hessian probes
# ---------------------------------------------------------------------------

def test_hessian_extremes_reduce_to_singular_values():
    inst = make_instance(120, 40, 2, linear_link(), point_mass_dist(0.0),
                         gaussian_dist())
    lam_min, lam_max = hessian_extremes(inst, least_squares_loss(), 0.0,
                                        np.zeros(40))
    s = np.linalg.svd(inst.X, compute_uv=False)
    assert abs(lam_max - s[0] ** 2) <= 1e-10
    assert abs(lam_min - s[-1] ** 2) <= 1e-10


def test_hessian_ridge_perturbation_bound():
    inst = make_instance(100, 50, 6, linear_link(), point_mass_dist(0.0),
                         gaussian_dist())
    s_max = np.linalg.svd(inst.X, compute_uv=False)[0]
    assert s_max <= 3.0  # Gaussian X at delta=2 sits well under this
    lam_min, lam_max = hessian_extremes(inst, pseudo_huber_loss(), 10.0,
                                        np.zeros(50))
    assert lam_min >= 10.0 - 9.0
    # pseudo-Huber: rho'' <= 1
    assert lam_max <= 10.0 + s_max**2 * 1.0 + 1e-12


def test_hessian_dimension_guard():
    inst = make_instance(20, 8, 0, linear_link(), point_mass_dist(0.0),
                         gaussian_dist())
    big = object.__new__(type(inst))
    object.__setattr__(big, "d", 5000)
    with pytest.raises(ValueError):
        hessian_extremes(big, pseudo_huber_loss(), 0.0, np.zeros(5000))


def test_phase_retrieval_landscape_small():
    # the 1/50 Hessian floor inside the 1/5-ball, small-size version; the
    # truncation window must sit far outside the data scale (U = 2L large)
    # or rare rows in the cutoff band wreck the lower bound
    loss = rwf_loss(smoothstep_profile(50.0, 100.0))
    inst = make_instance(3000, 300, 0, abs_link(), point_mass_dist(0.0),
                         gaussian_dist())
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(inst.d)
        u *= rng.uniform(0.0, 0.2) * np.sqrt(inst.d) / np.linalg.norm(u)
        lam_min, _ = hessian_extremes(inst, loss, 0.0, inst.theta_star + u)
        assert lam_min > 1 / 50


def test_descent_contraction_in_benign_region():
    # strongly convex run: step norms contract at the rate the Hessian
    # extremes prescribe, r = max(|1-gamma c0|, |1-gamma L|)^2
    inst = make_instance(400, 200, 7, linear_link(), gaussian_dist(0.3),
                         gaussian_dist())
    loss = pseudo_huber_loss()
    gamma, lam = 0.08, 1.0
    traj = run_gd(inst, loss, GdConfig(gamma, lam, 25), np.zeros(200))
    c0 = min(hessian_extremes(inst, loss, lam, traj.theta[t])[0]
             for t in (0, 5, 10, 20))
    L = max(hessian_extremes(inst, loss, lam, traj.theta[t])[1]
            for t in (0, 5, 10, 20))
    r = max(abs(1 - gamma * c0), abs(1 - gamma * L)) ** 2
    assert r < 1
    steps = np.linalg.norm(np.diff(traj.theta, axis=0), axis=1)
    for t in range(1, len(steps)):
        assert steps[t] ** 2 <= r * steps[t - 1] ** 2 * (1 + 1e-9)


# ---------------------------------------------------------------------------
# empirical_joint
# ---------------------------------------------------------------------------

def test_empirical_joint_identity_when_started_at_truth():
    inst = make_instance(40, 15, 2, linear_link(), point_mass_dist(0.0),
                         gaussian_dist())
    traj = run_gd(inst, pseudo_huber_loss(), GdConfig(0.1, 0.0, 0),
                  inst.theta_star.copy())
    tb, eb = empirical_joint(traj, inst.theta_star)
    assert tb.shape == (15, 2)
    assert eb.shape == (40, 3)
    assert np.array_equal(tb[:, 0], tb[:, 1])


def test_empirical_joint_row_counts_and_means():
    inst = make_instance(500, 250, 8, linear_link(), gaussian_dist(0.2),
                         gaussian_dist())
    traj = run_gd(inst, pseudo_huber_loss(), GdConfig(0.1, 0.5, 4),
                  np.zeros(250))
    tb, eb = empirical_joint(traj, inst.theta_star)
    assert tb.shape[0] == inst.d and eb.shape[0] == inst.n
    col_means = np.abs(tb[:, :-1].mean(axis=0))
    assert np.all(col_means <= 3 / np.sqrt(inst.d))


def test_loss_value_decreases_under_gd():
    inst = make_instance(200, 100, 9, linear_link(), gaussian_dist(0.2),
                         gaussian_dist())
    loss = pseudo_huber_loss()
    traj = run_gd(inst, loss, GdConfig(0.05, 0.1, 10), np.zeros(100))
    vals = [loss_value(loss, traj, t) for t in range(11)]
    assert all(vals[t + 1] <= vals[t] + 1e-12 for t in range(10))


def test_loss_value_reads_recorded_pre_activations_bitwise():
    inst = make_instance(120, 60, 4, abs_link(), point_mass_dist(0.0),
                         gaussian_dist())
    loss = rwf_loss(smoothstep_profile(9.0, 18.0))
    theta0 = spectral_estimator(inst, phase_preprocess(3.0)).theta0
    traj = run_gd(inst, loss, GdConfig(0.02, 0.3, 6), theta0)
    for t in range(traj.m + 1):
        theta = traj.theta[t]
        vals = loss.L(inst.X @ theta, inst.X @ inst.theta_star, inst.z)
        recomputed = float(np.sum(vals) + 0.5 * 0.3 * np.sum(theta**2))
        assert loss_value(loss, traj, t) == recomputed
