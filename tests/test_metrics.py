"""Tests for the Wasserstein-2 metric and comparison reports."""

import numpy as np
import pytest

from dmftsim.dmft import MonteCarloSpec, init_dmft, run_dmft
from dmftsim.metrics import (
    NotConvergedError,
    compare_empirical_vs_dmft,
    long_time_compare,
    w2_1d,
)
from dmftsim.model import (
    abs_link,
    phase_preprocess,
    point_mass_dist,
    rwf_loss,
    smoothstep_profile,
)
from dmftsim.spectral import QuadratureSpec, solve_lambda_star


def test_w2_identical_samples_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(500)
    assert w2_1d(a, a.copy()) == 0.0


def test_w2_translation_exact():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(400)
    assert abs(w2_1d(a, a + 1.0) - 1.0) <= 1e-14


def test_w2_gaussian_shift():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(100000)
    b = rng.standard_normal(100000) + 0.5
    assert abs(w2_1d(a, b) - 0.5) <= 0.02


def test_w2_empty_rejected():
    with pytest.raises(ValueError):
        w2_1d(np.array([]), np.array([1.0]))


def test_w2_metric_properties_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(5, 60)
        a = rng.standard_normal(n)
        b = rng.standard_normal(n) * rng.uniform(0.5, 2)
        c = rng.standard_normal(n) + rng.uniform(-1, 1)
        dab, dba = w2_1d(a, b), w2_1d(b, a)
        assert dab == dba                       # symmetry
        assert w2_1d(a, a) == 0.0               # identity of indiscernibles
        if dab == 0.0:
            assert np.array_equal(np.sort(a), np.sort(b))
        assert w2_1d(a, c) <= dab + w2_1d(b, c) + 1e-12   # triangle


def test_w2_unequal_sizes():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(30000)
    b = rng.standard_normal(1000)
    assert w2_1d(a, b) <= 0.1


@pytest.fixture(scope="module")
def pr_state():
    pre = phase_preprocess(3.0)
    loss = rwf_loss(smoothstep_profile(9.0, 18.0))
    sol = solve_lambda_star(pre, abs_link(), point_mass_dist(0.0), 10.0,
                            QuadratureSpec())
    st = init_dmft(loss, abs_link(), point_mass_dist(0.0), pre, sol, 10.0,
                   0.01, 0.0, MonteCarloSpec(K=4000, seed=2))
    run_dmft(st, 3)
    return st


def test_compare_law_against_itself(pr_state):
    # the state's pools as the finite-size blocks: d = n = K rows of
    # (theta^0..theta^m, theta*) and (eta^0..eta^m, w*, z)
    st = pr_state
    rep = compare_empirical_vs_dmft(st.thetas.T, st.etas.T, st)
    assert np.all(rep.w2_theta == 0.0)
    assert np.all(rep.w2_eta == 0.0)
    assert rep.cov_disc_theta <= 1e-12
    assert rep.max_overlap_diff <= 1e-12


def test_compare_horizon_mismatch(pr_state):
    st = pr_state
    with pytest.raises(ValueError, match="horizon"):
        compare_empirical_vs_dmft(st.thetas[:-1].T, st.etas.T, st)


def test_long_time_compare_requires_convergence():
    class FP:
        theta_inf = np.zeros(10)
        C_theta_inf = np.eye(2)

    traj = np.vstack([np.zeros(50), np.ones(50)])
    with pytest.raises(NotConvergedError):
        long_time_compare(traj, np.ones(50), FP())


def test_long_time_compare_self_pool():
    rng = np.random.default_rng(5)
    theta_m = rng.standard_normal(400)

    class FP:
        theta_inf = theta_m.copy()
        C_theta_inf = np.array([[1.0, 0.3], [0.3, 1.0]])

    traj = np.vstack([theta_m, theta_m])
    rep = long_time_compare(traj, rng.standard_normal(400), FP())
    assert rep.w2_theta_inf == 0.0
    assert rep.norm_fp == 1.0
