"""Tests for the AMP bridge: table structure, the exact AMP-GD equivalence,
and state-evolution spot checks."""

import numpy as np
import pytest

from dmftsim.amp import (
    OnsagerTable,
    onsager_from_dmft,
    random_onsager_table,
    run_spectral_amp,
    se_check,
    verify_equivalence,
)
from dmftsim.dmft import MonteCarloSpec, init_dmft, run_dmft
from dmftsim.gd import GdConfig, run_gd
from dmftsim.model import (
    abs_link,
    gaussian_dist,
    make_instance,
    phase_preprocess,
    point_mass_dist,
    rwf_loss,
    smoothstep_profile,
)
from dmftsim.spectral import QuadratureSpec, solve_lambda_star, spectral_estimator

PRE3 = phase_preprocess(3.0)
RWF = rwf_loss(smoothstep_profile(9.0, 18.0))


@pytest.fixture(scope="module")
def setup():
    n, d, m = 600, 300, 4
    gamma, lam = 0.01, 0.05
    link, noise = abs_link(), point_mass_dist(0.0)
    sol = solve_lambda_star(PRE3, link, noise, n / d, QuadratureSpec())
    inst = make_instance(n, d, 3, link, noise, gaussian_dist())
    spec = spectral_estimator(inst, PRE3)
    traj = run_gd(inst, RWF, GdConfig(gamma, lam, m), spec.theta0)
    state = init_dmft(RWF, link, noise, PRE3, sol, n / d, gamma, lam,
                      MonteCarloSpec(K=8000, seed=5))
    run_dmft(state, m)
    return dict(inst=inst, spec=spec, traj=traj, state=state,
                sol=sol, m=m, gamma=gamma, lam=lam)


# ---------------------------------------------------------------------------
# table structure
# ---------------------------------------------------------------------------

def test_structural_zeros_enforced():
    xi = np.zeros((2, 2, 2))
    zeta = np.zeros((3, 3))
    zeta[0, 0] = 1.0
    OnsagerTable(xi=xi, zeta=zeta)  # valid
    for bad in (0.5, 0.0):
        bad_init = zeta.copy()
        bad_init[0, 0] = bad
        with pytest.raises(ValueError, match="zeta_{0,-1}"):
            OnsagerTable(xi=xi, zeta=bad_init)
    # the 2x2 blocks with a stored second output column are refused, and so
    # is zeta's dead theta* channel
    with pytest.raises(ValueError, match=r"xi must be \(m, m, 2\)"):
        OnsagerTable(xi=np.zeros((2, 2, 2, 2)), zeta=zeta)
    for shape in ((3, 3, 2), (3, 3, 2, 2), (2, 2)):
        with pytest.raises(ValueError, match=r"zeta must be \(m\+1, m\+1\)"):
            OnsagerTable(xi=xi, zeta=np.zeros(shape))


def test_random_table_respects_zeros():
    rng = np.random.default_rng(0)
    table = random_onsager_table(5, rng)
    assert table.xi.shape == (5, 5, 2) and table.zeta.shape == (6, 6)
    for M, k in ((table.xi, 5), (table.zeta, 6)):
        upper = ~np.tri(k, dtype=bool)
        assert np.all(M[upper] == 0.0)
        assert np.all(M[~upper][1:] != 0.0)
    assert table.zeta[0, 0] == 1.0


def onsager_from_dmft_per_entry(state, m):
    """onsager_from_dmft as a loop over the table entries, one parent
    expression per entry."""
    delta = state.delta
    xi = np.zeros((m, m, 2))
    zeta = np.zeros((m + 1, m + 1))
    zeta[0, 0] = 1.0
    for i in range(1, m + 1):
        zeta[i, 0] = state.r_theta_dia[i]
        for j in range(i):
            zeta[i, j + 1] = delta * state.R_theta[i, j]
    for i in range(m):
        if i == 0:
            xi[0, 0, 0] = state.e_d1_T_t0
        else:
            xi[i, i, 0] = state.e_d1[i]
            xi[i, 0, 0] = (state.R_eta[i, 0] + state.R_eta_dia[i]) / delta
            for j in range(1, i):
                xi[i, j, 0] = state.R_eta[i, j] / delta
        xi[i, 0, 1] = (state.R_eta_star[i] + state.R_eta_dd[i]) / delta
    return xi, zeta


def test_sliced_onsager_fill_equals_per_entry_loop_bitwise(setup):
    st = init_dmft(RWF, abs_link(), point_mass_dist(0.0), PRE3, setup["sol"],
                   2.0, setup["gamma"], setup["lam"],
                   MonteCarloSpec(K=3000, seed=6))
    run_dmft(st, 9)
    for state, horizons in ((setup["state"], range(setup["m"] + 1)),
                            (st, (0, 1, 2, 9))):
        for m in horizons:
            table = onsager_from_dmft(state, m)
            xi, zeta = onsager_from_dmft_per_entry(state, m)
            assert table.xi.tobytes() == xi.tobytes()
            assert table.zeta.tobytes() == zeta.tobytes()
    before = onsager_from_dmft(st, 9)
    st.release_paths()
    after = onsager_from_dmft(st, 9)
    xi, zeta = onsager_from_dmft_per_entry(st, 9)
    assert after.xi.tobytes() == before.xi.tobytes() == xi.tobytes()
    assert after.zeta.tobytes() == before.zeta.tobytes() == zeta.tobytes()


def test_onsager_from_dmft_values(setup):
    st = setup["state"]
    m = setup["m"]
    table = onsager_from_dmft(st, m)
    delta = st.delta
    for t in range(1, m + 1):
        assert table.zeta[t, t] == delta * setup["gamma"]
        assert table.zeta[t, 0] == st.r_theta_dia[t]
    # xi_{0,0} carries the extra (1 + T(y)) factor
    assert table.xi[0, 0, 0] == st.e_d1_T_t0
    for t in range(1, m):
        assert table.xi[t, t, 0] == st.e_d1[t]
        assert table.xi[t, 0, 0] == (st.R_eta[t, 0] + st.R_eta_dia[t]) / delta
    assert table.xi[0, 0, 1] == (st.R_eta_star[0] + st.R_eta_dd[0]) / delta


def test_onsager_from_dmft_horizon_check(setup):
    with pytest.raises(ValueError, match="horizon"):
        onsager_from_dmft(setup["state"], setup["m"] + 3)


# ---------------------------------------------------------------------------
# AMP run and equivalence
# ---------------------------------------------------------------------------

def test_first_step_with_zero_table(setup):
    # all-zero corrections except the structural zeta_{0,-1}
    m = 1
    xi = np.zeros((m, m, 2))
    zeta = np.zeros((m + 1, m + 1))
    zeta[0, 0] = 1.0
    table = OnsagerTable(xi=xi, zeta=zeta)
    inst, sol = setup["inst"], setup["sol"]
    run = run_spectral_amp(inst, PRE3, sol, setup["spec"].theta0, table, RWF,
                           setup["gamma"], setup["lam"], m)
    Zs = PRE3.Ts(inst.y)
    Ty = Zs / (sol.lambda_star - Zs)
    b0_1 = inst.X @ setup["spec"].theta0 * (1 - Zs / sol.lambda_star)
    f0 = RWF.ell((1 + Ty) * b0_1, inst.X @ inst.theta_star, inst.z)
    expected_a1 = -(inst.X.T @ f0) / (inst.n / inst.d)
    assert run.a_iters.shape == (m, inst.d)
    assert run.b_iters.shape == (m + 1, inst.n)
    assert np.allclose(run.b_iters[0], b0_1, atol=1e-12)
    assert np.allclose(run.a_iters[0], expected_a1, atol=1e-12)


def test_equivalence_with_dmft_table(setup):
    table = onsager_from_dmft(setup["state"], setup["m"])
    run = run_spectral_amp(setup["inst"], PRE3, setup["sol"],
                           setup["spec"].theta0, table, RWF,
                           setup["gamma"], setup["lam"], setup["m"])
    err_theta, err_eta = verify_equivalence(run, setup["traj"])
    assert err_theta <= 1e-8
    assert err_eta <= 1e-8


def test_equivalence_with_random_tables(setup):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        table = random_onsager_table(setup["m"], rng)
        run = run_spectral_amp(setup["inst"], PRE3, setup["sol"],
                               setup["spec"].theta0, table, RWF,
                               setup["gamma"], setup["lam"], setup["m"])
        errs = verify_equivalence(run, setup["traj"])
        worst = max(worst, *errs)
    assert worst <= 1e-8


def test_mismatched_tables_break_equivalence(setup):
    rng = np.random.default_rng(7)
    t1 = random_onsager_table(setup["m"], rng)
    t2 = random_onsager_table(setup["m"], rng)
    run = run_spectral_amp(setup["inst"], PRE3, setup["sol"],
                           setup["spec"].theta0, t1, RWF,
                           setup["gamma"], setup["lam"], setup["m"],
                           recon_table=t2)
    err_theta, err_eta = verify_equivalence(run, setup["traj"])
    assert max(err_theta, err_eta) >= 1e-2


def test_theta0_validation(setup):
    table = onsager_from_dmft(setup["state"], setup["m"])
    with pytest.raises(ValueError):
        run_spectral_amp(setup["inst"], PRE3, setup["sol"],
                         np.ones(7), table, RWF, 0.01, 0.0, setup["m"])


# ---------------------------------------------------------------------------
# state evolution spot checks
# ---------------------------------------------------------------------------

def test_se_check_moderate_size():
    # stronger gap regime so the overlap concentrates at moderate d
    n, d, m = 10000, 1000, 3
    gamma, lam = 0.01, 0.0
    link, noise = abs_link(), point_mass_dist(0.0)
    sol = solve_lambda_star(PRE3, link, noise, n / d, QuadratureSpec())
    inst = make_instance(n, d, 1, link, noise, gaussian_dist())
    spec = spectral_estimator(inst, PRE3)
    traj = run_gd(inst, RWF, GdConfig(gamma, lam, m), spec.theta0)
    state = init_dmft(RWF, link, noise, PRE3, sol, n / d, gamma, lam,
                      MonteCarloSpec(K=30000, seed=9))
    run_dmft(state, m)
    table = onsager_from_dmft(state, m)
    run = run_spectral_amp(inst, PRE3, sol, spec.theta0, table, RWF,
                           gamma, lam, m)
    report = se_check(run, state, spec.theta0, inst.theta_star)
    assert report["second_moment_theta0"]["ok"]
    assert report["mean_theta_star"]["ok"]
    assert report["overlap_theta1_star"]["diff"] <= 0.03
    assert report["all_ok"], {k: v for k, v in report.items()
                              if isinstance(v, dict) and not v["ok"]}
