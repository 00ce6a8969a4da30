"""Acceptance suite.

One test per acceptance criterion, each asserting its stated tolerances and
printing a PASS/FAIL line (visible with ``pytest -s`` and in the tee'd run
log).  Sizes and tolerances are pinned here, not calibrated at runtime.

Criterion 4's spectral-distance clause is marked xfail: the limiting
distance sqrt(2 - 2a) at delta = 10 exceeds 1/5 for every clip level of the
pre-processing family (a <= 0.855, distance >= 0.54); the bound only enters
the admissible regime at delta of order 100, which the companion
supplement test demonstrates.
"""

import numpy as np
import pytest

from dmftsim.amp import (
    onsager_from_dmft,
    random_onsager_table,
    run_spectral_amp,
    verify_equivalence,
)
from dmftsim.dmft import MonteCarloSpec, init_dmft, run_dmft, tti_diagnostics
from dmftsim.fixed_point import (
    SolverConfig,
    iterate_fixed_point,
    solve_R_theta,
    warm_start_from_dmft,
)
from dmftsim.gd import GdConfig, empirical_joint, hessian_extremes, run_gd
from dmftsim.metrics import compare_empirical_vs_dmft, long_time_compare
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
from dmftsim.spectral import (
    QuadratureSpec,
    solve_lambda_star,
    spectral_estimator,
    two_stage_dynamic,
)

PRE3 = phase_preprocess(3.0)
RWF = rwf_loss(smoothstep_profile(9.0, 18.0))
PR_GAMMA = 0.01


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. AMP <-> GD exact equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_amp_gd_equivalence():
    n, d, m = 2000, 1000, 5
    gamma, lam = PR_GAMMA, 0.0
    link, noise = abs_link(), point_mass_dist(0.0)
    sol = solve_lambda_star(PRE3, link, noise, n / d, QuadratureSpec())
    inst = make_instance(n, d, 7, link, noise, gaussian_dist())
    spec = spectral_estimator(inst, PRE3)
    traj = run_gd(inst, RWF, GdConfig(gamma, lam, m), spec.theta0)

    state = init_dmft(RWF, link, noise, PRE3, sol, n / d, gamma, lam,
                      MonteCarloSpec(K=20000, seed=3))
    run_dmft(state, m)
    table = onsager_from_dmft(state, m)
    run = run_spectral_amp(inst, PRE3, sol, spec.theta0, table, RWF,
                           gamma, lam, m)
    err_dmft = max(verify_equivalence(run, traj))

    rng = np.random.default_rng(11)
    err_random = 0.0
    for _ in range(10):
        rt = random_onsager_table(m, rng)
        rrun = run_spectral_amp(inst, PRE3, sol, spec.theta0, rt, RWF,
                                gamma, lam, m)
        err_random = max(err_random, *verify_equivalence(rrun, traj))

    t1 = random_onsager_table(m, rng)
    t2 = random_onsager_table(m, rng)
    mis = run_spectral_amp(inst, PRE3, sol, spec.theta0, t1, RWF,
                           gamma, lam, m, recon_table=t2)
    err_mismatch = max(verify_equivalence(mis, traj))

    ok = err_dmft <= 1e-8 and err_random <= 1e-8 and err_mismatch >= 1e-2
    report("criterion-1 AMP=GD equivalence", ok,
           f"dmft-table err={err_dmft:.2e}, 10 random tables err={err_random:.2e}, "
           f"mismatch control={err_mismatch:.2e}")
    assert err_dmft <= 1e-8
    assert err_random <= 1e-8
    assert err_mismatch >= 1e-2


# ---------------------------------------------------------------------------
# 2. Spectral asymptotics
# ---------------------------------------------------------------------------

def test_criterion_2_spectral_asymptotics():
    d = 2000
    link, noise = abs_link(), point_mass_dist(0.0)
    all_ok = True
    details = []
    for delta in (4.0, 10.0):
        sol = solve_lambda_star(PRE3, link, noise, delta, QuadratureSpec())
        ov, l1, l2 = [], [], []
        for seed in range(5):
            inst = make_instance(int(delta * d), d, seed, link, noise,
                                 gaussian_dist())
            res = spectral_estimator(inst, PRE3)
            ov.append(res.overlap_emp)
            l1.append(res.lam1_emp)
            l2.append(res.lam2_emp)
        dev_ov = abs(np.mean(ov) - sol.overlap_a)
        dev_l1 = abs(np.mean(l1) - sol.lam1_lim) / sol.lam1_lim
        dev_l2 = abs(np.mean(l2) - sol.lam2_lim) / sol.lam2_lim
        all_ok &= dev_ov <= 0.03 and dev_l1 <= 0.03 and dev_l2 <= 0.05
        details.append(f"delta={delta:g}: |ov-a|={dev_ov:.4f}, "
                       f"rel lam1={dev_l1:.4f}, rel lam2={dev_l2:.4f}")
        assert dev_ov <= 0.03
        assert dev_l1 <= 0.03
        assert dev_l2 <= 0.05
    report("criterion-2 spectral asymptotics", all_ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. DMFT law vs simulation
# ---------------------------------------------------------------------------

def _run_comparison(link, noise, pre, loss, delta, gamma, lam, d, K, m,
                    independent, inst_seed, dmft_seed, quad):
    sol = solve_lambda_star(pre, link, noise, delta, quad)
    state = init_dmft(loss, link, noise, pre, sol, delta, gamma, lam,
                      MonteCarloSpec(K=K, seed=dmft_seed),
                      independent_init=independent)
    run_dmft(state, m)
    inst = make_instance(int(delta * d), d, inst_seed, link, noise,
                         gaussian_dist())
    if independent:
        rng = np.random.default_rng(1000)
        theta0 = rng.standard_normal(d)
        theta0 *= np.sqrt(d) / np.linalg.norm(theta0)
    else:
        theta0 = spectral_estimator(inst, pre).theta0
    traj = run_gd(inst, loss, GdConfig(gamma, lam, m), theta0)
    tb, eb = empirical_joint(traj, inst.theta_star)
    return compare_empirical_vs_dmft(tb, eb, state)


def test_criterion_3_dmft_vs_simulation():
    d, K, m = 2000, 100000, 10
    # linear model with pseudo-Huber loss at the pinned (lambda, gamma, delta);
    # initialization independent of X per the degenerate DMFT mode
    rep_lin = _run_comparison(
        linear_link(), gaussian_dist(0.3), phase_preprocess(2.0),
        pseudo_huber_loss(), 2.0, 0.2, 0.5, d, K, m,
        independent=True, inst_seed=0, dmft_seed=11,
        quad=QuadratureSpec(z_samples=30000, seed=1))
    # noiseless phase retrieval, spectral initialization
    rep_pr = _run_comparison(
        abs_link(), point_mass_dist(0.0), PRE3, RWF, 10.0, PR_GAMMA, 0.0,
        d, K, m, independent=False, inst_seed=0, dmft_seed=11,
        quad=QuadratureSpec())
    ok = True
    details = []
    for tag, rep in (("linear", rep_lin), ("phase-retrieval", rep_pr)):
        w2t, w2e = rep.w2_theta.max(), rep.w2_eta.max()
        cov = rep.cov_disc_theta
        ok &= w2t <= 0.05 and w2e <= 0.05 and cov <= 0.05
        details.append(f"{tag}: max W2 theta={w2t:.4f}, eta={w2e:.4f}, "
                       f"max |Chat-C|={cov:.4f}")
    report("criterion-3 DMFT law vs simulation", ok, "; ".join(details))
    for rep in (rep_lin, rep_pr):
        assert rep.w2_theta.max() <= 0.05
        assert rep.w2_eta.max() <= 0.05
        assert rep.cov_disc_theta <= 0.05


# ---------------------------------------------------------------------------
# 4. Landscape constants
# ---------------------------------------------------------------------------

def test_criterion_4_hessian_floor():
    # U = 2L chosen large so the cutoff band lies far outside the data scale
    loss = rwf_loss(smoothstep_profile(50.0, 100.0))
    d, delta = 500, 10.0
    worst = np.inf
    for seed in range(5):
        inst = make_instance(int(delta * d), d, seed, abs_link(),
                             point_mass_dist(0.0), gaussian_dist())
        rng = np.random.default_rng(500 + seed)
        for _ in range(20):
            u = rng.standard_normal(d)
            u *= rng.uniform(0.0, 0.2) * np.sqrt(d) / np.linalg.norm(u)
            lam_min, _ = hessian_extremes(inst, loss, 0.0, inst.theta_star + u)
            worst = min(worst, lam_min)
    ok = worst > 1 / 50
    report("criterion-4 Hessian floor 1/50", ok,
           f"min lambda_min over 5 seeds x 20 ball points = {worst:.4f}")
    assert worst > 1 / 50


@pytest.mark.xfail(
    strict=True,
    reason="limiting spectral distance sqrt(2-2a) at delta=10 is >= 0.54 for "
           "every clip level (overlap a <= 0.855); the 1/5 bound needs the "
           "bound is asymptotic in delta and first holds near delta ~ 100")
def test_criterion_4_spectral_distance_at_delta_10():
    d, delta = 500, 10.0
    dists = []
    for seed in range(5):
        inst = make_instance(int(delta * d), d, seed, abs_link(),
                             point_mass_dist(0.0), gaussian_dist())
        spec = spectral_estimator(inst, PRE3)
        dists.append(np.linalg.norm(spec.theta0 - inst.theta_star)
                     / np.sqrt(d))
    dist = float(np.mean(dists))
    report("criterion-4 spectral distance (delta=10, unattainable)",
           dist <= 1 / 5, f"||theta_hat - theta*/sqrt(d)|| = {dist:.4f} vs 1/5")
    assert dist <= 1 / 5


def test_criterion_4_supplement_spectral_distance_at_large_delta():
    # companion check: the same code path satisfies the 1/5 bound once
    # delta reaches the order where the asymptotic claim applies
    d, delta = 500, 100.0
    inst = make_instance(int(delta * d), d, 0, abs_link(),
                         point_mass_dist(0.0), gaussian_dist())
    spec = spectral_estimator(inst, PRE3)
    dist = np.linalg.norm(spec.theta0 - inst.theta_star) / np.sqrt(d)
    ok = dist <= 1 / 5
    report("criterion-4 supplement (delta=100)", ok,
           f"||theta_hat - theta*/sqrt(d)|| = {dist:.4f} <= 1/5")
    assert ok


# ---------------------------------------------------------------------------
# 5. Fixed point
# ---------------------------------------------------------------------------

def test_criterion_5_fixed_point():
    delta, gamma, lam = 10.0, PR_GAMMA, 0.0
    link, noise = abs_link(), point_mass_dist(0.0)
    sol = solve_lambda_star(PRE3, link, noise, delta, QuadratureSpec())
    dm = init_dmft(RWF, link, noise, PRE3, sol, delta, gamma, lam,
                   MonteCarloSpec(K=20000, seed=5))
    run_dmft(dm, 30)
    K = 100000
    cfg = SolverConfig(K=K, damping=0.5, tol=1e-10, max_outer=200, seed=0)
    fp = iterate_fixed_point(RWF, noise, delta, lam, cfg,
                             init=warm_start_from_dmft(dm))
    lim = 2.0 / np.sqrt(K)
    dev_c = max(abs(fp.C_theta_inf[0, 0] - 1.0), abs(fp.C_theta_inf[0, 1] - 1.0))
    d1 = np.asarray(RWF.d1ell(fp.eta_inf, fp.w_star, fp.z), dtype=float)
    q = d1 * fp.R_theta_inf
    g_res = abs(lam * fp.R_theta_inf + delta * np.mean(q / (1.0 + q)) - 1.0)

    # dense R-grid oracle on the same pool function
    grid = np.linspace(1e-4, 0.2, 20001)
    gv = np.array([delta * np.mean(d1 * r / (1 + d1 * r)) - 1.0 for r in grid])
    k = int(np.argmax(np.signbit(gv[:-1]) != np.signbit(gv[1:])))
    lo, hi = grid[k], grid[k + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if delta * np.mean(d1 * mid / (1 + d1 * mid)) - 1.0 > 0:
            hi = mid
        else:
            lo = mid
    r_oracle = 0.5 * (lo + hi)

    gamma_pool = float(np.mean(d1))
    dev_reta = abs(fp.R_eta_inf - (1.0 / fp.R_theta_inf - delta * gamma_pool))
    dev_rstar = abs(fp.R_eta_star - (-delta * gamma_pool - fp.R_eta_inf))
    r_scalar = solve_R_theta(np.ones(8), delta=2.0, lambda_ridge=1.0)
    dev_scalar = abs(r_scalar - (np.sqrt(2.0) - 1.0))

    ok = (fp.converged and dev_c <= lim and fp.C_eta_inf <= lim
          and g_res <= 1e-10 and abs(fp.R_theta_inf - r_oracle) <= 1e-6
          and dev_reta <= 5 / np.sqrt(K) and dev_rstar <= 5 / np.sqrt(K)
          and dev_scalar <= 1e-10)
    report("criterion-5 fixed point", ok,
           f"|C-1|={dev_c:.2e} (lim {lim:.2e}), C_eta={fp.C_eta_inf:.2e}, "
           f"|g(R)|={g_res:.2e}, |R-oracle|={abs(fp.R_theta_inf - r_oracle):.2e}, "
           f"R_eta dev={dev_reta:.2e}, R_eta* dev={dev_rstar:.2e}, "
           f"scalar dev={dev_scalar:.2e}")
    assert fp.converged
    assert dev_c <= lim
    assert fp.C_eta_inf <= lim
    assert g_res <= 1e-10
    assert abs(fp.R_theta_inf - r_oracle) <= 1e-6
    assert dev_reta <= 5 / np.sqrt(K)
    assert dev_rstar <= 5 / np.sqrt(K)
    assert dev_scalar <= 1e-10


# ---------------------------------------------------------------------------
# 6. Long-time DMFT behavior
# ---------------------------------------------------------------------------

def test_criterion_6_long_time_dmft():
    link = linear_link()
    noise = gaussian_dist(0.3)
    pre = phase_preprocess(2.0)
    loss = pseudo_huber_loss()
    delta, gamma, lam, m = 2.0, 0.08, 1.0, 40
    # pseudo-Huber: rho'' <= 1
    L_smooth = lam + 4 * (1 + np.sqrt(delta)) ** 2 * 1.0
    assert gamma < 2 / L_smooth  # benign-region step-size hypothesis
    sol = solve_lambda_star(pre, link, noise, delta,
                            QuadratureSpec(z_samples=30000, seed=1))
    st = init_dmft(loss, link, noise, pre, sol, delta, gamma, lam,
                   MonteCarloSpec(K=30000, seed=5))
    run_dmft(st, m)
    # the strongly convex run drives the covariances nearly singular; the
    # assembled blocks must still be PSD at the -1e-8 floor before jitter
    assert min(st.w_proc.min_eig_before_jitter) >= -1e-8
    assert min(st.u_proc.min_eig_before_jitter) >= -1e-8
    rep = tti_diagnostics(st, max_lag=5, window=(30, 39))
    ratios = [arr.max() / max(arr[-1], 1e-300)
              for arr in (rep.dia_theta, rep.dia_eta, rep.dd_eta)]
    tti_worst = max(rep.tti_dev.values())
    r_sum = float(np.sum(st.R_theta[m, :m]))

    cfg = SolverConfig(K=100000, damping=0.5, tol=1e-10, max_outer=200, seed=2)
    fp = iterate_fixed_point(loss, noise, delta, lam, cfg)
    dev_r = abs(r_sum - fp.R_theta_inf)

    d = 2000
    inst = make_instance(int(delta * d), d, 3, link, noise, gaussian_dist())
    spec = spectral_estimator(inst, pre)
    traj = run_gd(inst, loss, GdConfig(gamma, lam, 150), spec.theta0)
    ltr = long_time_compare(traj.theta, inst.theta_star, fp)

    ok = (min(ratios) >= 10.0 and tti_worst <= 0.02 and dev_r <= 0.05
          and ltr.w2_theta_inf <= 0.05)
    report("criterion-6 long-time DMFT", ok,
           f"diamond decay ratios={[f'{r:.0f}' for r in ratios]}, "
           f"TTI dev={tti_worst:.5f}, |sum R_theta - R_inf|={dev_r:.4f}, "
           f"long-time W2={ltr.w2_theta_inf:.4f}")
    assert min(ratios) >= 10.0
    assert tti_worst <= 0.02
    assert dev_r <= 0.05
    assert ltr.w2_theta_inf <= 0.05


# ---------------------------------------------------------------------------
# 7. Two-stage dynamic
# ---------------------------------------------------------------------------

def test_criterion_7_two_stage_dynamic():
    d, delta = 1000, 10.0
    inst = make_instance(int(delta * d), d, 4, abs_link(),
                         point_mass_dist(0.0), gaussian_dist())
    spec = spectral_estimator(inst, PRE3)
    res = two_stage_dynamic(inst, PRE3, RWF, PR_GAMMA, 0.0, T_stage=20, m=0)
    T = np.arange(2, 21)
    A = np.column_stack([T.astype(float), np.ones_like(T, dtype=float)])
    slope = np.linalg.lstsq(A, np.log(res.gaps[2:21]), rcond=None)[0][0]
    target = np.log(spec.lam2_emp / spec.lam1_emp)
    rel = abs(slope - target) / abs(target)

    res30 = two_stage_dynamic(inst, PRE3, RWF, PR_GAMMA, 0.0, T_stage=30, m=10)
    traj = run_gd(inst, RWF, GdConfig(PR_GAMMA, 0.0, 10), spec.theta0)
    stage2_dev = float(np.max(
        np.linalg.norm(res30.stage2.theta - traj.theta, axis=1)) / np.sqrt(d))

    ok = rel <= 0.20 and stage2_dev <= 1e-3
    report("criterion-7 two-stage dynamic", ok,
           f"log-gap slope={slope:.4f} vs log(lam2/lam1)={target:.4f} "
           f"(rel {rel:.3f}), stage-2 max dev={stage2_dev:.2e}")
    assert rel <= 0.20
    assert stage2_dev <= 1e-3


# ---------------------------------------------------------------------------
# 8. Numerical hygiene
# ---------------------------------------------------------------------------

def test_criterion_8_numerical_hygiene(tmp_path):
    # finite-difference derivative consistency at 1e-5 relative
    rng = np.random.default_rng(17)
    worst_fd = 0.0
    h = 1e-5
    for loss in (RWF, pseudo_huber_loss()):
        pts = rng.uniform(-2.5, 2.5, size=(100, 3))
        for a, b, c in pts:
            if loss is RWF and abs(abs(b) + c) < 0.05:
                continue
            fd_ell = (loss.L(a + h, b, c) - loss.L(a - h, b, c)) / (2 * h)
            fd_d1 = (loss.ell(a + h, b, c) - loss.ell(a - h, b, c)) / (2 * h)
            fd_d2 = (loss.ell(a, b + h, c) - loss.ell(a, b - h, c)) / (2 * h)
            worst_fd = max(
                worst_fd,
                abs(loss.ell(a, b, c) - fd_ell) / max(1.0, abs(fd_ell)),
                abs(loss.d1ell(a, b, c) - fd_d1) / max(1.0, abs(fd_d1)),
                abs(loss.d2ell(a, b, c) - fd_d2) / max(1.0, abs(fd_d2)))

    # PSD of every Gaussian covariance block before jitter
    link, noise = abs_link(), point_mass_dist(0.0)
    sol = solve_lambda_star(PRE3, link, noise, 10.0, QuadratureSpec())
    st = init_dmft(RWF, link, noise, PRE3, sol, 10.0, PR_GAMMA, 0.0,
                   MonteCarloSpec(K=30000, seed=1))
    run_dmft(st, 12)
    min_eig = min(min(st.w_proc.min_eig_before_jitter),
                  min(st.u_proc.min_eig_before_jitter))

    # bitwise reproducibility of a full pipeline under a fixed seed
    import filecmp
    from dmftsim.cli import main as cli_main
    cfg_text = """
[model]
n = 300
d = 150
link = abs
noise = point
signal = gaussian
seed = 3
[loss]
name = rwf
l_cut = 9.0
u_cut = 18.0
m_clip = 3.0
[algo]
gamma = 0.01
lambda_ridge = 0.1
m = 3
[spectral]
gh_nodes = 32
z_samples = 2000
[dmft]
K = 4000
seed = 2
[fixedpoint]
K = 4000
warm_start = dmft
[compare]
w2_tol = 1.0
cov_tol = 1.0
[outputs]
directory = {out}
stages = spectral,simulate,dmft,amp-check,compare
"""
    cfg_a = tmp_path / "a.ini"
    cfg_a.write_text(cfg_text.format(out=tmp_path / "out_a"))
    cfg_b = tmp_path / "b.ini"
    cfg_b.write_text(cfg_text.format(out=tmp_path / "out_b"))
    assert cli_main(["pipeline", "--config", str(cfg_a)]) == 0
    assert cli_main(["pipeline", "--config", str(cfg_b)]) == 0
    identical = all(
        filecmp.cmp(tmp_path / "out_a" / p.name, tmp_path / "out_b" / p.name,
                    shallow=False)
        for p in (tmp_path / "out_a").iterdir())

    ok = worst_fd <= 1e-5 and min_eig >= -1e-8 and identical
    report("criterion-8 numerical hygiene", ok,
           f"worst FD rel err={worst_fd:.2e}, min cov eig={min_eig:.2e}, "
           f"pipelines byte-identical={identical}")
    assert worst_fd <= 1e-5
    assert min_eig >= -1e-8
    assert identical
