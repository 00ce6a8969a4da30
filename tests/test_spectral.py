"""Tests for the spectral module: M_n, eigenpairs, the lambda* solve, and
the two-stage power-iteration dynamic."""

import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import dsyrk

from dmftsim import spectral
from dmftsim.config import load_config
from dmftsim.model import (
    ModelInstance,
    PreProcess,
    abs_link,
    gaussian_dist,
    linear_link,
    make_instance,
    phase_preprocess,
    point_mass_dist,
    rwf_loss,
    smoothstep_profile,
)
from dmftsim.spectral import (
    EtaIntegrals,
    QuadratureSpec,
    WeakRecoveryError,
    build_Mn,
    power_stage,
    solve_lambda_star,
    spectral_estimator,
    two_stage_dynamic,
)

PRE3 = phase_preprocess(3.0)


def small_instance(n=6, d=3, seed=0):
    return make_instance(n, d, seed, abs_link(), point_mass_dist(0.0),
                         gaussian_dist())


# ---------------------------------------------------------------------------
# build_Mn
# ---------------------------------------------------------------------------

def test_build_mn_zero_preprocess():
    zero_pre = PreProcess(name="zero", Ts=lambda y: np.zeros_like(np.asarray(y)),
                          Ts1=lambda y: np.zeros_like(np.asarray(y)),
                          tau=0.0)
    inst = small_instance()
    assert np.array_equal(build_Mn(inst, zero_pre), np.zeros((3, 3)))


def test_build_mn_matches_naive_sum():
    inst = small_instance()
    M = build_Mn(inst, PRE3)
    w = PRE3.Ts(inst.y)
    naive = np.zeros((inst.d, inst.d))
    for i in range(inst.n):
        naive += w[i] * np.outer(inst.X[i], inst.X[i])
    assert np.max(np.abs(M - naive)) <= 1e-12


def test_build_mn_single_row_rank_one():
    base = small_instance()
    inst = ModelInstance(n=1, d=3, X=base.X[:1], theta_star=base.theta_star,
                         eta_star=base.eta_star[:1], z=base.z[:1], y=base.y[:1])
    M = build_Mn(inst, PRE3)
    w = float(PRE3.Ts(inst.y)[0])
    assert np.linalg.matrix_rank(M, tol=1e-12) <= 1
    assert abs(np.trace(M) - w * np.sum(inst.X[0] ** 2)) <= 1e-14


@pytest.mark.parametrize("n", [300, 40])
def test_build_mn_blocked_matches_dense_product(monkeypatch, n):
    # block of 64 rows: n = 300 spans four full blocks and a remainder of
    # 44 rows, n = 40 is smaller than one block
    monkeypatch.setattr(spectral, "MN_ROW_BLOCK", 64)
    inst = make_instance(n, 30, 4, abs_link(), point_mass_dist(0.0),
                         gaussian_dist())
    M = build_Mn(inst, PRE3)
    w = PRE3.Ts(inst.y)
    dense = inst.X.T @ (w[:, None] * inst.X)
    assert np.array_equal(M, M.T)
    assert np.max(np.abs(M - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_build_mn_rejects_negative_preprocess():
    signed = PreProcess(name="signed", Ts=lambda y: np.asarray(y) - 0.5,
                        Ts1=lambda y: np.ones_like(np.asarray(y)),
                        tau=0.0)
    with pytest.raises(ValueError, match="signed"):
        build_Mn(small_instance(), signed)


def test_build_mn_makes_no_weighted_copy_of_X():
    inst = make_instance(8192, 256, 0, abs_link(), point_mass_dist(0.0),
                         gaussian_dist())
    block = spectral.MN_ROW_BLOCK * inst.d * 8
    tracemalloc.start()
    try:
        M = build_Mn(inst, PRE3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= M.nbytes + 2 * block + 2**20 < inst.X.nbytes


def build_Mn_tril_mirror(inst, pre):
    """build_Mn as it was before its in-place mirror: the lower triangle
    from the same syrk accumulation, mirrored through a d x d np.tril copy."""
    X = inst.X
    n, d = X.shape
    sw = np.sqrt(np.asarray(pre.Ts(inst.y), dtype=float))
    C = np.zeros((d, d), order="F")
    rows = spectral.MN_ROW_BLOCK
    for start in range(0, n, rows):
        B = sw[start:start + rows, None] * X[start:start + rows]
        C = dsyrk(1.0, B.T, beta=1.0, c=C, trans=0, lower=1, overwrite_c=1)
    C += np.tril(C, -1).T
    return C


@pytest.mark.parametrize("d", [30, 100, 600])
def test_build_mn_equals_tril_mirror_bitwise(monkeypatch, d):
    # d = 600 spans two full mirror blocks of 256 columns and a remainder
    monkeypatch.setattr(spectral, "MN_ROW_BLOCK", 64)
    inst = make_instance(2 * d, d, 5, abs_link(), point_mass_dist(0.0),
                         gaussian_dist())
    M = build_Mn(inst, PRE3)
    assert M.tobytes() == build_Mn_tril_mirror(inst, PRE3).tobytes()
    assert np.array_equal(M, M.T)


def test_build_mn_peak_memory_is_M_and_one_row_block(monkeypatch):
    # the row block is freed before the mirror, and the mirror makes no
    # d x d temporary: the peak is M_n plus the larger of the row block and
    # one mirror block, not 2 M_n plus the row block; the slack covers the
    # weight vectors and numpy's ufunc buffers for the transposed operand
    monkeypatch.setattr(spectral, "MN_ROW_BLOCK", 64)
    inst = make_instance(1024, 512, 0, abs_link(), point_mass_dist(0.0),
                         gaussian_dist())
    block = spectral.MN_ROW_BLOCK * inst.d * 8
    mirror = spectral.MN_MIRROR_BLOCK ** 2 * 8
    tracemalloc.start()
    try:
        M = build_Mn(inst, PRE3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= M.nbytes + max(block, mirror) + 2**18 < 2 * M.nbytes + block


# ---------------------------------------------------------------------------
# spectral_estimator
# ---------------------------------------------------------------------------

def planted_instance():
    # X = I_3, theta* = sqrt(3) e_1: M_n = diag(Ts(sqrt 3), Ts(0), Ts(0)).
    X = np.eye(3)
    theta_star = np.array([np.sqrt(3.0), 0.0, 0.0])
    link = abs_link()
    z = np.zeros(3)
    eta_star = X @ theta_star
    y = link.eval(eta_star, z)
    return ModelInstance(n=3, d=3, X=X, theta_star=theta_star,
                         eta_star=eta_star, z=z, y=y)


def test_spectral_estimator_planted_direction():
    inst = planted_instance()
    res = spectral_estimator(inst, PRE3)
    expected = np.array([np.sqrt(3.0), 0.0, 0.0])
    assert np.allclose(res.theta0, expected, atol=1e-12)
    assert res.theta0 @ inst.theta_star >= 0
    assert abs(np.sum(res.theta0**2) - inst.d) <= 1e-12


def test_spectral_estimator_eigen_residual():
    inst = make_instance(600, 150, 1, abs_link(), point_mass_dist(0.0),
                         gaussian_dist())
    res = spectral_estimator(inst, PRE3)
    M = build_Mn(inst, PRE3)
    v = res.theta0 / np.sqrt(inst.d)
    resid = np.linalg.norm(M @ v - res.lam1_emp * v)
    assert resid <= 1e-8 * res.lam1_emp


def test_top_two_eigs_lanczos_path_matches_dense():
    # against a dense LAPACK reference; the linear-link phase-clip M_n has a
    # top gap of only 1.5 % of lam1
    cases = [
        (make_instance(600, 150, 1, abs_link(), point_mass_dist(0.0),
                       gaussian_dist()), PRE3, 1.0),
        (make_instance(400, 200, 2, linear_link(), gaussian_dist(0.3),
                       gaussian_dist()), phase_preprocess(2.0), 0.02),
    ]
    for inst, pre, max_gap in cases:
        M = build_Mn(inst, pre)
        vals, vecs = scipy.linalg.eigh(M)
        assert vals[-1] - vals[-2] < max_gap * vals[-1]
        lam1, lam2, v = spectral.top_two_eigs(M)
        assert abs(lam1 - vals[-1]) <= 1e-12 * abs(vals[-1])
        assert abs(lam2 - vals[-2]) <= 1e-12 * abs(vals[-2])
        assert abs(v @ vecs[:, -1]) >= 1 - 1e-12
        again = spectral.top_two_eigs(M)
        assert again[0] == lam1 and again[1] == lam2
        assert np.array_equal(again[2], v)


def test_spectral_estimator_zero_matrix_rejected():
    zero_pre = PreProcess(name="zero", Ts=lambda y: np.zeros_like(np.asarray(y)),
                          Ts1=lambda y: np.zeros_like(np.asarray(y)),
                          tau=0.0)
    with pytest.raises(ValueError):
        spectral_estimator(small_instance(), zero_pre)


# ---------------------------------------------------------------------------
# solve_lambda_star
# ---------------------------------------------------------------------------

def grid_oracle_lambda_star(pre, link, noise, delta, quad):
    """Dense-grid crossing of zeta - phi (step 1e-4, refined by bisection)."""
    integ = EtaIntegrals(pre, link, noise, quad)
    tau = integ.tau

    def psi(lam):
        return lam * (1.0 / delta + integ.e_frac(lam))

    def psi_prime(lam):
        return 1.0 / delta + integ.e_frac(lam) - lam * integ.e_frac2(lam)

    # coarse minimizer of psi for the flattened zeta
    lo = tau + 1e-4
    grid = np.arange(lo, tau + 50.0, 1e-2)
    lam_bar = grid[np.argmin([psi(x) for x in grid])]
    for _ in range(60):  # refine by derivative bisection
        a, b = lam_bar - 1e-2, lam_bar + 1e-2
        mid = 0.5 * (a + b)
        a = max(a, lo)
        if psi_prime(mid) > 0:
            lam_bar = 0.5 * (a + mid)
        else:
            lam_bar = 0.5 * (mid + b)

    def f(lam):
        return psi(max(lam, lam_bar)) - lam * integ.e_g2frac(lam)

    xs = np.arange(lo, tau + 50.0, 1e-4)
    vals = np.array([f(x) for x in xs])
    sign = np.signbit(vals)
    idx = int(np.argmax(sign[:-1] != sign[1:]))
    a, b = xs[idx], xs[idx + 1]
    fa = f(a)
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def test_lambda_star_matches_grid_oracle():
    quad = QuadratureSpec(gh_nodes=64)
    sol = solve_lambda_star(PRE3, abs_link(), point_mass_dist(0.0), 10.0, quad)
    oracle = grid_oracle_lambda_star(PRE3, abs_link(), point_mass_dist(0.0),
                                     10.0, quad)
    assert abs(sol.lambda_star - oracle) <= 1e-6


def test_lambda_star_overlap_internal_consistency():
    sol = solve_lambda_star(PRE3, abs_link(), point_mass_dist(0.0), 10.0,
                            QuadratureSpec())
    assert sol.psi_prime > 0
    expected = np.sqrt(sol.psi_prime / (sol.psi_prime - sol.phi_prime))
    assert abs(sol.overlap_a - expected) <= 1e-14
    assert sol.lambda_star >= sol.lambda_bar > sol.tau
    assert sol.lam1_lim >= sol.lam2_lim


def test_lambda_star_overlap_monotone_in_delta():
    a10 = solve_lambda_star(PRE3, abs_link(), point_mass_dist(0.0), 10.0,
                            QuadratureSpec()).overlap_a
    a1000 = solve_lambda_star(PRE3, abs_link(), point_mass_dist(0.0), 1000.0,
                              QuadratureSpec()).overlap_a
    assert a1000 >= a10


def test_lambda_bar_local_minimality_and_root_residual():
    quad = QuadratureSpec()
    sol = solve_lambda_star(PRE3, abs_link(), point_mass_dist(0.0), 4.0, quad)
    integ = EtaIntegrals(PRE3, abs_link(), point_mass_dist(0.0), quad)

    def psi(lam):
        return lam * (1.0 / 4.0 + integ.e_frac(lam))

    assert psi(sol.lambda_bar) <= psi(sol.lambda_bar + 0.01)
    assert psi(sol.lambda_bar) <= psi(max(sol.lambda_bar - 0.01, sol.tau * 1.001))
    zeta = psi(max(sol.lambda_star, sol.lambda_bar))
    phi = sol.lambda_star * integ.e_g2frac(sol.lambda_star)
    assert abs(zeta - phi) <= 1e-8 * abs(phi)


def test_lambda_star_weak_recovery_error():
    with pytest.raises(WeakRecoveryError):
        solve_lambda_star(PRE3, linear_link(), gaussian_dist(1.0), 2.0,
                          QuadratureSpec(z_samples=5000, seed=1))


def solve_lambda_star_full(pre, link, noise, delta, quad, lam_bar=None):
    """(lambda_bar, lambda*) of solve_lambda_star with every bisection
    midpoint evaluated: today's golden section, bracket search and
    bisection loop without the certified signs."""
    integ = EtaIntegrals(pre, link, noise, quad)
    tau = integ.tau

    def psi(lam):
        return lam * (1.0 / delta + integ.e_frac(lam))

    def psi_prime(lam):
        return 1.0 / delta + integ.e_frac(lam) - lam * integ.e_frac2(lam)

    if lam_bar is None:
        lam_bar = spectral._golden_min(psi, psi_prime, tau)

    def root_fn(lam):
        return psi(max(lam, lam_bar)) - lam * integ.e_g2frac(lam)

    lo = lam_bar * (1.0 - 1e-9) + tau * 1e-9
    span = max(lam_bar - tau, 1.0)
    hi = lam_bar + span
    while root_fn(hi) <= 0:
        span *= 2.0
        hi = lam_bar + span
    f_lo = root_fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = root_fn(mid)
        if f_mid == 0.0:
            return lam_bar, mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= 1e-10:
            return lam_bar, 0.5 * (lo + hi)
    raise RuntimeError("no convergence")


def count_grid_evaluations(monkeypatch):
    calls = []
    for name in ("e_frac", "e_frac2", "e_g2frac", "e_g2frac2"):
        fn = getattr(EtaIntegrals, name)

        def counted(self, lam, fn=fn, name=name):
            calls.append((name, lam))
            return fn(self, lam)
        monkeypatch.setattr(EtaIntegrals, name, counted)
    return calls


@pytest.mark.parametrize("config", ["phase_retrieval", "linear_pseudo_huber"])
def test_lambda_star_keeps_the_bits_of_full_bisection(monkeypatch, config):
    cfg = load_config(Path(__file__).parents[1] / "configs" / f"{config}.ini")
    args = (cfg.pre, cfg.link, cfg.noise, cfg.delta, cfg.quadrature)
    lam_bar, lam_star = solve_lambda_star_full(*args)
    calls = count_grid_evaluations(monkeypatch)
    sol = solve_lambda_star(*args)
    assert sol.lambda_bar.hex() == lam_bar.hex()
    assert sol.lambda_star.hex() == lam_star.hex()
    # 143 and 157 grid evaluations with every midpoint evaluated
    assert len(calls) <= 100


@pytest.mark.parametrize("shift, certified", [
    (0.0, True), (-1e-7, True), (-1e-3, False)])
def test_lambda_star_covers_the_dip_of_psi_below_its_minimizer(
        monkeypatch, shift, certified):
    # lambda_bar moved below psi's minimizer: zeta - phi dips just above it,
    # by an amount the error bound covers once psi' > 0 a little higher up;
    # further down no such bound is certified and every midpoint is
    # evaluated
    args = (PRE3, abs_link(), point_mass_dist(0.0), 10.0, QuadratureSpec())
    golden = spectral._golden_min
    monkeypatch.setattr(spectral, "_golden_min",
                        lambda *a: golden(*a) * (1.0 + shift))
    bounds = []
    error = spectral._root_fn_error
    monkeypatch.setattr(spectral, "_root_fn_error",
                        lambda *a: bounds.append(error(*a)) or bounds[-1])
    sol = solve_lambda_star(*args)
    lam_bar, lam_star = solve_lambda_star_full(*args, lam_bar=sol.lambda_bar)
    assert sol.lambda_star.hex() == lam_star.hex()
    assert (bounds[0] is not None) == certified
    integ = EtaIntegrals(*args[:3], args[4])
    psi_prime = (1.0 / 10.0 + integ.e_frac(lam_bar)
                 - lam_bar * integ.e_frac2(lam_bar))
    assert (psi_prime < 0) == (shift < 0)


def test_lambda_star_bisects_every_midpoint_when_the_grid_leaves_0_tau(monkeypatch):
    # tau declared just below the grid's largest Ts: phi' <= 0 is not
    # certified there, so no error bound is, and every midpoint is evaluated
    pre = PreProcess(name="short-tau", Ts=PRE3.Ts, Ts1=PRE3.Ts1,
                     tau=PRE3.tau * (1.0 - 1e-10))
    args = (pre, abs_link(), point_mass_dist(0.0), 10.0, QuadratureSpec())
    assert EtaIntegrals(*args[:3], args[4]).Zs.max() > pre.tau
    bounds = []
    error = spectral._root_fn_error
    monkeypatch.setattr(spectral, "_root_fn_error",
                        lambda *a: bounds.append(error(*a)) or bounds[-1])
    sol = solve_lambda_star(*args)
    lam_bar, lam_star = solve_lambda_star_full(*args)
    assert bounds == [None]
    assert sol.lambda_bar.hex() == lam_bar.hex()
    assert sol.lambda_star.hex() == lam_star.hex()


def test_root_fn_error_bounds_the_rounding_of_zeta_minus_phi():
    # computed zeta - phi against its value in exact rational arithmetic on
    # a small grid, at points across a bracket around lambda*
    quad = QuadratureSpec(gh_nodes=16, z_samples=40, seed=2)
    args = (PRE3, abs_link(), gaussian_dist(0.3))
    delta = 10.0
    sol = solve_lambda_star(*args, delta, quad)
    integ = EtaIntegrals(*args, quad)
    lam_bar = sol.lambda_bar
    lo, hi = lam_bar * (1.0 - 1e-9) + integ.tau * 1e-9, 2.0 * sol.lambda_star

    def psi(lam):
        return lam * (1.0 / delta + integ.e_frac(lam))

    def phi(lam):
        return lam * integ.e_g2frac(lam)

    bound = spectral._root_fn_error(integ, delta, lam_bar,
                                    integ.e_frac(lam_bar),
                                    max(psi(lam_bar), psi(hi)) + phi(lo))
    assert bound is not None
    wZ, wZG2, Zs = ([Fraction(x) for x in a]
                    for a in (integ.wZ, integ.wZG2, integ.Zs))
    worst = 0.0
    for lam in np.linspace(lo, hi, 9):
        computed = psi(max(lam, lam_bar)) - phi(lam)
        x, y = Fraction(max(lam, lam_bar)), Fraction(lam)
        exact = (x * (1 / Fraction(delta) + sum(a / (x - z) for a, z in zip(wZ, Zs)))
                 - y * sum(a / (y - z) for a, z in zip(wZG2, Zs)))
        worst = max(worst, abs(Fraction(computed) - exact))
    assert 0 < worst <= bound


def test_admissibility_warning_reuses_the_tested_values(monkeypatch):
    calls = count_grid_evaluations(monkeypatch)
    test_admissibility_proxy_warns()
    probe = 1.0 * (1.0 + 1e-6)
    assert calls.count(("e_frac2", probe)) == 1
    assert calls.count(("e_g2frac", probe)) == 1


def test_eta_integrals_equal_direct_weighted_sums_bitwise():
    # Gaussian noise, so the grid has one column per z draw
    quad = QuadratureSpec(gh_nodes=32, z_samples=500, seed=3)
    noise = gaussian_dist(0.5)
    integ = EtaIntegrals(PRE3, abs_link(), noise, quad)
    nodes, gh_weights = np.polynomial.hermite.hermgauss(quad.gh_nodes)
    g = np.sqrt(2.0) * nodes
    zs = noise.sample(np.random.default_rng(quad.seed), quad.z_samples)
    assert np.unique(zs).size > 1
    G, Z = np.meshgrid(g, zs, indexing="ij")
    weights = np.outer(gh_weights / np.sqrt(np.pi),
                       np.full(zs.size, 1.0 / zs.size)).ravel()
    G2 = G.ravel() ** 2
    Zs = PRE3.Ts(abs_link().eval(G.ravel(), Z.ravel()))
    assert np.array_equal(integ.Zs, Zs)
    for lam in integ.tau + np.geomspace(1e-3, 10.0, 25):
        direct = {
            "e_frac": np.sum(weights * Zs / (lam - Zs)),
            "e_frac2": np.sum(weights * Zs / (lam - Zs) ** 2),
            "e_g2frac": np.sum(weights * Zs * G2 / (lam - Zs)),
            "e_g2frac2": np.sum(weights * Zs * G2 / (lam - Zs) ** 2),
        }
        for name, value in direct.items():
            assert getattr(integ, name)(lam).hex() == float(value).hex(), name


def test_near_pole_evaluation_refused():
    integ = EtaIntegrals(PRE3, abs_link(), point_mass_dist(0.0),
                         QuadratureSpec())
    with pytest.raises(ValueError):
        integ.e_frac(integ.tau * (1 + 1e-12))


def test_admissibility_proxy_warns():
    # Ts with essential sup approached only through a negligible tail: the
    # numeric divergence proxy fails and must WARN, not silently pass.
    weak = PreProcess(
        name="weak-tail",
        Ts=lambda y: np.minimum(np.abs(np.asarray(y, dtype=float)) / 10.0, 1.0),
        Ts1=lambda y: np.where(np.abs(y) < 10.0, np.sign(y) / 10.0, 0.0),
        tau=1.0,
    )
    with pytest.warns(RuntimeWarning, match="admissibility"):
        try:
            solve_lambda_star(weak, abs_link(), point_mass_dist(0.0), 4.0,
                              QuadratureSpec())
        except WeakRecoveryError:
            pass


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(gh_nodes=8)


# ---------------------------------------------------------------------------
# two-stage dynamic
# ---------------------------------------------------------------------------

def test_power_stage_fixed_point_at_exact_eigenvector():
    inst = planted_instance()
    loss = rwf_loss(smoothstep_profile(9.0, 18.0))
    res = two_stage_dynamic(inst, PRE3, loss, gamma=0.01, lambda_ridge=0.0,
                            T_stage=6, m=0)
    assert np.all(res.gaps <= 1e-12)


def test_two_stage_builds_Mn_once(monkeypatch):
    calls = []
    build = spectral.build_Mn

    def counted(inst, pre):
        calls.append(1)
        return build(inst, pre)
    monkeypatch.setattr(spectral, "build_Mn", counted)
    loss = rwf_loss(smoothstep_profile(9.0, 18.0))
    two_stage_dynamic(planted_instance(), PRE3, loss, gamma=0.01,
                      lambda_ridge=0.0, T_stage=2, m=0)
    assert len(calls) == 1


def test_power_stage_rejects_zero():
    M = np.zeros((3, 3))
    with pytest.raises(ZeroDivisionError):
        power_stage(M, np.ones(3), 2)


def test_two_stage_beta_converges_to_lam1():
    inst = make_instance(5000, 500, 2, abs_link(), point_mass_dist(0.0),
                         gaussian_dist())
    loss = rwf_loss(smoothstep_profile(9.0, 18.0))
    spec = spectral_estimator(inst, PRE3)
    res = two_stage_dynamic(inst, PRE3, loss, gamma=0.01, lambda_ridge=0.0,
                            T_stage=16, m=0)
    assert abs(res.betas[14] - spec.lam1_emp) / spec.lam1_emp <= 0.05


def test_two_stage_stage2_matches_spectral_gd():
    from dmftsim.gd import GdConfig, run_gd
    inst = make_instance(4000, 400, 5, abs_link(), point_mass_dist(0.0),
                         gaussian_dist())
    loss = rwf_loss(smoothstep_profile(9.0, 18.0))
    spec = spectral_estimator(inst, PRE3)
    res = two_stage_dynamic(inst, PRE3, loss, gamma=0.01, lambda_ridge=0.0,
                            T_stage=30, m=8)
    traj = run_gd(inst, loss, GdConfig(gamma=0.01, lambda_ridge=0.0, m=8),
                  spec.theta0)
    diffs = np.linalg.norm(res.stage2.theta - traj.theta, axis=1) / np.sqrt(inst.d)
    assert diffs.max() <= 1e-3
