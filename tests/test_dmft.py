"""Tests for the DMFT Monte Carlo engine: initialization identities, path
consistency, kernel estimation, the exact kernel reducer, and the
independent-init degeneration."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from dmftsim import dmft
from dmftsim.amp import AmpRun, onsager_from_dmft, se_check
from dmftsim.cli import _write_samples
from dmftsim.dmft import (
    DmftState,
    IncrementalGaussian,
    MonteCarloSpec,
    fmean,
    init_dmft,
    run_dmft,
    tti_diagnostics,
)
from dmftsim.fixed_point import warm_start_from_dmft
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
from dmftsim.spectral import LambdaStarSolution, QuadratureSpec, solve_lambda_star

PRE3 = phase_preprocess(3.0)
RWF = rwf_loss(smoothstep_profile(9.0, 18.0))


def pr_solution(delta=10.0):
    return solve_lambda_star(PRE3, abs_link(), point_mass_dist(0.0), delta,
                             QuadratureSpec())


def pr_state(K=4000, seed=1, gamma=0.01, lam=0.0, delta=10.0):
    return init_dmft(RWF, abs_link(), point_mass_dist(0.0), PRE3,
                     pr_solution(delta), delta, gamma, lam,
                     MonteCarloSpec(K=K, seed=seed))


def rebuilt(proc, j):
    """Coordinate j of an IncrementalGaussian rebuilt from its L row and the
    innovations, with the arithmetic of ``add``."""
    value = proc.innovations[j] * proc.L[j, j]
    for k in range(j):
        if proc.L[j, k] != 0.0:
            value += proc.L[j, k] * proc.innovations[k]
    return value


def zero_loss():
    zero = lambda a, b, c: np.zeros_like(np.asarray(a, dtype=float))
    return LossModel(name="zero", L=zero, ell=zero, d1ell=zero, d2ell=zero,
                     ell_bound=0.0)


# ---------------------------------------------------------------------------
# initialization identities
# ---------------------------------------------------------------------------

def test_eta0_equals_one_plus_T_times_w0():
    st = pr_state()
    run_dmft(st, 0)
    assert np.allclose(st.etas[0], (1.0 + st.Ty) * st.w0, atol=1e-13)


def test_r_eta_star_at_t0_is_d2ell():
    st = pr_state()
    run_dmft(st, 0)
    d2 = RWF.d2ell(st.etas[0], st.w_star, st.z)
    assert np.array_equal(st.r_eta_star[0], d2)


def test_exact_time_zero_kernels():
    st = pr_state()
    run_dmft(st, 3)
    assert st.C_theta[0, 0] == 1.0
    assert st.c_theta_star[0] == st.a
    assert st.C_eta_dia_dia == 1.0 - st.a**2
    assert st.r_theta_dia[0] == 1.0
    # the sample pool realizes the exact constants (pinned by construction)
    assert abs(fmean(st.thetas[0] ** 2) - 1.0) < 1e-12
    assert abs(fmean(st.thetas[0] * st.theta_star) - st.a) < 1e-12
    assert abs(fmean(st.u_dia * st.theta_star)) < 1e-12


def test_r_theta_one_step_equals_gamma():
    st = pr_state(gamma=0.037)
    run_dmft(st, 4)
    for t in range(4):
        assert st.R_theta[t + 1, t] == 0.037


def test_gamma_zero_freezes_theta_side():
    st = pr_state(gamma=0.0, K=2000)
    run_dmft(st, 3)
    for t in range(1, 4):
        assert np.array_equal(st.thetas[t], st.thetas[0])
        # t >= 1 kernels are sample means of bitwise-frozen paths; they agree
        # with the exact t = 0 constants to elementwise rounding
        assert abs(st.C_theta[t, t] - st.C_theta[0, 0]) < 1e-13
        assert abs(st.c_theta_star[t] - st.c_theta_star[0]) < 1e-13


def test_zero_loss_degenerates_to_pure_noise_dynamics():
    lam, gamma = 0.3, 0.1
    st = init_dmft(zero_loss(), abs_link(), point_mass_dist(0.0), PRE3,
                   pr_solution(), 10.0, gamma, lam, MonteCarloSpec(K=2000, seed=2))
    run_dmft(st, 4)
    assert rebuilt(st.w_proc, 1).tobytes() == st.w0.tobytes()
    for t in range(5):
        expect = st.Ty * st.w0 * st.r_theta_dia[t] + rebuilt(st.w_proc, 1 + t)
        assert np.allclose(st.etas[t], expect, atol=1e-14)
        assert abs(st.r_theta_dia[t] - (1 - gamma * lam) ** t) < 1e-14
        assert not np.any(st.r_eta_ts[t])


def test_response_pools_equal_path_major_recursion_bitwise():
    # reference: the recursion on (K, t) pools with a fresh temporary per
    # product; the (t, K) pools must hold the same bits, transposed
    st = pr_state(K=3000, seed=2, gamma=0.05)
    run_dmft(st, 6)
    pools = {0: np.zeros((st.K, 0))}
    for t in range(1, st.t_eta + 1):
        R_row = st.R_theta[t, :t]
        acc = np.zeros((st.K, t))
        for r in range(1, t):
            if R_row[r] != 0.0:
                acc[:, :r] -= R_row[r] * pools[r]
        for s in range(t):
            acc[:, s] -= st.d1_vals[s] * R_row[s]
        pools[t] = st.d1_vals[t][:, None] * acc
    assert np.any(st.r_eta_ts[st.t_eta])
    for t in range(st.t_eta + 1):
        assert st.r_eta_ts[t].shape == (t, st.K)
        assert st.r_eta_ts[t].tobytes() == pools[t].T.tobytes()


# ---------------------------------------------------------------------------
# the exact kernel reducer
# ---------------------------------------------------------------------------

def fsum_mean_outcome(x):
    """math.fsum(x) / x.size as its exact bits (float.hex keeps the sign of
    zero and nan), or the exception type it raises."""
    try:
        return (math.fsum(x) / x.size).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def fmean_outcome(x):
    try:
        return fmean(x).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def tie_case(rng, n, tail_sign):
    """n values whose exact sum is a rounding midpoint a + ulp(a)/2 moved
    by a tail far below an ulp: fsum rounds it toward the tail, while a
    float sum of the remainders loses the tail and breaks the tie to even.
    The other values cancel in exact pairs."""
    a = float(rng.standard_normal()) * 2.0 ** int(rng.integers(-30, 30))
    half = math.ulp(a) / 2
    tail = tail_sign * half * 2.0 ** -int(rng.integers(40, 400))
    pairs = rng.standard_normal((n - 3) // 2) * abs(a) * 10.0 ** rng.uniform(-3, 3)
    x = np.concatenate([[a, half, tail], pairs, -pairs, np.zeros((n - 3) % 2)])
    rng.shuffle(x)
    return x


def tie_cases():
    rng = np.random.default_rng(7)
    return {f"tie_{n}_{'+-'[i % 2]}{i // 2}": tie_case(rng, n, (1, -1)[i % 2])
            for n in (3, 4, 1000, 50_000) for i in range(4)}


def size_boundary_cases():
    """n = 2**k - 2, 2**k - 1 and 2**k, where 2**M >= n + 2 changes M,
    with every value just below max|x| (one sign, then mixed signs)."""
    rng = np.random.default_rng(11)
    cases = {}
    for k in (2, 3, 10, 16):
        for n in (2**k - 2, 2**k - 1, 2**k):
            top = np.nextafter(2.0 ** int(rng.integers(-20, 20)), 0.0)
            frac = 1.0 - rng.integers(0, 2**20, n) * 2.0**-52
            cases[f"boundary_{n}_same_sign"] = -top * frac
            cases[f"boundary_{n}_mixed"] = top * frac * rng.choice([-1.0, 1.0], n)
    return cases


def reducer_cases():
    rng = np.random.default_rng(2024)
    big = rng.standard_normal(500) * 1e16
    cancel = np.concatenate([big, -big, rng.standard_normal(7)])
    rng.shuffle(cancel)
    spread = rng.standard_normal(3000) * 10.0 ** rng.uniform(-280, 280, 3000)
    subnormal = rng.integers(-2**20, 2**20, 2000) * 5e-324
    zeros = rng.choice([0.0, -0.0], 64)
    mixed = rng.choice([0.0, -0.0, 1e-310, -1e-310, 5e-324, 2.5], 301)
    block = rng.standard_normal((5000, 9))
    return {
        "gaussian": rng.standard_normal(1000),
        "cancellation": cancel,
        "cancellation_to_zero": np.concatenate([big, -big[::-1]]),
        "cancellation_to_zero_shuffled": rng.permutation(np.concatenate([big, -big])),
        "cancellation_to_zero_below_an_ulp": np.array(
            [1.0, 2.0**-60, 3.0 * 2.0**-400, -1.0, -2.0**-60, -3.0 * 2.0**-400]),
        "exponent_spread": spread,
        "spread_with_cancellation": np.concatenate([spread, -spread[:1500]]),
        "all_large": rng.standard_normal(200) * 1e200,
        "subnormal": subnormal,
        "signed_zeros": zeros,
        "negative_zeros": -np.zeros(5),
        "zero_and_subnormal_mix": mixed,
        "single": np.array([-3.7e-5]),
        "single_negative_zero": np.array([-0.0]),
        "strided_column": block[:, 4],
        "reversed_view": block[::-1, 0],
        "K_1e5": rng.standard_normal(100_000) * rng.standard_normal(100_000),
        "heavy_tail": rng.standard_cauchy(50_000) ** 3,
        **tie_cases(),
        **size_boundary_cases(),
    }


@pytest.mark.parametrize("name", list(reducer_cases()))
def test_fmean_is_fsum_bitwise(name):
    x = reducer_cases()[name]
    assert fmean_outcome(x) == fsum_mean_outcome(x)


def test_fmean_of_a_block_is_the_1d_call_on_every_row():
    rng = np.random.default_rng(5)
    n = 1000
    rows = [rng.standard_normal(n), tie_case(rng, n, 1), tie_case(rng, n, -1),
            np.zeros(n), -np.zeros(n), rng.choice([0.0, -0.0], n),
            np.full(n, 1e300), np.r_[np.nan, np.ones(n - 1)],
            rng.integers(-9, 9, n) * 5e-324]
    block = np.array(rows)
    for b in (block, np.asfortranarray(block), block[::-1, ::-1]):
        means = fmean(b)
        assert means.shape == (len(rows),)
        assert [v.hex() for v in means.tolist()] == [fmean(row).hex() for row in b]
        assert [v.hex() for v in means.tolist()] == [fsum_mean_outcome(row) for row in b]
    assert fmean(np.empty((0, n))).shape == (0,)


def linear_independent_state(K=3000, seed=4):
    """The shipped linear pseudo-Huber model (independent init)."""
    link, noise, pre = linear_link(), gaussian_dist(0.3), phase_preprocess(2.0)
    sol = solve_lambda_star(pre, link, noise, 2.0,
                            QuadratureSpec(z_samples=10000, seed=1))
    return init_dmft(pseudo_huber_loss(), link, noise, pre, sol, 2.0, 0.2, 0.5,
                     MonteCarloSpec(K=K, seed=seed), independent_init=True)


def test_dmft_reductions_never_fall_back_to_a_whole_array_fsum(monkeypatch):
    # fmean's certificate calls math.fsum on short lists; its fallback calls
    # it on the array itself, which no DMFT reduction may reach
    fsum = math.fsum
    calls = {"list": 0}

    def list_only_fsum(values):
        assert not isinstance(values, np.ndarray), "fmean fell back to math.fsum"
        calls["list"] += 1
        return fsum(values)
    states = [pr_state(K=3000, seed=3), linear_independent_state()]
    monkeypatch.setattr(math, "fsum", list_only_fsum)
    for st in states:
        run_dmft(st, 6)
    assert calls["list"] > 0
    assert not np.any(states[1].r_eta_dia[6])    # all-zero rows included
    with pytest.raises(AssertionError, match="fell back"):
        fmean(np.array([1.0, np.inf]))


def test_fmean_is_fsum_bitwise_on_dmft_path_products():
    st = pr_state(K=3000, seed=2)
    run_dmft(st, 4)
    t = st.t_eta
    arrays = [st.ell_vals[t] * st.ell_vals[r] for r in range(t + 1)]
    arrays += [st.r_eta_ts[t][s] for s in range(t)]
    arrays += [st.r_eta_ts[t][0][::-1]]   # a strided view of a pool row
    arrays += [st.r_eta_star[t], st.r_eta_dia[t], st.r_eta_dd[t]]
    th = st.thetas[st.t_theta]
    arrays += [th * st.thetas[r] for r in range(st.t_theta + 1)]
    arrays += [th * st.theta_star, st.etas[0] * st.Ts_y]
    for x in arrays:
        assert fmean_outcome(x) == fsum_mean_outcome(x)
    assert any(not x.flags.c_contiguous for x in arrays)
    # the kernel rows as the steps reduce them, one block per row
    for block in (st.ell_vals[: t + 1] * st.ell_vals[t], st.r_eta_ts[t],
                  st.thetas[: st.t_theta + 1] * th):
        assert [v.hex() for v in fmean(block).tolist()] == [
            fsum_mean_outcome(x) for x in block]


@pytest.mark.parametrize("values", [
    [1.0, np.nan, 2.0],
    [1.0, np.inf, -5.0],
    [-np.inf, 3.0],
    [np.inf, -np.inf, 1.0],
    [np.nan, np.inf],
    [1e308, 1e308, -1e308],
    [2.0**1000, 1.0],
])
def test_fmean_special_values_match_fsum(values):
    x = np.array(values)
    assert fmean_outcome(x) == fsum_mean_outcome(x)


@pytest.mark.parametrize("x", [
    np.random.default_rng(8).standard_normal(1001).astype(np.float32),
    np.arange(-500, 1001, 7),
    np.empty(0),
], ids=["float32", "int", "empty"])
def test_fmean_hands_non_float64_and_empty_input_to_fsum(monkeypatch, x):
    fsum = math.fsum
    arrays = []

    def spy(values):
        if isinstance(values, np.ndarray):
            arrays.append(values)
        return fsum(values)
    monkeypatch.setattr(math, "fsum", spy)
    if x.size:
        assert fmean(x).hex() == (fsum(x) / x.size).hex()
    else:    # fsum(x) / x.size divides 0.0 by 0
        with pytest.raises(ZeroDivisionError):
            fmean(x)
    # one fsum of the whole row: the fallback, not extraction
    assert len(arrays) == 1 and arrays[0].dtype == x.dtype
    assert np.array_equal(arrays[0], x)


# ---------------------------------------------------------------------------
# determinism and path immutability
# ---------------------------------------------------------------------------

def test_bitwise_determinism():
    a = pr_state(K=3000, seed=9)
    b = pr_state(K=3000, seed=9)
    run_dmft(a, 5)
    run_dmft(b, 5)
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.etas, b.etas)
    assert np.array_equal(a.C_theta, b.C_theta)
    assert np.array_equal(a.C_eta, b.C_eta)
    assert np.array_equal(a.R_theta, b.R_theta)
    assert np.array_equal(np.array(a.R_eta_star), np.array(b.R_eta_star))


def test_horizon_prefix_immutability():
    short = pr_state(K=2500, seed=4)
    run_dmft(short, 3)
    long = pr_state(K=2500, seed=4)
    run_dmft(long, 6)
    for s in range(4):
        assert np.array_equal(short.etas[s], long.etas[s])
        assert np.array_equal(short.thetas[s], long.thetas[s])
        for a, b in ((short.w_proc, long.w_proc), (short.u_proc, long.u_proc)):
            assert np.array_equal(a.innovations[s], b.innovations[s])
            assert np.array_equal(a.L[s, : s + 1], b.L[s, : s + 1])
    assert np.array_equal(short.u_dia, long.u_dia)
    for name in ("u_mean", "u_sq_mean"):
        assert np.array_equal(getattr(short, name), getattr(long, name)[:3])
    n_th = short.C_theta.shape[0]
    assert np.array_equal(short.C_theta, long.C_theta[:n_th, :n_th])
    assert np.array_equal(short.C_eta, long.C_eta[:4, :4])


def _path_arrays(obj, K):
    """Names of the attributes of obj holding, directly or in a list, tuple
    or dict, an array with an axis of length K."""
    def holds(v):
        if isinstance(v, dict):
            return any(holds(x) for x in v.values())
        if isinstance(v, (list, tuple)):
            return any(holds(x) for x in v)
        return isinstance(v, np.ndarray) and K in v.shape
    return sorted(name for name, v in vars(obj).items() if holds(v))


def _kernel_bytes(st):
    """Every kernel, response and PSD diagnostic of a state, as bytes."""
    arr = lambda v: np.asarray(v, dtype=float).tobytes()
    out = {name: arr(getattr(st, name)) for name in (
        "C_theta", "R_theta", "c_theta_star", "r_theta_dia", "C_eta", "R_eta",
        "c_eta_dia", "R_eta_star", "R_eta_dia", "R_eta_dd", "Gamma", "e_d1",
        "e_d1_T_t0", "u_mean", "u_sq_mean")}
    for proc in (st.w_proc, st.u_proc):
        out[proc.label] = (arr(proc.min_eig_before_jitter), list(proc.zero_pivots),
                           arr(proc.L), arr(proc.S))
    return out


def test_release_paths_drops_path_arrays_and_keeps_kernels():
    # long enough for the TTI diagnostics and for zero pivots
    K, m = 2000, 32
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        full = long_time_state(K=K)
        run_dmft(full, m)
        rel = long_time_state(K=K)
        run_dmft(rel, m)
    assert rel.w_proc.zero_pivots or rel.u_proc.zero_pivots
    assert {"ell_vals", "r_eta_ts", "dd_source"} <= set(_path_arrays(rel, K))
    assert _path_arrays(rel.w_proc, K) == ["innovations"]
    rel.release_paths()
    # only the sample pools, their row views and u_diamond stay
    assert _path_arrays(rel, K) == ["etas", "theta_star", "thetas", "u_dia", "z"]
    assert _path_arrays(rel.w_proc, K) == [] and _path_arrays(rel.u_proc, K) == []
    for view, pool in ((rel.z, rel.etas), (rel.theta_star, rel.thetas)):
        assert np.shares_memory(view, pool)

    assert _kernel_bytes(rel) == _kernel_bytes(full)
    for a, b in ((rel.thetas, full.thetas), (rel.etas, full.etas),
                 (rel.u_dia, full.u_dia)):
        assert a.tobytes() == b.tobytes()
    # the readers after the DMFT stage see the same numbers
    a, b = tti_diagnostics(rel), tti_diagnostics(full)
    assert (a.fit_slope, a.tti_dev) == (b.fit_slope, b.tti_dev)
    ta, tb = onsager_from_dmft(rel, m), onsager_from_dmft(full, m)
    assert (ta.xi.tobytes(), ta.zeta.tobytes()) == (tb.xi.tobytes(), tb.zeta.tobytes())
    (Ca, Ra), (Cb, Rb) = warm_start_from_dmft(rel), warm_start_from_dmft(full)
    assert (Ra, Ca.tobytes()) == (Rb, Cb.tobytes())

    for step in (rel.step_eta, rel.step_theta):
        with pytest.raises(RuntimeError, match="released"):
            step()


def test_stepping_past_the_horizon_is_refused_before_any_write():
    st = pr_state(K=1000, seed=2)
    run_dmft(st, 4)
    before = {name: np.copy(v) for name, v in vars(st).items()
              if isinstance(v, np.ndarray)}
    rng_state = st.rng.bit_generator.state
    for step, t in ((st.step_theta, 5), (st.step_eta, 5)):
        with pytest.raises(RuntimeError,
                           match=f"sized for horizon 4; cannot step to t = {t}"):
            step()
    assert (st.t_eta, st.t_theta, st.u_proc.n, st.w_proc.n) == (4, 4, 5, 6)
    assert st.rng.bit_generator.state == rng_state
    for name, v in before.items():
        assert getattr(st, name).tobytes() == v.tobytes(), name


def test_kernel_symmetry_exact():
    st = pr_state(K=2000, seed=6)
    run_dmft(st, 5)
    assert np.array_equal(st.C_theta, st.C_theta.T)
    assert np.array_equal(st.C_eta, st.C_eta.T)


def test_covariances_psd_before_jitter():
    st = pr_state(K=20000, seed=3)
    run_dmft(st, 8)
    assert min(st.w_proc.min_eig_before_jitter) >= -1e-8
    assert min(st.u_proc.min_eig_before_jitter) >= -1e-8


def long_time_state(K=2000, seed=0):
    """The criterion-6 model (strongly convex, benign step size), whose
    Gaussian coordinates become numerically rank-deficient as t grows."""
    link = linear_link()
    noise = gaussian_dist(0.3)
    pre = phase_preprocess(2.0)
    sol = solve_lambda_star(pre, link, noise, 2.0,
                            QuadratureSpec(z_samples=30000, seed=1))
    return init_dmft(pseudo_huber_loss(), link, noise, pre, sol, 2.0, 0.08,
                     1.0, MonteCarloSpec(K=K, seed=seed))


def test_rank_deficient_covariance_gets_zero_pivots():
    short = long_time_state()
    run_dmft(short, 32)
    assert short.w_proc.zero_pivots or short.u_proc.zero_pivots
    long = long_time_state()
    with pytest.warns(RuntimeWarning, match="zero Cholesky pivot"):
        run_dmft(long, 40)
    for proc in (long.w_proc, long.u_proc):
        assert min(proc.min_eig_before_jitter) >= -1e-8
        for j in proc.zero_pivots:
            assert proc.L[j, j] == 0.0
            # the dependent coordinate's realized variance stays within the
            # Monte Carlo error of a sample variance of its target
            target = proc.S[j, j]
            realized = float(proc.L[j, : j + 1] @ proc.L[j, : j + 1])
            assert abs(realized - target) <= target * np.sqrt(2.0 / proc.K)
    # horizon-prefix immutability holds through the zero pivots
    for a, b in ((short.w_proc, long.w_proc), (short.u_proc, long.u_proc)):
        assert a.n < b.n
        assert np.array_equal(a.innovations[: a.n], b.innovations[: a.n])
        assert np.array_equal(a.L[: a.n, : a.n], b.L[: a.n, : a.n])
    assert short.t_eta < long.t_eta
    for s in range(short.t_eta + 1):
        assert np.array_equal(short.etas[s], long.etas[s])


@pytest.mark.parametrize("variance", [1.0, 1.0 - 0.37**2, 3.3e-5])
def test_first_coordinate_is_its_scaled_innovation(variance):
    # coordinate 0 runs the general path: the 1x1 block's eigenvalue is its
    # entry, and the solve over no earlier pivots leaves dsq = variance
    xi = np.random.default_rng(6).standard_normal(500)
    g = IncrementalGaussian(2, 500, "test-process")
    out = np.empty(500)
    value = g.add(np.zeros(0), variance, xi, out=out)
    assert value is out
    assert value.tobytes() == (xi * np.sqrt(variance)).tobytes()
    assert g.min_eig_before_jitter == [variance]
    assert g.L[0, 0] == np.sqrt(variance) and g.zero_pivots == []


def test_non_psd_block_is_refused():
    rng = np.random.default_rng(0)
    g = IncrementalGaussian(2, 100, "test-process")
    g.add(np.zeros(0), 1.0, rng.standard_normal(100))
    with pytest.raises(np.linalg.LinAlgError, match="test-process.*coordinate 1"):
        g.add(np.array([1.0]), 1.0 - 1e-4, rng.standard_normal(100))


def test_amplified_zero_pivot_is_refused():
    # x1 has pivot 1e-9, so a covariance c1 with x2 enters x2's factor row
    # as c1 / 1e-9; the block stays PSD to within 1e-9 either way
    rng = np.random.default_rng(0)
    K = 1000
    for c1, accepted in ((1e-11, True), (1e-9, False)):
        g = IncrementalGaussian(3, K, "test-process")
        g.add(np.zeros(0), 1.0, rng.standard_normal(K))
        g.add(np.array([0.0]), 1e-18, rng.standard_normal(K))
        if accepted:
            with pytest.warns(RuntimeWarning, match="zero Cholesky pivot"):
                g.add(np.array([1.0, c1]), 1.0, rng.standard_normal(K))
            assert g.zero_pivots == [2]
            assert g.L[2] @ g.L[2] == pytest.approx(1.0 + 1e-4)
        else:
            with pytest.raises(np.linalg.LinAlgError,
                               match="test-process: coordinate 2.*sqrt"):
                g.add(np.array([1.0, c1]), 1.0, rng.standard_normal(K))
        assert g.min_eig_before_jitter[-1] >= -1e-8


def test_sample_files_are_c_ordered_bytes_of_the_transposed_pools(tmp_path):
    # the dmft stage writes thetas.T and etas.T, Fortran-ordered views
    st = pr_state(K=1500, seed=8)
    run_dmft(st, 3)
    for name in ("thetas", "etas"):
        arr = getattr(st, name).T
        assert arr.flags.f_contiguous and not arr.flags.c_contiguous
        written = _write_samples(tmp_path / name, arr)
        np.save(tmp_path / "c_ordered.npy", np.array(arr, order="C"))
        assert written.read_bytes() == (tmp_path / "c_ordered.npy").read_bytes()


def test_dmft_law_shapes():
    # the law at horizon 0: theta^0 and theta*; eta^0, w* and z; u_diamond;
    # no u^t yet, so no u moments
    st = pr_state(K=1500, seed=8)
    run_dmft(st, 0)
    assert st.thetas.shape == (2, 1500)
    assert st.etas.shape == (3, 1500)
    assert st.u_dia.shape == (1500,)
    assert st.u_mean.shape == st.u_sq_mean.shape == (0,)


def _held_rows(st):
    """K-path rows held by a state and its two processes: the bytes of the
    arrays with a K axis, each buffer counted once (a view as its base),
    over the bytes of one row."""
    buffers = {}

    def visit(v):
        if isinstance(v, dict):
            v = list(v.values())
        if isinstance(v, (list, tuple)):
            for x in v:
                visit(x)
        elif isinstance(v, np.ndarray) and st.K in v.shape:
            base = v if v.base is None else v.base
            buffers[id(base)] = base.nbytes
    for obj in (st, st.u_proc, st.w_proc):
        visit(list(vars(obj).values()))
    return sum(buffers.values()) / (st.K * 8)


@pytest.mark.parametrize("independent", [False, True])
def test_dmft_holds_only_the_path_rows_a_later_step_or_stage_reads(independent):
    K, m = 1000, 5
    st = (linear_independent_state(K=K) if independent else pr_state(K=K, seed=3))
    run_dmft(st, m)
    rows = ((m + 2) + (m + 3)      # the theta pool (with theta*), the eta pool (w*, z)
            + 2 * (m + 1)          # ell and d1ell at eta^0..eta^m
            + m * (m + 1) // 2     # the per-path responses R_eta(t, s), s < t
            + 3 * (m + 1)          # the star, diamond and double-diamond channels
            + (m + 1) + (m + 2)    # the u and w innovations
            + 3                    # u_diamond, w^0 and the scratch row of w^t, u^t
            # T(y), Ts(y) and the double-diamond source, under spectral init
            + (0 if independent else 3))
    assert _held_rows(st) == rows
    st.release_paths()
    assert _held_rows(st) == (m + 2) + (m + 3) + 1     # the law: + u_diamond


def test_u_moments_are_those_of_each_drawn_u(monkeypatch):
    drawn = []
    add = IncrementalGaussian.add

    def capturing(self, *args, **kwargs):
        value = add(self, *args, **kwargs)
        if self.label == "u-process" and self.n > 1:     # u^t, not u_diamond
            drawn.append(value.copy())
        return value
    monkeypatch.setattr(IncrementalGaussian, "add", capturing)
    m, d = 4, 10
    st = pr_state(K=2000, seed=5)
    run_dmft(st, m)
    assert len(drawn) == m
    for t, u in enumerate(drawn):
        scaled = u / st.delta
        assert st.u_mean[t].hex() == fmean(scaled).hex()
        assert st.u_sq_mean[t].hex() == fmean(scaled**2).hex()
    # se_check compares a^i with the moments of u^{i-1}
    run = AmpRun(a_iters=np.zeros((m, d)), b_iters=np.zeros((m + 1, d)),
                 theta_rec=np.zeros((m + 1, d)), eta_rec=np.zeros((m + 1, d)))
    report = se_check(run, st, np.ones(d), np.ones(d))
    for i in range(1, m + 1):
        assert report[f"mean_a{i}"]["dmft"] == st.u_mean[i - 1]
        assert report[f"second_moment_a{i}"]["dmft"] == st.u_sq_mean[i - 1]


# ---------------------------------------------------------------------------
# validation and warnings
# ---------------------------------------------------------------------------

def _fake_solution(a):
    return LambdaStarSolution(lambda_star=10.0, lambda_bar=9.5, psi_prime=0.1,
                              phi_prime=-0.1, overlap_a=a, lam1_lim=1.0,
                              lam2_lim=0.9, tau=9.0)


def test_init_rejects_zero_overlap():
    with pytest.raises(ValueError, match="overlap"):
        init_dmft(RWF, abs_link(), point_mass_dist(0.0), PRE3,
                  _fake_solution(0.0), 10.0, 0.01, 0.0,
                  MonteCarloSpec(K=1000, seed=0))


def test_init_warns_small_overlap_and_small_K():
    with pytest.warns(RuntimeWarning, match="< 0.05"):
        init_dmft(RWF, abs_link(), point_mass_dist(0.0), PRE3,
                  _fake_solution(0.01), 10.0, 0.01, 0.0,
                  MonteCarloSpec(K=1000, seed=0))
    with pytest.warns(RuntimeWarning, match="small for kernel"):
        init_dmft(RWF, abs_link(), point_mass_dist(0.0), PRE3,
                  _fake_solution(0.8), 10.0, 0.01, 0.0,
                  MonteCarloSpec(K=500, seed=0))


def test_mc_spec_validation():
    with pytest.raises(ValueError):
        MonteCarloSpec(K=0)


def test_tti_requires_horizon():
    st = pr_state(K=1200, seed=5)
    run_dmft(st, 4)
    with pytest.raises(ValueError):
        tti_diagnostics(st)


# ---------------------------------------------------------------------------
# Monte Carlo consistency
# ---------------------------------------------------------------------------

def test_kernel_K_doubling_consistency():
    # bounded loss so the kernel integrands have O(1) scale
    link = linear_link()
    noise = gaussian_dist(0.3)
    pre = phase_preprocess(2.0)
    loss = pseudo_huber_loss()
    sol = solve_lambda_star(pre, link, noise, 2.0,
                            QuadratureSpec(z_samples=20000, seed=1))
    K = 40000
    vals = {}
    for kk in (K, 2 * K):
        st = init_dmft(loss, link, noise, pre, sol, 2.0, 0.1, 0.5,
                       MonteCarloSpec(K=kk, seed=13))
        run_dmft(st, 5)
        vals[kk] = (st.C_theta.copy(), st.C_eta.copy(),
                    np.array(st.R_eta_star), np.array(st.c_theta_star))
    tol = 5.0 / np.sqrt(K)
    for a, b in zip(vals[K], vals[2 * K]):
        assert np.max(np.abs(a - b)) <= tol


# ---------------------------------------------------------------------------
# independent-initialization degeneration
# ---------------------------------------------------------------------------

def reference_independent_dmft(loss, sigma_z, K, seed, m, delta, gamma, lam):
    """Minimal reference integrator with no spectral channel at all,
    replicating the engine's documented draw order and update arithmetic."""
    rng = np.random.default_rng(seed)
    z = sigma_z * rng.standard_normal(K)
    raw = 1.0 * rng.standard_normal(K)
    theta_star = raw / np.sqrt(fmean(raw**2))
    slot0 = rng.standard_normal(K)
    orth = slot0 - fmean(slot0 * theta_star) * theta_star
    theta = [orth / np.sqrt(fmean(orth**2))]

    C_theta = np.full((m + 2, m + 2), np.nan)
    C_theta[0, 0] = 1.0
    c_star = [0.0]
    r_theta = {0: np.zeros(0)}
    Lw_rows, w_inn, w_vals = [], [], []
    Lu_rows, u_inn, u_vals = [], [], []

    def grow(L_rows, innovations, values, cov, var, innov):
        idx = len(L_rows)
        if idx == 0:
            l = np.zeros(0)
            dsq = var
        else:
            Lmat = np.zeros((idx, idx))
            for j, row in enumerate(L_rows):
                Lmat[j, : j + 1] = row
            l = scipy.linalg.solve_triangular(Lmat, cov, lower=True)
            dsq = var - float(l @ l)
        jit = 0.0 if dsq > 0 else 1e-10
        diag = np.sqrt(dsq + jit)
        val = diag * innov
        for k in range(idx):
            if l[k] != 0.0:
                val = val + l[k] * innovations[k]
        L_rows.append(np.append(l, diag))
        innovations.append(innov)
        values.append(val)
        return val

    # u-process slot 0 mirrors the engine's inert diamond coordinate
    grow(Lu_rows, u_inn, u_vals, np.zeros(0), 1.0, theta[0])

    etas, ells, d1s, d2s = [], [], [], []
    r_star = []
    C_eta = np.zeros((0, 0))
    R_eta = {}
    R_eta_star, Gamma = [], []
    r_ts = {}

    for t in range(m + 1):
        if t == 0:
            w_star = grow(Lw_rows, w_inn, w_vals, np.zeros(0), 1.0,
                          rng.standard_normal(K))
            y = np.abs(w_star) + z
        cov = np.empty(t + 1)
        cov[0] = c_star[t]
        for s in range(t):
            cov[s + 1] = C_theta[t, s]
        w_t = grow(Lw_rows, w_inn, w_vals, cov, C_theta[t, t],
                   rng.standard_normal(K))
        R_row = r_theta[t]
        eta_t = w_t
        for s in range(t):
            if R_row[s] != 0.0:
                eta_t = eta_t - ells[s] * R_row[s]
        etas.append(eta_t)
        ells.append(np.asarray(loss.ell(eta_t, w_star, z), dtype=float))
        d1s.append(np.asarray(loss.d1ell(eta_t, w_star, z), dtype=float))
        d2s.append(np.asarray(loss.d2ell(eta_t, w_star, z), dtype=float))
        if t > 0:
            acc = np.zeros((K, t))
            for r in range(1, t):
                if R_row[r] != 0.0:
                    acc[:, :r] -= R_row[r] * r_ts[r]
            for s in range(t):
                acc[:, s] -= d1s[s] * R_row[s]
            r_ts[t] = d1s[t][:, None] * acc
        else:
            r_ts[0] = np.zeros((K, 0))
        acc_star = np.zeros(K)
        for r in range(t):
            if R_row[r] != 0.0:
                acc_star -= r_star[r] * R_row[r]
        r_star.append(d1s[t] * acc_star + d2s[t])

        newC = np.zeros((t + 1, t + 1))
        newC[:t, :t] = C_eta
        for r in range(t + 1):
            v = delta * fmean(ells[t] * ells[r])
            newC[t, r] = v
            newC[r, t] = v
        C_eta = newC
        R_eta[t] = np.array([delta * fmean(r_ts[t][:, s]) for s in range(t)])
        R_eta_star.append(delta * fmean(r_star[t]))
        Gamma.append(delta * fmean(d1s[t]))

        if t == m:
            break
        cov = np.empty(t + 1)
        cov[0] = 0.0
        for s in range(t):
            cov[s + 1] = C_eta[t, s]
        u_t = grow(Lu_rows, u_inn, u_vals, cov, C_eta[t, t],
                   rng.standard_normal(K))
        drift = -(lam + Gamma[t]) * theta[t] + u_t
        for s in range(t):
            if R_eta[t][s] != 0.0:
                drift = drift - R_eta[t][s] * theta[s]
        drift = drift - 0.0 * theta[0]
        drift = drift - (R_eta_star[t] + 0.0) * theta_star
        theta.append(theta[t] + gamma * drift)
        fac = 1.0 - gamma * lam - gamma * Gamma[t]
        new_r = np.empty(t + 1)
        new_r[:t] = fac * r_theta[t]
        for r in range(1, t):
            if R_eta[t][r] != 0.0:
                new_r[:r] -= gamma * R_eta[t][r] * r_theta[r]
        new_r[t] = gamma
        r_theta[t + 1] = new_r
        for r in range(t + 2):
            v = fmean(theta[t + 1] * theta[r])
            C_theta[t + 1, r] = v
            C_theta[r, t + 1] = v
        c_star.append(fmean(theta[t + 1] * theta_star))

    return C_theta[: m + 1, : m + 1], np.array(c_star), C_eta, R_eta, np.array(R_eta_star)


def test_independent_init_kernels_match_diamond_free_reference_bitwise():
    loss = pseudo_huber_loss()
    link = linear_link()
    sigma = 0.4
    K, seed, m, delta, gamma, lam = 3000, 21, 4, 2.0, 0.1, 0.5
    sol = solve_lambda_star(phase_preprocess(2.0), link, gaussian_dist(sigma),
                            delta, QuadratureSpec(z_samples=10000, seed=1))
    st = init_dmft(loss, link, gaussian_dist(sigma), phase_preprocess(2.0),
                   sol, delta, gamma, lam, MonteCarloSpec(K=K, seed=seed),
                   independent_init=True)
    run_dmft(st, m)
    # all spectral-channel kernels vanish identically
    assert all(v == 0.0 for v in st.r_theta_dia)
    assert all(v == 0.0 for v in st.R_eta_dia)
    assert all(v == 0.0 for v in st.R_eta_dd)
    assert all(v == 0.0 for v in st.c_eta_dia)

    C_th, c_star, C_eta, R_eta, R_star = reference_independent_dmft(
        loss, sigma, K, seed, m, delta, gamma, lam)
    assert np.array_equal(st.C_theta, C_th)
    assert np.array_equal(np.array(st.c_theta_star), c_star)
    assert np.array_equal(st.C_eta, C_eta)
    assert np.array_equal(np.array(st.R_eta_star), R_star)
    for t in range(m + 1):
        assert np.array_equal(st.R_eta[t, :t], R_eta[t])


def test_tti_diagnostics_on_contracting_run():
    link = linear_link()
    noise = gaussian_dist(0.3)
    pre = phase_preprocess(2.0)
    loss = pseudo_huber_loss()
    sol = solve_lambda_star(pre, link, noise, 2.0,
                            QuadratureSpec(z_samples=20000, seed=1))
    st = init_dmft(loss, link, noise, pre, sol, 2.0, 0.08, 1.0,
                   MonteCarloSpec(K=5000, seed=7))
    run_dmft(st, 14)
    rep = tti_diagnostics(st, max_lag=3)
    assert rep.fit_r2 >= 0.9
    assert rep.fit_slope < 0
    peak = np.argmax(rep.dia_theta)
    assert np.all(np.diff(rep.dia_theta[peak:]) <= 1e-12)
    assert rep.lags[1].shape == (14,)


# ---------------------------------------------------------------------------
# names the benchmark tracer reads and patches
# ---------------------------------------------------------------------------

def test_names_read_and_patched_by_the_benchmark_tracer(monkeypatch):
    # bench/tracer.py wraps fmean, IncrementalGaussian.add, the step methods
    # and the loss callables of a constructed state, and sizes the response
    # pool from r_eta_ts and the three alignment channels after run_dmft
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(dmft, "fmean", counting("fmean", dmft.fmean))
    monkeypatch.setattr(IncrementalGaussian, "add",
                        counting("add", IncrementalGaussian.add))
    assert callable(DmftState.step_eta) and callable(DmftState.step_theta)
    K, m = 1500, 4
    st = pr_state(K=K, seed=8)
    st.loss = dataclasses.replace(st.loss, **{
        f: counting(f, getattr(st.loss, f)) for f in ("ell", "d1ell", "d2ell")})
    run_dmft(st, m)

    assert (st.K, st.t_eta) == (K, m)
    assert isinstance(st.r_eta_ts, dict) and sorted(st.r_eta_ts) == list(range(m + 1))
    for t, pool in st.r_eta_ts.items():
        assert isinstance(pool, np.ndarray) and pool.shape == (t, K)
    for name in ("r_eta_star", "r_eta_dia", "r_eta_dd"):
        channel = getattr(st, name)
        assert isinstance(channel, list) and len(channel) == m + 1
        assert all(isinstance(a, np.ndarray) and a.shape == (K,) for a in channel)
    # one loss evaluation per step, one sample per Gaussian coordinate
    assert calls["ell"] == calls["d1ell"] == calls["d2ell"] == m + 1
    assert calls["add"] == (m + 1) + (m + 2)
    assert calls["fmean"] > 0
