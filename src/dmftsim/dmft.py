"""Monte Carlo integration of the discrete DMFT system for
spectral-initialized gradient descent.

Two scalar probability spaces are simulated by K paths each: the eta side
carries (z, w*, w^0..w^t) and per-path response recursions; the theta side
carries (theta*, u_diamond, u^0..u^t).  Gaussian coordinates are generated
through an incrementally grown Cholesky factor applied to per-path standard
normal innovations, so earlier coordinates never change as the horizon grows.
The law is the state's ``(t, K)`` theta and eta pools, u_diamond and the
per-t moments of u^t; its readers take the state.
Near the fixed point the covariance of these coordinates becomes numerically
rank-deficient; a coordinate that is linearly dependent on the earlier ones to
working precision gets a zero Cholesky pivot, and a covariance block that is
not positive semi-definite is refused with ``LinAlgError``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .model import LinkFunction, LossModel, PreProcess, ScalarDist, gaussian_dist
from .roots import UNIT_ROUNDOFF, sum_error
from .spectral import LambdaStarSolution

Array = np.ndarray

BASE_JITTER = 1e-10
JITTER_LADDER = (1e-8, 1e-6)
# relative eigenvalue floor below which a covariance block is not PSD
PSD_FLOOR = 1e-8


def fmean(x: Array, y: Optional[Array] = None) -> float | Array:
    """Mean of a 1-d array as its exactly rounded sum divided by its size;
    a 2-d ``(rows, K)`` block gives the array of its rows' means.  A
    ``(K,)`` y gives the bits of ``fmean(x * y)``, each row's product with y
    formed in one K-length buffer instead of a ``(rows, K)`` block.

    Returns the bits of ``math.fsum(x) / x.size`` (per row), so the result
    does not depend on summation order or thread count.  The sum is found by
    error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation", SIAM J. Sci. Comput. 31, 2008): with sigma = 2**(M + e),
    2**M >= n + 2 and max|x| < 2**e, the parts q = (x + sigma) - sigma are
    multiples of 2**-53 sigma whose sum is exact in any order, and the
    remainders p = x - q are exact.  numpy's sum of p is off by at most
    ``b = 2 sum_error(n) n 2**-53 sigma``; when the parts' sums plus the sum
    of p round to the same double with b subtracted and with b added, that
    double is the rounded sum, and otherwise p is extracted again.  All-zero
    input gives fsum's signed zero.
    Non-float64, empty or non-finite input, values of 2**900 or more and
    sigma below 2**-900 go to ``math.fsum`` itself.
    """
    rows = x if x.ndim == 2 else x[None]
    buf, prod = np.empty(rows.shape[1]), np.empty(rows.shape[1])
    sums = [_exact_sum(row if y is None else np.multiply(row, y, out=prod), buf)
            for row in rows]
    return np.array(sums) / rows.shape[1] if x.ndim == 2 else sums[0] / x.size


def _exact_sum(x: Array, buf: Array) -> float:
    """The correctly rounded sum of a 1-d x, with buf a work array of its
    size."""
    n = x.size
    if x.dtype != np.float64 or not n:
        return math.fsum(x)
    amax = max(x.max(), -x.min())
    if not amax < 2.0**900:          # nan, inf or too large
        return math.fsum(x)
    if amax == 0.0:
        return math.fsum([-0.0]) if np.signbit(x).all() else 0.0
    M = (n + 1).bit_length()         # 2**M >= n + 2
    err = 2.0 * sum_error(n) * n * UNIT_ROUNDOFF    # b / sigma
    taus = []
    p = x
    while True:
        sigma = math.ldexp(1.0, M + math.frexp(amax)[1])
        if sigma < 2.0**-900:
            return math.fsum(x)
        q = np.add(p, sigma, out=buf)
        q -= sigma
        taus.append(float(q.sum()))
        p = np.subtract(p, q, out=buf)
        p_sum = float(p.sum())
        b = err * sigma
        lo = math.fsum([*taus, p_sum, -b])
        if lo == math.fsum([*taus, p_sum, b]):
            return lo
        amax = max(p.max(), -p.min())
        if amax == 0.0:
            return math.fsum(taus)
        p = p.copy()                 # buf takes the next round's parts


@dataclass(frozen=True)
class MonteCarloSpec:
    K: int
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class IncrementalGaussian:
    """Jointly consistent Gaussian coordinates grown one at a time.

    Coordinate j equals sum_k L[j, k] xi_k for a lower-triangular L filled
    row by row from the target covariance S; the xi_k are per-path standard
    normal innovations supplied at creation of coordinate k.  L, S and the
    ``(dim, K)`` innovations are allocated once for ``dim`` coordinates;
    ``n`` of them are filled.  ``add`` writes each realized coordinate into
    a row its caller owns.

    A slightly negative Schur complement is absorbed by a diagonal jitter
    (``BASE_JITTER``, then ``JITTER_LADDER``).  Beyond the ladder, the
    coordinate is accepted as linearly dependent on the earlier ones when the
    block's smallest eigenvalue is at or above ``-PSD_FLOOR`` times its largest
    variance: it gets an exactly zero pivot (no innovation enters its value)
    and a ``RuntimeWarning``; triangular solves run over the nonzero-pivot
    coordinates only.  A block below that floor is not PSD and is refused with
    ``LinAlgError``.  The floor is relative, so it is looser than an absolute
    -1e-8 on ``min_eig_before_jitter`` when the largest variance exceeds 1.
    A zero pivot realizes variance ``variance - dsq`` for residual variance
    ``dsq < 0``; when that overshoot exceeds ``sqrt(2/K)`` of the variance,
    the Monte Carlo standard error of a sample variance over K paths, the
    coordinate is refused with ``LinAlgError`` too.
    """

    def __init__(self, dim: int, K: int, label: str):
        self.K = K
        self.label = label
        self.n = 0
        self.L = np.zeros((dim, dim))            # lower-triangular factor
        self.S = np.zeros((dim, dim))            # target covariance
        self.innovations = np.empty((dim, K))    # standard normals
        self.min_eig_before_jitter: list[float] = []
        self.zero_pivots: list[int] = []         # coordinates with L[j, j] = 0

    def add(self, cov_with_prev: Array, variance: float, innovation: Array,
            out: Optional[Array] = None) -> Array:
        """Append a coordinate with given covariances against the existing
        ones and marginal variance; returns its (K,) realization in out."""
        idx = self.n
        c = np.asarray(cov_with_prev, dtype=float)
        if c.shape != (idx,):
            raise ValueError(f"covariance vector must have length {idx}")
        # PSD diagnostic on the full covariance block, before any jitter.
        self.S[idx, :idx] = self.S[:idx, idx] = c
        self.S[idx, idx] = variance
        full = self.S[: idx + 1, : idx + 1]
        self.min_eig_before_jitter.append(float(scipy.linalg.eigvalsh(full)[0]))

        # zero-pivot rows are combinations of earlier rows; solve over the
        # nonzero pivots with l = 0 on zero-pivot columns
        keep = np.flatnonzero(np.diag(self.L)[:idx])
        l_part = np.zeros(idx)
        l_part[keep] = scipy.linalg.solve_triangular(
            self.L[np.ix_(keep, keep)], c[keep], lower=True)
        dsq = variance - float(l_part @ l_part)
        if dsq > 0.0:
            jitter = 0.0
        elif dsq + BASE_JITTER > 0.0:
            jitter = BASE_JITTER
        else:
            for jit in JITTER_LADDER:
                if dsq + jit > 0.0:
                    jitter = jit
                    warnings.warn(
                        f"{self.label}: escalated Cholesky jitter to {jit:g} "
                        f"for coordinate {idx} (residual variance {dsq:.3e})",
                        RuntimeWarning,
                    )
                    break
            else:
                min_eig = self.min_eig_before_jitter[-1]
                if min_eig < -PSD_FLOOR * float(np.max(np.diag(full))):
                    raise np.linalg.LinAlgError(
                        f"{self.label}: covariance block not PSD at "
                        f"coordinate {idx} (minimum eigenvalue {min_eig:.3e}, "
                        f"residual variance {dsq:.3e})")
                if -dsq > variance * math.sqrt(2.0 / self.K):
                    raise np.linalg.LinAlgError(
                        f"{self.label}: coordinate {idx} is linearly "
                        f"dependent on earlier ones, but a zero pivot would "
                        f"realize variance {variance - dsq:.3e} against "
                        f"{variance:.3e}, beyond the Monte Carlo error "
                        f"sqrt(2/K) of a sample variance")
                warnings.warn(
                    f"{self.label}: coordinate {idx} is linearly dependent "
                    f"on earlier ones to working precision (residual variance "
                    f"{dsq:.3e}); zero Cholesky pivot", RuntimeWarning)
                self.zero_pivots.append(idx)
                jitter = -dsq   # dsq + jitter == 0.0 exactly: a zero pivot
        diag = np.sqrt(dsq + jitter)
        self.innovations[idx] = innovation
        value = np.multiply(self.innovations[idx], diag, out=out)
        for k in range(idx):
            if l_part[k] != 0.0:
                value += l_part[k] * self.innovations[k]
        self.L[idx, :idx] = l_part
        self.L[idx, idx] = diag
        self.n = idx + 1
        return value


class DmftState:
    """Kernels, responses, and Monte Carlo path pools of the DMFT system.

    Its inputs are the loss, the link, the noise and signal laws, the
    pre-processing map (through T(u) = Ts(u) / (lambda* - Ts(u))), lambda*
    and the overlap a of ``lam_sol``, delta, the step size gamma, the ridge
    lambda and the Monte Carlo spec.  Spectral mode needs a in (0, 1] and
    seeds theta^0 = a theta* + u_diamond; ``independent_init`` seeds a
    theta^0 independent of theta*.  ``init_dmft`` is this class.

    ``allocate(m)`` (called by ``run_dmft``) sizes every pool and kernel once
    for horizon m, with time as the leading axis: the ``(m+2, K)`` theta pool
    ends with theta*, the ``(m+3, K)`` eta pool with w* and z, the kernels
    are ``(m+1, m+1)`` matrices, and the seven channels ``c_theta_star``,
    ``r_theta_dia``, ``c_eta_dia``, ``R_eta_star``, ``R_eta_dia``,
    ``R_eta_dd`` and ``e_d1`` are ``(m+1,)`` arrays indexed by t;
    ``Gamma = delta * e_d1``.  The steps write one row or entry at a time;
    the theta and eta pools, ``u_dia`` and the ``(m,)`` moments ``u_mean``
    and ``u_sq_mean`` of u^t / delta are the law.  w* is row ``etas[-2]``,
    w^0 is ``w0``, and w^t and u^t for t >= 1 pass through one ``scratch``
    row.  The per-path eta responses are the ``(t, K)`` views
    ``r_eta_ts[t]`` of one pool and the ``(K,)`` rows ``r_eta_star[t]``,
    ``r_eta_dia[t]`` and ``r_eta_dd[t]``, zero until step t writes them
    (the last two stay zero under independent init, as do ``R_eta_dia``
    and ``R_eta_dd``).
    """

    def __init__(
        self,
        loss: LossModel,
        link: LinkFunction,
        noise: ScalarDist,
        pre: PreProcess,
        lam_sol: LambdaStarSolution,
        delta: float,
        gamma: float,
        lambda_ridge: float,
        mc: MonteCarloSpec,
        signal: Optional[ScalarDist] = None,
        independent_init: bool = False,
    ):
        if not independent_init:
            if not (0.0 < lam_sol.overlap_a <= 1.0):
                raise ValueError(
                    f"spectral DMFT needs overlap a in (0, 1], got {lam_sol.overlap_a}; "
                    "the alignment channel is undefined without weak recovery")
            if lam_sol.overlap_a < 0.05:
                warnings.warn(
                    f"overlap a={lam_sol.overlap_a:.3g} < 0.05: Monte Carlo error in "
                    "C_eta(t, dia) may dominate", RuntimeWarning)
        if mc.K < 1000:
            warnings.warn(f"K={mc.K} < 1000 is small for kernel estimation",
                          RuntimeWarning)
        self.loss = loss
        self.link = link
        self.noise = noise
        self.signal = signal = signal or gaussian_dist(1.0)
        self.pre = pre
        self.lam_star = float(lam_sol.lambda_star)
        self.a = float(lam_sol.overlap_a)
        self.delta = float(delta)
        self.gamma = float(gamma)
        self.lambda_ridge = float(lambda_ridge)
        self.K = mc.K
        self.independent_init = independent_init
        self.rng = np.random.default_rng(mc.seed)
        if abs(signal.second_moment - 1.0) > 1e-12:
            warnings.warn(
                "signal second moment != 1; DMFT normalization assumes "
                "E[(theta*)^2] = 1", RuntimeWarning)
        self.m: Optional[int] = None    # horizon, set by allocate

        self.C_star_star = 1.0
        self.C_eta_dia_dia = 1.0 - self.a**2
        self.e_d1_T_t0: Optional[float] = None  # E[d1ell(eta^0,..)(1 + T(y))]
        self.Ty = 0.0       # T(y), set at eta^0 under spectral init only
        self.t_eta = -1     # last t with eta^t computed
        self.t_theta = 0    # last t with theta^t computed
        self.released = False

    def allocate(self, m: int) -> None:
        """Size every pool and kernel for horizon m and write the t = 0 rows:
        z, theta*, and theta^0 = a theta* + u_diamond."""
        if self.m is not None:
            raise RuntimeError(f"DMFT state is already sized for horizon {self.m}")
        self.m = m
        K = self.K
        self.thetas = np.empty((m + 2, K))      # theta^0..theta^m, theta*
        self.etas = np.empty((m + 3, K))        # eta^0..eta^m, w*, z
        self.ell_vals = np.empty((m + 1, K))
        self.d1_vals = np.empty((m + 1, K))
        # per-path eta responses in zero-filled pools: r_eta_ts[t] is the
        # (t, K) block of one triangular pool, and each channel's t-th entry
        # is row t of its own (m+1, K) pool
        tri = np.zeros((m * (m + 1) // 2, K))
        self.r_eta_ts = {t: tri[t * (t - 1) // 2: t * (t + 1) // 2]
                         for t in range(m + 1)}
        self.r_eta_star, self.r_eta_dia, self.r_eta_dd = (
            list(pool) for pool in np.zeros((3, m + 1, K)))
        self.u_proc = IncrementalGaussian(m + 1, K, "u-process")  # u_dia, u^0..u^{m-1}
        self.w_proc = IncrementalGaussian(m + 2, K, "w-process")  # w*, w^0..w^m
        self.u_dia, self.w0, self.scratch = (np.empty(K) for _ in range(3))
        self.u_mean, self.u_sq_mean = np.zeros((2, m))
        self.C_theta = np.zeros((m + 1, m + 1))
        self.C_eta = np.zeros((m + 1, m + 1))
        self.R_theta = np.zeros((m + 1, m + 1))   # R_theta(t, s), s < t
        self.R_eta = np.zeros((m + 1, m + 1))     # R_eta(t, s), s < t
        self.c_theta_star = np.zeros(m + 1)
        self.r_theta_dia = np.zeros(m + 1)        # deterministic theta responses
        self.c_eta_dia = np.zeros(m + 1)
        self.R_eta_star = np.zeros(m + 1)
        self.R_eta_dia = np.zeros(m + 1)
        self.R_eta_dd = np.zeros(m + 1)
        self.e_d1 = np.zeros(m + 1)               # E[d1ell(eta^t, w*, z)]

        # Draw order is fixed: z, theta*, slot-0 innovation.  Later
        # innovations are drawn one column per step so that runs to different
        # horizons share an identical stream prefix.
        self.z = self.etas[-1]
        self.z[:] = self.noise.sample(self.rng, K)
        theta_star = np.asarray(self.signal.sample(self.rng, K), dtype=float)
        # pin the C_theta(*,*) = 1 invariant exactly on the sample pool
        self.theta_star = self.thetas[-1]
        np.divide(theta_star, np.sqrt(fmean(theta_star**2)), out=self.theta_star)
        slot0 = self.rng.standard_normal(K)
        # In-sample orthogonalization of the slot-0 draw against theta*: the
        # t = 0 kernels are exact constants (C(0,0) = 1, C(0,*) = a), and the
        # sampling covariance of (w*, w^0, ...) is the sample Gram matrix of
        # the theta pool, so the pool must realize those constants exactly or
        # the mixed matrix loses positive semi-definiteness at MC-noise scale.
        orth = slot0 - fmean(slot0 * self.theta_star) * self.theta_star
        unit = orth / np.sqrt(fmean(orth**2))

        if self.independent_init:
            self.u_proc.add(np.zeros(0), 1.0, unit, out=self.u_dia)  # inert coordinate
            self.thetas[0] = unit
        else:
            self.u_proc.add(np.zeros(0), 1.0 - self.a**2, unit, out=self.u_dia)
            np.add(self.a * self.theta_star, self.u_dia, out=self.thetas[0])
            self.c_theta_star[0] = self.a
            self.r_theta_dia[0] = 1.0
        self.C_theta[0, 0] = 1.0

    @property
    def Gamma(self) -> Array:
        """delta * E[d1ell(eta^t, w*, z)] for t = 0..m."""
        return self.delta * self.e_d1

    def release_paths(self) -> None:
        """Drop every K-path array that only the steps read.  The law (the
        pools ``thetas`` and ``etas``, their views ``z`` and ``theta_star``,
        ``u_dia`` and the u moments), kernels, responses and PSD diagnostics
        stay; the state can no longer be stepped."""
        self.ell_vals = self.d1_vals = self.w_star = self.w0 = self.scratch = None
        self.Ty = self.Ts_y = self.dd_source = None
        self.r_eta_ts, self.r_eta_star, self.r_eta_dia, self.r_eta_dd = {}, [], [], []
        self.w_proc.innovations = self.u_proc.innovations = None
        self.released = True

    def _check_steppable(self, t: int) -> None:
        """Refuse a step that would write time t: after ``release_paths``,
        before ``allocate`` or past the allocated horizon."""
        if self.released:
            raise RuntimeError("DMFT state was released by release_paths(); "
                               "its step arrays are gone and it cannot be stepped")
        if self.m is None or t > self.m:
            raise RuntimeError(f"DMFT state is sized for horizon {self.m}; "
                               f"cannot step to t = {t}")

    # -- eta step ----------------------------------------------------------

    def step_eta(self) -> None:
        """Compute eta^t and all eta-side kernels at t = t_eta + 1; needs
        theta^t (``run_dmft`` keeps that order)."""
        t = self.t_eta + 1
        self._check_steppable(t)
        K = self.K
        ell, d1ell, d2ell = self.loss.ell, self.loss.d1ell, self.loss.d2ell

        if t == 0:
            self.w_star = self.w_proc.add(np.zeros(0), self.C_star_star,
                                          self.rng.standard_normal(K), out=self.etas[-2])
        # covariance of w^t against (w*, w^0..w^{t-1}), then variance C_theta(t,t)
        cov = np.empty(t + 1)
        cov[0] = self.c_theta_star[t]
        cov[1:] = self.C_theta[t, :t]
        w_t = self.w_proc.add(cov, self.C_theta[t, t], self.rng.standard_normal(K),
                              out=self.scratch if t else self.w0)

        if t == 0 and not self.independent_init:
            y = np.asarray(self.link.eval(self.w_star, self.z), dtype=float)
            self.Ts_y = np.asarray(self.pre.Ts(y), dtype=float)
            self.Ty = self.Ts_y / (self.lam_star - self.Ts_y)     # T(y)
            # T'(y) = lambda* Ts'(y) / (lambda* - Ts(y))^2
            self.dd_source = (
                self.lam_star * np.asarray(self.pre.Ts1(y), dtype=float)
                / (self.lam_star - self.Ts_y) ** 2
                * np.asarray(self.link.du(self.w_star, self.z), dtype=float)
                * w_t
            )

        R_row = self.R_theta[t]
        eta_t = self.etas[t]
        np.add(w_t, self.Ty * self.w0 * self.r_theta_dia[t], out=eta_t)
        for s in range(t):
            if R_row[s] != 0.0:
                eta_t -= self.ell_vals[s] * R_row[s]

        self.ell_vals[t] = ell(eta_t, self.w_star, self.z)
        self.d1_vals[t] = d1ell(eta_t, self.w_star, self.z)
        ell_t, d1_t = self.ell_vals[t], self.d1_vals[t]
        d2_t = np.asarray(d2ell(eta_t, self.w_star, self.z), dtype=float)

        # per-path responses, row s of r_eta_ts[t] is R_eta(t, s) on the K
        # paths: each row is finished in place before the next, its products
        # formed in one K-length buffer
        resp = self.r_eta_ts[t]
        tmp = np.empty(K)
        for s, row in enumerate(resp):
            for r in range(s + 1, t):
                if R_row[r] != 0.0:
                    row -= np.multiply(self.r_eta_ts[r][s], R_row[r], out=tmp)
            row -= np.multiply(self.d1_vals[s], R_row[s], out=tmp)
            row *= d1_t

        # the three alignment channels: star (source d2ell), diamond (source
        # T(y)) and double diamond (source dd_source).  Under independent
        # init r_theta_dia is 0, so are the last two, and they stay unwritten
        pools = [self.r_eta_star]
        if not self.independent_init:
            dia = self.r_theta_dia[t]
            np.multiply(self.Ty, dia, out=self.r_eta_dia[t])
            np.multiply(self.dd_source, dia, out=self.r_eta_dd[t])
            pools += [self.r_eta_dia, self.r_eta_dd]
        for pool in pools:
            acc = pool[t]
            for r in range(t):
                if R_row[r] != 0.0:
                    acc -= np.multiply(pool[r], R_row[r], out=tmp)
            acc *= d1_t
        self.r_eta_star[t] += d2_t

        # kernels, one reduction per row
        self.C_eta[t, : t + 1] = self.C_eta[: t + 1, t] = self.delta * fmean(
            self.ell_vals[: t + 1], ell_t)
        if not self.independent_init:
            self.c_eta_dia[t] = (
                -(self.delta / self.lam_star) * fmean(ell_t * self.Ts_y * self.etas[0]))
            self.R_eta_dia[t] = self.delta * fmean(self.r_eta_dia[t])
            self.R_eta_dd[t] = self.delta * fmean(self.r_eta_dd[t])
        self.R_eta[t, :t] = self.delta * fmean(resp)
        self.R_eta_star[t] = self.delta * fmean(self.r_eta_star[t])
        self.e_d1[t] = fmean(d1_t)
        if t == 0 and not self.independent_init:
            self.e_d1_T_t0 = fmean(d1_t * (1.0 + self.Ty))
        self.t_eta = t

    # -- theta step --------------------------------------------------------

    def step_theta(self) -> None:
        """Compute theta^{t+1} and theta-side kernels at t = t_theta; needs
        the eta side at t (``run_dmft`` keeps that order)."""
        t = self.t_theta
        self._check_steppable(t + 1)
        K = self.K
        gamma, lam = self.gamma, self.lambda_ridge

        # extend (u_dia, u^0..u^{t-1}) by u^t
        cov = np.empty(t + 1)
        cov[0] = self.c_eta_dia[t]
        cov[1:] = self.C_eta[t, :t]
        u_t = self.u_proc.add(cov, self.C_eta[t, t], self.rng.standard_normal(K),
                              out=self.scratch)

        R_row = self.R_eta[t]
        gamma_t = self.delta * self.e_d1[t]
        drift = -(lam + gamma_t) * self.thetas[t] + u_t
        for s in range(t):
            if R_row[s] != 0.0:
                drift -= R_row[s] * self.thetas[s]
        drift -= self.R_eta_dia[t] * self.thetas[0]
        drift -= (self.R_eta_star[t] + self.R_eta_dd[t]) * self.theta_star
        theta_next = self.thetas[t + 1]
        np.add(self.thetas[t], gamma * drift, out=theta_next)
        # the moments se_check reads: fmean's sums, but not kernel reductions
        u_scaled, buf = np.divide(u_t, self.delta, out=u_t), np.empty(K)
        self.u_mean[t] = _exact_sum(u_scaled, buf) / K
        self.u_sq_mean[t] = _exact_sum(np.square(u_scaled, out=u_scaled), buf) / K

        # deterministic responses
        R = self.R_theta
        fac = 1.0 - gamma * lam - gamma * gamma_t
        R[t + 1, :t] = fac * R[t, :t]
        for r in range(1, t):
            if R_row[r] != 0.0:
                R[t + 1, :r] -= gamma * R_row[r] * R[r, :r]
        R[t + 1, t] = gamma
        dia = fac * self.r_theta_dia[t] - gamma * self.R_eta_dia[t]
        for r in range(t):
            if R_row[r] != 0.0:
                dia -= gamma * R_row[r] * self.r_theta_dia[r]
        self.r_theta_dia[t + 1] = dia

        # correlation kernels
        self.C_theta[t + 1, : t + 2] = self.C_theta[: t + 2, t + 1] = fmean(
            self.thetas[: t + 2], theta_next)
        self.c_theta_star[t + 1] = fmean(theta_next * self.theta_star)
        self.t_theta = t + 1

init_dmft = DmftState    # the name its callers construct the state by


def run_dmft(state: DmftState, m: int) -> None:
    """Size the state for horizon m and run the steps in their one order:
    eta^0, then theta^{t+1} and eta^{t+1} for t = 0..m-1.  The state's
    pools then hold the law at horizon m."""
    if m < 0:
        raise ValueError("horizon m must be >= 0")
    state.allocate(m)
    state.step_eta()
    for _ in range(m):
        state.step_theta()
        state.step_eta()


# ---------------------------------------------------------------------------
# Long-time diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TtiReport:
    lags: dict                # lag s -> array of R_theta(t+s, t) over t
    dia_theta: Array          # |R_theta(t, dia)|
    dia_eta: Array            # |R_eta(t, dia)|
    dd_eta: Array             # |R_eta(t, dd)|
    fit_slope: float
    fit_r2: float
    tti_dev: dict             # lag s -> max |R(t+s,t) - R(t'+s,t')| over window
    window: tuple


def tti_diagnostics(state: DmftState, max_lag: int = 5,
                    window: Optional[tuple] = None) -> TtiReport:
    """Time-translation-invariance and decay diagnostics of the responses."""
    m = state.t_eta
    if m < 10:
        raise ValueError("need horizon >= 10 for TTI diagnostics")
    R = state.R_theta
    # lags[s][t] = R_theta(t + s, t) for t = 0..m-s
    lags = {s: np.diagonal(R, -s).copy() for s in range(1, max_lag + 1)}
    if window is None:
        window = (int(0.75 * m), m - 1)
    lo, hi = window
    tti_dev = {}
    for s in range(1, max_lag + 1):
        vals = lags[s][lo: hi + 1]
        tti_dev[s] = float(np.max(vals) - np.min(vals)) if len(vals) > 1 else 0.0

    fit_base = max(0, m - 10)
    ss = np.arange(1, m - fit_base + 1)
    vals = np.abs(R[fit_base + ss, fit_base])
    good = vals > 0
    slope, r2 = np.nan, np.nan
    if np.sum(good) >= 3:
        x = ss[good].astype(float)
        ylog = np.log(vals[good])
        A = np.vander(x, 2)   # columns x and 1
        coef, *_ = np.linalg.lstsq(A, ylog, rcond=None)
        pred = A @ coef
        ssr = float(np.sum((ylog - pred) ** 2))
        sst = float(np.sum((ylog - np.mean(ylog)) ** 2))
        slope = float(coef[0])
        r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    return TtiReport(
        lags=lags,
        dia_theta=np.abs(state.r_theta_dia[: m + 1]),
        dia_eta=np.abs(state.R_eta_dia[: m + 1]),
        dd_eta=np.abs(state.R_eta_dd[: m + 1]),
        fit_slope=slope,
        fit_r2=r2,
        tti_dev=tti_dev,
        window=(lo, hi),
    )
