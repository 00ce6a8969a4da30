"""Spectral initialization: the matrix M_n, its leading eigenpair, the
asymptotic overlap/eigenvalue solve, and the two-stage power-iteration
dynamic used to probe the first-stage convergence rate."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import halves, roots
from .gd import GdConfig, Trajectory, run_gd
from .model import LinkFunction, LossModel, ModelInstance, PreProcess, ScalarDist

Array = np.ndarray

ADMISSIBILITY_FLOOR = 1e3
POLE_GUARD = 1e-9
MN_ROW_BLOCK = 2048   # rows of X weighted and accumulated per syrk call
MN_MIRROR_BLOCK = 256  # columns of M_n mirrored per step


class WeakRecoveryError(RuntimeError):
    """No sign change found for zeta - phi: weak recovery likely fails."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature for expectations over G ~ N(0,1), z ~ P(z), Y = phi(G, z).

    Gauss-Hermite in G; z enumerated exactly for point masses, else Monte
    Carlo with a fixed seed.
    """

    gh_nodes: int = 64
    z_samples: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.gh_nodes < 16:
            raise ValueError("gh_nodes must be >= 16")
        if self.z_samples < 1:
            raise ValueError("z_samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class LambdaStarSolution:
    lambda_star: float
    lambda_bar: float
    psi_prime: float
    phi_prime: float
    overlap_a: float
    lam1_lim: float
    lam2_lim: float
    tau: float


@dataclass(frozen=True)
class SpectralResult:
    theta0: Array
    lam1_emp: float
    lam2_emp: float
    overlap_emp: float


@dataclass(frozen=True)
class TwoStageResult:
    stage1_theta: Array      # (T+1, d): power iterates from theta*
    betas: Array             # (T,): empirical normalizations ||M theta|| / sqrt(d)
    gaps: Array              # (T+1,): ||theta_T - sqrt(d) theta_hat|| / sqrt(d)
    stage2: Trajectory


def build_Mn(inst: ModelInstance, pre: PreProcess) -> Array:
    """M_n = X^T diag(Ts(y)) X, exactly symmetric.

    Row blocks of sqrt(Ts(y)) X (MN_ROW_BLOCK rows, one reused buffer) are
    accumulated by ``halves.syrk_lower`` into the lower triangle of one
    Fortran-ordered matrix: BLAS syrk, split in two from d >=
    halves.MIN_SPLIT on for blocks of a multiple of halves.SYRK_ROWS rows,
    with the bits of one syrk call.  The buffer is freed, and the lower
    triangle is mirrored into the upper one in place, MN_MIRROR_BLOCK
    columns at a time, so no d x d temporary is made.  The upper triangle is
    exactly zero before the mirror, so each of its entries becomes 0 + x, as
    a full-matrix mirror gives.  No weighted copy of X is made, and the flops
    are half those of a full product.  The square root needs Ts >= 0, the contract of
    PreProcess, so negative weights are refused."""
    X = inst.X
    n, d = X.shape
    w = np.asarray(pre.Ts(inst.y), dtype=float)
    if np.any(w < 0):
        raise ValueError(
            f"pre-processing {pre.name!r}: Ts(y) has negative entries "
            f"(min {w.min():.6g}); M_n needs Ts >= 0")
    sw = np.sqrt(w)
    C = np.zeros((d, d), order="F")
    buf = np.empty((min(n, MN_ROW_BLOCK), d))
    for start in range(0, n, MN_ROW_BLOCK):
        stop = min(start + MN_ROW_BLOCK, n)
        B = np.multiply(sw[start:stop, None], X[start:stop], out=buf[:stop - start])
        # B.T is Fortran-contiguous (d x rows), so it is passed uncopied
        halves.syrk_lower(B.T, C)
    buf = B = None   # free the row block before the mirror
    for j0 in range(0, d, MN_MIRROR_BLOCK):
        j1 = min(j0 + MN_MIRROR_BLOCK, d)
        C[j0:j1, j1:] += C[j1:, j0:j1].T
        C[j0:j1, j0:j1] += np.tril(C[j0:j1, j0:j1], -1).T
    return C


def top_two_eigs(M: Array) -> tuple[float, float, Array]:
    """Two largest eigenvalues and the leading eigenvector of symmetric M,
    by implicitly restarted Lanczos (ARPACK) at every d, from a fixed start
    vector so reruns are bitwise equal.  The products with M are split by
    rows (``halves.matvec``), with the bits of ``M @ v``; at d <= 3, where
    eigsh falls back to a dense solver, it takes M itself."""
    # imported here: the import adds about 35 ms and 2.5 MB to every start-up
    from scipy.sparse.linalg import LinearOperator, eigsh
    d = M.shape[0]
    A = M if d <= 3 else LinearOperator(
        M.shape, matvec=lambda v: halves.matvec(M, v), dtype=M.dtype)
    vals, vecs = eigsh(A, k=2, which="LA", v0=np.ones(d) / np.sqrt(d))
    return float(vals[1]), float(vals[0]), vecs[:, 1]


def spectral_estimator(inst: ModelInstance, pre: PreProcess) -> SpectralResult:
    """theta^0 = sqrt(d) v1 with the sign fixed so that <theta^0, theta*> >= 0."""
    return _estimator_from_Mn(inst, build_Mn(inst, pre))


def _estimator_from_Mn(inst: ModelInstance, M: Array) -> SpectralResult:
    """The spectral estimator of ``spectral_estimator`` from a built M_n."""
    if not np.any(M):
        raise ValueError("M_n is the zero matrix; spectral estimator undefined")
    lam1, lam2, v1 = top_two_eigs(M)
    if lam1 - lam2 < 1e-12 * abs(lam1):
        warnings.warn(
            f"degenerate top eigenpair (lam1={lam1:.6g}, lam2={lam2:.6g}); "
            "leading eigenvector tie-broken arbitrarily",
            RuntimeWarning,
        )
    align = float(v1 @ inst.theta_star)
    if align < 0:
        v1 = -v1
        align = -align
    theta0 = np.sqrt(inst.d) * v1
    return SpectralResult(
        theta0=theta0,
        lam1_emp=lam1,
        lam2_emp=lam2,
        overlap_emp=align / np.sqrt(inst.d),
    )


# ---------------------------------------------------------------------------
# Asymptotics: psi/phi/zeta and the lambda* solve
# ---------------------------------------------------------------------------

class EtaIntegrals:
    """Weighted grid over (G, z) for the scalar expectations behind psi/phi.

    Precomputes Z_s = Ts(phi(G, z)) and the lambda-independent products
    ``wZ = weights * Z_s`` and ``wZG2 = weights * Z_s * G^2`` on the product
    grid.  Each lambda-evaluation divides one of them by lam - Z_s (or its
    square) in a reused buffer and sums the buffer in a fixed order; Python
    multiplies left to right, so the values are bitwise those of the
    weighted sums written out in full, e.g.
    ``sum(weights * Z_s * G^2 / (lam - Z_s))``.
    """

    def __init__(self, pre: PreProcess, link: LinkFunction, noise: ScalarDist,
                 quad: QuadratureSpec):
        nodes, weights = np.polynomial.hermite.hermgauss(quad.gh_nodes)
        g = np.sqrt(2.0) * nodes
        gw = weights / np.sqrt(np.pi)
        rng = np.random.default_rng(quad.seed)
        z_draws = np.asarray(noise.sample(rng, quad.z_samples), dtype=float)
        if np.all(z_draws == z_draws[0]):
            zs = z_draws[:1]
            zw = np.ones(1)
        else:
            zs = z_draws
            zw = np.full(zs.size, 1.0 / zs.size)
        G, Z = np.meshgrid(g, zs, indexing="ij")
        Y = np.asarray(link.eval(G.ravel(), Z.ravel()), dtype=float)
        self.Zs = np.asarray(pre.Ts(Y), dtype=float)
        self.wZ = np.outer(gw, zw).ravel() * self.Zs
        self.wZG2 = self.wZ * G.ravel() ** 2
        self.tau = float(pre.tau)
        self._buf = np.empty_like(self.Zs)

    def _frac(self, num: Array, lam: float, power: int) -> float:
        """sum(num / (lam - Z_s)**power) for power 1 or 2."""
        if lam <= self.tau * (1.0 + POLE_GUARD):
            raise ValueError(
                f"lambda={lam!r} too close to the pole at tau={self.tau!r}")
        buf = np.subtract(lam, self.Zs, out=self._buf)
        if power == 2:
            np.square(buf, out=buf)
        return float(np.sum(np.divide(num, buf, out=buf)))

    def e_frac(self, lam: float) -> float:
        """E[Z_s / (lam - Z_s)]."""
        return self._frac(self.wZ, lam, 1)

    def e_frac2(self, lam: float) -> float:
        """E[Z_s / (lam - Z_s)^2]."""
        return self._frac(self.wZ, lam, 2)

    def e_g2frac(self, lam: float) -> float:
        """E[Z_s G^2 / (lam - Z_s)]."""
        return self._frac(self.wZG2, lam, 1)

    def e_g2frac2(self, lam: float) -> float:
        """E[Z_s G^2 / (lam - Z_s)^2]."""
        return self._frac(self.wZG2, lam, 2)


def solve_lambda_star(
    pre: PreProcess,
    link: LinkFunction,
    noise: ScalarDist,
    delta: float,
    quad: Optional[QuadratureSpec] = None,
) -> LambdaStarSolution:
    """Solve zeta_delta(lambda) = phi(lambda) for lambda*, with
    zeta_delta(lambda) = psi_delta(max(lambda, lambda_bar)), and evaluate the
    overlap formula and the limiting top-two eigenvalues of M_n.

    lambda_bar is psi's golden-section minimizer.  lambda* is bisected
    (``roots.bisect``) to a width of 1e-10 on [lo, hi], lo just below
    lambda_bar, under the rounding-error bound of ``_root_fn_error``."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    quad = quad or QuadratureSpec()
    integ = EtaIntegrals(pre, link, noise, quad)
    tau = integ.tau

    probe = tau * (1.0 + 1e-6) if tau > 0 else 1e-6
    frac2, g2frac = integ.e_frac2(probe), integ.e_g2frac(probe)
    if frac2 < ADMISSIBILITY_FLOOR or g2frac < ADMISSIBILITY_FLOOR:
        warnings.warn(
            "pre-processing admissibility proxy failed: near-pole expectations "
            f"E[Zs/(lam-Zs)^2]={frac2:.3g}, "
            f"E[Zs G^2/(lam-Zs)]={g2frac:.3g} below 1e3 "
            "(divergence conditions possibly violated)",
            RuntimeWarning,
        )

    def psi(lam: float) -> float:
        return lam * (1.0 / delta + integ.e_frac(lam))

    def phi(lam: float) -> float:
        return lam * integ.e_g2frac(lam)

    def psi_prime(lam: float) -> float:
        return 1.0 / delta + integ.e_frac(lam) - lam * integ.e_frac2(lam)

    def phi_prime(lam: float) -> float:
        return integ.e_g2frac(lam) - lam * integ.e_g2frac2(lam)

    lam_bar = _golden_min(psi, psi_prime, tau)
    frac_bar = integ.e_frac(lam_bar)
    psi_bar = lam_bar * (1.0 / delta + frac_bar)    # psi(lam_bar), bitwise

    def zeta(lam: float) -> float:
        return psi_bar if lam <= lam_bar else psi(lam)

    def root_fn(lam: float) -> float:
        return zeta(lam) - phi(lam)

    lo = lam_bar * (1.0 - 1e-9) + tau * 1e-9
    phi_lo = phi(lo)
    f_lo = zeta(lo) - phi_lo
    if f_lo > 0:
        raise WeakRecoveryError(
            "zeta - phi is already positive near lambda_bar: no crossing above; "
            "the weak-recovery condition psi'(lambda*) > 0 likely fails")
    span = max(lam_bar - tau, 1.0)
    hi = lam_bar + span
    for _ in range(200):
        zeta_hi = zeta(hi)
        f_hi = zeta_hi - phi(hi)
        if f_hi > 0:
            break
        span *= 2.0
        hi = lam_bar + span
    else:
        raise WeakRecoveryError("no sign change of zeta - phi up to very large lambda")

    bound = _root_fn_error(integ, delta, lam_bar, frac_bar,
                           max(psi_bar, zeta_hi) + phi_lo)
    lam_star = roots.bisect(root_fn, lo, f_lo, hi, f_hi, 1e-10, bound)

    psp = psi_prime(max(lam_star, lam_bar))
    php = phi_prime(lam_star)
    if psp <= 0:
        overlap = 0.0
    else:
        overlap = float(np.sqrt(psp / (psp - php)))
    return LambdaStarSolution(
        lambda_star=float(lam_star),
        lambda_bar=float(lam_bar),
        psi_prime=float(psp),
        phi_prime=float(php),
        overlap_a=overlap,
        lam1_lim=float(delta * psi(lam_star)),
        lam2_lim=float(delta * psi_bar),
        tau=tau,
    )


def _golden_min(psi, psi_prime, tau: float) -> float:
    """Golden-section minimizer of the convex psi on (tau, infinity)."""
    lo = tau * (1.0 + 1e-8) if tau > 0 else 1e-8
    span = max(tau, 1.0)
    hi = lo + span
    for _ in range(200):
        if psi_prime(hi) > 0:
            break
        span *= 2.0
        hi = lo + span
    else:
        raise RuntimeError("psi appears to have no interior minimizer")
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = psi(c), psi(d)
    for _ in range(300):
        if b - a <= 1e-12 * max(1.0, abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = psi(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = psi(d)
    return 0.5 * (a + b)


def _root_fn_error(integ: EtaIntegrals, delta: float, lam_bar: float,
                   frac_bar: float, scale: float) -> Optional[float]:
    """A bound B on |computed - exact| of zeta - phi on the lambda* bracket,
    under which zeta - phi is nondecreasing there, or None when no such
    bound is certified.  ``scale`` bounds psi(max(lam, lam_bar)) + phi(lam)
    on the bracket: psi is convex, so at most its larger end value, and phi
    is nonincreasing, so at most its value at the lower end.

    phi' = -E[Z_s^2 G^2 / (lam - Z_s)^2] <= 0 for grid values 0 <= Z_s <=
    tau < lam, since the quadrature weights are positive; psi is convex
    there.  So zeta - phi is nondecreasing when psi' >= 0 at lam_bar, and
    otherwise falls by at most the dip psi(lam_bar) - min psi <=
    -psi'(lam_bar) (x1 - lam_bar), x1 a point where psi' > 0 (a little
    above lam_bar); B includes the dip.  Each grid sum has nonnegative terms
    with two or three roundings each, so it is off by at most
    ``roots.sum_error(n)`` + 4u relative, and psi, phi and psi' add a few u
    more.  These first-order bounds are doubled.
    """
    if not (integ.Zs.min() >= 0.0 and integ.Zs.max() <= integ.tau):
        return None
    rel = 2.0 * (roots.sum_error(integ.Zs.size) + 8.0 * roots.UNIT_ROUNDOFF)

    def certified_slope(lam: float, frac: float) -> tuple[float, float]:
        frac2 = integ.e_frac2(lam)
        slope = 1.0 / delta + frac - lam * frac2
        return slope, rel * (1.0 / delta + frac + lam * frac2)

    slope, err = certified_slope(lam_bar, frac_bar)
    dip = 0.0
    if not slope > err:
        x1 = lam_bar + 1e-6 * max(lam_bar - integ.tau, 1.0)
        slope1, err1 = certified_slope(x1, integ.e_frac(x1))
        if not slope1 > err1:
            return None
        dip = (err - slope) * (x1 - lam_bar)
    return rel * scale + dip


# ---------------------------------------------------------------------------
# Two-stage dynamic: power iteration from theta*, then gradient descent
# ---------------------------------------------------------------------------

def power_stage(M: Array, start: Array, T: int) -> tuple[Array, Array]:
    """T steps of theta <- M theta / (||M theta|| / sqrt(d)) from ``start``."""
    d = start.shape[0]
    iterates = np.empty((T + 1, d))
    betas = np.empty(T)
    theta = np.asarray(start, dtype=float).copy()
    iterates[0] = theta
    for t in range(T):
        w = M @ theta
        beta = np.linalg.norm(w) / np.sqrt(d)
        if beta == 0.0:
            raise ZeroDivisionError("power iteration hit the zero vector")
        theta = w / beta
        betas[t] = beta
        iterates[t + 1] = theta
    return iterates, betas


def two_stage_dynamic(
    inst: ModelInstance,
    pre: PreProcess,
    loss: LossModel,
    gamma: float,
    lambda_ridge: float,
    T_stage: int,
    m: int,
) -> TwoStageResult:
    """Stage 1: T_stage power iterations from theta*.  Stage 2: gradient
    descent from the stage-1 endpoint.  Gaps are measured against the
    sign-aligned spectral initializer sqrt(d) theta_hat^s."""
    if T_stage < 1:
        raise ValueError("T_stage must be >= 1")
    M = build_Mn(inst, pre)
    spec = _estimator_from_Mn(inst, M)
    iterates, betas = power_stage(M, inst.theta_star, T_stage)
    sqd = np.sqrt(inst.d)
    gaps = np.linalg.norm(iterates - spec.theta0[None, :], axis=1) / sqd
    cfg = GdConfig(gamma=gamma, lambda_ridge=lambda_ridge, m=m)
    stage2 = run_gd(inst, loss, cfg, iterates[-1])
    return TwoStageResult(stage1_theta=iterates, betas=betas, gaps=gaps, stage2=stage2)
