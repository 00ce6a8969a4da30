"""Spectral-initialized AMP whose iterates reproduce gradient descent exactly.

The algorithm iterates

    b^i     = X g_i + (1/delta) sum_{j<i} f_j zeta_{i,j} - ((1/lam*) Z_s X theta^0, 0) zeta_{i,-1}
    a^{i+1} = -(1/delta) X^T f_i + sum_{j<=i} g_j xi_{i,j}

with 2-column nonlinearities given recursively: g_i reconstructs
(theta^i, theta*) and f_i = (ell(X theta^i, X theta*, z), 0).  The module
keeps running reconstructions of theta^i and X theta^i instead of
materializing the recursive closures; the Onsager coefficients cancel
algebraically for any table used consistently on both sides.

Only first columns are computed and stored.  The second column of f_i is
zero, so the second column of a^{i+1} is zero and its first needs one
matrix-vector product X^T ell_i; the second column of g_i is theta*, so the
second column of every b^i is X theta*, the instance's ``eta_star``, and its
first needs one product X theta^i.  Both products run as two-way splits
(``halves``).  For the same reason a table keeps only the first output
column of each 2x2 coefficient, and of zeta's only the first entry: its
second input row multiplies the zero second column of f_j.  The Onsager
sums over j <= i are products of the stacked histories theta^0..theta^i
and ell_0..ell_i with a column of the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dmft import DmftState, fmean
from .gd import Trajectory
from .halves import matvec
from .model import LossModel, ModelInstance, PreProcess
from .spectral import LambdaStarSolution

Array = np.ndarray


@dataclass(frozen=True)
class OnsagerTable:
    """Correction matrices xi_{ij} (0 <= j <= i <= m-1) and zeta_{ij}
    (-1 <= j <= i-1, i <= m), stored with the zeta j-index shifted by one.

    Each coefficient is the first output column of a 2x2 matrix with entries
    M[k, l] = E[d(output_l) / d(input_k)]; its second column is zero because
    f_i has a zero second column and g_i the constant theta*.  xi's index
    [..., 0] holds the response channel, [..., 1] the theta* channel; zeta
    holds the response channel alone.
    """

    xi: Array     # (m, m, 2); xi[i, j] valid for j <= i
    zeta: Array   # (m+1, m+1); zeta[i, j+1] holds zeta_{i,j}, j <= i-1

    def __post_init__(self):
        self.validate()

    @property
    def m(self) -> int:
        return self.xi.shape[0]

    def validate(self) -> None:
        if self.xi.shape != (self.m, self.m, 2):
            raise ValueError("xi must be (m, m, 2)")
        if self.zeta.shape != (self.m + 1, self.m + 1):
            raise ValueError("zeta must be (m+1, m+1)")
        if self.zeta[0, 0] != 1.0:
            raise ValueError("zeta_{0,-1} must equal 1")


def random_onsager_table(m: int, rng: np.random.Generator) -> OnsagerTable:
    """iid N(0,1) entries on and below the diagonal, zeros above it, and
    the fixed zeta_{0,-1}."""
    xi = np.where(np.tri(m, dtype=bool)[:, :, None],
                  rng.standard_normal((m, m, 2)), 0.0)
    zeta = np.tril(rng.standard_normal((m + 1, m + 1)))
    zeta[0, 0] = 1.0
    return OnsagerTable(xi=xi, zeta=zeta)


def onsager_from_dmft(state: DmftState, m: int) -> OnsagerTable:
    """Tables implied by the DMFT kernels through the response
    correspondence (zeta ~ delta R_theta, xi ~ R_eta / delta)."""
    if state.t_theta < m or state.t_eta < max(m - 1, 0):
        raise ValueError(
            f"DMFT horizon too short for m={m}: theta side at {state.t_theta}, "
            f"eta side at {state.t_eta}")
    delta = state.delta
    zeta = np.zeros((m + 1, m + 1))
    zeta[0, 0] = 1.0
    zeta[1:, 0] = state.r_theta_dia[1:m + 1]
    zeta[1:, 1:] = np.tril(delta * state.R_theta[1:m + 1, :m])
    xi = np.zeros((m, m, 2))
    if m == 0:
        return OnsagerTable(xi=xi, zeta=zeta)
    xi[:, :, 0] = np.tril(state.R_eta[:m, :m], -1) / delta
    xi[1:, 0, 0] = (state.R_eta[1:m, 0] + state.R_eta_dia[1:m]) / delta
    diag = np.arange(m)
    xi[diag, diag, 0] = state.e_d1[:m]
    # xi_{0,0} carries the extra (1 + T(y)) factor
    xi[0, 0, 0] = state.e_d1_T_t0
    xi[:, 0, 1] = (state.R_eta_star[:m] + state.R_eta_dd[:m]) / delta
    return OnsagerTable(xi=xi, zeta=zeta)


@dataclass(frozen=True)
class AmpRun:
    """First columns of the iterates, and the reconstructions; the second
    column of every a^i is zero and that of every b^i is X theta*."""

    a_iters: Array     # (m, d) first columns of a^1..a^m
    b_iters: Array     # (m+1, n) first columns of b^0..b^m
    theta_rec: Array   # (m+1, d) reconstructed theta^0..theta^m
    eta_rec: Array     # (m+1, n) reconstructed X theta^0..X theta^m


def run_spectral_amp(
    inst: ModelInstance,
    pre: PreProcess,
    lam_sol: LambdaStarSolution,
    theta0: Array,
    onsager: OnsagerTable,
    loss: LossModel,
    gamma: float,
    lambda_ridge: float,
    m: int,
    recon_table: OnsagerTable | None = None,
) -> AmpRun:
    """Run the AMP for m gradient-descent-equivalent steps.

    ``recon_table`` lets the nonlinearity reconstructions use a different
    table than the AMP iteration itself (a deliberate mismatch breaks the
    algebraic cancellation; used as a negative control)."""
    if onsager.m < m:
        raise ValueError(f"Onsager table supports m={onsager.m} < requested {m}")
    recon = recon_table if recon_table is not None else onsager
    if recon.m < m:
        raise ValueError(f"reconstruction table supports m={recon.m} < {m}")
    X, z = inst.X, inst.z
    n, d = inst.n, inst.d
    delta = n / d
    lam_star = lam_sol.lambda_star
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (d,):
        raise ValueError(f"theta0 must have shape ({d},)")

    Zs = np.asarray(pre.Ts(inst.y), dtype=float)
    Ty = Zs / (lam_star - Zs)
    Xtheta0 = matvec(X, theta0)
    extra = Zs * Xtheta0 / lam_star      # first column of the zeta_{i,-1} term
    b_star = inst.eta_star
    theta_star = inst.theta_star

    a_iters = np.empty((m, d))
    b_iters = np.empty((m + 1, n))
    theta_rec = np.empty((m + 1, d))
    eta_rec = np.empty((m + 1, n))
    ells = np.empty((m + 1, n))         # first columns of f_0..f_m
    b0 = np.subtract(Xtheta0, extra, out=b_iters[0])
    theta_rec[0] = theta0
    eta_rec[0] = (1.0 + Ty) * b0
    ells[0] = loss.ell(eta_rec[0], b_star, z)
    # zeta's rows are read with a non-unit stride (Fortran order): OpenBLAS's
    # gemv adds the last two or three terms of a strided vector one at a
    # time and those of a unit-stride one as a pair, and the AMP iterates
    # keep the bits of the strided sums
    xi, zeta = onsager.xi, np.asfortranarray(onsager.zeta)
    rxi, rzeta = recon.xi, np.asfortranarray(recon.zeta)

    for i in range(m):
        thetas, ell_hist = theta_rec[:i + 1], ells[:i + 1]
        # a^{i+1} from f_i and the xi corrections over g_0..g_i
        a_iters[i] = (-matvec(X.T, ells[i]) / delta
                      + xi[i, :i + 1, 0] @ thetas
                      + xi[i, :i + 1, 1].sum() * theta_star)

        # reconstruct theta^{i+1} (Onsager part cancels by construction)
        corr = rxi[i, :i + 1, 0] @ thetas
        star_coef = rxi[i, :i + 1, 1].sum()
        theta_rec[i + 1] = (
            (1.0 - gamma * lambda_ridge) * theta_rec[i]
            + gamma * delta * (a_iters[i] - corr - star_coef * theta_star)
        )

        # b^{i+1} and the reconstruction of X theta^{i+1}; the second column
        # of b^{i+1} is X theta* because g_{i+1} = (theta^{i+1}, theta*)
        b_iters[i + 1] = (matvec(X, theta_rec[i + 1]) - extra * zeta[i + 1, 0]
                          + (zeta[i + 1, 1:i + 2] @ ell_hist) / delta)
        eta_rec[i + 1] = (b_iters[i + 1] + Ty * b0 * rzeta[i + 1, 0]
                          - (rzeta[i + 1, 1:i + 2] @ ell_hist) / delta)
        ells[i + 1] = loss.ell(eta_rec[i + 1], b_star, z)

    return AmpRun(a_iters=a_iters, b_iters=b_iters,
                  theta_rec=theta_rec, eta_rec=eta_rec)


def verify_equivalence(amp: AmpRun, gd: Trajectory) -> tuple[float, float]:
    """Max relative error between AMP reconstructions and the GD trajectory,
    for theta and eta separately."""
    m = amp.theta_rec.shape[0] - 1
    if gd.theta.shape[0] - 1 < m:
        raise ValueError("GD trajectory shorter than AMP run")
    err_theta = 0.0
    err_eta = 0.0
    for t in range(m + 1):
        denom = np.linalg.norm(gd.theta[t])
        err_theta = max(err_theta,
                        np.linalg.norm(amp.theta_rec[t] - gd.theta[t]) / denom)
        denom = np.linalg.norm(gd.eta[t])
        err_eta = max(err_eta,
                      np.linalg.norm(amp.eta_rec[t] - gd.eta[t]) / denom)
    return float(err_theta), float(err_eta)


def se_check(amp: AmpRun, state: DmftState, theta0: Array,
             theta_star: Array) -> dict:
    """State-evolution spot checks: empirical means of test functions of the
    AMP iterates against the matching means of the DMFT law.

    The correspondence maps the first column of a^i to the DMFT effective
    noise u^{i-1}/delta, whose mean and second moment the state keeps as
    ``u_mean[i-1]`` and ``u_sq_mean[i-1]``, theta^0 to a theta* + u_diamond,
    and theta* to theta*; these two are read from the theta pool.
    """
    m = min(len(amp.a_iters), state.m)
    report: dict = {}

    def entry(name, amp_val, dmft_val, tol):
        report[name] = {
            "amp": float(amp_val),
            "dmft": float(dmft_val),
            "diff": float(abs(amp_val - dmft_val)),
            "tol": float(tol),
            "ok": bool(abs(amp_val - dmft_val) <= tol),
        }

    base_tol = 3.0 / np.sqrt(min(theta0.shape[0], state.K))
    entry("mean_theta_star", np.mean(theta_star),
          fmean(state.theta_star), base_tol)
    entry("second_moment_theta0", np.mean(theta0**2),
          fmean(state.thetas[0] ** 2), 3.0 * base_tol)
    if amp.theta_rec.shape[0] > 1 and state.m >= 1:
        entry("overlap_theta1_star", np.mean(amp.theta_rec[1] * theta_star),
              fmean(state.thetas[1] * state.theta_star), 0.03)
    for i, (a_col, mean, ref) in enumerate(
            zip(amp.a_iters[:m], state.u_mean, state.u_sq_mean), start=1):
        entry(f"second_moment_a{i}", np.mean(a_col**2), ref,
              6.0 * base_tol * max(1.0, ref))
        entry(f"mean_a{i}", np.mean(a_col), mean,
              3.0 * base_tol * max(1.0, np.sqrt(ref)))
    report["all_ok"] = all(v["ok"] for v in report.values() if isinstance(v, dict))
    return report
