"""Spectral-initialized gradient descent at finite (n, d), plus the Hessian's
extreme eigenvalues at an iterate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .halves import matvec
from .model import LossModel, ModelInstance

Array = np.ndarray

EXACT_EIG_MAX_DIM = 4096


@dataclass(frozen=True)
class GdConfig:
    gamma: float
    lambda_ridge: float
    m: int

    def __post_init__(self):
        # "not >=" also refuses nan
        if not self.gamma >= 0:
            raise ValueError("gamma must be >= 0")
        if not self.lambda_ridge >= 0:
            raise ValueError("lambda_ridge must be >= 0")
        if self.m < 0:
            raise ValueError("m must be >= 0 (the horizon)")


@dataclass(frozen=True)
class Trajectory:
    """Iterates theta^0..theta^m (rows) with pre-activations eta^t = X theta^t."""

    theta: Array               # (m+1, d)
    eta: Array                 # (m+1, n)
    eta_star: Array            # (n,)
    z: Array                   # (n,)
    gamma: float
    lambda_ridge: float

    @property
    def m(self) -> int:
        return self.theta.shape[0] - 1


def run_gd(inst: ModelInstance, loss: LossModel, cfg: GdConfig, theta0: Array) -> Trajectory:
    """Iterate theta^{t+1} = theta^t - gamma X^T ell(X theta^t, X theta*, z)
    - gamma lambda theta^t.  Aborts on the first NaN/Inf iterate.  The
    products with X and X^T run as two-way splits (``halves``)."""
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (inst.d,):
        raise ValueError(f"theta0 must have shape ({inst.d},), got {theta0.shape}")
    X = inst.X
    eta_star = inst.eta_star
    thetas = np.empty((cfg.m + 1, inst.d))
    etas = np.empty((cfg.m + 1, inst.n))
    theta = theta0.copy()
    thetas[0] = theta
    for t in range(cfg.m + 1):
        eta = matvec(X, theta, out=etas[t])
        if t == cfg.m:
            break
        grad = matvec(X.T, np.asarray(loss.ell(eta, eta_star, inst.z), dtype=float))
        theta = theta - cfg.gamma * grad - cfg.gamma * cfg.lambda_ridge * theta
        if not np.all(np.isfinite(theta)):
            raise FloatingPointError(f"non-finite iterate at t={t + 1}")
        thetas[t + 1] = theta
    return Trajectory(
        theta=thetas, eta=etas, eta_star=eta_star, z=inst.z,
        gamma=cfg.gamma, lambda_ridge=cfg.lambda_ridge,
    )


def loss_value(loss: LossModel, traj: Trajectory, t: int) -> float:
    """Regularized empirical risk at iterate t, from the recorded
    pre-activations eta^t and eta*."""
    vals = np.asarray(loss.L(traj.eta[t], traj.eta_star, traj.z), dtype=float)
    return float(np.sum(vals) + 0.5 * traj.lambda_ridge * np.sum(traj.theta[t]**2))


def hessian_extremes(
    inst: ModelInstance, loss: LossModel, lambda_ridge: float, theta: Array
) -> tuple[float, float]:
    """Extreme eigenvalues of lambda I + X^T diag(d1ell(X theta, X theta*, z)) X."""
    if inst.d > EXACT_EIG_MAX_DIM:
        raise ValueError(f"exact Hessian eigensolve limited to d <= {EXACT_EIG_MAX_DIM}")
    eta = inst.X @ np.asarray(theta, dtype=float)
    dvals = np.asarray(loss.d1ell(eta, inst.eta_star, inst.z), dtype=float)
    H = inst.X.T @ (dvals[:, None] * inst.X)
    H = 0.5 * (H + H.T)
    H[np.diag_indices_from(H)] += lambda_ridge
    w = scipy.linalg.eigh(H, eigvals_only=True, subset_by_index=[0, inst.d - 1])
    return float(w[0]), float(w[-1])


def empirical_joint(traj: Trajectory, theta_star: Array) -> tuple[Array, Array]:
    """Sample matrices for distributional comparison: d rows of
    (theta^0_j..theta^m_j, theta*_j) and n rows of (eta^0_i..eta^m_i, eta*_i, z_i)."""
    theta_block = np.column_stack([traj.theta.T, np.asarray(theta_star, dtype=float)])
    eta_block = np.column_stack([traj.eta.T, traj.eta_star, traj.z])
    return theta_block, eta_block


def recompute_residual(inst: ModelInstance, loss: LossModel, traj: Trajectory) -> float:
    """Max relative defect of the recorded recursion; 0 for a faithful record."""
    X = inst.X
    worst = 0.0
    for t in range(traj.m):
        eta = X @ traj.theta[t]
        step = (
            traj.theta[t]
            - traj.gamma * (X.T @ np.asarray(loss.ell(eta, traj.eta_star, traj.z), dtype=float))
            - traj.gamma * traj.lambda_ridge * traj.theta[t]
        )
        denom = max(1.0, float(np.linalg.norm(traj.theta[t + 1])))
        worst = max(worst, float(np.linalg.norm(step - traj.theta[t + 1])) / denom)
    return worst
