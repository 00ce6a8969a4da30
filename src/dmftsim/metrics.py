"""Wasserstein-2 diagnostics comparing finite-size runs against the DMFT
law, read from the DMFT state's sample pools and kernels, and against
long-time fixed points."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dmft import DmftState

Array = np.ndarray


class NotConvergedError(RuntimeError):
    pass


def w2_1d(samples_a: Array, samples_b: Array) -> float:
    """W2 between two empirical measures via the sorted-quantile coupling.

    Quantiles are read on a common grid of size max(len(a), len(b)) with the
    inverted-CDF convention, so equal-size inputs reduce to the classic
    sorted-sample coupling.
    """
    a = np.sort(np.asarray(samples_a, dtype=float).ravel())
    b = np.sort(np.asarray(samples_b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("w2_1d needs nonempty samples")
    m = max(a.size, b.size)
    q = (np.arange(m) + 0.5) / m
    qa = a[np.minimum((q * a.size).astype(int), a.size - 1)]
    qb = b[np.minimum((q * b.size).astype(int), b.size - 1)]
    return float(np.sqrt(np.mean((qa - qb) ** 2)))


@dataclass(frozen=True)
class ComparisonReport:
    w2_theta: Array          # per-t marginal W2, t = 0..m
    w2_eta: Array            # per-t marginal W2, t = 0..m
    cov_disc_theta: float    # max_{r,s<=m} |Chat_theta(r,s) - C_theta(r,s)|
    cov_disc_eta: float
    overlap_emp: Array       # <theta^t, theta*>/d
    overlap_dmft: Array      # C_theta(t, *)
    max_overlap_diff: float


def compare_empirical_vs_dmft(
    theta_block: Array,
    eta_block: Array,
    state: DmftState,
) -> ComparisonReport:
    """Finite-size trajectory samples against the DMFT state's pools and
    kernels at its horizon m.

    ``theta_block`` has d rows of (theta^0..theta^m, theta*); ``eta_block``
    has n rows of (eta^0..eta^m, eta*, z).  Phase-retrieval callers must
    sign-align before calling.
    """
    m = state.m
    if theta_block.shape[1] != m + 2 or eta_block.shape[1] != m + 3:
        raise ValueError("horizon mismatch between trajectory and DMFT law")
    d = theta_block.shape[0]

    w2_theta = np.array([
        w2_1d(theta_block[:, t], state.thetas[t]) for t in range(m + 1)
    ])
    w2_eta = np.array([
        w2_1d(eta_block[:, t], state.etas[t]) for t in range(m + 1)
    ])

    iters = theta_block[:, : m + 1]
    emp_C = iters.T @ iters / d
    cov_disc_theta = float(np.max(np.abs(emp_C - state.C_theta)))

    eta_iters = eta_block[:, : m + 1]
    n = eta_block.shape[0]
    # C_eta(r,s) is delta E[ell ell']; the empirical channel counterpart is the
    # Gram of ell values, so compare raw second moments of eta instead
    emp_eta_gram = eta_iters.T @ eta_iters / n
    E = state.etas[: m + 1]
    dmft_eta_gram = E @ E.T / state.K
    cov_disc_eta = float(np.max(np.abs(emp_eta_gram - dmft_eta_gram)))

    overlap_emp = theta_block[:, : m + 1].T @ theta_block[:, m + 1] / d
    overlap_dmft = state.c_theta_star
    return ComparisonReport(
        w2_theta=w2_theta,
        w2_eta=w2_eta,
        cov_disc_theta=cov_disc_theta,
        cov_disc_eta=cov_disc_eta,
        overlap_emp=overlap_emp,
        overlap_dmft=overlap_dmft,
        max_overlap_diff=float(np.max(np.abs(overlap_emp - overlap_dmft))),
    )


@dataclass(frozen=True)
class LongTimeReport:
    w2_theta_inf: float
    overlap_emp: float       # <theta^m, theta*>/d
    overlap_fp: float        # C_theta_inf[0, 1]
    norm_emp: float          # ||theta^m||^2/d
    norm_fp: float           # C_theta_inf[0, 0]


def long_time_compare(traj_theta: Array, theta_star: Array, fp) -> LongTimeReport:
    """Converged GD endpoint against the fixed-point law.

    ``traj_theta`` is the (m+1, d) iterate array; requires
    ||theta^m - theta^{m-1}|| / sqrt(d) <= 1e-8.
    """
    d = traj_theta.shape[1]
    step = np.linalg.norm(traj_theta[-1] - traj_theta[-2]) / np.sqrt(d)
    if step > 1e-8:
        raise NotConvergedError(
            f"gradient descent not converged: last step {step:.3e} > 1e-8")
    theta_m = traj_theta[-1]
    return LongTimeReport(
        w2_theta_inf=w2_1d(theta_m, fp.theta_inf),
        overlap_emp=float(theta_m @ theta_star / d),
        overlap_fp=float(fp.C_theta_inf[0, 1]),
        norm_emp=float(theta_m @ theta_m / d),
        norm_fp=float(fp.C_theta_inf[0, 0]),
    )
