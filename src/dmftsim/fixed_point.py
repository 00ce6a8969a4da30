"""Long-time fixed-point system of the DMFT, solved by damped self-consistent
iteration over Monte Carlo sample pools.

The system couples the scalar response values (R_theta_inf, R_eta_inf,
R_eta_star, Gamma_inf) with the Gaussian laws of (w_inf, w*) and u_inf through

    0      = -(lambda + delta Gamma + R_eta) theta_inf - R_eta_star theta* + u_inf
    eta    = -R_theta ell(eta, w*, z) + w_inf
    C_eta  = delta E[ell^2],   C_theta = E[(theta_inf, theta*) (.)^T]
    1/R_theta = lambda + delta Gamma + R_eta
    delta Gamma + R_eta = (delta / R_theta) E[1 - 1/(1 + d1ell R_theta)]
    R_eta_star = delta E[(1 + d1ell R_theta)^{-1} d2ell].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import roots
from .dmft import fmean
from .model import LossModel, ScalarDist, gaussian_dist

Array = np.ndarray

ETA_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    K: int
    damping: float = 0.5
    tol: float = 1e-8
    max_outer: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if not self.tol > 0:    # also refuses nan
            raise ValueError("tol must be positive")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class FixedPointState:
    R_theta_inf: float
    R_eta_inf: float
    R_eta_star: float
    Gamma_inf: float
    C_eta_inf: float
    C_theta_inf: Array          # 2x2, [ [E theta_inf^2, E theta_inf theta*], [., 1] ]
    eta_inf: Array = field(default=None, repr=False)
    w_inf: Array = field(default=None, repr=False)
    w_star: Array = field(default=None, repr=False)
    z: Array = field(default=None, repr=False)
    theta_inf: Array = field(default=None, repr=False)
    theta_star: Array = field(default=None, repr=False)
    u_inf: Array = field(default=None, repr=False)
    iterations: int = 0
    reason: str = ""            # why the iteration did not converge, else ""
    # largest parameter change at outer steps 2, 3, ...
    residual_trace: list = field(default_factory=list, repr=False)

    @property
    def converged(self) -> bool:
        return not self.reason


class NoRootError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Inner solvers
# ---------------------------------------------------------------------------

def _solve_eta_pool(R: float, w_inf: Array, w_star: Array, z: Array, loss: LossModel,
                    pool_eval=None) -> tuple[Array, Array, Array, Array]:
    """Stable roots of F(eta) = eta + R ell(eta, w*, z) - w_inf, one per
    sample, and ell, d1ell and d2ell at them.

    Newton from eta = w_inf with bisection fallback on the bracket
    [w_inf - R B, w_inf + R B].  Each Newton step makes one fused
    evaluation (``loss.evaluator``, d2ell included) over the whole pool and
    moves only the samples whose residual still exceeds the tolerance; a
    sample that met it keeps its eta, so its residual is recomputed from the
    same bits.  The evaluation at which Newton stops serves the residual
    check, the stability test and the returned values.

    A root is stable when F' = 1 + R d1ell > 0 there.  Every sample whose
    Newton iterate misses the residual tolerance, leaves the bracket or is
    not stable goes to one fallback call (``_bisect_eta``), and only those
    samples are evaluated again.  The fallback is the one place where a
    root is chosen among several: it keeps the upward crossing of F nearest
    to w_inf.  A warning counts the fallback samples whose bracket scan
    shows more than one upward crossing, the samples where that choice was
    made; a sample Newton solves is not counted.
    ``pool_eval`` is ``loss.evaluator(w_star, z)`` when a caller holds it.
    """
    w_inf = np.asarray(w_inf, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    z = np.asarray(z, dtype=float)
    ev = pool_eval if pool_eval is not None else loss.evaluator(w_star, z)
    eta = w_inf.copy()
    if R == 0.0:
        return (eta, *ev(eta, d2=True))
    for _ in range(25):
        ell, d1, d2 = ev(eta, d2=True)
        f = eta + R * ell - w_inf
        todo = ~(np.abs(f) <= 0.1 * ETA_RESIDUAL_TOL)
        if not np.any(todo):
            break
        fp = 1.0 + R * d1
        safe = np.abs(fp) >= 1e-3
        np.copyto(eta, eta - f / np.where(safe, fp, 1.0), where=todo & safe)
    else:
        ell, d1, d2 = ev(eta, d2=True)

    half = abs(R) * loss.ell_bound if loss.ell_bound is not None else None
    bad = (np.abs(eta + R * ell - w_inf) > ETA_RESIDUAL_TOL) | (1.0 + R * d1 <= 0.0)
    if half is not None:
        bad |= np.abs(eta - w_inf) > half * (1 + 1e-9)
    moved = np.flatnonzero(bad)
    if moved.size:
        if half is None:
            raise NoRootError(
                f"loss {loss.name!r} has no ell_bound to bracket the eta root of "
                f"{moved.size} samples that Newton left unsolved or unstable")
        eta[moved], n_multi = _bisect_eta(ev, moved, R, w_inf[moved], half)
        ell[moved], d1[moved], d2[moved] = ev(eta[moved], moved, d2=True)
        if n_multi:
            warnings.warn(
                f"eta fixed-point equation shows multiple crossings on "
                f"{n_multi} of {eta.size} samples; nearest stable root to "
                "w_inf kept", RuntimeWarning)
    return eta, ell, d1, d2


def _bisect_eta(ev, idx: Array, R: float, w_inf: Array,
                half: float) -> tuple[Array, int]:
    """Bracketed fallback on the pool entries ``idx`` of the evaluator
    ``ev`` (``w_inf`` holds theirs): scan F on 65 points over [w_inf - half,
    w_inf + half], pick the cell closest to w_inf where F crosses upward (a
    stable root, F' > 0), bisect inside it.  Returns the roots and the
    number of samples whose scan crosses upward in more than one cell."""
    def F(eta):
        return eta + R * ev(eta, idx)[0] - w_inf

    offsets = np.linspace(-1.0, 1.0, 65) * half
    vals = np.stack([F(w_inf + off) for off in offsets], axis=1)  # (k, 65)
    neg = np.signbit(vals)
    upward = neg[:, :-1] & ~neg[:, 1:]                             # (k, 64)
    n_multi = int(np.count_nonzero(np.count_nonzero(upward, axis=1) > 1))
    cell_mid = 0.5 * (offsets[:-1] + offsets[1:])
    dist = np.where(upward, np.abs(cell_mid)[None, :], np.inf)
    cell = np.argmin(dist, axis=1)
    has = np.isfinite(np.min(dist, axis=1))
    lo = w_inf + np.where(has, offsets[cell], -half)
    hi = w_inf + np.where(has, offsets[cell + 1], half)
    flo = F(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = F(mid)
        same = np.signbit(fm) == np.signbit(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi), n_multi


def pole_radius(d1_pool: Array) -> float:
    """Smallest R > 0 where some 1 + d1 R hits zero (inf when d1 >= 0)."""
    d1 = np.asarray(d1_pool, dtype=float)
    worst = float(np.min(d1))
    return np.inf if worst >= 0.0 else -1.0 / worst


def solve_R_theta(d1_pool: Array, delta: float, lambda_ridge: float) -> float:
    """Root of g(R) = lambda R + delta mean[d1 R / (1 + d1 R)] - 1 on (0, R_hi].

    This is the scalar reduction of the response equations; g(0) = -1, and
    the bracket's upper end starts at min(1, cap/2), cap just below the
    smallest pole of the integrand, where the fixed point is defined.  It is
    doubled while that stays below cap and otherwise moved toward cap by
    half the remaining gap, until g changes sign.  Near the pole g tends to
    -inf, so starting inside it finds a root that lies below the pole.  When
    g stays <= 0 up to cap, the upper end is halved down from the start
    until g > 0, so a positive stretch of g below the start is found too;
    NoRootError is raised when 60 halvings find none.

    [0, hi] is then bisected to a width of 1e-16 (``roots.bisect``), and
    most midpoints are decided without evaluating g.  One pass over the pool
    at the bracket's upper end checks lambda + delta mean[d1 / (1 + d1
    hi)^2] > 0 beyond its rounding error; each term of that mean only grows
    toward R = 0, so g is increasing on [0, hi].  The same pass gives a
    bound B on the rounding error of computed g anywhere on [0, hi]
    (``_g_error``: the roundings of each term, carried to first order and
    doubled, plus Higham's bound for numpy's pairwise sum), under which the
    bisection evaluates only the midpoints that no evaluated point decides.
    A pool that fails the check has every midpoint evaluated.
    g(R) is evaluated in two work buffers of the pool's size, allocated once
    per call, and the pass reuses them.
    """
    d1 = np.asarray(d1_pool, dtype=float)
    q = np.empty_like(d1)
    ratio = np.empty_like(d1)

    def g(R: float) -> float:
        np.multiply(d1, R, out=q)
        np.add(1.0, q, out=ratio)
        np.divide(q, ratio, out=ratio)
        return lambda_ridge * R + delta * float(np.mean(ratio)) - 1.0

    r_pole = pole_radius(d1)
    cap = min(1e6, r_pole * (1.0 - 1e-12))
    start = hi = min(1.0, 0.5 * cap)
    while (g_hi := g(hi)) <= 0.0:
        if hi >= cap * (1.0 - 1e-12):
            # no sign change between the start and cap; g may still be
            # positive on a stretch below the start
            top, hi = hi, start
            for _ in range(60):
                hi *= 0.5
                if (g_hi := g(hi)) > 0.0:
                    break
            else:
                frac = float(np.mean(1.0 + d1 * min(2.0 * top, 1e6) <= 0))
                raise NoRootError(
                    "no sign change of the R_theta equation on the pole-free "
                    f"interval (0, {cap:.4g}]; 1 + d1ell * R <= 0 on a "
                    f"{frac:.2%} sample fraction beyond it")
            break
        hi = 2.0 * hi if 2.0 * hi < cap else hi + 0.5 * (cap - hi)
    bound = _g_error(d1, delta, lambda_ridge, hi, 1.0 - hi / r_pole, q, ratio)
    return roots.bisect(g, 0.0, -1.0, hi, g_hi, 1e-16, bound)


def _g_error(d1: Array, delta: float, lambda_ridge: float, hi: float,
             s_min: float, q: Array, ratio: Array) -> Optional[float]:
    """A bound on |computed g(R) - exact g(R)| over R in [0, hi], or None
    when g is not certified increasing there.  ``s_min`` is min(1, 1 + d1
    hi) over the pool; ``q`` and ``ratio`` are work buffers.

    With q = d1 R, s = 1 + q and r = q / s, the computed r is off by at most
    u |r| (2 + 1/s) to first order (u the unit roundoff; the 1/s is the
    rounding of d1 R, carried through 1 + q), and |r| and |r| / s only grow
    with R for d1 < 0 (for d1 >= 0, |r| grows and |r| / s <= |r|), so at
    R = hi the sums A = sum |r| and E = sum max(|r|, |r| / s) bound them over
    [0, hi].  numpy's sum adds at most ``roots.sum_error(K) * A``, and the
    mean, the products with delta and lambda and the two additions a few u
    more.  The first-order bound is doubled to cover the higher orders (the
    relative errors involved are below u / s_min, about 1e-4 at the pole
    cap).  The monotonicity check takes hi d1 / s^2 = r / s at hi, whose
    computed value is off by at most u (2/s_min + 4) relative.
    """
    K = d1.size
    u = roots.UNIT_ROUNDOFF
    gam = roots.sum_error(K)
    np.multiply(d1, hi, out=q)
    np.add(1.0, q, out=ratio)
    np.divide(q, ratio, out=q)              # r
    np.divide(q, ratio, out=ratio)          # r / s = hi d1 / s^2
    slope = lambda_ridge * hi + delta * float(np.sum(ratio)) / K    # hi g'(hi)
    np.abs(q, out=q)
    np.abs(ratio, out=ratio)
    np.maximum(q, ratio, out=ratio)
    A = float(np.sum(q)) / K
    E = float(np.sum(ratio)) / K
    slope_err = 2.0 * (delta * E * (u * (2.0 / s_min + 4.0) + gam)
                       + 3.0 * u * (abs(lambda_ridge) * hi + delta * E))
    if not slope > slope_err:
        return None
    return 2.0 * (delta * (u * (2.0 * A + E) + gam * A)
                  + u * (4.0 * delta * A + 3.0 * abs(lambda_ridge) * hi + 2.0))


# ---------------------------------------------------------------------------
# Outer damped iteration
# ---------------------------------------------------------------------------

def iterate_fixed_point(
    loss: LossModel,
    noise: ScalarDist,
    delta: float,
    lambda_ridge: float,
    cfg: SolverConfig,
    init: Optional[tuple[Array, float]] = None,
    signal: Optional[ScalarDist] = None,
) -> FixedPointState:
    """Damped self-consistent loop with common random numbers across outer
    iterations.  Neither the step size gamma nor the link enters the
    long-time system.  ``init`` is a warm start ``(C_theta_inf,
    R_theta_inf)``, as ``warm_start_from_dmft`` returns it; without it the
    loop starts from C_theta = [[1, 0.5], [0.5, 1]] and R_theta = 0.5 / (1 +
    lambda)."""
    K = cfg.K
    rng = np.random.default_rng(cfg.seed)
    z = np.asarray(noise.sample(rng, K), dtype=float)
    signal = signal or gaussian_dist(1.0)
    theta_star = np.asarray(signal.sample(rng, K), dtype=float)
    theta_star = theta_star / np.sqrt(fmean(theta_star**2))
    g_wstar = rng.standard_normal(K)
    g_worth = rng.standard_normal(K)
    g_u = rng.standard_normal(K)

    if init is not None:
        C = np.array(init[0], dtype=float)
        R_theta = float(init[1])
    else:
        C = np.array([[1.0, 0.5], [0.5, 1.0]])
        R_theta = 0.5 / (1.0 + lambda_ridge)
    C[1, 1] = 1.0

    alpha = cfg.damping
    Gamma = R_eta = R_eta_star = C_eta = 0.0
    eta = w_inf = u_inf = theta_inf = None
    w_star = g_wstar  # Var(w*) = C[1,1] = 1 pinned
    pool_eval = loss.evaluator(w_star, z)    # (w*, z) is fixed across outer steps
    trace = []
    params_prev = None
    projected = []              # (outer step, projected R_theta)
    it = 0
    for it in range(1, cfg.max_outer + 1):
        c11, c12 = C[0, 0], C[0, 1]
        resid_var = max(c11 - c12 * c12, 0.0)
        w_inf = c12 * g_wstar + np.sqrt(resid_var) * g_worth
        eta, ell, d1, d2 = _solve_eta_pool(R_theta, w_inf, w_star, z, loss,
                                           pool_eval=pool_eval)
        Gamma = float(np.mean(d1))
        try:
            R_theta_new = solve_R_theta(d1, delta, lambda_ridge)
        except NoRootError:
            # Off-branch pool: project the response below the smallest pole
            # and let the damped covariance update pull the pool back toward
            # the branch where the root is interior.
            R_theta_new = 0.5 * min(pole_radius(d1), 10.0 * max(R_theta, 0.1))
            projected.append((it, R_theta_new))
        R_eta = 1.0 / R_theta_new - lambda_ridge - delta * Gamma
        R_eta_star = delta * float(np.mean(d2 / (1.0 + d1 * R_theta_new)))
        C_eta = delta * float(np.mean(ell * ell))
        u_inf = np.sqrt(max(C_eta, 0.0)) * g_u
        theta_inf = R_theta_new * (u_inf - R_eta_star * theta_star)
        c12_new = float(np.mean(theta_inf * theta_star))
        C_new = np.array([[float(np.mean(theta_inf**2)), c12_new], [c12_new, 1.0]])
        params_new = np.array([C_new[0, 0], C_new[0, 1], R_theta_new, R_eta,
                               R_eta_star, Gamma, C_eta])
        if not np.all(np.isfinite(params_new)):
            advice = ("the run diverged from the DMFT warm start "
                      "(fixedpoint.warm_start = dmft)" if init is not None else
                      "set fixedpoint.warm_start = dmft to start near the "
                      "dynamically relevant branch")
            raise FloatingPointError(
                f"fixed-point iteration diverged at outer step {it} "
                f"(params {params_new}); {advice}")
        if params_prev is not None:
            change = float(np.max(np.abs(params_new - params_prev)))
            trace.append(change)
        else:
            change = np.inf
        params_prev = params_new
        C = (1.0 - alpha) * C + alpha * C_new
        C[1, 1] = 1.0
        R_theta = R_theta_new
        if change < cfg.tol:
            reason = ""
            break
    else:
        last = trace[-1] if trace else float("inf")
        reason = (f"fixed-point iteration did not converge in {cfg.max_outer} "
                  f"outer steps; last parameter change {last:.3e}")
        warnings.warn(reason, RuntimeWarning)

    if projected:
        first, R_first = projected[0]
        warnings.warn(
            f"R_theta equation lacked a pole-free root on {len(projected)} of "
            f"{it} outer steps, first at step {first} (projected to "
            f"R={R_first:.4g}); the pool sat outside the branch where the "
            "stationary system is defined (warm-start closer, e.g. from a "
            "longer DMFT tail)", RuntimeWarning)
    if not reason and projected and projected[-1][0] == it:
        reason = (f"the last outer step ({it}) projected R_theta to "
                  f"{R_theta:.4g} below the pole; it is not a root")

    state = FixedPointState(
        R_theta_inf=float(R_theta),
        R_eta_inf=float(R_eta),
        R_eta_star=float(R_eta_star),
        Gamma_inf=float(Gamma),
        C_eta_inf=float(C_eta),
        C_theta_inf=C,
        eta_inf=eta,
        w_inf=w_inf,
        w_star=w_star,
        z=z,
        theta_inf=theta_inf,
        theta_star=theta_star,
        u_inf=u_inf,
        iterations=it,
        reason=reason,
        residual_trace=trace,
    )
    return state


def warm_start_from_dmft(dmft_state) -> tuple[Array, float]:
    """The outer loop's warm start ``(C_theta_inf, R_theta_inf)`` from the
    tail of a DMFT run at t = t_theta: the 2x2 covariance of (theta^t,
    theta*) and the summed response sum_s R_theta(t, s)."""
    t = dmft_state.t_theta
    C = np.array([
        [dmft_state.C_theta[t, t], dmft_state.c_theta_star[t]],
        [dmft_state.c_theta_star[t], 1.0],
    ])
    return C, float(np.sum(dmft_state.R_theta[t, :t]))


def fixed_point_residuals(state: FixedPointState, loss: LossModel,
                          delta: float, lambda_ridge: float) -> dict:
    """Numeric residuals of the seven fixed-point equations under the pools."""
    eta, w_star, z = state.eta_inf, state.w_star, state.z
    ell, d1, d2 = loss.evaluator(w_star, z)(eta, d2=True)
    R = state.R_theta_inf
    lhs1 = (-(lambda_ridge + delta * state.Gamma_inf + state.R_eta_inf) * state.theta_inf
            - state.R_eta_star * state.theta_star + state.u_inf)
    fix1 = float(np.sqrt(fmean(lhs1**2)))
    lhs2 = eta + R * ell - state.w_inf
    fix2 = float(np.sqrt(fmean(lhs2**2)))
    fix3_eta = abs(state.C_eta_inf - delta * fmean(ell**2))
    emp_C = np.array([
        [fmean(state.theta_inf**2), fmean(state.theta_inf * state.theta_star)],
        [fmean(state.theta_inf * state.theta_star), fmean(state.theta_star**2)],
    ])
    fix3_theta = float(np.max(np.abs(emp_C - state.C_theta_inf)))
    fix5 = abs(1.0 / R - (lambda_ridge + delta * state.Gamma_inf + state.R_eta_inf))
    q = d1 * R
    fix6 = abs(delta * state.Gamma_inf + state.R_eta_inf
               - (delta / R) * fmean(1.0 - 1.0 / (1.0 + q)))
    fix7 = abs(state.R_eta_star - delta * fmean(d2 / (1.0 + q)))
    return {
        "fix1_theta_stationarity": fix1,
        "fix2_eta_implicit": fix2,
        "fix3_C_eta": fix3_eta,
        "fix3_C_theta": fix3_theta,
        "fix5_R_theta_inverse": fix5,
        "fix6_R_eta": fix6,
        "fix7_R_eta_star": fix7,
    }
