"""Model primitives for single index observations y = phi(<x, theta*>, z).

Defines link functions, loss models (value + the derivatives the dynamics
need), truncation profiles and pre-processing maps for spectral methods,
scalar sampling distributions, and finite-size instance generation.
Every stage receives the built objects; the config names of the
constructors, and the keys each one reads, are in ``config.CHOICES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


# ---------------------------------------------------------------------------
# Link functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkFunction:
    """Scalar link y = eval(u, z), applied entrywise, with weak u-derivative."""

    name: str
    eval: Callable[[Array, Array], Array]
    du: Callable[[Array, Array], Array]


def linear_link() -> LinkFunction:
    """y = u + z."""
    return LinkFunction(
        name="linear",
        eval=lambda u, z: u + z,
        du=lambda u, z: np.ones_like(np.asarray(u, dtype=float)),
    )


def abs_link() -> LinkFunction:
    """Phase retrieval link y = |u| + z; du = sign(u) with du(0) = 0."""
    return LinkFunction(
        name="abs",
        eval=lambda u, z: np.abs(u) + z,
        du=lambda u, z: np.sign(u),
    )


# ---------------------------------------------------------------------------
# Truncation profile h for the regularized Wirtinger flow loss
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncationProfile:
    """C^2 cutoff h with h=1 on [0, L_cut], h=0 on [U_cut, inf), and its
    first two derivatives h1, h2.  The loss reads U_cut, the end of its
    support."""

    U_cut: float
    h: Callable[[Array], Array]
    h1: Callable[[Array], Array]
    h2: Callable[[Array], Array]


def smoothstep_profile(L_cut: float, U_cut: float) -> TruncationProfile:
    """Quintic smoothstep cutoff: h(u) = 1 - s((u-L)/(U-L)) on [L, U].

    s(x) = 6x^5 - 15x^4 + 10x^3 gives s(0)=0, s(1)=1, s'=s''=0 at both ends,
    so h is C^2 with h1(L_cut) = h1(U_cut) = 0.
    """
    # "not >" also refuses nan
    if not L_cut > 0:
        raise ValueError(f"L_cut must be positive, got {L_cut}")
    if not U_cut > L_cut:
        raise ValueError(f"U_cut must exceed L_cut, got L_cut={L_cut}, U_cut={U_cut}")
    width = U_cut - L_cut

    # The polynomial runs only on the band L_cut < u < U_cut.  Outside it,
    # h is exactly 1 or 0 and h1 = h2 = 0: the values the polynomial gives
    # at x = 0 and x = 1, so the band restriction moves no bit.
    def _on_band(u: Array, band: Array, fill: Array, poly) -> Array:
        """``fill`` with poly(x), x = (u - L_cut) / width, written over
        the band; x lies in [0, 1] there, so it needs no clipping."""
        idx = np.flatnonzero(band)
        out = fill.reshape(-1)
        out[idx] = poly((u.reshape(-1)[idx] - L_cut) / width)
        return out.reshape(u.shape)

    def h(u: Array) -> Array:
        u = np.asarray(u, dtype=float)
        below = u <= L_cut
        # nan falls in the band, and the polynomial carries it through
        return _on_band(u, ~(below | (u >= U_cut)), np.asarray(below, dtype=float),
                        lambda x: 1.0 - x * x * x * (10.0 + x * (-15.0 + 6.0 * x)))

    def h1(u: Array) -> Array:
        u = np.asarray(u, dtype=float)
        return _on_band(u, (u > L_cut) & (u < U_cut), np.zeros(u.shape),
                        lambda x: -30.0 * x * x * (x - 1.0) ** 2 / width)

    def h2(u: Array) -> Array:
        u = np.asarray(u, dtype=float)
        return _on_band(u, (u > L_cut) & (u < U_cut), np.zeros(u.shape),
                        lambda x: -60.0 * x * (2.0 * x - 1.0) * (x - 1.0) / width**2)

    return TruncationProfile(U_cut=float(U_cut), h=h, h1=h1, h2=h2)


# ---------------------------------------------------------------------------
# Loss models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossModel:
    """Separable loss L(a, b, c) with ell = dL/da and its two derivatives.

    d1ell = d ell / da, d2ell = d ell / db; these five fields are all a loss
    must give.  ``ell_bound`` is a uniform bound on |ell| when one exists
    (the long-time eta solver's bracketing fallback reads it), else None.

    ``pool_evaluator(b, c)``, when given, returns a fused evaluator for a
    fixed pool (b, c); ``evaluator`` describes its call and supplies one
    built from the three callables otherwise.  A caller that needs the
    values on part of a pool builds an evaluator of that sub-pool.
    """

    name: str
    L: Callable[[Array, Array, Array], Array]
    ell: Callable[[Array, Array, Array], Array]
    d1ell: Callable[[Array, Array, Array], Array]
    d2ell: Callable[[Array, Array, Array], Array]
    ell_bound: Optional[float] = None
    pool_evaluator: Optional[Callable[[Array, Array], Callable]] = None

    def evaluator(self, b: Array, c: Array) -> Callable:
        """``ev(a) -> (ell, d1ell, d2ell)`` at a on the pool (b, c).  The
        values are bitwise those of the three callables."""
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        if self.pool_evaluator is not None:
            return self.pool_evaluator(b, c)

        def ev(a):
            return tuple(np.asarray(f(a, b, c), dtype=float)
                         for f in (self.ell, self.d1ell, self.d2ell))
        return ev


def rwf_loss(profile: TruncationProfile) -> LossModel:
    """Regularized Wirtinger flow loss for phase retrieval (link |b| + c).

    L(a,b,c) = 0.5 (a^2 - q^2)^2 h(a^2) h(q^2) with q = |b| + c.  The first
    partial is

        ell = 2 a (a^2 - q^2) h(a^2) h(q^2) + a (a^2 - q^2)^2 h'(a^2) h(q^2),

    and d1ell/d2ell follow by one more chain rule:

        d1ell = [2 (3a^2 - q^2) h(a^2) + (9a^2 - q^2)(a^2 - q^2) h'(a^2)
                 + 2 a^2 (a^2 - q^2)^2 h''(a^2)] h(q^2)
        d2ell = sign(b) * [ -4 a q (h(a^2) + (a^2 - q^2) h'(a^2)) h(q^2)
                 + 2 q (2 a (a^2-q^2) h(a^2) + a (a^2-q^2)^2 h'(a^2)) h'(q^2) ].

    The pool evaluator computes q, q^2, h(q^2), h'(q^2) and sign(b) once
    per pool, and a^2, a^2 - q^2 and the h terms at a^2 once per call.
    """
    h, h1, h2 = profile.h, profile.h1, profile.h2

    # each formula once, over the terms its callers share; g = ell / h(q^2)
    def g_of(a, r, ha, h1a):
        return 2.0 * a * r * ha + a * r * r * h1a

    def d1_of(a2, q2, r, ha, h1a, h2a, hq):
        return (2.0 * (3.0 * a2 - q2) * ha + (9.0 * a2 - q2) * r * h1a
                + 2.0 * a2 * r * r * h2a) * hq

    def d2_of(a, q, r, ha, h1a, g, hq, h1q, sb):
        return (-4.0 * a * q * (ha + r * h1a) * hq + 2.0 * q * g * h1q) * sb

    def terms(a, b, c):
        a = np.asarray(a, dtype=float)
        q = np.abs(np.asarray(b, dtype=float)) + np.asarray(c, dtype=float)
        a2, q2 = a * a, q * q
        return a, q, a2, q2, a2 - q2

    def L_fn(a, b, c):
        a, q, a2, q2, r = terms(a, b, c)
        return 0.5 * r * r * h(a2) * h(q2)

    def ell_fn(a, b, c):
        a, q, a2, q2, r = terms(a, b, c)
        return g_of(a, r, h(a2), h1(a2)) * h(q2)

    def d1ell_fn(a, b, c):
        a, q, a2, q2, r = terms(a, b, c)
        return d1_of(a2, q2, r, h(a2), h1(a2), h2(a2), h(q2))

    def d2ell_fn(a, b, c):
        a, q, a2, q2, r = terms(a, b, c)
        ha, h1a = h(a2), h1(a2)
        return d2_of(a, q, r, ha, h1a, g_of(a, r, ha, h1a), h(q2), h1(q2),
                     np.sign(np.asarray(b, dtype=float)))

    def pool_evaluator(b, c):
        q = np.abs(b) + c
        q2 = q * q
        hq, h1q, sb = h(q2), h1(q2), np.sign(b)

        def ev(a):
            a = np.asarray(a, dtype=float)
            a2 = a * a
            r = a2 - q2
            ha, h1a = h(a2), h1(a2)
            g = g_of(a, r, ha, h1a)
            return (g * hq, d1_of(a2, q2, r, ha, h1a, h2(a2), hq),
                    d2_of(a, q, r, ha, h1a, g, hq, h1q, sb))
        return ev

    return LossModel(
        name="rwf",
        L=L_fn,
        ell=ell_fn,
        d1ell=d1ell_fn,
        d2ell=d2ell_fn,
        ell_bound=_grid_bound(ell_fn, profile.U_cut),
        pool_evaluator=pool_evaluator,
    )


def _grid_bound(ell, U_cut: float) -> float:
    """Numeric sup bound on |ell| of the RWF loss over its compact support.

    ell vanishes once a^2 >= U_cut or q^2 >= U_cut, so a dense grid over the
    support gives the bound (5% safety margin).
    """
    r = np.sqrt(U_cut) * 1.0001
    a = np.linspace(-r, r, 481)
    q = np.linspace(0.0, r, 241)
    A, Q = np.meshgrid(a, q, indexing="ij")
    return float(np.max(np.abs(ell(A, Q, np.zeros_like(A))))) * 1.05


def pseudo_huber_loss(scale: float = 1.0) -> LossModel:
    """Robust loss rho(x) = s^2 (sqrt(1 + (x/s)^2) - 1) on the linear model.

    With link b + c the residual is x = a - b - c, so ell = rho'(x),
    d1ell = rho''(x), d2ell = -rho''(x).  |rho'| <= s and rho'' <= 1.
    """
    if not scale > 0:    # also refuses nan
        raise ValueError(f"scale must be positive, got {scale}")
    s2 = scale * scale

    def resid(a, b, c):
        return np.asarray(a, dtype=float) - np.asarray(b, dtype=float) - np.asarray(c, dtype=float)

    # each formula once, over x and t = 1 + x^2 / s^2
    def t_of(x):
        return 1.0 + x * x / s2

    def ell_of(x, t):
        return x / np.sqrt(t)

    def rho2_of(t):
        return t ** -1.5

    def L_fn(a, b, c):
        return s2 * (np.sqrt(t_of(resid(a, b, c))) - 1.0)

    def ell_fn(a, b, c):
        x = resid(a, b, c)
        return ell_of(x, t_of(x))

    def pool_evaluator(b, c):
        def ev(a):
            x = resid(a, b, c)
            t = t_of(x)
            rho2 = rho2_of(t)
            return ell_of(x, t), rho2, -rho2
        return ev

    return LossModel(
        name="linear-pseudo-huber",
        L=L_fn,
        ell=ell_fn,
        d1ell=lambda a, b, c: rho2_of(t_of(resid(a, b, c))),
        d2ell=lambda a, b, c: -rho2_of(t_of(resid(a, b, c))),
        ell_bound=float(scale),
        pool_evaluator=pool_evaluator,
    )


# ---------------------------------------------------------------------------
# Pre-processing for the spectral matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreProcess:
    """Nonnegative bounded Lipschitz map Ts applied to responses before M_n,
    its a.e. derivative Ts1 and tau = sup Ts."""

    name: str
    Ts: Callable[[Array], Array]
    Ts1: Callable[[Array], Array]
    tau: float


def phase_preprocess(M_clip: float) -> PreProcess:
    """Clipped square Ts(y) = min(y, M)^2 on y >= 0, extended as min(y^2, M^2).

    Ts1 is the a.e. derivative of the implemented map: 2 min(y, M) strictly
    inside (-M, M) and 0 on the saturated set.
    """
    if not M_clip > 0:    # also refuses nan
        raise ValueError(f"M_clip must be positive, got {M_clip}")
    M2 = M_clip * M_clip

    def Ts(y: Array) -> Array:
        y = np.asarray(y, dtype=float)
        v = np.minimum(y, M_clip)
        return np.minimum(v * v, M2)

    def Ts1(y: Array) -> Array:
        y = np.asarray(y, dtype=float)
        inside = (y < M_clip) & (y > -M_clip)
        return np.where(inside, 2.0 * np.minimum(y, M_clip), 0.0)

    return PreProcess(name="phase-clip", Ts=Ts, Ts1=Ts1, tau=M2)


# ---------------------------------------------------------------------------
# Scalar distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarDist:
    """Sampleable scalar law with known second moment."""

    name: str
    sample: Callable[[np.random.Generator, int], Array]
    second_moment: float


def gaussian_dist(sigma: float = 1.0) -> ScalarDist:
    if not sigma >= 0:    # also refuses nan
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return ScalarDist(
        name=f"gaussian({sigma})",
        sample=lambda rng, size: sigma * rng.standard_normal(size),
        second_moment=sigma * sigma,
    )


def point_mass_dist(value: float = 0.0) -> ScalarDist:
    if not np.isfinite(value):
        raise ValueError(f"value must be finite, got {value}")
    return ScalarDist(
        name=f"point({value})",
        sample=lambda rng, size: np.full(size, float(value)),
        second_moment=float(value) ** 2,
    )


def rademacher_dist() -> ScalarDist:
    return ScalarDist(
        name="rademacher",
        sample=lambda rng, size: rng.integers(0, 2, size=size) * 2.0 - 1.0,
        second_moment=1.0,
    )


# ---------------------------------------------------------------------------
# Finite-size instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelInstance:
    """One draw of (X, theta*, z, y) at finite (n, d); the config that
    drew it holds delta = n/d, the link and the seed."""

    n: int
    d: int
    X: Array
    theta_star: Array
    eta_star: Array     # X theta*, computed once for every reader
    z: Array
    y: Array


def make_instance(
    n: int,
    d: int,
    seed: int,
    link: LinkFunction,
    noise: ScalarDist,
    signal: ScalarDist,
) -> ModelInstance:
    """Draw X with iid N(0, 1/d) entries, rescale theta* to norm sqrt(d),
    and evaluate y = phi(X theta*, z) rowwise.  Deterministic given seed."""
    if n < 2 or d < 2:
        raise ValueError(f"need n, d >= 2, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) / np.sqrt(d)
    theta_raw = np.asarray(signal.sample(rng, d), dtype=float)
    norm = np.linalg.norm(theta_raw)
    if norm == 0.0:
        raise ValueError("signal distribution produced a zero-norm vector")
    theta_star = theta_raw * (np.sqrt(d) / norm)
    z = np.asarray(noise.sample(rng, n), dtype=float)
    eta_star = X @ theta_star
    y = np.asarray(link.eval(eta_star, z), dtype=float)
    return ModelInstance(n=n, d=d, X=X, theta_star=theta_star, eta_star=eta_star,
                         z=z, y=y)
