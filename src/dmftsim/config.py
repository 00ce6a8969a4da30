"""Experiment configuration: flat sectioned key-value files (INI syntax)
parsed into a validated ExperimentConfig."""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .dmft import MonteCarloSpec
from .fixed_point import SolverConfig
from .gd import GdConfig
from .model import (
    LinkFunction,
    LossModel,
    PreProcess,
    ScalarDist,
    get_link,
    make_dist,
    make_loss,
    make_preprocess,
)
from .spectral import QuadratureSpec


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class ExperimentConfig:
    # model block
    n: int
    d: int
    link_name: str
    noise_name: str
    noise_params: dict
    signal_name: str
    seed: int
    delta: float
    # loss block (includes the pre-processing clip level)
    loss_name: str
    loss_params: dict
    preprocess_name: str
    preprocess_params: dict
    # algo block
    gamma: float
    lambda_ridge: float
    m: int
    init: str                      # "spectral" | "independent"
    # spectral quadrature
    gh_nodes: int
    z_samples: int
    quad_seed: int
    # dmft block
    dmft_K: int
    dmft_seed: int
    # fixedpoint block
    fp_K: int
    fp_damping: float
    fp_tol: float
    fp_max_outer: int
    fp_seed: int
    fp_warm_start: str             # "dmft" | "none"
    # compare tolerances
    w2_tol: float
    cov_tol: float
    # outputs
    out_dir: str
    sample_format: str             # "npy" | "csv"
    pipeline_stages: tuple

    def link(self) -> LinkFunction:
        return get_link(self.link_name)

    def noise(self) -> ScalarDist:
        return make_dist(self.noise_name, **self.noise_params)

    def signal(self) -> ScalarDist:
        return make_dist(self.signal_name)

    def loss(self) -> LossModel:
        return make_loss(self.loss_name, **self.loss_params)

    def preprocess(self) -> PreProcess:
        return make_preprocess(self.preprocess_name, **self.preprocess_params)

    def quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(gh_nodes=self.gh_nodes, z_samples=self.z_samples,
                              seed=self.quad_seed)

    def monte_carlo(self) -> MonteCarloSpec:
        return MonteCarloSpec(K=self.dmft_K, seed=self.dmft_seed)

    def solver(self) -> SolverConfig:
        return SolverConfig(K=self.fp_K, damping=self.fp_damping, tol=self.fp_tol,
                            max_outer=self.fp_max_outer, seed=self.fp_seed)

    def gd(self) -> GdConfig:
        return GdConfig(gamma=self.gamma, lambda_ridge=self.lambda_ridge, m=self.m)


_DEFAULTS = {
    "model": {"signal": "gaussian", "seed": "0"},
    "loss": {},
    "algo": {"init": "spectral"},
    "spectral": {"gh_nodes": "64", "z_samples": "20000", "quad_seed": "0"},
    "dmft": {"K": "100000", "seed": "0"},
    "fixedpoint": {"K": "100000", "damping": "0.5", "tol": "1e-8",
                   "max_outer": "200", "seed": "0", "warm_start": "none"},
    "compare": {"w2_tol": "0.05", "cov_tol": "0.05"},
    "outputs": {"directory": "out", "sample_format": "npy",
                "stages": "spectral,simulate,dmft,compare"},
}


def _get(cp, section, key, cast, required=False):
    fallback = _DEFAULTS.get(section, {}).get(key)
    if cp.has_option(section, key):
        raw = cp.get(section, key)
    elif fallback is not None:
        raw = fallback
    elif required:
        raise ConfigError(f"missing required field {section}.{key}")
    else:
        return None
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"field {section}.{key}: cannot parse {raw!r}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")

    n = _get(cp, "model", "n", int, required=True)
    d = _get(cp, "model", "d", int, required=True)
    if n < 2 or d < 2:
        raise ConfigError("field model.n/model.d: need n, d >= 2")
    delta = _get(cp, "model", "delta", float)
    if delta is None:
        delta = n / d
    elif abs(delta - n / d) > 1e-12:
        raise ConfigError(
            f"field model.delta: declared {delta} but n/d = {n / d}")

    link_name = _get(cp, "model", "link", str, required=True)
    noise_name = _get(cp, "model", "noise", str, required=True)
    noise_params = {}
    if noise_name == "gaussian":
        sigma = _get(cp, "model", "noise_sigma", float)
        noise_params = {"sigma": sigma if sigma is not None else 1.0}
    elif noise_name == "point":
        value = _get(cp, "model", "noise_value", float)
        noise_params = {"value": value if value is not None else 0.0}
    signal_name = _get(cp, "model", "signal", str)

    loss_name = _get(cp, "loss", "name", str, required=True)
    loss_params = {}
    if loss_name == "rwf":
        loss_params = {
            "L_cut": _get(cp, "loss", "l_cut", float, required=True),
            "U_cut": _get(cp, "loss", "u_cut", float, required=True),
        }
    elif loss_name == "linear-pseudo-huber":
        scale = _get(cp, "loss", "scale", float)
        loss_params = {"scale": scale if scale is not None else 1.0}
    pre_name = _get(cp, "loss", "preprocess", str) or "phase-clip"
    pre_params = {}
    if pre_name == "phase-clip":
        pre_params = {"M_clip": _get(cp, "loss", "m_clip", float, required=True)}

    init = _get(cp, "algo", "init", str)
    if init not in ("spectral", "independent"):
        raise ConfigError(f"field algo.init: unknown mode {init!r}")

    cfg = ExperimentConfig(
        n=n,
        d=d,
        link_name=link_name,
        noise_name=noise_name,
        noise_params=noise_params,
        signal_name=signal_name,
        seed=_get(cp, "model", "seed", int),
        delta=delta,
        loss_name=loss_name,
        loss_params=loss_params,
        preprocess_name=pre_name,
        preprocess_params=pre_params,
        gamma=_get(cp, "algo", "gamma", float, required=True),
        lambda_ridge=_get(cp, "algo", "lambda_ridge", float, required=True),
        m=_get(cp, "algo", "m", int, required=True),
        init=init,
        gh_nodes=_get(cp, "spectral", "gh_nodes", int),
        z_samples=_get(cp, "spectral", "z_samples", int),
        quad_seed=_get(cp, "spectral", "quad_seed", int),
        dmft_K=_get(cp, "dmft", "K", int),
        dmft_seed=_get(cp, "dmft", "seed", int),
        fp_K=_get(cp, "fixedpoint", "K", int),
        fp_damping=_get(cp, "fixedpoint", "damping", float),
        fp_tol=_get(cp, "fixedpoint", "tol", float),
        fp_max_outer=_get(cp, "fixedpoint", "max_outer", int),
        fp_seed=_get(cp, "fixedpoint", "seed", int),
        fp_warm_start=_get(cp, "fixedpoint", "warm_start", str),
        w2_tol=_get(cp, "compare", "w2_tol", float),
        cov_tol=_get(cp, "compare", "cov_tol", float),
        out_dir=_get(cp, "outputs", "directory", str),
        sample_format=_get(cp, "outputs", "sample_format", str),
        pipeline_stages=tuple(
            s.strip() for s in _get(cp, "outputs", "stages", str).split(",") if s.strip()
        ),
    )

    # registry existence checks surface as config errors with field paths
    try:
        cfg.link()
    except KeyError as exc:
        raise ConfigError(f"field model.link: {exc.args[0]}") from exc
    try:
        cfg.noise()
        cfg.signal()
    except KeyError as exc:
        raise ConfigError(f"field model.noise/signal: {exc.args[0]}") from exc
    try:
        cfg.loss()
    except KeyError as exc:
        raise ConfigError(f"field loss.name: {exc.args[0]}") from exc
    except ValueError as exc:
        raise ConfigError(f"field loss parameters: {exc}") from exc
    try:
        cfg.preprocess()
    except KeyError as exc:
        raise ConfigError(f"field loss.preprocess: {exc.args[0]}") from exc
    # each spec's ValueError starts with the attribute it refuses
    for build, fields in (
        (cfg.quadrature, {"gh_nodes": "spectral.gh_nodes",
                          "z_samples": "spectral.z_samples"}),
        (cfg.monte_carlo, {"K": "dmft.K"}),
        (cfg.solver, {"K": "fixedpoint.K", "damping": "fixedpoint.damping",
                      "tol": "fixedpoint.tol", "max_outer": "fixedpoint.max_outer"}),
        (cfg.gd, {"gamma": "algo.gamma", "lambda_ridge": "algo.lambda_ridge",
                  "m": "algo.m"}),
    ):
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"field {fields[str(exc).split()[0]]}: {exc}") from exc
    for key in ("w2_tol", "cov_tol"):
        if not getattr(cfg, key) >= 0:    # also refuses nan
            raise ConfigError(f"field compare.{key}: must be >= 0, "
                              f"got {getattr(cfg, key)}")
    if cfg.sample_format not in ("npy", "csv"):
        raise ConfigError(f"field outputs.sample_format: {cfg.sample_format!r}")
    if cfg.fp_warm_start not in ("dmft", "none"):
        raise ConfigError(f"field fixedpoint.warm_start: {cfg.fp_warm_start!r}")
    known = {"spectral", "simulate", "dmft", "fixed-point", "amp-check", "compare"}
    for s in cfg.pipeline_stages:
        if s not in known:
            raise ConfigError(f"field outputs.stages: unknown stage {s!r}")
    if "amp-check" in cfg.pipeline_stages and cfg.init != "spectral":
        raise ConfigError(
            "field outputs.stages: amp-check requires field algo.init = "
            f"spectral, got {cfg.init!r}")
    return cfg
