"""Experiment configuration: flat sectioned key-value files (INI syntax)
loaded into an ExperimentConfig that holds the run's model objects and
solver specs, each built and validated once."""

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


# the pipeline's stages in their run order (run_pipeline moves dmft first
# when amp-check runs); the names of outputs.stages and of the subcommands
STAGE_NAMES = ("spectral", "simulate", "dmft", "amp-check", "fixed-point", "compare")


@dataclass(frozen=True)
class ExperimentConfig:
    # model block
    n: int
    d: int
    seed: int
    delta: float                   # n / d
    link: LinkFunction
    noise: ScalarDist
    signal: ScalarDist
    # loss block (includes the pre-processing clip level)
    loss: LossModel
    pre: PreProcess
    # algo block: gamma, lambda_ridge and the horizon m
    gd: GdConfig
    init: str                      # "spectral" | "independent"
    # solver blocks
    quadrature: QuadratureSpec
    monte_carlo: MonteCarloSpec
    solver: SolverConfig
    fp_warm_start: str             # "dmft" | "none"
    # compare tolerances
    w2_tol: float
    cov_tol: float
    # outputs
    out_dir: str
    pipeline_stages: tuple


# every key load_config reads, with the value used when it is absent (None:
# no default); a section or key not listed here is refused
_FIELDS = {
    "model": {"n": None, "d": None, "link": None,
              "noise": None, "noise_sigma": "1.0", "noise_value": "0.0",
              "signal": "gaussian", "seed": "0"},
    "loss": {"name": None, "l_cut": None, "u_cut": None, "scale": "1.0",
             "preprocess": "phase-clip", "m_clip": None},
    "algo": {"gamma": None, "lambda_ridge": None, "m": None,
             "init": "spectral"},
    "spectral": {"gh_nodes": "64", "z_samples": "20000", "quad_seed": "0"},
    "dmft": {"K": "100000", "seed": "0"},
    "fixedpoint": {"K": "100000", "damping": "0.5", "tol": "1e-8",
                   "max_outer": "200", "seed": "0", "warm_start": "none"},
    "compare": {"w2_tol": "0.05", "cov_tol": "0.05"},
    "outputs": {"directory": "out",
                "stages": "spectral,simulate,dmft,compare"},
}


# keys read by one choice of their section's name field: (section, key) ->
# (name field, that choice); given with another choice, a key is refused
_READ_ONLY_WITH = {
    ("model", "noise_sigma"): ("noise", "gaussian"),
    ("model", "noise_value"): ("noise", "point"),
    ("loss", "l_cut"): ("name", "rwf"), ("loss", "u_cut"): ("name", "rwf"),
    ("loss", "scale"): ("name", "linear-pseudo-huber"),
}


def _get(cp, section, key, cast, required=False):
    if cp.has_option(section, key):
        raw = cp.get(section, key)
    elif _FIELDS[section][key] is not None:
        raw = _FIELDS[section][key]
    elif required:
        raise ConfigError(f"missing required field {section}.{key}")
    else:
        return None
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"field {section}.{key}: cannot parse {raw!r}") from exc


def check_seed(field: str, seed: int) -> int:
    """``seed``, or a ConfigError naming ``field`` when it is negative:
    numpy's generators take only non-negative seeds."""
    if seed < 0:
        raise ConfigError(f"field {field}: must be >= 0, got {seed}")
    return seed


def _build(fields: dict, make, *args, **kwargs):
    """``make(*args, **kwargs)`` with its errors as ConfigErrors naming the
    INI field.  ``fields`` maps each parameter, and "name" for a registry
    name, to its field; the constructors' ValueErrors start with the
    parameter they refuse."""
    try:
        return make(*args, **kwargs)
    except KeyError as exc:
        raise ConfigError(f"field {fields['name']}: {exc.args[0]}") from exc
    except ValueError as exc:
        raise ConfigError(f"field {fields[str(exc).split()[0]]}: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in cp.sections():
        if section not in _FIELDS:
            raise ConfigError(f"section [{section}]: unknown section")
        known = {cp.optionxform(key) for key in _FIELDS[section]}
        for key in cp[section]:
            if key not in known:
                raise ConfigError(f"field {section}.{key}: unknown key")

    n = _get(cp, "model", "n", int, required=True)
    d = _get(cp, "model", "d", int, required=True)
    for key, size in (("n", n), ("d", d)):
        if size < 2:
            raise ConfigError(f"field model.{key}: must be >= 2, got {size}")

    link = _build({"name": "model.link"}, get_link,
                  _get(cp, "model", "link", str, required=True))
    noise = _build(
        {"name": "model.noise", "sigma": "model.noise_sigma",
         "value": "model.noise_value"},
        make_dist, _get(cp, "model", "noise", str, required=True),
        sigma=_get(cp, "model", "noise_sigma", float),
        value=_get(cp, "model", "noise_value", float))
    signal_name = _get(cp, "model", "signal", str)
    if signal_name == "point":    # signal laws take no value: always 0
        raise ConfigError("field model.signal: a point mass at 0 carries no "
                          "signal; use gaussian or rademacher")
    signal = _build({"name": "model.signal"}, make_dist, signal_name)

    loss_name = _get(cp, "loss", "name", str, required=True)
    rwf = loss_name == "rwf"
    loss = _build(
        {"name": "loss.name", "L_cut": "loss.l_cut", "U_cut": "loss.u_cut",
         "scale": "loss.scale"},
        make_loss, loss_name,
        L_cut=_get(cp, "loss", "l_cut", float, required=rwf),
        U_cut=_get(cp, "loss", "u_cut", float, required=rwf),
        scale=_get(cp, "loss", "scale", float))
    for (section, key), (name_key, reader) in _READ_ONLY_WITH.items():
        if cp.has_option(section, key) and cp[section][name_key] != reader:
            raise ConfigError(f"field {section}.{key}: read only with {section}."
                              f"{name_key} = {reader}, got {cp[section][name_key]!r}")
    pre_name = _get(cp, "loss", "preprocess", str)
    pre = _build(
        {"name": "loss.preprocess", "M_clip": "loss.m_clip"},
        make_preprocess, pre_name,
        M_clip=_get(cp, "loss", "m_clip", float,
                    required=pre_name == "phase-clip"))

    gd = _build(
        {"gamma": "algo.gamma", "lambda_ridge": "algo.lambda_ridge",
         "m": "algo.m"},
        GdConfig,
        gamma=_get(cp, "algo", "gamma", float, required=True),
        lambda_ridge=_get(cp, "algo", "lambda_ridge", float, required=True),
        m=_get(cp, "algo", "m", int, required=True))
    init = _get(cp, "algo", "init", str)
    if init not in ("spectral", "independent"):
        raise ConfigError(f"field algo.init: unknown mode {init!r}")

    quadrature = _build(
        {"gh_nodes": "spectral.gh_nodes", "z_samples": "spectral.z_samples"},
        QuadratureSpec,
        gh_nodes=_get(cp, "spectral", "gh_nodes", int),
        z_samples=_get(cp, "spectral", "z_samples", int),
        seed=check_seed("spectral.quad_seed",
                        _get(cp, "spectral", "quad_seed", int)))
    monte_carlo = _build(
        {"K": "dmft.K"}, MonteCarloSpec,
        K=_get(cp, "dmft", "K", int),
        seed=check_seed("dmft.seed", _get(cp, "dmft", "seed", int)))
    solver = _build(
        {"K": "fixedpoint.K", "damping": "fixedpoint.damping",
         "tol": "fixedpoint.tol", "max_outer": "fixedpoint.max_outer"},
        SolverConfig,
        K=_get(cp, "fixedpoint", "K", int),
        damping=_get(cp, "fixedpoint", "damping", float),
        tol=_get(cp, "fixedpoint", "tol", float),
        max_outer=_get(cp, "fixedpoint", "max_outer", int),
        seed=check_seed("fixedpoint.seed", _get(cp, "fixedpoint", "seed", int)))
    warm_start = _get(cp, "fixedpoint", "warm_start", str)
    if warm_start not in ("dmft", "none"):
        raise ConfigError(f"field fixedpoint.warm_start: {warm_start!r}")

    tols = {}
    for key in ("w2_tol", "cov_tol"):
        tols[key] = _get(cp, "compare", key, float)
        if not tols[key] >= 0:    # also refuses nan
            raise ConfigError(f"field compare.{key}: must be >= 0, "
                              f"got {tols[key]}")

    stages = tuple(s.strip() for s in _get(cp, "outputs", "stages", str).split(",")
                   if s.strip())
    for s in stages:
        if s not in STAGE_NAMES:
            raise ConfigError(f"field outputs.stages: unknown stage {s!r}")
    if "amp-check" in stages and init != "spectral":
        raise ConfigError(
            "field outputs.stages: amp-check requires field algo.init = "
            f"spectral, got {init!r}")

    return ExperimentConfig(
        n=n, d=d, seed=check_seed("model.seed", _get(cp, "model", "seed", int)),
        delta=n / d,
        link=link, noise=noise, signal=signal, loss=loss, pre=pre,
        gd=gd, init=init, quadrature=quadrature, monte_carlo=monte_carlo,
        solver=solver, fp_warm_start=warm_start,
        w2_tol=tols["w2_tol"], cov_tol=tols["cov_tol"],
        out_dir=_get(cp, "outputs", "directory", str),
        pipeline_stages=stages,
    )
