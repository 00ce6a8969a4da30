"""Experiment configuration: flat sectioned key-value files (INI syntax)
loaded into an ExperimentConfig that holds the run's model objects and
solver specs, each built and validated once.  ``_FIELDS`` lists every key,
``CHOICES`` every name field's choices with their constructors and the keys
they read."""

from __future__ import annotations

import configparser
import math
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
    abs_link,
    gaussian_dist,
    linear_link,
    phase_preprocess,
    point_mass_dist,
    pseudo_huber_loss,
    rademacher_dist,
    rwf_loss,
    smoothstep_profile,
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


# every key load_config reads: its parse and the value used when it is
# absent (None: the key is required); a section or key not listed here is
# refused
_FIELDS = {
    "model": {"n": (int, None), "d": (int, None), "link": (str, None),
              "noise": (str, None), "noise_sigma": (float, "1.0"),
              "noise_value": (float, "0.0"), "signal": (str, "gaussian"),
              "seed": (int, "0")},
    "loss": {"name": (str, None), "l_cut": (float, None),
             "u_cut": (float, None), "scale": (float, "1.0"),
             "m_clip": (float, None)},
    "algo": {"gamma": (float, None), "lambda_ridge": (float, None),
             "m": (int, None), "init": (str, "spectral")},
    "spectral": {"gh_nodes": (int, "64"), "z_samples": (int, "20000"),
                 "quad_seed": (int, "0")},
    "dmft": {"K": (int, "100000"), "seed": (int, "0")},
    "fixedpoint": {"K": (int, "100000"), "damping": (float, "0.5"),
                   "tol": (float, "1e-8"), "max_outer": (int, "200"),
                   "seed": (int, "0"), "warm_start": (str, "none")},
    "compare": {"w2_tol": (float, "0.05"), "cov_tol": (float, "0.05")},
    "outputs": {"directory": (str, "out"),
                "stages": (str, "spectral,simulate,dmft,compare")},
}


def _rwf(L_cut: float, U_cut: float) -> LossModel:
    return rwf_loss(smoothstep_profile(L_cut, U_cut))


# every name field's choices: (section, name key) -> {choice: (constructor,
# {key of the section it reads: the parameter that key gives})}; a choice
# without a constructor stays its name
CHOICES = {
    ("model", "link"): {"linear": (linear_link, {}), "abs": (abs_link, {})},
    ("model", "noise"): {
        "gaussian": (gaussian_dist, {"noise_sigma": "sigma"}),
        "point": (point_mass_dist, {"noise_value": "value"}),
        "rademacher": (rademacher_dist, {})},
    # a point mass would have to sit at 0: no signal to recover
    ("model", "signal"): {"gaussian": (gaussian_dist, {}),
                          "rademacher": (rademacher_dist, {})},
    ("loss", "name"): {
        "rwf": (_rwf, {"l_cut": "L_cut", "u_cut": "U_cut"}),
        "linear-pseudo-huber": (pseudo_huber_loss, {"scale": "scale"})},
    ("algo", "init"): {"spectral": (None, {}), "independent": (None, {})},
    ("fixedpoint", "warm_start"): {"dmft": (None, {}), "none": (None, {})},
}


def _get(cp, section, key):
    """The value of ``section.key`` (or its default), parsed; a float must
    be finite."""
    cast, default = _FIELDS[section][key]
    if cp.has_option(section, key):
        raw = cp.get(section, key)
    elif default is not None:
        raw = default
    else:
        raise ConfigError(f"field {section}.{key}: required, not given")
    try:
        value = cast(raw)
    except ValueError as exc:
        raise ConfigError(f"field {section}.{key}: cannot parse {raw!r}") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"field {section}.{key}: must be finite, got {raw!r}")
    return value


def check_seed(field: str, seed: int) -> int:
    """``seed``, or a ConfigError naming ``field`` when it is negative:
    numpy's generators take only non-negative seeds."""
    if seed < 0:
        raise ConfigError(f"field {field}: must be >= 0, got {seed}")
    return seed


def check_stages(field: str, stages: tuple, init: str) -> tuple:
    """``stages``, or a ConfigError naming ``field`` when the list is empty,
    names an unknown stage or one twice, or names amp-check without
    ``algo.init = spectral``: the AMP check starts from the spectral
    estimate."""
    if not stages:
        raise ConfigError(f"field {field}: names no stage")
    for i, s in enumerate(stages):
        if s not in STAGE_NAMES:
            raise ConfigError(f"field {field}: unknown stage {s!r}")
        if s in stages[:i]:
            raise ConfigError(f"field {field}: stage {s!r} is repeated")
    if "amp-check" in stages and init != "spectral":
        raise ConfigError(f"field {field}: amp-check requires field algo.init = "
                          f"spectral, got {init!r}")
    return stages


def _build(cp, section: str, make, keys: dict):
    """``make`` called with the parameters read from their keys: ``keys``
    maps each key of ``section`` to the parameter it gives.  ``make``'s
    ValueErrors start with the parameter they refuse and become ConfigErrors
    naming its key."""
    params = {param: _get(cp, section, key) for key, param in keys.items()}
    try:
        return make(**params)
    except ValueError as exc:
        key = {p: k for k, p in keys.items()}[str(exc).split()[0]]
        raise ConfigError(f"field {section}.{key}: {exc}") from exc


def _choose(cp, section: str, name_key: str):
    """The choice of the name field ``section.name_key``, looked up in
    CHOICES and built from the keys it reads; a choice without a
    constructor is returned as its name.  Refused: a name that is not one
    of the field's choices, and a key of the section that only other
    choices read."""
    choices = CHOICES[section, name_key]
    name = _get(cp, section, name_key)
    if name not in choices:
        raise ConfigError(f"field {section}.{name_key}: unknown choice {name!r} "
                          f"(choices: {', '.join(choices)})")
    make, keys = choices[name]
    for _, other_keys in choices.values():
        for key in other_keys:
            if key not in keys and cp.has_option(section, key):
                readers = " or ".join(c for c, (_, ks) in choices.items() if key in ks)
                raise ConfigError(f"field {section}.{key}: read only with "
                                  f"{section}.{name_key} = {readers}, got {name!r}")
    return name if make is None else _build(cp, section, make, keys)


def load_config(path: str | Path) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)    # a value is read as written
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        errors = getattr(exc, "errors", None)     # ParsingError: [(line, text)]
        line = errors[0][0] if errors else getattr(exc, "lineno", None)
        at = f"{path}, line {line}" if line else str(path)
        reason = str(exc).splitlines()[0].rsplit("]: ", 1)[-1]
        raise ConfigError(f"{at}: {reason}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in cp.sections():
        if section not in _FIELDS:
            raise ConfigError(f"section [{section}]: unknown section")
        known = {cp.optionxform(key) for key in _FIELDS[section]}
        for key in cp[section]:
            if key not in known:
                raise ConfigError(f"field {section}.{key}: unknown key")

    n = _get(cp, "model", "n")
    d = _get(cp, "model", "d")
    for key, size in (("n", n), ("d", d)):
        if size < 2:
            raise ConfigError(f"field model.{key}: must be >= 2, got {size}")

    init = _choose(cp, "algo", "init")
    stages = check_stages("outputs.stages", tuple(
        s.strip() for s in _get(cp, "outputs", "stages").split(",") if s.strip()), init)
    tols = {key: _get(cp, "compare", key) for key in ("w2_tol", "cov_tol")}
    for key, tol in tols.items():
        if tol < 0:
            raise ConfigError(f"field compare.{key}: must be >= 0, got {tol}")

    return ExperimentConfig(
        n=n, d=d, seed=check_seed("model.seed", _get(cp, "model", "seed")),
        delta=n / d,
        link=_choose(cp, "model", "link"),
        noise=_choose(cp, "model", "noise"),
        signal=_choose(cp, "model", "signal"),
        loss=_choose(cp, "loss", "name"),
        pre=_build(cp, "loss", phase_preprocess, {"m_clip": "M_clip"}),
        gd=_build(cp, "algo", GdConfig, {
            "gamma": "gamma", "lambda_ridge": "lambda_ridge", "m": "m"}),
        init=init,
        quadrature=_build(cp, "spectral", QuadratureSpec, {
            "gh_nodes": "gh_nodes", "z_samples": "z_samples", "quad_seed": "seed"}),
        monte_carlo=_build(cp, "dmft", MonteCarloSpec, {"K": "K", "seed": "seed"}),
        solver=_build(cp, "fixedpoint", SolverConfig, {
            "K": "K", "damping": "damping", "tol": "tol",
            "max_outer": "max_outer", "seed": "seed"}),
        fp_warm_start=_choose(cp, "fixedpoint", "warm_start"),
        w2_tol=tols["w2_tol"], cov_tol=tols["cov_tol"],
        out_dir=_get(cp, "outputs", "directory"),
        pipeline_stages=stages,
    )
