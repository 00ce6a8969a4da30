"""End-to-end CLI tests: config validation, artifacts, reproducibility."""

import configparser
import filecmp
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dmftsim import amp, cli, config, dmft, fixed_point
from dmftsim.cli import Runner, main
from dmftsim.config import ConfigError, load_config
from dmftsim.dmft import DmftState, tti_diagnostics
from dmftsim.gd import run_gd

ROOT = Path(__file__).resolve().parents[1]

BASE_CFG = """
[model]
n = 200
d = 100
link = abs
noise = point
noise_value = 0.0
signal = gaussian
seed = 3

[loss]
name = rwf
l_cut = 9.0
u_cut = 18.0
m_clip = 3.0

[algo]
gamma = 0.01
lambda_ridge = 0.1
m = 3

[spectral]
gh_nodes = 32
z_samples = 2000

[dmft]
K = 3000
seed = 11

[fixedpoint]
K = 3000
damping = 0.5
tol = 1e-8
max_outer = 60
seed = 2
warm_start = dmft

[compare]
w2_tol = 1.0
cov_tol = 1.0

[outputs]
directory = {out}
stages = {stages}
"""


def write_cfg(tmp_path, name="cfg.ini", **kw):
    kw.setdefault("out", str(tmp_path / "out"))
    kw.setdefault("stages", "spectral,simulate,dmft,amp-check,compare")
    path = tmp_path / name
    path.write_text(BASE_CFG.format(**kw))
    return path


def test_config_roundtrip(tmp_path):
    cfg = load_config(write_cfg(tmp_path))
    assert cfg.n == 200 and cfg.d == 100
    assert cfg.delta == 2.0
    assert cfg.loss.name == "rwf"
    assert cfg.pre.tau == 9.0


def test_config_missing_field(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nn = 10\n")
    with pytest.raises(ConfigError, match="model.d"):
        load_config(path)


def test_config_unknown_loss_names_field(tmp_path):
    text = BASE_CFG.format(out=str(tmp_path), stages="simulate")
    text = text.replace("name = rwf", "name = nonsense")
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match="loss"):
        load_config(path)


def test_cli_exit_codes_for_bad_config(tmp_path, capsys):
    text = BASE_CFG.format(out=str(tmp_path), stages="simulate")
    text = text.replace("name = rwf", "name = nonsense")
    path = tmp_path / "bad.ini"
    path.write_text(text)
    code = main(["simulate", "--config", str(path)])
    assert code == 2
    assert "loss" in capsys.readouterr().err


def test_minimal_simulate_pipeline(tmp_path):
    cfg = write_cfg(tmp_path, stages="simulate")
    code = main(["pipeline", "--config", str(cfg)])
    assert code == 0
    out = tmp_path / "out"
    assert (out / "trajectory.csv").exists()
    rows = (out / "trajectory.csv").read_text().strip().split("\n")
    assert rows[0] == "t,dist,overlap,loss"
    assert len(rows) == 5  # header + t=0..3


def test_full_pipeline_artifacts(tmp_path):
    cfg = write_cfg(tmp_path)
    code = main(["pipeline", "--config", str(cfg)])
    assert code == 0
    out = tmp_path / "out"
    expected = [
        "spectral.json", "trajectory.csv", "C_theta.csv", "R_theta.csv",
        "C_eta.csv", "R_eta.csv", "kernels_channels.csv",
        "dmft_theta_samples.npy", "dmft_eta_samples.npy",
        "dmft_diagnostics.json", "amp_check.json", "comparison.json",
        "comparison.csv", "pipeline_status.json",
    ]
    for name in expected:
        assert (out / name).exists(), name
    amp = json.loads((out / "amp_check.json").read_text())
    assert amp["equiv_error_theta"] <= 1e-8
    spectral = json.loads((out / "spectral.json").read_text())
    for key in ("lambda_star", "lambda_bar", "overlap_a", "lam1_lim",
                "lam2_lim", "lam1_emp", "lam2_emp", "overlap_emp"):
        assert key in spectral


def test_pipeline_byte_identical_reruns(tmp_path):
    cfg_a = write_cfg(tmp_path, name="a.ini", out=str(tmp_path / "out_a"))
    cfg_b = write_cfg(tmp_path, name="b.ini", out=str(tmp_path / "out_b"))
    assert main(["pipeline", "--config", str(cfg_a)]) == 0
    assert main(["pipeline", "--config", str(cfg_b)]) == 0
    out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, stages="simulate")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o1")]) == 0
    assert main(["simulate", "--config", str(cfg), "--seed", "4",
                 "--out", str(tmp_path / "o2")]) == 0
    a = (tmp_path / "o1" / "trajectory.csv").read_text()
    b = (tmp_path / "o2" / "trajectory.csv").read_text()
    assert a != b


LINEAR_CFG = """
[model]
n = 200
d = 100
link = linear
noise = gaussian
noise_sigma = 0.3
signal = gaussian
seed = 3
[loss]
name = linear-pseudo-huber
m_clip = 2.0
[algo]
gamma = 0.08
lambda_ridge = 1.0
m = 3
init = independent
[spectral]
gh_nodes = 32
z_samples = 2000
[fixedpoint]
K = 20000
warm_start = none
[outputs]
directory = {out}
stages = fixed-point
"""


def test_fixed_point_stage(tmp_path):
    # strongly convex model: the stationary system has a clean cold-start
    # solution even at toy sizes
    path = tmp_path / "lin.ini"
    path.write_text(LINEAR_CFG.format(out=tmp_path / "out"))
    code = main(["pipeline", "--config", str(path)])
    record = json.loads((tmp_path / "out" / "fixed_point.json").read_text())
    assert set(record) >= {"R_theta_inf", "R_eta_inf", "R_eta_star",
                           "Gamma_inf", "C_eta_inf", "C_theta_inf",
                           "residuals", "iterations"}
    assert record["converged"]
    assert code == 0
    # the residual trace: one row per outer step from the second on
    rows = (tmp_path / "out" / "fixed_point_trace.csv").read_text().splitlines()
    assert rows[0] == "outer_step,max_param_change"
    steps = [int(r.split(",")[0]) for r in rows[1:]]
    changes = [float(r.split(",")[1]) for r in rows[1:]]
    assert steps == list(range(2, record["iterations"] + 1))
    assert changes[-1] < 1e-8 <= changes[0]


def test_fixed_point_stage_drops_the_pools_only_its_residuals_read(tmp_path):
    path = tmp_path / "lin.ini"
    path.write_text(LINEAR_CFG.format(out=tmp_path / "out"))
    cfg = load_config(path)
    runner = Runner(cfg, tmp_path / "out")
    runner.out.mkdir()
    before = runner.fixed_point
    pools = [name for name, v in vars(before).items()
             if isinstance(v, np.ndarray) and v.shape == (cfg.solver.K,)]
    assert len(pools) == 7
    assert runner.stage_fixed_point() == {"ok": True}
    after = runner.fixed_point
    assert all(getattr(after, name) is None for name in pools)
    for name, v in vars(before).items():
        if name not in pools:
            assert np.array_equal(getattr(after, name), v), name


def test_independent_init_draws_theta0_from_the_model_seed(tmp_path):
    # a direction of norm sqrt(d), independent of the design: drawn from
    # model.seed alone, with no spectral estimate computed
    path = tmp_path / "lin.ini"
    path.write_text(LINEAR_CFG.format(out=tmp_path / "out"))
    cfg = load_config(path)
    runners = [Runner(c, tmp_path) for c in (cfg, cfg, replace(cfg, seed=cfg.seed + 1))]
    same, again, other = (r.theta0 for r in runners)
    assert np.linalg.norm(same) == pytest.approx(np.sqrt(cfg.d), rel=1e-12)
    assert same.tobytes() == again.tobytes() != other.tobytes()
    assert all("spec_result" not in vars(r) for r in runners)


def test_dmft_diagnostics_report_tti_from_horizon_10(tmp_path):
    path = write_cfg_with(tmp_path, {("algo", "m"): "10"}, stages="dmft")
    assert main(["dmft", "--config", str(path)]) == 0
    diag = json.loads((tmp_path / "out" / "dmft_diagnostics.json").read_text())
    rep = tti_diagnostics(Runner(load_config(path), tmp_path).dmft)
    assert diag["tti_deviation_by_lag"] == {str(k): v for k, v in rep.tti_dev.items()}
    assert list(diag["tti_deviation_by_lag"]) == ["1", "2", "3", "4", "5"]
    assert np.isfinite(rep.fit_slope) and np.isfinite(rep.fit_r2)
    assert diag["response_fit_slope"] == rep.fit_slope
    assert diag["response_fit_r2"] == rep.fit_r2
    assert diag["dia_theta_decay_ratio"] == (
        rep.dia_theta.max() / max(rep.dia_theta[-1], 1e-300))


def test_fixed_point_stage_reports_off_branch_failure(tmp_path):
    # nonconvex loss warm-started from a too-short DMFT tail: the stage must
    # report non-convergence and fail the pipeline rather than fake a root
    cfg = write_cfg(tmp_path, stages="dmft,fixed-point")
    with pytest.warns(RuntimeWarning, match="pole-free") as caught:
        code = main(["pipeline", "--config", str(cfg)])
    # one projection warning, at the end, naming the first projected step
    [projected] = [str(w.message) for w in caught if "pole-free" in str(w.message)]
    assert re.search(r"lacked a pole-free root on \d+ of \d+ outer steps, "
                     r"first at step \d+ \(projected to R=", projected)
    record = json.loads((tmp_path / "out" / "fixed_point.json").read_text())
    assert not record["converged"]
    assert code == 1
    status = json.loads((tmp_path / "out" / "pipeline_status.json").read_text())
    assert status["dmft"] == {"ok": True}
    assert status["fixed-point"]["ok"] is False
    assert status["fixed-point"]["reason"].startswith(
        f"the last outer step ({record['iterations']}) projected R_theta")


def test_compare_stage_reports_the_statistic_over_its_tolerance(tmp_path):
    path = write_cfg_with(tmp_path, {("compare", "w2_tol"): "0",
                                     ("compare", "cov_tol"): "0"},
                          stages="simulate,dmft,compare")
    assert main(["pipeline", "--config", str(path)]) == 1
    out = tmp_path / "out"
    record = json.loads((out / "comparison.json").read_text())
    w2 = record["w2_theta"]
    t = w2.index(max(w2))
    status = json.loads((out / "pipeline_status.json").read_text())
    assert status["compare"]["ok"] is False
    assert status["compare"]["reason"].startswith(
        f"w2_theta = {max(w2):.6g} at t = {t} exceeds w2_tol = 0; w2_eta = ")
    assert status["compare"]["reason"].endswith(
        f"; cov_disc_theta = {record['cov_disc_theta']:.6g} exceeds cov_tol = 0")
    assert all(status[s] == {"ok": True} for s in ("simulate", "dmft"))


def test_amp_check_stage_reports_the_error_over_its_tolerance(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.amp_mod, "verify_equivalence",
                        lambda run, traj: (0.0, 2.5e-7))
    path = write_cfg(tmp_path, stages="dmft,amp-check")
    assert main(["pipeline", "--config", str(path)]) == 1
    status = json.loads((tmp_path / "out" / "pipeline_status.json").read_text())
    assert status["amp-check"] == {
        "ok": False, "reason": "equiv_error_eta = 2.5e-07 exceeds 1e-08"}


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "absent.ini"
    assert main(["pipeline", "--config", str(path)]) == 2
    assert f"config file not found: {path}" in capsys.readouterr().err


def test_amp_check_subcommand_with_independent_init_exits_2(tmp_path, capsys):
    # outputs.stages does not name amp-check; the subcommand's one-stage
    # list is refused by the same check
    path = tmp_path / "lin.ini"
    path.write_text(LINEAR_CFG.format(out=tmp_path / "out"))
    assert main(["amp-check", "--config", str(path)]) == 2
    assert ("field outputs.stages (subcommand): amp-check requires field "
            "algo.init = spectral, got 'independent'") in capsys.readouterr().err
    assert not (tmp_path / "out" / "amp_check.json").exists()


def test_rademacher_noise_and_signal(tmp_path):
    path = write_cfg_with(tmp_path, {("model", "noise"): "rademacher",
                                     ("model", "noise_value"): None,
                                     ("model", "signal"): "rademacher"})
    cfg = load_config(path)
    for dist in (cfg.noise, cfg.signal):
        assert dist.name == "rademacher" and dist.second_moment == 1.0
        draws = dist.sample(np.random.default_rng(0), 1000)
        assert set(np.unique(draws)) == {-1.0, 1.0}


def test_amp_check_with_independent_init_is_a_config_error(tmp_path, capsys):
    # refused at load time: no stage before amp-check may run
    path = tmp_path / "lin.ini"
    path.write_text(LINEAR_CFG.format(out=tmp_path / "out").replace(
        "stages = fixed-point", "stages = simulate,amp-check"))
    with pytest.raises(ConfigError, match="outputs.stages.*algo.init"):
        load_config(path)
    code = main(["pipeline", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "outputs.stages" in err and "algo.init" in err
    assert not (tmp_path / "out").exists()


def write_cfg_with(tmp_path, fields, **kw):
    """write_cfg with the {(section, key): value} ``fields`` overridden; a
    value of None removes the key."""
    cp = configparser.ConfigParser()
    cp.read(write_cfg(tmp_path, **kw))
    for (section, key), value in fields.items():
        if value is None:
            cp.remove_option(section, key)
        else:
            cp.set(section, key, value)
    path = tmp_path / "override.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    return path


# fields a case also sets, so that the model it builds reads its field, and
# removes (None), so that the file holds no key that model does not read
CASE_CONTEXT = {
    ("model", "noise_sigma"): {("model", "noise"): "gaussian",
                               ("model", "noise_value"): None},
    ("loss", "scale"): {("loss", "name"): "linear-pseudo-huber",
                        ("loss", "l_cut"): None, ("loss", "u_cut"): None},
}


@pytest.mark.parametrize("section,key,value", [
    ("algo", "m", "-1"),
    ("algo", "gamma", "-0.1"),
    ("algo", "gamma", "nan"),
    ("algo", "gamma", "inf"),
    ("algo", "lambda_ridge", "-1"),
    ("spectral", "gh_nodes", "8"),
    ("spectral", "z_samples", "0"),
    ("dmft", "K", "0"),
    ("fixedpoint", "K", "0"),
    ("fixedpoint", "damping", "0"),
    ("fixedpoint", "tol", "0"),
    ("fixedpoint", "tol", "nan"),
    ("fixedpoint", "max_outer", "0"),
    ("compare", "w2_tol", "nan"),
    ("compare", "w2_tol", "-1"),
    ("compare", "cov_tol", "nan"),
    ("compare", "cov_tol", "-1"),
    ("model", "noise_sigma", "nan"),
    ("model", "noise_sigma", "-1"),
    ("model", "noise_value", "nan"),
    ("loss", "scale", "nan"),
    ("loss", "m_clip", "nan"),
    ("loss", "m_clip", "inf"),
    ("loss", "u_cut", "inf"),
    ("model", "seed", "-1"),
    ("spectral", "quad_seed", "-1"),
    ("dmft", "seed", "-1"),
    ("fixedpoint", "seed", "-1"),
    ("algo", "m", "3.5"),                 # unparsable
    ("model", "n", "1"),
    ("model", "d", "1"),
    ("algo", "init", "random"),
    ("fixedpoint", "warm_start", "cold"),
    ("outputs", "stages", "spectral,plot"),
    ("outputs", "stages", ""),
    ("outputs", "stages", "dmft,dmft"),
    ("model", "signal", "point"),         # a point mass at 0: no signal
    ("model", "link", "foo"),
    ("model", "noise", "foo"),
    ("model", "signal", "foo"),
    ("loss", "name", "foo"),
])
def test_out_of_range_field_is_a_config_error(tmp_path, capsys, section, key, value):
    fields = {**CASE_CONTEXT.get((section, key), {}), (section, key): value}
    path = write_cfg_with(tmp_path, fields,
                          stages="spectral,simulate,dmft,fixed-point,compare")
    code = main(["pipeline", "--config", str(path)])
    assert code == 2
    assert f"field {section}.{key}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields,field", [
    ({("model", "noise_sigma"): "nan"}, "model.noise_sigma"),
    ({("model", "noise_sigma"): "-1"}, "model.noise_sigma"),
    ({("model", "noise"): "gaussian"}, "model.noise_value"),
    ({("loss", "name"): "linear-pseudo-huber", ("loss", "u_cut"): None}, "loss.l_cut"),
    ({("loss", "name"): "linear-pseudo-huber", ("loss", "l_cut"): None}, "loss.u_cut"),
    ({("loss", "scale"): "nan"}, "loss.scale"),
], ids=["noise_sigma-nan", "noise_sigma--1", "noise_value", "l_cut", "u_cut",
        "scale-nan"])
def test_key_the_chosen_name_does_not_read_is_a_config_error(tmp_path, capsys,
                                                             fields, field):
    # point noise reads only noise_value, gaussian only noise_sigma; rwf
    # reads only l_cut and u_cut, linear-pseudo-huber only scale
    path = write_cfg_with(tmp_path, fields)
    with pytest.raises(ConfigError, match=f"field {field}: read only with"):
        load_config(path)
    assert main(["pipeline", "--config", str(path)]) == 2
    assert f"field {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["README.md", *sorted(
    p.name for p in (ROOT / "configs").glob("*.ini"))])
def test_example_config_loads(tmp_path, name):
    # README's example and every shipped config
    if name == "README.md":
        blocks = (ROOT / "README.md").read_text().split("```ini\n")[1:]
        assert len(blocks) == 1
        text = blocks[0].split("```")[0]
    else:
        text = (ROOT / "configs" / name).read_text()
    path = tmp_path / "example.ini"
    path.write_text(text)
    cfg = load_config(path)
    cp = configparser.ConfigParser()
    cp.read(path)
    assert (cfg.link.name, cfg.loss.name, cfg.init) == (
        cp["model"]["link"], cp["loss"]["name"], cp["algo"]["init"])
    assert cfg.pipeline_stages == tuple(cp["outputs"]["stages"].split(","))


def test_unknown_signal_lists_only_the_signal_choices(tmp_path):
    path = write_cfg_with(tmp_path, {("model", "signal"): "foo"})
    with pytest.raises(ConfigError, match="field model.signal: ") as err:
        load_config(path)
    message = str(err.value)
    assert "gaussian" in message and "rademacher" in message
    assert "point" not in message


def test_negative_seed_option_is_a_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert main(["pipeline", "--config", str(path), "--seed", "-1"]) == 2
    assert "field model.seed (--seed): must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key,value", [
    ("algo", "gama", "0.3"),
    ("outputs", "sample_format", "csv"),
    ("model", "delta", "2.0"),    # delta is n/d, never read from the file
    ("loss", "preprocess", "phase-clip"),    # m_clip always builds phase-clip
])
def test_unknown_key_is_a_config_error(tmp_path, capsys, section, key, value):
    path = write_cfg_with(tmp_path, {(section, key): value})
    with pytest.raises(ConfigError, match=f"field {section}.{key}: unknown key"):
        load_config(path)
    assert main(["pipeline", "--config", str(path)]) == 2
    assert f"field {section}.{key}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_section_is_a_config_error(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_CFG.format(out=str(tmp_path), stages="simulate")
                    + "[algos]\n")
    with pytest.raises(ConfigError, match=r"section \[algos\]"):
        load_config(path)


@pytest.mark.parametrize("text,message", [
    ("[model]\nn = 200\nn = 300\n", "{path}, line 3: "),    # a key given twice
    ("n = 200\n", "{path}, line 1: "),                      # no section header
    ("[model]\nn = 10%\n", "field model.n: cannot parse '10%'"),   # no interpolation
])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["spectral", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: " + message.format(path=path))


@pytest.mark.parametrize("subcommand,out,given", [
    ("spectral", "afile", True),          # --out is a regular file
    ("pipeline", "afile/sub", True),      # --out lies under one
    ("pipeline", "afile/sub", False),     # outputs.directory lies under one
])
def test_uncreatable_output_directory_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                        subcommand, out, given):
    def no_stage(runner):
        raise AssertionError("a stage ran")
    monkeypatch.setattr(Runner, "STAGES", dict.fromkeys(Runner.STAGES, no_stage))
    (tmp_path / "afile").write_text("kept")
    out = tmp_path / out
    path = write_cfg(tmp_path, out=str(out) if not given else str(tmp_path / "unused"))
    argv = [subcommand, "--config", str(path)] + (["--out", str(out)] if given else [])
    assert main(argv) == 2
    field = "outputs.directory (--out)" if given else "outputs.directory"
    assert capsys.readouterr().err.startswith(
        f"config error: field {field}: cannot create directory {str(out)!r}: ")
    assert (tmp_path / "afile").read_text() == "kept"
    assert not (tmp_path / "unused").exists()


def test_pipeline_builds_the_loss_once(tmp_path, monkeypatch):
    built = []
    rwf_loss = config.rwf_loss

    def counting_rwf_loss(profile):
        built.append(profile)
        return rwf_loss(profile)
    monkeypatch.setattr(config, "rwf_loss", counting_rwf_loss)
    path = write_cfg(tmp_path, stages="spectral,simulate,dmft,amp-check,"
                                      "fixed-point,compare")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        main(["pipeline", "--config", str(path)])
    assert len(built) == 1


@pytest.mark.parametrize("stage,written", [
    ("spectral", ["spectral.json"]),
    ("simulate", ["trajectory.csv"]),
])
def test_subcommand_writes_the_status_of_its_one_stage(tmp_path, stage, written):
    path = write_cfg(tmp_path, stages="dmft")
    assert main([stage, "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*written, "pipeline_status.json"])
    status = json.loads((out / "pipeline_status.json").read_text())
    assert status == {stage: {"ok": True}}


def test_raising_subcommand_stage_is_recorded_in_pipeline_status(tmp_path, monkeypatch):
    def boom(runner):
        raise RuntimeError("boom")
    monkeypatch.setitem(Runner.STAGES, "compare", boom)
    path = write_cfg(tmp_path, stages="spectral,dmft")
    with pytest.raises(RuntimeError, match="boom"):
        main(["compare", "--config", str(path)])
    status = json.loads((tmp_path / "out" / "pipeline_status.json").read_text())
    assert status == {"compare": {"ok": False, "error": "RuntimeError: boom"}}


def test_full_pipeline_writes_every_table_through_one_writer(tmp_path, monkeypatch):
    # the benchmark times the CSV tables by this one name
    tables = []
    writer = cli._write_matrix_csv

    def counting(path, *args, **kwargs):
        tables.append(path.name)
        return writer(path, *args, **kwargs)
    monkeypatch.setattr(cli, "_write_matrix_csv", counting)
    path = write_cfg(tmp_path, stages=",".join(config.STAGE_NAMES))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        main(["pipeline", "--config", str(path)])
    assert sorted(tables) == sorted(
        p.name for p in (tmp_path / "out").iterdir() if p.suffix == ".csv")
    assert len(tables) == 8


def test_raising_stage_is_recorded_in_pipeline_status(tmp_path, monkeypatch):
    def boom(runner):
        raise RuntimeError("boom")
    monkeypatch.setitem(Runner.STAGES, "dmft", boom)
    path = write_cfg(tmp_path, stages="spectral,dmft,compare")
    with pytest.raises(RuntimeError, match="boom"):
        main(["pipeline", "--config", str(path)])
    status = json.loads((tmp_path / "out" / "pipeline_status.json").read_text())
    assert status == {"spectral": {"ok": True},
                      "dmft": {"ok": False, "error": "RuntimeError: boom"}}


# present: per stage in run order, whether X is held as the stage starts,
# None while the instance is not drawn yet
@pytest.mark.parametrize("stages,present", [
    ("spectral,simulate,dmft,fixed-point,compare",
     {"spectral": None, "simulate": True, "dmft": False, "fixed-point": False,
      "compare": False}),
    ("spectral,simulate,dmft,amp-check,fixed-point,compare",
     {"dmft": None, "spectral": None, "simulate": True, "amp-check": True,
      "fixed-point": False, "compare": False}),
    ("dmft,compare", {"dmft": None, "compare": None}),
])
def test_pipeline_drops_design_matrix_after_its_last_reader(
        tmp_path, monkeypatch, stages, present):
    seen = {}

    def recording(name, fn):
        def stage(runner):
            # reading runner.inst would draw the instance, so look it up
            # in the cache only
            inst = vars(runner).get("inst")
            seen[name] = None if inst is None else inst.X is not None
            return fn(runner)
        return stage
    for name, fn in list(Runner.STAGES.items()):
        monkeypatch.setitem(Runner.STAGES, name, recording(name, fn))
    gd_saw_X = []

    def recording_run_gd(inst, *args):
        gd_saw_X.append(inst.X is not None)
        return run_gd(inst, *args)
    monkeypatch.setattr(cli, "run_gd", recording_run_gd)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        main(["pipeline", "--config", str(write_cfg(tmp_path, stages=stages))])
    assert seen == present
    assert list(seen) == list(present)
    assert gd_saw_X == [True]


@pytest.mark.parametrize("stages,order", [
    ("spectral,simulate,dmft,amp-check,fixed-point,compare",
     ["run_dmft", "make_instance"]),
    ("spectral,simulate,dmft,fixed-point,compare",
     ["make_instance", "run_dmft"]),
    ("simulate,dmft,compare", ["make_instance", "run_dmft"]),
])
def test_dmft_runs_before_the_instance_draw_only_with_amp_check(
        tmp_path, monkeypatch, stages, order):
    """amp-check reads both X and the DMFT state's sample pools; run_dmft
    then returns, and its per-path step arrays are released, before X is
    drawn.  Otherwise the stages keep the order spectral, simulate, dmft,
    amp-check, fixed-point, compare."""
    events = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            events.append(name)
            return out
        return call
    monkeypatch.setattr(cli, "make_instance",
                        recorded("make_instance", cli.make_instance))
    monkeypatch.setattr(cli.dmft_mod, "run_dmft",
                        recorded("run_dmft", cli.dmft_mod.run_dmft))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cli.run_pipeline(load_config(write_cfg(tmp_path, stages=stages)), out)
    assert events == order


def test_dmft_failure_with_amp_check_stops_before_spectral(tmp_path, monkeypatch):
    def boom(runner):
        raise RuntimeError("boom")
    monkeypatch.setitem(Runner.STAGES, "dmft", boom)
    path = write_cfg(tmp_path, stages="spectral,dmft,amp-check")
    with pytest.raises(RuntimeError, match="boom"):
        main(["pipeline", "--config", str(path)])
    out = tmp_path / "out"
    status = json.loads((out / "pipeline_status.json").read_text())
    assert status == {"dmft": {"ok": False, "error": "RuntimeError: boom"}}
    assert not (out / "spectral.json").exists()


def test_pipeline_artifacts_equal_unreleased_stage_by_stage_runs(tmp_path, monkeypatch):
    stages = ["spectral", "simulate", "dmft", "amp-check", "fixed-point", "compare"]
    path = write_cfg(tmp_path, stages=",".join(stages))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        main(["pipeline", "--config", str(path)])
        monkeypatch.setattr(DmftState, "release_paths", lambda self: None)
        single, single_status = {}, {}
        for name in stages:
            out = tmp_path / f"single_{name}"
            main([name, "--config", str(path), "--out", str(out)])
            single.update({p.name: p for p in out.iterdir()
                           if p.name != "pipeline_status.json"})
            single_status.update(json.loads((out / "pipeline_status.json").read_text()))
    pipeline = {p.name: p for p in (tmp_path / "out").iterdir()}
    assert sorted(single) == sorted(set(pipeline) - {"pipeline_status.json"})
    for name, p in single.items():
        assert p.read_bytes() == pipeline[name].read_bytes(), name
    # each single run's status names its own stage only, as the pipeline did
    assert single_status == json.loads(
        (tmp_path / "out" / "pipeline_status.json").read_text())


def test_benchmark_tracer_finds_every_name_it_patches():
    # bench/tracer.py wraps dmftsim functions by name; a renamed or deleted
    # one raises AttributeError at install.  Installed in a subprocess so
    # that the wrappers stay out of this test session.
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, 'bench'); "
            "from tracer import Tracer, install; from dmftsim import cli; "
            "install(Tracer('t'), cli)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_sees_only_the_main_thread(tmp_path):
    # the split kernels' workers must not call a name bench/tracer.py wraps:
    # its span stack is shared by all threads.  Every traced call asserts
    # that it runs on the main thread, through pipelines of both shipped
    # configs at sizes where every split site splits (n and d at least
    # halves.MIN_SPLIT; the smaller grid and pools keep the run short).
    root = Path(__file__).resolve().parents[1]
    sizes = {"model": {"n": "2100", "d": "1100"}, "algo": {"m": "3"},
             "spectral": {"gh_nodes": "32", "z_samples": "2000"},
             "dmft": {"k": "2000"}, "fixedpoint": {"k": "3000", "max_outer": "20"},
             "compare": {"w2_tol": "1.0", "cov_tol": "1.0"}}
    configs = []
    for name in ("phase_retrieval.ini", "linear_pseudo_huber.ini"):
        cp = configparser.ConfigParser()
        cp.read(root / "configs" / name)
        for section, values in sizes.items():
            cp[section].update(values)
        configs.append(tmp_path / name)
        with open(configs[-1], "w") as fh:
            cp.write(fh)
    code = """
import pathlib, sys, threading, warnings
sys.path.insert(0, 'bench')
import tracer
from dmftsim import cli
wrap = tracer.Tracer.wrap

def main_thread_only(self, name, fn, on_return=None):
    traced = wrap(self, name, fn, on_return)
    def guarded(*args, **kwargs):
        assert threading.current_thread() is threading.main_thread(), name
        return traced(*args, **kwargs)
    return guarded

tracer.Tracer.wrap = main_thread_only
t = tracer.Tracer('t')
tracer.install(t, cli)
warnings.simplefilter('ignore')
for path in sys.argv[1:]:
    cli.run_pipeline(cli.load_config(path), pathlib.Path(path + '.out'))
names = {s[0] for s in t.spans}
assert {'spectral.build_Mn', 'gd.run_gd', 'amp.run_spectral_amp',
        'fixed_point._solve_eta_pool', 'spectral.quad_eval'} <= names, names
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, configs)],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr


def fsum_fmean(x, y=None):
    """The reference kernel average: math.fsum per row of x (times y),
    divided by the row's size."""
    if y is not None:
        x = x * y
    if x.ndim == 2:
        return np.array([math.fsum(row) / row.size for row in x])
    return math.fsum(x) / x.size


@pytest.mark.parametrize("name", ["phase_retrieval.ini", "linear_pseudo_huber.ini"])
def test_shipped_pipeline_artifacts_equal_the_fsum_reference(tmp_path, monkeypatch, name):
    # every artifact of a reduced-size pipeline on a shipped config keeps its
    # bytes when fmean is replaced, under every name it is called by, with
    # math.fsum row by row
    sizes = {"algo": {"m": "6"}, "spectral": {"gh_nodes": "32", "z_samples": "2000"},
             "dmft": {"k": "3000"}, "fixedpoint": {"k": "3000"},
             "compare": {"w2_tol": "1.0", "cov_tol": "1.0"}}
    cp = configparser.ConfigParser()
    cp.read(ROOT / "configs" / name)
    delta = int(cp["model"]["n"]) // int(cp["model"]["d"])
    cp["model"].update({"n": str(300 * delta), "d": "300"})
    for section, values in sizes.items():
        cp[section].update(values)
    path = tmp_path / name
    with open(path, "w") as fh:
        cp.write(fh)
    codes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        codes.append(main(["pipeline", "--config", str(path), "--out", str(tmp_path / "a")]))
        for module in (dmft, amp, fixed_point):
            monkeypatch.setattr(module, "fmean", fsum_fmean)
        codes.append(main(["pipeline", "--config", str(path), "--out", str(tmp_path / "b")]))
    assert codes == [0, 0]
    written = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "C_eta.csv" in written and "fixed_point.json" in written
    for artifact in written:
        assert ((tmp_path / "a" / artifact).read_bytes()
                == (tmp_path / "b" / artifact).read_bytes()), artifact
