"""Command line entry point: dmftsim <subcommand> --config cfg.ini --out dir.

Subcommands: spectral | simulate | dmft | fixed-point | amp-check | compare
| pipeline.  ``pipeline`` runs the stages of ``outputs.stages``; a stage's
subcommand runs the one-stage pipeline of that stage.  Every stage is
deterministic given the config, and CSV/JSON artifacts are byte-identical
across reruns.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import amp as amp_mod
from . import dmft as dmft_mod
from . import fixed_point as fp_mod
from . import metrics
from .config import (STAGE_NAMES, ConfigError, ExperimentConfig, check_seed,
                     check_stages, load_config)
from .gd import empirical_joint, loss_value, run_gd
from .model import make_instance
from .spectral import solve_lambda_star, spectral_estimator

FLOAT_FMT = "%.17g"


def _status(failures: list) -> dict:
    """A stage's pipeline status: ok, or not ok with its failed checks."""
    return {"ok": False, "reason": "; ".join(failures)} if failures else {"ok": True}


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_matrix_csv(path: Path, M, corner: str = "t\\s", columns=None,
                      start: int = 0) -> None:
    """A table of the rows of ``M``: a header of ``corner`` and the column
    names (by default the column indices), then per row its index, counting
    from ``start``, and its values."""
    M = np.atleast_2d(M)
    if columns is None:
        columns = range(M.shape[1])
    with open(path, "w") as fh:
        fh.write(",".join([corner, *map(str, columns)]) + "\n")
        for t, row in enumerate(M, start=start):
            fh.write(f"{t}," + ",".join(FLOAT_FMT % v for v in row) + "\n")


def _write_samples(path_base: Path, arr: np.ndarray) -> Path:
    path = path_base.with_suffix(".npy")
    # the sample matrices are transposed views of the DMFT pools; save them
    # C-ordered so the file does not depend on the pool layout
    np.save(path, np.ascontiguousarray(arr))
    return path


class Runner:
    """Caches the expensive intermediates shared between pipeline stages."""

    def __init__(self, cfg: ExperimentConfig, out: Path):
        self.cfg = cfg
        self.out = out

    # -- shared intermediates ---------------------------------------------

    @cached_property
    def lam_sol(self):
        cfg = self.cfg
        return solve_lambda_star(
            cfg.pre, cfg.link, cfg.noise, cfg.delta, cfg.quadrature)

    @cached_property
    def inst(self):
        cfg = self.cfg
        return make_instance(cfg.n, cfg.d, cfg.seed, cfg.link, cfg.noise,
                             cfg.signal)

    @cached_property
    def spec_result(self):
        return spectral_estimator(self.inst, self.cfg.pre)

    @cached_property
    def theta0(self) -> np.ndarray:
        cfg = self.cfg
        if cfg.init == "spectral":
            return self.spec_result.theta0
        rng = np.random.default_rng(cfg.seed + 7_777_777)
        theta0 = rng.standard_normal(cfg.d)
        return theta0 * np.sqrt(cfg.d) / np.linalg.norm(theta0)

    @cached_property
    def traj(self):
        return run_gd(self.inst, self.cfg.loss, self.cfg.gd, self.theta0)

    @cached_property
    def dmft(self) -> dmft_mod.DmftState:
        """The DMFT state run to horizon m, released down to its law,
        kernels and responses."""
        cfg = self.cfg
        state = dmft_mod.init_dmft(
            cfg.loss, cfg.link, cfg.noise, cfg.pre,
            self.lam_sol, cfg.delta, cfg.gd.gamma, cfg.gd.lambda_ridge,
            cfg.monte_carlo, signal=cfg.signal,
            independent_init=(cfg.init == "independent"))
        dmft_mod.run_dmft(state, cfg.gd.m)
        state.release_paths()
        return state

    @cached_property
    def fixed_point(self):
        cfg = self.cfg
        init = None
        if cfg.fp_warm_start == "dmft":
            init = fp_mod.warm_start_from_dmft(self.dmft)
        return fp_mod.iterate_fixed_point(
            cfg.loss, cfg.noise, cfg.delta, cfg.gd.lambda_ridge, cfg.solver,
            init=init, signal=cfg.signal)

    def drop_design_matrix(self, remaining) -> None:
        """Drop ``inst.X`` once none of the ``remaining`` stages can read it:
        spectral and amp-check read it, simulate and compare through
        ``traj`` until that is cached."""
        readers = {"spectral", "amp-check"}
        if "traj" not in vars(self):
            readers |= {"simulate", "compare"}
        if "inst" in vars(self) and readers.isdisjoint(remaining):
            self.inst = replace(self.inst, X=None)

    # -- stages -------------------------------------------------------------

    def stage_spectral(self) -> dict:
        sol = self.lam_sol
        spec = self.spec_result
        record = {
            "lambda_star": sol.lambda_star,
            "lambda_bar": sol.lambda_bar,
            "overlap_a": sol.overlap_a,
            "lam1_lim": sol.lam1_lim,
            "lam2_lim": sol.lam2_lim,
            "lam1_emp": spec.lam1_emp,
            "lam2_emp": spec.lam2_emp,
            "overlap_emp": spec.overlap_emp,
        }
        _write_json(self.out / "spectral.json", record)
        return {"ok": True}

    def stage_simulate(self) -> dict:
        inst = self.inst
        traj = self.traj
        sqd = np.sqrt(inst.d)
        rows = [(np.linalg.norm(traj.theta[t] - inst.theta_star) / sqd,
                 traj.theta[t] @ inst.theta_star / inst.d,
                 loss_value(self.cfg.loss, traj, t)) for t in range(traj.m + 1)]
        _write_matrix_csv(self.out / "trajectory.csv", rows, "t",
                          ("dist", "overlap", "loss"))
        return {"ok": True}

    def stage_dmft(self) -> dict:
        state = self.dmft
        out = self.out
        m = state.t_eta
        _write_matrix_csv(out / "C_theta.csv", state.C_theta)
        _write_matrix_csv(out / "R_theta.csv", state.R_theta)
        _write_matrix_csv(out / "C_eta.csv", state.C_eta)
        _write_matrix_csv(out / "R_eta.csv", state.R_eta)
        channels = {
            "C_theta_star": state.c_theta_star,
            "R_theta_diamond": state.r_theta_dia,
            "C_eta_diamond": state.c_eta_dia,
            "R_eta_star": state.R_eta_star,
            "R_eta_diamond": state.R_eta_dia,
            "R_eta_diamond2": state.R_eta_dd,
            "Gamma": state.Gamma,
        }
        _write_matrix_csv(out / "kernels_channels.csv",
                          np.column_stack(list(channels.values())), "t", channels)
        _write_samples(out / "dmft_theta_samples", state.thetas.T)
        _write_samples(out / "dmft_eta_samples", state.etas.T)
        diag = {
            "C_eta_diamond_diamond": state.C_eta_dia_dia,
            "overlap_a": state.a,
            "min_eig_w_process": min(state.w_proc.min_eig_before_jitter),
            "min_eig_u_process": min(state.u_proc.min_eig_before_jitter),
        }
        if m >= 10:
            rep = dmft_mod.tti_diagnostics(state)
            diag["tti_deviation_by_lag"] = {str(k): v for k, v in rep.tti_dev.items()}
            diag["response_fit_slope"] = rep.fit_slope
            diag["response_fit_r2"] = rep.fit_r2
            diag["dia_theta_decay_ratio"] = float(
                rep.dia_theta.max() / max(rep.dia_theta[-1], 1e-300))
        _write_json(out / "dmft_diagnostics.json", diag)
        return {"ok": True}

    def stage_fixed_point(self) -> dict:
        cfg = self.cfg
        fp = self.fixed_point
        res = fp_mod.fixed_point_residuals(fp, cfg.loss, cfg.delta,
                                           cfg.gd.lambda_ridge)
        # the residuals are the one reader of the fixed point's K-sample pools
        self.fixed_point = replace(fp, eta_inf=None, w_inf=None, w_star=None, z=None,
                                   theta_inf=None, theta_star=None, u_inf=None)
        record = {
            "R_theta_inf": fp.R_theta_inf,
            "R_eta_inf": fp.R_eta_inf,
            "R_eta_star": fp.R_eta_star,
            "Gamma_inf": fp.Gamma_inf,
            "C_eta_inf": fp.C_eta_inf,
            "C_theta_inf": fp.C_theta_inf,
            "residuals": res,
            "iterations": fp.iterations,
            "converged": fp.converged,
        }
        _write_json(self.out / "fixed_point.json", record)
        # one row per outer step from the second on: its length follows the
        # step count, so it has its own file and fixed_point.json keeps a
        # fixed set of scalars
        _write_matrix_csv(self.out / "fixed_point_trace.csv",
                          np.column_stack([fp.residual_trace]), "outer_step",
                          ["max_param_change"], start=2)
        return _status([fp.reason] if fp.reason else [])

    def stage_amp_check(self) -> dict:
        cfg = self.cfg
        state = self.dmft
        gd = cfg.gd
        table = amp_mod.onsager_from_dmft(state, gd.m)
        run = amp_mod.run_spectral_amp(
            self.inst, cfg.pre, self.lam_sol, self.theta0,
            table, cfg.loss, gd.gamma, gd.lambda_ridge, gd.m)
        err_theta, err_eta = amp_mod.verify_equivalence(run, self.traj)
        se = amp_mod.se_check(run, state, self.theta0, self.inst.theta_star)
        record = {
            "equiv_error_theta": err_theta,
            "equiv_error_eta": err_eta,
            "se_report": se,
        }
        _write_json(self.out / "amp_check.json", record)
        errors = {"equiv_error_theta": err_theta, "equiv_error_eta": err_eta}
        return _status([f"{name} = {err:.6g} exceeds 1e-08"
                        for name, err in errors.items() if not err <= 1e-8])

    def stage_compare(self) -> dict:
        cfg = self.cfg
        tb, eb = empirical_joint(self.traj, self.inst.theta_star)
        rep = metrics.compare_empirical_vs_dmft(tb, eb, self.dmft)
        record = {
            "w2_theta": rep.w2_theta,
            "w2_eta": rep.w2_eta,
            "cov_disc_theta": rep.cov_disc_theta,
            "cov_disc_eta": rep.cov_disc_eta,
            "overlap_emp": rep.overlap_emp,
            "overlap_dmft": rep.overlap_dmft,
            "max_overlap_diff": rep.max_overlap_diff,
            "w2_tol": cfg.w2_tol,
            "cov_tol": cfg.cov_tol,
        }
        failures = []
        for name, w2 in (("w2_theta", rep.w2_theta), ("w2_eta", rep.w2_eta)):
            if not w2.max() <= cfg.w2_tol:
                failures.append(f"{name} = {w2.max():.6g} at t = {np.argmax(w2)} "
                                f"exceeds w2_tol = {cfg.w2_tol:g}")
        if not rep.cov_disc_theta <= cfg.cov_tol:
            failures.append(f"cov_disc_theta = {rep.cov_disc_theta:.6g} "
                            f"exceeds cov_tol = {cfg.cov_tol:g}")
        record["ok"] = not failures
        _write_json(self.out / "comparison.json", record)
        columns = {"w2_theta": rep.w2_theta, "w2_eta": rep.w2_eta,
                   "overlap_emp": rep.overlap_emp, "overlap_dmft": rep.overlap_dmft}
        _write_matrix_csv(self.out / "comparison.csv",
                          np.column_stack(list(columns.values())), "t", columns)
        return _status(failures)


# stage name -> the Runner method that runs it, e.g. "amp-check" ->
# stage_amp_check
Runner.STAGES = {name: getattr(Runner, "stage_" + name.replace("-", "_"))
                 for name in STAGE_NAMES}


def run_pipeline(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Execute the configured stages in dependency order; nonzero exit when
    any stage check fails.

    The order is spectral, simulate, dmft, amp-check, fixed-point, compare,
    except that dmft runs first when amp-check is requested.  amp-check is
    the one stage that reads both the design matrix X and the DMFT state's
    sample pools, so in the default order X would still be held while the
    DMFT builds its per-path step arrays; run ahead of the instance draw,
    the DMFT has released those arrays before X exists.  The DMFT shares
    only the config with the finite-size stages, so the artifacts are the
    same bytes in either order, but a failing DMFT then stops the run
    before spectral.  Without amp-check the DMFT keeps its place after
    simulate, where X is already dropped and its retained sample pools do
    not sit under the M_n build."""
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cfg, out_dir)
    order = list(STAGE_NAMES)
    if "amp-check" in cfg.pipeline_stages:
        order.remove("dmft")
        order.insert(0, "dmft")
    requested = [s for s in order if s in cfg.pipeline_stages]
    status = {}
    for i, name in enumerate(requested):
        try:
            status[name] = Runner.STAGES[name](runner)
        except Exception as exc:
            status[name] = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            _write_json(out_dir / "pipeline_status.json", status)
            raise
        runner.drop_design_matrix(requested[i + 1:])
    _write_json(out_dir / "pipeline_status.json", status)
    return 0 if all(v["ok"] for v in status.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dmftsim",
        description="Spectral-initialized gradient descent: simulation, DMFT "
                    "integration, fixed points, and AMP cross-checks.")
    parser.add_argument("subcommand", choices=[*STAGE_NAMES, "pipeline"])
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override model.seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=check_seed("model.seed (--seed)", args.seed))
        if args.subcommand != "pipeline":
            # a subcommand runs as the one-stage pipeline of its stage
            cfg = replace(cfg, pipeline_stages=check_stages(
                "outputs.stages (subcommand)", (args.subcommand,), cfg.init))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out if args.out is not None else cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        field = "outputs.directory" + (" (--out)" if args.out is not None else "")
        print(f"config error: field {field}: cannot create directory "
              f"{str(out_dir)!r}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return run_pipeline(cfg, out_dir)


if __name__ == "__main__":
    sys.exit(main())
