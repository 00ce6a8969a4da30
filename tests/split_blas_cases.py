"""Bitwise tests of the split sites that call BLAS: the products with X and
with M_n, gradient descent, AMP, the M_n build and its eigenpair.

OpenBLAS partitions one product among its own threads by size, which
moves bits of the serial and the split form alike, so these cases hold
with one BLAS thread.  pytest does not collect this file by name;
test_halves.py runs it in a child process with OPENBLAS_NUM_THREADS=1.
"""

import numpy as np
import pytest
from scipy.linalg.blas import dsyrk

from dmftsim import halves, spectral
from dmftsim.amp import random_onsager_table, run_spectral_amp
from dmftsim.gd import GdConfig, run_gd
from dmftsim.model import (
    abs_link,
    gaussian_dist,
    make_instance,
    phase_preprocess,
    point_mass_dist,
    rwf_loss,
    smoothstep_profile,
)
from dmftsim.spectral import QuadratureSpec, build_Mn, top_two_eigs

PRE3 = phase_preprocess(3.0)
RWF = rwf_loss(smoothstep_profile(9.0, 18.0))
ODD_SHAPES = [(3001, 1537), (2050, 1031), (700, 500)]


@pytest.fixture
def serial(monkeypatch):
    """``serial(fn, *args)``: fn with every split site in its serial form."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(halves, "MIN_SPLIT", 10**9)
            return fn(*args)
    return run


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_both_blas_libraries_report_one_thread():
    # otherwise the BLAS sites would run serially and the cases below would
    # not reach the split path
    assert halves.blas_threads("numpy") == halves.blas_threads("scipy") == 1


@pytest.mark.parametrize("n,d", ODD_SHAPES + [(1031, 2050), (4000, 2000)])
def test_matvec_of_x_and_its_transpose_is_bitwise_the_serial_product(n, d):
    rng = np.random.default_rng(n + d)
    X = rng.standard_normal((n, d)) / np.sqrt(d)
    F = np.asfortranarray(X[:min(n, d), :min(n, d)])
    for _ in range(3):
        v, w = rng.standard_normal(d), rng.standard_normal(n)
        assert same_bits(halves.matvec(X, v), X @ v)
        assert same_bits(halves.matvec(X.T, w), X.T @ w)
        u = rng.standard_normal(F.shape[0])
        assert same_bits(halves.matvec(F, u), F @ u)


@pytest.mark.parametrize("n,d", ODD_SHAPES)
def test_gd_and_amp_equal_their_serial_runs(serial, n, d):
    inst = make_instance(n, d, 3, abs_link(), point_mass_dist(0.0), gaussian_dist())
    rng = np.random.default_rng(0)
    theta0 = inst.theta_star + 0.5 * rng.standard_normal(d)
    cfg = GdConfig(gamma=0.01, lambda_ridge=0.1, m=3)
    traj, ref = run_gd(inst, RWF, cfg, theta0), serial(run_gd, inst, RWF, cfg, theta0)
    assert same_bits(traj.theta, ref.theta) and same_bits(traj.eta, ref.eta)

    lam_sol = spectral.solve_lambda_star(PRE3, abs_link(), point_mass_dist(0.0),
                                         n / d, QuadratureSpec(gh_nodes=32))
    table = random_onsager_table(3, np.random.default_rng(1))
    args = (inst, PRE3, lam_sol, theta0, table, RWF, 0.01, 0.1, 3)
    run, ref = run_spectral_amp(*args), serial(run_spectral_amp, *args)
    assert same_bits(run.theta_rec, ref.theta_rec)
    assert same_bits(run.eta_rec, ref.eta_rec)
    assert same_bits(run.a_iters, ref.a_iters)


def build_Mn_one_syrk(inst, pre):
    """build_Mn's accumulation as one BLAS syrk call per row block."""
    X = inst.X
    n, d = X.shape
    sw = np.sqrt(np.asarray(pre.Ts(inst.y), dtype=float))
    C = np.zeros((d, d), order="F")
    rows = spectral.MN_ROW_BLOCK
    for start in range(0, n, rows):
        B = sw[start:start + rows, None] * X[start:start + rows]
        C = dsyrk(1.0, B.T, beta=1.0, c=C, trans=0, lower=1, overwrite_c=1)
    C += np.tril(C, -1).T
    return C


@pytest.mark.parametrize("d", [600, 1000, 1537])
@pytest.mark.parametrize("n", [3616, 3048])
def test_build_mn_equals_one_syrk_per_block(d, n):
    # from d = 1024 on, row blocks of 2048 and 1568 rows are split; the
    # 1000-row block of n = 3048 is not a multiple of halves.SYRK_ROWS and
    # takes one syrk call
    inst = make_instance(n, d, 5, abs_link(), point_mass_dist(0.0), gaussian_dist())
    assert same_bits(build_Mn(inst, PRE3), build_Mn_one_syrk(inst, PRE3))


@pytest.mark.parametrize("d", [600, 1100])
def test_top_two_eigs_equals_serial_eigsh(serial, d):
    inst = make_instance(2 * d, d, 7, abs_link(), point_mass_dist(0.0), gaussian_dist())
    M = build_Mn(inst, PRE3)
    got, ref = top_two_eigs(M), serial(top_two_eigs, M)
    assert got[:2] == ref[:2] and same_bits(got[2], ref[2])
