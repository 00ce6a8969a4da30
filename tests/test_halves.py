"""Tests of the two-way kernel splits: the helper, a failing half, and the
bits of each split site against its serial form (halves.MIN_SPLIT raised
above every size), on both sides of the split size.  The sites that call
BLAS are in split_blas_cases.py, run here with one BLAS thread."""

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from dmftsim import halves
from dmftsim.fixed_point import SolverConfig, _solve_eta_pool, iterate_fixed_point
from dmftsim.model import (
    gaussian_dist,
    linear_link,
    phase_preprocess,
    pseudo_huber_loss,
    rwf_loss,
    smoothstep_profile,
)
from dmftsim.spectral import EtaIntegrals, QuadratureSpec

PRE3 = phase_preprocess(3.0)
RWF = rwf_loss(smoothstep_profile(9.0, 18.0))


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


# ---------------------------------------------------------------------------
# the helper
# ---------------------------------------------------------------------------

def test_split_point_is_aligned_and_fixed():
    for n in (1024, 1537, 2000, 3001, 20000):
        h = halves.split_point(n)
        assert h % halves.ALIGN == 0 and 0 < h <= n // 2
    assert halves.split_point(2000) == 960


def test_on_halves_runs_both_halves_once_on_two_threads():
    seen = []
    halves.on_halves(lambda lo, hi: seen.append((lo, hi, threading.current_thread())), 4000)
    assert sorted(s[:2] for s in seen) == [(0, 1920), (1920, 4000)]
    caller = {s[:2]: s[2] for s in seen}
    assert caller[(0, 1920)] is threading.current_thread()
    assert caller[(1920, 4000)] is not threading.current_thread()
    seen.clear()
    halves.on_halves(lambda lo, hi: seen.append((lo, hi)), halves.MIN_SPLIT - 1)
    assert seen == [(0, halves.MIN_SPLIT - 1)]


def test_worker_exception_reraises_in_caller_and_helper_recovers():
    done = []

    def fail_upper(lo, hi):
        if lo > 0:
            raise ValueError(f"upper half {lo}:{hi}")
        done.append(lo)
    with pytest.raises(ValueError, match="upper half 960:2000"):
        halves.on_halves(fail_upper, 2000)
    assert done == [0]          # the caller's half ran to its end

    def fail_lower(lo, hi):
        if lo == 0:
            raise KeyError("lower")
        done.append(lo)
    with pytest.raises(KeyError, match="lower"):
        halves.on_halves(fail_lower, 2000)
    assert done == [0, 960]     # the worker's half finished before the raise

    x, out = np.arange(2000, dtype=float), np.empty(2000)
    halves.on_halves(lambda lo, hi: np.multiply(x[lo:hi], 3.0, out=out[lo:hi]), x.size)
    assert same_bits(out, 3.0 * x)


@pytest.mark.parametrize("threads", [1, 2])
def test_blas_sites_split_only_under_one_blas_thread(monkeypatch, threads):
    # with more than one BLAS thread each half's BLAS call would start BLAS
    # threads of its own, so no BLAS site hands a half to the worker
    used = []
    worker = halves._worker
    monkeypatch.setattr(halves, "_worker", lambda: used.append(1) or worker())
    monkeypatch.setattr(halves, "blas_threads", lambda package: threads)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2 * halves.MIN_SPLIT, halves.MIN_SPLIT + 1))
    v, w = rng.standard_normal(X.shape[1]), rng.standard_normal(X.shape[0])
    A = np.asfortranarray(rng.standard_normal((halves.MIN_SPLIT + 1, halves.SYRK_ROWS)))
    C = np.zeros((A.shape[0], A.shape[0]), order="F")
    halves.syrk_lower(A, C)
    got = halves.matvec(X, v), halves.rmatvec(X, w)
    assert len(used) == (3 if threads == 1 else 0)
    # the serial form is the unsplit call itself; the split form keeps its
    # bits only when the BLAS really runs one thread (split_blas_cases.py)
    check = same_bits if threads > 1 else np.allclose
    assert check(got[0], X @ v) and check(got[1], X.T @ w)
    assert np.allclose(np.tril(C), np.tril(A @ A.T))


def test_blas_threads_is_0_without_a_bundled_openblas(monkeypatch, tmp_path):
    # a numpy whose package directory has no numpy.libs next to it: the
    # query finds no library, and the BLAS sites run serially on the caller
    used = []
    worker = halves._worker
    monkeypatch.setattr(halves, "_worker", lambda: used.append(1) or worker())
    rng = np.random.default_rng(6)
    X = rng.standard_normal((2 * halves.MIN_SPLIT, 8))
    v = rng.standard_normal(8)
    halves.blas_threads.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
            assert halves.blas_threads("numpy") == 0
            got = halves.matvec(X, v)
    finally:
        halves.blas_threads.cache_clear()
    assert used == []
    assert same_bits(got, X @ v)


def test_concurrent_callers_share_the_worker():
    # more callers than cores, each splitting its own elementwise kernel
    # through the one worker, with a short switch interval; every caller's
    # output must be whole and its own
    x = np.arange(3000, dtype=float)
    errors = []

    def caller(k):
        try:
            for _ in range(50):
                out = np.empty_like(x)
                halves.on_halves(lambda lo, hi: np.multiply(x[lo:hi], k, out=out[lo:hi]),
                                 x.size)
                if not np.array_equal(out, k * x):
                    errors.append(k)
        except Exception as exc:     # recorded: an exception would end the thread silently
            errors.append(exc)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(1, 6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_blas_split_sites_are_bitwise_serial_in_one_blas_thread():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src")] + os.environ.get(
                   "PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(here / "split_blas_cases.py")],
        cwd=here.parent, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:]
    assert " passed" in proc.stdout and "failed" not in proc.stdout


def test_eta_integrals_equal_serial_sums(serial):
    quad = QuadratureSpec(gh_nodes=32, z_samples=3001, seed=1)
    integ = EtaIntegrals(PRE3, linear_link(), gaussian_dist(0.3), quad)
    assert integ.Zs.size >= halves.MIN_SPLIT
    for lam in (9.5, 14.0):        # above the pole at tau = 9
        for fn in (integ.e_frac, integ.e_frac2, integ.e_g2frac, integ.e_g2frac2):
            assert fn(lam) == serial(fn, lam)


# ---------------------------------------------------------------------------
# the fixed point's eta pool
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", [700, 5001])
def test_eta_pool_equals_serial_newton(serial, K):
    rng = np.random.default_rng(K)
    w_star, w_inf = rng.standard_normal(K), 1.1 * rng.standard_normal(K)
    cases = [(RWF, np.zeros(K), 0.03),
             (pseudo_huber_loss(1.0), 0.3 * rng.standard_normal(K), 0.4)]
    for loss, z, R in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = _solve_eta_pool(R, w_inf, w_star, z, loss)
            ref = serial(_solve_eta_pool, R, w_inf, w_star, z, loss)
        assert all(same_bits(a, b) for a, b in zip(got, ref))


def test_fixed_point_equals_serial_run(serial):
    cfg = SolverConfig(K=4000, damping=0.5, tol=1e-10, max_outer=60, seed=3)
    args = (pseudo_huber_loss(1.0), gaussian_dist(0.3), 2.0, 0.5, cfg)
    st, ref = iterate_fixed_point(*args), serial(iterate_fixed_point, *args)
    assert st.iterations == ref.iterations and st.residual_trace == ref.residual_trace
    assert same_bits(st.eta_inf, ref.eta_inf)
    assert same_bits(st.C_theta_inf, ref.C_theta_inf)
