"""Tests of the two-way BLAS splits: the helper, a failing half, which
sites may reach the worker, and (in split_blas_cases.py, run here with one
BLAS thread) the bits of each BLAS site against its serial form."""

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
from dmftsim.model import gaussian_dist, linear_link, phase_preprocess, pseudo_huber_loss
from dmftsim.spectral import QuadratureSpec, solve_lambda_star


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
    got = halves.matvec(X, v), halves.matvec(X.T, w)
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


# ---------------------------------------------------------------------------
# only BLAS reaches the worker: the elementwise Monte Carlo solves run on
# the caller at sizes above MIN_SPLIT
# ---------------------------------------------------------------------------

@pytest.fixture
def no_worker(monkeypatch):
    def refuse():
        raise RuntimeError("the worker was asked for")
    monkeypatch.setattr(halves, "_worker", refuse)


def test_lambda_star_runs_on_the_caller(no_worker):
    quad = QuadratureSpec(gh_nodes=16, z_samples=2000, seed=1)
    assert quad.gh_nodes * quad.z_samples >= halves.MIN_SPLIT
    sol = solve_lambda_star(phase_preprocess(2.0), linear_link(), gaussian_dist(0.3),
                            2.0, quad)
    assert sol.lambda_star > sol.tau


def test_eta_pool_runs_on_the_caller(no_worker):
    K = 5001
    rng = np.random.default_rng(K)
    w_star, w_inf, z = rng.standard_normal(K), rng.standard_normal(K), rng.standard_normal(K)
    eta, ell, _, _ = _solve_eta_pool(0.4, w_inf, w_star, 0.3 * z, pseudo_huber_loss(1.0))
    assert np.all(np.abs(eta + 0.4 * ell - w_inf) <= 1e-12)


def test_fixed_point_runs_on_the_caller(no_worker):
    cfg = SolverConfig(K=5001, damping=0.5, tol=1e-8, max_outer=3, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        st = iterate_fixed_point(pseudo_huber_loss(1.0), gaussian_dist(0.3), 2.0, 0.5, cfg)
    assert st.iterations == 3


def test_blas_product_reaches_the_worker(no_worker, monkeypatch):
    # the control: a split BLAS site does ask for the refused worker
    monkeypatch.setattr(halves, "blas_threads", lambda package: 1)
    X = np.ones((2 * halves.MIN_SPLIT, 8))
    with pytest.raises(RuntimeError, match="worker was asked for"):
        halves.matvec(X, np.ones(8))


@pytest.mark.parametrize("package", ["numpy", "scipy"])
def test_blas_threads_finds_the_bundled_openblas(package):
    # a wheel that renames its bundled library would leave every BLAS site
    # running serially, without an error
    assert halves.blas_threads(package) >= 1
