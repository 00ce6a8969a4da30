"""Two-way splits of the BLAS kernels: one half runs on a worker thread
while the caller runs the other.

The split point depends on the extent alone, never on the core count, and
every split computes each output element as the unsplit kernel does (for
the syrk split, under the measured conditions noted at ALIGN and
SYRK_ROWS), so with one BLAS thread the results are bitwise those of the
serial code on any number of cores.  A split runs only when its library
reports one BLAS thread (``blas_threads``); otherwise each half's call
would start BLAS threads of its own on the same cores, so the whole extent
runs on the caller.  The worker runs only BLAS calls (``matvec`` and
``syrk_lower``), never a function that calls ``on_halves`` itself: the one
worker would wait on itself.

Only BLAS is split.  With numpy 2.4.6 and one BLAS thread on two x86-64
cores, two threads running BLAS products ran at once, while two threads
running ``np.subtract`` on the halves of an array ran one at a time
(process CPU time equal to wall time), and the lambda* fractions ran no
faster split.  The fixed point's Newton loop did run faster split, but
only by running the loss evaluator on the worker; it runs on one thread
so that no model code (which a profiler may wrap) runs off the caller.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os
import threading
from pathlib import Path

import numpy as np

Array = np.ndarray

MIN_SPLIT = 1024   # extents below this run serially on the caller
# split points are multiples of ALIGN: the rows of both halves start on a
# cache line, and the triangles of a split syrk keep the bits of one syrk
# call.  This was measured, not derived, with OpenBLAS 0.3.31 on one x86-64
# core type (h = 512 or 1024 broke them at some d in 1025..3001, multiples
# of 192 did not); tests/split_blas_cases.py guards it on the BLAS at hand.
ALIGN = 192
# syrk_lower splits only an inner dimension k that is a multiple of
# SYRK_ROWS: only then does OpenBLAS 0.3.31 cut k into the same panels in
# syrk and gemm (it halves the last two panels in syrk and rounds the halves
# up to its unroll in gemm).  Measured like ALIGN and guarded by the same file.
SYRK_ROWS = 32

_lock = threading.Lock()
_pool = None       # (pid, executor): a worker is never reused across a fork


def split_point(n: int) -> int:
    """The fixed split point h of an extent n: about n / 2, a multiple of
    ALIGN, so the BLAS kernels' tails (the last n mod 4 or 8 rows) fall on
    the same rows as without the split."""
    return n // 2 // ALIGN * ALIGN


def _worker():
    global _pool
    pid = os.getpid()
    with _lock:
        if _pool is None or _pool[0] != pid:
            from concurrent.futures import ThreadPoolExecutor
            _pool = (pid, ThreadPoolExecutor(1, thread_name_prefix="dmftsim-half"))
        return _pool[1]


def on_halves(fn, n: int) -> None:
    """Run ``fn(h, n)`` on the worker and ``fn(0, h)`` on the caller, with
    h = split_point(n); for n < MIN_SPLIT run ``fn(0, n)`` alone.  Returns
    once both halves are done; an exception from either re-raises here."""
    if n < MIN_SPLIT:
        fn(0, n)
        return
    h = split_point(n)
    job = _worker().submit(fn, h, n)
    try:
        fn(0, h)
    finally:
        err = job.exception()    # waits: the worker's half never outlives the call
    if err is not None:
        raise err


# package -> (file name of its bundled OpenBLAS, that library's symbol for
# its thread count)
_OPENBLAS = {
    "numpy": ("libscipy_openblas64_-*.so", "scipy_openblas_get_num_threads64_"),
    "scipy": ("libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
}


@functools.cache
def blas_threads(package: str) -> int:
    """The thread count of the OpenBLAS bundled with ``package`` ("numpy"
    for ``np.matmul``, "scipy" for ``scipy.linalg.cython_blas``), asked once
    through ctypes; 0 when no such library is found."""
    pattern, symbol = _OPENBLAS[package]
    site = Path(importlib.import_module(package).__file__).parents[1]
    for path in sorted(site.glob(f"{package}.libs/{pattern}")):
        return int(getattr(ctypes.CDLL(str(path)), symbol)())
    return 0


def _on_blas_halves(package: str, fn, n: int) -> None:
    """``on_halves(fn, n)`` for a kernel that calls ``package``'s BLAS if
    that BLAS runs one thread, else ``fn(0, n)`` on the caller."""
    if blas_threads(package) == 1:
        on_halves(fn, n)
    else:
        fn(0, n)


def matvec(X: Array, v: Array, out: Array | None = None) -> Array:
    """X @ v, split by rows of X; ``matvec(X.T, w)`` is X.T @ w split by
    columns of X."""
    if out is None:
        out = np.empty(X.shape[0])
    _on_blas_halves("numpy", lambda lo, hi: np.matmul(X[lo:hi], v, out=out[lo:hi]),
                    X.shape[0])
    return out


# ---------------------------------------------------------------------------
# BLAS through ctypes: scipy.linalg.blas (f2py) holds the interpreter lock
# during a call, so its routines cannot overlap; ctypes releases it.  The
# functions are those of scipy.linalg.cython_blas, the library behind
# scipy.linalg.blas.
# ---------------------------------------------------------------------------

_INT = ctypes.POINTER(ctypes.c_int)
_DBL = ctypes.POINTER(ctypes.c_double)
_PTR = ctypes.c_void_p
_CHR = ctypes.c_char_p
_SIGNATURES = {
    # uplo, trans, n, k, alpha, a, lda, beta, c, ldc
    "dsyrk": (_CHR, _CHR, _INT, _INT, _DBL, _PTR, _INT, _DBL, _PTR, _INT),
    # transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc
    "dgemm": (_CHR, _CHR, _INT, _INT, _INT, _DBL, _PTR, _INT, _PTR, _INT,
              _DBL, _PTR, _INT),
}
_blas_fns: dict = {}


def _blas(name: str):
    if name not in _blas_fns:
        from scipy.linalg import cython_blas
        capsule = cython_blas.__pyx_capi__[name]
        api = ctypes.pythonapi
        api.PyCapsule_GetName.restype = ctypes.c_char_p
        api.PyCapsule_GetName.argtypes = [ctypes.py_object]
        api.PyCapsule_GetPointer.restype = ctypes.c_void_p
        api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
        ptr = api.PyCapsule_GetPointer(capsule, api.PyCapsule_GetName(capsule))
        _blas_fns[name] = ctypes.CFUNCTYPE(None, *_SIGNATURES[name])(ptr)
    return _blas_fns[name]


def syrk_lower(A: Array, C: Array) -> None:
    """C += A A^T on the lower triangle of C, in place.

    A is d x k and C is d x d, both Fortran-ordered float64.  When k is a
    multiple of SYRK_ROWS, with h = split_point(d), the caller runs BLAS
    syrk on the diagonal triangles [0, h) and [h, d) and the worker runs
    gemm (beta = 1) on the block C[h:, :h]; all three write into C through
    its leading dimension, so no d x d temporary is made.  Otherwise, below
    MIN_SPLIT, and when scipy's BLAS runs more than one thread, it is one
    syrk call over the whole triangle.  The split keeps the bits of that one
    call under the conditions measured at ALIGN and SYRK_ROWS."""
    d, k = A.shape
    if not (A.flags.f_contiguous and C.flags.f_contiguous and C.shape == (d, d)
            and A.dtype == C.dtype == np.float64):
        raise ValueError("syrk_lower needs Fortran-ordered float64 A (d x k), C (d x d)")
    syrk_fn, gemm_fn = _blas("dsyrk"), _blas("dgemm")
    i = ctypes.c_int
    one = ctypes.c_double(1.0)
    lda = ldc = ctypes.byref(i(max(d, 1)))
    kk = ctypes.byref(i(k))
    a0, c0, size = A.ctypes.data, C.ctypes.data, A.itemsize

    def syrk(lo, hi):
        syrk_fn(b"L", b"N", ctypes.byref(i(hi - lo)), kk, ctypes.byref(one),
                a0 + lo * size, lda, ctypes.byref(one), c0 + (lo + lo * d) * size, ldc)

    def part(lo, hi):
        if lo == 0:               # the caller's share: both diagonal triangles
            syrk(0, hi)
            if hi < d:
                syrk(hi, d)
        else:                     # the worker's: C[lo:, :lo] += A[lo:] A[:lo]^T
            gemm_fn(b"N", b"T", ctypes.byref(i(d - lo)), ctypes.byref(i(lo)), kk,
                    ctypes.byref(one), a0 + lo * size, lda, a0, lda,
                    ctypes.byref(one), c0 + lo * size, ldc)
    if k % SYRK_ROWS:
        part(0, d)
    else:
        _on_blas_halves("scipy", part, d)
