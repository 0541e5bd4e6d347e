"""The forward-sensitivity recurrence of a gradient pass.

propagate runs it in one call to the C function in sensitivity.c, whose
products call the CBLAS routines numpy's own .dot calls, so its bits equal
numpy_recurrence's.  The library is compiled once per host and cached
(cbuild.library).  numpy_recurrence, the reference loop, runs instead when
there is no compiler, when numpy's BLAS lacks the ILP64 scipy-openblas
routines (an MKL or a system BLAS), when the build fails, when the
Jacobians are not a C-contiguous float64 array, or when the self-check
finds a byte mismatch for the problem's sizes.
"""

from __future__ import annotations

import ctypes
import functools
import subprocess
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import cbuild

Array = np.ndarray

SOURCE = Path(__file__).with_name("sensitivity.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# gemm, gemv and axpy, as numpy's bundled scipy-openblas (64-bit integers) exports them
BLAS_SYMBOLS = ("scipy_cblas_dgemm64_", "scipy_cblas_dgemv64_", "scipy_cblas_daxpy64_")


def numpy_recurrence(A_all: Array, B_all: Array, n_pred: int, n_steps: int, h: float) -> Array:
    """S = dx/dz at the start of each period, and at the end.

    A_all and B_all hold the Jacobians of 4 * n_pred * n_steps stage points
    in step order, each B scattered into its block's columns of an
    n_x x n_z array; each step propagates S through one RK4 step.
    """
    half, h6 = 0.5 * h, h / 6.0
    n_x, n_z = B_all.shape[1:]
    A_stages = iter(A_all)
    B_stages = iter(B_all)
    S = np.zeros((n_x, n_z))
    S_at = np.zeros((n_pred + 1, n_x, n_z))
    for j in range(1, n_pred + 1):
        for _ in range(n_steps):
            K1 = next(A_stages).dot(S)
            K1 += next(B_stages)
            K2 = next(A_stages).dot(K1 * half + S)
            K2 += next(B_stages)
            K3 = next(A_stages).dot(K2 * half + S)
            K3 += next(B_stages)
            K4 = next(A_stages).dot(K3 * h + S)
            K4 += next(B_stages)
            S += ((K2 + K3) * 2.0 + (K1 + K4)) * h6
        S_at[j] = S
    return S_at


def propagate(A_all: Array, B_all: Array, n_pred: int, n_steps: int, h: float) -> Array:
    """numpy_recurrence's result, from the compiled recurrence where it runs."""
    n_points, n_x, n_z = B_all.shape
    run = load()
    if (
        run is not None
        and A_all.shape == (n_points, n_x, n_x)
        and n_points == 4 * n_pred * n_steps
        and all(a.dtype == np.float64 and a.flags.c_contiguous and a.flags.aligned for a in (A_all, B_all))
        and _agrees(run, n_x, n_z)
    ):
        return _compiled(run, A_all, B_all, n_pred, n_steps, h)
    return numpy_recurrence(A_all, B_all, n_pred, n_steps, h)


def prepare(n_x: int, n_zs: Sequence[int]) -> None:
    """Load the compiled recurrence and run its self-check for each n_z."""
    run = load()
    if run is not None:
        for n_z in n_zs:
            _agrees(run, n_x, n_z)


def _compiled(run: Callable, A_all: Array, B_all: Array, n_pred: int, n_steps: int, h: float) -> Array:
    n_x, n_z = B_all.shape[1:]
    S_at = np.zeros((n_pred + 1, n_x, n_z))
    work = np.empty(5 * n_x * n_z)
    run(n_pred, n_steps, n_x, n_z, h, A_all.ctypes.data, B_all.ctypes.data, S_at.ctypes.data, work.ctypes.data)
    return S_at


_agreement: dict[tuple[int, int], bool] = {}


def _agrees(run: Callable, n_x: int, n_z: int) -> bool:
    """Whether the compiled recurrence gives numpy_recurrence's bytes on
    random passes with these sizes; checked once per process and size."""
    key = (n_x, n_z)
    if key not in _agreement:
        rng = np.random.default_rng(n_x * 1000 + n_z)
        same = True
        for n_pred, n_steps in ((1, 1), (2, 3), (3, 2), (4, 1), (2, 4)):
            n_points = 4 * n_pred * n_steps
            A = rng.standard_normal((n_points, n_x, n_x)) / n_x  # of norm about 2 at most: S stays finite
            B = rng.standard_normal((n_points, n_x, n_z))
            B[rng.random(B.shape) < 0.5] = -0.0  # as the padding of the other blocks' columns
            h = rng.uniform(0.01, 0.5)
            want = numpy_recurrence(A, B, n_pred, n_steps, h)
            same = same and _compiled(run, A, B, n_pred, n_steps, h).tobytes() == want.tobytes()
        _agreement[key] = same
    return _agreement[key]


@functools.lru_cache(maxsize=None)
def load() -> Callable | None:
    """The compiled recurrence with numpy's BLAS routines bound, or None
    where it cannot be had.  It is looked up once per process (tune does so
    through prepare before it forks its workers, so that they inherit it);
    the compiler runs only when the cache does not hold the library yet.
    """
    try:
        from numpy._core import _multiarray_umath  # numpy's BLAS is among its dependencies

        numpy_blas = ctypes.CDLL(_multiarray_umath.__file__)
        routines = [ctypes.cast(getattr(numpy_blas, name), ctypes.c_void_p).value for name in BLAS_SYMBOLS]
        library = cbuild.library("sensitivity", SOURCE.read_bytes(), FLAGS)
        if library is None:
            return None
        run = ctypes.CDLL(str(library)).sensitivity_pass
    except (ImportError, OSError, AttributeError, subprocess.SubprocessError):
        return None
    run.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 4 + [ctypes.c_double] + [ctypes.c_void_p] * 4
    run.restype = None
    return functools.partial(run, *routines)
