"""The compiled passes: the cost pass, the gradient pass and the
sensitivity recurrence.

Each runs in one call to a C function, with the bytes of its reference
here, which stays the fallback.  Two libraries hold them: passes
(sensitivity.c, then passes.c with the problem's c_source in place of its
marker line) the cost and gradient passes of a problem that gives its six
callbacks in C, whose references are python_pass and python_grad_pass (up
to the terminal penalty and term, through the Python callbacks); and
sensitivity (sensitivity.c) the recurrence of the Python gradient pass,
whose reference is numpy_recurrence.  The products of the C recurrence and
gradient pass call the CBLAS routines numpy's .dot and matmul call.

Both share one lifecycle.  load compiles a library with cc into CACHE, a
directory only its owner may write, under a name keyed by the text, the
flags and the compiler's file, and binds its C functions once per process.
A self-check compares them byte for byte with their reference on random
draws, once per process for each key, and _verdicts keeps what runs: both
passes compiled or both in Python.  The reference runs on any failure: no
compiler, no C file, a failed build (a c_source missing a callback fails
to link), a missing symbol (numpy's BLAS routines too, as with MKL or a
system BLAS) or a mismatch.  warm_up does all of it ahead of a run.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .integration import floats, overflowed, rk4_kernel
from .problems import ProblemDefinition

Array = np.ndarray

CC = "cc"
CACHE = Path("~") / ".cache" / "mpc-autotune"  # the home directory is looked up at the first build
SOURCES = Path(__file__).parent  # the .c files
MARKER = b"/* @c_source@ */"  # where a problem's C text goes in passes.c
BINDINGS = {  # stem: (C files, flags, libraries, {C function: (its argument types, result type)})
    "sensitivity": (("sensitivity",), ("-O2", "-ffp-contract=off", "-shared", "-fPIC"), (), {
        "sensitivity_pass": ([ctypes.c_void_p] * 3 + [ctypes.c_int64] * 4 + [ctypes.c_double] + [ctypes.c_void_p] * 4,
                             None)}),
    # -z defs fails the link of a c_source that leaves one of the six callbacks undefined
    "passes": (("sensitivity", "passes"), ("-O2", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC",
                                          "-Wl,-z,defs"), ("-lm",), {
        "cost_pass": ([ctypes.c_int64] * 8 + [ctypes.c_double] * 3 + [ctypes.c_void_p], ctypes.c_int64),
        "grad_pass": ([ctypes.c_void_p] * 4 + [ctypes.c_int64] * 8 + [ctypes.c_double] * 3 + [ctypes.c_void_p] * 4,
                      None)}),
}
# gemm, gemv, axpy and dot, as numpy's bundled scipy-openblas (64-bit integers) exports them
BLAS_SYMBOLS = ("scipy_cblas_dgemm64_", "scipy_cblas_dgemv64_", "scipy_cblas_daxpy64_", "scipy_cblas_ddot64_")


def python_pass(
    problem: ProblemDefinition, x, p, q, z: Array, n_pred: int, n_contr: int, n_steps: int, h: float,
    tau_u: float, rho_constr: float,
) -> tuple[float, int, Array, Array]:
    """The cost pass on tuples of floats, which every value callback gets:
    the state between RK steps, the input block of each period (the tail
    periods reuse the last block), p and q.

    Finiteness is checked once per period through the accumulated cost (any
    non-finite state poisons the stage cost or the penalty), which keeps the
    per-step loop lean.  The constraint values are walked once; a value
    counts towards the penalty unless it is <= 0, so a NaN makes the pass
    diverge.  A callback that raises an ArithmeticError (a float overflow),
    or a ValueError on an overflowed state (a math-domain error), diverges
    its period too, which is charged whole, as the compiled pass charges it.

    Returns (cost, steps, states, mask): the cost before the terminal
    penalty (inf on divergence); the RK steps spent; the initial state, then
    the stages and result (x2, x3, x4, x_next) of every step, so rows 4k to
    4k + 3 are the stage points of step k; and an int8 (n_pred, n_c) mask of
    each period's active constraints.  After a divergence only the rows and
    periods the pass reached are filled.
    """
    rhs, stage_cost, constraint_map, n_u, n_c = (
        problem.rhs, problem.stage_cost, problem.constraint_map, problem.n_u, problem.n_c)
    zl = z.tolist()
    u_blocks = [tuple(zl[b * n_u : (b + 1) * n_u]) for b in range(n_contr)]
    period_inputs = u_blocks[:n_pred] + u_blocks[-1:] * (n_pred - n_contr)
    mask = np.zeros((n_pred, n_c), np.int8)
    cost = 0.0
    steps = 0
    xt, pt, qt = floats(x), floats(p), floats(q)
    kernel = rk4_kernel(len(xt))
    states = [xt]
    for j, ut in enumerate(period_inputs):
        try:
            cost += stage_cost(xt, ut, pt, qt) * tau_u
            for _ in range(n_steps):
                stages = kernel(rhs, xt, ut, pt, h)
                states.extend(stages)
                xt = stages[3]
            if n_c:
                penalty = 0.0
                for i, v in enumerate(constraint_map(xt, ut, pt, qt)):
                    if not v <= 0.0:
                        penalty += v
                        mask[j, i] = 1
                cost += rho_constr * penalty * tau_u
        except (ArithmeticError, ValueError) as err:
            if isinstance(err, ValueError) and all(map(math.isfinite, xt)) and not overflowed(rhs, xt, ut, pt, h):
                raise
            cost = math.inf
        steps += n_steps
        if not math.isfinite(cost):
            cost = math.inf
            break
    n_x = len(xt)
    return cost, steps, np.fromiter(chain.from_iterable(states), float, len(states) * n_x).reshape(-1, n_x), mask


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


def python_grad_pass(
    problem: ProblemDefinition, states: Array, mask: Array, p: Array, q: Array, z: Array, n_pred: int, n_contr: int,
    n_steps: int, h: float, tau_u: float, rho_constr: float,
) -> Array:
    """The gradient pass up to the terminal term, by forward sensitivities:
    an (n_x + 1, n_z) array whose first row is the sum of every term of the
    gradient but the terminal one, and whose other rows are S = dx/dz at
    the end of the horizon.

    states and mask are the record of a finite cost pass at the same state
    and decision vector; one rhs_jacobians call on all
    4 * n_pred * n_steps stage points gives their Jacobians.  Each stage's
    B is scattered ahead of time into its block's columns of an n_x x n_z
    array padded with -0.0, which leaves every float it is added to
    unchanged, so a stage is one product and one add.  Each recorded step
    propagates S through one RK4 step, and S is kept at every period
    boundary (propagate).

    The gradient is a sum of terms, one row each: per period the stage
    cost's tau_u * (lx @ S) and its input part tau_u * lu, then for each
    active constraint its state and input parts, then the terminal term,
    which the caller adds.  They come from one stage_cost_grads call on
    every period start and at most one constraint_jacobians call on the
    periods with an active constraint, with stacked products, and are
    summed in that order by one sequential accumulate from +0.0; input parts
    are rows padded with -0.0.
    """
    n_x, n_u, n_z = problem.n_x, problem.n_u, z.size
    blocks = z.reshape(n_contr, n_u)
    n_points = 4 * n_pred * n_steps
    assert len(states) == n_points + 1  # row 4k: the state step k starts from; rows 4k to 4k + 3: its stage points
    period_blocks = np.minimum(np.arange(n_pred), n_contr - 1)
    # the input block of each stage point: 4 stages per step, n_steps steps per period
    point_blocks = np.repeat(period_blocks, 4 * n_steps)
    A_all, B_all = problem.rhs_jacobians(states[:n_points], blocks[point_blocks], p)
    B_pad = np.full((n_points, n_x, n_contr, n_u), -0.0)
    B_pad[np.arange(n_points), :, point_blocks] = B_all
    S_at = propagate(A_all, B_pad.reshape(n_points, n_x, n_z), n_pred, n_steps, h)

    period_inputs = blocks[period_blocks]
    lx, lu = problem.stage_cost_grads(states[: n_points : 4 * n_steps], period_inputs, p, q)
    # the active constraints as (period, index) pairs, in period order; the
    # constraint Jacobians come only at the periods with one, and slot k
    # holds the k-th such period
    act_periods = np.flatnonzero(mask.any(1))
    pair_period, pair_index = np.nonzero(mask)
    pair_slot = np.searchsorted(act_periods, pair_period)
    n_pairs = pair_index.size
    n_before = np.searchsorted(pair_period, np.arange(n_pred))  # pairs of the earlier periods
    stage_rows = 1 + 2 * (np.arange(n_pred) + n_before)
    terms = np.full((2 * (n_pred + n_pairs) + 1, n_contr, n_u), -0.0)
    flat_terms = terms.reshape(-1, n_z)
    flat_terms[0] = 0.0
    flat_terms[stage_rows] = tau_u * np.matmul(lx[:, None, :], S_at[:n_pred])[:, 0]
    terms[stage_rows + 1, period_blocks] = tau_u * lu
    if n_pairs:
        Cx, Cu = problem.constraint_jacobians(
            states[4 * n_steps * (act_periods + 1)], period_inputs[act_periods], p, q
        )
        scale = rho_constr * tau_u
        pair_rows = 1 + 2 * (pair_period + 1 + np.arange(n_pairs))
        flat_terms[pair_rows] = scale * np.matmul(Cx[pair_slot, pair_index][:, None, :], S_at[pair_period + 1])[:, 0]
        terms[pair_rows + 1, period_blocks[pair_period]] = scale * Cu[pair_slot, pair_index]
    return np.concatenate((np.cumsum(flat_terms, axis=0)[-1:], S_at[n_pred]))


def passes_for(problem: ProblemDefinition) -> tuple[Callable, Callable]:
    """The cost pass and the gradient pass that run this problem's passes,
    with python_pass's and python_grad_pass's arguments: both compiled once
    their self-check agreed, else both in Python; decided once per process
    for each c_source, six callbacks and sizes.  A problem without a
    c_source, or without one of the three Python derivative callbacks
    (finite differences), runs in Python without a self-check."""
    if problem.c_source is None or None in (problem.rhs_jac, problem.stage_cost_grad, problem.constraint_jac):
        return python_pass, python_grad_pass
    key = ("passes", problem.c_source, problem.rhs, problem.stage_cost, problem.constraint_map, problem.rhs_jac,
           problem.stage_cost_grad, problem.constraint_jac, problem.n_x, problem.n_u, problem.n_p, problem.n_q,
           problem.n_c)
    return _verdicts.get(key) or _settle(
        key, (python_pass, python_grad_pass), _bind_passes(problem), lambda passes: _agree(problem, *passes))


def propagate(A_all: Array, B_all: Array, n_pred: int, n_steps: int, h: float) -> Array:
    """numpy_recurrence's result, from the compiled recurrence where it runs
    (not for Jacobians that are not C-contiguous float64 arrays); decided
    once per process for each n_x and n_z."""
    n_points, n_x, n_z = B_all.shape
    if A_all.shape == (n_points, n_x, n_x) and n_points == 4 * n_pred * n_steps and all(
        a.dtype == np.float64 and a.flags.c_contiguous and a.flags.aligned for a in (A_all, B_all)
    ):
        return _recurrence_for(n_x, n_z)(A_all, B_all, n_pred, n_steps, h)
    return numpy_recurrence(A_all, B_all, n_pred, n_steps, h)


def warm_up(problem: ProblemDefinition, n_zs: Sequence[int]) -> None:
    """Build, load and self-check the recurrence for each n_z and the
    passes for this problem, and build the RK4 kernel for its state.  tune
    calls it before any solve is timed and before it forks its workers, so
    that they inherit it all and never compile."""
    for n_z in n_zs:
        _recurrence_for(problem.n_x, n_z)
    passes_for(problem)
    rk4_kernel(problem.n_x)


def _recurrence_for(n_x: int, n_z: int) -> Callable:
    key = ("sensitivity", n_x, n_z)
    return _verdicts.get(key) or _settle(key, numpy_recurrence, _bind_recurrence(), lambda run: (
        _same(numpy_recurrence(*args), run(*args)) for args in _recurrence_draws(n_x, n_z)))


_verdicts: dict[tuple, Callable | tuple] = {}  # key -> the recurrence, or the pair of passes, that runs


def _settle(key: tuple, reference, compiled, agree: Callable[[object], Iterator[bool]]):
    """Keep, for key, what is compiled if it gives the reference's bytes on
    every draw agree checks, and there is one, else the reference."""
    with np.errstate(all="ignore"):
        checks = iter(()) if compiled is None else agree(compiled)
        same = next(checks, False) and all(checks)
    found = _verdicts[key] = compiled if same else reference
    return found


def _same(want, got) -> bool:
    """Whether got has want's bytes: all of a recurrence's or a gradient
    pass's; a cost pass's cost, steps, the states want reached, and, unless
    it diverged, mask (a diverged record is never read)."""
    if isinstance(want, np.ndarray):
        return got.tobytes() == want.tobytes()
    cost, steps, states, mask = want
    return (float(cost).hex() == float(got[0]).hex() and steps == got[1]
            and states.tobytes() == got[2][: len(states)].tobytes()
            and (not math.isfinite(cost) or mask.tobytes() == got[3].tobytes()))


@functools.lru_cache(maxsize=None)
def load(stem: str, c_source: str = "") -> tuple[Callable, ...] | None:
    """The typed C functions of stem's C files, compiled one after the other
    with c_source in place of the marker line, or None where they cannot be
    had: no compiler, no C file, a cache directory another user could
    write, a failed build (which leaves nothing in the cache) or a missing
    symbol, an undefined one too.  Looked up once per process; the compiler
    runs only when the cache does not hold the library yet."""
    cc = shutil.which(CC)
    if cc is None:
        return None
    files, flags, libs, signatures = BINDINGS[stem]
    try:
        head, _, tail = b"".join((SOURCES / f"{name}.c").read_bytes() for name in files).partition(MARKER)
        text = head + c_source.encode() + tail
        # the compiler is named by its file, not by running `cc --version`: a load
        # from the cache starts no process, whose ru_maxrss would read as the
        # parent's peak (exec records the parent's high-water mark in the child)
        compiler = Path(cc).resolve()
        identity = f"{compiler} {compiler.stat().st_size} {compiler.stat().st_mtime_ns}"
        key = hashlib.sha256(b"\0".join([text, " ".join([*flags, *libs]).encode(), identity.encode()])).hexdigest()
        cache = CACHE.expanduser()
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        status = cache.stat()
        if status.st_uid != os.getuid() or status.st_mode & 0o077:
            return None  # another user could put a library there
        path = cache / f"{stem}-{key[:16]}.so"
        if not path.exists():
            _compile(cc, [*flags, "-x", "c", "-", *libs], text, path)
        library = ctypes.CDLL(str(path))
        functions = tuple(getattr(library, name) for name in signatures)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    for function, (argtypes, restype) in zip(functions, signatures.values()):
        function.argtypes, function.restype = argtypes, restype
    return functions


def _compile(cc: str, args: list[str], text: bytes, path: Path) -> None:
    """Compile the text, read from standard input, into path, through a
    temporary file and an atomic rename, so that a concurrent reader never
    sees a partial file."""
    fd, partial = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([cc, "-o", partial, *args], input=text, capture_output=True, check=True, timeout=120)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _bind_passes(problem: ProblemDefinition) -> tuple[Callable, Callable] | None:
    """The compiled cost and gradient passes of this problem, with
    python_pass's and python_grad_pass's arguments and numpy's BLAS routines
    bound; numpy's BLAS is looked up before anything is built.  Reading an
    array's address costs about a microsecond, so a pass reads one at most."""
    routines = _numpy_blas()
    functions = None if routines is None else load("passes", problem.c_source)
    if functions is None:
        return None
    run_cost, run_grad = functions[0], functools.partial(functions[1], *routines)
    n_x, n_u, n_p, n_q, n_c = problem.n_x, problem.n_u, problem.n_p, problem.n_q, problem.n_c
    n_given = n_x + n_p + n_q

    def compiled_pass(problem, x, p, q, z, n_pred, n_contr, n_steps, h, tau_u, rho_constr):
        # one buffer: x, p, q and z, then the cost, the states and the mask, as passes.c lays them out
        n_in = n_given + n_contr * n_u
        rows = 4 * n_pred * n_steps + 1
        end = n_in + 1 + rows * n_x
        buf = np.empty(end + (n_pred * n_c + 7) // 8)
        buf[:n_in] = np.concatenate((x, p, q, z))
        steps = run_cost(n_x, n_u, n_p, n_q, n_c, n_pred, n_contr, n_steps, h, tau_u, rho_constr, buf.ctypes.data)
        states = buf[n_in + 1 : end].reshape(rows, n_x)
        mask = buf[end:].view(np.int8)[: n_pred * n_c].reshape(n_pred, n_c)
        return buf.item(n_in), steps, states, mask

    def compiled_grad_pass(problem, states, mask, p, q, z, n_pred, n_contr, n_steps, h, tau_u, rho_constr):
        if not (states.shape == (4 * n_pred * n_steps + 1, n_x) and states.dtype == np.float64
                and mask.shape == (n_pred, n_c) and mask.dtype == np.int8 and z.size == n_contr * n_u):
            raise ValueError("a gradient pass needs the record of a cost pass of the same sizes")
        # the inputs go as bytes, whose buffers ctypes passes as they are, and the result in a ctypes array
        out = (ctypes.c_double * ((n_x + 1) * z.size))()
        run_grad(n_x, n_u, n_p, n_q, n_c, n_pred, n_contr, n_steps, h, tau_u, rho_constr, states.tobytes(),
                 mask.tobytes(), np.concatenate((p, q, z)).tobytes(), out)
        return np.frombuffer(out).reshape(n_x + 1, z.size)

    return compiled_pass, compiled_grad_pass


def _bind_recurrence() -> Callable | None:
    """The compiled recurrence, with numpy_recurrence's arguments and numpy's
    BLAS routines bound; numpy's BLAS is looked up before anything is built."""
    routines = _numpy_blas()
    functions = None if routines is None else load("sensitivity")
    return None if functions is None else functools.partial(
        _compiled_recurrence, functools.partial(functions[0], *routines[:3]))


def _numpy_blas() -> list[int] | None:
    """The addresses of BLAS_SYMBOLS in numpy's BLAS, or None."""
    try:
        from numpy._core import _multiarray_umath  # numpy's BLAS is among its dependencies

        numpy_blas = ctypes.CDLL(_multiarray_umath.__file__)
        return [ctypes.cast(getattr(numpy_blas, name), ctypes.c_void_p).value for name in BLAS_SYMBOLS]
    except (ImportError, OSError, AttributeError):
        return None


def _compiled_recurrence(run: Callable, A_all: Array, B_all: Array, n_pred: int, n_steps: int, h: float) -> Array:
    n_x, n_z = B_all.shape[1:]
    S_at = np.zeros((n_pred + 1, n_x, n_z))
    work = np.empty(5 * n_x * n_z)
    run(n_pred, n_steps, n_x, n_z, h, A_all.ctypes.data, B_all.ctypes.data, S_at.ctypes.data, work.ctypes.data)
    return S_at


def _pass_draws(problem: ProblemDefinition) -> Iterator[tuple]:
    """The self-check's cost passes: random ones from the problem's boxes,
    with tail periods, several steps per period and penalty weights over six
    decades."""
    rng = np.random.default_rng(2024)
    for n_pred, n_contr, n_steps in ((1, 1, 1), (2, 1, 3), (3, 2, 2), (4, 3, 1), (5, 2, 4), (6, 6, 2)):
        tau_u = float(problem.tau * rng.integers(1, 11))
        yield (
            problem,
            rng.uniform(problem.x_min, problem.x_max),
            problem.p_nom + problem.p_std * rng.standard_normal(problem.n_p),
            rng.uniform(problem.q_min, problem.q_max),
            rng.uniform(np.tile(problem.u_min, n_contr), np.tile(problem.u_max, n_contr)),
            n_pred, n_contr, n_steps, tau_u / n_steps, tau_u, float(10.0 ** rng.uniform(0.0, 6.0)),
        )


def _agree(problem: ProblemDefinition, cost_pass: Callable, grad_pass: Callable) -> Iterator[bool]:
    """Whether cost_pass gives python_pass's bytes on each of _pass_draws,
    and, where python_pass is finite, grad_pass gives python_grad_pass's on
    its record."""
    for problem, x, p, q, z, *rest in _pass_draws(problem):
        want = python_pass(problem, x, p, q, z, *rest)
        yield _same(want, cost_pass(problem, x, p, q, z, *rest))
        if math.isfinite(want[0]):
            args = (problem, want[2], want[3], p, q, z, *rest)
            yield _same(python_grad_pass(*args), grad_pass(*args))


def _recurrence_draws(n_x: int, n_z: int) -> Iterator[tuple]:
    """The self-check's recurrences: random ones with these sizes."""
    rng = np.random.default_rng(n_x * 1000 + n_z)
    for n_pred, n_steps in ((1, 1), (2, 3), (3, 2), (4, 1), (2, 4)):
        n_points = 4 * n_pred * n_steps
        A = rng.standard_normal((n_points, n_x, n_x)) / n_x  # of norm about 2 at most: S stays finite
        B = rng.standard_normal((n_points, n_x, n_z))
        B[rng.random(B.shape) < 0.5] = -0.0  # as the padding of the other blocks' columns
        yield A, B, n_pred, n_steps, rng.uniform(0.01, 0.5)
