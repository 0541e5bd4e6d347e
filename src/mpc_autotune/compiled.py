"""The compiled solve and loop, and the compiled sensitivity recurrence.

Each runs in one call to a C function, with the bytes of its reference,
which stays the fallback.  Two libraries hold them: passes (sensitivity.c,
then passes.c with the problem's c_source in place of its marker line),
for a problem that gives its eight callbacks in C, the whole descent,
whose reference is controller._descend, and the whole cost-model closed
loop, whose reference is controller._simulate's Python loop; and
sensitivity (sensitivity.c) the recurrence of the Python gradient pass,
whose reference is numpy_recurrence.  The products of both call the CBLAS
routines numpy's .dot, matmul and np.dot call.  The Python solve runs on
python_pass and python_grad_pass, the latter on the compiled recurrence
where it runs.

Both share one lifecycle.  load compiles a library with cc into CACHE, a
directory only its owner may write, under a name keyed by the text, the
flags and the compiler's file, records a failed build there, and binds
its C functions once per process.  A self-check compares them byte for
byte with their reference on random draws, once per process for each key,
and _verdicts keeps what runs: the compiled solve and loop or None, the
compiled recurrence or numpy_recurrence.  The reference runs on any
failure: no compiler, no C file, a failed build (a c_source missing a
callback fails to link), a missing symbol (numpy's BLAS routines too, as
with MKL or a system BLAS) or a mismatch.  warm_up does all of it ahead of
a run.
"""

from __future__ import annotations

import ctypes
import dataclasses
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

from .design import DesignVector
from .integration import floats, overflowed, rk4_kernel
from .problems import ProblemDefinition, Scenario

Array = np.ndarray

CC = "cc"
CACHE = Path("~") / ".cache" / "mpc-autotune"  # the home directory is looked up at the first build
SOURCES = Path(__file__).parent  # the .c files
MARKER = b"/* @c_source@ */"  # where a problem's C text goes in passes.c
# the arguments passes.c's two entry points start with (OCP_ARGUMENTS)
_OCP = [ctypes.c_void_p] * 4 + [ctypes.c_double] * 3 + [ctypes.c_int64] * 11 + [ctypes.c_double] * 6
BINDINGS = {  # stem: (C files, flags, libraries, {C function: (its argument types, result type)})
    "sensitivity": (("sensitivity",), ("-O2", "-ffp-contract=off", "-shared", "-fPIC"), (), {
        "sensitivity_pass": ([ctypes.c_void_p] * 3 + [ctypes.c_int64] * 4 + [ctypes.c_double] + [ctypes.c_void_p] * 4,
                             None)}),
    # -z defs fails the link of a c_source that leaves one of the eight callbacks undefined
    "passes": (("sensitivity", "passes"), ("-O2", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC",
                                          "-Wl,-z,defs"), ("-lm",), {
        "solve": (_OCP + [ctypes.c_void_p] * 2, None),
        "simulate": (_OCP + [ctypes.c_int64] * 2 + [ctypes.c_double] + [ctypes.c_void_p] * 7, None)}),
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


def solve_for(problem: ProblemDefinition) -> tuple[Callable, Callable] | None:
    """The compiled solve and the compiled loop of this problem, with the
    arguments and results of controller._descend and of controller._simulate's
    loop, once their one self-check agreed, else None, and the problem runs
    both in Python; decided once per process for each c_source, eight
    callbacks and sizes.  A problem without a c_source, or without one of
    the four Python derivative callbacks (finite differences), runs in
    Python without a self-check."""
    if problem.c_source is None or None in (
        problem.rhs_jac, problem.stage_cost_grad, problem.terminal_penalty_grad, problem.constraint_jac
    ):
        return None
    key = ("passes", problem.c_source, problem.rhs, problem.stage_cost, problem.constraint_map,
           problem.terminal_penalty_base, problem.rhs_jac, problem.stage_cost_grad, problem.terminal_penalty_grad,
           problem.constraint_jac, problem.n_x, problem.n_u, problem.n_p, problem.n_q, problem.n_c)
    return _verdict(key, None, lambda: _bind_solve(problem), lambda run: _agree(problem, run))


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
    """Build, load and self-check the solve and loop for this problem and,
    where they run in Python, the recurrence for each n_z, and build the
    RK4 kernel for its state.  tune calls it before any solve is timed and
    before it forks its workers, so that they inherit it all and never
    compile.  A compiled solve runs the recurrence only in its self-check,
    which decides it for the sizes it reaches."""
    if solve_for(problem) is None:
        for n_z in n_zs:
            _recurrence_for(problem.n_x, n_z)
    rk4_kernel(problem.n_x)


def _recurrence_for(n_x: int, n_z: int) -> Callable:
    return _verdict(("sensitivity", n_x, n_z), numpy_recurrence, _bind_recurrence, lambda run: (
        _same(numpy_recurrence(*args), run(*args)) for args in _recurrence_draws(n_x, n_z)))


_verdicts: dict[tuple, object] = {}  # key -> the recurrence, or the solve and loop, that runs


def _verdict(key: tuple, reference, bind: Callable, agree: Callable[[object], Iterator[bool]]):
    """What runs for key, decided at its first lookup: what bind compiles,
    if it gives the reference's bytes on every draw agree checks, and there
    is one, else the reference, which also runs for key while agree runs."""
    if key not in _verdicts:
        _verdicts[key] = reference
        try:
            with np.errstate(all="ignore"):
                compiled = bind()
                checks = iter(()) if compiled is None else agree(compiled)
                same = next(checks, False) and all(checks)
        except BaseException:
            del _verdicts[key]
            raise
        _verdicts[key] = compiled if same else reference
    return _verdicts[key]


def _same(want, got) -> bool:
    """Whether got has want's bytes: an array's, a float's (its hex), and
    those of each of a solve's results or of a report's fields."""
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and want.shape == got.shape and want.tobytes() == got.tobytes()
    if isinstance(want, float):
        return isinstance(got, float) and want.hex() == got.hex()
    if isinstance(want, tuple):
        return isinstance(got, tuple) and len(want) == len(got) and all(map(_same, want, got))
    if dataclasses.is_dataclass(want):
        return type(want) is type(got) and all(
            _same(getattr(want, f.name), getattr(got, f.name)) for f in dataclasses.fields(want))
    return type(want) is type(got) and want == got


@functools.lru_cache(maxsize=None)
def load(stem: str, c_source: str = "") -> tuple[Callable, ...] | None:
    """The typed C functions of stem's C files, compiled one after the other
    with c_source in place of the marker line, or None where they cannot be
    had: no compiler, no C file, a cache directory another user could
    write, a failed build or a missing symbol, an undefined one too.  Looked
    up once per process; the compiler runs only when the cache holds
    neither the library nor the record of its failed build, an empty file
    named for the library with .failed for .so."""
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
        failed = path.with_suffix(".failed")
        if failed.exists():
            return None
        if not path.exists():
            try:
                _compile(cc, [*flags, "-x", "c", "-", *libs], text, path)
            except subprocess.CalledProcessError:
                failed.touch()
                raise
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


def _bind_solve(problem: ProblemDefinition) -> tuple[Callable, Callable] | None:
    """The compiled solve and the compiled loop of this problem, with the
    arguments and results of controller._descend and of controller._simulate's
    loop, and with numpy's BLAS routines and the descent's constants bound;
    numpy's BLAS is looked up before anything is built."""
    from . import controller  # which imports this module

    routines = _numpy_blas()
    functions = None if routines is None else load("passes", problem.c_source)
    if functions is None:
        return None
    run_solve, run_loop = (functools.partial(
        function, *routines, controller.ARMIJO_SLOPE, controller.G_TOL, controller.BACKTRACK_SHRINK,
        controller.MAX_BACKTRACKS, controller.WORK_PER_RK_STEP, problem.n_x, problem.n_u, problem.n_p, problem.n_q,
        problem.n_c) for function in functions)

    def descent(setting, c_eval, budget) -> tuple:
        design = setting.design
        return (design.n_pred, design.n_contr, setting.n_steps, design.max_iter, setting.tau_p, setting.tau_u,
                design.rho_constr, design.rho_f, c_eval or 0.0, math.nan if budget is None else budget)

    def compiled_solve(setting, x, p, q, z, z_lo, z_hi, c_eval, budget):
        design, n_z = setting.design, z.size
        if (x.size, p.size, q.size, n_z, z_lo.size, z_hi.size) != (
            problem.n_x, problem.n_p, problem.n_q, design.n_contr * problem.n_u, n_z, n_z
        ):
            raise ValueError("a solve needs x, p, q, z and its box of the problem's and the design's sizes")
        # one buffer: x, p, q, z and the box, then z_opt and the cost, as passes.c lays them out
        buf = np.concatenate((x, p, q, z, z_lo, z_hi, z, z[:1]), dtype=np.float64)
        counts = (ctypes.c_int64 * 3)()
        run_solve(*descent(setting, c_eval, budget), buf.ctypes.data, counts)
        iterations, steps, diverged = counts
        if steps < 0:
            raise MemoryError("no memory for the states of a compiled solve")
        return buf[-n_z - 1 : -1], buf.item(-1), iterations, steps, bool(diverged)

    def compiled_loop(setting, p, q, z, c_eval, budget, solver_times, ol_costs, max_viols, states, inputs):
        design, m = setting.design, solver_times.size
        z_lo, z_hi = setting.z_bounds()
        if (p.size, q.size, z.size, states.shape, inputs.shape) != (
            problem.n_p, problem.n_q, z_lo.size, (m * design.kappa + 1, problem.n_x), (m, problem.n_u)
        ):
            raise ValueError("a closed loop needs p, q, z and its records of the problem's and the design's sizes")
        # one buffer: p, q, z and the box, then the closed-loop cost, as passes.c lays them out
        buf = np.concatenate((p, q, z, z_lo, z_hi, z[:1]), dtype=np.float64)
        counts = (ctypes.c_int64 * 3)()
        run_loop(*descent(setting, c_eval, budget), m, design.kappa, setting.problem.tau, buf.ctypes.data,
                 solver_times.ctypes.data, ol_costs.ctypes.data, max_viols.ctypes.data, states.ctypes.data,
                 inputs.ctypes.data, counts)
        n_solves, diverged_at, stopped_at = counts
        if n_solves < 0:
            raise MemoryError("no memory for the states of a compiled closed loop")
        return n_solves, None if diverged_at < 0 else diverged_at, None if stopped_at < 0 else stopped_at, buf.item(-1)

    return compiled_solve, compiled_loop


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


# the self-check's solves: (n_pred, n_contr, n_steps, max_iter, the budget in
# horizons of work or None, whether from the default warm start).  PVTOL's hit
# the cap, stop at G_TOL, reject backtracks and are cut by the budget; long
# steps from the warm start make a one-ulp change of a constant show in the
# results, which only carry the states through the cost and the gradient
SOLVE_DRAWS = ((1, 1, 1, 3, None, False), (1, 1, 2, 40, None, False), (3, 2, 2, 6, 2.5, False),
               (10, 2, 1, 2, None, True), (20, 3, 1, 1, None, True), (15, 3, 1, 1, None, True),
               (10, 2, 1, 2, None, True))


def _solve_draws(problem: ProblemDefinition) -> Iterator[tuple]:
    """The self-check's solves, with controller._descend's arguments: states,
    parameters, exogenous vectors and warm starts drawn from the problem's
    boxes, cost-model timing at c_eval 1e-6 and penalty weights over three
    and six decades, then a solve from a state of 1e300 in every component,
    which diverges in its first pass."""
    from . import controller  # which imports this module

    rng = np.random.default_rng(34)
    for n_pred, n_contr, n_steps, max_iter, horizons, warm in SOLVE_DRAWS:
        tau_u = float(problem.tau * rng.integers(1, 31))
        rho_f, rho_constr = (float(10.0 ** rng.uniform(0.0, decades)) for decades in (3.0, 6.0))
        design = DesignVector(kappa=1, mu_d=0.0, n_pred=n_pred, n_contr=n_contr, rho_f=rho_f, rho_constr=rho_constr,
                              max_iter=max_iter)
        setting = controller.MpcSetting(problem, design, tau_u, n_steps)
        z_lo, z_hi = setting.z_bounds()
        x = rng.uniform(problem.x_min, problem.x_max)
        p = problem.p_nom + problem.p_std * rng.standard_normal(problem.n_p)
        q = rng.uniform(problem.q_min, problem.q_max)
        z = setting.default_warm_start() if warm else rng.uniform(z_lo, z_hi)
        budget = None if horizons is None else 1.0e-6 * controller.WORK_PER_RK_STEP * n_pred * n_steps * horizons
        yield setting, x, p, q, z, z_lo, z_hi, 1.0e-6, budget
    yield setting, np.full(problem.n_x, 1.0e300), p, q, z_lo, z_lo, z_hi, 1.0e-6, None


# the self-check's closed loops: (kappa, updates, n_pred, n_contr, max_iter,
# the budget in horizons of work or None, the start).  "middle": the state and
# q at the middle of their boxes, and a random warm start given, from which
# PVTOL's stage cost is its input terms alone, so that a one-ulp change of one
# can show in the closed-loop cost; "random": a random state and the default
# warm start, stopped by the budget at its first update; "far": a state of
# 1e300 in every component, whose first solve diverges
LOOP_DRAWS = ((3, 2, 3, 2, 1, None, "middle"), (2, 2, 3, 2, 3, 1.5, "random"), (2, 2, 3, 1, 2, None, "far"))


def _loop_draws(problem: ProblemDefinition) -> Iterator[tuple]:
    """The self-check's closed loops, with controller._simulate's arguments
    but its loop: scenarios lasting a few updates, parameters drawn around
    p_nom, cost-model timing at c_eval 1e-6 and penalty weights over three
    and six decades."""
    from . import controller  # which imports this module

    rng = np.random.default_rng(35)
    timing = controller.TimingSpec("cost-model", c_eval=1.0e-6)
    for kappa, updates, n_pred, n_contr, max_iter, horizons, start in LOOP_DRAWS:
        rho_f, rho_constr = (float(10.0 ** rng.uniform(0.0, decades)) for decades in (3.0, 6.0))
        design = DesignVector(kappa=kappa, mu_d=0.5, n_pred=n_pred, n_contr=n_contr, rho_f=rho_f,
                              rho_constr=rho_constr, max_iter=max_iter)
        setting = controller.MpcSetting.from_design(problem, design)
        middle = start == "middle"
        x0 = 0.5 * (problem.x_min + problem.x_max) if middle else rng.uniform(problem.x_min, problem.x_max)
        p = problem.p_nom + problem.p_std * rng.standard_normal(problem.n_p)
        q = 0.5 * (problem.q_min + problem.q_max) if middle else rng.uniform(problem.q_min, problem.q_max)
        scenario = Scenario(np.full(problem.n_x, 1.0e300) if start == "far" else x0, p, q, updates * setting.tau_u)
        z0 = rng.uniform(*setting.z_bounds()) if middle else None
        budget = None if horizons is None else (
            1.0e-6 * controller.WORK_PER_RK_STEP * n_pred * setting.n_steps * horizons)
        yield setting, scenario, timing, z0, budget


def _agree(problem: ProblemDefinition, run: tuple[Callable, Callable]) -> Iterator[bool]:
    """Whether run's solve gives controller._descend's bytes on each of
    _solve_draws, and run's loop controller._simulate's Python loop's on each
    of _loop_draws; that loop's solves run _descend, as the verdict is still
    the reference."""
    from . import controller  # which imports this module

    solve, loop = run
    for args in _solve_draws(problem):
        yield _same(controller._descend(*args), solve(*args))
    for args in _loop_draws(problem):
        yield _same(controller._simulate(*args, None), controller._simulate(*args, loop))


def _recurrence_draws(n_x: int, n_z: int) -> Iterator[tuple]:
    """The self-check's recurrences: random ones with these sizes."""
    rng = np.random.default_rng(n_x * 1000 + n_z)
    for n_pred, n_steps in ((1, 1), (2, 3), (3, 2), (4, 1), (2, 4)):
        n_points = 4 * n_pred * n_steps
        A = rng.standard_normal((n_points, n_x, n_x)) / n_x  # of norm about 2 at most: S stays finite
        B = rng.standard_normal((n_points, n_x, n_z))
        B[rng.random(B.shape) < 0.5] = -0.0  # as the padding of the other blocks' columns
        yield A, B, n_pred, n_steps, rng.uniform(0.01, 0.5)
