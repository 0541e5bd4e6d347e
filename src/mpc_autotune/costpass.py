"""The cost pass of the single-shooting objective, up to the terminal penalty.

A pass integrates the prediction from x with RK4, period by period, and
sums the stage cost and the constraint penalty; controller._cost_pass adds
the terminal penalty.  python_pass runs it on tuples of floats through the
problem's Python callbacks; it is the reference and the fallback.  For a
problem with c_source, the same pass runs in one call to the driver in
costpass.c, compiled together with that C text (cbuild.library), once a
self-check has found python_pass's bytes on random passes.  python_pass
runs instead without c_source, without a compiler, when the build fails,
or when the self-check finds a mismatch.

Either path returns (cost, steps, states, mask): the cost before the
terminal penalty (inf on divergence); the RK steps spent; the states, an
array of 4 * n_pred * n_steps + 1 rows holding the initial state and then
the stage states and the result (x2, x3, x4, x_next) of every step, so that
rows 4k to 4k + 3 are the stage points of step k; and an int8 mask of shape
(n_pred, n_c) flagging each period's active constraints.  After a
divergence only the rows and periods the pass reached are filled.
"""

from __future__ import annotations

import ctypes
import functools
import math
import subprocess
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from . import cbuild
from .integration import floats, rk4_kernel
from .problems import ProblemDefinition

Array = np.ndarray

SOURCE = Path(__file__).with_name("costpass.c")
MARKER = b"/* @c_source@ */"  # where the problem's C text goes
FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC")
LIBS = ("-lm",)


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
    diverge.
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
        cost += stage_cost(xt, ut, pt, qt) * tau_u
        try:
            for _ in range(n_steps):
                stages = kernel(rhs, xt, ut, pt, h)
                states.extend(stages)
                xt = stages[3]
        except ArithmeticError:  # a float overflow in rhs: the period diverged and is charged whole
            cost, steps = math.inf, steps + n_steps
            break
        steps += n_steps
        if n_c:
            penalty = 0.0
            for i, v in enumerate(constraint_map(xt, ut, pt, qt)):
                if not v <= 0.0:
                    penalty += v
                    mask[j, i] = 1
            cost += rho_constr * penalty * tau_u
        if not math.isfinite(cost):
            cost = math.inf
            break
    n_x = len(xt)
    return cost, steps, np.fromiter(chain.from_iterable(states), float, len(states) * n_x).reshape(-1, n_x), mask


def runner(problem: ProblemDefinition) -> Callable:
    """The pass that runs this problem's cost passes, with python_pass's
    arguments: the compiled one once its self-check agreed, else
    python_pass.  The check runs once per process for each c_source,
    callbacks and sizes; tune runs it before any solve is timed and before
    it forks its workers, so that they inherit the verdict and the library.
    """
    if problem.c_source is None:
        return python_pass
    key = (problem.c_source, problem.rhs, problem.stage_cost, problem.constraint_map,
           problem.n_x, problem.n_u, problem.n_p, problem.n_q, problem.n_c)
    found = _runners.get(key)
    if found is None:
        run = load(problem.c_source)
        compiled = None if run is None else _compiled_pass(run, problem)
        found = _runners[key] = compiled if compiled is not None and _agrees(problem, compiled) else python_pass
    return found


_runners: dict[tuple, Callable] = {}


def _compiled_pass(run: Callable, problem: ProblemDefinition) -> Callable:
    n_x, n_u, n_p, n_q, n_c = problem.n_x, problem.n_u, problem.n_p, problem.n_q, problem.n_c
    n_given = n_x + n_p + n_q

    def compiled_pass(problem, x, p, q, z, n_pred, n_contr, n_steps, h, tau_u, rho_constr):
        # one buffer, so one address per pass (reading an array's address
        # costs about a microsecond): x, p, q and z, then the cost, the
        # states and the mask, as costpass.c lays them out
        n_in = n_given + n_contr * n_u
        rows = 4 * n_pred * n_steps + 1
        end = n_in + 1 + rows * n_x
        buf = np.empty(end + (n_pred * n_c + 7) // 8)
        buf[:n_in] = np.concatenate((x, p, q, z))
        steps = run(n_x, n_u, n_p, n_q, n_c, n_pred, n_contr, n_steps, h, tau_u, rho_constr, buf.ctypes.data)
        states = buf[n_in + 1 : end].reshape(rows, n_x)
        mask = buf[end:].view(np.int8)[: n_pred * n_c].reshape(n_pred, n_c)
        return buf.item(n_in), steps, states, mask

    return compiled_pass


def _agrees(problem: ProblemDefinition, compiled: Callable) -> bool:
    """Whether the compiled pass gives python_pass's bytes (cost, steps,
    the states python_pass reached, and mask) on random passes from the
    problem's boxes, with tail periods, several steps per period and
    penalty weights over six decades."""
    rng = np.random.default_rng(2024)
    with np.errstate(all="ignore"):
        for n_pred, n_contr, n_steps in ((1, 1, 1), (2, 1, 3), (3, 2, 2), (4, 3, 1), (5, 2, 4), (6, 6, 2)):
            tau_u = float(problem.tau * rng.integers(1, 11))
            args = (
                problem,
                rng.uniform(problem.x_min, problem.x_max),
                problem.p_nom + problem.p_std * rng.standard_normal(problem.n_p),
                rng.uniform(problem.q_min, problem.q_max),
                rng.uniform(np.tile(problem.u_min, n_contr), np.tile(problem.u_max, n_contr)),
                n_pred, n_contr, n_steps, tau_u / n_steps, tau_u, float(10.0 ** rng.uniform(0.0, 6.0)),
            )
            if not _same_pass(python_pass(*args), compiled(*args)):
                return False
    return True


def _same_pass(want: tuple, got: tuple) -> bool:
    """Whether two passes agree byte for byte: cost, steps, the states the
    first reached, and the mask."""
    cost, steps, states, mask = want
    return (
        float(cost).hex() == float(got[0]).hex()
        and steps == got[1]
        and states.tobytes() == got[2][: len(states)].tobytes()
        and mask.tobytes() == got[3].tobytes()
    )


@functools.lru_cache(maxsize=None)
def load(c_source: str) -> Callable | None:
    """The compiled driver for this C text, or None where it cannot be had
    (no compiler, a failed build); looked up once per process."""
    head, driver = SOURCE.read_bytes().split(MARKER)
    try:
        library = cbuild.library("costpass", head + c_source.encode() + driver, FLAGS, LIBS)
        if library is None:
            return None
        run = ctypes.CDLL(str(library)).cost_pass
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    run.argtypes = [ctypes.c_int64] * 8 + [ctypes.c_double] * 3 + [ctypes.c_void_p]
    run.restype = ctypes.c_int64
    return run
