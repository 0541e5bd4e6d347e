"""Fixed-step RK4 propagation.

Two grids coexist: the plant always advances at the sampling period tau
(the fine grid), while the controller predicts at the updating period
tau_u = kappa * tau, internally subdivided into n_steps RK4 substeps chosen
from the prediction-precision fraction mu_d.

Both grids step with one kernel, rk4_kernel, on tuples of Python floats:
rhs(x, u, p) gets the state, the input and the parameters as tuples of
floats and may return any length-n sequence of floats.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

State = tuple[float, ...]
Rhs = Callable[[State, State, State], Sequence[float]]


class PropagationError(RuntimeError):
    """Raised when a propagated state stops being finite."""


def n_steps_for(mu_d: float, kappa: int) -> int:
    """Number of prediction substeps per updating period: ceil(1 + mu_d*(kappa-1)).

    mu_d = 0 gives a single coarse step of length tau_u, mu_d = 1 recovers the
    fine resolution with kappa steps of length tau.
    """
    if not 0.0 <= mu_d <= 1.0:
        raise ValueError(f"mu_d must lie in [0, 1], got {mu_d!r}")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa!r}")
    n = math.ceil(1.0 + mu_d * (kappa - 1))
    return int(min(max(n, 1), kappa))


def floats(v) -> State:
    """v as a tuple of Python floats, the form the value callbacks get.

    tuple() of a list, not of map() or a generator: CPython resizes a tuple
    built from an iterator and keeps each one freed on the free list of its
    new size, so memory would grow with the calls.
    """
    return tuple(np.asarray(v, dtype=float).tolist())


@functools.lru_cache(maxsize=None)
def rk4_kernel(n: int) -> Callable[[Rhs, State, State, State, float], tuple[State, State, State, State]]:
    """The RK4 step for states of length n, every component written out.

    kernel(rhs, x, u, p, h) returns the stage states and the result,
    (x2, x3, x4, x_next), as tuples, so that a sensitivity pass can reuse
    them instead of re-evaluating the dynamics.  Component i reads
    k1[i] * half + x[i] in x2, k2[i] * half + x[i] in x3, k3[i] * h + x[i]
    in x4 and (((k2[i] * 2.0 + k1[i]) + k3[i] * 2.0) + k4[i]) * (h / 6.0)
    + x[i] in x_next.  Written out, a step makes no comprehension frames,
    most of the cost of a loop over a short state.  The source is built
    from the integer n alone, once per state length.  The kernel does not
    check finiteness, and a float overflow may raise an ArithmeticError
    (** raises OverflowError) instead of giving inf, and an rhs on an
    overflowed state a ValueError (see overflowed); callers read either as
    divergence.
    """

    def names(letter: str) -> str:  # a, b, c, d: components of k1..k4; e: of x
        return "".join(f"{letter}{i}, " for i in range(n))

    def pack(term: str) -> str:
        return "(" + "".join(term.format(i=i) + ", " for i in range(n)) + ")"

    source = f"""def rk4_kernel_{n}(rhs, x, u, p, h):
    half = 0.5 * h
    k1 = rhs(x, u, p)
    if len(k1) != {n}:  # unpacking would fail with a bare message
        raise ValueError(f"rhs returned {{len(k1)}} values for a state of length {n}")
    {names("e")}= x
    {names("a")}= k1
    x2 = {pack("a{i} * half + e{i}")}
    {names("b")}= rhs(x2, u, p)
    x3 = {pack("b{i} * half + e{i}")}
    {names("c")}= rhs(x3, u, p)
    x4 = {pack("c{i} * h + e{i}")}
    {names("d")}= rhs(x4, u, p)
    h6 = h / 6.0
    return x2, x3, x4, {pack("(((b{i} * 2.0 + a{i}) + c{i} * 2.0) + d{i}) * h6 + e{i}")}
"""
    namespace: dict = {}
    exec(source, namespace)
    return namespace[f"rk4_kernel_{n}"]


def overflowed(rhs: Rhs, x: State, u: State, p: State, h: float) -> bool:
    """Whether the RK4 step from x raises a ValueError from an rhs call on a
    non-finite state, as math.sin does on inf (a math-domain error).  The
    step is run again with the states rhs gets recorded, so that a ValueError
    on a finite state (the wrong length returned, say) is not read as one."""
    got = []
    try:
        rk4_kernel(len(x))(lambda *args: got.append(args[0]) or rhs(*args), x, u, p, h)
    except ValueError:
        return not all(map(math.isfinite, got[-1]))
    return False


def rk4_step(rhs: Rhs, x: State, u: State, p: State, h: float) -> State:
    """One classical RK4 step under a constant input."""
    try:
        x_next = rk4_kernel(len(x))(rhs, x, u, p, h)[3]
    except (ArithmeticError, ValueError) as err:
        if isinstance(err, ValueError) and not overflowed(rhs, x, u, p, h):
            raise
        raise PropagationError("state overflowed in an RK4 step") from err
    if not all(map(math.isfinite, x_next)):
        raise PropagationError("non-finite state after RK4 step")
    return x_next


def hold_input(rhs: Rhs, states: np.ndarray, u: np.ndarray, p: np.ndarray, tau: float) -> None:
    """Advance the plant from states[0] at the sampling period tau, holding u.

    The state, u and p reach rhs as tuples of floats, as in the RK4 kernel.
    Row i + 1 of states receives the state after fine step i, in place, so
    the rows before a failing step stay filled; the PropagationError's
    message names the index of that step.
    """
    x = tuple(states[0].tolist())
    u, p = floats(u), floats(p)
    for i in range(len(states) - 1):
        try:
            x = rk4_step(rhs, x, u, p, tau)
        except PropagationError:
            raise PropagationError(f"plant propagation diverged at fine step {i}") from None
        states[i + 1] = x
