"""Fixed-step RK4 propagation.

Two grids coexist: the plant always advances at the sampling period tau
(the fine grid), while the controller predicts at the updating period
tau_u = kappa * tau, internally subdivided into n_steps RK4 substeps chosen
from the prediction-precision fraction mu_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

State = tuple[float, ...]
Rhs = Callable[[State, State, np.ndarray], Sequence[float]]


class PropagationError(RuntimeError):
    """Raised when a propagated state stops being finite."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


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


@dataclass(frozen=True)
class PredictionGrid:
    """Updating period and its subdivision into prediction substeps."""

    tau_u: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.tau_u <= 0.0:
            raise ValueError(f"tau_u must be positive, got {self.tau_u!r}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps!r}")

    @property
    def tau_p(self) -> float:
        """Length of one prediction substep."""
        return self.tau_u / self.n_steps


def rk4_stages(rhs: Rhs, x: State, u: State, p: np.ndarray, h: float) -> tuple[State, State, State, State]:
    """One classical RK4 step under a constant input, without a finiteness check.

    x and u are tuples of Python floats, and rhs is called on tuples; the
    step runs on floats, which spares numpy's per-call cost on short vectors.
    Returns the stage states and the result, (x2, x3, x4, x_next), as tuples,
    so that a sensitivity pass can reuse them instead of re-evaluating the
    dynamics.  A float overflow may raise an ArithmeticError (** raises
    OverflowError) instead of giving inf; callers read it as divergence.
    """
    half = 0.5 * h
    k1 = rhs(x, u, p)
    if len(k1) != len(x):  # zip below would truncate silently
        raise ValueError(f"rhs returned {len(k1)} values for a state of length {len(x)}")
    x2 = tuple([a * half + b for a, b in zip(k1, x)])
    k2 = rhs(x2, u, p)
    x3 = tuple([a * half + b for a, b in zip(k2, x)])
    k3 = rhs(x3, u, p)
    x4 = tuple([a * h + b for a, b in zip(k3, x)])
    k4 = rhs(x4, u, p)
    # sums (k1 + 2 k2 + 2 k3 + k4) in this order, then scales and adds x
    h6 = h / 6.0
    x_next = tuple([(((b * 2.0 + a) + c * 2.0) + d) * h6 + e for a, b, c, d, e in zip(k1, k2, k3, k4, x)])
    return x2, x3, x4, x_next


def rk4_step(rhs: Rhs, x: State, u: State, p: np.ndarray, h: float) -> State:
    """One classical RK4 step under a constant input."""
    try:
        x_next = rk4_stages(rhs, x, u, p, h)[3]
    except ArithmeticError as err:
        raise PropagationError("state overflowed in an RK4 step") from err
    if not all(map(math.isfinite, x_next)):
        raise PropagationError("non-finite state after RK4 step")
    return x_next


def hold_input(rhs: Rhs, states: np.ndarray, u: np.ndarray, p: np.ndarray, tau: float) -> None:
    """Advance the plant from states[0] at the sampling period tau, holding u.

    Row i + 1 of states receives the state after fine step i, in place, so
    the rows before a failing step stay filled; the PropagationError carries
    the index of that step.
    """
    x = tuple(states[0].tolist())
    u = tuple(map(float, u))
    for i in range(len(states) - 1):
        try:
            x = rk4_step(rhs, x, u, p, tau)
        except PropagationError:
            raise PropagationError(f"plant propagation diverged at fine step {i}", step=i) from None
        states[i + 1] = x
