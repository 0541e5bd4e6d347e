"""Planar VTOL benchmark in normalized coordinates.

State x = (y, z, theta, y_dot, z_dot, theta_dot): lateral and vertical
position, roll angle, and their rates.  Inputs u = (u1, u2) are the normalized
total thrust and differential thrust.  Uncertain parameters p = (p1, p2) are
the lateral-coupling and roll-authority coefficients.  The exogenous vector
q = (q1, q2, q3, q4) carries the position set-point and the rate/angle limits
|theta_dot| <= q3, |theta| <= q4.

Hover trim is u = (1, 0) at any (y, z) = (q1, q2) with zero angle and rates.
"""

from __future__ import annotations

import math

import numpy as np

from .problems import ProblemDefinition, register_problem

Array = np.ndarray

# diagonal output and input weights of the tracking stage cost
Q_DIAG = np.array([1.0e3, 1.0e3, 1.0e3, 1.0, 1.0, 1.0])
R_DIAG = np.array([0.1, 0.1])

U_TRIM = np.array([1.0, 0.0])

# scalar copies for the hot closed-form expressions below
_Q0, _Q1, _Q2, _Q3, _Q4, _Q5 = Q_DIAG.tolist()
_R0, _R1 = R_DIAG.tolist()
_2Q_DIAG = 2.0 * Q_DIAG
_2R_DIAG = 2.0 * R_DIAG
_A_CONST = np.zeros((6, 6))
_A_CONST[0, 3] = _A_CONST[1, 4] = _A_CONST[2, 5] = 1.0


def target_state(q: Array) -> Array:
    """Hover target for set-point (q1, q2)."""
    return np.array([q[0], q[1], 0.0, 0.0, 0.0, 0.0])


def pvtol_rhs(x: tuple, u: tuple, p: tuple) -> tuple[float, ...]:
    s, c = math.sin(x[2]), math.cos(x[2])
    u1, u2 = u
    p1, p2 = p
    p1u2 = p1 * u2
    return (x[3], x[4], x[5], -u1 * s + p1u2 * c, u1 * c + p1u2 * s - 1.0, p2 * u2)


def pvtol_rhs_jac(x: Array, u: Array, p: Array) -> tuple[Array, Array]:
    # x (..., 6) and u (..., 2) stack points on their leading axes
    s, c = np.sin(x[..., 2]), np.cos(x[..., 2])
    u1 = u[..., 0]
    p1 = float(p[0])
    p1u2 = p1 * u[..., 1]
    lead = x.shape[:-1]
    A = np.empty(lead + (6, 6))
    A[...] = _A_CONST
    A[..., 3, 2] = -u1 * c - p1u2 * s
    A[..., 4, 2] = -u1 * s + p1u2 * c
    B = np.zeros(lead + (6, 2))
    B[..., 3, 0] = -s
    B[..., 3, 1] = p1 * c
    B[..., 4, 0] = c
    B[..., 4, 1] = p1 * s
    B[..., 5, 1] = p[1]
    return A, B


def pvtol_stage_cost(x: tuple, u: tuple, p: tuple, q: tuple) -> float:
    x0, x1, d2, d3, d4, d5 = x
    u0, e1 = u
    q0, q1, _, _ = q
    d0 = x0 - q0
    d1 = x1 - q1
    e0 = u0 - 1.0
    return (
        _Q0 * d0 * d0 + _Q1 * d1 * d1 + _Q2 * d2 * d2
        + _Q3 * d3 * d3 + _Q4 * d4 * d4 + _Q5 * d5 * d5
        + _R0 * e0 * e0 + _R1 * e1 * e1
    )


def pvtol_stage_cost_grad(x: Array, u: Array, p: Array, q: Array) -> tuple[Array, Array]:
    # x (..., 6) and u (..., 2) stack points on their leading axes
    dx = x.copy()
    dx[..., 0] -= q[0]
    dx[..., 1] -= q[1]
    dx *= _2Q_DIAG
    du = u - U_TRIM
    du *= _2R_DIAG
    return dx, du


def pvtol_terminal_base(x: tuple, p: tuple, q: tuple) -> float:
    dx = x - target_state(q)
    return float(math.sqrt(np.dot(Q_DIAG, dx * dx)))


def pvtol_terminal_grad(x: Array, p: Array, q: Array) -> Array:
    dx = x - target_state(q)
    norm = math.sqrt(np.dot(Q_DIAG, dx * dx))
    if norm < 1.0e-12:
        return np.zeros(6)  # subgradient at the target
    return Q_DIAG * dx / norm


def pvtol_constraints(x: tuple, u: tuple, p: tuple, q: tuple) -> tuple[float, ...]:
    # |theta_dot| <= q3 and |theta| <= q4, written as c_i <= 0
    _, _, theta, _, _, theta_dot = x
    _, _, q3, q4 = q
    return (theta_dot - q3, -theta_dot - q3, theta - q4, -theta - q4)


# the four value callbacks and the four derivative callbacks in C,
# operation for operation, for the compiled solve (ProblemDefinition.c_source);
# the weights are written with repr, which round-trips every float, sin and
# cos are libm's, which np.sin and np.cos equal on float64 here (a numpy
# whose sin differs fails the solve's self-check, and the Python solve
# runs), and np.dot(Q_DIAG, dx * dx) is numpy_ddot
_2Q, _2R, _TRIM = _2Q_DIAG.tolist(), _2R_DIAG.tolist(), U_TRIM.tolist()
PVTOL_C_SOURCE = f"""
static const double Q_DIAG[6] = {{{", ".join(map(repr, Q_DIAG.tolist()))}}};

void rhs(const double *x, const double *u, const double *p, double *dx)
{{
    const double s = sin(x[2]), c = cos(x[2]);
    const double p1u2 = p[0] * u[1];
    dx[0] = x[3];
    dx[1] = x[4];
    dx[2] = x[5];
    dx[3] = -u[0] * s + p1u2 * c;
    dx[4] = u[0] * c + p1u2 * s - 1.0;
    dx[5] = p[1] * u[1];
}}

double stage_cost(const double *x, const double *u, const double *p, const double *q)
{{
    const double d0 = x[0] - q[0], d1 = x[1] - q[1], e0 = u[0] - 1.0;
    return {_Q0!r} * d0 * d0 + {_Q1!r} * d1 * d1 + {_Q2!r} * x[2] * x[2]
        + {_Q3!r} * x[3] * x[3] + {_Q4!r} * x[4] * x[4] + {_Q5!r} * x[5] * x[5]
        + {_R0!r} * e0 * e0 + {_R1!r} * u[1] * u[1];
}}

void constraint_map(const double *x, const double *u, const double *p, const double *q, double *c)
{{
    c[0] = x[5] - q[2];
    c[1] = -x[5] - q[2];
    c[2] = x[2] - q[3];
    c[3] = -x[2] - q[3];
}}

double terminal_penalty_base(const double *x, const double *p, const double *q)
{{
    const double d0 = x[0] - q[0], d1 = x[1] - q[1];
    const double dd[6] = {{d0 * d0, d1 * d1, x[2] * x[2], x[3] * x[3], x[4] * x[4], x[5] * x[5]}};
    return sqrt(numpy_ddot(6, Q_DIAG, dd));
}}

void rhs_jac(const double *x, const double *u, const double *p, double *A, double *B)
{{
    const double s = sin(x[2]), c = cos(x[2]);
    const double p1u2 = p[0] * u[1];
    for (int i = 0; i < 36; i++)
        A[i] = 0.0;
    A[0 * 6 + 3] = A[1 * 6 + 4] = A[2 * 6 + 5] = 1.0;
    A[3 * 6 + 2] = -u[0] * c - p1u2 * s;
    A[4 * 6 + 2] = -u[0] * s + p1u2 * c;
    for (int i = 0; i < 12; i++)
        B[i] = 0.0;
    B[3 * 2 + 0] = -s;
    B[3 * 2 + 1] = p[0] * c;
    B[4 * 2 + 0] = c;
    B[4 * 2 + 1] = p[0] * s;
    B[5 * 2 + 1] = p[1];
}}

void stage_cost_grad(const double *x, const double *u, const double *p, const double *q, double *lx, double *lu)
{{
    lx[0] = (x[0] - q[0]) * {_2Q[0]!r};
    lx[1] = (x[1] - q[1]) * {_2Q[1]!r};
    lx[2] = x[2] * {_2Q[2]!r};
    lx[3] = x[3] * {_2Q[3]!r};
    lx[4] = x[4] * {_2Q[4]!r};
    lx[5] = x[5] * {_2Q[5]!r};
    lu[0] = (u[0] - {_TRIM[0]!r}) * {_2R[0]!r};
    lu[1] = (u[1] - {_TRIM[1]!r}) * {_2R[1]!r};
}}

void terminal_penalty_grad(const double *x, const double *p, const double *q, double *g)
{{
    const double dx[6] = {{x[0] - q[0], x[1] - q[1], x[2], x[3], x[4], x[5]}};
    double dd[6];
    for (int i = 0; i < 6; i++)
        dd[i] = dx[i] * dx[i];
    const double norm = sqrt(numpy_ddot(6, Q_DIAG, dd));
    for (int i = 0; i < 6; i++)
        g[i] = norm < 1.0e-12 ? 0.0 : Q_DIAG[i] * dx[i] / norm; /* a subgradient at the target */
}}

void constraint_jac(const double *x, const double *u, const double *p, const double *q, double *Cx, double *Cu)
{{
    for (int i = 0; i < 24; i++)
        Cx[i] = 0.0;
    Cx[0 * 6 + 5] = 1.0;
    Cx[1 * 6 + 5] = -1.0;
    Cx[2 * 6 + 2] = 1.0;
    Cx[3 * 6 + 2] = -1.0;
    for (int i = 0; i < 8; i++)
        Cu[i] = 0.0;
}}
"""


_CX_CONST = np.zeros((4, 6))
_CX_CONST[0, 5] = 1.0
_CX_CONST[1, 5] = -1.0
_CX_CONST[2, 2] = 1.0
_CX_CONST[3, 2] = -1.0
_CU_CONST = np.zeros((4, 2))


def pvtol_constraint_jac(x: Array, u: Array, p: Array, q: Array) -> tuple[Array, Array]:
    # constant, so one read-only broadcast per call, whatever the leading axes of x
    lead = x.shape[:-1]
    return np.broadcast_to(_CX_CONST, lead + (4, 6)), np.broadcast_to(_CU_CONST, lead + (4, 2))


def pvtol_problem(
    tau: float = 0.01,
    p_nom: tuple[float, float] = (0.2, 5.0),
    p_std: tuple[float, float] = (0.02, 0.5),
    q3: float = 1.0,
    q4: float = 0.5,
    x_sample_min: tuple[float, ...] | None = None,
    x_sample_max: tuple[float, ...] | None = None,
) -> ProblemDefinition:
    """Build the benchmark.  Set-points (q1, q2) are drawn in [-1, 1]^2 while
    the limits q3, q4 stay fixed; initial states are drawn inside the
    constraint-admissible box unless a custom sampling box is given.
    """
    if x_sample_min is None:
        x_sample_min = (-1.0, -1.0, -q4, -1.0, -1.0, -q3)
    if x_sample_max is None:
        x_sample_max = (1.0, 1.0, q4, 1.0, 1.0, q3)
    return ProblemDefinition(
        n_x=6,
        n_u=2,
        n_p=2,
        n_q=4,
        n_c=4,
        tau=tau,
        u_min=(-50.0, -50.0),
        u_max=(50.0, 50.0),
        x_min=x_sample_min,
        x_max=x_sample_max,
        q_min=(-1.0, -1.0, q3, q4),
        q_max=(1.0, 1.0, q3, q4),
        p_nom=p_nom,
        p_std=p_std,
        rhs=pvtol_rhs,
        constraint_map=pvtol_constraints,
        stage_cost=pvtol_stage_cost,
        terminal_penalty_base=pvtol_terminal_base,
        u_trim=U_TRIM,
        rhs_jac=pvtol_rhs_jac,
        stage_cost_grad=pvtol_stage_cost_grad,
        terminal_penalty_grad=pvtol_terminal_grad,
        constraint_jac=pvtol_constraint_jac,
        c_source=PVTOL_C_SOURCE,
    )


register_problem("pvtol", pvtol_problem)
