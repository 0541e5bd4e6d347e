import math
import os
import shutil

import numpy as np
import pytest

from mpc_autotune import ClosedLoopReport, ProblemDefinition, compiled


def block_index(j: int, n_contr: int) -> int:
    """Input block used on horizon period j (tail periods freeze the last block)."""
    return min(j, n_contr - 1)


def integrator_problem(tau: float = 0.1) -> ProblemDefinition:
    """Scalar plant xdot = u with cost x^2 + u^2, terminal x^2, constraint x <= 0.8.

    RK4 is exact here (x + h*u), so open-loop trajectories have closed forms.
    """
    return ProblemDefinition(
        n_x=1,
        n_u=1,
        n_p=1,
        n_q=1,
        n_c=1,
        tau=tau,
        u_min=[-10.0],
        u_max=[10.0],
        x_min=[-2.0],
        x_max=[2.0],
        q_min=[0.0],
        q_max=[0.0],
        p_nom=[0.0],
        p_std=[0.0],
        rhs=lambda x, u, p: np.array([u[0]]),
        constraint_map=lambda x, u, p, q: np.array([x[0] - 0.8]),
        stage_cost=lambda x, u, p, q: float(x[0] ** 2 + u[0] ** 2),
        terminal_penalty_base=lambda x, p, q: float(x[0] ** 2),
    )


def double_integrator_problem() -> ProblemDefinition:
    """Plant xdot = (x[1], u) with quadratic costs and the constraint
    x[1] <= 0.8: two states and one input, so that one input block gives a
    sensitivity of one column, which numpy multiplies with gemv."""
    return ProblemDefinition(
        n_x=2,
        n_u=1,
        n_p=1,
        n_q=1,
        n_c=1,
        tau=0.1,
        u_min=[-10.0],
        u_max=[10.0],
        x_min=[-2.0, -2.0],
        x_max=[2.0, 2.0],
        q_min=[0.0],
        q_max=[0.0],
        p_nom=[0.0],
        p_std=[0.0],
        rhs=lambda x, u, p: (x[1], u[0]),
        constraint_map=lambda x, u, p, q: (x[1] - 0.8,),
        stage_cost=lambda x, u, p, q: x[0] ** 2 + x[1] ** 2 + u[0] ** 2,
        terminal_penalty_base=lambda x, p, q: x[0] ** 2 + x[1] ** 2,
    )


def quadratic_problem(u_span: float = 10.0) -> ProblemDefinition:
    """Scalar plant xdot = u over one unit step with J = (x0 + u)^2 + u^2.

    The unconstrained minimizer from x0 is u* = -x0/2.
    """
    return ProblemDefinition(
        n_x=1,
        n_u=1,
        n_p=1,
        n_q=1,
        n_c=0,
        tau=1.0,
        u_min=[-u_span],
        u_max=[u_span],
        x_min=[-5.0],
        x_max=[5.0],
        q_min=[0.0],
        q_max=[0.0],
        p_nom=[0.0],
        p_std=[0.0],
        rhs=lambda x, u, p: np.array([u[0]]),
        constraint_map=lambda x, u, p, q: np.empty(0),
        stage_cost=lambda x, u, p, q: float(u[0] ** 2),
        terminal_penalty_base=lambda x, p, q: float(x[0] ** 2),
    )


def oscillator_rhs_jac(x, u, p):
    lead = x.shape[:-1]
    A = np.empty(lead + (2, 2))
    A[...] = ((0.0, 1.0), (-1.0, -0.5))
    B = np.zeros(lead + (2, 1))
    B[..., 1, 0] = p[0]
    return A, B


def oscillator_stage_cost_grad(x, u, p, q):
    lx = np.empty(x.shape)
    lx[..., 0] = (x[..., 0] - q[0]) * 2.0
    lx[..., 1] = x[..., 1] * 2.0
    return lx, u * 0.2


def oscillator_constraint_jac(x, u, p, q):
    lead = x.shape[:-1]
    return np.zeros(lead + (0, 2)), np.zeros(lead + (0, 1))


def oscillator_problem() -> ProblemDefinition:
    """A damped oscillator xdot = (x[1], -x[0] - 0.5 * x[1] + p[0] * u[0])
    with quadratic costs and no constraint (n_c = 0), and its value and
    derivative callbacks in C: one input, so that one input block gives a
    sensitivity of one column, which numpy multiplies with gemv and dot."""
    return ProblemDefinition(
        n_x=2,
        n_u=1,
        n_p=1,
        n_q=1,
        n_c=0,
        tau=0.05,
        u_min=[-5.0],
        u_max=[5.0],
        x_min=[-2.0, -2.0],
        x_max=[2.0, 2.0],
        q_min=[0.0],
        q_max=[1.0],
        p_nom=[1.0],
        p_std=[0.2],
        rhs=lambda x, u, p: (x[1], -x[0] - 0.5 * x[1] + p[0] * u[0]),
        constraint_map=lambda x, u, p, q: (),
        stage_cost=lambda x, u, p, q: (x[0] - q[0]) * (x[0] - q[0]) + x[1] * x[1] + 0.1 * u[0] * u[0],
        terminal_penalty_base=lambda x, p, q: x[0] * x[0] + x[1] * x[1],
        rhs_jac=oscillator_rhs_jac,
        stage_cost_grad=oscillator_stage_cost_grad,
        terminal_penalty_grad=lambda x, p, q: x * 2.0,
        constraint_jac=oscillator_constraint_jac,
        c_source="""
void rhs(const double *x, const double *u, const double *p, double *dx)
{
    dx[0] = x[1];
    dx[1] = -x[0] - 0.5 * x[1] + p[0] * u[0];
}
double stage_cost(const double *x, const double *u, const double *p, const double *q)
{
    return (x[0] - q[0]) * (x[0] - q[0]) + x[1] * x[1] + 0.1 * u[0] * u[0];
}
void constraint_map(const double *x, const double *u, const double *p, const double *q, double *c) {}
double terminal_penalty_base(const double *x, const double *p, const double *q)
{
    return x[0] * x[0] + x[1] * x[1];
}
void rhs_jac(const double *x, const double *u, const double *p, double *A, double *B)
{
    A[0] = 0.0;
    A[1] = 1.0;
    A[2] = -1.0;
    A[3] = -0.5;
    B[0] = 0.0;
    B[1] = p[0];
}
void stage_cost_grad(const double *x, const double *u, const double *p, const double *q, double *lx, double *lu)
{
    lx[0] = (x[0] - q[0]) * 2.0;
    lx[1] = x[1] * 2.0;
    lu[0] = u[0] * 0.2;
}
void terminal_penalty_grad(const double *x, const double *p, const double *q, double *g)
{
    g[0] = x[0] * 2.0;
    g[1] = x[1] * 2.0;
}
void constraint_jac(const double *x, const double *u, const double *p, const double *q, double *Cx, double *Cu) {}
""",
    )


def cubic_rhs_jac(x, u, p):
    return (x * x * 3.0)[..., None], np.ones(x.shape + (1,))


def cubic_stage_cost_grad(x, u, p, q):
    return x * 2.0, u * 2.0


def cubic_constraint_jac(x, u, p, q):
    return np.ones(x.shape + (1,)), np.zeros(u.shape + (1,))


def cubic_problem() -> ProblemDefinition:
    """Plant xdot = x^3 + u, written with multiplications only, so that a
    pass from a large state overflows to inf (and on to NaN) as Python's
    floats do, without raising; constraint x <= 1.  Its value and
    derivative callbacks are in C too: one state, so that numpy multiplies
    the sensitivities by its scalar rule."""
    return ProblemDefinition(
        n_x=1,
        n_u=1,
        n_p=1,
        n_q=1,
        n_c=1,
        tau=0.1,
        u_min=[-10.0],
        u_max=[10.0],
        x_min=[-3.0],
        x_max=[3.0],
        q_min=[0.0],
        q_max=[0.0],
        p_nom=[0.0],
        p_std=[0.0],
        rhs=lambda x, u, p: (x[0] * x[0] * x[0] + u[0],),
        constraint_map=lambda x, u, p, q: (x[0] - 1.0,),
        stage_cost=lambda x, u, p, q: x[0] * x[0] + u[0] * u[0],
        terminal_penalty_base=lambda x, p, q: x[0] * x[0],
        rhs_jac=cubic_rhs_jac,
        stage_cost_grad=cubic_stage_cost_grad,
        terminal_penalty_grad=lambda x, p, q: x * 2.0,
        constraint_jac=cubic_constraint_jac,
        c_source="""
void rhs(const double *x, const double *u, const double *p, double *dx)
{
    dx[0] = x[0] * x[0] * x[0] + u[0];
}
double stage_cost(const double *x, const double *u, const double *p, const double *q)
{
    return x[0] * x[0] + u[0] * u[0];
}
void constraint_map(const double *x, const double *u, const double *p, const double *q, double *c)
{
    c[0] = x[0] - 1.0;
}
double terminal_penalty_base(const double *x, const double *p, const double *q)
{
    return x[0] * x[0];
}
void rhs_jac(const double *x, const double *u, const double *p, double *A, double *B)
{
    A[0] = x[0] * x[0] * 3.0;
    B[0] = 1.0;
}
void stage_cost_grad(const double *x, const double *u, const double *p, const double *q, double *lx, double *lu)
{
    lx[0] = x[0] * 2.0;
    lu[0] = u[0] * 2.0;
}
void terminal_penalty_grad(const double *x, const double *p, const double *q, double *g)
{
    g[0] = x[0] * 2.0;
}
void constraint_jac(const double *x, const double *u, const double *p, const double *q, double *Cx, double *Cu)
{
    Cx[0] = 1.0;
    Cu[0] = 0.0;
}
""",
    )


def clock_constraint(x, u, p, q):
    return (math.nan if 0.0 < x[1] < 0.15 else x[0] - 0.8,)


def clock_rhs_jac(x, u, p):
    lead = x.shape[:-1]
    B = np.zeros(lead + (2, 1))
    B[..., 0, 0] = 1.0
    return np.zeros(lead + (2, 2)), B


def clock_stage_cost_grad(x, u, p, q):
    lx = np.zeros(x.shape)
    lx[..., 0] = x[..., 0] * 2.0
    return lx, u * 2.0


def clock_constraint_jac(x, u, p, q):
    lead = x.shape[:-1]
    Cx = np.zeros(lead + (1, 2))
    Cx[..., 0, 0] = 1.0
    return Cx, np.zeros(lead + (1, 1))


def clock_problem() -> ProblemDefinition:
    """Plant xdot = (u, 1): a position and a clock, with tau = 0.1, costs on
    the position and the constraint x[0] <= 0.8, whose value is NaN while
    the clock lies strictly between 0 and 0.15.  From a clock of 0, a closed
    loop's first update reads NaN only on its fine state at 0.1; with kappa
    = 2, a prediction period ends at 0.2 at the earliest, so no solve reads
    it.  Its callbacks are in C too."""
    return ProblemDefinition(
        n_x=2,
        n_u=1,
        n_p=1,
        n_q=1,
        n_c=1,
        tau=0.1,
        u_min=[-2.0],
        u_max=[2.0],
        x_min=[-1.0, 0.0],
        x_max=[1.0, 0.0],
        q_min=[0.0],
        q_max=[0.0],
        p_nom=[0.0],
        p_std=[0.0],
        rhs=lambda x, u, p: (u[0], 1.0),
        constraint_map=clock_constraint,
        stage_cost=lambda x, u, p, q: x[0] * x[0] + u[0] * u[0],
        terminal_penalty_base=lambda x, p, q: x[0] * x[0],
        rhs_jac=clock_rhs_jac,
        stage_cost_grad=clock_stage_cost_grad,
        terminal_penalty_grad=lambda x, p, q: np.array([x[0] * 2.0, 0.0]),
        constraint_jac=clock_constraint_jac,
        c_source="""
void rhs(const double *x, const double *u, const double *p, double *dx)
{
    dx[0] = u[0];
    dx[1] = 1.0;
}
double stage_cost(const double *x, const double *u, const double *p, const double *q)
{
    return x[0] * x[0] + u[0] * u[0];
}
void constraint_map(const double *x, const double *u, const double *p, const double *q, double *c)
{
    c[0] = 0.0 < x[1] && x[1] < 0.15 ? NAN : x[0] - 0.8;
}
double terminal_penalty_base(const double *x, const double *p, const double *q)
{
    return x[0] * x[0];
}
void rhs_jac(const double *x, const double *u, const double *p, double *A, double *B)
{
    A[0] = A[1] = A[2] = A[3] = 0.0;
    B[0] = 1.0;
    B[1] = 0.0;
}
void stage_cost_grad(const double *x, const double *u, const double *p, const double *q, double *lx, double *lu)
{
    lx[0] = x[0] * 2.0;
    lx[1] = 0.0;
    lu[0] = u[0] * 2.0;
}
void terminal_penalty_grad(const double *x, const double *p, const double *q, double *g)
{
    g[0] = x[0] * 2.0;
    g[1] = 0.0;
}
void constraint_jac(const double *x, const double *u, const double *p, const double *q, double *Cx, double *Cu)
{
    Cx[0] = 1.0;
    Cx[1] = 0.0;
    Cu[0] = 0.0;
}
""",
    )


def point_pvtol_rhs_jac(x, u, p):
    """PVTOL's Jacobians at one point, written with math.sin and math.cos: a
    callback that indexes x[2] and so cannot take stacked points."""
    s, c = math.sin(x[2]), math.cos(x[2])
    u1 = float(u[0])
    p1 = float(p[0])
    p1u2 = p1 * float(u[1])
    A = np.zeros((6, 6))
    A[0, 3] = A[1, 4] = A[2, 5] = 1.0
    A[3, 2] = -u1 * c - p1u2 * s
    A[4, 2] = -u1 * s + p1u2 * c
    B = np.zeros((6, 2))
    B[3, 0] = -s
    B[3, 1] = p1 * c
    B[4, 0] = c
    B[4, 1] = p1 * s
    B[5, 1] = p[1]
    return A, B


def point_pvtol_stage_cost_grad(x, u, p, q):
    """PVTOL's stage-cost gradient at one point, component by component: a
    callback that reads float(x[0]) and so cannot take stacked points."""
    dx = [float(x[0]) - float(q[0]), float(x[1]) - float(q[1])] + [float(v) for v in x[2:]]
    du = [float(u[0]) - 1.0, float(u[1]) - 0.0]
    lx = np.array([d * (2.0 * w) for d, w in zip(dx, (1.0e3, 1.0e3, 1.0e3, 1.0, 1.0, 1.0))])
    lu = np.array([d * (2.0 * w) for d, w in zip(du, (0.1, 0.1))])
    return lx, lu


def point_pvtol_constraint_jac(x, u, p, q):
    """PVTOL's constraint Jacobians at one point: constant, of shapes (4, 6)
    and (4, 2) whatever x is."""
    Cx = np.zeros((4, 6))
    Cx[0, 5] = 1.0
    Cx[1, 5] = -1.0
    Cx[2, 2] = 1.0
    Cx[3, 2] = -1.0
    return Cx, np.zeros((4, 2))


def reference_pvtol_stage_cost(x, u, p, q):
    """PVTOL's stage cost as it read with float() on every array entry."""
    d0 = float(x[0]) - float(q[0])
    d1 = float(x[1]) - float(q[1])
    d2, d3, d4, d5 = float(x[2]), float(x[3]), float(x[4]), float(x[5])
    e0 = float(u[0]) - 1.0
    e1 = float(u[1])
    return (
        1.0e3 * d0 * d0 + 1.0e3 * d1 * d1 + 1.0e3 * d2 * d2
        + 1.0 * d3 * d3 + 1.0 * d4 * d4 + 1.0 * d5 * d5
        + 0.1 * e0 * e0 + 0.1 * e1 * e1
    )


def reference_pvtol_constraints(x, u, p, q):
    """PVTOL's constraint map as it read on numpy scalars."""
    return np.array([x[5] - q[2], -x[5] - q[2], x[2] - q[3], -x[2] - q[3]])


def stub_report(
    solver_times,
    open_loop_costs=None,
    max_violations=None,
    tau_u: float = 0.1,
    diverged: bool = False,
    closed_loop_cost: float = 1.0,
    stopped_at: int | None = None,
) -> ClosedLoopReport:
    st = np.asarray(solver_times, dtype=float)
    m = st.size
    ol = np.asarray(open_loop_costs, dtype=float) if open_loop_costs is not None else np.ones(m)
    mv = np.asarray(max_violations, dtype=float) if max_violations is not None else -np.ones(m)
    return ClosedLoopReport(
        solver_times=st,
        open_loop_costs=ol,
        max_violations=mv,
        closed_loop_cost=math.inf if diverged or stopped_at is not None else closed_loop_cost,
        m=m,
        tau_u=tau_u,
        states=np.zeros((m + 1, 1)),
        inputs=np.zeros((m, 1)),
        diverged=diverged,
        diverged_at=0 if diverged else None,
        n_solves=m if stopped_at is None else stopped_at + 1,
        stopped_at=stopped_at,
    )


@pytest.fixture
def fresh_build(tmp_path, monkeypatch):
    """An empty library cache and a process that has loaded nothing yet;
    returns a function listing the pids of the processes that compiled a
    library, the sensitivity recurrence unless another stem is named.  The
    log is a file, so that forked workers would add to it too."""
    if shutil.which(compiled.CC) is None:
        pytest.skip("no C compiler")
    log = tmp_path / "compiles"
    real = compiled._compile

    def logged(cc, args, text, path):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {path.name.split('-')[0]}\n")
        real(cc, args, text, path)

    def compiles(stem="sensitivity"):
        lines = log.read_text().splitlines() if log.exists() else []
        return [int(pid) for pid, built in map(str.split, lines) if built == stem]

    monkeypatch.setattr(compiled, "_compile", logged)
    monkeypatch.setattr(compiled, "CACHE", tmp_path / "cache")
    monkeypatch.setattr(compiled, "_verdicts", {})
    compiled.load.cache_clear()
    yield compiles
    compiled.load.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20250814)


# verdict lines recorded by the acceptance criteria; echoed after the test
# summary so they are visible without -s
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
