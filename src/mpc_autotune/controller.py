"""NMPC controller: single-shooting objective, projected-gradient solver,
and receding-horizon closed-loop simulation.

The decision vector z stacks n_contr input blocks; the remaining
N_pred - n_contr horizon periods reuse the last block.  The objective is

    sum_j l(x_j, u_j) * tau_u  +  rho_f * Psi(x_N)
        + rho_constr * sum_j sum_i max(0, c_i(x_j, u_{j-1})) * tau_u

with states advanced on the prediction grid.  Gradients are exact (up to the
chosen Jacobians) via forward sensitivity propagation through the RK4 stages;
the constraint penalty uses subgradient 0 at its kink.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, fields

import numpy as np

from . import compiled
from .design import DesignVector
from .integration import PropagationError, floats, hold_input, n_steps_for
from .problems import ProblemDefinition, Scenario

Array = np.ndarray

ARMIJO_SLOPE = 1.0e-4
G_TOL = 1.0e-8  # a projected gradient no larger ends the descent
BACKTRACK_SHRINK = 0.5
MAX_BACKTRACKS = 40
WORK_PER_RK_STEP = 4  # RK4 stage evaluations per step


@dataclass(frozen=True)
class TimingSpec:
    """How solver_time is obtained.

    "wallclock" measures each solve with a monotonic clock (repeats > 1 re-runs
    the solve and takes the median time).  "cost-model" charges c_eval seconds
    per RK stage evaluation, which is deterministic and machine-independent.
    """

    mode: str = "wallclock"
    c_eval: float | None = None
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("wallclock", "cost-model"):
            raise ValueError(f"timing mode must be 'wallclock' or 'cost-model', got {self.mode!r}")
        if not self.repeats >= 1:
            raise ValueError(f"timing repeats must be >= 1, got {self.repeats!r}")
        if self.c_eval is not None and not self.c_eval > 0.0:
            raise ValueError(f"c_eval must be positive, got {self.c_eval!r}")


@dataclass(frozen=True)
class MpcSetting:
    """A problem paired with one realized design and its prediction grid:
    the updating period tau_u, subdivided into n_steps prediction substeps."""

    problem: ProblemDefinition
    design: DesignVector
    tau_u: float
    n_steps: int

    @classmethod
    def from_design(cls, problem: ProblemDefinition, design: DesignVector) -> "MpcSetting":
        return cls(problem, design, design.tau_u(problem.tau), n_steps_for(design.mu_d, design.kappa))

    @property
    def tau_p(self) -> float:
        """Length of one prediction substep."""
        return self.tau_u / self.n_steps

    def z_bounds(self) -> tuple[Array, Array]:
        n = self.design.n_contr
        return np.tile(self.problem.u_min, n), np.tile(self.problem.u_max, n)

    def default_warm_start(self) -> Array:
        prob = self.problem
        u0 = prob.u_trim if prob.u_trim is not None else 0.5 * (prob.u_min + prob.u_max)
        return np.tile(u0, self.design.n_contr)


@dataclass
class OpenLoopResult:
    """Outcome of one OCP solve."""

    z_opt: Array
    cost: float
    iterations_used: int
    solver_time: float
    work_units: int
    diverged: bool = False


@dataclass
class ClosedLoopReport:
    """Per-update records of one receding-horizon simulation.

    A simulation given a real-time budget stops at the first update whose
    solve overruns it: stopped_at names that update, whose solver time is
    recorded, and every other per-update entry from it on reads +inf, as
    after a divergence.  The closed-loop cost of a diverged or stopped
    simulation reads +inf.
    """

    solver_times: Array
    open_loop_costs: Array
    max_violations: Array
    closed_loop_cost: float
    m: int
    tau_u: float
    states: Array
    inputs: Array
    diverged: bool
    diverged_at: int | None
    n_solves: int
    stopped_at: int | None = None

    def to_json_dict(self) -> dict:
        """Every field, arrays as nested lists."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
        return out


def budget_excess(t, budget: float):
    """Relative overshoot t / budget - 1 of a solver time (or an array of
    them) past the real-time budget; positive means an overrun.  The
    certification's real-time test and the early stop both read this one
    expression, so they cannot disagree on a time one ulp past the budget.
    """
    return t / budget - 1.0


def shift_warm_start(z: Array, n_u: int) -> Array:
    """Receding-horizon shift: drop the first block, duplicate the last."""
    return np.concatenate([z[n_u:], z[-n_u:]])


def _cost_pass(setting: MpcSetting, x: Array, p: Array, q: Array, z: Array) -> tuple[float, int, tuple]:
    """Objective value, the number of RK steps spent, and the pass record.

    Returns inf on divergence.  The pass up to the terminal penalty is
    compiled.python_pass.  The terminal penalty is one call on the final
    state as a tuple of floats, and a non-finite final state diverges too.
    The record is (states, mask) as python_pass describes them; a gradient
    pass over the same decision vector reuses both.
    """
    prob, design = setting.problem, setting.design
    cost, steps, states, mask = compiled.python_pass(
        prob, x, p, q, z, design.n_pred, design.n_contr, setting.n_steps, setting.tau_p, setting.tau_u,
        design.rho_constr,
    )
    if math.isfinite(cost):
        xt = tuple(states[-1].tolist())
        cost += design.rho_f * prob.terminal_penalty_base(xt, floats(p), floats(q))
        if not (math.isfinite(cost) and all(map(math.isfinite, xt))):
            cost = math.inf
    return cost, steps, (states, mask)


def open_loop_cost(setting: MpcSetting, x: Array, p: Array, q: Array, z: Array) -> float:
    """Single-shooting objective of the decision vector z from state x."""
    return _cost_pass(setting, np.asarray(x, dtype=float), p, q, np.asarray(z, dtype=float))[0]


def _grad_pass(setting: MpcSetting, p: Array, q: Array, z: Array, record: tuple) -> Array:
    """Exact gradient of the objective via forward sensitivities.

    record must come from a finite cost pass at the same state and decision
    vector.  The sum of every term but the terminal one, and the
    sensitivity S = dx/dz at the end of the horizon, come from
    compiled.python_grad_pass.  The terminal term rho_f * (terminal_grad @ S)
    is one call, added last, as the last step of python_grad_pass's ordered
    sum.
    """
    states, mask = record
    prob, design = setting.problem, setting.design
    out = compiled.python_grad_pass(
        prob, states, mask, p, q, z, design.n_pred, design.n_contr, setting.n_steps, setting.tau_p, setting.tau_u,
        design.rho_constr,
    )
    return out[0] + design.rho_f * (prob.terminal_grad(states[-1], p, q) @ out[1:])


def open_loop_gradient(setting: MpcSetting, x: Array, p: Array, q: Array, z: Array) -> Array:
    """Gradient of the single-shooting objective with respect to z.

    Entries are NaN where the objective itself is not finite.
    """
    z = np.asarray(z, dtype=float)
    cost, _, record = _cost_pass(setting, np.asarray(x, dtype=float), p, q, z)
    if not math.isfinite(cost):
        return np.full(z.size, math.nan)
    return _grad_pass(setting, p, q, z, record)


def _descend(
    setting: MpcSetting,
    x: Array,
    p: Array,
    q: Array,
    z: Array,
    z_lo: Array,
    z_hi: Array,
    c_eval: float | None,
    budget: float | None,
) -> tuple[Array, float, int, int, bool]:
    """Projected-gradient descent with Armijo backtracking inside the input box.

    Returns (z_best, cost_best, iterations_used, rk_steps, diverged).  The
    best-ever iterate is returned, so the result never degrades z, which
    must lie in the box.  Given a budget, the modelled time c_eval times the
    work so far is tested against it between passes; once past it, the
    descent returns the best iterate so far.  This is the reference of
    compiled.solve_for's compiled solve, and runs where that is None.
    """
    total_steps = 0

    def over_budget() -> bool:
        return budget is not None and budget_excess(c_eval * (WORK_PER_RK_STEP * total_steps), budget) > 0.0

    cost, steps, record = _cost_pass(setting, x, p, q, z)
    total_steps += steps
    if not math.isfinite(cost):
        return z, math.inf, 0, total_steps, True

    best_z, best_cost = z, cost
    span = float(np.max(z_hi - z_lo))
    step_size: float | None = None
    iterations = 0

    for _ in range(setting.design.max_iter):
        if over_budget():
            return best_z, best_cost, iterations, total_steps, False
        # record always describes the trajectory of the current iterate z
        grad = _grad_pass(setting, p, q, z, record)
        total_steps += setting.design.n_pred * setting.n_steps
        if not np.all(np.isfinite(grad)):
            break
        projected = z - np.clip(z - grad, z_lo, z_hi)
        if float(np.max(np.abs(projected))) <= G_TOL:
            break
        iterations += 1

        if step_size is None:
            gmax = float(np.max(np.abs(grad)))
            s = span / gmax if gmax > 0.0 else 1.0
        else:
            s = 2.0 * step_size

        accepted = False
        for _ in range(MAX_BACKTRACKS):
            if over_budget():
                return best_z, best_cost, iterations, total_steps, False
            z_try = np.clip(z - s * grad, z_lo, z_hi)
            d = z_try - z
            if float(np.max(np.abs(d))) == 0.0:
                break
            cost_try, steps, try_record = _cost_pass(setting, x, p, q, z_try)
            total_steps += steps
            if math.isfinite(cost_try) and cost_try <= cost + ARMIJO_SLOPE * float(grad @ d):
                accepted = True
                break
            s *= BACKTRACK_SHRINK
        if not accepted:
            break  # same iterate would fail the same search again

        z, cost, step_size, record = z_try, cost_try, s, try_record
        if cost < best_cost:
            best_z, best_cost = z, cost

    return best_z, best_cost, iterations, total_steps, False


def solve(
    setting: MpcSetting,
    x: Array,
    p: Array,
    q: Array,
    z0: Array,
    timing: TimingSpec,
    budget: float | None = None,
) -> OpenLoopResult:
    """Solve one OCP from the warm start z0, clipped into the input box, and
    time it according to the TimingSpec.

    The descent is the problem's compiled solve where compiled.solve_for
    gives one, else _descend, with the same bytes.  A wallclock solve runs
    the descent timing.repeats times, each to its end, and reports the
    median time.  A cost-model solve runs it once and reports c_eval times
    its work.  Given a real-time budget, a cost-model solve stops between
    passes as soon as its modelled time is past the budget.  The modelled
    time only grows with the work, so the solve run to its end would overrun
    too; the time returned still does, and a solve within the budget is
    unchanged.  The cut falls between whole RK steps, so work_units still
    counts the stage evaluations made.
    """
    x = np.asarray(x, dtype=float)
    z_lo, z_hi = setting.z_bounds()
    z = np.clip(np.asarray(z0, dtype=float), z_lo, z_hi)
    c_eval = timing.c_eval
    repeats = timing.repeats
    if timing.mode == "cost-model":
        if c_eval is None:
            raise ValueError("cost-model timing requires c_eval")
        repeats = 1
    else:
        budget = None  # a wallclock solve runs to its end
    descend = compiled.solve_for(setting.problem) or _descend

    times = []
    # divergent trial trajectories are expected and handled; keep them quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(repeats):  # every repeat returns the same result
            t0 = time.perf_counter()
            z_opt, cost, iters, rk_steps, diverged = descend(setting, x, p, q, z, z_lo, z_hi, c_eval, budget)
            times.append(time.perf_counter() - t0)
    work = WORK_PER_RK_STEP * rk_steps
    solver_time = c_eval * work if timing.mode == "cost-model" else statistics.median(times)
    return OpenLoopResult(z_opt, cost, iters, solver_time, work, diverged)


def update_count(duration: float, tau_u: float) -> int:
    """Number of controller updates covering the duration (slack-guarded ceil)."""
    return max(1, math.ceil(duration / tau_u - 1.0e-9))


def simulate_closed_loop(
    setting: MpcSetting,
    scenario: Scenario,
    timing: TimingSpec,
    z0: Array | None = None,
    budget: float | None = None,
) -> ClosedLoopReport:
    """Receding-horizon simulation of one scenario.

    The plant always advances at the problem's sampling period tau; the input
    is held for kappa fine steps between updates.  Warm starts shift the
    previous solution by one block.  The stage cost and the constraint map
    get x, u, p and q as tuples of floats, as in a cost pass.  On solver or
    plant divergence the report is flagged and the remaining per-update
    entries read +inf.  Given a real-time budget, the simulation stops at
    the first update whose solve overruns it (see ClosedLoopReport); the
    solve gets the budget too.
    """
    prob, design = setting.problem, setting.design
    kappa, tau, tau_u = design.kappa, prob.tau, setting.tau_u
    p, q = scenario.p, scenario.q
    pt, qt = tuple(p.tolist()), tuple(q.tolist())
    m = update_count(scenario.duration, tau_u)

    solver_times = np.full(m, math.inf)
    ol_costs = np.full(m, math.inf)
    max_viols = np.full(m, math.inf)
    states = np.full((m * kappa + 1, prob.n_x), math.nan)
    inputs = np.full((m, prob.n_u), math.nan)

    states[0] = scenario.x0
    z_warm = setting.default_warm_start() if z0 is None else np.asarray(z0, dtype=float)
    cl_cost = 0.0
    n_solves = 0
    diverged_at: int | None = None
    stopped_at: int | None = None

    for k in range(m):
        rows = states[k * kappa : (k + 1) * kappa + 1]
        x = rows[0]
        result = solve(setting, x, p, q, z_warm, timing, budget=budget)
        n_solves += 1
        if result.diverged:
            diverged_at = k
            break
        solver_times[k] = result.solver_time
        if budget is not None and budget_excess(result.solver_time, budget) > 0.0:
            stopped_at = k
            break
        ol_costs[k] = result.cost
        u = result.z_opt[: prob.n_u].copy()
        inputs[k] = u
        ut = tuple(u.tolist())
        cl_cost += prob.stage_cost(tuple(x.tolist()), ut, pt, qt) * tau_u

        try:
            hold_input(prob.rhs, rows, u, p, tau)
        except PropagationError:
            diverged_at = k
            break
        if prob.n_c:
            max_viols[k] = max(np.max(prob.constraint_map(tuple(row), ut, pt, qt)) for row in rows.tolist())
        else:
            max_viols[k] = 0.0
        z_warm = shift_warm_start(result.z_opt, prob.n_u)

    diverged = diverged_at is not None
    return ClosedLoopReport(
        solver_times=solver_times,
        open_loop_costs=ol_costs,
        max_violations=max_viols,
        closed_loop_cost=math.inf if diverged or stopped_at is not None else cl_cost,
        m=m,
        tau_u=tau_u,
        states=states,
        inputs=inputs,
        diverged=diverged,
        diverged_at=diverged_at,
        n_solves=n_solves,
        stopped_at=stopped_at,
    )


def calibrate_c_eval(problem: ProblemDefinition, n: int = 20000) -> float:
    """Seconds per RK stage evaluation, measured by timing whole solves on
    the path solves take, compiled or in Python, on a fixed nominal setting:
    a mid-range design from the midpoints of the state and exogenous boxes,
    at p_nom and the default warm start.  About n stage evaluations are timed."""
    design = DesignVector(kappa=4, mu_d=0.5, n_pred=10, n_contr=3, rho_f=10.0, rho_constr=1.0e4, max_iter=10)
    setting = MpcSetting.from_design(problem, design)
    x, q = 0.5 * (problem.x_min + problem.x_max), 0.5 * (problem.q_min + problem.q_max)
    z = setting.default_warm_start()
    timing = TimingSpec("cost-model", c_eval=1.0)  # no clock inside the timed solves
    # warm any lazy setup, the compiled solve's among it; every solve does this work
    work = solve(setting, x, problem.p_nom, q, z, timing).work_units
    solves = max(1, round(n / work))
    t0 = time.perf_counter()
    for _ in range(solves):
        solve(setting, x, problem.p_nom, q, z, timing)
    return (time.perf_counter() - t0) / (solves * work)
