"""Fixed-design kernel probes, independent of any workload.

The plant is the default PVTOL problem on the first scenario of a fixed
cloud; the controller probes realize the all-ones shaping vector at dial
values 0, 0.5 and 1 under the default design bounds.  Each value is the
median over repeats.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

from mpc_autotune.controller import (
    MpcSetting,
    TimingSpec,
    calibrate_c_eval,
    open_loop_cost,
    open_loop_gradient,
    simulate_closed_loop,
    solve,
)
from mpc_autotune.design import DesignBounds, ShapingVector, realize
from mpc_autotune.integration import rk4_step
from mpc_autotune.problems import generate_cloud
from mpc_autotune.pvtol import pvtol_problem

ALPHAS = {"a0": 0.0, "a05": 0.5, "a1": 1.0}
TIMING = TimingSpec("cost-model", c_eval=1.0e-6)


def _median_time(fn, inner: int, repeats: int) -> float:
    """Median over repeats of the mean seconds per call of fn().  Loops of
    several calls get one untimed warm-up call first."""
    if inner > 1:
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


def run_probes() -> dict[str, float]:
    problem = pvtol_problem()
    scenario = generate_cloud(problem, 1, seed=0, duration=0.5)[0]
    x, p, q = scenario.x0, scenario.p, scenario.q
    u = problem.u_trim
    # PVTOL with its analytic derivatives removed: finite differences
    fd_problem = dataclasses.replace(
        problem, rhs_jac=None, stage_cost_grad=None, terminal_penalty_grad=None, constraint_jac=None
    )

    out = {
        "pvtol.rhs_us": 1e6 * _median_time(lambda: problem.rhs(x, u, p), 2000, 5),
        "pvtol.rhs_jac_us": 1e6 * _median_time(lambda: problem.rhs_jac(x, u, p), 2000, 5),
        "problems.fd_jac_us": 1e6 * _median_time(lambda: fd_problem.rhs_jacobians(x, u, p), 500, 5),
        "integration.rk4_step_us": 1e6 * _median_time(lambda: rk4_step(problem.rhs, x, u, p, problem.tau), 500, 5),
    }
    ones = ShapingVector((1,) * 7)
    bounds = DesignBounds()
    for tag, alpha in ALPHAS.items():
        setting = MpcSetting.from_design(problem, realize(ones, alpha, bounds))
        z = setting.default_warm_start()
        out[f"controller.cost_ms.{tag}"] = 1e3 * _median_time(lambda: open_loop_cost(setting, x, p, q, z), 5, 3)
        out[f"controller.grad_ms.{tag}"] = 1e3 * _median_time(lambda: open_loop_gradient(setting, x, p, q, z), 5, 3)
        out[f"controller.solve_ms.{tag}"] = 1e3 * _median_time(lambda: solve(setting, x, p, q, z, TIMING), 1, 3)
        out[f"controller.sim_s.{tag}"] = _median_time(lambda: simulate_closed_loop(setting, scenario, TIMING), 1, 1)
    out["controller.calibrate_s"] = _median_time(lambda: calibrate_c_eval(problem), 1, 3)
    return out
