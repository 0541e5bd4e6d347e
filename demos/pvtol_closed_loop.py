"""Fly one PVTOL scenario under the receding-horizon controller.

Draws a single certification scenario (initial state, physical parameters,
set point), realizes a mid-dial controller setting, and walks the closed
loop, printing the per-update solver effort, open-loop cost, and worst
constraint violation.  The three admissibility excesses are reported at the
end: a setting is admissible when the real-time and contraction excesses are
zero and the violation excess stays below the tolerance.
"""

import numpy as np

from mpc_autotune.controller import MpcSetting, TimingSpec, simulate_closed_loop
from mpc_autotune.design import DesignBounds, ShapingVector, realize
from mpc_autotune.problems import generate_cloud
from mpc_autotune.pvtol import pvtol_problem
from mpc_autotune.tuning import constraint_excess, contraction_excess, rt_excess


def main() -> None:
    problem = pvtol_problem()
    scenario = generate_cloud(problem, 1, seed=42, duration=0.5)[0]

    bounds = DesignBounds(max_iter=(5, 40))
    design = realize(ShapingVector((1, 1, 1, 1, 1, 1, 1)), 0.6, bounds)
    setting = MpcSetting.from_design(problem, design)
    print("design:", design.as_dict())
    print(f"updating period {design.tau_u(problem.tau):.3f} s,"
          f" horizon {design.horizon(problem.tau):.3f} s")
    print("initial state:", np.array2string(scenario.x0, precision=3))
    print("set point:", np.array2string(scenario.q[:2], precision=3))
    print()

    timing = TimingSpec("cost-model", c_eval=1.0e-6)
    report = simulate_closed_loop(setting, scenario, timing)

    print("update  solver_time_s  open_loop_cost  max_violation")
    for k in range(report.m):
        print(
            f"{k:6d}  {report.solver_times[k]:13.6f}  {report.open_loop_costs[k]:14.4f}"
            f"  {report.max_violations[k]:13.6f}"
        )
    print()
    print(f"closed-loop cost: {report.closed_loop_cost:.6f}")
    print(f"real-time excess:   {rt_excess(report, setting.tau_u, 1.0):.6f}")
    print(f"contraction excess: {contraction_excess(report, 0.98):.6f}")
    print(f"violation excess:   {constraint_excess(report):.6f}")


if __name__ == "__main__":
    main()
