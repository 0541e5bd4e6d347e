import dataclasses
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mpc_autotune import (CertificationParams, DesignBounds, DesignVector, MpcSetting, Scenario, TimingSpec, compiled,
                          controller, pvtol_problem, sample_shaping, tune, tuning)
from mpc_autotune.controller import WORK_PER_RK_STEP, budget_excess
from mpc_autotune.problems import generate_cloud, make_batches
from conftest import cubic_problem, oscillator_problem

PVTOL = pvtol_problem()
GENTLE = pvtol_problem(x_sample_min=(-1.0, -1.0, -0.25, -0.2, -0.2, -0.2),
                       x_sample_max=(1.0, 1.0, 0.25, 0.2, 0.2, 0.2))
GENTLE_BOUNDS = DesignBounds(kappa=(2, 10), mu_d=(0.0, 1.0), n_pred=(8, 20), n_contr=(1, 3), rho_f=(1.0, 30.0),
                             rho_constr=(1.0e3, 1.0e5), max_iter=(20, 45), rho_log_space=True)


def compiled_solve(prob):
    run = compiled._bind_solve(prob)
    if run is None:
        pytest.skip("the compiled solve cannot be built here")
    return run[0]


def compiled_loop(prob):
    run = compiled._bind_solve(prob)
    if run is None:
        pytest.skip("the compiled loop cannot be built here")
    return run[1]


def capture(problem, bounds, seed):
    """The arguments and results of every solve and of every closed-loop
    simulation of a three-candidate tuning run on one batch of three
    scenarios, as the desk (default bounds) and gentle (GENTLE and its
    bounds) workloads make them, and the unique angles of the stage points
    of every tenth cost pass; the run's solves and loops run in Python."""
    solves, sims, angles = [], [], []
    descend, python_pass, simulate = controller._descend, compiled.python_pass, tuning.simulate_closed_loop

    def recording_descend(*args):
        result = descend(*args)
        solves.append((args, result))
        return result

    def recording_pass(*args):
        out = python_pass(*args)
        angles.append(out[2][:, 2])
        return out

    def recording_simulate(setting, scenario, timing, z0=None, budget=None):
        report = simulate(setting, scenario, timing, z0, budget)
        sims.append(((setting, scenario, timing, z0, budget), report))
        return report

    with pytest.MonkeyPatch.context() as m:
        m.setattr(compiled, "solve_for", lambda problem: None)
        m.setattr(controller, "_descend", recording_descend)
        m.setattr(compiled, "python_pass", recording_pass)
        m.setattr(tuning, "simulate_closed_loop", recording_simulate)
        rng = np.random.default_rng(seed)
        scenarios = generate_cloud(problem, 3, seed, duration=0.5)
        tune(problem, [sample_shaping(rng) for _ in range(3)], make_batches(scenarios, 1, 3), bounds,
             CertificationParams(gamma=0.98, eps=0.5, dev_acc=1.0, c_max=0.1), TimingSpec("cost-model", c_eval=1e-6))
    return solves, sims, np.unique(np.concatenate(angles[::10]))


@pytest.fixture(scope="module")
def captured():
    return {"desk": capture(PVTOL, DesignBounds(), 7), "gentle": capture(GENTLE, GENTLE_BOUNDS, 7)}


def test_compiled_solve_equals_the_python_solve_on_captured_solves(captured):
    fast = compiled_solve(PVTOL)
    for workload, (solves, _, _) in captured.items():
        seen = {"cap hit": 0, "budget cut": 0, "within the budget": 0, "one block": 0, "several blocks": 0}
        for args, want in solves:
            setting, c_eval, budget = args[0], args[-2], args[-1]
            assert compiled._same(want, fast(*args))
            seen["cap hit"] += want[2] == setting.design.max_iter
            cut = budget_excess(c_eval * WORK_PER_RK_STEP * want[3], budget) > 0.0
            seen["budget cut" if cut else "within the budget"] += 1
            seen["one block" if setting.design.n_contr == 1 else "several blocks"] += 1
        assert len(solves) > 100 and all(seen.values()), (workload, seen)


def python_loop(args):
    """controller._simulate's Python loop, its solves on _descend."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(compiled, "solve_for", lambda problem: None)
        return controller._simulate(*args, None)


def count_loop(seen, args, report):
    """Count the cases a closed loop shows: kappa > 1, an active constraint,
    a budget stop at the first update or later, a solver or a plant
    divergence, a run to the end, and a warm start given or not."""
    seen["kappa > 1"] += args[0].design.kappa > 1
    seen["active"] += bool(np.any(report.max_violations[np.isfinite(report.max_violations)] > 0.0))
    if report.stopped_at is not None:
        seen["stop at 0" if report.stopped_at == 0 else "stop later"] += 1
    elif report.diverged:
        seen["solver diverged" if np.isinf(report.solver_times[report.diverged_at]) else "plant diverged"] += 1
    else:
        seen["to the end"] += 1
    seen["z0 given" if args[3] is not None else "default z0"] += 1


def test_compiled_loop_equals_the_python_loop_on_captured_simulations(captured):
    # every field of every report, byte for byte, on the tuning runs'
    # simulations, then on some of them from given warm starts
    loop = compiled_loop(PVTOL)
    seen = Counter()
    for workload, (_, sims, _) in captured.items():
        for args, want in sims:
            assert compiled._same(want, controller._simulate(*args, loop))
            count_loop(seen, args, want)
        assert len(sims) > 10, workload
    rng = np.random.default_rng(43)
    for args, _ in captured["desk"][1][::3]:
        setting, scenario, timing, _, budget = args
        given = (setting, scenario, timing, rng.uniform(*setting.z_bounds()), budget)
        assert compiled._same(python_loop(given), controller._simulate(*given, loop))
        seen["z0 given"] += 1
    assert all(seen[name] for name in ("kappa > 1", "active", "stop at 0", "stop later", "to the end", "z0 given")), seen


def random_loops(prob, rng, draws, x_scale):
    """Arguments of random closed loops of 1 to 4 updates: kappa of 1 to 4,
    1 to 5 prediction periods, states from the box scaled by x_scale, half
    of them from a given warm start and half of them with a budget of 2 to
    30 horizons of work."""
    timing = TimingSpec("cost-model", c_eval=1e-6)
    for _ in range(draws):
        n_pred = int(rng.integers(1, 6))
        design = DesignVector(kappa=int(rng.integers(1, 5)), mu_d=float(rng.choice((0.0, rng.uniform()))), n_pred=n_pred,
                              n_contr=int(rng.integers(1, n_pred + 1)), rho_f=float(10.0 ** rng.uniform(0.0, 3.0)),
                              rho_constr=float(10.0 ** rng.uniform(0.0, 6.0)), max_iter=int(rng.integers(1, 16)))
        setting = MpcSetting.from_design(prob, design)
        scenario = Scenario(x_scale * rng.uniform(prob.x_min, prob.x_max),
                            prob.p_nom + prob.p_std * rng.standard_normal(prob.n_p), rng.uniform(prob.q_min, prob.q_max),
                            float(rng.integers(1, 5)) * setting.tau_u)
        z0 = rng.uniform(*setting.z_bounds()) if rng.random() < 0.5 else None
        horizons = rng.uniform(2.0, 30.0) if rng.random() < 0.5 else None
        budget = None if horizons is None else 1e-6 * WORK_PER_RK_STEP * n_pred * setting.n_steps * horizons
        yield setting, scenario, timing, z0, budget


@pytest.mark.parametrize("make, x_scale", [(oscillator_problem, 3.0), (cubic_problem, 1.0)], ids=["oscillator", "cubic"])
def test_compiled_loop_equals_the_python_loop_without_constraints_or_with_divergence(make, x_scale):
    # oscillator: n_c = 0, so every update's max_violations reads 0.0; cubic:
    # n_x = 1, and solves and plants that diverge
    prob = make()
    loop = compiled_loop(prob)
    loops = list(random_loops(prob, np.random.default_rng(44), 200, x_scale))
    if make is cubic_problem:
        # from these states one coarse prediction step stays finite where the
        # plant's fine steps overflow, at the first update or the second
        timing = TimingSpec("cost-model", c_eval=1e-6)
        for kappa in (2, 3, 4):
            setting = MpcSetting.from_design(prob, DesignVector(kappa=kappa, mu_d=0.0, n_pred=1, n_contr=1, rho_f=1.0,
                                                                rho_constr=1.0, max_iter=3))
            loops += [(setting, Scenario([x0], prob.p_nom, prob.q_min, 2 * setting.tau_u), timing, None, None)
                      for x0 in (1.5, 2.5, 3.0)]
    seen = Counter()
    for args in loops:
        with np.errstate(all="ignore"):
            want = python_loop(args)
            assert compiled._same(want, controller._simulate(*args, loop))
        count_loop(seen, args, want)
    diverged = ("solver diverged", "plant diverged")
    assert all((seen[name] > 5) == (make is cubic_problem) for name in diverged), seen
    assert all(seen[name] > 5 for name in ("kappa > 1", "stop at 0", "stop later", "to the end", "z0 given")), seen
    assert (seen["active"] > 5) == (prob.n_c > 0), seen


def test_numpy_sin_and_cos_are_libms_on_the_captured_angles(captured):
    # PVTOL's C rhs and rhs_jac call libm's sin and cos where pvtol_rhs_jac calls np.sin
    # and np.cos; a numpy with its own float64 sin would fail the self-check
    angles = np.unique(np.concatenate([found for _, _, found in captured.values()]))
    assert angles.size > 10_000
    listed = angles.tolist()
    assert np.sin(angles).tobytes() == np.array([math.sin(a) for a in listed]).tobytes()
    assert np.cos(angles).tobytes() == np.array([math.cos(a) for a in listed]).tobytes()


def random_solves(prob, rng, draws, x_scale, u_scale):
    """Arguments of random solves: tail periods, 1 to 4 steps per period,
    states and warm starts from their boxes scaled by x_scale and u_scale,
    penalty weights over three and six decades, up to 30 iterations, and
    half of them with a budget of 1 to 20 horizons of work."""
    for _ in range(draws):
        n_pred = int(rng.integers(1, 9))
        n_contr = int(rng.integers(1, n_pred + 1))
        rho_f, rho_constr = (float(10.0 ** rng.uniform(0.0, decades)) for decades in (3.0, 6.0))
        design = DesignVector(kappa=1, mu_d=0.0, n_pred=n_pred, n_contr=n_contr, rho_f=rho_f, rho_constr=rho_constr,
                              max_iter=int(rng.integers(1, 31)))
        n_steps = int(rng.integers(1, 5))
        setting = MpcSetting(prob, design, float(prob.tau * rng.integers(1, 11)), n_steps)
        z_lo, z_hi = setting.z_bounds()
        x = x_scale * rng.uniform(prob.x_min, prob.x_max)
        p = prob.p_nom + prob.p_std * rng.standard_normal(prob.n_p)
        q = rng.uniform(prob.q_min, prob.q_max)
        z = np.clip(u_scale * rng.uniform(z_lo, z_hi), z_lo, z_hi)
        budget = 1.0e-6 * WORK_PER_RK_STEP * n_pred * n_steps * rng.uniform(1.0, 20.0) if rng.random() < 0.5 else None
        yield setting, x, p, q, z, z_lo, z_hi, 1.0e-6, budget


@pytest.mark.parametrize("make, x_scale, u_scale", [(oscillator_problem, 3.0, 1.0), (cubic_problem, 0.5, 0.1)],
                         ids=["oscillator", "cubic"])
def test_compiled_grad_pass_equals_the_python_pass_on_one_input_or_one_state(make, x_scale, u_scale):
    # through whole solves, whose descent reads every gradient pass; oscillator:
    # n_u = 1, so one block gives n_z = 1, where numpy's matmul calls dot and its
    # .dot gemv; cubic: n_x = 1, numpy's scalar rule, and overflows
    prob = make()
    fast = compiled_solve(prob)
    seen = {"one column": 0, "several columns": 0, "iterated": 0, "active": 0, "diverged": 0}
    for args in random_solves(prob, np.random.default_rng(41), 300, x_scale, u_scale):
        with np.errstate(all="ignore"):
            want = controller._descend(*args)
            assert compiled._same(want, fast(*args))
            record = controller._cost_pass(*args[:5])[2]
        seen["one column" if args[4].size == 1 else "several columns"] += 1
        seen["iterated"] += want[2] > 0
        seen["active"] += bool(record[1].any())
        seen["diverged"] += want[4]
    assert seen["one column"] > 10 and seen["several columns"] > 100 and seen["iterated"] > 100, seen
    assert (seen["active"] > 10) == (prob.n_c > 0) and (seen["diverged"] > 10) == (make is cubic_problem), seen
    assert compiled.solve_for(prob) is not None


def test_the_grad_pass_needs_every_python_derivative(monkeypatch):
    # and so does the whole compiled solve: without one, it runs in Python,
    # decided without a self-check
    monkeypatch.setattr(compiled, "_verdicts", {})
    for name in ("rhs_jac", "stage_cost_grad", "terminal_penalty_grad", "constraint_jac"):
        assert compiled.solve_for(dataclasses.replace(PVTOL, **{name: None})) is None
    assert compiled.solve_for(dataclasses.replace(PVTOL, c_source=None)) is None
    assert compiled._verdicts == {}


OTHER_KERNEL_CHECK = """
import ctypes, json
import numpy as np
from numpy._core import _multiarray_umath
from mpc_autotune import DesignVector, MpcSetting, compiled, controller, pvtol_problem

corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
corename.argtypes, corename.restype = [], ctypes.c_char_p
problem = pvtol_problem()
fast = compiled._bind_solve(problem)[0]
rng = np.random.default_rng(2)
same = []
for n_contr in (1, 2, 5):
    design = DesignVector(kappa=3, mu_d=0.5, n_pred=8, n_contr=n_contr, rho_f=10.0, rho_constr=1.0e4, max_iter=10)
    setting = MpcSetting(problem, design, 0.03, 3)
    z_lo, z_hi = setting.z_bounds()
    args = (setting, rng.uniform(problem.x_min, problem.x_max), problem.p_nom, np.array([0.5, -0.5, 1.0, 0.5]),
            rng.uniform(-3.0, 3.0, 2 * n_contr), z_lo, z_hi, 1.0e-6, None)
    want = controller._descend(*args)
    same.append(want[2] > 0 and compiled._same(want, fast(*args)))
same.append(compiled.solve_for(problem) is not None)
print(json.dumps({"core": corename().decode(), "same": same}))
"""


def test_the_grad_self_check_passes_under_another_blas_kernel():
    """As test_the_self_check_passes_under_another_blas_kernel: the products
    of the compiled solve, its gradient passes' among them, follow numpy's
    kernel too."""
    compiled_solve(PVTOL)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pytest.skip("numpy does not report its BLAS build")
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip("numpy's BLAS is not an OpenBLAS built for several kernels")
    src = str(Path(compiled.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", OTHER_KERNEL_CHECK], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    result = json.loads(done.stdout)
    assert result["core"].lower() == "sandybridge"
    assert result["same"] == [True] * 4

