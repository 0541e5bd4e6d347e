import dataclasses
import json
import math

import numpy as np
import pytest

from mpc_autotune import (
    CertificationParams,
    ClosedLoopReport,
    DesignBounds,
    DesignVector,
    MpcSetting,
    Scenario,
    TimingSpec,
    WORK_PER_RK_STEP,
    budget_excess,
    calibrate_c_eval,
    open_loop_cost,
    open_loop_gradient,
    generate_cloud,
    make_batches,
    pvtol_problem,
    realize,
    sample_shaping,
    shift_warm_start,
    simulate_closed_loop,
    solve,
    tune,
    update_count,
)

from mpc_autotune import compiled, controller
from mpc_autotune.controller import _cost_pass, _grad_pass
from mpc_autotune.tuning import constraint_excess
from conftest import block_index, clock_problem, double_integrator_problem, integrator_problem, quadratic_problem

COST_TIMING = TimingSpec(mode="cost-model", c_eval=1.0e-6)
NO_PQ = (np.zeros(1), np.zeros(1))


def toy_setting(rho_f=2.0, rho_constr=10.0, n_pred=3, n_contr=2):
    design = DesignVector(
        kappa=1, mu_d=0.0, n_pred=n_pred, n_contr=n_contr,
        rho_f=rho_f, rho_constr=rho_constr, max_iter=10,
    )
    return MpcSetting.from_design(integrator_problem(tau=0.1), design)


# structure helpers --------------------------------------------------------------


def test_block_index_freezes_tail():
    assert [block_index(j, 2) for j in range(5)] == [0, 1, 1, 1, 1]
    assert [block_index(j, 1) for j in range(3)] == [0, 0, 0]


def test_shift_warm_start_blocks():
    z = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    np.testing.assert_array_equal(shift_warm_start(z, 2), [3.0, 4.0, 5.0, 6.0, 5.0, 6.0])
    np.testing.assert_array_equal(shift_warm_start(z, 3), [4.0, 5.0, 6.0, 4.0, 5.0, 6.0])


def test_setting_dimensions():
    setting = toy_setting()
    assert setting.default_warm_start().size == 2
    lo, hi = setting.z_bounds()
    np.testing.assert_array_equal(lo, [-10.0, -10.0])
    np.testing.assert_array_equal(hi, [10.0, 10.0])
    np.testing.assert_array_equal(setting.default_warm_start(), [0.0, 0.0])


def test_setting_grid_from_design():
    prob = pvtol_problem()
    design = DesignVector(kappa=5, mu_d=0.5, n_pred=10, n_contr=3,
                          rho_f=10.0, rho_constr=1e4, max_iter=10)
    setting = MpcSetting.from_design(prob, design)
    assert setting.tau_u == pytest.approx(0.05)
    assert setting.n_steps == 3  # ceil(1 + 0.5 * 4)
    assert setting.default_warm_start().size == 6


def test_timing_spec_validation():
    with pytest.raises(ValueError):
        TimingSpec(mode="stopwatch")
    with pytest.raises(ValueError):
        TimingSpec(mode="cost-model", c_eval=0.0)
    with pytest.raises(ValueError):
        TimingSpec(repeats=0)
    with pytest.raises(ValueError):
        TimingSpec(mode="cost-model", c_eval=math.nan)


# open-loop cost: frozen hand-computed values -------------------------------------


def test_open_loop_cost_interior_trajectory():
    # x: 0.5 -> 0.62 -> 0.58 -> 0.54, all below the 0.8 limit
    setting = toy_setting()
    J = open_loop_cost(setting, np.array([0.5]), *NO_PQ, np.array([1.2, -0.4]))
    assert J == pytest.approx(0.8562799999999998, abs=1e-14)


def test_open_loop_cost_with_active_penalties():
    # x: 0.7 -> 0.85 -> 0.94 -> 1.03, every post-step state violates x <= 0.8
    setting = toy_setting()
    J = open_loop_cost(setting, np.array([0.7]), *NO_PQ, np.array([1.5, 0.9]))
    assert J == pytest.approx(3.13841, abs=1e-14)


def test_open_loop_cost_scales_with_weights():
    z = np.array([1.5, 0.9])
    x0 = np.array([0.7])
    base = open_loop_cost(toy_setting(), x0, *NO_PQ, z)
    heavier = open_loop_cost(toy_setting(rho_constr=20.0), x0, *NO_PQ, z)
    # doubling rho_constr doubles the 0.42 penalty share
    assert heavier - base == pytest.approx(0.42, abs=1e-12)


def test_open_loop_cost_diverged_is_inf():
    exploding = integrator_problem()
    exploding.rhs = lambda x, u, p: np.array([x[0] ** 2 * 1e3 + 1.0])
    design = DesignVector(kappa=1, mu_d=0.0, n_pred=30, n_contr=1,
                          rho_f=1.0, rho_constr=1.0, max_iter=5)
    setting = MpcSetting.from_design(exploding, design)
    with np.errstate(over="ignore", invalid="ignore"):
        J = open_loop_cost(setting, np.array([2.0]), *NO_PQ, np.array([5.0]))
        g = open_loop_gradient(setting, np.array([2.0]), *NO_PQ, np.array([5.0]))
    assert math.isinf(J)
    assert g.shape == (1,)
    assert not np.all(np.isfinite(g))


def test_float_overflow_in_rhs_reads_as_divergence():
    # (1e100)^4 raises OverflowError on Python floats in the first stage
    overflowing = integrator_problem()
    overflowing.rhs = lambda x, u, p: (x[0] ** 4 + u[0],)
    design = DesignVector(kappa=3, mu_d=1.0, n_pred=4, n_contr=1,
                          rho_f=1.0, rho_constr=1.0, max_iter=5)
    setting = MpcSetting.from_design(overflowing, design)
    x0, z = np.array([1.0e100]), np.array([0.5])
    with np.errstate(over="ignore", invalid="ignore"):
        J = open_loop_cost(setting, x0, *NO_PQ, z)
        g = open_loop_gradient(setting, x0, *NO_PQ, z)
    assert math.isinf(J)
    assert g.shape == (1,)
    assert not np.all(np.isfinite(g))
    result = solve(setting, x0, *NO_PQ, z, COST_TIMING)
    assert result.diverged
    # the overflowing updating period is charged whole, like one ending in an inf state
    assert result.work_units == WORK_PER_RK_STEP * setting.n_steps


def test_a_nan_constraint_value_reads_as_divergence():
    # the penalty counts every value that is not <= 0, so a NaN poisons the cost
    # instead of being skipped as "not > 0"
    pvtol = pvtol_problem()
    nan_map = dataclasses.replace(pvtol, constraint_map=lambda x, u, p, q: (math.nan, -1.0, -1.0, -1.0))
    finite_map = dataclasses.replace(pvtol, constraint_map=lambda x, u, p, q: (-1.0, -1.0, -1.0, -1.0))
    design = DesignVector(kappa=3, mu_d=0.5, n_pred=6, n_contr=2, rho_f=10.0, rho_constr=1e4, max_iter=10)
    scenario = generate_cloud(pvtol, 1, seed=2, duration=0.5)[0]
    args = (scenario.x0, scenario.p, scenario.q)
    z = MpcSetting.from_design(pvtol, design).default_warm_start()
    assert math.isfinite(open_loop_cost(MpcSetting.from_design(finite_map, design), *args, z))
    setting = MpcSetting.from_design(nan_map, design)
    assert open_loop_cost(setting, *args, z) == math.inf
    result = solve(setting, *args, z, COST_TIMING)
    assert result.diverged and result.cost == math.inf
    # the first updating period ends in the NaN, and the pass stops there
    assert result.work_units == WORK_PER_RK_STEP * setting.n_steps


# gradient -------------------------------------------------------------------------


def test_gradient_matches_finite_differences_toy():
    setting = toy_setting()
    x0 = np.array([0.7])
    z = np.array([1.5, 0.9])
    g = open_loop_gradient(setting, x0, *NO_PQ, z)
    h = 1e-7
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (open_loop_cost(setting, x0, *NO_PQ, z + e)
              - open_loop_cost(setting, x0, *NO_PQ, z - e)) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_gradient_matches_finite_differences_pvtol(rng):
    prob = pvtol_problem()
    design = DesignVector(kappa=3, mu_d=0.5, n_pred=6, n_contr=2,
                          rho_f=10.0, rho_constr=1e4, max_iter=10)
    setting = MpcSetting.from_design(prob, design)
    q = np.array([0.3, -0.2, 1.0, 0.5])
    for _ in range(3):
        x0 = rng.uniform(-0.5, 0.5, size=6)
        z = rng.uniform(-2.0, 2.0, size=4)
        g = open_loop_gradient(setting, x0, prob.p_nom, q, z)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (open_loop_cost(setting, x0, prob.p_nom, q, z + e)
                  - open_loop_cost(setting, x0, prob.p_nom, q, z - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=5e-4, abs=1e-6)


def inplace_sens_step(prob, rec, u, p, h, S, cols, buf):
    """Reference sensitivity step through one recorded RK4 step, with the
    in-place operation order on scratch buffers the gradient pass must
    reproduce."""
    K1, K2, K3, K4, T = buf
    half = 0.5 * h
    x, x2, x3, x4, _ = rec
    A, B = prob.rhs_jacobians(x, u, p)
    np.matmul(A, S, out=K1)
    K1[:, cols] += B
    A, B = prob.rhs_jacobians(x2, u, p)
    np.multiply(K1, half, out=T)
    T += S
    np.matmul(A, T, out=K2)
    K2[:, cols] += B
    A, B = prob.rhs_jacobians(x3, u, p)
    np.multiply(K2, half, out=T)
    T += S
    np.matmul(A, T, out=K3)
    K3[:, cols] += B
    A, B = prob.rhs_jacobians(x4, u, p)
    np.multiply(K3, h, out=T)
    T += S
    np.matmul(A, T, out=K4)
    K4[:, cols] += B
    K2 += K3
    K1 += K4
    np.multiply(K2, 2.0, out=T)
    T += K1
    T *= h / 6.0
    S += T


def reference_gradient(setting, x, p, q, z):
    """Forward-sensitivity gradient built on inplace_sens_step."""
    cost, _, (states, _) = _cost_pass(setting, x, p, q, z)
    if not math.isfinite(cost):
        return np.full(z.size, math.nan)
    prob, design = setting.problem, setting.design
    tau_u, n_u = setting.tau_u, prob.n_u
    blocks = z.reshape(design.n_contr, n_u)
    grad = np.zeros(z.size)
    S = np.zeros((prob.n_x, z.size))
    buf = tuple(np.empty((prob.n_x, z.size)) for _ in range(5))
    states = np.array(states, dtype=float)  # x0, then (x2, x3, x4, x_next) per substep
    stage_states = iter([states[4 * k : 4 * k + 5] for k in range(len(states) // 4)])
    xj = x
    for j in range(design.n_pred):
        b = block_index(j, design.n_contr)
        cols = slice(b * n_u, (b + 1) * n_u)
        u = blocks[b]
        lx, lu = prob.stage_cost_grads(xj, u, p, q)
        grad += tau_u * (lx @ S)
        grad[cols] += tau_u * lu
        for _ in range(setting.n_steps):
            rec = next(stage_states)
            inplace_sens_step(prob, rec, u, p, setting.tau_p, S, cols, buf)
            xj = rec[4]
        c = np.asarray(prob.constraint_map(*(tuple(v.tolist()) for v in (xj, u, p, q))))
        active = np.flatnonzero(c > 0.0)
        if active.size:
            Cx, Cu = prob.constraint_jacobians(xj, u, p, q)
            scale = design.rho_constr * tau_u
            for i in active:
                grad += scale * (Cx[i] @ S)
                grad[cols] += scale * Cu[i]
    return grad + design.rho_f * (prob.terminal_grad(xj, p, q) @ S)


@pytest.fixture(params=["compiled", "numpy"])
def recurrence(request, monkeypatch):
    """Runs a test's gradient passes on the compiled sensitivity recurrence
    or on the numpy loop.  The verdicts start empty, so after the test
    compiled._verdicts holds a recurrence verdict for every size a pass ran,
    the compiled recurrence on the compiled path and numpy_recurrence on the
    numpy path."""
    if request.param == "numpy":
        monkeypatch.setattr(compiled, "_bind_recurrence", lambda: None)
    elif compiled._bind_recurrence() is None:
        pytest.skip("the compiled recurrence cannot be built here")
    monkeypatch.setattr(compiled, "_verdicts", {})
    return request.param


GRADIENT_CASES = {
    "analytic": (pvtol_problem(), DesignBounds(), 1000),
    "finite-difference": (dataclasses.replace(pvtol_problem(), rhs_jac=None), DesignBounds(), 100),
    # n_u = n_contr = 1, so n_z = 1: where a pairwise sum of the terms would differ;
    # with n_x = 1, numpy multiplies the sensitivities as scalars
    "single-input": (integrator_problem(), DesignBounds(n_contr=(1, 1)), 300),
    # n_z = 1 on two states: numpy multiplies with gemv, not gemm
    "single-input-gemv": (double_integrator_problem(), DesignBounds(n_contr=(1, 1)), 300),
}


@pytest.mark.parametrize(
    "prob, bounds, draws, recurrence",
    [
        pytest.param(*case, path, id=name if path == "compiled" else f"{name}-numpy")
        for path in ("compiled", "numpy")
        for name, case in GRADIENT_CASES.items()
    ],
    indirect=["recurrence"],
)
def test_gradient_matches_inplace_reference_bit_for_bit(prob, bounds, draws, recurrence):
    rng = np.random.default_rng(9)
    scenarios = generate_cloud(prob, 50, seed=9, duration=0.5)
    for n in range(draws):
        setting = MpcSetting.from_design(prob, realize(sample_shaping(rng), rng.uniform(), bounds))
        scenario = scenarios[n % len(scenarios)]
        lo, hi = setting.z_bounds()
        z = rng.uniform(lo, hi)
        args = (setting, scenario.x0, scenario.p, scenario.q, z)
        with np.errstate(over="ignore", invalid="ignore"):
            assert open_loop_gradient(*args).tobytes() == reference_gradient(*args).tobytes()
    verdicts = [found for key, found in compiled._verdicts.items() if key[0] == "sensitivity"]
    assert verdicts and all((found is compiled.numpy_recurrence) == (recurrence == "numpy") for found in verdicts)


def test_one_rhs_jac_call_per_gradient_pass():
    # on the Python gradient pass; a compiled pass calls the Python
    # derivatives only in its self-check (test_compiled_grad_passes_...)
    calls = []
    pvtol = pvtol_problem()

    def counting_rhs_jac(x, u, p):
        calls.append((x.shape, u.shape))
        return pvtol.rhs_jac(x, u, p)

    prob = dataclasses.replace(pvtol, rhs_jac=counting_rhs_jac, c_source=None)
    design = DesignVector(kappa=4, mu_d=0.5, n_pred=6, n_contr=3, rho_f=10.0, rho_constr=1e4, max_iter=10)
    setting = MpcSetting.from_design(prob, design)
    scenario = generate_cloud(prob, 1, seed=4, duration=0.5)[0]
    open_loop_gradient(setting, scenario.x0, scenario.p, scenario.q, setting.default_warm_start())
    n_points = 4 * design.n_pred * setting.n_steps
    assert setting.n_steps > 1
    assert calls == [((n_points, 6), (n_points, 2))]


def test_per_period_callbacks_are_called_once_per_gradient_pass():
    # on the Python gradient pass, as the test above
    pvtol = dataclasses.replace(pvtol_problem(), c_source=None)
    calls = {"stage_cost_grad": [], "constraint_map": [], "constraint_jac": []}

    def counting(name):
        def callback(x, u, p, q):
            calls[name].append(np.shape(x))
            return getattr(pvtol, name)(x, u, p, q)
        return callback

    prob = dataclasses.replace(pvtol, **{name: counting(name) for name in calls})
    assert compiled.solve_for(prob) is None
    design = DesignVector(kappa=4, mu_d=0.5, n_pred=6, n_contr=3, rho_f=10.0, rho_constr=1e4, max_iter=10)
    setting = MpcSetting.from_design(prob, design)
    scenario = generate_cloud(prob, 1, seed=4, duration=0.5)[0]
    rng = np.random.default_rng(5)
    lo, hi = setting.z_bounds()
    n_active_passes = 0
    for z in [setting.default_warm_start()] + [rng.uniform(lo, hi) for _ in range(20)]:
        cost, _, record = _cost_pass(setting, scenario.x0, scenario.p, scenario.q, z)
        assert math.isfinite(cost)
        for shapes in calls.values():
            shapes.clear()
        _grad_pass(setting, scenario.p, scenario.q, z, record)
        # the cost pass recorded the active constraints, so constraint_map is not called again
        active_periods = int(record[1].any(1).sum())
        assert calls == {"stage_cost_grad": [(design.n_pred, 6)], "constraint_map": [],
                         "constraint_jac": [(active_periods, 6)] if active_periods else []}
        n_active_passes += active_periods > 0
    assert 0 < n_active_passes < 21


# solver ---------------------------------------------------------------------------


def quadratic_setting(max_iter=50, u_span=10.0):
    design = DesignVector(kappa=1, mu_d=0.0, n_pred=1, n_contr=1,
                          rho_f=1.0, rho_constr=1.0, max_iter=max_iter)
    return MpcSetting.from_design(quadratic_problem(u_span), design)


def test_solver_reaches_quadratic_minimum():
    # J(u) = u^2 + (x0 + u)^2 has the closed-form minimizer u* = -x0/2
    setting = quadratic_setting()
    result = solve(setting, np.array([1.0]), *NO_PQ, np.array([0.0]), COST_TIMING)
    assert result.z_opt[0] == pytest.approx(-0.5, abs=1e-6)
    assert result.cost == pytest.approx(0.5, abs=1e-9)
    assert not result.diverged
    assert result.iterations_used <= 50


def test_solver_respects_box_bounds():
    # minimizer -0.5 lies outside the box [-0.2, 0.2]: the solve pins the face
    setting = quadratic_setting(u_span=0.2)
    result = solve(setting, np.array([1.0]), *NO_PQ, np.array([0.0]), COST_TIMING)
    assert result.z_opt[0] == pytest.approx(-0.2, abs=1e-9)


def test_solver_clips_infeasible_warm_start():
    setting = quadratic_setting(u_span=0.2)
    result = solve(setting, np.array([1.0]), *NO_PQ, np.array([5.0]), COST_TIMING)
    assert -0.2 - 1e-12 <= result.z_opt[0] <= 0.2 + 1e-12


def test_solver_never_worse_than_warm_start():
    setting = toy_setting()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x0 = rng.uniform(-1.0, 1.0, size=1)
        z0 = rng.uniform(-2.0, 2.0, size=2)
        J0 = open_loop_cost(setting, x0, *NO_PQ, z0)
        result = solve(setting, x0, *NO_PQ, z0, COST_TIMING)
        assert result.cost <= J0 + 1e-12
        assert result.cost == pytest.approx(
            open_loop_cost(setting, x0, *NO_PQ, result.z_opt), abs=1e-12
        )


def test_solver_iteration_cap():
    setting = quadratic_setting(max_iter=1)
    result = solve(setting, np.array([1.0]), *NO_PQ, np.array([0.0]), COST_TIMING)
    assert result.iterations_used <= 1


def test_stationary_start_costs_no_iterations():
    setting = quadratic_setting()
    result = solve(setting, np.array([0.0]), *NO_PQ, np.array([0.0]), COST_TIMING)
    assert result.iterations_used == 0
    assert result.z_opt[0] == 0.0


# timing modes ----------------------------------------------------------------------


def test_cost_model_time_is_work_times_c_eval():
    setting = toy_setting()
    result = solve(setting, np.array([0.5]), *NO_PQ, np.array([0.0, 0.0]), COST_TIMING)
    assert result.work_units > 0
    assert result.work_units % WORK_PER_RK_STEP == 0
    assert result.solver_time == pytest.approx(1.0e-6 * result.work_units, rel=1e-12)


def test_cost_model_requires_c_eval():
    setting = toy_setting()
    with pytest.raises(ValueError):
        solve(setting, np.array([0.5]), *NO_PQ, np.zeros(2), TimingSpec(mode="cost-model"))


def test_cost_model_is_deterministic():
    setting = toy_setting()
    r1 = solve(setting, np.array([0.5]), *NO_PQ, np.zeros(2), COST_TIMING)
    r2 = solve(setting, np.array([0.5]), *NO_PQ, np.zeros(2), COST_TIMING)
    assert r1.solver_time == r2.solver_time
    assert r1.work_units == r2.work_units
    np.testing.assert_array_equal(r1.z_opt, r2.z_opt)


def test_wallclock_time_is_positive_and_repeats_agree():
    setting = toy_setting()
    fast = solve(setting, np.array([0.5]), *NO_PQ, np.zeros(2), TimingSpec(mode="wallclock"))
    assert fast.solver_time > 0.0
    rep = solve(setting, np.array([0.5]), *NO_PQ, np.zeros(2),
                TimingSpec(mode="wallclock", repeats=3))
    np.testing.assert_array_equal(fast.z_opt, rep.z_opt)
    assert rep.cost == fast.cost


def count_rhs_calls(timing):
    # on the Python cost pass, where every cost pass calls rhs; a compiled
    # pass calls it only in its self-check (test_compiled_passes_...)
    prob, setting = pvtol_setting()
    prob.c_source = None
    calls = 0
    rhs = prob.rhs

    def counting_rhs(x, u, p):
        nonlocal calls
        calls += 1
        return rhs(x, u, p)

    prob.rhs = counting_rhs
    x0 = np.array([0.3, -0.2, 0.1, 0.0, 0.0, 0.0])
    solve(setting, x0, prob.p_nom, np.array([0.0, 0.0, 1.0, 0.5]), setting.default_warm_start(), timing)
    return calls


def test_cost_model_runs_once_and_wallclock_runs_each_repeat():
    once = count_rhs_calls(COST_TIMING)
    assert once > 0
    assert count_rhs_calls(TimingSpec("cost-model", c_eval=1.0e-6, repeats=3)) == once
    assert count_rhs_calls(TimingSpec("wallclock", repeats=3)) == 3 * once


def counting(counts, key, fn):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper


def test_compiled_passes_run_every_cost_pass_after_the_self_check(monkeypatch):
    # the one self-check runs the Python solve once per solve draw and once
    # per update of its closed-loop draws, and afterwards every solve, its
    # cost passes among them, is one compiled call; neither the Python solve,
    # the Python pass, rhs nor a Python callback of the objective runs again
    prob, setting = pvtol_setting()
    functions = compiled.load("passes", prob.c_source)
    if functions is None:
        pytest.skip("the compiled solve cannot be built here")
    callbacks = ("rhs", "rhs_jac", "stage_cost_grad", "constraint_jac", "terminal_penalty_base")
    counts = dict.fromkeys(("compiled", "compiled loops", "python solves", "python passes") + callbacks, 0)
    load = compiled.load
    monkeypatch.setattr(compiled, "load", lambda stem, c_source="": (
        (counting(counts, "compiled", functions[0]), counting(counts, "compiled loops", functions[1]))
        if stem == "passes" else load(stem, c_source)))
    monkeypatch.setattr(compiled, "_verdicts", {})
    monkeypatch.setattr(compiled, "python_pass", counting(counts, "python passes", compiled.python_pass))
    monkeypatch.setattr(controller, "_descend", counting(counts, "python solves", controller._descend))
    for name in callbacks:
        setattr(prob, name, counting(counts, name, getattr(prob, name)))
    assert compiled.solve_for(prob) is not None
    draws = len(list(compiled._solve_draws(prob)))
    assert counts["compiled"] == draws and counts["compiled loops"] == len(compiled.LOOP_DRAWS)
    assert counts["python solves"] > draws and counts["python passes"] > draws
    assert counts["rhs"] > 0
    x0 = np.array([0.3, -0.2, 0.1, 0.0, 0.0, 0.0])
    calls = []
    for timing in (COST_TIMING, TimingSpec("cost-model", c_eval=1.0e-6, repeats=3), TimingSpec("wallclock", repeats=3)):
        counts.update(dict.fromkeys(counts, 0))
        result = solve(setting, x0, prob.p_nom, np.array([0.0, 0.0, 1.0, 0.5]), setting.default_warm_start(), timing)
        assert result.iterations_used > 0
        assert counts["python solves"] == counts["python passes"] == 0 and all(counts[name] == 0 for name in callbacks)
        calls.append(counts["compiled"])
    assert calls == [1, 1, 3]


def test_compiled_grad_passes_call_no_python_derivative_after_the_self_check(monkeypatch):
    # once the self-check has run the Python solve, whose gradient passes call
    # the Python derivatives, a compiled solve calls none of them, the
    # terminal gradient neither
    prob, setting = pvtol_setting()
    if compiled._bind_solve(prob) is None:
        pytest.skip("the compiled solve cannot be built here")
    names = ("rhs_jac", "stage_cost_grad", "constraint_jac", "terminal_penalty_grad")
    counts = dict.fromkeys(names, 0)
    for name in names:
        setattr(prob, name, counting(counts, name, getattr(prob, name)))
    monkeypatch.setattr(compiled, "_verdicts", {})
    assert compiled.solve_for(prob) is not None
    assert all(counts[name] > 0 for name in names)
    counts.update(dict.fromkeys(counts, 0))
    x0 = np.array([0.9, 0.9, 0.3, 0.5, -0.5, 0.5])
    result = solve(setting, x0, prob.p_nom, np.array([0.0, 0.0, 1.0, 0.5]), setting.default_warm_start(), COST_TIMING)
    assert result.iterations_used > 0 and all(counts[name] == 0 for name in names)


# closed loop -----------------------------------------------------------------------


def test_update_count_values():
    assert update_count(0.5, 0.05) == 10
    assert update_count(0.5, 0.03) == 17
    assert update_count(0.5, 0.01) == 50
    assert update_count(0.01, 0.05) == 1
    # slack guard: 0.3 / 0.1 is not 3.0000000000000004 updates
    assert update_count(0.3, 0.1) == 3


def pvtol_setting(kappa=5):
    prob = pvtol_problem()
    design = DesignVector(kappa=kappa, mu_d=0.5, n_pred=8, n_contr=2,
                          rho_f=10.0, rho_constr=1e4, max_iter=12)
    return prob, MpcSetting.from_design(prob, design)


def test_equilibrium_scenario_is_free():
    prob, setting = pvtol_setting()
    scenario = Scenario(x0=np.zeros(6), p=prob.p_nom,
                        q=np.array([0.0, 0.0, 1.0, 0.5]), duration=0.5)
    report = simulate_closed_loop(setting, scenario, COST_TIMING)
    assert report.m == 10
    assert report.n_solves == 10
    assert not report.diverged
    assert report.closed_loop_cost == 0.0
    assert np.all(report.open_loop_costs == 0.0)
    assert np.max(report.max_violations) < 0.0
    assert report.states.shape == (51, 6)  # m * kappa + 1 fine states
    assert report.inputs.shape == (10, 2)


def test_disturbed_scenario_contracts():
    prob, setting = pvtol_setting()
    x0 = np.array([0.4, -0.3, 0.1, 0.0, 0.0, 0.0])
    scenario = Scenario(x0=x0, p=prob.p_nom, q=np.array([0.0, 0.0, 1.0, 0.5]), duration=0.5)
    report = simulate_closed_loop(setting, scenario, COST_TIMING)
    assert not report.diverged
    assert report.open_loop_costs[-1] < report.open_loop_costs[0]
    assert report.closed_loop_cost > 0.0
    assert math.isfinite(report.closed_loop_cost)


def test_closed_loop_respects_input_bounds():
    prob, setting = pvtol_setting()
    x0 = np.array([0.9, 0.9, 0.3, 0.5, -0.5, 0.5])
    scenario = Scenario(x0=x0, p=prob.p_nom, q=np.array([-0.5, 0.5, 1.0, 0.5]), duration=0.5)
    report = simulate_closed_loop(setting, scenario, COST_TIMING)
    assert np.all(report.inputs >= prob.u_min - 1e-12)
    assert np.all(report.inputs <= prob.u_max + 1e-12)


def test_closed_loop_divergence_is_flagged():
    exploding = integrator_problem()
    exploding.rhs = lambda x, u, p: np.array([x[0] ** 3])
    design = DesignVector(kappa=2, mu_d=1.0, n_pred=3, n_contr=1,
                          rho_f=1.0, rho_constr=1.0, max_iter=3)
    setting = MpcSetting.from_design(exploding, design)
    scenario = Scenario(x0=np.array([5.0]), p=np.zeros(1), q=np.zeros(1), duration=10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        report = simulate_closed_loop(setting, scenario, COST_TIMING)
    assert report.diverged
    assert report.diverged_at is not None
    assert math.isinf(report.closed_loop_cost)
    assert report.n_solves <= report.m


@pytest.mark.parametrize("c_source", [False, True], ids=["python", "compiled"])
def test_a_nan_constraint_value_after_the_first_fine_step_fails_the_certification(c_source):
    # the first update's rows read -0.5, then NaN, then a finite value: a
    # maximum that dropped the NaN would read -0.5 and pass
    prob = clock_problem() if c_source else dataclasses.replace(clock_problem(), c_source=None)
    design = DesignVector(kappa=2, mu_d=1.0, n_pred=2, n_contr=1, rho_f=1.0, rho_constr=1.0, max_iter=5)
    setting = MpcSetting.from_design(prob, design)
    scenario = Scenario(x0=np.array([0.3, 0.0]), p=np.zeros(1), q=np.zeros(1), duration=0.4)
    report = simulate_closed_loop(setting, scenario, COST_TIMING)
    assert report.m == report.n_solves == 2 and not report.diverged
    assert prob.constraint_map(tuple(report.states[0]), (0.0,), (0.0,), (0.0,)) == (-0.5,)
    assert math.isnan(report.max_violations[0]) and math.isfinite(report.max_violations[1])
    assert constraint_excess(report) == math.inf


def test_budgeted_solve_is_over_exactly_when_the_full_solve_is():
    prob, setting = pvtol_setting()
    x0 = np.array([0.6, -0.4, 0.2, 0.3, -0.2, 0.1])
    q = np.array([0.0, 0.0, 1.0, 0.5])
    z0 = setting.default_warm_start()
    full = solve(setting, x0, prob.p_nom, q, z0, COST_TIMING)
    t = full.solver_time
    tight = 0.05 * t
    for budget in (tight, 0.5 * t, np.nextafter(t, 0.0), t, np.nextafter(t, math.inf), 2.0 * t):
        cut = solve(setting, x0, prob.p_nom, q, z0, COST_TIMING, budget=budget)
        over = budget_excess(t, budget) > 0.0
        assert (budget_excess(cut.solver_time, budget) > 0.0) == over
        assert cut.solver_time == COST_TIMING.c_eval * cut.work_units
        assert cut.work_units % WORK_PER_RK_STEP == 0
        if over:
            assert cut.work_units <= full.work_units
        else:
            assert (cut.cost, cut.iterations_used, cut.solver_time, cut.work_units) == (
                full.cost, full.iterations_used, full.solver_time, full.work_units
            )
            np.testing.assert_array_equal(cut.z_opt, full.z_opt)
        if budget == tight:  # cut well short of the solve's end
            assert cut.work_units < full.work_units


def test_closed_loop_stops_at_first_overrun():
    prob, setting = pvtol_setting()
    x0 = np.array([0.9, 0.9, 0.3, 0.5, -0.5, 0.5])
    scenario = Scenario(x0=x0, p=prob.p_nom, q=np.array([0.0, 0.0, 1.0, 0.5]), duration=0.5)
    full = simulate_closed_loop(setting, scenario, COST_TIMING)
    assert full.stopped_at is None
    # a budget that update k's solve overruns and the ones before it do not
    times = full.solver_times
    k = next(i for i in range(1, full.m) if times[i] > max(times[:i]))
    budget = max(times[:k])
    assert budget_excess(full.solver_times[k], budget) > 0.0
    stopped = simulate_closed_loop(setting, scenario, COST_TIMING, budget=budget)
    assert stopped.stopped_at == k
    assert not stopped.diverged and stopped.diverged_at is None
    assert stopped.n_solves == k + 1
    assert budget_excess(stopped.solver_times[k], budget) > 0.0
    np.testing.assert_array_equal(stopped.solver_times[:k], full.solver_times[:k])
    np.testing.assert_array_equal(stopped.open_loop_costs[:k], full.open_loop_costs[:k])
    assert np.all(np.isinf(stopped.solver_times[k + 1 :]))
    assert np.all(np.isinf(stopped.open_loop_costs[k:]))
    assert math.isinf(stopped.closed_loop_cost)
    kappa = setting.design.kappa
    np.testing.assert_array_equal(stopped.states[: k * kappa + 1], full.states[: k * kappa + 1])
    assert np.all(np.isnan(stopped.states[k * kappa + 1 :]))  # no plant step after the stop
    d = json.loads(json.dumps(stopped.to_json_dict()))
    assert d["stopped_at"] == k and d["diverged"] is False and d["n_solves"] == k + 1
    assert json.loads(json.dumps(full.to_json_dict()))["stopped_at"] is None
    # a budget no update overruns changes nothing
    loose = simulate_closed_loop(setting, scenario, COST_TIMING, budget=max(full.solver_times))
    assert loose.stopped_at is None
    np.testing.assert_array_equal(loose.solver_times, full.solver_times)
    np.testing.assert_array_equal(loose.states, full.states)
    assert loose.closed_loop_cost == full.closed_loop_cost


def test_a_wallclock_simulation_calls_solve_once_per_update(monkeypatch):
    # a cost-model simulation runs the compiled loop where the problem has
    # one, which calls no solve; a wallclock one runs the Python loop, so
    # that Python's clock times each solve, and records all else alike
    prob, setting = pvtol_setting()
    fast = compiled.solve_for(prob)  # decided first: its self-check calls solve
    calls = []
    real = controller.solve
    monkeypatch.setattr(controller, "solve", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    scenario = Scenario(x0=np.array([0.4, -0.3, 0.1, 0.0, 0.0, 0.0]), p=prob.p_nom, q=np.array([0.0, 0.0, 1.0, 0.5]),
                        duration=0.2)
    wall = simulate_closed_loop(setting, scenario, TimingSpec("wallclock"))
    assert len(calls) == wall.n_solves == wall.m == 4
    calls.clear()
    cost = simulate_closed_loop(setting, scenario, COST_TIMING)
    assert len(calls) == (0 if fast else cost.n_solves)
    for name in ("open_loop_costs", "max_violations", "states", "inputs"):
        assert getattr(wall, name).tobytes() == getattr(cost, name).tobytes(), name
    assert wall.closed_loop_cost == cost.closed_loop_cost


def test_report_json_roundtrip():
    prob, setting = pvtol_setting()
    scenario = Scenario(x0=np.zeros(6), p=prob.p_nom,
                        q=np.array([0.0, 0.0, 1.0, 0.5]), duration=0.1)
    report = simulate_closed_loop(setting, scenario, COST_TIMING)
    d = json.loads(json.dumps(report.to_json_dict()))
    assert d["m"] == report.m
    assert len(d["solver_times"]) == report.m
    assert len(d["states"]) == report.m * setting.design.kappa + 1
    rebuilt = ClosedLoopReport(**{k: np.array(v) if isinstance(v, list) else v for k, v in d.items()})
    for name in vars(report):
        got, want = getattr(rebuilt, name), getattr(report, name)
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want, name


# calibration -----------------------------------------------------------------------


def test_calibrate_c_eval_is_positive_and_small(monkeypatch):
    # it times whole solves on the path solves take: compiled for PVTOL where
    # the solve builds, in Python without c_source
    paths = []
    solve_for = compiled.solve_for

    def recording(problem):
        paths.append(solve_for(problem))
        return paths[-1]

    monkeypatch.setattr(compiled, "solve_for", recording)
    python_pvtol = dataclasses.replace(pvtol_problem(), c_source=None)
    for prob in (pvtol_problem(), python_pvtol):
        paths.clear()
        c = calibrate_c_eval(prob, n=20000)
        assert 0.0 < c < 1e-3
        assert len(paths) > 2 and all(found is paths[0] for found in paths)
        assert (paths[0] is None) == (prob is python_pvtol or compiled.load("passes", prob.c_source) is None)


def test_rhs_gets_tuples_of_floats_everywhere():
    # the solver, the plant step, the finite-difference Jacobians and the
    # calibration all call rhs the way the RK4 kernel does
    def tuple_rhs(x, u, p):
        args = (x, u, p)
        if not (all(type(a) is tuple for a in args) and all(type(v) is float for v in x + u + p)):
            raise TypeError(f"rhs got {type(x).__name__}, {type(u).__name__} and {type(p).__name__}")
        return (u[0],)

    prob = integrator_problem()
    prob.rhs = tuple_rhs
    setting = MpcSetting.from_design(prob, toy_setting().design)
    scenario = Scenario(x0=np.array([0.5]), p=np.zeros(1), q=np.zeros(1), duration=0.3)
    report = simulate_closed_loop(setting, scenario, COST_TIMING)
    assert not report.diverged
    A, B = prob.rhs_jacobians(np.array([0.5]), np.array([0.2]), np.zeros(1))
    np.testing.assert_allclose(B, [[1.0]])
    assert calibrate_c_eval(prob, n=10) > 0.0


def test_rhs_gets_x_u_and_p_as_tuples_of_floats():
    # a tiny tuning run, a closed-loop simulation, the calibration and the
    # finite-difference fallbacks all call the value callbacks (rhs,
    # stage_cost, terminal_penalty_base, constraint_map) with x, u, p and q
    # as tuples of floats, as the RK4 kernel calls rhs; on the Python cost
    # pass, as a compiled pass calls them only in its self-check
    prob = dataclasses.replace(pvtol_problem(), c_source=None)
    calls = {"rhs": [], "stage_cost": [], "terminal_penalty_base": [], "constraint_map": []}

    def recording(name):
        callback = getattr(prob, name)

        def record(*args):
            calls[name].append(args)
            return callback(*args)
        return record

    def all_tuples_of_floats(*names):
        args = [a for made in calls.values() for call in made for a in call]
        ok = all(type(a) is tuple and all(type(v) is float for v in a) for a in args)
        made = all(calls[name] for name in names)
        for name in calls:
            calls[name].clear()
        return made and ok

    for name in calls:
        setattr(prob, name, recording(name))
    scenarios = generate_cloud(prob, 2, seed=0, duration=0.05)
    tune(prob, [sample_shaping(np.random.default_rng(0))], make_batches(scenarios, 2, 1), DesignBounds(),
         CertificationParams(gamma=0.98, eps=0.5, dev_acc=1.0, c_max=0.1), COST_TIMING)
    assert all_tuples_of_floats(*calls)
    setting = MpcSetting.from_design(prob, realize(sample_shaping(np.random.default_rng(1)), 0.5, DesignBounds()))
    simulate_closed_loop(setting, scenarios[0], COST_TIMING)
    assert all_tuples_of_floats(*calls)
    calibrate_c_eval(prob, n=10)
    assert all_tuples_of_floats("rhs")
    stripped = dataclasses.replace(
        prob, rhs_jac=None, stage_cost_grad=None, terminal_penalty_grad=None, constraint_jac=None
    )
    x, u = np.zeros((2, 6)), np.ones((2, 2))
    q = scenarios[0].q
    stripped.rhs_jacobians(x, u, prob.p_nom)
    stripped.stage_cost_grads(x, u, prob.p_nom, q)
    stripped.terminal_grad(x[0], prob.p_nom, q)
    stripped.constraint_jacobians(x, u, prob.p_nom, q)
    assert all_tuples_of_floats(*calls)
