import dataclasses
import math

import numpy as np
import pytest

from mpc_autotune import (
    ProblemDefinition,
    Scenario,
    ScenarioBatchSet,
    generate_cloud,
    get_problem,
    make_batches,
    pvtol_problem,
)
from mpc_autotune.pvtol import target_state

from conftest import (
    point_pvtol_constraint_jac,
    point_pvtol_rhs_jac,
    point_pvtol_stage_cost_grad,
    reference_pvtol_constraints,
    reference_pvtol_stage_cost,
)

Q_ZERO = np.array([0.0, 0.0, 1.0, 0.5])


@pytest.fixture(scope="module")
def pvtol():
    return pvtol_problem()


# dynamics ---------------------------------------------------------------------


def test_pvtol_trim_is_equilibrium(pvtol):
    x = np.zeros(6)
    dx = pvtol.rhs(x, np.array([1.0, 0.0]), pvtol.p_nom)
    np.testing.assert_allclose(dx, np.zeros(6), atol=1e-15)


def test_pvtol_rhs_sideways_thrust(pvtol):
    # theta = pi/2 tips the thrust axis horizontal: u1 pulls along -y,
    # gravity is unopposed, and the lateral coupling term vanishes with u2 = 0
    x = np.zeros(6)
    x[2] = math.pi / 2
    dx = pvtol.rhs(x, np.array([1.0, 0.0]), pvtol.p_nom)
    np.testing.assert_allclose(dx[:3], np.zeros(3), atol=1e-15)
    assert dx[3] == pytest.approx(-1.0, abs=1e-12)
    assert dx[4] == pytest.approx(-1.0, abs=1e-12)
    assert dx[5] == pytest.approx(0.0, abs=1e-15)


def test_pvtol_rhs_roll_channel(pvtol):
    dx = pvtol.rhs(np.zeros(6), np.array([1.0, 0.5]), pvtol.p_nom)
    # p1 * u2 enters the lateral acceleration, p2 * u2 drives the roll rate
    assert dx[3] == pytest.approx(pvtol.p_nom[0] * 0.5, abs=1e-15)
    assert dx[5] == pytest.approx(pvtol.p_nom[1] * 0.5, abs=1e-15)


def test_pvtol_velocity_passthrough(pvtol):
    x = np.array([0.0, 0.0, 0.0, 0.3, -0.2, 0.7])
    dx = pvtol.rhs(x, np.array([1.0, 0.0]), pvtol.p_nom)
    np.testing.assert_allclose(dx[:3], x[3:], atol=1e-15)


def test_pvtol_jacobians_match_finite_differences(pvtol, rng):
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, size=6)
        u = rng.uniform(-5.0, 5.0, size=2)
        p = pvtol.p_nom + rng.normal(scale=pvtol.p_std)
        A, B = pvtol.rhs_jacobians(x, u, p)
        A_fd = np.empty_like(A)
        B_fd = np.empty_like(B)
        h = 1e-6
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            A_fd[:, j] = (np.asarray(pvtol.rhs(x + e, u, p)) - np.asarray(pvtol.rhs(x - e, u, p))) / (2 * h)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            B_fd[:, j] = (np.asarray(pvtol.rhs(x, u + e, p)) - np.asarray(pvtol.rhs(x, u - e, p))) / (2 * h)
        np.testing.assert_allclose(A, A_fd, atol=1e-8)
        np.testing.assert_allclose(B, B_fd, atol=1e-8)


# costs and constraints ----------------------------------------------------------


def test_pvtol_stage_cost_value(pvtol):
    x = np.zeros(6)
    x[0] = 0.1
    val = pvtol.stage_cost(x, np.array([1.5, 0.0]), pvtol.p_nom, Q_ZERO)
    # 1e3 * 0.1^2 + 0.1 * 0.5^2
    assert val == pytest.approx(10.025, abs=1e-12)


def test_pvtol_stage_cost_zero_at_trim(pvtol):
    q = np.array([0.3, -0.2, 1.0, 0.5])
    assert pvtol.stage_cost(target_state(q), np.array([1.0, 0.0]), pvtol.p_nom, q) == 0.0


def test_pvtol_stage_cost_gradients(pvtol, rng):
    q = np.array([0.3, -0.2, 1.0, 0.5])
    x = rng.uniform(-1.0, 1.0, size=6)
    u = rng.uniform(-5.0, 5.0, size=2)
    gx, gu = pvtol.stage_cost_grads(x, u, pvtol.p_nom, q)
    h = 1e-6
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        fd = (pvtol.stage_cost(x + e, u, pvtol.p_nom, q)
              - pvtol.stage_cost(x - e, u, pvtol.p_nom, q)) / (2 * h)
        assert gx[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (pvtol.stage_cost(x, u + e, pvtol.p_nom, q)
              - pvtol.stage_cost(x, u - e, pvtol.p_nom, q)) / (2 * h)
        assert gu[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_pvtol_terminal_penalty_value(pvtol):
    x = np.zeros(6)
    x[1] = 0.1
    # sqrt(1e3 * 0.01) = sqrt(10)
    assert pvtol.terminal_penalty_base(x, pvtol.p_nom, Q_ZERO) == pytest.approx(
        math.sqrt(10.0), abs=1e-12
    )


def test_pvtol_terminal_gradient_zero_at_target(pvtol):
    q = np.array([0.1, 0.2, 1.0, 0.5])
    g = pvtol.terminal_grad(target_state(q), pvtol.p_nom, q)
    np.testing.assert_allclose(g, np.zeros(6), atol=1e-15)


def test_pvtol_terminal_gradient_matches_fd(pvtol, rng):
    q = np.array([0.1, 0.2, 1.0, 0.5])
    x = rng.uniform(-1.0, 1.0, size=6)
    g = pvtol.terminal_grad(x, pvtol.p_nom, q)
    h = 1e-7
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        fd = (pvtol.terminal_penalty_base(x + e, pvtol.p_nom, q)
              - pvtol.terminal_penalty_base(x - e, pvtol.p_nom, q)) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_pvtol_constraint_values(pvtol):
    x = np.zeros(6)
    x[2] = -0.6
    x[5] = 1.2
    c = pvtol.constraint_map(x, np.array([1.0, 0.0]), pvtol.p_nom, Q_ZERO)
    # (thetadot - q3, -thetadot - q3, theta - q4, -theta - q4)
    np.testing.assert_allclose(c, [0.2, -2.2, -1.1, 0.1], atol=1e-15)


def test_pvtol_constraint_jacobian(pvtol):
    Cx, Cu = pvtol.constraint_jacobians(np.zeros(6), np.array([1.0, 0.0]), pvtol.p_nom, Q_ZERO)
    expected = np.zeros((4, 6))
    expected[0, 5] = 1.0
    expected[1, 5] = -1.0
    expected[2, 2] = 1.0
    expected[3, 2] = -1.0
    np.testing.assert_allclose(Cx, expected, atol=1e-15)
    np.testing.assert_allclose(Cu, np.zeros((4, 2)), atol=1e-15)


def test_target_state_layout():
    x_d = target_state(np.array([0.3, -0.4, 1.0, 0.5]))
    np.testing.assert_allclose(x_d, [0.3, -0.4, 0.0, 0.0, 0.0, 0.0], atol=1e-15)


# finite-difference fallbacks -----------------------------------------------------


def test_fd_fallback_matches_analytic(pvtol, rng):
    bare = pvtol_problem()
    stripped = ProblemDefinition(
        n_x=bare.n_x, n_u=bare.n_u, n_p=bare.n_p, n_q=bare.n_q, n_c=bare.n_c,
        tau=bare.tau, u_min=bare.u_min, u_max=bare.u_max,
        x_min=bare.x_min, x_max=bare.x_max,
        q_min=bare.q_min, q_max=bare.q_max, p_nom=bare.p_nom, p_std=bare.p_std,
        rhs=bare.rhs, constraint_map=bare.constraint_map, stage_cost=bare.stage_cost,
        terminal_penalty_base=bare.terminal_penalty_base, u_trim=bare.u_trim,
    )
    x = rng.uniform(-0.5, 0.5, size=6)
    u = rng.uniform(-3.0, 3.0, size=2)
    q = np.array([0.2, -0.1, 1.0, 0.5])
    A, B = stripped.rhs_jacobians(x, u, bare.p_nom)
    A_ref, B_ref = bare.rhs_jacobians(x, u, bare.p_nom)
    np.testing.assert_allclose(A, A_ref, atol=1e-6)
    np.testing.assert_allclose(B, B_ref, atol=1e-6)
    gx, gu = stripped.stage_cost_grads(x, u, bare.p_nom, q)
    gx_ref, gu_ref = bare.stage_cost_grads(x, u, bare.p_nom, q)
    np.testing.assert_allclose(gx, gx_ref, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(gu, gu_ref, rtol=1e-5, atol=1e-5)
    g = stripped.terminal_grad(x, bare.p_nom, q)
    np.testing.assert_allclose(g, bare.terminal_grad(x, bare.p_nom, q), rtol=1e-5, atol=1e-6)
    Cx, Cu = stripped.constraint_jacobians(x, u, bare.p_nom, q)
    Cx_ref, Cu_ref = bare.constraint_jacobians(x, u, bare.p_nom, q)
    np.testing.assert_allclose(Cx, Cx_ref, atol=1e-6)
    np.testing.assert_allclose(Cu, Cu_ref, atol=1e-6)


def test_stacked_pvtol_jacobians_equal_the_point_formula_bit_for_bit(pvtol):
    rng = np.random.default_rng(11)
    for scale in (4.0, 1000.0):  # angles within and far beyond +-pi
        for _ in range(2):
            x = rng.uniform(-1.0, 1.0, size=(5000, 6))
            x[:, 2] = rng.uniform(-scale, scale, size=5000)
            u = rng.uniform(pvtol.u_min, pvtol.u_max, size=(5000, 2))
            p = pvtol.p_nom + rng.normal(scale=pvtol.p_std)
            A, B = pvtol.rhs_jacobians(x, u, p)
            points = [point_pvtol_rhs_jac(xi, ui, p) for xi, ui in zip(x, u)]
            assert A.tobytes() == np.stack([a for a, _ in points]).tobytes()
            assert B.tobytes() == np.stack([b for _, b in points]).tobytes()


def mixed_floats(rng, size):
    """Floats of either sign: a third within +-3, a tenth +-0.0, the rest of
    magnitude 1e-20 to 1e150."""
    v = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-20.0, 150.0, size=size)
    moderate = rng.random(size) < 1 / 3
    v[moderate] = rng.uniform(-3.0, 3.0, size=int(moderate.sum()))
    zero = rng.random(size) < 0.1
    v[zero] = rng.choice([-0.0, 0.0], size=int(zero.sum()))
    return v


def test_pvtol_stage_cost_and_constraints_equal_the_reference_bit_for_bit(pvtol):
    rng = np.random.default_rng(13)
    p = tuple(pvtol.p_nom.tolist())
    for _ in range(20_000):
        x, u, q = mixed_floats(rng, 6), mixed_floats(rng, 2), mixed_floats(rng, 4)
        xt, ut, qt = tuple(x.tolist()), tuple(u.tolist()), tuple(q.tolist())  # as the solver passes them
        got = pvtol.stage_cost(xt, ut, p, qt)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(reference_pvtol_stage_cost(x, u, pvtol.p_nom, q)).tobytes()
        c = pvtol.constraint_map(xt, ut, p, qt)
        assert len(c) == 4 and all(type(v) is float for v in c)
        assert np.array(c).tobytes() == reference_pvtol_constraints(x, u, pvtol.p_nom, q).tobytes()


def test_stacked_pvtol_cost_and_constraint_derivatives_equal_the_point_formulas_bit_for_bit(pvtol):
    rng = np.random.default_rng(14)
    for _ in range(20):  # 20 x 1000 points, one q each
        x, u, q = mixed_floats(rng, (1000, 6)), mixed_floats(rng, (1000, 2)), mixed_floats(rng, 4)
        lx, lu = pvtol.stage_cost_grads(x, u, pvtol.p_nom, q)
        points = [point_pvtol_stage_cost_grad(xi, ui, pvtol.p_nom, q) for xi, ui in zip(x, u)]
        assert lx.tobytes() == np.stack([a for a, _ in points]).tobytes()
        assert lu.tobytes() == np.stack([b for _, b in points]).tobytes()
        Cx, Cu = pvtol.constraint_jacobians(x, u, pvtol.p_nom, q)
        cx, cu = point_pvtol_constraint_jac(x[0], u[0], pvtol.p_nom, q)
        assert Cx.shape == (1000, 4, 6) and Cu.shape == (1000, 4, 2)
        assert np.ascontiguousarray(Cx).tobytes() == np.stack([cx] * 1000).tobytes()
        assert np.ascontiguousarray(Cu).tobytes() == np.stack([cu] * 1000).tobytes()


def test_pvtol_jacobians_keep_the_leading_axes(pvtol):
    rng = np.random.default_rng(12)
    x = rng.uniform(-1.0, 1.0, size=(3, 4, 6))
    u = rng.uniform(-5.0, 5.0, size=(3, 4, 2))
    A, B = pvtol.rhs_jacobians(x, u, pvtol.p_nom)
    assert A.shape == (3, 4, 6, 6) and B.shape == (3, 4, 6, 2)
    a, b = pvtol.rhs_jacobians(x[2, 1], u[2, 1], pvtol.p_nom)  # one point: no leading axes
    assert a.shape == (6, 6) and b.shape == (6, 2)
    assert a.tobytes() == A[2, 1].tobytes() and b.tobytes() == B[2, 1].tobytes()


def test_fd_fallback_loops_over_stacked_points(rng):
    stripped = dataclasses.replace(pvtol_problem(), rhs_jac=None, stage_cost_grad=None, constraint_jac=None)
    x = rng.uniform(-0.5, 0.5, size=(2, 3, 6))
    u = rng.uniform(-3.0, 3.0, size=(2, 3, 2))
    p, q = stripped.p_nom, np.array([0.2, -0.1, 1.0, 0.5])
    A, B = stripped.rhs_jacobians(x, u, p)
    assert A.shape == (2, 3, 6, 6) and B.shape == (2, 3, 6, 2)
    lx, lu = stripped.stage_cost_grads(x, u, p, q)
    assert lx.shape == (2, 3, 6) and lu.shape == (2, 3, 2)
    Cx, Cu = stripped.constraint_jacobians(x, u, p, q)
    assert Cx.shape == (2, 3, 4, 6) and Cu.shape == (2, 3, 4, 2)
    for i in np.ndindex(2, 3):
        a, b = stripped.rhs_jacobians(x[i], u[i], p)
        assert a.tobytes() == A[i].tobytes() and b.tobytes() == B[i].tobytes()
        gx, gu = stripped.stage_cost_grads(x[i], u[i], p, q)
        assert gx.shape == (6,) and gx.tobytes() == lx[i].tobytes() and gu.tobytes() == lu[i].tobytes()
        cx, cu = stripped.constraint_jacobians(x[i], u[i], p, q)
        assert cx.tobytes() == Cx[i].tobytes() and cu.tobytes() == Cu[i].tobytes()


def test_rhs_jac_of_the_wrong_shape_names_the_stacked_contract():
    one_point = dataclasses.replace(
        pvtol_problem(), rhs_jac=lambda x, u, p: point_pvtol_rhs_jac(x[0], u[0], p)
    )
    x, u = np.zeros((2, 6)), np.zeros((2, 2))
    with pytest.raises(ValueError, match=r"points stacked on leading axes.*\(\.\.\., n_x, n_x\)"):
        one_point.rhs_jacobians(x, u, one_point.p_nom)


def test_cost_and_constraint_derivatives_of_the_wrong_shape_name_the_stacked_contract():
    q = np.array([0.2, -0.1, 1.0, 0.5])
    x, u = np.zeros((2, 6)), np.zeros((2, 2))
    one_point = dataclasses.replace(pvtol_problem(), constraint_jac=point_pvtol_constraint_jac)
    with pytest.raises(ValueError, match=r"constraint_jac .*points stacked on leading axes.*\(\.\.\., n_c, n_x\)"):
        one_point.constraint_jacobians(x, u, one_point.p_nom, q)
    first_point = dataclasses.replace(
        pvtol_problem(), stage_cost_grad=lambda x, u, p, q: point_pvtol_stage_cost_grad(x[0], u[0], p, q)
    )
    with pytest.raises(ValueError, match=r"stage_cost_grad .*points stacked on leading axes.*\(\.\.\., n_x\)"):
        first_point.stage_cost_grads(x, u, first_point.p_nom, q)


# problem validation ---------------------------------------------------------------


def test_problem_rejects_bad_shapes(pvtol):
    with pytest.raises(ValueError):
        pvtol_problem(tau=0.0)
    with pytest.raises(ValueError):
        ProblemDefinition(
            n_x=2, n_u=1, n_p=1, n_q=1, n_c=0, tau=0.1,
            u_min=np.zeros(2), u_max=np.ones(2),  # wrong length
            x_min=-np.ones(2), x_max=np.ones(2),
            q_min=np.zeros(1), q_max=np.ones(1),
            p_nom=np.zeros(1), p_std=np.ones(1),
            rhs=lambda x, u, p: x,
            constraint_map=lambda x, u, p, q: np.zeros(0),
            stage_cost=lambda x, u, p, q: 0.0,
            terminal_penalty_base=lambda x, p, q: 0.0,
            u_trim=np.zeros(1),
        )


def test_problem_rejects_unordered_bounds():
    with pytest.raises(ValueError):
        ProblemDefinition(
            n_x=1, n_u=1, n_p=1, n_q=1, n_c=0, tau=0.1,
            u_min=np.ones(1), u_max=np.zeros(1),
            x_min=-np.ones(1), x_max=np.ones(1),
            q_min=np.zeros(1), q_max=np.ones(1),
            p_nom=np.zeros(1), p_std=np.ones(1),
            rhs=lambda x, u, p: x,
            constraint_map=lambda x, u, p, q: np.zeros(0),
            stage_cost=lambda x, u, p, q: 0.0,
            terminal_penalty_base=lambda x, p, q: 0.0,
        )


# scenario cloud -------------------------------------------------------------------


def test_cloud_respects_sampling_boxes(pvtol):
    scenarios = generate_cloud(pvtol, 200, seed=7)
    assert len(scenarios) == 200
    for sc in scenarios:
        assert np.all(sc.x0 >= pvtol.x_min - 1e-12)
        assert np.all(sc.x0 <= pvtol.x_max + 1e-12)
        assert np.all(sc.q >= pvtol.q_min - 1e-12)
        assert np.all(sc.q <= pvtol.q_max + 1e-12)
        # pinned entries stay at their nominal values
        assert sc.q[2] == pytest.approx(1.0)
        assert sc.q[3] == pytest.approx(0.5)
        assert np.all(np.abs(sc.p - pvtol.p_nom) <= 3.0 * pvtol.p_std + 1e-12)
        assert sc.duration == pytest.approx(0.5)


def test_cloud_is_deterministic(pvtol):
    a = generate_cloud(pvtol, 12, seed=41)
    b = generate_cloud(pvtol, 12, seed=41)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.x0, sb.x0)
        np.testing.assert_array_equal(sa.p, sb.p)
        np.testing.assert_array_equal(sa.q, sb.q)
    c = generate_cloud(pvtol, 12, seed=42)
    assert any(not np.array_equal(sa.x0, sc.x0) for sa, sc in zip(a, c))


def test_cloud_duration_override(pvtol):
    scenarios = generate_cloud(pvtol, 3, seed=0, duration=1.5)
    assert all(sc.duration == pytest.approx(1.5) for sc in scenarios)


def test_scenario_arrays_are_read_only(pvtol):
    sc = generate_cloud(pvtol, 1, seed=3)[0]
    with pytest.raises(ValueError):
        sc.x0[0] = 99.0


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(x0=np.zeros(2), p=np.zeros(1), q=np.zeros(1), duration=0.0)


# batching -------------------------------------------------------------------------


def test_make_batches_exact_partition(pvtol):
    scenarios = generate_cloud(pvtol, 20, seed=1)
    batch_set = make_batches(scenarios, nb=5, nsb=4)
    assert isinstance(batch_set, ScenarioBatchSet)
    assert batch_set.nb == 5
    assert batch_set.nsb == 4
    flat = [sc for batch in batch_set.batches for sc in batch]
    assert len(flat) == 20
    # order preserved: batch i holds scenarios [i*nsb, (i+1)*nsb)
    for i, sc in enumerate(flat):
        np.testing.assert_array_equal(sc.x0, scenarios[i].x0)


def test_make_batches_rejects_mismatch(pvtol):
    scenarios = generate_cloud(pvtol, 10, seed=1)
    with pytest.raises(ValueError):
        make_batches(scenarios, nb=3, nsb=4)
    with pytest.raises(ValueError):
        make_batches(scenarios, nb=0, nsb=4)


# registry -------------------------------------------------------------------------


def test_registry_contains_pvtol():
    prob = get_problem("pvtol")()
    assert prob.n_x == 6
    assert prob.n_u == 2
    assert prob.tau == pytest.approx(0.01)


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        get_problem("does-not-exist")
