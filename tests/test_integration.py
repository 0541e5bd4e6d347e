import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpc_autotune import (
    DesignVector,
    MpcSetting,
    PropagationError,
    hold_input,
    n_steps_for,
    pvtol_problem,
    rk4_step,
)
from mpc_autotune.integration import rk4_kernel

NO_P = np.zeros(1)


# n_steps_for ------------------------------------------------------------------


def test_n_steps_worked_cases():
    assert n_steps_for(0.5, 3) == 2
    assert n_steps_for(0.0, 7) == 1
    assert n_steps_for(1.0, 7) == 7


def test_n_steps_validation():
    with pytest.raises(ValueError):
        n_steps_for(-0.1, 3)
    with pytest.raises(ValueError):
        n_steps_for(0.5, 0)


@given(mu=st.floats(min_value=0.0, max_value=1.0), kappa=st.integers(min_value=1, max_value=50))
def test_n_steps_in_range(mu, kappa):
    n = n_steps_for(mu, kappa)
    assert 1 <= n <= kappa


@given(
    a=st.floats(min_value=0.0, max_value=1.0),
    b=st.floats(min_value=0.0, max_value=1.0),
    kappa=st.integers(min_value=1, max_value=50),
)
def test_n_steps_nondecreasing_in_mu(a, b, kappa):
    lo, hi = sorted((a, b))
    assert n_steps_for(lo, kappa) <= n_steps_for(hi, kappa)


# prediction grid ----------------------------------------------------------------


def test_grid_substep_length():
    design = DesignVector(kappa=6, mu_d=0.3, n_pred=10, n_contr=3, rho_f=10.0, rho_constr=1e4, max_iter=10)
    setting = MpcSetting.from_design(pvtol_problem(), design)
    assert (setting.tau_u, setting.n_steps) == (pytest.approx(0.06), 3)  # ceil(1 + 0.3 * 5)
    assert setting.tau_p == pytest.approx(0.02)


# rk4_step ----------------------------------------------------------------------


def decay(x, u, p):
    return -np.asarray(x)


def test_rk4_single_step_matches_hand_expansion():
    # xdot = -x, h = 0.1 from 1.0: stages -1, -0.95, -0.9525, -0.90475
    x1 = rk4_step(decay, np.array([1.0]), np.zeros(1), NO_P, 0.1)
    assert x1[0] == pytest.approx(0.9048375, abs=1e-15)
    assert abs(x1[0] - math.exp(-0.1)) < 1e-7


def test_rk4_exact_for_constant_derivative():
    x1 = rk4_step(lambda x, u, p: np.array([u[0]]), np.array([0.5]), np.array([2.0]), NO_P, 0.1)
    assert x1[0] == pytest.approx(0.7, abs=1e-15)


def cubic(x, u, p):
    return -np.asarray(x) ** 3 + np.asarray(u)


def integrate(n_steps: int, x0: float = 1.0, u: float = 0.3, horizon: float = 1.0) -> float:
    x = np.array([x0])
    h = horizon / n_steps
    for _ in range(n_steps):
        x = rk4_step(cubic, x, np.array([u]), NO_P, h)
    return float(x[0])


def test_rk4_fourth_order_convergence():
    ref = integrate(4096)
    ratio = abs(integrate(16) - ref) / abs(integrate(32) - ref)
    assert 14.0 <= ratio <= 18.0


def test_rk4_raises_on_divergence():
    blowup = lambda x, u, p: np.array([math.inf])
    with pytest.raises(PropagationError):
        rk4_step(blowup, np.array([1.0]), np.zeros(1), NO_P, 0.1)


def test_rk4_raises_on_float_overflow():
    # Python floats raise OverflowError on ** where numpy returned inf
    overflowing = lambda x, u, p: (x[0] ** 4,)
    with pytest.raises(PropagationError):
        rk4_step(overflowing, (1.0e100,), (0.0,), NO_P, 0.1)


def test_rk4_rejects_rhs_of_wrong_length():
    too_long = lambda x, u, p: (u[0], 0.0)
    with pytest.raises(ValueError, match="rhs returned 2 values for a state of length 1"):
        rk4_step(too_long, (0.5,), (1.0,), NO_P, 0.1)


def test_rk4_reads_a_math_domain_error_on_an_overflowed_state_as_divergence():
    prob = pvtol_problem()
    p = tuple(prob.p_nom.tolist())
    # the first stage state's theta overflows to inf, or theta starts there; math.sin(inf) raises ValueError
    for x in ((0.0, 0.0, 1.0e308, 0.0, 0.0, 1.7e308), (0.0, 0.0, math.inf, 0.0, 0.0, 0.0)):
        with pytest.raises(PropagationError) as err:
            rk4_step(prob.rhs, x, (1.0, 1.0), p, 1.0)
        assert isinstance(err.value.__cause__, ValueError)

    def picky(x, u, p):  # a ValueError on a finite state is the callback's own
        raise ValueError("not on this state")

    with pytest.raises(ValueError, match="not on this state"):
        rk4_step(picky, (0.5,), (1.0,), NO_P, 0.1)


def numpy_rk4_stages(rhs, x, u, p, h):
    """Reference RK4 on arrays, with the in-place operation order the float
    kernel must reproduce."""
    half = 0.5 * h
    k1 = rhs(x, u, p)
    x2 = k1 * half
    x2 += x
    k2 = rhs(x2, u, p)
    x3 = k2 * half
    x3 += x
    k3 = rhs(x3, u, p)
    x4 = k3 * h
    x4 += x
    k4 = rhs(x4, u, p)
    x_next = k2 * 2.0
    x_next += k1
    x_next += k3 * 2.0
    x_next += k4
    x_next *= h / 6.0
    x_next += x
    return x2, x3, x4, x_next


def test_rk4_stages_match_numpy_reference_bit_for_bit():
    prob = pvtol_problem()
    array_rhs = lambda x, u, p: np.array(prob.rhs(tuple(x.tolist()), tuple(u.tolist()), p))
    rng = np.random.default_rng(8)
    for _ in range(20_000):
        x = rng.uniform(-3.0, 3.0, size=6)
        u = rng.uniform(-50.0, 50.0, size=2)
        p = tuple((prob.p_nom + prob.p_std * rng.standard_normal(2)).tolist())
        h = rng.uniform(1.0e-3, 0.2)
        got = np.array(rk4_kernel(6)(prob.rhs, tuple(x.tolist()), tuple(u.tolist()), p, h))
        want = np.array(numpy_rk4_stages(array_rhs, x, u, p, h))
        assert got.tobytes() == want.tobytes()


def nonlinear_rhs(n, form, rng):
    """A random coupled nonlinear rhs on n states, returning form(values)."""
    w = rng.uniform(-1.0, 1.0, size=(n, n)).tolist()

    def rhs(x, u, p):
        return form([
            math.sin(sum(wij * xj for wij, xj in zip(wi, x))) * p[0] + u[0] * x[i] * x[(i + 1) % n] - p[1] * x[i]
            for i, wi in enumerate(w)
        ])

    return rhs


@pytest.mark.parametrize("form", [tuple, list, np.array], ids=["tuple", "list", "ndarray"])
@pytest.mark.parametrize("n", range(1, 9))
def test_rk4_kernel_matches_numpy_reference_for_every_state_length(n, form):
    assert rk4_kernel(n) is rk4_kernel(n)
    rng = np.random.default_rng(n)
    rhs = nonlinear_rhs(n, form, rng)
    array_rhs = lambda x, u, p: np.array(rhs(tuple(x.tolist()), u, p), dtype=float)
    for _ in range(300):
        x = rng.uniform(-2.0, 2.0, size=n)
        u = tuple(rng.uniform(-1.0, 1.0, size=1).tolist())
        p = tuple(rng.uniform(0.5, 2.0, size=2).tolist())
        h = rng.uniform(1.0e-3, 0.2)
        got = np.array(rk4_kernel(n)(rhs, tuple(x.tolist()), u, p, h))
        want = np.array(numpy_rk4_stages(array_rhs, x, u, p, h))
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


# hold_input ---------------------------------------------------------------------


def test_hold_input_zero_order_hold():
    rhs = lambda x, u, p: np.array([u[0]])
    states = np.full((5, 1), np.nan)
    states[0] = 0.0
    for k, u in enumerate(([1.0], [0.0])):
        hold_input(rhs, states[2 * k : 2 * k + 3], np.array(u), NO_P, 0.1)
    np.testing.assert_allclose(states[:, 0], [0.0, 0.1, 0.2, 0.2, 0.2], atol=1e-15)


def test_hold_input_matches_prediction_at_full_precision():
    # with n_steps = kappa the prediction grid coincides with the fine grid
    u = np.array([0.4])
    kappa = 5
    fine = np.empty((kappa + 1, 1))
    fine[0] = 1.0
    hold_input(cubic, fine, u, NO_P, 0.02)
    pred = fine[0]
    for _ in range(kappa):
        pred = rk4_step(cubic, pred, u, NO_P, 0.1 / kappa)
    assert fine[-1, 0] == pytest.approx(pred[0], abs=1e-15)


@pytest.mark.filterwarnings("ignore:overflow")
def test_hold_input_divergence_reports_step():
    blowup = lambda x, u, p: np.array([x[0] ** 2])
    # x' = x^2 from 0.1 blows up at t = 10, inside the fourth update
    states = np.full((11, 1), np.nan)
    states[0] = 0.1
    with pytest.raises(PropagationError, match="^plant propagation diverged at fine step 1$"):
        for k in range(5):
            hold_input(blowup, states[2 * k : 2 * k + 3], np.ones(1), NO_P, 2.0)
    assert k == 3
    # the rows before the failing step stay filled, the rest stay untouched
    assert np.all(np.isfinite(states[:8, 0]))
    assert np.all(np.isnan(states[8:, 0]))
