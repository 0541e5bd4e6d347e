import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpc_autotune import CertificationParams, DesignBounds, TimingSpec, compiled, pvtol_problem, sample_shaping, tune
from mpc_autotune.problems import generate_cloud, make_batches
from conftest import cubic_problem, oscillator_problem

PVTOL = pvtol_problem()
GENTLE = pvtol_problem(x_sample_min=(-1.0, -1.0, -0.25, -0.2, -0.2, -0.2),
                       x_sample_max=(1.0, 1.0, 0.25, 0.2, 0.2, 0.2))
GENTLE_BOUNDS = DesignBounds(kappa=(2, 10), mu_d=(0.0, 1.0), n_pred=(8, 20), n_contr=(1, 3), rho_f=(1.0, 30.0),
                             rho_constr=(1.0e3, 1.0e5), max_iter=(20, 45), rho_log_space=True)


def compiled_grad_pass(prob):
    passes = compiled._bind_passes(prob)
    if passes is None:
        pytest.skip("the compiled passes cannot be built here")
    return passes[1]


def capture(problem, bounds, seed, keep=5, limit=400):
    """The arguments of every keep-th gradient pass of a three-candidate
    tuning run on one batch of three scenarios, up to limit of them, as the
    desk (default bounds) and gentle (GENTLE and its bounds) workloads make
    them; the run's own gradient passes run on the Python pass."""
    passes = []

    def recording(*args):
        if len(passes) < limit * keep:
            passes.append(args)
        return compiled.python_grad_pass(*args)

    passes_for = compiled.passes_for
    with pytest.MonkeyPatch.context() as m:
        m.setattr(compiled, "passes_for", lambda problem: (passes_for(problem)[0], recording))
        rng = np.random.default_rng(seed)
        scenarios = generate_cloud(problem, 3, seed, duration=0.5)
        tune(problem, [sample_shaping(rng) for _ in range(3)], make_batches(scenarios, 1, 3), bounds,
             CertificationParams(gamma=0.98, eps=0.5, dev_acc=1.0, c_max=0.1), TimingSpec("cost-model", c_eval=1e-6))
    return passes[::keep]


@pytest.fixture(scope="module")
def captured():
    return {"desk": capture(PVTOL, DesignBounds(), 7), "gentle": capture(GENTLE, GENTLE_BOUNDS, 7)}


def test_compiled_grad_pass_equals_the_python_pass_on_captured_passes(captured):
    fast = compiled_grad_pass(PVTOL)
    for workload, passes in captured.items():
        pairs = {"none": 0, "one": 0, "several": 0}
        for args in passes:
            assert fast(*args).tobytes() == compiled.python_grad_pass(*args).tobytes()
            n_pairs = int(args[2].sum())
            pairs["none" if n_pairs == 0 else "one" if n_pairs == 1 else "several"] += 1
        assert len(passes) > 100 and all(pairs.values()), (workload, pairs)


def test_numpy_sin_and_cos_are_libms_on_the_captured_angles(captured):
    # PVTOL's C rhs_jac calls libm's sin and cos where pvtol_rhs_jac calls np.sin
    # and np.cos; a numpy with its own float64 sin would fail the self-check
    angles = np.unique(np.concatenate([args[1][:, 2] for passes in captured.values() for args in passes]))
    assert angles.size > 10_000
    listed = angles.tolist()
    assert np.sin(angles).tobytes() == np.array([math.sin(a) for a in listed]).tobytes()
    assert np.cos(angles).tobytes() == np.array([math.cos(a) for a in listed]).tobytes()


def random_records(prob, rng, draws, x_scale, u_scale):
    """Arguments of gradient passes on the records of random cost passes
    that do not diverge: tail periods, 1 to 6 steps per period, states and
    inputs from their boxes scaled by x_scale and u_scale, and penalty
    weights over six decades."""
    for _ in range(draws):
        n_pred = int(rng.integers(1, 13))
        n_contr = int(rng.integers(1, n_pred + 1))
        n_steps = int(rng.integers(1, 7))
        tau_u = float(prob.tau * rng.integers(1, 11))
        x = x_scale * rng.uniform(prob.x_min, prob.x_max)
        p = prob.p_nom + prob.p_std * rng.standard_normal(prob.n_p)
        q = rng.uniform(prob.q_min, prob.q_max)
        z = u_scale * rng.uniform(np.tile(prob.u_min, n_contr), np.tile(prob.u_max, n_contr))
        rest = (n_pred, n_contr, n_steps, tau_u / n_steps, tau_u, float(10.0 ** rng.uniform(0.0, 6.0)))
        with np.errstate(all="ignore"):
            cost, _, states, mask = compiled.python_pass(prob, x, p, q, z, *rest)
        if math.isfinite(cost):
            yield (prob, states, mask, p, q, z, *rest)


@pytest.mark.parametrize("make, x_scale, u_scale", [(oscillator_problem, 3.0, 1.0), (cubic_problem, 0.3, 0.1)],
                         ids=["oscillator", "cubic"])
def test_compiled_grad_pass_equals_the_python_pass_on_one_input_or_one_state(make, x_scale, u_scale):
    # oscillator: n_u = 1, so one block gives n_z = 1, where numpy's matmul calls
    # dot and its .dot gemv; cubic: n_x = 1, numpy's scalar rule
    prob = make()
    fast = compiled_grad_pass(prob)
    seen = {"one column": 0, "several columns": 0, "active": 0}
    for args in random_records(prob, np.random.default_rng(41), 300, x_scale, u_scale):
        with np.errstate(all="ignore"):
            assert fast(*args).tobytes() == compiled.python_grad_pass(*args).tobytes()
        seen["one column" if args[6] == 1 else "several columns"] += 1
        seen["active"] += bool(args[2].any())
    assert seen["one column"] > 10 and seen["several columns"] > 100, seen
    assert (seen["active"] > 10) == (prob.n_c > 0), seen
    assert compiled.passes_for(prob)[1] is not compiled.python_grad_pass


def test_the_grad_pass_needs_every_python_derivative(monkeypatch):
    # and so does the cost pass: both run in Python, decided without a self-check
    monkeypatch.setattr(compiled, "_verdicts", {})
    reference = (compiled.python_pass, compiled.python_grad_pass)
    for name in ("rhs_jac", "stage_cost_grad", "constraint_jac"):
        assert compiled.passes_for(dataclasses.replace(PVTOL, **{name: None})) == reference
    assert compiled.passes_for(dataclasses.replace(PVTOL, c_source=None)) == reference
    assert compiled._verdicts == {}


OTHER_KERNEL_CHECK = """
import ctypes, json, math
import numpy as np
from numpy._core import _multiarray_umath
from mpc_autotune import compiled, pvtol_problem

corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
corename.argtypes, corename.restype = [], ctypes.c_char_p
problem = pvtol_problem()
fast = compiled._bind_passes(problem)[1]
rng = np.random.default_rng(2)
same = []
for n_contr in (1, 2, 5):
    z = rng.uniform(-3.0, 3.0, 2 * n_contr)
    args = (problem, rng.uniform(problem.x_min, problem.x_max), problem.p_nom, np.array([0.5, -0.5, 1.0, 0.5]), z,
            8, n_contr, 3, 0.01, 0.03, 1.0e4)
    cost, _, states, mask = compiled.python_pass(*args)
    grad_args = (problem, states, mask, *args[2:])
    same.append(math.isfinite(cost) and fast(*grad_args).tobytes() == compiled.python_grad_pass(*grad_args).tobytes())
same.append(compiled.passes_for(problem)[1] is not compiled.python_grad_pass)
print(json.dumps({"core": corename().decode(), "same": same}))
"""


def test_the_grad_self_check_passes_under_another_blas_kernel():
    """As test_the_self_check_passes_under_another_blas_kernel: the products
    of the compiled gradient pass follow numpy's kernel too."""
    compiled_grad_pass(PVTOL)
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

