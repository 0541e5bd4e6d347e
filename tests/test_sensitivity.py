import dataclasses
import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mpc_autotune import (
    DesignBounds,
    MpcSetting,
    RunConfig,
    generate_cloud,
    open_loop_gradient,
    pvtol_problem,
    realize,
    run,
    sample_shaping,
)
from mpc_autotune import compiled

# without c_source, so that its gradient passes run in Python, on the recurrence
PVTOL = dataclasses.replace(pvtol_problem(), c_source=None)
TINY = dict(problem="pvtol", n_trials=2, nb=2, nsb=1, duration=0.1, timing_mode="cost-model", c_eval=1e-6, seed=3)


@pytest.fixture
def recurrence():
    run_pass = compiled._bind_recurrence()
    if run_pass is None:
        pytest.skip("the compiled recurrence cannot be built here")
    return run_pass


def recurrence_verdicts() -> dict:
    return {key[1:]: found for key, found in compiled._verdicts.items() if key[0] == "sensitivity"}


def gradients(prob, draws=40):
    """Gradients of random PVTOL-shaped passes, as bytes, with every
    warning raised as an error."""
    rng = np.random.default_rng(3)
    scenarios = generate_cloud(prob, 5, seed=3, duration=0.5)
    out = []
    for n in range(draws):
        setting = MpcSetting.from_design(prob, realize(sample_shaping(rng), rng.uniform(), DesignBounds()))
        scenario = scenarios[n % len(scenarios)]
        z = rng.uniform(*setting.z_bounds())
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            out.append(open_loop_gradient(setting, scenario.x0, scenario.p, scenario.q, z).tobytes())
    return out


def numpy_gradients(prob, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(compiled, "_bind_recurrence", lambda: None)
        m.setattr(compiled, "_verdicts", {})  # so that no verdict of this process's is read or kept
        return gradients(prob)


@pytest.mark.parametrize("n_x, n_z", [(1, 1), (1, 3), (2, 1), (6, 1), (6, 2), (6, 29)])
def test_compiled_recurrence_equals_the_numpy_loop_byte_for_byte(recurrence, n_x, n_z):
    # (1, 1) multiplies, (1, n) is numpy's axpy into zeros, (n, 1) gemv and the rest gemm
    rng = np.random.default_rng(100 * n_x + n_z)
    for _ in range(50):
        n_pred, n_steps = rng.integers(1, 5, size=2).tolist()
        n_points = 4 * n_pred * n_steps
        A = rng.standard_normal((n_points, n_x, n_x))
        B = rng.standard_normal((n_points, n_x, n_z))
        for M in (A, B):  # zeros of both signs: the axpy rule skips a zero factor, even on inf
            M[rng.random(M.shape) < 0.2] = 0.0
            M[rng.random(M.shape) < 0.1] = -0.0
        A[rng.random(A.shape) < 0.01] = np.inf
        h = rng.uniform(0.01, 0.5)
        with np.errstate(all="ignore"):
            want = compiled.numpy_recurrence(A, B, n_pred, n_steps, h)
            assert recurrence(A, B, n_pred, n_steps, h).tobytes() == want.tobytes()


def test_the_library_is_compiled_once_into_a_user_only_cache(tmp_path, fresh_build):
    assert compiled.load("sensitivity") is not None
    compiled.load.cache_clear()
    assert compiled.load("sensitivity") is not None  # the second process-level load reads the cache
    assert fresh_build() == [os.getpid()]
    cache = tmp_path / "cache"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert [p.suffix for p in cache.iterdir()] == [".so"]  # no partial file is left behind


def test_a_cache_others_can_write_is_not_used(tmp_path, fresh_build):
    cache = tmp_path / "cache"
    cache.mkdir()
    cache.chmod(0o777)
    assert compiled.load("sensitivity") is None
    assert fresh_build() == [] and list(cache.iterdir()) == []


def test_without_a_compiler_a_run_gives_the_same_artifacts(tmp_path, recurrence, fresh_build, monkeypatch):
    artifacts = []
    for label in ("compiled", "no-compiler"):
        out = tmp_path / label
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(RunConfig(**TINY, out_dir=str(out)))
        artifacts.append([(out / name).read_bytes() for name in ("settings.csv", "trace.json")])
        monkeypatch.setattr(compiled, "CC", "no-such-compiler")
        monkeypatch.setattr(compiled, "_verdicts", {})
        compiled.load.cache_clear()
    assert compiled.load("sensitivity") is None
    assert artifacts[0] == artifacts[1]
    assert fresh_build() == [os.getpid()]  # the compiled run's build; none without a compiler


def test_a_missing_blas_symbol_keeps_the_numpy_path_without_compiling(fresh_build, monkeypatch):
    # as with numpy on MKL or a system BLAS, whose routines have other names
    want = numpy_gradients(PVTOL, monkeypatch)
    monkeypatch.setattr(compiled, "BLAS_SYMBOLS", compiled.BLAS_SYMBOLS[:2] + ("no_such_cblas_daxpy",))
    assert compiled._bind_recurrence() is None
    assert gradients(PVTOL) == want
    assert fresh_build() == []


def test_a_self_check_mismatch_keeps_the_numpy_path(recurrence, monkeypatch):
    want = numpy_gradients(PVTOL, monkeypatch)
    real = compiled._compiled_recurrence

    def one_ulp_off(*args):
        S_at = real(*args)
        S_at[-1, 0, 0] = np.nextafter(S_at[-1, 0, 0], np.inf)
        return S_at

    monkeypatch.setattr(compiled, "_compiled_recurrence", one_ulp_off)
    monkeypatch.setattr(compiled, "_verdicts", {})
    assert gradients(PVTOL) == want
    verdicts = recurrence_verdicts()
    assert verdicts and all(found is compiled.numpy_recurrence for found in verdicts.values())


def test_a_transposed_jacobian_keeps_the_numpy_path(recurrence, monkeypatch):
    def transposed_rhs_jac(x, u, p):
        A, B = PVTOL.rhs_jac(x, u, p)
        return np.ascontiguousarray(np.swapaxes(A, -1, -2)).swapaxes(-1, -2), B  # equal values, not C-contiguous

    prob = dataclasses.replace(PVTOL, rhs_jac=transposed_rhs_jac)
    want = numpy_gradients(prob, monkeypatch)
    monkeypatch.setattr(compiled, "_verdicts", {})
    assert gradients(prob) == want
    assert recurrence_verdicts() == {}  # no pass got as far as the self-check


def test_a_pooled_run_builds_the_library_once_before_the_fork(tmp_path, fresh_build, monkeypatch):
    # on the Python solve, whose gradient passes run the recurrence
    monkeypatch.setattr(compiled, "_bind_solve", lambda problem: None)
    passes = tmp_path / "passes"
    real = compiled._compiled_recurrence

    def logged(*args):
        with open(passes, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(compiled, "_compiled_recurrence", logged)
    run(RunConfig(**TINY, jobs=2, out_dir=str(tmp_path / "out")))
    assert fresh_build() == [os.getpid()]
    # the parent self-checked every size a candidate can have; the workers ran the passes
    verdicts = recurrence_verdicts()
    assert sorted(verdicts) == [(6, 2 * n) for n in range(1, RunConfig().n_contr_max + 1)]
    assert all(found is not compiled.numpy_recurrence for found in verdicts.values())
    assert {int(pid) for pid in passes.read_text().split()} - {os.getpid()}


OTHER_KERNEL_CHECK = """
import ctypes, json
import numpy as np
from numpy._core import _multiarray_umath
from mpc_autotune import compiled

corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
corename.argtypes, corename.restype = [], ctypes.c_char_p
run = compiled._bind_recurrence()
rng = np.random.default_rng(1)
same = []
for n_z in (1, 2, 4, 29):
    A = rng.standard_normal((48, 6, 6)) / 6
    B = rng.standard_normal((48, 6, n_z))
    got = run(A, B, 4, 3, 0.1).tobytes()
    same.append(compiled._recurrence_for(6, n_z) is not compiled.numpy_recurrence
                and got == compiled.numpy_recurrence(A, B, 4, 3, 0.1).tobytes())
print(json.dumps({"core": corename().decode(), "same": same}))
"""


def test_the_self_check_passes_under_another_blas_kernel(recurrence):
    """OPENBLAS_CORETYPE, set for a child process only, picks another
    kernel, whose bits differ from the FMA kernels' (ROADMAP, "Float
    environment"); the compiled recurrence follows numpy there too."""
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
