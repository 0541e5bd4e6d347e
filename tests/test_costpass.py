import dataclasses
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mpc_autotune import (DesignBounds, DesignVector, MpcSetting, RunConfig, TimingSpec, pvtol_problem, realize, run,
                          sample_shaping, solve)
from mpc_autotune import compiled, controller, pvtol
from conftest import cubic_problem, oscillator_problem

PVTOL = pvtol_problem()
TINY = dict(problem="pvtol", n_trials=2, nb=2, nsb=1, duration=0.1, timing_mode="cost-model", c_eval=1e-6, seed=3)

# PVTOL's c_source with one constant of rhs_jac changed, or of the terminal
# penalty's gradient; without the derivatives, and without the terminal callbacks
CHANGED_DERIVATIVE = PVTOL.c_source.replace("= p[1];", "= p[1] * 1.0000000000000002;")
CHANGED_TERMINAL = PVTOL.c_source.replace("dx[i] / norm;", "dx[i] / norm * 1.0000000000000002;")
# and the stage cost's input term 0.1 * u[1] * u[1]
CHANGED_INPUT_COST = PVTOL.c_source.replace("0.1 * u[1] * u[1]", "0.10000000000000002 * u[1] * u[1]")
VALUES_ONLY = PVTOL.c_source[: PVTOL.c_source.index("void rhs_jac")]
NO_TERMINAL = "\n\n".join(part for part in PVTOL.c_source.split("\n\n") if "terminal_penalty" not in part)


def compiled_objective(prob):
    """The compiled cost pass and terminal penalty, through a compiled solve
    whose budget cuts it after its first pass: (cost, RK steps) from
    (setting, x, p, q, z), as controller._cost_pass gives them."""
    run = compiled._bind_solve(prob)
    if run is None:
        pytest.skip("the compiled solve cannot be built here")

    def objective(setting, x, p, q, z):
        z_lo, z_hi = setting.z_bounds()
        _, cost, iterations, steps, _ = run[0](setting, x, p, q, z, z_lo, z_hi, 1.0, 1.0e-300)
        assert iterations == 0
        return cost, steps
    return objective


def setting_of(prob, n_pred, n_contr, n_steps, tau_u, rho_f=10.0, rho_constr=1.0e3):
    design = DesignVector(kappa=1, mu_d=0.0, n_pred=n_pred, n_contr=n_contr, rho_f=rho_f, rho_constr=rho_constr,
                          max_iter=1)
    return MpcSetting(prob, design, tau_u, n_steps)


def random_passes(prob, rng, draws, x_scale=1.0):
    """Arguments (setting, x, p, q, z) of random cost passes: tail periods
    (n_contr < n_pred), 1 to 10 steps per period, inputs from the whole box,
    states from the box scaled by x_scale, and penalty weights over three
    and seven decades."""
    for _ in range(draws):
        n_pred = int(rng.integers(1, 13))
        n_contr = int(rng.integers(1, n_pred + 1))
        setting = setting_of(prob, n_pred, n_contr, int(rng.integers(1, 11)), float(prob.tau * rng.integers(1, 11)),
                             float(10.0 ** rng.uniform(0.0, 3.0)), float(10.0 ** rng.uniform(0.0, 7.0)))
        yield (
            setting,
            x_scale * rng.uniform(prob.x_min, prob.x_max),
            prob.p_nom + prob.p_std * rng.standard_normal(prob.n_p),
            rng.uniform(prob.q_min, prob.q_max),
            rng.uniform(*setting.z_bounds()),
        )


def assert_same(want, got):
    assert float(got[0]).hex() == float(want[0]).hex()
    assert got[1] == want[1]


def test_compiled_pass_equals_the_python_pass_byte_for_byte_on_pvtol():
    fast = compiled_objective(PVTOL)
    rng = np.random.default_rng(31)
    seen = {"tail": 0, "active": 0, "large angle": 0}
    # states up to 2000 times the sampling box: |theta| up to 1e3, where sin and cos reduce their argument
    for x_scale in (1.0, 20.0, 2000.0):
        for args in random_passes(PVTOL, rng, 150, x_scale):
            want = controller._cost_pass(*args)
            assert_same(want, fast(*args))
            assert math.isfinite(want[0])
            design = args[0].design
            seen["tail"] += design.n_contr < design.n_pred
            seen["active"] += bool(want[2][1].any())
            seen["large angle"] += abs(args[1][2]) > 100.0
    assert all(n > 50 for n in seen.values()), seen


def test_compiled_pass_equals_the_python_pass_without_constraints():
    prob = oscillator_problem()
    fast = compiled_objective(prob)
    for args in random_passes(prob, np.random.default_rng(32), 200, x_scale=3.0):
        want = controller._cost_pass(*args)
        assert want[2][1].shape == (args[0].design.n_pred, 0)
        assert_same(want, fast(*args))
    assert compiled.solve_for(prob) is not None


def test_an_overflowing_pass_diverges_with_the_same_steps():
    prob = cubic_problem()
    fast = compiled_objective(prob)
    diverged = 0
    for args in random_passes(prob, np.random.default_rng(33), 300, x_scale=10.0):
        with np.errstate(all="ignore"):
            want = controller._cost_pass(*args)
        assert_same(want, fast(*args))
        diverged += want[0] == math.inf
    assert 50 < diverged < 300


def test_a_math_domain_error_diverges_as_the_compiled_pass_does():
    # theta overflows within a period, then math.sin(inf) raises ValueError in
    # the Python pass, where the compiled pass computes NaN and diverges
    fast = compiled_objective(PVTOL)
    x = np.array([0.0, 0.0, 1.0e308, 0.0, 0.0, 1.0e308])
    with np.errstate(all="ignore"):
        for n_pred, n_contr, n_steps in ((1, 1, 1), (3, 2, 3), (6, 2, 4)):
            args = (setting_of(PVTOL, n_pred, n_contr, n_steps, 0.05 * n_steps), x, PVTOL.p_nom, PVTOL.q_min,
                    np.tile(PVTOL.u_trim, n_contr))
            want = controller._cost_pass(*args)
            assert want[:2] == fast(*args) == (math.inf, n_steps)
    # whole solves on both paths: both diverge in their first pass
    design = MpcSetting.from_design(PVTOL, realize(sample_shaping(np.random.default_rng(1)), 0.5, DesignBounds())).design
    results = [
        solve(MpcSetting.from_design(prob, design), x, PVTOL.p_nom, PVTOL.q_min, np.tile(PVTOL.u_trim, design.n_contr),
              TimingSpec("cost-model", c_eval=1e-6))
        for prob in (PVTOL, dataclasses.replace(PVTOL, c_source=None))
    ]
    assert results[0].diverged and results[1].diverged and results[0].work_units == results[1].work_units


def test_a_self_check_draw_that_diverges_by_a_math_domain_error_keeps_the_compiled_pass(monkeypatch):
    # from this state the compiled pass flags constraints of the diverged
    # period, whose constraint_map gets NaN, while the Python pass stops at
    # the exception; a diverged record is never read, so the solves agree
    run = compiled._bind_solve(PVTOL)
    if run is None:
        pytest.skip("the compiled solve cannot be built here")
    x = np.array([0.0, 0.0, 1.0e308, 0.0, 0.0, 1.0e308])
    setting = setting_of(PVTOL, 3, 2, 3, 0.15)
    diverging = (setting, x, PVTOL.p_nom, PVTOL.q_min, np.tile(PVTOL.u_trim, 2), *setting.z_bounds(), 1e-6, None)
    with np.errstate(all="ignore"):
        want, got = controller._descend(*diverging), run[0](*diverging)
    assert want[4] and compiled._same(want, got)
    draws = compiled._solve_draws
    monkeypatch.setattr(compiled, "_solve_draws", lambda problem: [diverging, *draws(problem)])
    monkeypatch.setattr(compiled, "_verdicts", {})
    assert compiled.solve_for(PVTOL) is not None


def test_a_changed_constant_fails_the_self_check(fresh_build):
    altered = dataclasses.replace(PVTOL, c_source=PVTOL.c_source.replace("- 1.0;", "- 1.0000000000000002;"))
    assert altered.c_source != PVTOL.c_source
    if compiled.load("passes", altered.c_source) is None:
        pytest.skip("the compiled solve cannot be built here")
    assert compiled.solve_for(altered) is None
    assert compiled.solve_for(PVTOL) is not None
    # the key holds the callbacks: a replaced rhs is checked anew, and fails
    assert compiled.solve_for(dataclasses.replace(PVTOL, rhs=lambda x, u, p: PVTOL.rhs(x, u, (p[0], p[1] * 1.5)))) \
        is None
    # a changed constant in a derivative, or in the terminal penalty's
    # gradient, fails the one self-check too: the solve runs in Python
    for c_source in (CHANGED_DERIVATIVE, CHANGED_TERMINAL):
        altered = dataclasses.replace(PVTOL, c_source=c_source)
        assert c_source != PVTOL.c_source and compiled._bind_solve(altered) is not None
        assert compiled.solve_for(altered) is None
    # a one-ulp change of the stage cost's input term passes every solve
    # draw; the closed-loop draws, which compare the closed-loop cost, fail it
    altered = dataclasses.replace(PVTOL, c_source=CHANGED_INPUT_COST)
    run = compiled._bind_solve(altered)
    assert CHANGED_INPUT_COST != PVTOL.c_source and run is not None
    with np.errstate(all="ignore"):
        assert all(compiled._same(controller._descend(*args), run[0](*args)) for args in compiled._solve_draws(PVTOL))
    assert compiled.solve_for(altered) is None


def test_a_failed_build_is_recorded_and_not_tried_again(tmp_path, fresh_build, monkeypatch):
    # a c_source without the terminal callbacks fails to link; the cache
    # records the failure, so a later process starts no compiler for it
    assert compiled.load("passes", NO_TERMINAL) is None
    assert fresh_build("passes") == [os.getpid()]
    assert [path.suffix for path in (tmp_path / "cache").iterdir()] == [".failed"]
    compiled.load.cache_clear()
    assert compiled.load("passes", NO_TERMINAL) is None
    assert fresh_build("passes") == [os.getpid()]
    # a missing compiler is not recorded: once there is one, the library is built
    compiled.load.cache_clear()
    cc = compiled.CC
    monkeypatch.setattr(compiled, "CC", "no-such-compiler")
    assert compiled.load("passes", PVTOL.c_source) is None
    compiled.load.cache_clear()
    monkeypatch.setattr(compiled, "CC", cc)
    assert compiled.load("passes", PVTOL.c_source) is not None
    assert fresh_build("passes") == [os.getpid()] * 2


def tiny_artifacts(out: Path, **changes) -> list[bytes]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(RunConfig(**{**TINY, **changes}, out_dir=str(out)))
    return [(out / name).read_bytes() for name in ("settings.csv", "trace.json")]


def ran_compiled(stem: str = "passes") -> bool:
    """Whether the run's solve (one verdict; none where it was decided
    without a self-check), or its recurrence (one verdict per size, all
    alike), ran compiled."""
    runs = {found for key, found in compiled._verdicts.items() if key[0] == stem}
    if stem == "sensitivity":
        assert runs and (compiled.numpy_recurrence not in runs or runs == {compiled.numpy_recurrence})
        return compiled.numpy_recurrence not in runs
    assert len(runs) <= 1
    return runs not in (set(), {None})


def test_every_fallback_gives_the_same_artifacts(tmp_path, fresh_build, monkeypatch):
    cc = compiled.CC
    cache = tmp_path / "cache"
    want = tiny_artifacts(tmp_path / "compiled")
    assert ran_compiled() and ran_compiled("sensitivity")
    assert fresh_build("passes") == fresh_build() == [os.getpid()]
    assert sorted(path.name.split("-")[0] for path in cache.iterdir()) == ["passes", "sensitivity"]

    def fresh():
        monkeypatch.setattr(compiled, "_verdicts", {})
        compiled.load.cache_clear()

    def libraries():
        return sorted(path for path in cache.iterdir() if path.suffix == ".so")

    # a c_source with one constant changed, of a value callback, of a
    # derivative or of the terminal gradient: built, but the self-check
    # fails, and the Python solve runs on the compiled recurrence
    for label, c_source in (("mismatch", pvtol.PVTOL_C_SOURCE.replace("- 1.0;", "- 1.0000000000000002;")),
                            ("derivative-mismatch", CHANGED_DERIVATIVE), ("terminal-mismatch", CHANGED_TERMINAL)):
        fresh()
        monkeypatch.setattr(pvtol, "PVTOL_C_SOURCE", c_source)
        assert tiny_artifacts(tmp_path / label) == want and not ran_compiled() and ran_compiled("sensitivity")
    assert fresh_build("passes") == [os.getpid()] * 4
    # a c_source without the derivatives or without the terminal callbacks,
    # or one that does not compile: the build fails, and the cache gains no
    # library, only the record of the failure
    cached = libraries()
    for label, c_source in (("values-only", VALUES_ONLY), ("no-terminal", NO_TERMINAL),
                            ("failed-build", PVTOL.c_source + "\nnot C at all\n")):
        fresh()
        monkeypatch.setattr(pvtol, "PVTOL_C_SOURCE", c_source)
        assert tiny_artifacts(tmp_path / label) == want and not ran_compiled()
        assert libraries() == cached
    assert fresh_build("passes") == [os.getpid()] * 7
    assert len([path for path in cache.iterdir() if path.suffix == ".failed"]) == 3
    monkeypatch.setattr(pvtol, "PVTOL_C_SOURCE", PVTOL.c_source)
    # any C file missing, as from an install without the package data: the libraries it is part of fall back
    sources = compiled.SOURCES
    c_files = {"sensitivity.c", "passes.c"}
    for missing in sorted(c_files):
        fresh()
        kept = tmp_path / f"without-{missing}"
        kept.mkdir()
        for name in c_files - {missing}:
            shutil.copy(sources / name, kept)
        monkeypatch.setattr(compiled, "SOURCES", kept)
        assert tiny_artifacts(tmp_path / f"no-{missing}") == want and not ran_compiled()  # passes.c follows sensitivity.c
        assert ran_compiled("sensitivity") == (missing != "sensitivity.c")
    monkeypatch.setattr(compiled, "SOURCES", sources)
    # a BLAS routine missing from numpy's BLAS, as with MKL or a system BLAS: nothing is built
    fresh()
    blas = compiled.BLAS_SYMBOLS
    monkeypatch.setattr(compiled, "BLAS_SYMBOLS", blas[:3] + ("no_such_cblas_ddot",))
    assert tiny_artifacts(tmp_path / "no-blas-symbol") == want and not ran_compiled() and not ran_compiled("sensitivity")
    monkeypatch.setattr(compiled, "BLAS_SYMBOLS", blas)
    assert fresh_build("passes") == [os.getpid()] * 7 and fresh_build() == [os.getpid()]
    # no compiler
    fresh()
    monkeypatch.setattr(compiled, "CC", "no-such-compiler")
    assert tiny_artifacts(tmp_path / "no-compiler") == want and not ran_compiled() and not ran_compiled("sensitivity")
    # a Python derivative left to finite differences, the terminal gradient's
    # or a constraint Jacobian's: the solve runs in Python without a
    # self-check, as without a compiler
    for name in ("pvtol_terminal_grad", "pvtol_constraint_jac"):
        monkeypatch.setattr(compiled, "CC", "no-such-compiler")
        real = getattr(pvtol, name)
        monkeypatch.setattr(pvtol, name, None)
        fresh()
        by_differences = tiny_artifacts(tmp_path / f"{name}-no-compiler")
        monkeypatch.setattr(compiled, "CC", cc)
        fresh()
        assert tiny_artifacts(tmp_path / name) == by_differences
        assert not [key for key in compiled._verdicts if key[0] == "passes"] and ran_compiled("sensitivity")
        monkeypatch.setattr(pvtol, name, real)
    assert fresh_build("passes") == [os.getpid()] * 7


def test_every_c_file_is_package_data():
    """An install without a C file still runs, on the fallback, so only this
    catches a C file missing from pyproject.toml's package data."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    listed = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]["mpc_autotune"]
    c_files = {path.name for path in compiled.SOURCES.glob("*.c")}
    assert {f"{stem}.c" for stem in compiled.BINDINGS} <= c_files <= set(listed)


def test_a_pooled_run_builds_the_cost_pass_once_before_the_fork(tmp_path, fresh_build, monkeypatch):
    # the cost pass is part of the compiled solve and loop, which the parent
    # builds and self-checks before the fork, and the workers run: no worker
    # binds the library or runs a self-check, and each simulation of a
    # worker is one call of the compiled loop
    log = tmp_path / "log"

    def logged(name, fn):
        def logging(*args):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {name}\n")
            return fn(*args)
        return logging

    def logged_bind(problem):
        fast = real(problem)
        return fast and (logged("solve", fast[0]), logged("loop", fast[1]))

    real = compiled._bind_solve
    monkeypatch.setattr(compiled, "_bind_solve", logged("bind", logged_bind))
    monkeypatch.setattr(compiled, "_agree", logged("self-check", compiled._agree))
    run(RunConfig(**TINY, jobs=2, out_dir=str(tmp_path / "out")))
    assert fresh_build("passes") == [os.getpid()]
    assert ran_compiled()
    ran: dict[int, set] = {}
    for pid, name in map(str.split, log.read_text().splitlines()):
        ran.setdefault(int(pid), set()).add(name)
    # the self-check runs both entries in the parent
    assert ran.pop(os.getpid()) == {"bind", "self-check", "solve", "loop"}
    assert ran and all(names == {"loop"} for names in ran.values())


def apply_fallback(case, tmp_path, monkeypatch):
    """Leave PVTOL's solve to Python, one way or another."""
    if case == "no-compiler":
        monkeypatch.setattr(compiled, "CC", "no-such-compiler")
    elif case == "no-passes.c":  # as from an install without the package data
        kept = tmp_path / "sources"
        kept.mkdir()
        shutil.copy(compiled.SOURCES / "sensitivity.c", kept)
        monkeypatch.setattr(compiled, "SOURCES", kept)
    elif case == "values-only-c-source":
        monkeypatch.setattr(pvtol, "PVTOL_C_SOURCE", VALUES_ONLY)
    elif case == "changed-derivative-constant":
        monkeypatch.setattr(pvtol, "PVTOL_C_SOURCE", CHANGED_DERIVATIVE)
    elif case == "finite-difference-constraint-jac":
        monkeypatch.setattr(pvtol, "pvtol_constraint_jac", None)


@pytest.mark.parametrize("case", ["compiled", "no-compiler", "no-passes.c", "values-only-c-source",
                                  "changed-derivative-constant", "finite-difference-constraint-jac"])
def test_a_pooled_run_builds_the_grad_pass_once_before_the_fork(case, tmp_path, fresh_build, monkeypatch):
    """The parent builds and self-checks the solve, whose gradient passes
    are compiled or not, and the workers run it, the compiled one where it
    passed, without compiling anything; the pooled run's artifacts are
    those of a run in one process."""
    apply_fallback(case, tmp_path, monkeypatch)
    log = tmp_path / "solves"

    def logged(name, real):
        def logging_solve(*args):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {name}\n")
            return real(*args)
        return logging_solve

    def logged_bind(problem):
        fast = bind(problem)
        return fast and tuple(logged("compiled", entry) for entry in fast)

    bind = compiled._bind_solve
    monkeypatch.setattr(compiled, "_bind_solve", logged_bind)
    monkeypatch.setattr(controller, "_descend", logged("python", controller._descend))
    artifacts = []
    for jobs in (2, 1):
        out = tmp_path / f"jobs-{jobs}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(RunConfig(**TINY, jobs=jobs, out_dir=str(out)))
        artifacts.append([(out / name).read_bytes() for name in ("settings.csv", "trace.json")])
        if jobs == 2:
            # the self-check runs both solves in the parent
            in_workers = {name for pid, name in map(str.split, log.read_text().splitlines()) if int(pid) != os.getpid()}
            assert in_workers == {"compiled" if case == "compiled" else "python"}
            for stem in ("passes", "sensitivity"):
                assert set(fresh_build(stem)) <= {os.getpid()}
            verdicts = [found for key, found in compiled._verdicts.items() if key[0] == "passes"]
            assert len(verdicts) == (case != "finite-difference-constraint-jac")
            assert (verdicts != [] and verdicts[0] is not None) == (case == "compiled")
        monkeypatch.setattr(compiled, "_verdicts", {})
        compiled.load.cache_clear()
    assert artifacts[0] == artifacts[1]
    # a library is built once; a build that fails is recorded, so the next run does not try again
    builds = {"compiled": 1, "changed-derivative-constant": 1, "values-only-c-source": 1}.get(case, 0)
    assert fresh_build("passes") == [os.getpid()] * builds


NO_LAZY_NUMPY_MA = """
import sys
from mpc_autotune import RunConfig, run
run(RunConfig(**{tiny!r}, out_dir=sys.argv[1]))
print("numpy.ma" in sys.modules)
"""


def test_a_tuning_run_does_not_import_numpy_ma(tmp_path):
    """numpy.ma is imported on first use by functions such as np.unique; a
    run that did so would hold about a megabyte more."""
    src = str(Path(compiled.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", NO_LAZY_NUMPY_MA.format(tiny=TINY), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "False"
