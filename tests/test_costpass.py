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

from mpc_autotune import DesignBounds, MpcSetting, RunConfig, pvtol_problem, realize, run, sample_shaping
from mpc_autotune import compiled, controller, pvtol
from conftest import cubic_problem, oscillator_problem

PVTOL = pvtol_problem()
TINY = dict(problem="pvtol", n_trials=2, nb=2, nsb=1, duration=0.1, timing_mode="cost-model", c_eval=1e-6, seed=3)

# PVTOL's c_source with one constant of rhs_jac changed, and without the derivatives
CHANGED_DERIVATIVE = PVTOL.c_source.replace("= p[1];", "= p[1] * 1.0000000000000002;")
VALUES_ONLY = PVTOL.c_source[: PVTOL.c_source.index("void rhs_jac")]
PYTHON_PASSES = (compiled.python_pass, compiled.python_grad_pass)


def compiled_pass(prob):
    passes = compiled._bind_passes(prob)
    if passes is None:
        pytest.skip("the compiled passes cannot be built here")
    return passes[0]


def random_passes(prob, rng, draws, x_scale=1.0):
    """Arguments of random passes: tail periods (n_contr < n_pred), 1 to 10
    steps per period, inputs from the whole box, states from the box
    scaled by x_scale, and penalty weights over seven decades."""
    for _ in range(draws):
        n_pred = int(rng.integers(1, 13))
        n_contr = int(rng.integers(1, n_pred + 1))
        n_steps = int(rng.integers(1, 11))
        tau_u = float(prob.tau * rng.integers(1, 11))
        yield (
            prob,
            x_scale * rng.uniform(prob.x_min, prob.x_max),
            prob.p_nom + prob.p_std * rng.standard_normal(prob.n_p),
            rng.uniform(prob.q_min, prob.q_max),
            rng.uniform(np.tile(prob.u_min, n_contr), np.tile(prob.u_max, n_contr)),
            n_pred, n_contr, n_steps, tau_u / n_steps, tau_u, float(10.0 ** rng.uniform(0.0, 7.0)),
        )


def assert_same(want, got):
    cost, steps, states, mask = want
    assert float(got[0]).hex() == float(cost).hex()
    assert got[1] == steps
    assert got[2][: len(states)].tobytes() == states.tobytes()
    assert got[3].dtype == np.int8 and got[3].tobytes() == mask.tobytes()


def test_compiled_pass_equals_the_python_pass_byte_for_byte_on_pvtol():
    fast = compiled_pass(PVTOL)
    rng = np.random.default_rng(31)
    seen = {"tail": 0, "active": 0, "large angle": 0}
    # states up to 2000 times the sampling box: |theta| up to 1e3, where sin and cos reduce their argument
    for x_scale in (1.0, 20.0, 2000.0):
        for args in random_passes(PVTOL, rng, 150, x_scale):
            want = compiled.python_pass(*args)
            got = fast(*args)
            assert_same(want, got)
            assert math.isfinite(want[0]) and got[2].shape == (4 * args[5] * args[7] + 1, 6)
            seen["tail"] += args[6] < args[5]
            seen["active"] += bool(want[3].any())
            seen["large angle"] += abs(args[1][2]) > 100.0
    assert all(n > 50 for n in seen.values()), seen


def test_compiled_pass_equals_the_python_pass_without_constraints():
    prob = oscillator_problem()
    fast = compiled_pass(prob)
    for args in random_passes(prob, np.random.default_rng(32), 200, x_scale=3.0):
        want = compiled.python_pass(*args)
        assert want[3].shape == (args[5], 0)
        assert_same(want, fast(*args))
    assert compiled.passes_for(prob)[0] is not compiled.python_pass


def test_an_overflowing_pass_diverges_with_the_same_steps():
    prob = cubic_problem()
    fast = compiled_pass(prob)
    diverged = 0
    for args in random_passes(prob, np.random.default_rng(33), 300, x_scale=10.0):
        with np.errstate(all="ignore"):
            want = compiled.python_pass(*args)
        assert_same(want, fast(*args))
        diverged += want[0] == math.inf
    assert 50 < diverged < 300


def test_a_math_domain_error_diverges_as_the_compiled_pass_does():
    # theta overflows within a period, then math.sin(inf) raises ValueError in
    # the Python pass, where the compiled pass computes NaN and diverges
    fast = compiled_pass(PVTOL)
    x = np.array([0.0, 0.0, 1.0e308, 0.0, 0.0, 1.0e308])
    with np.errstate(all="ignore"):
        for n_pred, n_contr, n_steps in ((1, 1, 1), (3, 2, 3), (6, 2, 4)):
            args = (PVTOL, x, PVTOL.p_nom, PVTOL.q_min, np.tile(PVTOL.u_trim, n_contr), n_pred, n_contr, n_steps,
                    0.05, 0.05 * n_steps, 1.0e3)
            want = compiled.python_pass(*args)
            got = fast(*args)
            assert want[:2] == got[:2] == (math.inf, n_steps)
            assert got[2][: len(want[2])].tobytes() == want[2].tobytes()
            assert compiled._same(want, got)  # the masks may differ: a diverged record is never read
    # controller._cost_pass on both paths
    design = MpcSetting.from_design(PVTOL, realize(sample_shaping(np.random.default_rng(1)), 0.5, DesignBounds())).design
    passes = [
        controller._cost_pass(MpcSetting.from_design(prob, design), x, PVTOL.p_nom, PVTOL.q_min,
                              np.tile(PVTOL.u_trim, design.n_contr))[:2]
        for prob in (PVTOL, dataclasses.replace(PVTOL, c_source=None))
    ]
    assert passes[0] == passes[1] and passes[0][0] == math.inf


def test_a_self_check_draw_that_diverges_by_a_math_domain_error_keeps_the_compiled_pass(monkeypatch):
    # from this state C flags constraints of the diverged period, whose
    # constraint_map gets NaN, while the Python pass stops at the exception
    fast = compiled_pass(PVTOL)
    x = np.array([0.0, 0.0, 1.0e308, 0.0, 0.0, 1.0e308])
    diverging = (PVTOL, x, PVTOL.p_nom, PVTOL.q_min, np.tile(PVTOL.u_trim, 2), 3, 2, 3, 0.05, 0.15, 1.0e3)
    with np.errstate(all="ignore"):
        want, got = compiled.python_pass(*diverging), fast(*diverging)
    assert want[0] == got[0] == math.inf and want[3].tobytes() != got[3].tobytes()
    draws = compiled._pass_draws
    monkeypatch.setattr(compiled, "_pass_draws", lambda problem: [diverging, *draws(problem)])
    monkeypatch.setattr(compiled, "_verdicts", {})
    assert compiled.passes_for(PVTOL) != PYTHON_PASSES


def test_a_changed_constant_fails_the_self_check(fresh_build):
    altered = dataclasses.replace(PVTOL, c_source=PVTOL.c_source.replace("- 1.0;", "- 1.0000000000000002;"))
    assert altered.c_source != PVTOL.c_source
    if compiled.load("passes", altered.c_source) is None:
        pytest.skip("the compiled passes cannot be built here")
    assert compiled.passes_for(altered) == PYTHON_PASSES
    assert compiled.passes_for(PVTOL) != PYTHON_PASSES
    # the key holds the callbacks: a replaced rhs is checked anew, and fails
    assert compiled.passes_for(dataclasses.replace(PVTOL, rhs=lambda x, u, p: PVTOL.rhs(x, u, (p[0], p[1] * 1.5)))) \
        == PYTHON_PASSES
    # a changed constant in a derivative fails the one self-check too: both passes run in Python
    altered = dataclasses.replace(PVTOL, c_source=CHANGED_DERIVATIVE)
    assert compiled._bind_passes(altered) is not None
    assert compiled.passes_for(altered) == PYTHON_PASSES


def tiny_artifacts(out: Path, **changes) -> list[bytes]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(RunConfig(**{**TINY, **changes}, out_dir=str(out)))
    return [(out / name).read_bytes() for name in ("settings.csv", "trace.json")]


def ran_compiled(stem: str = "passes") -> bool:
    """Whether the run's passes (one verdict for both; none where they were
    decided without a self-check), or its recurrence (one verdict per size,
    all alike), ran compiled."""
    runs = {found for key, found in compiled._verdicts.items() if key[0] == stem}
    if stem == "sensitivity":
        assert runs and (compiled.numpy_recurrence not in runs or runs == {compiled.numpy_recurrence})
        return compiled.numpy_recurrence not in runs
    assert len(runs) <= 1
    return bool(runs) and runs != {PYTHON_PASSES}


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

    # a c_source with one constant changed, of a value callback or of a
    # derivative: built, but the self-check fails, and both passes run in Python
    for label, c_source in (("mismatch", pvtol.PVTOL_C_SOURCE.replace("- 1.0;", "- 1.0000000000000002;")),
                            ("derivative-mismatch", CHANGED_DERIVATIVE)):
        fresh()
        monkeypatch.setattr(pvtol, "PVTOL_C_SOURCE", c_source)
        assert tiny_artifacts(tmp_path / label) == want and not ran_compiled() and ran_compiled("sensitivity")
    # a c_source without the derivatives, or one that does not compile: the
    # build fails and leaves nothing in the cache
    cached = sorted(cache.iterdir())
    for label, c_source in (("values-only", VALUES_ONLY), ("failed-build", PVTOL.c_source + "\nnot C at all\n")):
        fresh()
        monkeypatch.setattr(pvtol, "PVTOL_C_SOURCE", c_source)
        assert tiny_artifacts(tmp_path / label) == want and not ran_compiled()
        assert sorted(cache.iterdir()) == cached
    assert fresh_build("passes") == [os.getpid()] * 5
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
    assert fresh_build("passes") == [os.getpid()] * 5 and fresh_build() == [os.getpid()]
    # no compiler
    fresh()
    monkeypatch.setattr(compiled, "CC", "no-such-compiler")
    assert tiny_artifacts(tmp_path / "no-compiler") == want and not ran_compiled() and not ran_compiled("sensitivity")
    # a Python derivative left to finite differences: both passes run in
    # Python without a self-check, as without a compiler
    monkeypatch.setattr(pvtol, "pvtol_constraint_jac", None)
    fresh()
    by_differences = tiny_artifacts(tmp_path / "differences-no-compiler")
    monkeypatch.setattr(compiled, "CC", cc)
    fresh()
    assert tiny_artifacts(tmp_path / "differences") == by_differences
    assert not [key for key in compiled._verdicts if key[0] == "passes"] and ran_compiled("sensitivity")
    assert fresh_build("passes") == [os.getpid()] * 5


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
    passes = tmp_path / "passes"
    real = compiled._bind_passes

    def logged(problem):
        found = real(problem)
        if found is None:
            return None
        fast = found[0]

        def logging_pass(*pass_args):
            with open(passes, "a") as f:
                f.write(f"{os.getpid()}\n")
            return fast(*pass_args)
        return (logging_pass, *found[1:])

    monkeypatch.setattr(compiled, "_bind_passes", logged)
    run(RunConfig(**TINY, jobs=2, out_dir=str(tmp_path / "out")))
    assert fresh_build("passes") == [os.getpid()]
    assert ran_compiled()  # the parent self-checked; the workers ran the passes
    assert {int(pid) for pid in passes.read_text().split()} - {os.getpid()}


def apply_fallback(case, tmp_path, monkeypatch):
    """Leave PVTOL's passes to Python, one way or another."""
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
    """The parent builds and self-checks the cost and gradient passes,
    compiled or not, and the workers run them, the compiled ones where they
    passed, without compiling anything; the pooled run's artifacts are
    those of a run in one process."""
    apply_fallback(case, tmp_path, monkeypatch)
    log = tmp_path / "passes"

    def logged(name, real):
        def logging_pass(*args):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {name}\n")
            return real(*args)
        return logging_pass

    def logged_bind(problem):
        passes = bind(problem)
        return passes and (logged("compiled-cost", passes[0]), logged("compiled-gradient", passes[1]))

    bind = compiled._bind_passes
    monkeypatch.setattr(compiled, "_bind_passes", logged_bind)
    monkeypatch.setattr(controller, "_cost_pass", logged("cost", controller._cost_pass))
    monkeypatch.setattr(controller, "_grad_pass", logged("gradient", controller._grad_pass))
    artifacts = []
    for jobs in (2, 1):
        out = tmp_path / f"jobs-{jobs}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(RunConfig(**TINY, jobs=jobs, out_dir=str(out)))
        artifacts.append([(out / name).read_bytes() for name in ("settings.csv", "trace.json")])
        if jobs == 2:
            in_workers = {name for pid, name in map(str.split, log.read_text().splitlines()) if int(pid) != os.getpid()}
            assert in_workers == {"cost", "gradient"} | ({"compiled-cost", "compiled-gradient"} if case == "compiled"
                                                         else set())
            for stem in ("passes", "sensitivity"):
                assert set(fresh_build(stem)) <= {os.getpid()}
            verdicts = [found for key, found in compiled._verdicts.items() if key[0] == "passes"]
            assert len(verdicts) == (case != "finite-difference-constraint-jac")
            assert (verdicts != [] and verdicts[0] != PYTHON_PASSES) == (case == "compiled")
        monkeypatch.setattr(compiled, "_verdicts", {})
        compiled.load.cache_clear()
    assert artifacts[0] == artifacts[1]
    # a library is built once; a build that fails leaves nothing to load, so the next run tries again
    builds = {"compiled": 1, "changed-derivative-constant": 1, "values-only-c-source": 2}.get(case, 0)
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
